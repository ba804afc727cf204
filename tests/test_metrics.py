"""Confusion counting and figure-of-merit semantics, including the
equivalence of the hard-count and soft-overlap formulations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvfcn import ConfusionCounts, confusion, evaluate_sequence, fom
from mvfcn.errors import DataError, ShapeError
from mvfcn.metrics import format_report, precision, recall

from conftest import fom_soft


class TestConfusion:
    def test_perfect_prediction(self):
        gt = np.zeros((6, 6), np.uint8)
        gt[2:4, 2:5] = 1
        counts = confusion(gt, gt)
        assert (counts.tp, counts.fp, counts.fn) == (6, 0, 0)
        assert counts.tn == 30

    def test_total_disagreement(self):
        gt = np.zeros((4, 4), np.uint8)
        gt[:2] = 1
        counts = confusion(1 - gt, gt)
        assert counts.tp == 0 and counts.tn == 0
        assert counts.fp == 8 and counts.fn == 8

    def test_hand_placed_fixture(self):
        # 4x4 grid: 3 true positives, 1 false positive, 2 false negatives
        gt = np.zeros((4, 4), np.uint8)
        pred = np.zeros((4, 4), np.uint8)
        gt[0, 0] = gt[0, 1] = gt[1, 0] = gt[2, 2] = gt[3, 3] = 1
        pred[0, 0] = pred[0, 1] = pred[1, 0] = pred[1, 3] = 1
        counts = confusion(pred, gt)
        assert (counts.tp, counts.fp, counts.fn) == (3, 1, 2)
        assert counts.tp + counts.fp + counts.fn + counts.tn == 16

    def test_roi_excludes_pixels(self):
        gt = np.ones((2, 2), np.uint8)
        pred = np.zeros((2, 2), np.uint8)
        roi = np.array([[1, 0], [0, 0]], np.uint8)
        counts = confusion(pred, gt, roi)
        assert counts.tp + counts.fp + counts.fn + counts.tn == 1 and counts.fn == 1

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            confusion(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_roi_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            confusion(np.zeros((2, 2)), np.zeros((2, 2)), np.ones((2, 3)))


class TestPrecisionRecall:
    """With nothing predicted (precision) or nothing true (recall) the ratio
    is 1 when the other side is empty too, else 0."""

    @pytest.mark.parametrize("counts, expected", [
        (ConfusionCounts(0, 0, 0, 4), 1.0),
        (ConfusionCounts(0, 0, 3, 1), 0.0),
    ])
    def test_precision_with_no_predicted_foreground(self, counts, expected):
        assert precision(counts) == expected

    @pytest.mark.parametrize("counts, expected", [
        (ConfusionCounts(0, 0, 0, 4), 1.0),
        (ConfusionCounts(0, 2, 0, 2), 0.0),
    ])
    def test_recall_with_no_true_foreground(self, counts, expected):
        assert recall(counts) == expected


class TestFom:
    def test_hand_fixture(self):
        assert fom(ConfusionCounts(tp=3, fp=1, fn=2)) == pytest.approx(2 / 3, abs=1e-4)

    def test_perfect(self):
        assert fom(ConfusionCounts(tp=10)) == 1.0

    def test_zero_tp_nonempty_gt(self):
        assert fom(ConfusionCounts(fn=5)) == 0.0

    def test_both_empty_is_one(self):
        assert fom(ConfusionCounts(tn=10)) == 1.0

    @given(tp=st.integers(0, 50), fp=st.integers(0, 50),
           fn=st.integers(0, 50), tn=st.integers(0, 50))
    def test_bounded(self, tp, fp, fn, tn):
        assert 0.0 <= fom(ConfusionCounts(tp, fp, fn, tn)) <= 1.0

    @given(tp=st.integers(0, 50), fp=st.integers(0, 50), fn=st.integers(1, 50))
    def test_promoting_fn_to_tp_never_decreases(self, tp, fp, fn):
        before = fom(ConfusionCounts(tp, fp, fn))
        after = fom(ConfusionCounts(tp + 1, fp, fn - 1))
        assert after >= before

    def test_matches_harmonic_mean_of_precision_recall(self):
        counts = ConfusionCounts(tp=13, fp=4, fn=7, tn=100)
        p, r = precision(counts), recall(counts)
        assert fom(counts) == pytest.approx(2 * p * r / (p + r), rel=1e-12)


class TestFomSoft:
    def test_identical_masks(self):
        mask = np.zeros((4, 4))
        mask[:2, :2] = 1  # 4 foreground... use 8 pixels
        mask[2:, 2:] = 1
        val = fom_soft(mask, mask)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_disjoint_masks(self):
        x = np.zeros((4, 4))
        y = np.zeros((4, 4))
        x[0] = 1
        y[-1] = 1
        assert fom_soft(x, y) == pytest.approx(2e-8 / (8 + 1e-8), rel=1e-6)

    def test_symmetric(self):
        r = np.random.default_rng(0)
        x = r.uniform(size=(5, 5))
        y = (r.uniform(size=(5, 5)) > 0.5).astype(float)
        assert fom_soft(x, y) == fom_soft(y, x)

    @pytest.mark.parametrize("seed", range(30))
    def test_agrees_with_hard_fom_on_binary(self, seed):
        r = np.random.default_rng(seed)
        pred = (r.uniform(size=(8, 8)) > 0.5).astype(np.uint8)
        gt = (r.uniform(size=(8, 8)) > 0.5).astype(np.uint8)
        assert fom_soft(pred, gt) == pytest.approx(fom(confusion(pred, gt)), abs=1e-6)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_permutation_invariance(self, seed):
        r = np.random.default_rng(seed)
        pred = (r.uniform(size=(6, 6)) > 0.4).astype(np.uint8)
        gt = (r.uniform(size=(6, 6)) > 0.6).astype(np.uint8)
        perm = r.permutation(36)
        counts = confusion(pred, gt)
        shuffled = confusion(pred.ravel()[perm].reshape(6, 6),
                             gt.ravel()[perm].reshape(6, 6))
        assert fom(counts) == fom(shuffled)


class TestEvaluateSequence:
    def test_single_frame_aggregate_equals_frame(self):
        r = np.random.default_rng(1)
        pred = (r.uniform(size=(6, 6)) > 0.5).astype(np.uint8)
        gt = (r.uniform(size=(6, 6)) > 0.5).astype(np.uint8)
        report = evaluate_sequence([pred], [gt])
        assert report.fom == report.frame_foms[0] == report.mean_fom

    def test_two_frame_pooled_arithmetic(self):
        # frame counts (3,1,2) and (5,0,0) pool to 2*8/(16+1+2)
        gt1 = np.zeros((4, 4), np.uint8)
        pred1 = np.zeros((4, 4), np.uint8)
        gt1[0, :3] = 1
        gt1[1, :2] = 1
        pred1[0, :3] = 1
        pred1[3, 3] = 1
        c1 = confusion(pred1, gt1)
        assert (c1.tp, c1.fp, c1.fn) == (3, 1, 2)
        gt2 = np.zeros((4, 4), np.uint8)
        gt2[2, :] = 1
        gt2[3, 0] = 1
        c2 = confusion(gt2, gt2)
        assert (c2.tp, c2.fp, c2.fn) == (5, 0, 0)
        report = evaluate_sequence([pred1, gt2], [gt1, gt2])
        assert report.fom == pytest.approx(16 / 19, abs=1e-9)

    def test_all_perfect(self):
        frames = [(np.random.default_rng(i).uniform(size=(5, 5)) > 0.5).astype(np.uint8)
                  for i in range(4)]
        report = evaluate_sequence(frames, frames)
        assert report.fom == 1.0 and report.mean_fom == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            evaluate_sequence([np.zeros((2, 2))], [])

    @pytest.mark.parametrize("preds, gts, rois", [
        ([], [], None),
        ([np.zeros((2, 2))], [np.zeros((2, 2))], [np.ones((2, 2))] * 2),
    ], ids=["empty", "roi-count"])
    def test_refused(self, preds, gts, rois):
        with pytest.raises(DataError):
            evaluate_sequence(preds, gts, rois)

    def test_report_is_machine_readable(self):
        pred = np.ones((3, 3), np.uint8)
        report = evaluate_sequence([pred], [pred])
        text = format_report(report)
        fields = dict(line.split("=") for line in text.splitlines())
        assert fields["frames"] == "1"
        assert float(fields["fom"]) == 1.0
        assert "frame_1_fom" in fields

"""Seeded generators and the output checks of the benchmark's workloads."""

import math
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [p for p in (str(BENCH.parent / "src"), str(BENCH)) if p not in sys.path]

import machine  # noqa: E402
import workloads
from mvfcn.graph import build_mvfcn
from mvfcn.io import save_scoremap


def test_score_sequence_is_seeded():
    a = workloads.make_score_sequence(3, seed=5)
    b = workloads.make_score_sequence(3, seed=5)
    c = workloads.make_score_sequence(3, seed=6)
    for xs, ys in zip(a, b):
        assert all(np.array_equal(x, y) for x, y in zip(xs, ys))
    assert not np.array_equal(a[0][0], c[0][0])


def test_score_sequence_modes_and_speckle():
    scores, gts, expected = workloads.make_score_sequence(4, seed=2)
    for score, gt, keep in zip(scores, gts, expected):
        fg = score >= workloads.FG_MIN
        assert score.dtype == np.float32 and score.max() < 1.0
        assert np.all(score[~fg] < workloads.BG_MAX)
        assert np.all(keep <= fg) and np.all(gt <= keep)
        assert fg.sum() > keep.sum()           # some speckle gets removed


def test_score_sequence_work_does_not_depend_on_seed():
    """Runs take a new seed each, so a seed must not change how much
    foreground a frame of the density ramp holds."""
    counts = [sorted(int((s >= workloads.FG_MIN).sum())
                     for s in workloads.make_score_sequence(6, seed)[0]) for seed in (1, 2, 3)]
    for other in counts[1:]:
        assert all(abs(x - y) <= 50 for x, y in zip(counts[0], other))


def test_workload_setup_is_seeded(tmp_path):
    for make in (lambda: workloads.TrainEpoch(frames=10, size=(32, 32), batch=4),
                 lambda: workloads.InferPipeline(frames=1)):
        first, second = make(), make()
        first.setup(tmp_path / "a", 4)
        second.setup(tmp_path / "b", 4)
        if isinstance(first, workloads.TrainEpoch):
            for s, t in zip(first.samples, second.samples):
                assert np.array_equal(s.image, t.image) and np.array_equal(s.gt, t.gt)
        else:
            assert first.ckpt.read_bytes() == second.ckpt.read_bytes()
            assert [open(p, "rb").read() for p in first.inputs] == \
                   [open(p, "rb").read() for p in second.inputs]


def test_post_check_accepts_the_program_and_rejects_perturbations(tmp_path):
    workload = workloads.PostHeavy(frames=3)
    workload.setup(tmp_path, 9)
    result = workload.task()
    assert result.frames == 3 and len(result.frame_s) == 3
    assert workload.check() == set()
    workload.masks[0] = workload.masks[0].copy()
    workload.masks[0][0, 0] ^= 1
    path = workload.out / (workload.paths[2].stem + ".pgm")
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))
    assert workload.check() == {0, 2}


def test_blank_score_map_is_a_failed_frame_not_an_abort(tmp_path):
    workload = workloads.PostHeavy(frames=2)
    workload.setup(tmp_path, 9)
    save_scoremap(np.full((240, 320), 0.001, dtype=np.float32), workload.paths[0])
    workload.task()
    assert workload.masks[0] is None and workload.masks[1] is not None
    assert workload.check() == {0}


def test_failing_cli_stage_fails_the_frames_not_the_run(tmp_path):
    workload = workloads.InferPipeline(frames=1)
    workload.setup(tmp_path, 3)
    workload.ckpt.write_bytes(b"not a checkpoint")
    workload.task()
    assert workload.codes == [4, 3, 3]
    assert workload.check() == {0}


def test_scores_match_rejects_perturbed_score_map():
    reference = np.random.default_rng(1).uniform(size=(24, 32))
    score = reference.astype(np.float32)
    assert workloads.scores_match(score, reference)
    bumped = score.copy()
    bumped[3, 4] += 1e-3
    assert not workloads.scores_match(bumped, reference)
    nan = score.copy()
    nan[0, 0] = np.nan
    assert not workloads.scores_match(nan, reference)
    assert not workloads.scores_match(score[:-1], reference)


def test_history_check_tolerates_reordering_but_not_errors():
    want = {"train_loss": 0.5, "val_loss": 1.1, "train_fom": 0.8, "val_fom": 0.83}
    assert workloads.history_matches({k: v * (1 + 1e-6) for k, v in want.items()}, want)
    assert not workloads.history_matches({**want, "train_loss": 0.51}, want)
    assert not workloads.history_matches({**want, "val_fom": 0.78}, want)
    assert not workloads.history_matches({**want, "val_loss": math.nan}, want)


def test_kernel_counts_follow_infer_shapes():
    counts = machine.conv_kernel_counts(build_mvfcn(), (240, 320))
    assert sorted(counts) == [2, 3, 4, 5, 6, 7, 9, 10, 11, 13, 14, 15, 17, 18, 20, 21,
                              23, 24, 26, 27, 30, 32]
    # L30: 3x3, 112 -> 128 channels at full resolution
    assert counts[30]["fwd_flops"] == 2 * 9 * 112 * 128 * 240 * 320
    # L18: convT 3x3 stride 2, 64 -> 64, input 15x20
    assert counts[18]["fwd_flops"] == 2 * 9 * 64 * 64 * 15 * 20
    assert all(c["bwd_flops"] == 2 * c["fwd_flops"] for c in counts.values())


"""Loss, optimizer, schedule, split, augmentation, and training-loop
behavior, including bit-exact determinism and resume."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mvfcn import (
    AdamState,
    EngineRng,
    Sample,
    TrainConfig,
    adam_step,
    backward,
    bce_loss,
    build_mvfcn,
    forward,
    lr_at,
    ordered_split,
    train_loop,
)
from mvfcn.errors import CheckpointError, ConfigError, DataError, ShapeError
from mvfcn.io import ROLE_ADAM_STEP, ROLE_RNG, apply_state, save_checkpoint
from mvfcn.synth import make_rectangles_dataset
from mvfcn.train import _frame_mask, apply_affine_pair, augment_pair, evaluate_split

from conftest import numerical_grad, rel_err, tiny_graph, to_float64


class TestBceLoss:
    def test_half_prediction_of_ones_is_ln2(self):
        logits = np.zeros((1, 1, 4, 4))
        target = np.ones_like(logits)
        loss, _ = bce_loss(logits, target)
        assert loss == pytest.approx(math.log(2), rel=1e-12)

    def test_saturated_correct_prediction_vanishes(self):
        logits = np.full((1, 1, 3, 3), 40.0)
        target = np.ones_like(logits)
        loss, _ = bce_loss(logits, target)
        assert 0.0 <= loss < 1e-15
        loss_neg, _ = bce_loss(-logits, np.zeros_like(logits))
        assert 0.0 <= loss_neg < 1e-15

    def test_gradient_matches_fd(self):
        r = np.random.default_rng(0)
        logits = r.normal(size=(2, 1, 3, 3))
        target = r.uniform(size=logits.shape)
        _, d = bce_loss(logits, target)
        fd = numerical_grad(lambda v: bce_loss(v, target)[0], logits)
        assert rel_err(d, fd) < 1e-4

    def test_loss_nonnegative_and_zero_only_at_match(self):
        r = np.random.default_rng(1)
        for _ in range(20):
            logits = r.normal(0, 5, size=(1, 1, 4, 4))
            target = (r.uniform(size=logits.shape) > 0.5).astype(float)
            loss, _ = bce_loss(logits, target)
            assert loss >= 0.0
            if loss < 1e-12:
                assert np.abs((logits > 0) - target).max() == 0

    def test_target_out_of_range_rejected(self):
        with pytest.raises(DataError):
            bce_loss(np.zeros((1, 1, 2, 2)), np.full((1, 1, 2, 2), 1.5))

    def test_nan_target_rejected(self):
        # one NaN would turn the loss into nan, not fail a range check
        target = np.array([[[[0.0, 1.0], [np.nan, 0.0]]]])
        with pytest.raises(DataError):
            bce_loss(np.zeros((1, 1, 2, 2)), target)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            bce_loss(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 2, 3)))


class TestAdam:
    def _graph(self, seed=0):
        graph = tiny_graph()
        graph.initialize_parameters(EngineRng(seed))
        return graph

    def _unit_grads(self, graph, value=1.0):
        return {lid: {name: np.full_like(arr, value)
                      for name, arr in per.items()}
                for lid, per in _param_dict(graph).items()}

    def test_first_step_is_minus_lr(self):
        graph = self._graph()
        before = {(l, n): a.copy() for l, n, a in graph.parameter_items()}
        state = AdamState(lr=0.01)
        adam_step(graph, self._unit_grads(graph), state)
        for lid, name, arr in graph.parameter_items():
            delta = arr - before[(lid, name)]
            assert np.allclose(delta, -0.01 / (1 + state.eps), rtol=1e-6)

    def test_moments_are_made_on_the_first_step_only(self, monkeypatch):
        graph = self._graph()
        state = AdamState(lr=0.01)
        adam_step(graph, self._unit_grads(graph), state)
        moments = {key: (state.m[key], state.v[key]) for key in state.m}
        assert len(moments) == len(list(graph.parameter_items())) == len(state.v)

        def no_new_moment(*args, **kwargs):
            raise AssertionError("a later step built a moment array")

        monkeypatch.setattr(np, "zeros_like", no_new_moment)
        adam_step(graph, self._unit_grads(graph), state)
        for key, (m, v) in moments.items():
            assert state.m[key] is m and state.v[key] is v

    def test_zero_gradients_leave_parameters_fixed(self):
        graph = self._graph()
        before = {(l, n): a.copy() for l, n, a in graph.parameter_items()}
        state = AdamState(lr=0.01)
        for _ in range(5):
            adam_step(graph, self._unit_grads(graph, 0.0), state)
        for lid, name, arr in graph.parameter_items():
            assert np.array_equal(arr, before[(lid, name)])

    def test_zero_lr_freezes_parameters(self):
        graph = self._graph()
        before = {(l, n): a.copy() for l, n, a in graph.parameter_items()}
        state = AdamState(lr=0.0)
        r = np.random.default_rng(0)
        grads = {lid: {name: r.normal(size=arr.shape).astype(arr.dtype)
                       for name, arr in per.items()}
                 for lid, per in _param_dict(graph).items()}
        adam_step(graph, grads, state)
        for lid, name, arr in graph.parameter_items():
            assert np.array_equal(arr, before[(lid, name)])

    def test_ten_steps_deterministic(self):
        results = []
        for _ in range(2):
            graph = self._graph(3)
            state = AdamState(lr=1e-3)
            r = np.random.default_rng(7)
            for _ in range(10):
                grads = {lid: {name: r.normal(size=arr.shape).astype(arr.dtype)
                               for name, arr in per.items()}
                         for lid, per in _param_dict(graph).items()}
                adam_step(graph, grads, state)
            results.append({(l, n): a.copy() for l, n, a in graph.parameter_items()})
        for key in results[0]:
            assert np.array_equal(results[0][key], results[1][key])

    def test_descent_smoke_at_tiny_lr(self):
        graph = to_float64(self._graph(11))
        r = np.random.default_rng(5)
        x = r.uniform(size=(1, 2, 6, 6))
        target = (r.uniform(size=(1, 1, 6, 6)) > 0.5).astype(np.float64)
        _, cache = forward(graph, x, mode="train", rng=EngineRng(0))
        loss0, d = bce_loss(cache.logits, target)
        grads = backward(graph, cache, d)
        adam_step(graph, grads, AdamState(lr=1e-6))
        _, cache2 = forward(graph, x, mode="train", rng=EngineRng(0))
        loss1, _ = bce_loss(cache2.logits, target)
        assert loss1 < loss0


def _param_dict(graph):
    out = {}
    for lid, name, arr in graph.parameter_items():
        out.setdefault(lid, {})[name] = arr
    return out


class TestLrSchedule:
    def test_base_rate_at_epoch_zero(self):
        assert lr_at(0, TrainConfig()) == 2e-4

    def test_one_decay_step(self):
        assert lr_at(5, TrainConfig()) == pytest.approx(0.00016)

    def test_disabled_schedule_is_constant(self):
        cfg = TrainConfig(lr_decay_every=0)
        assert lr_at(1000, cfg) == cfg.base_lr

    @given(epoch=st.integers(0, 100))
    def test_closed_form(self, epoch):
        cfg = TrainConfig()
        assert lr_at(epoch, cfg) == pytest.approx(2e-4 * 0.8 ** (epoch // 5))


class TestOrderedSplit:
    def test_canoe_sized_sequence(self):
        split = ordered_split(342)
        assert split.k == 239
        assert list(split.train_indices) == list(range(239))
        assert list(split.test_indices) == list(range(239, 342))

    def test_ten_frames(self):
        assert ordered_split(10).k == 7

    def test_minimal(self):
        split = ordered_split(2)
        assert split.k == 1
        assert len(split.test_indices) == 1

    def test_too_small_rejected(self):
        with pytest.raises(DataError):
            ordered_split(1)

    @given(n=st.integers(2, 2000))
    def test_temporal_exclusivity(self, n):
        split = ordered_split(n)
        assert max(split.train_indices) < min(split.test_indices)
        assert len(split.train_indices) + len(split.test_indices) == n
        assert len(split.train_indices) >= 1 and len(split.test_indices) >= 1


class TestAugmentation:
    def test_disabled_is_identity(self, rng):
        sample = make_rectangles_dataset(1, (16, 16), seed=0)[0]
        cfg = TrainConfig(augment=False)
        img, gt = augment_pair(sample.image, sample.gt, cfg, rng)
        assert img is sample.image and gt is sample.gt

    def test_identity_parameters_bit_exact(self):
        sample = make_rectangles_dataset(1, (16, 16), seed=1)[0]
        img, gt = apply_affine_pair(sample.image, sample.gt, 0.0, 0.0, 0.0, 1.0)
        assert np.array_equal(img, sample.image)
        assert np.array_equal(gt, sample.gt)

    @pytest.mark.parametrize("seed", range(8))
    def test_mask_stays_binary(self, seed):
        sample = make_rectangles_dataset(1, (20, 20), seed=seed)[0]
        rng = EngineRng(seed)
        _, gt = augment_pair(sample.image, sample.gt, TrainConfig(), rng)
        assert set(np.unique(gt)) <= {0.0, 1.0}

    def test_shift_moves_content(self):
        image = np.zeros((1, 8, 8), dtype=np.float32)
        gt = np.zeros((8, 8), dtype=np.float32)
        image[0, 2, 2] = 1.0
        gt[2, 2] = 1.0
        img2, gt2 = apply_affine_pair(image, gt, 0.0, 1.0, 2.0, 1.0)
        assert gt2[3, 4] == 1.0 and gt2[2, 2] == 0.0
        assert img2[0, 3, 4] == pytest.approx(1.0)

    def test_out_of_frame_zero_filled(self):
        image = np.ones((1, 6, 6), dtype=np.float32)
        gt = np.ones((6, 6), dtype=np.float32)
        img2, gt2 = apply_affine_pair(image, gt, 0.0, 3.0, 0.0, 1.0)
        assert not img2[0, :3].any()
        assert not gt2[:3].any()

    def test_half_pixel_shift_interpolates(self):
        image = np.zeros((1, 5, 5), dtype=np.float64)
        image[0, 2, 2] = 1.0
        gt = np.zeros((5, 5), dtype=np.float64)
        img2, _ = apply_affine_pair(image, gt, 0.0, 0.0, 0.5, 1.0)
        # the unit spike splits evenly between the two horizontal neighbors
        assert img2[0, 2, 2] == pytest.approx(0.5)
        assert img2[0, 2, 3] == pytest.approx(0.5)
        assert img2.sum() == pytest.approx(1.0)

    def test_same_rng_state_same_augmentation(self):
        sample = make_rectangles_dataset(1, (16, 16), seed=2)[0]
        a = augment_pair(sample.image, sample.gt, TrainConfig(), EngineRng(33))
        b = augment_pair(sample.image, sample.gt, TrainConfig(), EngineRng(33))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestFrameMask:
    @pytest.mark.parametrize("level, expected", [(0.3, 0), (0.5, 1), (0.7, 1)])
    def test_flat_map_thresholds_at_one_half(self, level, expected):
        # a single-level map has no Otsu split; the fallback tau is 0.5
        mask = _frame_mask(np.full((6, 8), level, np.float32))
        assert mask.shape == (6, 8)
        assert (mask == expected).all()


def _tiny_dataset(n=6, size=(32, 32), seed=0):
    return make_rectangles_dataset(n, size, seed=seed)


def _fast_cfg(**overrides):
    defaults = dict(base_lr=1e-3, batch_size=4, max_epochs=2, seed=5,
                    lr_decay_every=0, bn_momentum=0.9,
                    augment=False)
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestTrainLoop:
    def test_smoke_and_history(self):
        result = train_loop(_tiny_dataset(), _fast_cfg())
        assert len(result.history) == 2
        for row in result.history.rows:
            assert 0.0 <= row.val_fom <= 1.0
            assert 0.0 <= row.train_fom <= 1.0
        table = result.history.as_table()
        assert table.splitlines()[0].startswith("epoch\tlr")
        assert len(table.splitlines()) == 3

    def test_first_batch_loss_near_ln2(self):
        result = train_loop(_tiny_dataset(), _fast_cfg(max_epochs=1))
        assert result.history.rows[0].train_loss == pytest.approx(math.log(2), abs=0.2)

    def test_same_seed_bit_identical_checkpoints(self, tmp_path):
        a = train_loop(_tiny_dataset(), _fast_cfg())
        b = train_loop(_tiny_dataset(), _fast_cfg())
        save_checkpoint(tmp_path / "a.ckpt", a.best)
        save_checkpoint(tmp_path / "b.ckpt", b.best)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
        save_checkpoint(tmp_path / "al.ckpt", a.last)
        save_checkpoint(tmp_path / "bl.ckpt", b.last)
        assert (tmp_path / "al.ckpt").read_bytes() == (tmp_path / "bl.ckpt").read_bytes()

    def test_resume_reproduces_uninterrupted_run(self):
        dataset = _tiny_dataset()
        full = train_loop(dataset, _fast_cfg(max_epochs=4))
        head = train_loop(dataset, _fast_cfg(max_epochs=2))
        tail = train_loop(dataset, _fast_cfg(max_epochs=4), init=head.last,
                          start_epoch=2)
        # the resumed run must continue the interrupted trajectory bit-exactly
        assert len(tail.history) == 2
        for resumed, reference in zip(tail.history.rows, full.history.rows[2:]):
            assert resumed.train_loss == reference.train_loss
            assert resumed.val_loss == reference.val_loss
            assert resumed.train_fom == reference.train_fom

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            train_loop([], _fast_cfg())

    def test_mismatched_shapes_rejected(self):
        samples = _tiny_dataset(4)
        samples[2] = Sample(image=samples[2].image,
                            gt=samples[2].gt[:-2, :])
        with pytest.raises(DataError):
            train_loop(samples, _fast_cfg())


class TestTransferInit:
    def test_weight_copy_gives_identical_forward(self):
        donor = train_loop(_tiny_dataset(), _fast_cfg(max_epochs=1))
        graph = build_mvfcn()
        graph.initialize_parameters(EngineRng(77))
        apply_state(graph, donor.best)
        x = np.stack([s.image for s in _tiny_dataset(2)]).astype(np.float32)
        ours, _ = forward(graph, x, mode="infer")
        theirs, _ = forward(donor.graph, x, mode="infer")
        assert np.array_equal(ours, theirs)

    def test_reshaped_tensor_refused_with_layer_name(self):
        donor = train_loop(_tiny_dataset(), _fast_cfg(max_epochs=1))
        payload = donor.best
        payload.entries[(17, 0)] = payload.entries[(17, 0)].reshape(-1, 3, 3)
        graph = build_mvfcn()
        graph.initialize_parameters(EngineRng(0))
        with pytest.raises(CheckpointError, match="layer 17"):
            apply_state(graph, payload)

    def test_finetune_starts_at_donor_val_loss(self):
        dataset = _tiny_dataset(seed=3)
        donor = train_loop(dataset, _fast_cfg(max_epochs=2))
        from mvfcn.train import ordered_split as _split
        split = _split(len(dataset))
        donor_val, _ = evaluate_split(donor.graph, dataset, split.test_indices, 4)

        graph = build_mvfcn()
        graph.initialize_parameters(EngineRng(123))
        apply_state(graph, donor.last)
        val, _ = evaluate_split(graph, dataset, split.test_indices, 4)
        assert val == donor_val

    def test_transfer_run_keeps_its_own_rng_and_optimizer(self):
        # a weights-only transfer: the donor's rng position and Adam step are not taken
        dataset = _tiny_dataset()
        donor = train_loop(dataset, _fast_cfg(seed=2))
        fresh = train_loop(dataset, _fast_cfg(seed=99))
        moved = train_loop(dataset, _fast_cfg(seed=99), init=donor.last)
        for key in ((0, ROLE_RNG), (0, ROLE_ADAM_STEP)):
            assert np.array_equal(moved.last.entries[key], fresh.last.entries[key])


def _wrongly_shaped_step():
    graph = tiny_graph()
    graph.initialize_parameters(EngineRng(0))
    grads = {lid: {name: np.zeros(arr.shape + (1,), arr.dtype)
                   for name, arr in per.items()} for lid, per in _param_dict(graph).items()}
    adam_step(graph, grads, AdamState(lr=0.01))


@pytest.mark.parametrize("call, error", [
    (_wrongly_shaped_step, ShapeError),
    (lambda: lr_at(-1, TrainConfig()), ConfigError),
    (lambda: apply_affine_pair(np.zeros((4, 4)), np.zeros((4, 5)), 0, 0, 0, 1), ShapeError),
    (lambda: train_loop(_tiny_dataset(4), _fast_cfg(max_epochs=1), start_epoch=2), ConfigError),
], ids=["adam-gradient-shape", "negative-epoch", "affine-sizes", "start-past-max-epochs"])
def test_refused(call, error):
    with pytest.raises(error):
        call()

"""Acceptance gate: one test per release criterion, each printing a PASS
line on success (run with -s or -v to see them).

Criteria with stated runtime budgets assert them; gradient checks run in
float64 while production paths stay float32.
"""

import time

import numpy as np
import pytest

from mvfcn import (
    ConvSpec,
    EngineRng,
    ShapeError,
    TrainConfig,
    TransposeConvSpec,
    backward,
    batchnorm_forward,
    bce_loss,
    build_mvfcn,
    conv2d_backward,
    conv2d_forward,
    convT2d_backward,
    convT2d_forward,
    count_params,
    forward,
    infer_shapes,
    otsu_threshold,
    relu,
    relu_backward,
    remove_small_regions,
    sigmoid,
    sigmoid_backward,
    summary,
    threshold_global,
    train_loop,
)
from mvfcn.io import apply_state, save_checkpoint
from mvfcn.metrics import confusion, fom, ConfusionCounts
from mvfcn.postproc import HISTOGRAM_BINS
from mvfcn.synth import make_rectangles_dataset
from mvfcn.tensor import BatchNormState
from mvfcn.train import evaluate_split, ordered_split

from conftest import (
    fom_soft,
    numerical_grad,
    rel_err,
    tiny_graph,
    to_float64,
    transpose_alpha,
    transpose_output_size,
)

GRAD_TOL = 1e-3


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_parameter_count():
    start = time.time()
    graph = build_mvfcn()
    total, per_layer = count_params(graph)
    assert total == 494_337
    counts = dict(per_layer)
    for layer in graph.layers:
        if layer.kind in ("conv", "convT"):
            cin = graph.channels[layer.inputs[0]]
            audit = layer.kernel ** 2 * cin * layer.out_channels + layer.out_channels
        elif layer.kind == "batchnorm":
            audit = 2 * graph.channels[layer.id]
        else:
            audit = 0
        assert counts[layer.id] == audit, layer.id
    text = summary(graph)
    assert text.splitlines()[-1] == "Total trainable parameters: 494337"
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(1, f"494,337 parameters, closed-form audit, {elapsed * 1000:.0f} ms")


def test_criterion_2_shape_oracle():
    from test_graph import GOLDEN_SHAPES

    start = time.time()
    shapes = infer_shapes(build_mvfcn(), (3, 240, 320))
    assert shapes == GOLDEN_SHAPES
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(2, f"all 32 output shapes reproduced, {elapsed * 1000:.0f} ms")


def test_criterion_3_gradient_suite():
    start = time.time()
    seeds = range(20)
    for seed in seeds:
        r = np.random.default_rng(seed)

        # convolution
        spec = ConvSpec(3, 2, 2, 3)
        x = r.normal(size=(1, 2, 6, 6))
        w = r.normal(size=spec.weight_shape())
        b = r.normal(size=3)
        proj = r.normal(size=conv2d_forward(x, w, b, spec).shape)
        d_x, d_w, d_b = conv2d_backward(x, w, spec, proj)
        assert rel_err(d_x, numerical_grad(
            lambda v: float((conv2d_forward(v, w, b, spec) * proj).sum()), x)) < GRAD_TOL
        assert rel_err(d_w, numerical_grad(
            lambda v: float((conv2d_forward(x, v, b, spec) * proj).sum()), w)) < GRAD_TOL
        assert rel_err(d_b, numerical_grad(
            lambda v: float((conv2d_forward(x, w, v, spec) * proj).sum()), b)) < GRAD_TOL

        # transposed convolution
        tspec = TransposeConvSpec(3, 2, 2, 2)
        xt = r.normal(size=(1, 2, 3, 3))
        wt = r.normal(size=tspec.weight_shape())
        bt = r.normal(size=2)
        projt = r.normal(size=(1, 2, 6, 6))
        d_x, d_w, d_b = convT2d_backward(xt, wt, tspec, projt)
        assert rel_err(d_x, numerical_grad(
            lambda v: float((convT2d_forward(v, wt, bt, tspec) * projt).sum()), xt)) < GRAD_TOL
        assert rel_err(d_w, numerical_grad(
            lambda v: float((convT2d_forward(xt, v, bt, tspec) * projt).sum()), wt)) < GRAD_TOL

        # relu away from the kink, sigmoid anywhere
        xa = r.normal(size=(4, 5))
        xa[np.abs(xa) < 1e-4] = 0.3
        pa = r.normal(size=xa.shape)
        assert rel_err(relu_backward(pa, xa), numerical_grad(
            lambda v: float((relu(v) * pa).sum()), xa)) < GRAD_TOL
        assert rel_err(sigmoid_backward(pa, sigmoid(xa)), numerical_grad(
            lambda v: float((sigmoid(v) * pa).sum()), xa)) < GRAD_TOL

        # batch norm
        xb = r.normal(1.0, 2.0, size=(2, 2, 4, 4))
        pb = r.normal(size=xb.shape)

        def bn_loss(v):
            state = BatchNormState.create(2, dtype=np.float64)
            y, _ = batchnorm_forward(v, state, "train")
            return float((y * pb).sum())

        state = BatchNormState.create(2, dtype=np.float64)
        from mvfcn import batchnorm_backward
        yb, cache = batchnorm_forward(xb, state, "train")
        d_xb, _, _ = batchnorm_backward(pb, state, cache)
        assert rel_err(d_xb, numerical_grad(bn_loss, xb)) < GRAD_TOL

        # fused loss
        logits = r.normal(size=(1, 1, 4, 4))
        target = r.uniform(size=logits.shape)
        _, d_logits = bce_loss(logits, target)
        assert rel_err(d_logits, numerical_grad(
            lambda v: bce_loss(v, target)[0], logits)) < GRAD_TOL

        # 3-layer end-to-end graph
        graph = to_float64(_seeded(tiny_graph(), seed))
        xg = r.uniform(size=(1, 2, 6, 6))
        tg = (r.uniform(size=(1, 1, 6, 6)) > 0.5).astype(np.float64)
        _, cache = forward(graph, xg, mode="train", rng=EngineRng(seed))
        _, d_l = bce_loss(cache.logits, tg)
        grads = backward(graph, cache, d_l)
        for lid in (2, 3, 4):
            param = graph.params[lid]["weight"]

            def graph_loss(values, param=param):
                saved = param.copy()
                np.copyto(param, values)
                _, c = forward(graph, xg, mode="train", rng=EngineRng(seed))
                np.copyto(param, saved)
                return bce_loss(c.logits, tg)[0]

            assert rel_err(grads[lid]["weight"], numerical_grad(graph_loss, param)) < GRAD_TOL

    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(3, f"all ops + end-to-end graph vs finite differences, "
               f"{len(list(seeds))} seeds, {elapsed:.1f} s")


def test_criterion_4_adjoint_property():
    draws = 0
    covered = set()
    for seed in range(60):
        r = np.random.default_rng(1000 + seed)
        k = int(r.choice([1, 3, 5, 9]))
        s = int(r.choice([1, 2, 4, 8]))
        cin, cout = int(r.integers(1, 4)), int(r.integers(1, 4))
        h, w = int(r.integers(k, k + 8)), int(r.integers(k, k + 8))
        spec = ConvSpec(k, s, cin, cout)
        tspec = TransposeConvSpec(k, s, cout, cin)
        x = r.normal(size=(2, cin, h, w))
        weight = r.normal(size=spec.weight_shape())
        conv_out = conv2d_forward(x, weight, None, spec)
        y = r.normal(size=conv_out.shape)
        lhs = float((conv_out * y).sum())
        rhs = float((x * convT2d_forward(y, weight, None, tspec, out_hw=(h, w))).sum())
        assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(lhs), abs(rhs)), (k, s)
        draws += 1
        covered.add((k, s))
    assert draws >= 50
    assert {k for k, _ in covered} == {1, 3, 5, 9}
    assert {s for _, s in covered} == {1, 2, 4, 8}
    _report(4, f"inner-product identity on {draws} draws covering "
               f"K in {{1,3,5,9}}, S in {{1,2,4,8}}")


def test_criterion_5_transpose_sizing():
    spec = TransposeConvSpec(3, 2, 1, 1)
    weight = np.zeros(spec.weight_shape(), dtype=np.float32)
    for i_prime, target in [(15, 30), (30, 60), (60, 120), (120, 240)]:
        # the Keras-style dilate-then-conv oracle
        alpha = transpose_alpha(target, kernel=3, stride=2, padding=1)
        assert alpha == 1
        assert transpose_output_size(i_prime, 3, 2, 1, alpha) == target
        # the engine's own rule: the spec, the output shape, and the refusal
        # of a target the input is not the stride-2 image of
        assert spec.output_hw(i_prime, i_prime) == (target, target)
        x = np.zeros((1, 1, i_prime, i_prime), dtype=np.float32)
        assert convT2d_forward(x, weight, None, spec).shape == (1, 1, target, target)
        with pytest.raises(ShapeError):
            convT2d_forward(x, weight, None, spec, out_hw=(target + 2, target))
    _report(5, "upsampling arithmetic doubles 15/30/60/120 exactly")


def test_criterion_6_otsu_oracle():
    r = np.random.default_rng(2024)
    hists = r.integers(0, 50, size=(1000, HISTOGRAM_BINS)).astype(np.float64)
    spikes = r.integers(0, HISTOGRAM_BINS, size=1000)
    hists[np.arange(1000), spikes] += 300.0
    centers = (np.arange(HISTOGRAM_BINS) + 0.5) / HISTOGRAM_BINS

    # exhaustive search recomputing both classes per candidate threshold
    totals = hists.sum(axis=1)
    best_val = np.full(1000, np.inf)
    best_t = np.zeros(1000, dtype=int)
    for t in range(1, HISTOGRAM_BINS):
        w0 = hists[:, :t].sum(axis=1)
        w1 = hists[:, t:].sum(axis=1)
        val = np.zeros(1000)
        left = w0 > 0
        mu0 = np.where(left, (hists[:, :t] * centers[:t]).sum(axis=1) / np.maximum(w0, 1), 0)
        var0 = np.where(
            left,
            (hists[:, :t] * (centers[:t][None] - mu0[:, None]) ** 2).sum(axis=1)
            / np.maximum(w0, 1), 0)
        val += np.where(left, (w0 / totals) * var0, 0)
        right = w1 > 0
        mu1 = np.where(right, (hists[:, t:] * centers[t:]).sum(axis=1) / np.maximum(w1, 1), 0)
        var1 = np.where(
            right,
            (hists[:, t:] * (centers[t:][None] - mu1[:, None]) ** 2).sum(axis=1)
            / np.maximum(w1, 1), 0)
        val += np.where(right, (w1 / totals) * var1, 0)
        better = val < best_val - 1e-15
        best_t[better] = t
        best_val[better] = val[better]

    disagreements = 0
    for row in range(1000):
        values = np.repeat(centers, hists[row].astype(int))
        result = otsu_threshold(values.reshape(1, -1))
        if round(result.tau * HISTOGRAM_BINS) != best_t[row]:
            disagreements += 1
    assert disagreements == 0
    _report(6, "otsu equals exhaustive minimization on 1000 random histograms")


def test_criterion_7_metric_oracle():
    counts = ConfusionCounts(tp=3, fp=1, fn=2)
    assert abs(fom(counts) - 0.6667) <= 1e-4
    r = np.random.default_rng(99)
    worst = 0.0
    pairs = 0
    while pairs < 1000:
        h, w = int(r.integers(2, 12)), int(r.integers(2, 12))
        pred = (r.uniform(size=(h, w)) > r.uniform()).astype(np.uint8)
        gt = (r.uniform(size=(h, w)) > r.uniform()).astype(np.uint8)
        if not pred.any() and not gt.any():
            continue  # the soft approximation degenerates to 2*eps/eps there
        hard = fom(confusion(pred, gt))
        soft = fom_soft(pred, gt)
        worst = max(worst, abs(hard - soft))
        pairs += 1
    assert worst < 1e-6
    # degenerate both-empty conventions, asserted for what they are
    empty = np.zeros((4, 4), np.uint8)
    assert fom(confusion(empty, empty)) == 1.0
    assert fom_soft(empty, empty) == pytest.approx(2.0)
    _report(7, f"hard/soft agreement on {pairs} mask pairs, max gap {worst:.2e}")


def _seeded(graph, seed):
    graph.initialize_parameters(EngineRng(seed))
    return graph


OVERFIT_CFG = dict(base_lr=1e-3, batch_size=4, seed=3, lr_decay_every=0,
                   bn_momentum=0.9, augment=True)


def test_criterion_8_overfit_capability():
    start = time.time()
    dataset = make_rectangles_dataset(8, (64, 64), seed=11)
    chunk = 10
    state = None
    best_train_fom = 0.0
    epochs_run = 0
    while epochs_run < 200:
        upto = min(epochs_run + chunk, 200)
        result = train_loop(dataset, TrainConfig(max_epochs=upto, **OVERFIT_CFG),
                            init=state, start_epoch=epochs_run)
        state = result.last
        epochs_run = upto
        best_train_fom = max(best_train_fom, max(r.train_fom for r in result.history.rows))
        if best_train_fom >= 0.9:
            break
    elapsed = time.time() - start
    assert best_train_fom >= 0.9, f"train FoM reached only {best_train_fom:.4f}"
    assert elapsed < 1800.0
    _report(8, f"train FoM {best_train_fom:.4f} after {epochs_run} epochs, "
               f"{elapsed:.0f} s")


def test_criterion_9_determinism_and_resume(tmp_path):
    dataset = make_rectangles_dataset(6, (32, 32), seed=21)
    cfg = dict(base_lr=1e-3, batch_size=4, seed=13, lr_decay_every=0,
               bn_momentum=0.9, augment=True)

    run_a = train_loop(dataset, TrainConfig(max_epochs=4, **cfg))
    run_b = train_loop(dataset, TrainConfig(max_epochs=4, **cfg))
    save_checkpoint(tmp_path / "a.ckpt", run_a.best)
    save_checkpoint(tmp_path / "b.ckpt", run_b.best)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    head = train_loop(dataset, TrainConfig(max_epochs=2, **cfg))
    tail = train_loop(dataset, TrainConfig(max_epochs=4, **cfg),
                      init=head.last, start_epoch=2)
    reference = run_a.history.rows[2:]
    assert len(tail.history.rows) == len(reference)
    for resumed, ref in zip(tail.history.rows, reference):
        assert resumed.train_loss == ref.train_loss  # bit-exact
        assert resumed.val_loss == ref.val_loss
    save_checkpoint(tmp_path / "resumed.ckpt", tail.last)
    save_checkpoint(tmp_path / "straight.ckpt", run_a.last)
    assert (tmp_path / "resumed.ckpt").read_bytes() == (tmp_path / "straight.ckpt").read_bytes()
    _report(9, "same-seed runs byte-identical; resume continues bit-exactly")


def test_criterion_10_transfer_continuity():
    seq_a = make_rectangles_dataset(6, (32, 32), seed=31)
    seq_b = make_rectangles_dataset(6, (32, 32), seed=32)
    cfg = dict(base_lr=1e-3, batch_size=4, lr_decay_every=0, bn_momentum=0.9,
               augment=False)
    donor = train_loop(seq_a, TrainConfig(max_epochs=2, seed=1, **cfg))

    # identical graph loads give bit-identical forward outputs
    clone = build_mvfcn()
    clone.initialize_parameters(EngineRng(999))
    apply_state(clone, donor.last)
    x = np.stack([s.image for s in seq_b[:2]]).astype(np.float32)
    out_donor, _ = forward(donor.graph, x, mode="infer")
    out_clone, _ = forward(clone, x, mode="infer")
    assert np.array_equal(out_donor, out_clone)

    # fine-tuning starts exactly at the donor's validation loss on seq B
    split = ordered_split(len(seq_b))
    donor_val, _ = evaluate_split(donor.graph, seq_b, split.test_indices, 4)
    clone_val, _ = evaluate_split(clone, seq_b, split.test_indices, 4)
    assert clone_val == donor_val
    finetune = train_loop(seq_b, TrainConfig(max_epochs=2, seed=2, **cfg),
                          init=donor.last)
    assert len(finetune.history) == 2  # the workflow completes end to end
    _report(10, "transfer load bit-identical; fine-tune starts at donor val loss")


def test_criterion_11_pipeline_invariants():
    start = time.time()
    r = np.random.default_rng(7)

    # threshold monotonicity
    score = r.uniform(size=(24, 24))
    taus = np.sort(r.uniform(size=12))
    previous = threshold_global(score, taus[0])
    for tau in taus[1:]:
        current = threshold_global(score, tau)
        assert not (current & ~previous).any()
        previous = current

    # cleanup idempotence and no-additions
    for seed in range(30):
        mask = (np.random.default_rng(seed).uniform(size=(16, 16)) > 0.6).astype(np.uint8)
        once = remove_small_regions(mask, 5)
        assert np.array_equal(once, remove_small_regions(once, 5))
        assert not (once & ~mask).any()

    # batch-norm normalization statistics
    x = r.normal(0.0, 3.0, size=(4, 3, 8, 8))
    y, _ = batchnorm_forward(x, BatchNormState.create(3, dtype=np.float64), "train")
    assert np.abs(y.mean(axis=(0, 2, 3))).max() < 1e-5
    assert np.abs(y.var(axis=(0, 2, 3)) - 1).max() < 1e-3

    # activation range bounds
    z = r.normal(0, 5, size=10_000)
    s = sigmoid(z)
    assert (s > 0).all() and (s < 1).all()
    assert (relu(z) >= 0).all()

    # otsu tie-break and full-pipeline mask validity
    for seed in range(20):
        sc = np.random.default_rng(100 + seed).uniform(size=(20, 20))
        tau = otsu_threshold(sc).tau
        mask = remove_small_regions(threshold_global(sc, tau), 4)
        assert set(np.unique(mask)) <= {0, 1}

    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(11, f"property suite green in {elapsed:.1f} s")

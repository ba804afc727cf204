"""Finite-difference verification of every hand-written backward pass.

Each check projects the op output onto a fixed random tensor to get a
scalar, compares the analytic gradient against 64-bit central differences,
and demands relative error below 1e-3.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from mvfcn import (
    BatchNormState,
    ConvSpec,
    EngineRng,
    LayerSpec,
    ModelGraph,
    TransposeConvSpec,
    backward,
    batchnorm_backward,
    batchnorm_forward,
    build_mvfcn,
    conv2d_backward,
    conv2d_forward,
    convT2d_backward,
    convT2d_forward,
    dropout,
    dropout_backward,
    forward,
    relu,
    relu_backward,
    sigmoid,
    sigmoid_backward,
)
from mvfcn import graph as graph_module
from mvfcn import tensor
from mvfcn.errors import ShapeError
from mvfcn.train import bce_loss

from conftest import numerical_grad, rel_err, tiny_graph, to_float64

TOL = 1e-3
SEEDS = range(6)


class TestConvGradients:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("k,s", [(1, 1), (3, 1), (3, 2), (5, 4)])
    def test_conv_matches_fd(self, seed, k, s):
        r = np.random.default_rng(seed)
        spec = ConvSpec(k, s, 2, 3)
        x = r.normal(size=(2, 2, 6, 6))
        w = r.normal(size=spec.weight_shape())
        b = r.normal(size=3)
        proj = r.normal(size=conv2d_forward(x, w, b, spec).shape)

        def loss(x=x, w=w, b=b):
            return float((conv2d_forward(x, w, b, spec) * proj).sum())

        d_x, d_w, d_b = conv2d_backward(x, w, spec, proj)
        assert rel_err(d_x, numerical_grad(lambda v: loss(x=v), x)) < TOL
        assert rel_err(d_w, numerical_grad(lambda v: loss(w=v), w)) < TOL
        assert rel_err(d_b, numerical_grad(lambda v: loss(b=v), b)) < TOL

    def test_zero_upstream_gives_zero(self):
        spec = ConvSpec(3, 2, 2, 2)
        x = np.random.default_rng(0).normal(size=(1, 2, 6, 6))
        w = np.random.default_rng(1).normal(size=spec.weight_shape())
        d_x, d_w, d_b = conv2d_backward(x, w, spec, np.zeros((1, 2, 3, 3)))
        assert not d_x.any() and not d_w.any() and not d_b.any()

    def test_scalar_chain_rule(self):
        # 1x1 identity kernel on a single pixel: d_x = 1, d_w = input value
        spec = ConvSpec(1, 1, 1, 1)
        x = np.array([[[[2.75]]]])
        w = np.ones((1, 1, 1, 1))
        d_x, d_w, _ = conv2d_backward(x, w, spec, np.ones((1, 1, 1, 1)))
        assert d_x[0, 0, 0, 0] == 1.0
        assert d_w[0, 0, 0, 0] == 2.75

    def test_upstream_shape_mismatch_rejected(self):
        from mvfcn import ShapeError
        spec = ConvSpec(3, 2, 1, 1)
        x = np.zeros((1, 1, 6, 6))
        w = np.zeros(spec.weight_shape())
        # wrong size, batch and channels: the forward output is (1, 1, 3, 3)
        for shape in [(1, 1, 6, 6), (2, 1, 3, 3), (1, 2, 3, 3)]:
            with pytest.raises(ShapeError):
                conv2d_backward(x, w, spec, np.zeros(shape))

    def test_upstream_spatial_mismatch_message(self):
        spec = ConvSpec(3, 2, 1, 1)
        with pytest.raises(ShapeError, match=r"upstream gradient shaped \(1, 1, 4, 3\): "
                                             r"6x5 is not a stride-2 image of 4x3"):
            conv2d_backward(np.zeros((1, 1, 6, 5)), np.zeros(spec.weight_shape()), spec,
                            np.zeros((1, 1, 4, 3)))

    def test_one_backward_under_both_names(self):
        import mvfcn
        for module in (mvfcn, tensor, graph_module):
            assert module.convT2d_backward is module.conv2d_backward is tensor.conv2d_backward


class TestTransposeConvGradients:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_convT_matches_fd(self, seed):
        r = np.random.default_rng(100 + seed)
        spec = TransposeConvSpec(3, 2, 2, 3)
        x = r.normal(size=(1, 2, 3, 4))
        w = r.normal(size=spec.weight_shape())
        b = r.normal(size=3)
        proj = r.normal(size=(1, 3, 6, 8))

        def loss(x=x, w=w, b=b):
            return float((convT2d_forward(x, w, b, spec) * proj).sum())

        d_x, d_w, d_b = convT2d_backward(x, w, spec, proj)
        assert rel_err(d_x, numerical_grad(lambda v: loss(x=v), x)) < TOL
        assert rel_err(d_w, numerical_grad(lambda v: loss(w=v), w)) < TOL
        assert rel_err(d_b, numerical_grad(lambda v: loss(b=v), b)) < TOL

    def test_zero_upstream_gives_zero(self):
        spec = TransposeConvSpec(3, 2, 2, 2)
        x = np.random.default_rng(2).normal(size=(1, 2, 4, 4))
        w = np.random.default_rng(3).normal(size=spec.weight_shape())
        d_x, d_w, d_b = convT2d_backward(x, w, spec, np.zeros((1, 2, 8, 8)))
        assert not d_x.any() and not d_w.any() and not d_b.any()

    def test_dx_is_forward_conv_of_upstream(self):
        r = np.random.default_rng(4)
        spec = TransposeConvSpec(3, 2, 4, 3)
        x = r.normal(size=(2, 4, 5, 6))
        w = r.normal(size=spec.weight_shape())
        d_out = r.normal(size=(2, 3, 10, 12))
        d_x, _, _ = convT2d_backward(x, w, spec, d_out)
        ref = conv2d_forward(d_out, w, None, ConvSpec(3, 2, 3, 4))
        assert np.allclose(d_x, ref, atol=1e-12)

    # the forward output is (1, 3, 6, 8); 5x7 would also map back to 3x4, 8x8 does not
    @pytest.mark.parametrize("shape, match", [
        ((2, 3, 6, 8), "does not match"),
        ((1, 2, 6, 8), "does not match"),
        ((1, 3, 8, 8), "8x8 is not a stride-2 image of 3x4"),
    ], ids=["batch", "channels", "spatial"])
    def test_upstream_shape_mismatch_rejected(self, shape, match):
        spec = TransposeConvSpec(3, 2, 2, 3)
        x = np.zeros((1, 2, 3, 4))
        with pytest.raises(ShapeError, match=match):
            convT2d_backward(x, np.zeros(spec.weight_shape()), spec, np.zeros(shape))


class TestAdjointIdentity:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k,s", [(1, 1), (3, 2), (5, 4), (9, 8), (5, 2), (9, 1)])
    def test_inner_products_agree(self, seed, k, s):
        r = np.random.default_rng(seed * 97 + k * 10 + s)
        cin, cout = int(r.integers(1, 4)), int(r.integers(1, 4))
        h, w = int(r.integers(k, k + 9)), int(r.integers(k, k + 9))
        spec = ConvSpec(k, s, cin, cout)
        tspec = TransposeConvSpec(k, s, cout, cin)
        x = r.normal(size=(2, cin, h, w))
        weight = r.normal(size=spec.weight_shape())
        y = r.normal(size=conv2d_forward(x, weight, None, spec).shape)
        lhs = float((conv2d_forward(x, weight, None, spec) * y).sum())
        rhs = float((x * convT2d_forward(y, weight, None, tspec, out_hw=(h, w))).sum())
        assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(lhs), abs(rhs))


class TestConvCore:
    """Both forwards and the one backward share one column builder through
    two adjoint relations; both must hold exactly, not just to rounding."""

    @staticmethod
    def _case(k, s, h, w):
        r = np.random.default_rng(k * 10 + s + h * w)
        cin, cout = int(r.integers(1, 4)), int(r.integers(1, 4))
        spec = ConvSpec(k, s, cin, cout)
        x = r.normal(size=(2, cin, h, w))
        weight = r.normal(size=spec.weight_shape())
        d_out = r.normal(size=conv2d_forward(x, weight, None, spec).shape)
        return spec, TransposeConvSpec(k, s, cout, cin), x, weight, d_out

    @pytest.mark.parametrize("h,w", [(7, 10), (13, 5)])
    @pytest.mark.parametrize("k,s", [(1, 1), (3, 2), (5, 4), (9, 8), (5, 2), (9, 1)])
    def test_conv_input_grad_is_the_adjoint_transpose(self, k, s, h, w):
        spec, tspec, x, weight, d_out = self._case(k, s, h, w)
        d_x, _, _ = conv2d_backward(x, weight, spec, d_out)
        assert np.array_equal(d_x, convT2d_forward(d_out, weight, None, tspec,
                                                   out_hw=(h, w)))

    @pytest.mark.parametrize("h,w", [(7, 10), (13, 5)])
    @pytest.mark.parametrize("k,s", [(1, 1), (3, 2), (5, 4), (9, 8), (5, 2), (9, 1)])
    def test_weight_grads_agree_with_roles_swapped(self, k, s, h, w):
        spec, tspec, x, weight, d_out = self._case(k, s, h, w)
        _, d_w, _ = conv2d_backward(x, weight, spec, d_out)
        # convT from the conv's output grid back to its input grid: x and
        # d_out trade places, the kernel is the same array
        d_t, d_wt, _ = convT2d_backward(d_out, weight, tspec, x)
        assert np.array_equal(d_w, d_wt)
        assert np.array_equal(d_t, conv2d_forward(x, weight, None, spec))

    @pytest.mark.parametrize("transposed", [False, True], ids=["conv", "convT"])
    def test_input_is_freed_before_d_x(self, monkeypatch, transposed):
        # an input only the backward holds is released once the weight
        # gradient is done, before d_x is allocated
        spec = (TransposeConvSpec if transposed else ConvSpec)(3, 2, 2, 3)
        x_hw, d_hw = ((3, 4), (6, 8)) if transposed else ((6, 8), (3, 4))
        refs = []

        def fresh_input():
            x = np.ones((1, 2, *x_hw))
            refs.append(weakref.ref(x))
            return x

        name = "conv2d_forward" if transposed else "convT2d_forward"
        adjoint_forward = getattr(tensor, name)

        def checked(*args, **kwargs):
            assert refs[0]() is None, "the input outlived its weight gradient"
            return adjoint_forward(*args, **kwargs)

        monkeypatch.setattr(tensor, name, checked)
        d_x, _, _ = tensor.conv2d_backward(fresh_input(), np.ones(spec.weight_shape()), spec,
                                           np.ones((1, 3, *d_hw)))
        assert d_x.shape == (1, 2, *x_hw)

    def test_conv_backward_rejects_misshaped_weights(self):
        spec = ConvSpec(3, 2, 2, 3)
        x = np.ones((1, 2, 6, 6))
        with pytest.raises(ShapeError, match="weights shaped"):
            conv2d_backward(x, np.ones((3, 2, 5, 5)), spec, np.ones((1, 3, 3, 3)))


def _tap_pairs(small_hw, big_hw, k, s):
    """Yield (i, j, ki, kj, r, c) for every small-side pixel (i, j) that
    tap (ki, kj) pairs with big-side pixel (r, c) inside the map, under
    same-floor padding (ceil(big / s) small rows and columns, any odd
    padding row/column at the end). Plain loops, independent of the
    engine's column builder."""
    (oh, ow), (h, w) = small_hw, big_hw
    pt = max((oh - 1) * s + k - h, 0) // 2
    pl = max((ow - 1) * s + k - w, 0) // 2
    for i in range(oh):
        for j in range(ow):
            for ki in range(k):
                for kj in range(k):
                    r, c = i * s + ki - pt, j * s + kj - pl
                    if 0 <= r < h and 0 <= c < w:
                        yield i, j, ki, kj, r, c


def _direct_sums(x, weight, d_out, k, s):
    """float64 direct-sum oracle for one geometry: conv(x), convT(d_out)
    back to x's grid, and the kernel gradient that both conv (upstream
    d_out) and convT (input d_out, upstream x) must give."""
    conv = np.zeros(d_out.shape)
    conv_t = np.zeros(x.shape)
    d_w = np.zeros(weight.shape)
    for i, j, ki, kj, r, q in _tap_pairs(d_out.shape[2:], x.shape[2:], k, s):
        conv[:, :, i, j] += x[:, :, r, q] @ weight[:, :, ki, kj].T
        conv_t[:, :, r, q] += d_out[:, :, i, j] @ weight[:, :, ki, kj]
        d_w[:, :, ki, kj] += d_out[:, :, i, j].T @ x[:, :, r, q]
    return conv, conv_t, d_w


class TestConvOracle:
    """All four conv passes against plain per-pixel, per-tap sums, at every
    (kernel, stride) pair of the network, odd map sizes and batch 2,
    including row-blocked column matrices."""

    NETWORK_KS = [(1, 1), (3, 1), (5, 1), (9, 1), (3, 2), (5, 4), (9, 8)]

    @staticmethod
    def _check(k, s, h, w, cin, cout, seed):
        r = np.random.default_rng(seed)
        spec = ConvSpec(k, s, cin, cout)
        tspec = TransposeConvSpec(k, s, cout, cin)
        x = r.normal(size=(2, cin, h, w))
        weight = r.normal(size=spec.weight_shape())
        d_out = r.normal(size=(2, cout, -(-h // s), -(-w // s)))
        conv, conv_t, d_w = _direct_sums(x, weight, d_out, k, s)
        exact = dict(rtol=0, atol=1e-10)
        np.testing.assert_allclose(conv2d_forward(x, weight, None, spec), conv, **exact)
        np.testing.assert_allclose(
            convT2d_forward(d_out, weight, None, tspec, out_hw=(h, w)), conv_t, **exact)
        np.testing.assert_allclose(conv2d_backward(x, weight, spec, d_out)[1], d_w, **exact)
        np.testing.assert_allclose(convT2d_backward(d_out, weight, tspec, x)[1], d_w,
                                   **exact)

    @pytest.mark.parametrize("h,w", [(13, 11), (9, 17)])
    @pytest.mark.parametrize("k,s", NETWORK_KS)
    def test_matches_direct_sums(self, k, s, h, w):
        self._check(k, s, h, w, cin=3, cout=2, seed=k * 100 + s * 10 + h)

    @pytest.mark.parametrize("k,s,h", [(3, 1, 7), (3, 2, 13), (9, 1, 7), (5, 4, 27)])
    def test_row_blocks_with_a_one_row_remainder(self, monkeypatch, k, s, h):
        # cin == cout, so every pass's column matrix takes the same bytes
        # per small-side row: a budget of two rows splits each image's 7
        # small rows into 2 + 2 + 2 + 1
        c, w = 2, 11
        row_bytes = k * k * c * -(-w // s) * 8
        monkeypatch.setattr(tensor, "COLUMN_BUDGET", 2 * row_bytes)
        assert list(tensor._row_blocks(-(-h // s), row_bytes)) == \
            [(0, 2), (2, 2), (4, 2), (6, 1)]
        self._check(k, s, h, w, cin=c, cout=c, seed=h)

    def test_block_window_crossing_top_and_bottom_padding(self, monkeypatch):
        # a 9x9 kernel over a 5-row map pads 4 rows on each side: with
        # two-row blocks, the first block's 10-row window reads map rows
        # -4..5, both pads at once
        k, s, h, w, c = 9, 1, 5, 6, 2
        row_bytes = k * k * c * w * 8
        monkeypatch.setattr(tensor, "COLUMN_BUDGET", 2 * row_bytes)
        assert tensor.same_floor_padding(h, k, s) == (4, 4, 5)
        assert list(tensor._row_blocks(h, row_bytes)) == [(0, 2), (2, 2), (4, 1)]
        self._check(k, s, h, w, cin=c, cout=c, seed=9)

    def test_budget_below_one_row_runs_one_row_blocks(self, monkeypatch):
        monkeypatch.setattr(tensor, "COLUMN_BUDGET", 1)
        assert list(tensor._row_blocks(3, 100)) == [(0, 1), (1, 1), (2, 1)]
        self._check(3, 2, 9, 7, cin=3, cout=2, seed=5)


class TestTransposeConvWindows:
    """The transposed conv gathers: each row block of its input builds its
    own columns and runs its own GEMM into its own output rows, and no
    block reads what another wrote. So the output must not depend on how
    the input rows are cut into blocks, bit for bit."""

    @pytest.mark.parametrize("k,s", [(3, 1), (3, 2), (5, 4), (9, 8)])
    def test_overlapping_windows_keep_the_summation_order(self, monkeypatch, k, s):
        # sgemm gives other bits to the columns past the last multiple of 16
        # (its kernel's width), so each block spans whole 16-column groups
        cin, cout, h, w = 5, 4, 6, 16
        out_h, out_w = h * s - s // 2, w * s  # one axis padded, one not
        r = np.random.default_rng(k * 10 + s)
        x = r.normal(size=(2, cin, h, w)).astype(np.float32)
        weight = r.normal(size=(cin, cout, k, k)).astype(np.float32)
        bias = r.normal(size=cout).astype(np.float32)
        spec = TransposeConvSpec(k, s, cin, cout)
        cut, blocks = tensor._row_blocks, []

        def counted(rows, row_bytes):
            blocks.append(len(list(cut(rows, row_bytes))))
            return cut(rows, row_bytes)

        monkeypatch.setattr(tensor, "_row_blocks", counted)
        runs = []
        for budget in (1, 1 << 40):  # one-row blocks, then one block an image
            monkeypatch.setattr(tensor, "COLUMN_BUDGET", budget)
            runs.append(convT2d_forward(x, weight, bias, spec, out_hw=(out_h, out_w)))
        assert blocks == [h, 1]
        assert np.array_equal(runs[0], runs[1])

    def test_paper_size_l27_allocates_no_padded_output(self):
        # L27 at 240x320, batch 1: the 18.75 MiB output plus buffers bounded
        # by the 4 MiB column budget; a padded copy of the output and its
        # crop would take two output-sized arrays at once
        spec = TransposeConvSpec(3, 2, 32, 64)
        r = np.random.default_rng(27)
        x = r.normal(size=(1, 32, 120, 160)).astype(np.float32)
        weight = r.normal(size=spec.weight_shape()).astype(np.float32)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = convT2d_forward(x, weight, None, spec)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert out.nbytes == 75 * 2**18
        assert peak < 32 * 2**20


class TestInputGradSkip:
    def test_graph_input_grads_skipped_gradients_unchanged(self, monkeypatch):
        graph = build_mvfcn()
        graph.initialize_parameters(EngineRng(0))
        x = np.random.default_rng(0).uniform(size=(2, 3, 48, 64)).astype(np.float32)
        score, cache = forward(graph, x, mode="train", rng=EngineRng(1))
        d_final = np.random.default_rng(1).normal(size=score.shape).astype(np.float32)

        calls = []
        real_convT = tensor.convT2d_forward

        def counted(x, weights, bias, spec, out_hw=None):
            calls.append(spec.out_channels)
            return real_convT(x, weights, bias, spec, out_hw)

        monkeypatch.setattr(tensor, "convT2d_forward", counted)
        grads = backward(graph, cache, d_final)
        # every conv layer but L2-L4 (whose adjoint would emit the 3 input
        # channels) takes its input gradient from convT2d_forward
        assert len(calls) == 15 and 3 not in calls

        # the formula before the skip: every conv computes its d_x
        def always(conv_backward):
            return lambda x, w, spec, d_out, input_grad: conv_backward(x, w, spec, d_out)

        monkeypatch.setattr(graph_module, "conv2d_backward", always(conv2d_backward))
        monkeypatch.setattr(graph_module, "convT2d_backward", always(convT2d_backward))
        # backward consumed the cache: a fresh forward on the same seeds
        # rebuilds the activations, dropout masks and batch statistics
        _, cache = forward(graph, x, mode="train", rng=EngineRng(1))
        reference = backward(graph, cache, d_final)
        assert grads.keys() == reference.keys()
        for lid, named in reference.items():
            for name, value in named.items():
                assert np.array_equal(grads[lid][name], value), (lid, name)


def _twice_concat_graph():
    """Layer 2 reaches the output three ways, twice through one concat."""
    L = LayerSpec
    return ModelGraph([L(1, "input"), L(2, "conv", (1,), 3, 1, 2, "relu"),
                       L(3, "concat", (2, 2)), L(4, "conv", (3,), 3, 1, 2, "relu"),
                       L(5, "concat", (4, 2)), L(6, "conv", (5,), 1, 1, 1, "sigmoid")],
                      in_channels=1)


class TestHeadTables:
    """The stand-in mask and the folded batch-norm output against the maps
    they replace, and the in-place gradient sums against fresh ones."""

    @staticmethod
    def _grads(graph, x, d_final, seed):
        _, cache = forward(graph, x, mode="train", rng=EngineRng(seed))
        return backward(graph, cache, d_final)

    @staticmethod
    def _assert_same(grads, reference):
        assert grads.keys() == reference.keys()
        for lid, named in reference.items():
            for name, value in named.items():
                assert grads[lid][name].tobytes() == value.tobytes(), (lid, name)

    @pytest.mark.parametrize("rate", [0.0, 0.3, 0.5])  # at 0, y31 is y30
    def test_gradients_match_the_kept_maps(self, rate):
        graph = build_mvfcn(dropout_rate=rate)
        graph.initialize_parameters(EngineRng(0))
        r = np.random.default_rng(2)
        x = r.uniform(size=(2, 3, 32, 48)).astype(np.float32)
        d_final = r.normal(size=(2, 1, 32, 48)).astype(np.float32)
        grads = self._grads(graph, x, d_final, 3)
        # oracle: with both tables empty the forward builds and keeps L29
        # and keeps L30, and backward reads L30's own mask and L29's output
        graph.stand_in, graph.folded = {}, frozenset()
        graph.kept = graph._kept()
        assert graph.kept == set(range(1, 33)) - {18, 21, 24, 27, 28}
        self._assert_same(grads, self._grads(graph, x, d_final, 3))

    @pytest.mark.parametrize("make, shape", [(build_mvfcn, (2, 3, 32, 32)),
                                             (_twice_concat_graph, (2, 1, 6, 5))])
    def test_in_place_sums_match_fresh_ones(self, monkeypatch, make, shape):
        graph = make()
        graph.initialize_parameters(EngineRng(4))
        r = np.random.default_rng(5)
        x = r.uniform(size=shape).astype(np.float32)
        d_final = r.normal(size=(shape[0], 1, *shape[2:])).astype(np.float32)
        grads = self._grads(graph, x, d_final, 6)

        def fresh(d_acc, src, part):  # the sum before it went in place
            d_acc[src] = d_acc[src] + part if src in d_acc else part

        monkeypatch.setattr(graph_module, "_accumulate", fresh)
        self._assert_same(grads, self._grads(graph, x, d_final, 6))

    def test_sum_that_would_narrow_is_not_in_place(self):
        acc = np.ones(3, np.float32)
        d_acc = {1: acc}
        graph_module._accumulate(d_acc, 1, np.full(3, 1e-10))
        assert d_acc[1].dtype == np.float64 and (acc == 1).all()
        d_acc = {1: acc}
        graph_module._accumulate(d_acc, 1, np.ones(3, np.float32))
        assert d_acc[1] is acc and (acc == 2).all()


class TestActivationGradients:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_relu_matches_fd_away_from_kink(self, seed):
        r = np.random.default_rng(seed)
        x = r.normal(size=(3, 5))
        x[np.abs(x) < 1e-4] = 0.5  # exclude the kink
        proj = r.normal(size=x.shape)
        analytic = relu_backward(proj, x)
        fd = numerical_grad(lambda v: float((relu(v) * proj).sum()), x)
        assert rel_err(analytic, fd) < TOL

    def test_relu_all_negative_zero_grad(self):
        x = -np.abs(np.random.default_rng(0).normal(size=(4, 4))) - 0.1
        assert not relu_backward(np.ones_like(x), x).any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_in_place_matches_allocating_form(self, dtype):
        r = np.random.default_rng(7)
        x = r.normal(size=(2, 3, 5, 4)).astype(dtype)
        x[0, 0, 0] = 0.0  # the kink passes no gradient
        d = r.normal(size=x.shape).astype(dtype)
        expected = relu_backward(d, x)
        assert np.signbit(expected[(x <= 0) & (d < 0)]).all()  # -d * 0 is -0.0
        got = relu_backward(d, x, out=d)
        assert got is d
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sigmoid_matches_fd(self, seed):
        r = np.random.default_rng(seed)
        x = r.normal(size=(3, 5))
        proj = r.normal(size=x.shape)
        analytic = sigmoid_backward(proj, sigmoid(x))
        fd = numerical_grad(lambda v: float((sigmoid(v) * proj).sum()), x)
        assert rel_err(analytic, fd) < TOL


class TestBatchNormGradients:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_fd(self, seed):
        r = np.random.default_rng(200 + seed)
        x = r.normal(1.0, 2.0, size=(2, 3, 4, 4))
        gamma = r.normal(1.0, 0.2, size=3)
        beta = r.normal(size=3)
        proj = r.normal(size=x.shape)

        def loss(x=x, gamma=gamma, beta=beta):
            state = BatchNormState(gamma=gamma, beta=beta,
                                   running_mean=np.zeros(3), running_var=np.ones(3))
            y, _ = batchnorm_forward(x, state, "train")
            return float((y * proj).sum())

        state = BatchNormState(gamma=gamma, beta=beta,
                               running_mean=np.zeros(3), running_var=np.ones(3))
        _, cache = batchnorm_forward(x, state, "train")
        d_x, d_gamma, d_beta = batchnorm_backward(proj, state, cache)
        assert rel_err(d_x, numerical_grad(lambda v: loss(x=v), x)) < TOL
        assert rel_err(d_gamma, numerical_grad(lambda v: loss(gamma=v), gamma)) < TOL
        assert rel_err(d_beta, numerical_grad(lambda v: loss(beta=v), beta)) < TOL

    @staticmethod
    def _train_pass(dtype, shape=(3, 5, 6, 7)):
        r = np.random.default_rng(210)
        c = shape[1]
        x = r.normal(1.0, 2.0, size=shape).astype(dtype)
        state = BatchNormState.create(c, dtype=dtype)
        state.gamma[:] = r.normal(1.0, 0.2, size=c)
        state.beta[:] = r.normal(size=c)
        d_out = r.normal(size=shape).astype(dtype)
        return x, state, d_out

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_pass_bytes_match_the_unfused_formula(self, dtype):
        x, state, d_out = self._train_pass(dtype)
        y, cache = batchnorm_forward(x, state, "train")
        d_x, d_gamma, d_beta = batchnorm_backward(d_out, state, cache)

        # oracle: the same formulas, each term a fresh array
        gamma = state.gamma.reshape(1, -1, 1, 1)
        beta = state.beta.reshape(1, -1, 1, 1)
        mu = x.mean(axis=(0, 2, 3))
        inv_std = 1.0 / np.sqrt(x.var(axis=(0, 2, 3)) + tensor.BN_EPS)
        xhat = (x - mu.reshape(1, -1, 1, 1)) * inv_std.reshape(1, -1, 1, 1)
        m = x.shape[0] * x.shape[2] * x.shape[3]
        dxhat = d_out * gamma
        sum_dxhat = dxhat.sum(axis=(0, 2, 3), keepdims=True)
        sum_dxhat_xhat = (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
        expected_d_x = (inv_std.reshape(1, -1, 1, 1) / m) \
            * (m * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)
        assert y.tobytes() == (gamma * xhat + beta).tobytes()
        assert cache[0].tobytes() == xhat.tobytes()
        assert d_x.tobytes() == expected_d_x.tobytes()
        assert d_gamma.tobytes() == (d_out * xhat).sum(axis=(0, 2, 3)).tobytes()
        assert d_beta.tobytes() == d_out.sum(axis=(0, 2, 3)).tobytes()

    def test_train_pass_holds_two_input_sized_arrays(self):
        # forward: xhat and y; backward: d_x and one scratch array. The
        # unfused formulas held a third temporary in each pass
        x, state, d_out = self._train_pass(np.float32, (2, 16, 64, 64))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, cache = batchnorm_forward(x, state, "train")
            forward_peak = tracemalloc.get_traced_memory()[1] - before
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            batchnorm_backward(d_out, state, cache)
            backward_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert forward_peak < 2.5 * x.nbytes
        assert backward_peak < 2.5 * x.nbytes


class TestDropoutGradient:
    def test_fixed_mask_is_linear(self, rng):
        x = np.random.default_rng(0).normal(size=(2, 2, 4, 4))
        y, mask = dropout(x, 0.3, rng, "train")
        proj = np.random.default_rng(1).normal(size=x.shape)
        d_x = dropout_backward(proj, mask, 0.3)
        fd = numerical_grad(
            lambda v: float((v * (mask / 0.7) * proj).sum()), x)
        assert rel_err(d_x, fd) < TOL


class TestLossGradient:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bce_matches_fd(self, seed):
        r = np.random.default_rng(300 + seed)
        logits = r.normal(size=(2, 1, 3, 3))
        target = r.uniform(size=logits.shape)
        _, d_logits = bce_loss(logits, target)
        fd = numerical_grad(lambda v: bce_loss(v, target)[0], logits)
        assert rel_err(d_logits, fd) < 1e-4


class TestGraphGradients:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_three_layer_end_to_end(self, seed):
        graph = to_float64(_init_graph(tiny_graph(), seed))
        r = np.random.default_rng(400 + seed)
        x = r.uniform(size=(2, 2, 6, 6))
        target = (r.uniform(size=(2, 1, 6, 6)) > 0.5).astype(np.float64)
        rng = EngineRng(seed)

        _, cache = forward(graph, x, mode="train", rng=rng)
        _, d_logits = bce_loss(cache.logits, target)
        grads = backward(graph, cache, d_logits)

        for lid in (2, 3, 4):
            for name in ("weight", "bias"):
                param = graph.params[lid][name]

                def loss(values, lid=lid, name=name, param=param):
                    saved = param.copy()
                    np.copyto(param, values)
                    _, c = forward(graph, x, mode="train", rng=EngineRng(seed))
                    np.copyto(param, saved)
                    return bce_loss(c.logits, target)[0]

                fd = numerical_grad(loss, param)
                assert rel_err(grads[lid][name], fd) < TOL, (lid, name)

    def test_sigmoid_on_a_hidden_conv(self):
        # a sigmoid that is not the final activation is chained through
        graph = to_float64(_init_graph(ModelGraph([
            LayerSpec(1, "input"),
            LayerSpec(2, "conv", (1,), 3, 1, 3, "sigmoid"),
            LayerSpec(3, "convT", (2,), 3, 2, 2, "sigmoid"),
            LayerSpec(4, "conv", (3,), 3, 2, 1, "sigmoid"),
        ], in_channels=2, input_divisor=1), 3))
        r = np.random.default_rng(403)
        x = r.normal(size=(2, 2, 5, 5))
        target = (r.uniform(size=(2, 1, 5, 5)) > 0.5).astype(np.float64)
        _, cache = forward(graph, x, mode="train", rng=EngineRng(0))
        grads = backward(graph, cache, bce_loss(cache.logits, target)[1])
        for lid in (2, 3):
            param = graph.params[lid]["weight"]

            def loss(values, param=param):
                saved = param.copy()
                np.copyto(param, values)
                _, c = forward(graph, x, mode="train", rng=EngineRng(0))
                np.copyto(param, saved)
                return bce_loss(c.logits, target)[0]

            assert rel_err(grads[lid]["weight"], numerical_grad(loss, param)) < TOL, lid

    def test_zero_upstream_gives_zero_everywhere(self):
        graph = _init_graph(tiny_graph(), 0)
        rng = EngineRng(0)
        x = np.random.default_rng(1).uniform(size=(1, 2, 4, 4)).astype(np.float32)
        _, cache = forward(graph, x, mode="train", rng=rng)
        grads = backward(graph, cache, np.zeros((1, 1, 4, 4), np.float32))
        for lid, per in grads.items():
            for name, g in per.items():
                assert not g.any(), (lid, name)

    def test_gradient_shapes_match_parameters(self):
        from mvfcn import build_mvfcn
        graph = build_mvfcn()
        graph.initialize_parameters(EngineRng(0))
        rng = EngineRng(1)
        x = np.random.default_rng(2).uniform(size=(1, 3, 32, 32)).astype(np.float32)
        _, cache = forward(graph, x, mode="train", rng=rng)
        grads = backward(graph, cache, np.ones((1, 1, 32, 32), np.float32))
        for lid, name, param in graph.parameter_items():
            assert grads[lid][name].shape == param.shape


def _init_graph(graph, seed):
    graph.initialize_parameters(EngineRng(seed))
    return graph

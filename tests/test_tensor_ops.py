"""Forward-pass semantics of the tensor primitives: shapes, hand-computed
fixtures, and the algebraic properties each op promises."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvfcn import (
    BatchNormState,
    ConvSpec,
    ShapeError,
    TransposeConvSpec,
    batchnorm_backward,
    batchnorm_forward,
    build_mvfcn,
    concat_channels,
    conv2d_backward,
    conv2d_forward,
    convT2d_forward,
    EngineRng,
    dropout,
    dropout_backward,
    infer_shapes,
    relu,
    resize_nearest,
    sigmoid,
)
from mvfcn import tensor
from mvfcn.errors import ConfigError
from mvfcn.tensor import ChannelParts, same_floor_padding

from conftest import transpose_alpha, transpose_output_size


class TestSameFloorPadding:
    def test_stride1_matches_symmetric_formula(self):
        # out = (in - k + 2p)/s + 1 with p = (k-1)/2
        for k in (1, 3, 5, 9):
            for size in (7, 16, 240):
                beg, end, out = same_floor_padding(size, k, 1)
                p = (k - 1) // 2
                assert (beg, end) == (p, p)
                assert out == (size - k + 2 * p) // 1 + 1 == size

    def test_extra_padding_lands_on_end(self):
        beg, end, out = same_floor_padding(240, 3, 2)
        assert (beg, end, out) == (0, 1, 120)

    @given(size=st.integers(1, 300), k=st.sampled_from([1, 3, 5, 9]),
           s=st.sampled_from([1, 2, 4, 8]))
    def test_output_is_ceil(self, size, k, s):
        _, _, out = same_floor_padding(size, k, s)
        assert out == -(-size // s)


class TestConvForward:
    def test_table_shape_240x320_stride1(self):
        x = np.zeros((1, 3, 240, 320), dtype=np.float32)
        spec = ConvSpec(3, 1, 3, 16)
        w = np.zeros(spec.weight_shape(), dtype=np.float32)
        out = conv2d_forward(x, w, np.zeros(16, np.float32), spec)
        assert out.shape == (1, 16, 240, 320)

    def test_table_shape_subsampling(self):
        x = np.zeros((1, 16, 240, 320), dtype=np.float32)
        spec = ConvSpec(3, 2, 16, 16)
        out = conv2d_forward(x, np.zeros(spec.weight_shape(), np.float32), None, spec)
        assert out.shape == (1, 16, 120, 160)

    def test_identity_kernel(self):
        x = np.array([[[[3.25]]]], dtype=np.float32)
        spec = ConvSpec(1, 1, 1, 1)
        w = np.ones((1, 1, 1, 1), dtype=np.float32)
        out = conv2d_forward(x, w, np.zeros(1, np.float32), spec)
        assert np.array_equal(out, x)

    def test_all_ones_center_is_nine(self):
        x = np.ones((1, 1, 3, 3), dtype=np.float64)
        spec = ConvSpec(3, 1, 1, 1)
        out = conv2d_forward(x, np.ones((1, 1, 3, 3)), None, spec)
        # hand-computed sliding window over the zero-padded 3x3 of ones
        expected = np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], dtype=np.float64)
        assert np.array_equal(out[0, 0], expected)

    def test_bias_added_per_channel(self):
        x = np.zeros((1, 1, 2, 2), dtype=np.float32)
        spec = ConvSpec(1, 1, 1, 3)
        w = np.zeros(spec.weight_shape(), np.float32)
        out = conv2d_forward(x, w, np.array([1.0, -2.0, 0.5], np.float32), spec)
        assert np.allclose(out[0, :, 0, 0], [1.0, -2.0, 0.5])

    def test_channel_mismatch_rejected(self):
        x = np.zeros((1, 2, 4, 4), dtype=np.float32)
        spec = ConvSpec(3, 1, 3, 4)
        with pytest.raises(ShapeError):
            conv2d_forward(x, np.zeros(spec.weight_shape(), np.float32), None, spec)

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            ConvSpec(2, 1, 1, 1)


class TestTransposeConv:
    def test_table_shape_doubling(self):
        x = np.zeros((1, 64, 15, 20), dtype=np.float32)
        spec = TransposeConvSpec(3, 2, 64, 64)
        out = convT2d_forward(x, np.zeros(spec.weight_shape(), np.float32),
                              np.zeros(64, np.float32), spec)
        assert out.shape == (1, 64, 30, 40)

    @pytest.mark.parametrize("i_prime,target", [(15, 30), (30, 60), (60, 120), (120, 240)])
    def test_sizing_arithmetic(self, i_prime, target):
        alpha = transpose_alpha(target, kernel=3, stride=2, padding=1)
        assert alpha == 1
        assert transpose_output_size(i_prime, 3, 2, 1, alpha) == target

    def test_negative_alpha_operand_rejected(self):
        with pytest.raises(ShapeError):
            transpose_alpha(1, kernel=9, stride=2, padding=0)

    def test_unreachable_target_rejected(self):
        x = np.zeros((1, 2, 5, 5), dtype=np.float32)
        spec = TransposeConvSpec(3, 2, 2, 2)
        with pytest.raises(ShapeError):
            convT2d_forward(x, np.zeros(spec.weight_shape(), np.float32), None,
                            spec, out_hw=(12, 12))

    def test_matches_dilate_then_unit_conv(self):
        # phase gather == dilate input, add edge zeros, unit-stride conv
        r = np.random.default_rng(5)
        k, s = 3, 2
        x = r.normal(size=(1, 2, 4, 5))
        w = r.normal(size=(2, 3, k, k))
        spec = TransposeConvSpec(k, s, 2, 3)
        out = convT2d_forward(x, w, None, spec)

        h, w_in = 4, 5
        target_h, target_w = s * h, s * w_in
        # dilated input: s-1 zeros between neurons, alpha extra zeros on the
        # leading edges, then symmetric padding k - p - 1 with p = 1
        alpha = transpose_alpha(target_h, k, s, 1)
        dil_h, dil_w = (h - 1) * s + 1, (w_in - 1) * s + 1
        p_prime = k - 1 - 1
        canvas = np.zeros((1, 2, alpha + dil_h + 2 * p_prime, alpha + dil_w + 2 * p_prime))
        canvas[:, :, alpha + p_prime::s, alpha + p_prime::s] = x
        flipped = w[:, :, ::-1, ::-1]
        ref = np.zeros_like(out)
        for i in range(target_h):
            for j in range(target_w):
                patch = canvas[:, :, i:i + k, j:j + k]
                ref[:, :, i, j] = np.einsum("ncij,coij->no", patch, flipped)
        assert np.allclose(out, ref, atol=1e-10)

    @pytest.mark.parametrize("n, h, w", [(8, 48, 64), (1, 240, 320)])
    def test_network_sizes_give_a_contiguous_map(self, n, h, w):
        # the upsampling outputs and the strided convs' input gradients feed
        # concats and gradient sums, which a strided view or a copy would slow
        graph = build_mvfcn()
        shapes = infer_shapes(graph, (3, h, w))
        for layer in graph.layers:
            spec = graph.specs.get(layer.id)
            if layer.id in (5, 7, 11, 13):  # d_x: the adjoint spec's pass on d_out
                spec = TransposeConvSpec(spec.kernel, spec.stride, spec.out_channels,
                                         spec.in_channels)
                small, big = shapes[layer.id], shapes[layer.inputs[0]]
            elif layer.id in (18, 21, 24, 27):
                small, big = shapes[layer.inputs[0]], shapes[layer.id]
            else:
                continue
            out = convT2d_forward(np.ones((n, *small), np.float32),
                                  np.ones(spec.weight_shape(), np.float32), None, spec, big[1:])
            assert out.shape == (n, *big)
            assert out.flags.c_contiguous, layer.id


class TestRelu:
    def test_definition(self):
        x = np.array([-1.0, 0.0, 2.5], dtype=np.float32)
        assert np.array_equal(relu(x), [0.0, 0.0, 2.5])

    def test_all_negative(self):
        x = -np.ones((2, 3), dtype=np.float32)
        assert not relu(x).any()

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=32))
    def test_never_negative(self, values):
        assert (relu(np.array(values)) >= 0).all()


class TestSigmoid:
    def test_zero_is_half(self):
        assert sigmoid(np.float64(0.0)) == 0.5

    def test_saturation_no_overflow(self):
        with np.errstate(over="raise"):
            val = sigmoid(np.array([40.0, -40.0]))
        assert abs(val[0] - 1.0) < 1e-15
        assert val[1] < 1e-15

    def test_complement_identity(self):
        x = np.random.default_rng(0).normal(0, 4, size=1000)
        assert np.abs(sigmoid(-x) - (1 - sigmoid(x))).max() < 1e-7

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=64))
    def test_open_interval(self, values):
        y = sigmoid(np.array(values, dtype=np.float32))
        assert (y > 0).all() and (y < 1).all()


class TestBatchNorm:
    def test_normalizes_to_unit_stats(self):
        r = np.random.default_rng(3)
        x = r.normal(2.0, 3.0, size=(4, 3, 8, 8))
        state = BatchNormState.create(3, dtype=np.float64)
        y, _ = batchnorm_forward(x, state, "train")
        assert np.abs(y.mean(axis=(0, 2, 3))).max() < 1e-5
        assert np.abs(y.var(axis=(0, 2, 3)) - 1).max() < 1e-3

    def test_identity_transform(self):
        r = np.random.default_rng(4)
        x = r.normal(1.0, 2.0, size=(2, 3, 6, 6)).astype(np.float32)
        mu = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        state = BatchNormState.create(3)
        state.beta[:] = mu
        state.gamma[:] = np.sqrt(var + tensor.BN_EPS)
        y, _ = batchnorm_forward(x, state, "train")
        assert np.abs(y - x).max() < 1e-5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_statistics_match_the_var_formula(self, dtype):
        r = np.random.default_rng(9)
        x = r.normal(3.0, 2.0, size=(3, 4, 7, 9)).astype(dtype)
        state = BatchNormState.create(4, momentum=0.9, dtype=dtype)
        _, (xhat, inv_std) = batchnorm_forward(x, state, "train")
        # oracle: the mean and x.var, which centres x a second time
        mu = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        expected_inv_std = 1.0 / np.sqrt(var + tensor.BN_EPS)
        expected_xhat = x - mu.reshape(1, -1, 1, 1)
        expected_xhat *= expected_inv_std.reshape(1, -1, 1, 1)
        fresh = BatchNormState.create(4, dtype=dtype)
        running_var = (0.9 * fresh.running_var + (1 - 0.9) * var).astype(dtype)
        running_mean = (0.9 * fresh.running_mean + (1 - 0.9) * mu).astype(dtype)
        assert inv_std.tobytes() == expected_inv_std.tobytes()
        assert xhat.tobytes() == expected_xhat.tobytes()
        assert state.running_var.tobytes() == running_var.tobytes()
        assert state.running_mean.tobytes() == running_mean.tobytes()

    def test_infer_before_train_rejected(self):
        state = BatchNormState.create(2)
        with pytest.raises(RuntimeError):
            batchnorm_forward(np.zeros((1, 2, 4, 4), np.float32), state, "infer")

    def test_infer_uses_running_stats(self):
        r = np.random.default_rng(5)
        state = BatchNormState.create(2, momentum=0.5, dtype=np.float64)
        for _ in range(200):
            batchnorm_forward(r.normal(3.0, 2.0, size=(8, 2, 4, 4)), state, "train")
        x = r.normal(3.0, 2.0, size=(4, 2, 4, 4))
        y, _ = batchnorm_forward(x, state, "infer")
        assert np.abs(y.mean()) < 0.2  # running stats track the distribution

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    def test_infer_matches_normalize_then_affine(self, dtype, tol):
        r = np.random.default_rng(6)
        state = BatchNormState.create(5, dtype=dtype)
        state.gamma[:] = r.uniform(0.5, 2.0, 5)
        state.beta[:] = r.normal(0.0, 1.0, 5)
        state.running_mean[:] = r.normal(0.0, 2.0, 5)
        state.running_var[:] = r.uniform(0.5, 4.0, 5)
        state.initialized = True
        x = r.normal(1.0, 3.0, size=(2, 5, 6, 7)).astype(dtype)
        y, cache = batchnorm_forward(x, state, "infer")
        mean = state.running_mean.reshape(1, -1, 1, 1)
        inv_std = (1.0 / np.sqrt(state.running_var + tensor.BN_EPS)).reshape(1, -1, 1, 1)
        expected = (state.gamma.reshape(1, -1, 1, 1) * ((x - mean) * inv_std)
                    + state.beta.reshape(1, -1, 1, 1))
        assert cache is None and y.dtype == dtype
        assert np.abs(y - expected).max() <= tol * np.abs(expected).max()

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            batchnorm_forward(np.zeros((1, 3, 2, 2), np.float32),
                              BatchNormState.create(2), "train")


class TestConcat:
    def test_canonical_decoder_fusion(self):
        a = np.zeros((1, 64, 30, 40), np.float32)
        b = np.zeros((1, 96, 30, 40), np.float32)
        assert concat_channels([a, b]).shape == (1, 160, 30, 40)

    def test_four_way_head_fusion(self):
        parts = [np.zeros((1, c, 240, 320), np.float32) for c in (64, 16, 16, 16)]
        assert concat_channels(parts).shape == (1, 112, 240, 320)

    def test_single_input_identity(self):
        x = np.arange(24, dtype=np.float32).reshape(1, 2, 3, 4)
        assert np.array_equal(concat_channels([x]), x)

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            concat_channels([np.zeros((1, 1, 3, 3)), np.zeros((1, 1, 4, 3))])

    @given(c1=st.integers(1, 4), c2=st.integers(1, 4), c3=st.integers(1, 4))
    @settings(max_examples=20)
    def test_associative_layout(self, c1, c2, c3):
        r = np.random.default_rng(c1 * 16 + c2 * 4 + c3)
        a, b, c = (r.normal(size=(1, ci, 2, 2)) for ci in (c1, c2, c3))
        nested = concat_channels([a, concat_channels([b, c])])
        flat = concat_channels([a, b, c])
        assert np.array_equal(nested, flat)


class TestChannelParts:
    @staticmethod
    def _parts(dtype=np.float32):
        r = np.random.default_rng(31)
        return [r.normal(size=(2, c, 11, 9)).astype(dtype) for c in (3, 1, 2)]

    @pytest.mark.parametrize("spec", [ConvSpec(3, 1, 6, 4), ConvSpec(3, 2, 6, 4),
                                      ConvSpec(5, 4, 6, 3), ConvSpec(1, 1, 6, 2),
                                      TransposeConvSpec(3, 2, 6, 4),
                                      TransposeConvSpec(3, 1, 6, 4)],
                             ids=["3x3", "3x3-s2", "5x5-s4", "1x1", "convT-s2", "convT-s1"])
    def test_conv_forwards_read_the_parts(self, monkeypatch, spec):
        # one grid row a block, so each block loads its window from every part
        monkeypatch.setattr(tensor, "COLUMN_BUDGET", 1)
        parts = self._parts()
        r = np.random.default_rng(32)
        weights = r.normal(size=spec.weight_shape()).astype(np.float32)
        bias = r.normal(size=spec.out_channels).astype(np.float32)
        conv = convT2d_forward if isinstance(spec, TransposeConvSpec) else conv2d_forward
        built = conv(concat_channels(parts), weights, bias, spec)
        assert np.array_equal(conv(ChannelParts(parts), weights, bias, spec), built)

    @staticmethod
    def _state(dtype, seed=33):
        r = np.random.default_rng(seed)
        state = BatchNormState.create(6, dtype=dtype)
        state.gamma[:], state.beta[:] = r.uniform(0.5, 2.0, 6), r.normal(size=6)
        state.running_mean[:], state.running_var[:] = r.normal(size=6), r.uniform(0.5, 2.0, 6)
        state.initialized = True
        return state

    @pytest.mark.parametrize("budget", ["default", 1])
    @pytest.mark.parametrize("spec", [ConvSpec(3, 1, 6, 4), ConvSpec(3, 2, 6, 4),
                                      ConvSpec(5, 4, 6, 3), ConvSpec(1, 1, 6, 2)],
                             ids=["3x3", "3x3-s2", "5x5-s4", "1x1"])
    @pytest.mark.parametrize("state_dtype", [np.float32, np.float64])
    def test_infer_batchnorm_leaves_the_parts_to_the_conv(self, monkeypatch, state_dtype,
                                                          spec, budget):
        # the parts come back as they were, with the running affine
        # attached; the conv applies it to each window, and float64
        # statistics widen the windows as they widen the built y
        if budget != "default":
            monkeypatch.setattr(tensor, "COLUMN_BUDGET", budget)
        parts = self._parts()
        before = [p.copy() for p in parts]
        state = self._state(state_dtype)
        y, cache = batchnorm_forward(ChannelParts(parts), state, "infer")
        assert cache is None and isinstance(y, ChannelParts)
        assert all(a is p for a, p in zip(y.arrays, parts))
        assert all(p.tobytes() == b.tobytes() for p, b in zip(parts, before))
        built, _ = batchnorm_forward(concat_channels(before), state, "infer")
        assert y.shape == built.shape and y.dtype == built.dtype == state_dtype
        r = np.random.default_rng(35)
        weights = r.normal(size=spec.weight_shape()).astype(np.float32)
        bias = r.normal(size=spec.out_channels).astype(np.float32)
        got = conv2d_forward(y, weights, bias, spec)
        assert got.tobytes() == conv2d_forward(built, weights, bias, spec).tobytes()

    @pytest.mark.parametrize("budget", ["default", 1])
    @pytest.mark.parametrize("spec", [ConvSpec(3, 1, 6, 4), ConvSpec(1, 1, 6, 2)],
                             ids=["3x3", "1x1"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_batchnorm_leaves_xhat_to_the_conv(self, monkeypatch, dtype, spec, budget):
        # y is xhat with (gamma, beta) attached: the conv's forward and its
        # d_x, d_w and d_b equal those through the built y
        if budget != "default":
            monkeypatch.setattr(tensor, "COLUMN_BUDGET", budget)
        parts = self._parts(dtype)
        built_state, state = self._state(dtype), self._state(dtype)
        built, (xhat, _) = batchnorm_forward(concat_channels(parts), built_state, "train")
        y, (xhat_parts, _) = batchnorm_forward(ChannelParts(parts), state, "train")
        assert y.arrays == [xhat_parts] and xhat_parts.tobytes() == xhat.tobytes()
        assert y.affine[0] is state.gamma and y.affine[1] is state.beta
        r = np.random.default_rng(36)
        weights = r.normal(size=spec.weight_shape()).astype(dtype)
        bias = r.normal(size=spec.out_channels).astype(dtype)
        out = conv2d_forward(built, weights, bias, spec)
        assert conv2d_forward(y, weights, bias, spec).tobytes() == out.tobytes()
        d_out = r.normal(size=out.shape).astype(dtype)
        folded = conv2d_backward(ChannelParts([xhat], (state.gamma, state.beta)), weights,
                                 spec, d_out)
        for got, expected in zip(folded, conv2d_backward(built, weights, spec, d_out)):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("hout", [1, 2])
    def test_head_is_relu_then_a_1x1_conv(self, monkeypatch, dtype, hout):
        # the head's GEMM gets 3-row blocks, the 1x1 conv's one block of all
        # 13 rows; at a width that is a multiple of 16, as every MV-FCN map's
        # is, the bits agree
        r = np.random.default_rng(34)
        x = r.normal(size=(2, 5, 13, 32)).astype(dtype)
        spec, head_spec = ConvSpec(3, 1, 5, 24), ConvSpec(1, 1, 24, hout)
        w, b = r.normal(size=spec.weight_shape()).astype(dtype), r.normal(size=24).astype(dtype)
        hw = r.normal(size=head_spec.weight_shape()).astype(dtype)
        hb = r.normal(size=hout).astype(dtype)
        monkeypatch.setattr(tensor, "COLUMN_BUDGET", (9 * 5 + 24) * 32 * x.itemsize * 3)
        expected = conv2d_forward(relu(conv2d_forward(x, w, b, spec)), hw, hb, head_spec)
        assert np.array_equal(conv2d_forward(x, w, b, spec, head=(hw, hb)), expected)


class TestDropout:
    def test_rate_zero_identity(self, rng):
        x = np.random.default_rng(0).normal(size=(2, 3, 4, 4)).astype(np.float32)
        for mode in ("train", "infer"):
            y, mask = dropout(x, 0.0, rng, mode)
            assert np.array_equal(y, x)
            assert mask is None

    def test_infer_identity(self, rng):
        x = np.ones((1, 2, 3, 3), dtype=np.float32)
        y, mask = dropout(x, 0.7, rng, "infer")
        assert y is x and mask is None

    def test_expectation_preserved(self, rng):
        x = np.ones((1, 1, 1000, 1000), dtype=np.float32)
        y, _ = dropout(x, 0.3, rng, "train")
        assert abs(float(y.mean()) - 1.0) < 0.01

    def test_bad_rate_rejected(self, rng):
        with pytest.raises(ConfigError):
            dropout(np.ones((1, 1, 2, 2)), 1.0, rng, "train")

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_bad_mode_rejected_at_every_rate(self, rng, rate):
        with pytest.raises(ConfigError, match="mode"):
            dropout(np.ones((1, 1, 2, 2)), rate, rng, "bogus")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_float64_scale_formula(self, dtype):
        r = np.random.default_rng(3)
        x = r.normal(size=(2, 4, 6, 7)).astype(dtype)
        x[0, 0, 0, :3] = [-0.0, 0.0, -1.5]
        d_out = r.normal(size=x.shape).astype(dtype)
        rate = 0.3
        y, mask = dropout(x, rate, EngineRng(7), "train")
        # the formula that built a float64 scale array and cast it
        expect_mask = EngineRng(7).uniform(size=x.shape) >= rate
        scale = (expect_mask / (1.0 - rate)).astype(dtype)
        assert np.array_equal(mask, expect_mask)
        d_x = dropout_backward(d_out, mask, rate)
        for got, want in ((y, x * scale), (d_x, d_out * scale)):
            assert got.dtype == dtype
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_in_place_equals_the_out_of_place_draw(self, dtype, rate):
        x = np.random.default_rng(5).normal(size=(2, 4, 6, 7)).astype(dtype)
        x[0, 0, 0, :3] = [-0.0, 0.0, -1.5]
        rng, ref = EngineRng(9), EngineRng(9)
        want, want_mask = dropout(x, rate, ref, "train")
        got = x.copy()
        y, mask = dropout(got, rate, rng, "train", out=got)
        assert y is got
        assert got.tobytes() == want.tobytes()  # signed zeros too
        if rate:
            assert np.array_equal(mask, want_mask) and not mask.all()
        else:
            assert mask is None and want_mask is None
        assert np.array_equal(rng.state_words(), ref.state_words())

    @pytest.mark.parametrize("size", [
        (1, 1, 1000, 1000),   # below the chunk
        (1, 1, 1024, 1024),   # one whole chunk
        (2, 1, 1024, 1024),   # two whole chunks
        (1, 3, 700, 700),     # above it, not a multiple of it
    ])
    def test_chunked_mask_matches_one_draw(self, size):
        x = np.ones(size, dtype=np.float32)
        rng, ref = EngineRng(11), EngineRng(11)
        _, mask = dropout(x, 0.3, rng, "train")
        assert tensor.DROPOUT_CHUNK == 1 << 20
        assert mask.dtype == bool
        assert np.array_equal(mask, ref.uniform(size=size) >= 0.3)
        assert np.array_equal(rng.state_words(), ref.state_words())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_in_place_matches_allocating_form(self, dtype):
        r = np.random.default_rng(4)
        d = r.normal(size=(2, 3, 5, 4)).astype(dtype)
        _, mask = dropout(d, 0.5, EngineRng(8), "train")
        expected = dropout_backward(d, mask, 0.5)
        assert np.signbit(expected[~mask & (d < 0)]).all()  # -d * 0 is -0.0
        got = dropout_backward(d, mask, 0.5, out=d)
        assert got is d
        assert got.tobytes() == expected.tobytes()


class TestResizeNearest:
    def test_same_size_is_noop(self):
        x = np.random.default_rng(0).uniform(size=(1, 3, 240, 320)).astype(np.float32)
        assert np.array_equal(resize_nearest(x, 240, 320), x)

    def test_integer_decimation(self):
        x = np.arange(480 * 640, dtype=np.float32).reshape(1, 1, 480, 640)
        out = resize_nearest(x, 240, 320)
        assert np.array_equal(out, x[:, :, ::2, ::2])

    @given(h=st.integers(1, 12), w=st.integers(1, 12),
           th=st.integers(1, 24), tw=st.integers(1, 24))
    @settings(max_examples=40)
    def test_value_set_preserved(self, h, w, th, tw):
        r = np.random.default_rng(h * 1000 + w * 100 + th * 10 + tw)
        mask = (r.uniform(size=(h, w)) > 0.5).astype(np.float32)
        out = resize_nearest(mask, th, tw)
        assert set(np.unique(out)) <= set(np.unique(mask))


@pytest.mark.parametrize("call, error", [
    (lambda: conv2d_forward(np.zeros((2, 4, 4)), np.zeros((2, 2, 3, 3)), None,
                            ConvSpec(3, 1, 2, 2)), ShapeError),
    (lambda: conv2d_forward(np.zeros((0, 2, 4, 4)), np.zeros((2, 2, 3, 3)), None,
                            ConvSpec(3, 1, 2, 2)), ShapeError),
    (lambda: ConvSpec(3, 0, 2, 2), ShapeError),
    (lambda: ConvSpec(3, 1, 0, 2), ShapeError),
    (lambda: batchnorm_forward(np.zeros((1, 2, 4, 4)), BatchNormState.create(2), mode="eval"),
     ConfigError),
    (lambda: batchnorm_backward(np.zeros((1, 2, 4, 4)), BatchNormState.create(2), None),
     RuntimeError),
    (lambda: concat_channels([]), ShapeError),
    (lambda: ChannelParts([np.zeros((1, 1, 3, 3)), np.zeros((1, 1, 4, 3))]), ShapeError),
    (lambda: conv2d_forward(np.zeros((1, 2, 4, 4)), np.zeros((3, 2, 3, 3)), None,
                            ConvSpec(3, 1, 2, 3), head=(np.zeros((1, 2, 1, 1)), None)),
     ShapeError),
    (lambda: resize_nearest(np.zeros(4), 2, 2), ShapeError),
    (lambda: resize_nearest(np.zeros((4, 4)), 0, 2), ShapeError),
], ids=["conv-rank-3", "conv-empty-batch", "stride-0", "channels-0", "batchnorm-mode",
        "batchnorm-backward-no-cache", "concat-nothing", "parts-spatial-mismatch",
    "head-channel-mismatch", "resize-1d", "resize-to-empty"])
def test_refused(call, error):
    with pytest.raises(error):
        call()

"""Structure, shape inference, parameter accounting, and execution
semantics of the canonical 32-layer network."""

import tracemalloc

import numpy as np
import pytest

from mvfcn import (
    ConfigError,
    EngineRng,
    LayerSpec,
    ModelGraph,
    ShapeError,
    backward,
    batchnorm_forward,
    bce_loss,
    build_mvfcn,
    concat_channels,
    conv2d_forward,
    convT2d_forward,
    count_params,
    forward,
    infer_shapes,
    io,
    relu,
    sigmoid,
    summary,
)
from mvfcn.tensor import ChannelParts

from conftest import fanout_graph, tiny_graph

# (layer id, channels, h, w) for a (3, 240, 320) input; channels-last in
# the printed summary
GOLDEN_SHAPES = {
    1: (3, 240, 320),
    2: (16, 240, 320),
    3: (16, 240, 320),
    4: (16, 240, 320),
    5: (16, 120, 160),
    6: (32, 60, 80),
    7: (32, 60, 80),
    8: (64, 60, 80),
    9: (32, 30, 40),
    10: (32, 30, 40),
    11: (32, 30, 40),
    12: (96, 30, 40),
    13: (32, 15, 20),
    14: (32, 15, 20),
    15: (32, 15, 20),
    16: (96, 15, 20),
    17: (64, 15, 20),
    18: (64, 30, 40),
    19: (160, 30, 40),
    20: (32, 30, 40),
    21: (32, 60, 80),
    22: (96, 60, 80),
    23: (32, 60, 80),
    24: (16, 120, 160),
    25: (32, 120, 160),
    26: (32, 120, 160),
    27: (64, 240, 320),
    28: (112, 240, 320),
    29: (112, 240, 320),
    30: (128, 240, 320),
    31: (128, 240, 320),
    32: (1, 240, 320),
}

# closed-form k^2*cin*cout + cout audit per layer
GOLDEN_COUNTS = {
    2: 448, 3: 1216, 4: 3904, 5: 2320, 6: 4640, 7: 12832,
    9: 18464, 10: 9248, 11: 41504, 13: 27680, 14: 25632, 15: 9248,
    17: 55360, 18: 36928, 20: 46112, 21: 9248, 23: 27680, 24: 4624,
    26: 9248, 27: 18496, 29: 224, 30: 129152, 32: 129,
}

TOTAL_PARAMS = 494_337


class TestStructure:
    def test_32_layers(self):
        assert len(build_mvfcn().layers) == 32

    def test_inception_head_is_stride_1(self):
        graph = build_mvfcn()
        for lid, k in ((2, 3), (3, 5), (4, 9)):
            layer = graph.by_id[lid]
            assert (layer.kernel, layer.stride) == (k, 1)

    def test_subsampling_stride_is_kernel_minus_one(self):
        graph = build_mvfcn()
        for lid in (5, 6, 7, 9, 10, 11, 13, 14, 15):
            layer = graph.by_id[lid]
            assert layer.stride == layer.kernel - 1

    def test_relu_everywhere_except_upsampling_and_head(self):
        graph = build_mvfcn()
        for layer in graph.layers:
            if layer.kind == "convT":
                assert layer.activation == "none"
            elif layer.kind == "conv" and layer.id != 32:
                assert layer.activation == "relu"
        assert graph.by_id[32].activation == "sigmoid"

    def test_encoder_concats_reappear_once_in_decoder(self):
        graph = build_mvfcn()
        decoder_concats = {19: 12, 22: 8, 25: 5}
        for decoder_id, encoder_id in decoder_concats.items():
            assert encoder_id in graph.by_id[decoder_id].inputs
        # each encoder partner is consumed by exactly one decoder concat
        for encoder_id in (5, 8, 12):
            consumers = [l.id for l in graph.layers
                         if l.kind == "concat" and encoder_id in l.inputs and l.id > 16]
            assert len(consumers) == 1

    def test_head_concat_inputs(self):
        assert build_mvfcn().by_id[28].inputs == (27, 2, 3, 4)

    def test_forward_reference_must_exist(self):
        with pytest.raises(ShapeError):
            ModelGraph([LayerSpec(1, "input"), LayerSpec(2, "conv", (3,), 3, 1, 4)])

    def test_duplicate_id_rejected(self):
        with pytest.raises(ShapeError):
            ModelGraph([LayerSpec(1, "input"), LayerSpec(1, "input")])

    def test_empty_table_rejected_at_construction(self):
        with pytest.raises(ShapeError, match="at least one layer"):
            ModelGraph([])

    @pytest.mark.parametrize("kind", ["concat", "batchnorm"])
    def test_activation_only_on_a_conv(self, kind):
        with pytest.raises(ShapeError, match="only conv layers take an activation"):
            LayerSpec(3, kind, (2,), activation="relu")

    @pytest.mark.parametrize("kwargs, match", [
        (dict(kind="pool", inputs=(1,)), "unknown layer kind 'pool'"),
        (dict(kind="conv", inputs=(1,), kernel=3, stride=1, out_channels=4, activation="tanh"),
         "unknown activation 'tanh'"),
        (dict(kind="conv", inputs=(1, 2), kernel=3, stride=1, out_channels=4),
         "conv layers take exactly one input"),
        (dict(kind="convT", inputs=(1,), kernel=3, out_channels=4),
         "conv layers need kernel/stride/channels"),
        (dict(kind="input", inputs=(1,)), "input layers take no inputs"),
        (dict(kind="concat"), "concat needs at least one input"),
        (dict(kind="dropout", inputs=(1,)), "dropout rate must be in"),
        (dict(kind="dropout", inputs=(1,), rate=1.0), "dropout rate must be in"),
    ], ids=["kind", "activation", "conv_inputs", "conv_fields", "input_inputs", "no_inputs",
            "no_rate", "rate_one"])
    def test_layer_spec_refusals(self, kwargs, match):
        with pytest.raises(ShapeError, match=match):
            LayerSpec(3, **kwargs)

    def test_even_kernel_rejected_at_construction(self):
        # the conv specs are built and checked once, before any parameter exists
        with pytest.raises(ShapeError, match="odd"):
            ModelGraph([LayerSpec(1, "input"), LayerSpec(2, "conv", (1,), 4, 1, 2)])

    def test_one_spec_per_conv_layer(self):
        graph = build_mvfcn()
        convs = [l.id for l in graph.layers if l.kind in ("conv", "convT")]
        assert list(graph.specs) == convs and len(convs) == 22
        for lid in convs:
            assert graph.specs[lid].in_channels == graph.channels[graph.by_id[lid].inputs[0]]


class TestShapeInference:
    def test_golden_table(self):
        shapes = infer_shapes(build_mvfcn(), (3, 240, 320))
        assert shapes == GOLDEN_SHAPES

    def test_branch_subsampling_shape(self):
        shapes = infer_shapes(build_mvfcn(), (3, 240, 320))
        assert shapes[7] == (32, 60, 80)

    def test_indivisible_height_rejected(self):
        with pytest.raises(ShapeError, match="not divisible by 16"):
            infer_shapes(build_mvfcn(), (3, 241, 320))

    @pytest.mark.parametrize("h,w", [(0, 0), (0, 320), (240, 0), (-16, 320)])
    def test_empty_size_rejected(self, h, w):
        graph = build_mvfcn()
        with pytest.raises(ShapeError, match="must be positive"):
            infer_shapes(graph, (3, h, w))
        if h >= 0:
            with pytest.raises(ShapeError, match="must be positive"):
                forward(graph, np.zeros((1, 3, h, w), dtype=np.float32))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            infer_shapes(build_mvfcn(), (4, 240, 320))

    def test_concat_spatial_disagreement_rejected(self):
        # at an odd size the stride-2 round trip comes back one row and column larger
        graph = ModelGraph([LayerSpec(1, "input"), LayerSpec(2, "conv", (1,), 3, 2, 4),
                            LayerSpec(3, "convT", (2,), 3, 2, 4), LayerSpec(4, "concat", (3, 1))],
                           input_divisor=1)
        assert infer_shapes(graph, (3, 6, 8))[4] == (7, 6, 8)
        with pytest.raises(ShapeError, match=r"layer 4: concat inputs disagree spatially: "
                                             r"\[\(4, 6, 6\), \(3, 5, 5\)\]"):
            infer_shapes(graph, (3, 5, 5))

    def test_matches_runtime_shapes(self):
        graph = build_mvfcn()
        graph.initialize_parameters(EngineRng(0))
        shapes = infer_shapes(graph, (3, 48, 32))
        x = np.random.default_rng(0).uniform(size=(2, 3, 48, 32)).astype(np.float32)
        graph.kept = frozenset(graph.by_id)  # keep every activation to compare
        _, cache = forward(graph, x, mode="train", rng=EngineRng(1))
        assert sorted(cache.outputs) == sorted(shapes)
        for lid, (c, h, w) in shapes.items():
            assert cache.outputs[lid].shape == (2, c, h, w)


class TestParameterCount:
    def test_total(self):
        total, _ = count_params(build_mvfcn())
        assert total == TOTAL_PARAMS

    def test_per_layer_closed_form(self):
        _, per_layer = count_params(build_mvfcn())
        counts = dict(per_layer)
        for lid, expected in GOLDEN_COUNTS.items():
            assert counts[lid] == expected, lid
        for lid, n in counts.items():
            if lid not in GOLDEN_COUNTS:
                assert n == 0

    def test_invariant_to_input_size(self):
        graph = build_mvfcn()
        total, _ = count_params(graph)
        infer_shapes(graph, (3, 480, 640))
        assert count_params(graph)[0] == total

    def test_runtime_parameters_match_accounting(self):
        graph = build_mvfcn()
        graph.initialize_parameters(EngineRng(0))
        actual = sum(arr.size for _, _, arr in graph.parameter_items())
        assert actual == TOTAL_PARAMS


class TestForward:
    def test_zero_input_zero_bias_gives_half(self):
        graph = build_mvfcn()
        graph.initialize_parameters(EngineRng(3))
        x = np.zeros((1, 3, 32, 32), dtype=np.float32)
        score, _ = forward(graph, x, mode="train", rng=EngineRng(4))
        assert np.allclose(score, 0.5)

    def test_output_in_open_unit_interval(self):
        graph = build_mvfcn()
        graph.initialize_parameters(EngineRng(5))
        x = np.random.default_rng(6).uniform(size=(2, 3, 32, 32)).astype(np.float32)
        score, _ = forward(graph, x, mode="train", rng=EngineRng(7))
        assert score.shape == (2, 1, 32, 32)
        assert score.min() > 0.0 and score.max() < 1.0

    def test_infer_mode_is_pure(self):
        graph = build_mvfcn()
        graph.initialize_parameters(EngineRng(8))
        x = np.random.default_rng(9).uniform(size=(1, 3, 32, 32)).astype(np.float32)
        forward(graph, x, mode="train", rng=EngineRng(10))  # warm BN stats
        a, _ = forward(graph, x, mode="infer")
        b, _ = forward(graph, x, mode="infer")
        assert np.array_equal(a, b)

    def test_train_mode_requires_rng(self):
        graph = build_mvfcn()
        graph.initialize_parameters(EngineRng(0))
        with pytest.raises(ConfigError, match="needs the engine rng"):
            forward(graph, np.zeros((1, 3, 32, 32), np.float32), mode="train")

    def test_indivisible_input_rejected(self):
        graph = build_mvfcn()
        graph.initialize_parameters(EngineRng(0))
        with pytest.raises(ShapeError):
            forward(graph, np.zeros((1, 3, 30, 32), np.float32))

    def test_unknown_mode_rejected(self):
        graph = tiny_graph()
        graph.initialize_parameters(EngineRng(0))
        with pytest.raises(ConfigError, match="mode must be"):
            forward(graph, np.zeros((1, 2, 4, 4), np.float32), mode="eval")

    def test_input_of_another_rank_rejected(self):
        graph = tiny_graph()
        graph.initialize_parameters(EngineRng(0))
        with pytest.raises(ShapeError, match=r"input must be rank-4, got \(2, 4, 4\)"):
            forward(graph, np.zeros((2, 4, 4), np.float32))

    def test_backward_refuses_an_infer_cache(self):
        graph = tiny_graph()
        graph.initialize_parameters(EngineRng(0))
        score, cache = forward(graph, np.zeros((1, 2, 4, 4), np.float32), mode="infer")
        with pytest.raises(RuntimeError, match="needs the cache of a train-mode forward"):
            backward(graph, cache, np.ones_like(score))

    def test_fanout_graph_runs(self):
        graph = fanout_graph()
        graph.initialize_parameters(EngineRng(11))
        x = np.random.default_rng(12).uniform(size=(2, 2, 8, 8)).astype(np.float32)
        score, cache = forward(graph, x, mode="train", rng=EngineRng(13))
        assert score.shape == (2, 1, 8, 8)
        # the concat (5) and the batch norm output (6) are released once
        # read; the batch norm's xhat keeps the concat's shape
        assert cache.extras[6][0].shape == (2, 6, 8, 8)


class TestActivationLiveness:
    @staticmethod
    def _warm_graph():
        graph = build_mvfcn()
        graph.initialize_parameters(EngineRng(14))
        x = np.random.default_rng(15).uniform(size=(1, 3, 32, 32)).astype(np.float32)
        forward(graph, x, mode="train", rng=EngineRng(16))  # warm BN stats
        return graph

    def test_last_reader_table(self):
        # layer 2 feeds 3 and 5, so 5 releases it
        assert fanout_graph().last_reader == {1: 2, 2: 5, 3: 4, 4: 5, 5: 6, 6: 7}

    def test_infer_cache_holds_final_output_and_logits(self):
        graph = self._warm_graph()
        x = np.random.default_rng(17).uniform(size=(1, 3, 32, 32)).astype(np.float32)
        score, cache = forward(graph, x, mode="infer")
        assert list(cache.outputs) == [32]
        assert cache.outputs[32] is score
        assert cache.logits.shape == score.shape and cache.logits is not score
        assert not any(e is not None for e in cache.extras.values())

    def test_kept_table(self):
        # conv inputs 1, 2, 3, 6 and activated outputs 2, 3, 7; the batch
        # norm output 6, read only by conv 7, is its xhat with the affine
        # attached, no bytes of its own
        assert fanout_graph().kept == {1, 2, 3, 6, 7}

    def test_stand_in_and_folded_tables(self):
        graph = build_mvfcn()
        assert graph.stand_in == {30: 31}
        assert graph.folded == {29}
        assert {29, 30, 31} <= graph.kept
        fanout = fanout_graph()
        assert fanout.stand_in == {} and fanout.folded == {6}
        assert 6 in fanout.kept

    def test_tables_need_a_sole_reader(self):
        # a ReLU output that a concat also reads keeps its own mask, and a
        # batch norm output that two layers read is kept
        L = LayerSpec
        graph = ModelGraph([L(1, "input"), L(2, "conv", (1,), 3, 1, 2, "relu"),
                            L(3, "dropout", (2,), rate=0.5), L(4, "batchnorm", (3,)),
                            L(5, "conv", (4,), 1, 1, 2), L(6, "concat", (5, 4, 2)),
                            L(7, "conv", (6,), 1, 1, 1, "sigmoid")], in_channels=1)
        assert graph.stand_in == {} and graph.folded == frozenset()
        assert graph.kept == {1, 2, 4, 6, 7}
        # so the dropout leaves the ReLU output the concat reads as it was;
        # no conv reads it, so the cache then holds its x > 0 map
        graph.initialize_parameters(EngineRng(43))
        x = np.random.default_rng(44).normal(size=(2, 1, 5, 6)).astype(np.float32)
        _, cache = forward(graph, x, mode="train", rng=EngineRng(45))
        p = graph.params[2]
        relu_out = relu(conv2d_forward(x, p["weight"], p["bias"], graph.specs[2]))
        assert cache.outputs[6][:, 4:].tobytes() == relu_out.tobytes()
        assert cache.outputs[2].tobytes() == (relu_out > 0).tobytes()
        assert cache.extras[3] is not None and not cache.extras[3].all()

    def test_a_batch_norm_a_convT_reads_is_built(self):
        # a convT's backward indexes its small side directly, so only the
        # conv's batch norm (6) is folded; both give the bits of the walk
        # that builds every batch norm
        L = LayerSpec

        def make():
            return ModelGraph([L(1, "input"), L(2, "conv", (1,), 3, 2, 3, "relu"),
                               L(3, "batchnorm", (2,)), L(4, "convT", (3,), 3, 2, 2),
                               L(5, "concat", (4, 1)), L(6, "batchnorm", (5,)),
                               L(7, "conv", (6,), 3, 1, 1, "sigmoid")],
                              in_channels=1, input_divisor=2)

        graph, built = make(), make()
        assert graph.folded == {6} and graph.unbuilt == {5}
        built.folded = frozenset()
        r = np.random.default_rng(46)
        x = r.normal(size=(2, 1, 6, 8)).astype(np.float32)
        d_final = r.normal(size=(2, 1, 6, 8)).astype(np.float32)
        steps = []
        for g in (graph, built):
            g.initialize_parameters(EngineRng(47))
            score, cache = forward(g, x, mode="train", rng=EngineRng(48))
            grads = backward(g, cache, d_final)
            steps.append([score.tobytes()]
                         + [grads[lid][name].tobytes() for lid, name, _ in g.parameter_items()]
                         + [s.running_mean.tobytes() + s.running_var.tobytes()
                            for s in g.bn_states.values()])
        assert steps[0] == steps[1]
        score, cache = forward(graph, x, mode="infer")
        expected_score, expected_logits = _materialized(graph, x)
        assert np.array_equal(score, expected_score)
        assert np.array_equal(cache.logits, expected_logits)

    def test_train_cache_holds_the_kept_set(self):
        # the transposed convs and the head concat are read by no backward,
        # so a train-mode forward releases all five; L31's dropout runs in
        # place on L30's ReLU output, so the two hold one array; the head
        # batch norm output is its xhat, held in its extras, with
        # (gamma, beta) attached; the ReLU outputs only a concat reads are
        # held as their x > 0 maps
        graph = self._warm_graph()
        x = np.random.default_rng(18).uniform(size=(2, 3, 32, 32)).astype(np.float32)
        _, cache = forward(graph, x, mode="train", rng=EngineRng(19))
        assert set(graph.kept) == set(range(1, 33)) - {18, 21, 24, 27, 28}
        assert sorted(cache.outputs) == sorted(graph.kept)
        assert cache.outputs[30] is cache.outputs[31]
        masks = {6, 9, 10, 13, 14, 15}
        assert {lid for lid, out in cache.outputs.items() if out.dtype == bool} == masks
        floats = {cache.outputs[lid].dtype for lid in set(cache.outputs) - masks}
        assert floats == {np.dtype(np.float32)}
        assert sorted(cache.extras) == [29, 31]
        y29, state = cache.outputs[29], graph.bn_states[29]
        assert isinstance(y29, ChannelParts) and y29.arrays == [cache.extras[29][0]]
        assert y29.affine[0] is state.gamma and y29.affine[1] is state.beta

    def test_backward_consumes_the_cache(self):
        graph = self._warm_graph()
        x = np.random.default_rng(21).uniform(size=(2, 3, 32, 32)).astype(np.float32)
        _, cache = forward(graph, x, mode="train", rng=EngineRng(22))
        d_logits = np.ones_like(cache.logits)
        backward(graph, cache, d_logits)
        assert cache.outputs == {} and cache.extras == {}
        with pytest.raises(RuntimeError, match="empty"):
            backward(graph, cache, d_logits)

    def test_backward_leaves_the_callers_gradient_intact(self):
        # the final concat hands views of d_final to a ReLU layer, whose
        # backward runs in place
        graph = ModelGraph([LayerSpec(1, "input"), LayerSpec(2, "conv", (1,), 3, 1, 2, "relu"),
                            LayerSpec(3, "concat", (2,))], in_channels=1)
        graph.initialize_parameters(EngineRng(25))
        x = np.random.default_rng(26).normal(size=(1, 1, 4, 4)).astype(np.float32)
        _, cache = forward(graph, x, mode="train", rng=EngineRng(27))
        assert not cache.outputs[2].all()  # some outputs are clipped at zero
        d_final = np.ones((1, 2, 4, 4), np.float32)
        backward(graph, cache, d_final)
        assert (d_final == 1).all()

    def _step_peak(self, batch):
        """The tracemalloc peak of one 240x320 train step (forward,
        bce_loss, backward), above what was held before it."""
        graph = self._warm_graph()
        r = np.random.default_rng(23)
        x = r.uniform(size=(batch, 3, 240, 320)).astype(np.float32)
        y = (r.uniform(size=(batch, 1, 240, 320)) > 0.5).astype(np.float32)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, cache = forward(graph, x, mode="train", rng=EngineRng(24))
            _, d_logits = bce_loss(cache.logits, y)
            backward(graph, cache, d_logits)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_train_step_peak_memory_at_paper_size(self):
        # one 240x320 frame: the kept activations plus one layer's gradients
        # and temporaries; holding every activation through backward
        # peaked at about 363 MiB
        assert self._step_peak(1) < 290 * 2**20

    def test_train_step_peak_memory_without_the_head_maps(self):
        # one 240x320 frame with L29 and L30 released: about 159 MiB, and
        # about 137 MiB with the batch-norm backward in place and the
        # ReLU masks as bools; keeping L29 and L30 peaked at about 227 MiB
        assert self._step_peak(1) < 180 * 2**20

    def test_batch_2_train_step_peak_memory(self):
        # two 240x320 frames: about 267 MiB, set by L30's conv backward.
        # L29's batch-norm backward building a fresh d_x peaked at about
        # 318 MiB; building it in place, with L31's float map held through
        # L32's conv backward, at about 290 MiB
        assert self._step_peak(2) <= 280 * 2**20

    def test_infer_peak_memory_at_paper_size(self):
        # all 32 activations of one 240x320 frame take about 159 MB; the
        # live set at its widest is a fraction of that
        graph = self._warm_graph()
        x = np.random.default_rng(20).uniform(size=(1, 3, 240, 320)).astype(np.float32)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            forward(graph, x, mode="infer")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20

    def test_streamed_infer_peak_memory_at_paper_size(self):
        # L28, L29 and L30 unbuilt: about 44 MiB; building them peaked at
        # about 77 MiB
        graph = self._warm_graph()
        x = np.random.default_rng(20).uniform(size=(1, 3, 240, 320)).astype(np.float32)
        forward(graph, x, mode="infer")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            forward(graph, x, mode="infer")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 52 * 2**20


def _seeded_statistics(graph, seed):
    """Random parameters, and batch-norm statistics that differ per channel."""
    graph.initialize_parameters(EngineRng(seed))
    r = np.random.default_rng(seed)
    for state in graph.bn_states.values():
        c = state.channels
        state.gamma[:], state.beta[:] = r.uniform(0.5, 1.5, c), r.normal(size=c)
        state.running_mean[:], state.running_var[:] = r.normal(size=c), r.uniform(0.5, 2.0, c)
        state.initialized = True
    return graph


def _materialized(graph, x):
    """The infer walk as a chain of the public ops, every map built and
    dropped after its last reader: (score, logits), the logits being the
    sigmoid's input when the final layer is a sigmoid conv."""
    outs, logits = {}, None
    for layer in graph.layers:
        ins = [outs[i] for i in layer.inputs]
        if layer.kind == "input":
            y = x
        elif layer.kind in ("conv", "convT"):
            p = graph.params[layer.id]
            conv = conv2d_forward if layer.kind == "conv" else convT2d_forward
            y = conv(ins[0], p["weight"], p["bias"], graph.specs[layer.id])
            if layer is graph.layers[-1] and layer.activation == "sigmoid":
                logits = y
            if layer.activation == "relu":
                y = relu(y)
            elif layer.activation == "sigmoid":
                y = sigmoid(y)
        elif layer.kind == "concat":
            y = concat_channels(ins)
        elif layer.kind == "batchnorm":
            y, _ = batchnorm_forward(ins[0], graph.bn_states[layer.id], "infer")
        else:  # an infer-mode dropout is the identity
            y = ins[0]
        outs[layer.id] = y
        for src in layer.inputs:
            if graph.last_reader[src] == layer.id:
                outs.pop(src, None)
    return y, y if logits is None else logits


def _head_graph(concat=(3, 2), head_kernel=1, before=(), extra=()):
    """A small streamed head: concat -> batch norm -> ReLU conv -> dropout
    -> conv, as in MV-FCN's L28-L32; ``before`` goes in before the concat
    and ``extra`` at the end."""
    L = LayerSpec
    return ModelGraph([L(1, "input"), L(2, "conv", (1,), 3, 1, 3, "relu"),
                       L(3, "conv", (2,), 3, 1, 2, "relu"), *before, L(4, "concat", concat),
                       L(5, "batchnorm", (4,)), L(6, "conv", (5,), 3, 1, 4, "relu"),
                       L(7, "dropout", (6,), rate=0.5),
                       L(8, "conv", (7,), head_kernel, 1, 1, "sigmoid"), *extra],
                      in_channels=1)


class TestStreamedHead:
    @pytest.mark.parametrize("size, batch", [((240, 320), 1), ((48, 64), 8), ((32, 32), 2)])
    def test_infer_forward_equals_the_public_ops(self, size, batch):
        # for L28-L32: concat_channels, batchnorm_forward, conv2d_forward,
        # relu, conv2d_forward and sigmoid, each map built
        graph = _seeded_statistics(build_mvfcn(), 41)
        x = np.random.default_rng(42).uniform(size=(batch, 3, *size)).astype(np.float32)
        x_before = x.copy()
        score, cache = forward(graph, x, mode="infer")
        assert np.array_equal(x, x_before)
        expected_score, expected_logits = _materialized(graph, x)
        assert np.array_equal(score, expected_score)
        assert np.array_equal(cache.logits, expected_logits)

    def test_uninitialized_statistics_still_raise(self):
        graph = build_mvfcn()
        graph.initialize_parameters(EngineRng(43))
        with pytest.raises(RuntimeError, match="uninitialized"):
            forward(graph, np.zeros((1, 3, 32, 32), np.float32), mode="infer")

    def test_mvfcn_tables(self):
        graph = build_mvfcn()
        assert graph.unbuilt == {28}
        assert graph.head == {30: 32}

    @pytest.mark.parametrize("graph, unbuilt, head", [
        (_head_graph(), {4}, {6: 8}),
        # the concat has a second reader
        (_head_graph(extra=(LayerSpec(9, "concat", (8, 4)),)), set(), {6: 8}),
        # nothing writes into the parts, so any map may be one: here the
        # graph input, one input twice, and in the last two cases an input
        # read after the concat and one a dropout passes through
        (_head_graph(concat=(3, 1)), {4}, {6: 8}),
        (_head_graph(concat=(3, 3)), {4}, {6: 8}),
        # a 3x3 conv reads the dropout
        (_head_graph(head_kernel=3), {4}, {}),
        (_head_graph(extra=(LayerSpec(9, "conv", (2,), 3, 1, 1),
                            LayerSpec(10, "concat", (8, 9)))), {4}, {6: 8}),
        (_head_graph(before=(LayerSpec(9, "dropout", (2,), rate=0.5),),
                     extra=(LayerSpec(10, "concat", (8, 9)),)), {4}, {6: 8}),
    ], ids=["streamed", "second-reader", "graph-input", "input-twice", "3x3-head",
            "input-read-later", "input-aliased-by-a-dropout"])
    def test_rules_and_the_materialized_reference(self, graph, unbuilt, head):
        assert graph.unbuilt == unbuilt and graph.head == head
        _seeded_statistics(graph, 44)
        x = np.random.default_rng(45).normal(size=(2, 1, 6, 5)).astype(np.float32)
        x_before = x.copy()
        score, cache = forward(graph, x, mode="infer")
        assert np.array_equal(x, x_before)
        expected_score, expected_logits = _materialized(graph, x)
        assert np.array_equal(score, expected_score)
        assert np.array_equal(cache.logits, expected_logits)


class TestSummary:
    def test_row_count_and_total_line(self):
        text = summary(build_mvfcn())
        lines = text.splitlines()
        assert len(lines) == 1 + 32 + 1  # header + rows + total
        assert lines[-1] == f"Total trainable parameters: {TOTAL_PARAMS}"

    def test_shapes_column_matches_golden(self):
        lines = summary(build_mvfcn()).splitlines()[1:-1]
        for line in lines:
            cols = line.split("\t")
            lid = int(cols[0])
            c, h, w = GOLDEN_SHAPES[lid]
            assert cols[2] == f"(None, {h}, {w}, {c})"

    def test_head_concat_inputs_column(self):
        lines = summary(build_mvfcn()).splitlines()
        row28 = next(l for l in lines if l.startswith("28\t"))
        assert row28.split("\t")[3] == "27, 2, 3, 4"

    def test_double_size_same_total(self):
        text = summary(build_mvfcn(), (3, 480, 640))
        assert f"Total trainable parameters: {TOTAL_PARAMS}" in text
        assert "(None, 480, 640, 16)" in text


class TestDeterministicInit:
    def test_same_seed_same_parameters(self):
        a = build_mvfcn()
        a.initialize_parameters(EngineRng(42))
        b = build_mvfcn()
        b.initialize_parameters(EngineRng(42))
        for (l1, n1, p1), (l2, n2, p2) in zip(a.parameter_items(), b.parameter_items()):
            assert (l1, n1) == (l2, n2)
            assert np.array_equal(p1, p2)

    def test_fan_in_draws_in_layer_order(self):
        graph = build_mvfcn()
        graph.initialize_parameters(EngineRng(5))
        rng = EngineRng(5)
        for layer in graph.layers:
            if layer.kind in ("conv", "convT"):
                spec = graph.specs[layer.id]
                limit = np.sqrt(6.0 / (spec.in_channels * layer.kernel ** 2))
                want = rng.uniform(-limit, limit, size=spec.weight_shape())
                want = want.astype(np.float32)
                assert np.array_equal(graph.params[layer.id]["weight"], want)
                assert not graph.params[layer.id]["bias"].any()

    def test_allocation_draws_nothing(self):
        a = build_mvfcn()
        a.allocate_parameters()
        b = build_mvfcn()
        b.initialize_parameters(EngineRng(0))
        for (_, _, pa), (_, _, pb) in zip(a.parameter_items(), b.parameter_items()):
            assert pa.shape == pb.shape and pa.dtype == pb.dtype
        assert not any(p.any() for lid, name, p in a.parameter_items() if name != "gamma")

    def test_fingerprint_ignores_values_not_structure(self):
        a = build_mvfcn()
        b = build_mvfcn()
        b.initialize_parameters(EngineRng(0))
        assert io.fingerprint(a) == io.fingerprint(b)
        assert io.fingerprint(a) != io.fingerprint(tiny_graph())

"""Layer DAG of the segmentation network: construction, static shape
inference, parameter accounting, and forward/backward execution.

The canonical network is a three-branch encoder-decoder: a pivotal 3x3
path plus complementary 5x5 and 9x9 branches whose feature maps are fused
back in by channel concatenation, four transposed-convolution upsampling
stages, batch norm and dropout before a 1x1 sigmoid output conv.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import (
    INFER,
    TRAIN,
    BatchNormState,
    ChannelParts,
    ConvSpec,
    TransposeConvSpec,
    batchnorm_backward,
    batchnorm_forward,
    concat_backward,
    concat_channels,
    conv2d_backward,
    conv2d_forward,
    convT2d_backward,
    convT2d_forward,
    dropout,
    dropout_backward,
    relu,
    relu_backward,
    relu_mask,
    sigmoid,
    sigmoid_backward,
)

KINDS = ("input", "conv", "convT", "concat", "batchnorm", "dropout")
CONV_KINDS = ("conv", "convT")
ACTIVATIONS = ("none", "relu", "sigmoid")


@dataclass(frozen=True)
class LayerSpec:
    """One node of the layer DAG; ``inputs`` lists producer layer ids."""

    id: int
    kind: str
    inputs: tuple[int, ...] = ()
    kernel: int | None = None
    stride: int | None = None
    out_channels: int | None = None
    activation: str = "none"
    rate: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ShapeError(f"unknown layer kind {self.kind!r}")
        if self.activation not in ACTIVATIONS:
            raise ShapeError(f"unknown activation {self.activation!r}")
        if self.activation != "none" and self.kind not in CONV_KINDS:
            raise ShapeError(f"layer {self.id}: only conv layers take an activation")
        if self.kind in CONV_KINDS:
            if len(self.inputs) != 1:
                raise ShapeError(f"layer {self.id}: conv layers take exactly one input")
            if self.kernel is None or self.stride is None or self.out_channels is None:
                raise ShapeError(f"layer {self.id}: conv layers need kernel/stride/channels")
        if self.kind == "input" and self.inputs:
            raise ShapeError(f"layer {self.id}: input layers take no inputs")
        if self.kind in ("concat", "batchnorm", "dropout") and not self.inputs:
            raise ShapeError(f"layer {self.id}: {self.kind} needs at least one input")
        if self.kind == "dropout" and (self.rate is None or not 0 <= self.rate < 1):
            raise ShapeError(f"layer {self.id}: dropout rate must be in [0, 1)")


class ModelGraph:
    """Immutable layer table plus mutable named parameters.

    Layers must be listed so that every input id refers to an earlier row,
    which makes list order a valid execution order. Construction is the one
    check of the table: the walk, the shape pass and the summary only read
    what it builds.
    """

    def __init__(self, layers, in_channels: int = 3, input_divisor: int = 1,
                 bn_momentum: float = 0.99):
        self.layers = list(layers)
        if not self.layers:
            raise ShapeError("a graph needs at least one layer")
        self.in_channels = in_channels
        self.input_divisor = input_divisor
        self.bn_momentum = bn_momentum
        self.by_id = {}
        for layer in self.layers:
            if layer.id in self.by_id:
                raise ShapeError(f"duplicate layer id {layer.id}")
            for src in layer.inputs:
                if src not in self.by_id:
                    raise ShapeError(
                        f"layer {layer.id} references {src}, which is not defined earlier"
                    )
            self.by_id[layer.id] = layer
        readers = {}
        for layer in self.layers:
            for src in layer.inputs:
                readers.setdefault(src, []).append(layer)
        # activation id -> the layer that reads it last; a forward releases
        # the activation once that layer has run, unless it is kept
        self.last_reader = {src: rs[-1].id for src, rs in readers.items()}
        sole = {src: rs[0] for src, rs in readers.items()
                if len(rs) == 1 and rs[0].inputs == (src,)}
        # ReLU id -> the dropout that alone reads it, which a train forward
        # runs in place on the ReLU output, so the ReLU backward reads the
        # overwritten map. It stands in for the mask: x * mask * scale with
        # scale >= 1 is positive exactly where the ReLU output is and the
        # mask keeps; where the mask drops, the gradient reaching the ReLU
        # is already a signed zero (or NaN), which a 0 or a 1 leaves as it is
        self.stand_in = {src: r.id for src, r in sole.items()
                         if self.by_id[src].activation == "relu" and r.kind == "dropout"}
        # conv id -> the ReLU whose values its backward reads last: the
        # ReLU's earliest conv reader, a reader of its stand-in dropout
        # counting for the ReLU. After it only the ReLU's backward reads
        # the map, and only its x > 0, so the conv's backward leaves that
        # bool map in the cache and gets the float map with no name held,
        # which frees it before the conv allocates d_x. A train forward
        # holds a ReLU output that no conv reads as x > 0 from its release
        # on, so every ReLU backward of the walk reads a bool map
        self.hand_over = {}
        for relu_id in (l.id for l in self.layers if l.activation == "relu"):
            convs = [r.id for r in readers.get(self.stand_in.get(relu_id, relu_id), ())
                     if r.kind in CONV_KINDS]
            if convs:
                self.hand_over[convs[0]] = relu_id
        # batch-norm ids that one conv alone reads, never built: the conv
        # gets the input with the affine attached (a ChannelParts). A convT's
        # backward indexes its small side directly, so it gets built maps
        self.folded = frozenset(src for src, r in sole.items()
                                if self.by_id[src].kind == "batchnorm" and r.kind == "conv")
        # concat ids an infer forward leaves as ChannelParts: the concat's
        # one reader is a folded batch norm, which only attaches its affine
        # to the parts. Nothing writes into them, so any map may be a part
        self.unbuilt = frozenset(l.id for l in self.layers if l.kind == "concat"
                                 and l.id in sole and sole[l.id].id in self.folded)
        # ReLU conv id -> the 1x1 stride-1 conv that alone reads the
        # dropout that alone reads it. An infer-mode dropout passes its
        # input through, so that 1x1 conv runs in the ReLU conv's row
        # blocks (conv2d_forward's ``head``) and the ReLU conv's output is
        # never built
        self.head = {src: sole[d].id for src, d in self.stand_in.items()
                     if self.by_id[src].kind == "conv" and d in sole
                     and sole[d].kind == "conv" and sole[d].kernel == sole[d].stride == 1}
        self.kept = self._kept()
        self.channels = self._infer_channels()
        # each conv's spec, built (and so checked) once
        self.specs = {l.id: (ConvSpec if l.kind == "conv" else TransposeConvSpec)(
            l.kernel, l.stride, self.channels[l.inputs[0]], l.out_channels)
            for l in self.layers if l.kind in CONV_KINDS}
        self.params: dict[int, dict[str, np.ndarray]] = {}
        self.bn_states: dict[int, BatchNormState] = {}

    def _kept(self) -> frozenset:
        """The activations some backward reads, which a train-mode forward
        keeps: each conv's input (for its weight gradient) and each activated
        output (for its ReLU or sigmoid mask)."""
        conv_inputs = {l.inputs[0] for l in self.layers if l.kind in CONV_KINDS}
        return frozenset(conv_inputs | {l.id for l in self.layers if l.activation != "none"})

    def _infer_channels(self) -> dict[int, int]:
        channels = {}
        for layer in self.layers:
            if layer.kind == "input":
                channels[layer.id] = self.in_channels
            elif layer.kind in CONV_KINDS:
                channels[layer.id] = layer.out_channels
            elif layer.kind == "concat":
                channels[layer.id] = sum(channels[i] for i in layer.inputs)
            else:
                channels[layer.id] = channels[layer.inputs[0]]
        return channels

    def allocate_parameters(self, dtype=np.float32) -> None:
        """Zero weights and biases, identity batch norm: the arrays a
        checkpoint is copied into, drawn from no rng."""
        self.params.clear()
        self.bn_states.clear()
        for layer in self.layers:
            if layer.kind in CONV_KINDS:
                self.params[layer.id] = {
                    "weight": np.zeros(self.specs[layer.id].weight_shape(), dtype=dtype),
                    "bias": np.zeros(layer.out_channels, dtype=dtype),
                }
            elif layer.kind == "batchnorm":
                self.bn_states[layer.id] = BatchNormState.create(
                    self.channels[layer.id], momentum=self.bn_momentum, dtype=dtype
                )

    def initialize_parameters(self, rng, dtype=np.float32) -> None:
        """Fan-in scaled uniform weights, zero biases, identity batch norm.

        Draws happen in ascending layer order so a fixed seed reproduces the
        exact same parameters.
        """
        self.allocate_parameters(dtype)
        for layer in self.layers:
            if layer.kind in CONV_KINDS:
                spec = self.specs[layer.id]
                limit = math.sqrt(6.0 / (spec.in_channels * layer.kernel * layer.kernel))
                weight = self.params[layer.id]["weight"]
                weight[...] = rng.uniform(-limit, limit, size=weight.shape)

    def parameter_items(self):
        """Yield (layer_id, name, array) for every trainable tensor, in the
        canonical order used by the optimizer and checkpoints."""
        for layer in self.layers:
            if layer.kind in CONV_KINDS:
                p = self.params[layer.id]
                yield layer.id, "weight", p["weight"]
                yield layer.id, "bias", p["bias"]
            elif layer.kind == "batchnorm":
                st = self.bn_states[layer.id]
                yield layer.id, "gamma", st.gamma
                yield layer.id, "beta", st.beta


def build_mvfcn(dropout_rate: float = 0.3, bn_momentum: float = 0.99) -> ModelGraph:
    """Construct the canonical 32-layer multi-view network.

    Inception head with 3/5/9 kernels at stride 1, subsampling convs at
    stride k-1, channel-concat skip connections, four 2x upsampling stages,
    and a batch-norm / 128-channel conv / dropout / 1x1 sigmoid head.
    """
    L = LayerSpec
    layers = [
        L(1, "input"),
        L(2, "conv", (1,), 3, 1, 16, "relu"),
        L(3, "conv", (1,), 5, 1, 16, "relu"),
        L(4, "conv", (1,), 9, 1, 16, "relu"),
        L(5, "conv", (2,), 3, 2, 16, "relu"),
        L(6, "conv", (5,), 3, 2, 32, "relu"),
        L(7, "conv", (3,), 5, 4, 32, "relu"),
        L(8, "concat", (6, 7)),
        L(9, "conv", (8,), 3, 2, 32, "relu"),
        L(10, "conv", (7,), 3, 2, 32, "relu"),
        L(11, "conv", (4,), 9, 8, 32, "relu"),
        L(12, "concat", (9, 10, 11)),
        L(13, "conv", (12,), 3, 2, 32, "relu"),
        L(14, "conv", (7,), 5, 4, 32, "relu"),
        L(15, "conv", (11,), 3, 2, 32, "relu"),
        L(16, "concat", (13, 14, 15)),
        L(17, "conv", (16,), 3, 1, 64, "relu"),
        L(18, "convT", (17,), 3, 2, 64),
        L(19, "concat", (18, 12)),
        L(20, "conv", (19,), 3, 1, 32, "relu"),
        L(21, "convT", (20,), 3, 2, 32),
        L(22, "concat", (21, 8)),
        L(23, "conv", (22,), 3, 1, 32, "relu"),
        L(24, "convT", (23,), 3, 2, 16),
        L(25, "concat", (24, 5)),
        L(26, "conv", (25,), 3, 1, 32, "relu"),
        L(27, "convT", (26,), 3, 2, 64),
        L(28, "concat", (27, 2, 3, 4)),
        L(29, "batchnorm", (28,)),
        L(30, "conv", (29,), 3, 1, 128, "relu"),
        L(31, "dropout", (30,), rate=dropout_rate),
        L(32, "conv", (31,), 1, 1, 1, "sigmoid"),
    ]
    return ModelGraph(layers, input_divisor=16, bn_momentum=bn_momentum)


def _check_input(graph: ModelGraph, c: int, h: int, w: int) -> None:
    if c != graph.in_channels:
        raise ShapeError(f"input has {c} channels, graph expects {graph.in_channels}")
    if h < 1 or w < 1:
        raise ShapeError(f"input size {h}x{w} must be positive")
    d = graph.input_divisor
    if h % d or w % d:
        raise ShapeError(f"input size {h}x{w} is not divisible by {d}")


def infer_shapes(graph: ModelGraph, input_shape) -> dict[int, tuple[int, int, int]]:
    """Static per-layer output shapes (c, h, w) for a symbolic batch, the
    channels read from ``graph.channels``.

    Fails fast on channel mismatches, concat spatial disagreements, or an
    empty input or one the upsampling stages cannot reproduce exactly.
    """
    c, h, w = input_shape
    _check_input(graph, c, h, w)
    sizes: dict[int, tuple[int, int]] = {}
    for layer in graph.layers:
        if layer.kind == "input":
            sizes[layer.id] = (h, w)
        elif layer.kind in CONV_KINDS:
            sizes[layer.id] = graph.specs[layer.id].output_hw(*sizes[layer.inputs[0]])
        elif layer.kind == "concat" and len({sizes[i] for i in layer.inputs}) != 1:
            parts = [(graph.channels[i], *sizes[i]) for i in layer.inputs]
            raise ShapeError(f"layer {layer.id}: concat inputs disagree spatially: {parts}")
        else:
            sizes[layer.id] = sizes[layer.inputs[0]]
    return {lid: (graph.channels[lid], *hw) for lid, hw in sizes.items()}


def count_params(graph: ModelGraph) -> tuple[int, list[tuple[int, int]]]:
    """Trainable parameter count: k^2*cin*cout + cout per conv, 2c per
    batch norm, zero elsewhere. Independent of the input size."""
    per_layer = []
    for layer in graph.layers:
        if layer.kind in CONV_KINDS:
            spec = graph.specs[layer.id]
            n = math.prod(spec.weight_shape()) + spec.out_channels
        elif layer.kind == "batchnorm":
            n = 2 * graph.channels[layer.id]
        else:
            n = 0
        per_layer.append((layer.id, n))
    return sum(n for _, n in per_layer), per_layer


@dataclass
class ForwardCache:
    """Per-layer activations and residuals kept for the backward pass.

    Each activation is released right after the last layer that reads it,
    so an infer-mode cache ends with the final layer's output alone. A
    train-mode cache also holds ``graph.kept``, the activations backward
    reads, plus the batch-norm and dropout residuals in ``extras``. The
    comments on the tables of :class:`ModelGraph` (``stand_in``,
    ``hand_over``, ``folded``, ``unbuilt``, ``head``) say what each changes
    in an entry. :func:`backward` consumes the cache: it pops each layer's
    entries as it walks.
    """

    mode: str
    outputs: dict[int, np.ndarray] = field(default_factory=dict)
    extras: dict[int, object] = field(default_factory=dict)
    logits: np.ndarray | None = None


def forward(graph: ModelGraph, x, mode: str = INFER, rng=None):
    """Run the graph on a batch, returning (score_map, cache).

    The score map is the final layer's post-activation output; when the
    final activation is a sigmoid the cache also records its pre-activation
    logits so a fused loss can skip the saturating exponent. Each
    activation is dropped after its last reader, except that a train-mode
    forward keeps those in ``graph.kept`` for :func:`backward`, a ReLU
    output that no conv reads as its x > 0 map. The comments on the tables
    of :class:`ModelGraph` say how the walk runs a ``stand_in`` dropout, a
    ``folded`` batch norm and, in infer mode, an ``unbuilt`` concat and a
    ``head`` conv. So MV-FCN never builds L29, nor in infer mode L28 and
    L30, and the score map and logits keep the bits of the built walk at
    every input size it accepts (see :func:`conv2d_forward`'s ``head``).
    """
    if mode not in (TRAIN, INFER):
        raise ConfigError(f"mode must be '{TRAIN}' or '{INFER}', got {mode!r}")
    if mode == TRAIN and rng is None:
        raise ConfigError("train-mode forward needs the engine rng for dropout")
    x = np.asarray(x)
    if x.ndim != 4:
        raise ShapeError(f"input must be rank-4, got {x.shape}")
    _check_input(graph, *x.shape[1:])

    cache = ForwardCache(mode=mode)
    kept = graph.kept if mode == TRAIN else ()
    unbuilt, heads = (graph.unbuilt, graph.head) if mode == INFER else ((), {})
    # the dropout and the 1x1 conv of each head, run by the conv before them
    streamed = {r for lid in heads.values() for r in (lid, graph.by_id[lid].inputs[0])}
    last = graph.layers[-1]
    for layer in graph.layers:
        if layer.id in streamed:
            continue  # they read nothing else, so they release nothing
        made = graph.by_id[heads.get(layer.id, layer.id)]  # the layer whose output this makes
        if layer.kind == "input":
            out = x
        elif layer.kind in CONV_KINDS:
            p = graph.params[layer.id]
            conv = conv2d_forward if layer.kind == "conv" else convT2d_forward
            epilogue = {} if made is layer else {
                "head": (graph.params[made.id]["weight"], graph.params[made.id]["bias"])}
            # one name for the conv output: a second would keep it alive
            # past its release below
            out = conv(cache.outputs[layer.inputs[0]], p["weight"], p["bias"],
                       graph.specs[layer.id], **epilogue)
            if made is last and made.activation == "sigmoid":
                cache.logits = out
            out = _activate(made, out)
        elif layer.kind == "concat":
            build = ChannelParts if layer.id in unbuilt else concat_channels
            out = build([cache.outputs[i] for i in layer.inputs])
        elif layer.kind == "batchnorm":
            src = cache.outputs[layer.inputs[0]]
            if layer.id in graph.folded and not isinstance(src, ChannelParts):
                src = ChannelParts([src])  # y is left unbuilt for the conv
            out, bn_cache = batchnorm_forward(src, graph.bn_states[layer.id], mode)
            cache.extras[layer.id] = bn_cache
        else:  # dropout
            src = cache.outputs[layer.inputs[0]]
            out, mask = dropout(src, layer.rate, rng, mode,
                                out=src if layer.inputs[0] in graph.stand_in else None)
            cache.extras[layer.id] = mask
        cache.outputs[made.id] = out
        for src in set(layer.inputs):
            if graph.last_reader[src] != layer.id:
                continue
            if src not in kept:
                del cache.outputs[src]
            elif graph.by_id[src].activation == "relu" and src not in graph.hand_over.values():
                cache.outputs[src] = relu_mask(cache.outputs[src])
    score = cache.outputs[last.id]
    if cache.logits is None:
        cache.logits = score
    return score, cache


def _activate(layer, z):
    """The layer's activation of a fresh conv output; ReLU in place."""
    if layer.activation == "relu":
        return relu(z, out=z)
    if layer.activation == "sigmoid":
        return sigmoid(z)
    return z


def backward(graph: ModelGraph, cache: ForwardCache, d_final):
    """Backpropagate a gradient through the whole graph.

    ``d_final`` is taken w.r.t. the final layer's pre-activation (the
    fused-loss convention), so the final activation is not chained through.
    Returns a dict layer_id -> {name: gradient} mirroring the parameter
    shapes.

    The walk consumes the cache: it pops each layer's output and extras
    when it reaches that layer, since every reader of a layer comes later
    in the forward order and so earlier in this walk. A conv in
    ``graph.hand_over`` takes its input out of the cache and leaves the
    ReLU's x > 0 in its place, and a conv whose input is in
    ``graph.folded`` gets the batch norm's xhat with (gamma, beta)
    attached, as the forward did (see those tables). Each gradient is
    dropped once it is accumulated, and fan-in sums, ReLU, dropout and
    batch-norm backward write into arrays the walk owns. A spent cache is
    empty, and a second backward on it raises RuntimeError.
    """
    if cache.mode != TRAIN:
        raise RuntimeError("backward needs the cache of a train-mode forward")
    if not cache.outputs:
        raise RuntimeError("forward cache is empty; backward consumes it")
    last = graph.layers[-1]
    # a copy: ReLU and dropout backward run in place on the gradients of the walk
    d_acc: dict[int, np.ndarray] = {last.id: np.array(d_final)}
    grads: dict[int, dict[str, np.ndarray]] = {}
    for layer in reversed(graph.layers):
        out = cache.outputs.pop(layer.id, None)
        extra = cache.extras.pop(layer.id, None)
        d = d_acc.pop(layer.id, None)
        if d is None or layer.kind == "input":
            continue
        if layer is not last:
            if layer.activation == "relu":
                d = relu_backward(d, out, out=d)
            elif layer.activation == "sigmoid":
                d = sigmoid_backward(d, out)
        del out  # released before the conv backward allocates
        if layer.kind in CONV_KINDS:
            src = layer.inputs[0]
            conv_backward = conv2d_backward if layer.kind == "conv" else convT2d_backward
            # nothing consumes the gradient w.r.t. the graph input
            d_x, d_w, d_b = conv_backward(_conv_input(cache.outputs, src,
                                                      graph.hand_over.get(layer.id)),
                                          graph.params[layer.id]["weight"],
                                          graph.specs[layer.id], d,
                                          input_grad=graph.by_id[src].kind != "input")
            grads[layer.id] = {"weight": d_w, "bias": d_b}
            if d_x is not None:
                _accumulate(d_acc, src, d_x)
            del d_x  # d_acc holds it now; a stale name would outlive its reader
        elif layer.kind == "concat":
            widths = [graph.channels[i] for i in layer.inputs]
            for src, part in zip(layer.inputs, concat_backward(d, widths)):
                _accumulate(d_acc, src, part)
        elif layer.kind == "batchnorm":
            # d_x is built in d, which the walk owns, when that keeps its dtype
            in_place = np.result_type(d, extra[0]) == d.dtype
            d_x, d_g, d_b = batchnorm_backward(d, graph.bn_states[layer.id], extra,
                                               out=d if in_place else None)
            grads[layer.id] = {"gamma": d_g, "beta": d_b}
            _accumulate(d_acc, layer.inputs[0], d_x)
        else:  # dropout
            _accumulate(d_acc, layer.inputs[0],
                        dropout_backward(d, extra, layer.rate, out=d))
    # layers the gradient never reached still owe zero-filled entries
    for lid, name, arr in graph.parameter_items():
        grads.setdefault(lid, {}).setdefault(name, np.zeros_like(arr))
    return grads


def _conv_input(outputs, src, relu_id):
    """The cached input ``src`` of a conv backward. With the ``relu_id`` it
    hands over, the map is taken out of the cache and that ReLU's x > 0
    left in it, so the caller holds no name for the float map."""
    if relu_id is None:
        return outputs[src]
    x = outputs.pop(src)
    outputs[relu_id] = relu_mask(x)
    return x


def _accumulate(d_acc, src, part):
    """Add ``part`` into src's gradient, in place when the dtypes allow.

    The walk owns every array in ``d_acc``: a conv's or batch norm's fresh
    d_x, a ReLU, dropout or batch-norm backward run in place on one, or a
    view that concat_backward split from one of these. Views split from one array
    never overlap, so a sum written into one changes no other gradient,
    even when a concat lists the same source twice.
    """
    acc = d_acc.get(src)
    if acc is None:
        d_acc[src] = part
    elif np.result_type(acc, part) == acc.dtype:
        acc += part
    else:
        d_acc[src] = acc + part


_KIND_LABEL = {
    "input": "Input Layer",
    "conv": "Conv2D ({kernel}, {stride})",
    "convT": "Conv2DT ({kernel}, {stride})",
    "concat": "Concatenation",
    "batchnorm": "BatchNorm",
    "dropout": "Dropout",
}


def summary(graph: ModelGraph, input_shape=(3, 240, 320)) -> str:
    """Plain-text layer table: id, type, output shape, inputs, parameters.

    Tab-separated rows, shapes printed channel-last with a symbolic batch,
    ending with the total trainable parameter count.
    """
    lines = ["id\ttype\toutput shape\tinputs\tparams"]
    shapes = infer_shapes(graph, input_shape)
    total, per_layer = count_params(graph)
    counts = dict(per_layer)
    for layer in graph.layers:
        label = _KIND_LABEL[layer.kind].format(kernel=layer.kernel, stride=layer.stride)
        c, h, w = shapes[layer.id]
        srcs = ", ".join(map(str, layer.inputs)) if layer.inputs else "mini-batch"
        lines.append(
            f"{layer.id}\t{label}\t(None, {h}, {w}, {c})\t{srcs}\t{counts[layer.id]}"
        )
    lines.append(f"Total trainable parameters: {total}")
    return "\n".join(lines)

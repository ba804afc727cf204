"""Spans around the program's public functions, recorded from the
benchmark's own files.

:meth:`Tracer.installed` replaces each traced function at every name a
caller looks it up by (``mvfcn.graph.conv2d_forward``,
``mvfcn.train.forward``, ``mvfcn.cli.forward``, ...) with a wrapper that
records a span: name, start, end, parent and a few counts. Spans stay in
memory and are written once, when the run ends. On leaving the block the
original functions go back, so untraced tasks run the program untouched.

Conv and convT calls are attributed to their layer id by walk order: the
forward walk visits ``graph.layers`` in list order and the backward walk
in reverse, so the i-th conv call of a walk belongs to the i-th conv or
convT layer of that order.
"""

import contextlib
import functools
import importlib
import inspect
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

CONV_KINDS = ("conv", "convT")

# span name -> (module, attribute, hook) for every binding a caller uses
TRACED = {
    "tensor.conv": [("graph", "conv2d_forward", "conv_fwd"),
                    ("graph", "convT2d_forward", "conv_fwd"),
                    ("graph", "conv2d_backward", "conv_bwd"),
                    ("graph", "convT2d_backward", "conv_bwd")],
    "tensor.batchnorm": [("graph", "batchnorm_forward", None),
                         ("graph", "batchnorm_backward", None)],
    "tensor.dropout": [("graph", "dropout", None), ("graph", "dropout_backward", None)],
    "tensor.concat": [("graph", "concat_channels", None), ("graph", "concat_backward", None)],
    "tensor.activation": [("graph", "relu", None), ("graph", "sigmoid", None),
                          ("graph", "sigmoid_backward", None)],
    "tensor.resize_nearest": [("cli", "resize_nearest", None)],
    "graph.forward": [("train", "forward", "walk_fwd"), ("cli", "forward", "walk_fwd")],
    "graph.backward": [("train", "backward", "walk_bwd")],
    "graph.build_mvfcn": [("train", "build_mvfcn", None), ("cli", "build_mvfcn", None)],
    "train.train_loop": [("train", "train_loop", None)],
    "train.augment_pair": [("train", "augment_pair", None)],
    "train.bce_loss": [("train", "bce_loss", None)],
    "train.adam_step": [("train", "adam_step", None)],
    "train.evaluate_split": [("train", "evaluate_split", None)],
    "postproc.otsu_threshold": [("postproc", "otsu_threshold", None),
                                ("train", "otsu_threshold", None),
                                ("cli", "otsu_threshold", None)],
    "postproc.threshold_global": [("postproc", "threshold_global", None),
                                  ("train", "threshold_global", None),
                                  ("cli", "threshold_global", None)],
    "postproc.remove_small_regions": [("postproc", "remove_small_regions", "cleanup"),
                                      ("cli", "remove_small_regions", "cleanup")],
    "postproc.label_components": [("postproc", "label_components", "label")],
    "metrics.confusion": [("metrics", "confusion", None), ("train", "confusion", None)],
    "metrics.evaluate_sequence": [("metrics", "evaluate_sequence", None),
                                  ("cli", "evaluate_sequence", None)],
    "metrics.format_report": [("cli", "format_report", None)],
    "io.load_image": [("cli", "load_image", "read")],
    "io.load_gt": [("cli", "load_gt", "read")],
    "io.save_image": [("io", "save_image", "write"), ("cli", "save_image", "write")],
    "io.save_scoremap": [("cli", "save_scoremap", "write")],
    "io.load_scoremap": [("io", "load_scoremap", "read"), ("cli", "load_scoremap", "read")],
    "io.load_checkpoint": [("cli", "load_checkpoint", "read")],
    "io.apply_state": [("train", "apply_state", None), ("cli", "apply_state", None)],
    "io.snapshot_state": [("train", "snapshot_state", None)],
    "io.ensure_rgb": [("cli", "ensure_rgb", None)],
    "cli.infer": [("cli", "cmd_infer", None)],
    "cli.binarize": [("cli", "cmd_binarize", None)],
    "cli.eval": [("cli", "cmd_eval", None)],
}

TASK = "bench.task"
ENTRY_POINTS = ("train.train_loop", "cli.infer", "cli.binarize", "cli.eval")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._walks: list[list[int]] = []   # conv layer ids left in each open walk

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        index = self._open(name, attrs)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _open(self, name, attrs) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, parent=parent, attrs=attrs))
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index].start = time.perf_counter()
        return index

    def _close(self, index) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    # -- wrappers ----------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced binding for the duration of the block."""
        saved = []
        try:
            for name, bindings in TRACED.items():
                for module_name, attr, hook in bindings:
                    module = importlib.import_module(f"mvfcn.{module_name}")
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(name, original, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, name, fn, hook):
        before = getattr(self, f"_before_{hook}", None)
        after = getattr(self, f"_after_{hook}", None)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {}
            if before is not None:
                before(attrs, signature.bind(*args, **kwargs).arguments)
            index = self._open(name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
                if hook in ("walk_fwd", "walk_bwd"):
                    self._walks.pop()
            if after is not None:
                after(attrs, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def _before_walk_fwd(self, attrs, args):
        graph = args["graph"]
        self._walks.append([l.id for l in graph.layers if l.kind in CONV_KINDS])
        attrs["batch"] = int(args["x"].shape[0])

    def _after_walk_fwd(self, attrs, args, result):
        attrs["cache_bytes"] = cache_bytes(result[1])

    def _before_walk_bwd(self, attrs, args):
        graph = args["graph"]
        self._walks.append([l.id for l in reversed(graph.layers) if l.kind in CONV_KINDS])

    def _next_layer(self, attrs, x, phase):
        attrs["layer"] = self._walks[-1].pop(0) if self._walks and self._walks[-1] else None
        attrs["phase"] = phase
        attrs["batch"] = int(x.shape[0])

    def _before_conv_fwd(self, attrs, args):
        self._next_layer(attrs, args["x"], "fwd")

    def _before_conv_bwd(self, attrs, args):
        self._next_layer(attrs, args["x"], "bwd")

    def _before_cleanup(self, attrs, args):
        attrs["min_area"] = args.get("min_area", 50)

    def _after_label(self, attrs, args, result):
        attrs["areas"] = result[1][1:].tolist()

    def _before_read(self, attrs, args):
        attrs["bytes_read"] = Path(args["path"]).stat().st_size

    def _after_write(self, attrs, args, result):
        attrs["bytes_written"] = Path(args["path"]).stat().st_size


def cache_bytes(cache) -> int:
    """Bytes held by a ForwardCache's distinct arrays."""
    seen = {}
    arrays = [*cache.outputs.values(), cache.logits]
    for extra in cache.extras.values():
        arrays.extend(extra if isinstance(extra, tuple) else (extra,))
    for arr in arrays:
        if arr is not None and hasattr(arr, "nbytes"):
            seen[id(arr)] = arr.nbytes
    return sum(seen.values())


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: list[list[tuple]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [s.duration - covered(s.start, s.end, c) for s, c in zip(spans, children)]


def task_trees(spans: list[Span]) -> list[list[Span]]:
    """Split the span list into one re-indexed tree per bench task root."""
    roots = [i for i, s in enumerate(spans) if s.name == TASK and s.parent < 0]
    trees = []
    for i, lo in enumerate(roots):
        hi = roots[i + 1] if i + 1 < len(roots) else len(spans)
        trees.append([Span(s.name, s.start, s.end, s.parent - lo if s.parent >= 0 else -1,
                           s.attrs) for s in spans[lo:hi]])
    return trees


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

CONV_LAYERS = (2, 3, 4, 5, 6, 7, 9, 10, 11, 13, 14, 15, 17, 18, 20, 21, 23, 24,
               26, 27, 30, 32)

PER_LAYER = (
    [(f"tensor.L{lid}.fwd_s", "s") for lid in CONV_LAYERS]
    + [(f"tensor.L{lid}.bwd_s", "s") for lid in CONV_LAYERS]
    + [("tensor.conv.fwd_gflops", "GFLOP/s"), ("tensor.conv.bwd_gflops", "GFLOP/s"),
       ("machine.sgemm_gflops", "GFLOP/s"),
       ("tensor.batchnorm.s", "s"), ("tensor.dropout.s", "s"),
       ("tensor.concat.s", "s"), ("tensor.activation.s", "s"),
       ("graph.forward.self_s", "s"), ("graph.backward.self_s", "s"),
       ("graph.cache_bytes", "B"),
       ("train.augment_pair.s", "s"), ("train.bce_loss.s", "s"),
       ("train.adam_step.s", "s"), ("train.evaluate_split.s", "s"),
       ("postproc.otsu_threshold.s", "s"), ("postproc.threshold_global.s", "s"),
       ("postproc.remove_small_regions.s", "s"), ("postproc.components", "count"),
       ("postproc.kept_ratio", "ratio"),
       ("metrics.confusion.s", "s"), ("metrics.evaluate_sequence.s", "s"),
       ("io.load_image.s", "s"), ("io.save_image.s", "s"), ("io.save_scoremap.s", "s"),
       ("io.load_scoremap.s", "s"), ("io.load_checkpoint.s", "s"),
       ("io.bytes_read", "B"), ("io.bytes_written", "B"),
       ("cli.infer.self_s", "s"), ("cli.binarize.self_s", "s"), ("cli.eval.self_s", "s"),
       ("trace.coverage", "ratio"), ("trace.overhead_s", "s")]
)


def task_metrics(tree: list[Span], kernels: dict) -> dict:
    """Per-layer values for one task tree (index 0 is the task root).

    ``kernels`` maps a conv layer id to its computed per-frame counts
    (see machine.conv_kernel_counts).
    """
    selfs = self_times(tree)
    out = {name: 0.0 for name, _ in PER_LAYER}
    flops = {"fwd": 0.0, "bwd": 0.0}
    conv_s = {"fwd": 0.0, "bwd": 0.0}
    labelled = kept = 0
    for span, self_s in zip(tree, selfs):
        a = span.attrs
        out[f"{span.name}.s"] = out.get(f"{span.name}.s", 0.0) + span.duration
        out[f"{span.name}.self_s"] = out.get(f"{span.name}.self_s", 0.0) + self_s
        if span.name == "tensor.conv" and a["layer"] is not None:
            phase = a["phase"]
            out[f"tensor.L{a['layer']}.{phase}_s"] += span.duration
            flops[phase] += kernels[a["layer"]][f"{phase}_flops"] * a["batch"]
            conv_s[phase] += span.duration
        elif span.name == "graph.forward":
            out["graph.cache_bytes"] = max(out["graph.cache_bytes"], a["cache_bytes"])
        elif span.name == "postproc.label_components":
            min_area = tree[span.parent].attrs.get("min_area", 0) if span.parent >= 0 else 0
            labelled += len(a["areas"])
            kept += sum(1 for area in a["areas"] if area >= min_area)
        out["io.bytes_read"] += a.get("bytes_read", 0)
        out["io.bytes_written"] += a.get("bytes_written", 0)
    for phase in flops:
        if conv_s[phase] > 0:
            out[f"tensor.conv.{phase}_gflops"] = flops[phase] / conv_s[phase] / 1e9
    out["postproc.components"] = float(labelled)
    out["postproc.kept_ratio"] = kept / labelled if labelled else 0.0
    out["trace.coverage"] = coverage(tree, selfs)
    return out


def coverage(tree: list[Span], selfs: list[float]) -> float:
    """Share of the task root that traced layer spans account for.

    What no layer accounts for is the self time of the task root and of the
    entry points that only orchestrate (``train_loop`` and the CLI stages).
    """
    root = tree[0]
    if root.duration <= 0:
        return 0.0
    loose = sum(s for i, (span, s) in enumerate(zip(tree, selfs))
                if i == 0 or span.name in ENTRY_POINTS)
    return 1.0 - loose / root.duration


def summarize(per_task: list[dict]) -> dict:
    """Median of each per-layer value over the traced tasks."""
    return {name: statistics.median(d[name] for d in per_task) for name, _ in PER_LAYER}

"""Span arithmetic, layer attribution and trace transparency of the
benchmark's tracer."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [p for p in (str(BENCH.parent / "src"), str(BENCH)) if p not in sys.path]

import mvfcn.graph as mgraph  # noqa: E402
import mvfcn.train as mtrain
import run
import tracing
import workloads
from mvfcn.graph import build_mvfcn
from mvfcn.rng import EngineRng
from mvfcn.tensor import TRAIN
from tracing import Span, Tracer


def test_self_time_on_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a1", 2.0, 3.0, parent=1),
        Span("b", 3.0, 6.0, parent=0),      # overlaps a: counted once
        Span("c", 8.0, 12.0, parent=0),     # runs past the root: clipped
        Span("c1", 9.0, 9.5, parent=4),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([10 - 5 - 2, 3 - 1, 1, 3, 4 - 0.5, 0.5])


def test_covered_merges_and_clips():
    assert tracing.covered(0, 10, []) == 0
    assert tracing.covered(0, 10, [(2, 4), (3, 5), (9, 11), (-1, 1)]) == pytest.approx(5)


def test_coverage_counts_entry_point_self_time_as_loose():
    spans = [
        Span(tracing.TASK, 0.0, 10.0),
        Span("train.train_loop", 0.5, 9.5, parent=0),
        Span("graph.forward", 1.0, 9.0, parent=1),
    ]
    # loose: root self 1.0 + train_loop self 1.0
    assert tracing.coverage(spans, tracing.self_times(spans)) == pytest.approx(0.8)


def test_task_trees_reindex_parents():
    spans = [Span(tracing.TASK, 0, 2), Span("x", 0.5, 1, parent=0),
             Span(tracing.TASK, 3, 5), Span("y", 3.5, 4, parent=2),
             Span("z", 3.6, 3.8, parent=3)]
    trees = tracing.task_trees(spans)
    assert [[s.name for s in t] for t in trees] == [[tracing.TASK, "x"],
                                                   [tracing.TASK, "y", "z"]]
    assert [s.parent for s in trees[1]] == [-1, 0, 1]


def test_conv_layers_attributed_by_walk_order(monkeypatch):
    """Each conv span's layer id, found by walk order over graph.layers,
    names the layer whose weights the call actually received."""
    graph = build_mvfcn()
    rng = EngineRng(3)
    graph.initialize_parameters(rng)
    seen = []

    def recorder(fn):
        def record(x, weights, *args, **kwargs):
            seen.append(weights)
            return fn(x, weights, *args, **kwargs)
        return record

    for name in ("conv2d_forward", "convT2d_forward", "conv2d_backward", "convT2d_backward"):
        monkeypatch.setattr(mgraph, name, recorder(getattr(mgraph, name)))
    tracer = Tracer()
    x = np.random.default_rng(0).uniform(size=(2, 3, 16, 16)).astype(np.float32)
    with tracer.installed():
        _, cache = mtrain.forward(graph, x, mode=TRAIN, rng=rng)
        mtrain.backward(graph, cache, np.ones_like(cache.logits))
    convs = [s for s in tracer.spans if s.name == "tensor.conv"]
    assert len(convs) == len(seen) == 2 * len(tracing.CONV_LAYERS)
    by_weights = {id(p["weight"]): lid for lid, p in graph.params.items()}
    assert [s.attrs["layer"] for s in convs] == [by_weights[id(w)] for w in seen]
    assert [s.attrs["phase"] for s in convs] == ["fwd"] * 22 + ["bwd"] * 22
    assert {s.attrs["layer"] for s in convs} == set(tracing.CONV_LAYERS)


def test_leaving_the_block_restores_every_binding():
    before = {(m, a): getattr(__import__(f"mvfcn.{m}", fromlist=[a]), a)
              for bindings in tracing.TRACED.values() for m, a, _ in bindings}
    with Tracer().installed():
        assert mgraph.conv2d_forward is not before[("graph", "conv2d_forward")]
    after = {(m, a): getattr(__import__(f"mvfcn.{m}", fromlist=[a]), a) for m, a in before}
    assert after == before


@pytest.mark.parametrize("make", [
    lambda: workloads.PostHeavy(frames=3),
    lambda: workloads.TrainEpoch(frames=10, size=(32, 32), batch=4),
    lambda: workloads.InferPipeline(frames=1),
], ids=["post_heavy", "train_epoch", "infer_pipeline"])
def test_traced_outputs_are_byte_identical(make, tmp_path):
    workload = make()
    workload.setup(tmp_path, 11)
    workload.task()
    untraced = workload.digest()
    assert workload.check() == set()
    tracer = Tracer()
    with tracer.installed(), tracer.span(tracing.TASK):
        workload.task()
    assert workload.digest() == untraced
    (tree,) = tracing.task_trees(tracer.spans)
    values = tracing.task_metrics(tree, {lid: {"fwd_flops": 1, "bwd_flops": 1}
                                         for lid in tracing.CONV_LAYERS})
    assert 0.9 < values["trace.coverage"] <= 1.0


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

#!/usr/bin/env python3
"""Write sha256 digests of the engine's outputs, to check that a change
leaves every output byte as it was.

It digests the files and stdout of scripts/run_pipeline_demo.py, the
`mvfcn summary` text, a fixed-seed 2-epoch 48x64 train_loop (the history
table and the best and last checkpoint bytes), one batch-2 240x320 train
step (the score, each gradient, the dropout mask bits and the rng
position after it), one 240x320 infer score map, the infer score maps
and logits of a batch-1 240x320 and a batch-8 48x64 input through
batch-norm statistics drawn per channel, the conv passes on their own
and the per-frame post-processing. The conv part runs both
forwards, and the backward under both of its names, for each (k, s) pair
of the MV-FCN layer table plus (1, 2) and (3, 3), at an odd and an even
size, in float32 and float64, with the input gradient on and off, all of
it twice: under the default COLUMN_BUDGET and under a budget of 1. The
post-processing part takes the Otsu result and mask of four seeded
post_heavy score maps (bench/workloads.py), and for those masks and the
FIXED_MASKS of tests/test_postproc.py the label maps, areas, cleanup masks
and PGM bytes at both connectivities. The JSON also holds the machine
block of bench/machine.py, without the commit and the src/ line count,
which differ between checkouts by design.

Run it from the root of the checkout under test:

    PYTHONPATH=src python3 scripts/digests.py > before.json
    PYTHONPATH=src python3 scripts/digests.py --against before.json

The demo, the bench and the library come from the working directory; the
test masks come from the script's own checkout. So to compare an older
checkout whose script lacks a part, run this script from the older root.

`--against FILE` prints each digest name whose value differs from FILE's.
When the machine blocks match it exits 1 if any digest differs. When they
do not, it prints "machine differs" and exits 0: BLAS results depend on
the machine, so digests taken on two machines need not agree.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from mvfcn import (ConvSpec, EngineRng, TrainConfig, TransposeConvSpec, backward, bce_loss,
                   build_mvfcn, conv2d_backward, conv2d_forward, convT2d_backward,
                   convT2d_forward, forward, otsu_threshold, remove_small_regions, tensor,
                   threshold_global, train_loop)
from mvfcn.cli import main as cli
from mvfcn.graph import CONV_KINDS
from mvfcn.io import save_checkpoint, save_image
from mvfcn.postproc import label_components
from mvfcn.synth import make_rectangles_dataset

SEED = 5
# machine_info fields that differ between two checkouts on one machine
PER_CHECKOUT = ("commit", "src_lines")


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    elif isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(data).hexdigest()


def machine(root: Path) -> dict:
    sys.path.insert(0, str(root))
    from bench.machine import machine_info
    info = machine_info(root)
    return {k: v for k, v in info.items() if k not in PER_CHECKOUT}


def pipeline_demo(root: Path) -> dict:
    """The demo run in a fresh directory under the fixed name ``demo``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "run_pipeline_demo.py"), "--workdir", "demo"],
            cwd=tmp, env=env, capture_output=True, text=True, check=True)
        work = Path(tmp) / "demo"
        out = {"demo/stdout": sha256(proc.stdout)}
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            out[f"demo/{path.relative_to(work).as_posix()}"] = sha256(path.read_bytes())
    return out


def summary_text() -> dict:
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        cli(["summary"])
    return {"summary": sha256(text.getvalue())}


def short_training() -> dict:
    samples = make_rectangles_dataset(12, (48, 64), seed=SEED)
    cfg = TrainConfig(input_height=48, input_width=64, batch_size=4, max_epochs=2, seed=SEED)
    result = train_loop(samples, cfg)
    out = {"train_loop/history": sha256(result.history.as_table())}
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("best", "last"):
            path = Path(tmp) / f"{name}.ckpt"
            save_checkpoint(path, getattr(result, name))
            out[f"train_loop/{name}"] = sha256(path.read_bytes())
    return out


def paper_size_step() -> dict:
    """One batch-2 240x320 train step, then an infer pass of a third frame
    through the graph whose batch-norm statistics the step updated."""
    samples = make_rectangles_dataset(3, (240, 320), seed=SEED)
    graph = build_mvfcn()
    graph.initialize_parameters(EngineRng(SEED))
    rng = EngineRng(SEED + 1)
    x = np.stack([s.image for s in samples[:2]])
    y = np.stack([s.gt for s in samples[:2]])[:, None]
    score, cache = forward(graph, x, mode="train", rng=rng)
    out = {"step/score": sha256(score)}
    (dropout_id,) = (layer.id for layer in graph.layers if layer.kind == "dropout")
    out["step/mask"] = sha256(np.packbits(cache.extras[dropout_id]))
    _, d_logits = bce_loss(cache.logits, y)
    grads = backward(graph, cache, d_logits)
    for lid in sorted(grads):
        for name in sorted(grads[lid]):
            out[f"step/grad/L{lid}.{name}"] = sha256(grads[lid][name])
    out["step/rng"] = sha256(rng.state_words())
    infer_score, _ = forward(graph, samples[2].image[None], mode="infer")
    out["infer/score"] = sha256(infer_score)
    return out


def seeded_infer() -> dict:
    """Infer forwards through batch-norm statistics that differ per
    channel, so a channel the head's batch norm slipped would show: after
    one train step they are still near identity."""
    out = {}
    for (h, w), n in (((240, 320), 1), ((48, 64), 8)):
        graph = build_mvfcn()
        graph.initialize_parameters(EngineRng(SEED))
        r = np.random.default_rng(SEED)
        for state in graph.bn_states.values():
            c = state.channels
            state.gamma[:], state.beta[:] = r.uniform(0.5, 1.5, c), r.normal(size=c)
            state.running_mean[:] = r.normal(size=c)
            state.running_var[:] = r.uniform(0.5, 2.0, c)
            state.initialized = True
        x = r.uniform(size=(n, 3, h, w)).astype(np.float32)
        score, cache = forward(graph, x, mode="infer")
        key = f"infer/{h}x{w}/batch{n}"
        out[f"{key}/score"], out[f"{key}/logits"] = sha256(score), sha256(cache.logits)
    return out


def conv_outputs() -> dict:
    """Both conv forwards and the backward, called by the name the graph
    calls it by for each kind of layer, on random maps of 3 channels to 2.
    The big side is 23x29 or 24x30, so the padding, and with it how far the
    transposed conv's grid overhangs the output it crops, differ between the
    two sizes. Each map fits in one row block under the default
    COLUMN_BUDGET, so every pass runs again under a budget of 1, one grid
    row per block, with the same inputs (keys ending /row-blocks)."""
    out, default = {}, tensor.COLUMN_BUDGET
    try:
        for budget, suffix in ((default, ""), (1, "/row-blocks")):
            tensor.COLUMN_BUDGET = budget
            out.update(_conv_passes(suffix))
    finally:
        tensor.COLUMN_BUDGET = default
    return out


def _conv_passes(suffix: str) -> dict:
    pairs = {(layer.kernel, layer.stride) for layer in build_mvfcn().layers
             if layer.kind in CONV_KINDS} | {(1, 2), (3, 3)}
    r = np.random.default_rng(SEED)
    out = {}
    for (k, s), (h, w), dtype in itertools.product(sorted(pairs), ((23, 29), (24, 30)),
                                                   (np.float32, np.float64)):
        key = f"conv/k{k}s{s}/{h}x{w}/{np.dtype(dtype).name}"
        big_hw, small_hw = (h, w), ConvSpec(k, s, 1, 1).output_hw(h, w)
        passes = (("conv", ConvSpec(k, s, 3, 2), conv2d_forward, conv2d_backward, big_hw, {}),
                  ("convT", TransposeConvSpec(k, s, 3, 2), convT2d_forward, convT2d_backward,
                   small_hw, {"out_hw": big_hw}))
        for name, spec, fwd, bwd, in_hw, kwargs in passes:
            x, weights, bias = (r.normal(size=shape).astype(dtype)
                                for shape in ((2, 3, *in_hw), spec.weight_shape(), (2,)))
            y = fwd(x, weights, bias, spec, **kwargs)
            out[f"{key}/{name}/forward{suffix}"] = sha256(y)
            d_out = r.normal(size=y.shape).astype(dtype)
            for input_grad in (True, False):
                grads = bwd(x, weights, spec, d_out, input_grad=input_grad)
                for part, grad in zip(("d_x", "d_w", "d_b"), grads):
                    out[f"{key}/{name}/backward/{part}/input_grad={input_grad}{suffix}"] = sha256(
                        repr(grad) if grad is None else grad)
    return out


def postproc_outputs() -> dict:
    """Otsu and binarize on four post_heavy score maps, then labeling,
    cleanup at the bench's minimum area and mask writing on those masks and
    on the adversarial masks of the postproc tests."""
    from bench.workloads import MIN_AREA, make_score_sequence
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
    from test_postproc import FIXED_MASKS
    out, masks = {}, {}
    for i, score in enumerate(make_score_sequence(4, SEED)[0]):
        otsu = otsu_threshold(score)
        out[f"postproc/speckle{i}/otsu"] = sha256(repr(otsu))
        masks[f"speckle{i}"] = threshold_global(score, otsu.tau)
    masks.update(FIXED_MASKS)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mask.pgm"
        for name, mask in masks.items():
            for connectivity in (4, 8):
                key = f"postproc/{name}/c{connectivity}"
                labels, areas = label_components(mask, connectivity)
                clean = remove_small_regions(mask, MIN_AREA, connectivity)
                save_image(clean, path)
                out.update({f"{key}/labels": sha256(labels), f"{key}/areas": sha256(areas),
                            f"{key}/clean": sha256(clean), f"{key}/pgm": sha256(path.read_bytes())})
    return out


def collect(root: Path) -> dict:
    report = {"machine": machine(root), "digests": {}}
    for part in (pipeline_demo(root), summary_text(), short_training(), paper_size_step(),
                 seeded_infer(), conv_outputs(), postproc_outputs()):
        report["digests"].update(part)
    return report


def compare(ours: dict, theirs: dict) -> tuple[list[str], int]:
    """The lines `--against` prints and its exit code: each digest name
    whose value differs or that one side lacks, then "machine differs" when
    the machine blocks do; 1 only when the machines match and a digest
    differs."""
    a, b = ours["digests"], theirs["digests"]
    lines = sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))
    if ours["machine"] != theirs["machine"]:
        return lines + ["machine differs"], 0
    return lines, 1 if lines else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--against", metavar="FILE", help="a JSON this script wrote to compare with")
    args = parser.parse_args()
    report = collect(Path.cwd())
    if not args.against:
        print(json.dumps(report, indent=1, sort_keys=True))
        return 0
    lines, code = compare(report, json.loads(Path(args.against).read_text()))
    print("\n".join(lines) if lines else f"all {len(report['digests'])} digests equal")
    return code


if __name__ == "__main__":
    sys.exit(main())

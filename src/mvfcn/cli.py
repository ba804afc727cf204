"""Batch command-line interface.

Subcommands: summary, train, infer, binarize, eval. A command exits 0 on
success and otherwise with the raised error's ``exit_code`` (see
``errors``), or 1 when it runs out of memory; argparse usage errors exit 2.
"""

import argparse
import re
import sys
from pathlib import Path

from .errors import CheckpointError, ConfigError, DataError, EngineError
from .graph import build_mvfcn, forward, summary
from .io import (
    GtMapping,
    _index_files,
    apply_state,
    discover_dataset,
    ensure_rgb,
    load_checkpoint,
    load_gt,
    load_image,
    load_scoremap,
    make_parent,
    parse_config,
    save_checkpoint,
    save_image,
    save_scoremap,
    write_file,
)
from .metrics import evaluate_sequence, format_report
from .postproc import otsu_threshold, remove_small_regions, threshold_global
from .tensor import INFER, resize_nearest
from .train import Sample, train_loop

NETWORK_INPUT = (240, 320)


def _parse_size(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)x(\d+)", text.strip())
    if not m:
        raise ConfigError(f"input size must look like 240x320, got {text!r}")
    return int(m.group(1)), int(m.group(2))


def cmd_summary(args) -> int:
    h, w = _parse_size(args.input_size)
    print(summary(build_mvfcn(), (3, h, w)))
    return 0


def _load_input(path, size):
    """One frame as a float32 (1, 3, *size) network input in [0, 1]."""
    return resize_nearest(ensure_rgb(load_image(path)), *size)


def _load_truth(path, size, mapping: GtMapping, roi_global):
    """A ground-truth frame's (mask, roi) resized to ``size``; the sequence
    roi, unless None, is resized to the same size and applied."""
    gt, roi = load_gt(path, mapping)
    gt, roi = resize_nearest(gt, *size), resize_nearest(roi, *size)
    if roi_global is not None:
        roi = roi * resize_nearest(roi_global, *size)
    return gt, roi


def load_samples(manifest, size, mapping: GtMapping):
    """Load every annotated frame, resized to the network input size."""
    roi_global = None
    if manifest.roi_path is not None:
        roi_global = load_image(manifest.roi_path)[0, 0] >= 0.5
    samples = []
    for frame in manifest.frames:
        image = _load_input(frame.image_path, size)[0]
        gt, roi = _load_truth(frame.gt_path, size, mapping, roi_global)
        samples.append(Sample(image=image, gt=gt, roi=roi))
    return samples


def cmd_train(args) -> int:
    cfg = parse_config(args.config)
    out = make_parent(args.out, CheckpointError)  # fail before any training
    manifest = discover_dataset(args.data)
    samples = load_samples(manifest, (cfg.input_height, cfg.input_width), cfg.gt)
    init = None
    if args.init is not None:
        # structural validation happens once train_loop owns the live graph
        init = load_checkpoint(args.init)
    result = train_loop(samples, cfg, init=init)
    save_checkpoint(out, result.best)
    history_path = out.with_name(out.name + ".history.txt")
    write_file(history_path, (result.history.as_table() + "\n").encode("utf-8"))
    final = result.history.rows[-1]
    print(f"trained {manifest.name}: {len(result.history)} epochs")
    print(f"final train FoM {final.train_fom:.4f}, val FoM {final.val_fom:.4f}")
    print(f"checkpoint: {out}")
    print(f"history: {history_path}")
    return 0


def cmd_infer(args) -> int:
    stems = [Path(item).stem for item in args.inputs]
    shared = sorted({stem for stem in stems if stems.count(stem) > 1})
    if shared:  # each input's outputs are named by its stem alone
        raise DataError(f"two inputs share the stem {shared[0]!r}; their outputs would collide")
    out_dir = Path(args.out)
    suffixes = (".pgm", ".f32") if args.save_scores else (".pgm",)
    for stem in stems:  # fail before the load and the first forward
        for suffix in suffixes:
            make_parent(out_dir / f"{stem}{suffix}")
    graph = build_mvfcn()
    graph.allocate_parameters()
    apply_state(graph, load_checkpoint(args.ckpt))
    for item, stem in zip(args.inputs, stems):
        score, _ = forward(graph, _load_input(item, NETWORK_INPUT), mode=INFER)
        score2d = score[0, 0]
        save_image(score2d, out_dir / f"{stem}.pgm")
        if args.save_scores:
            save_scoremap(score2d, out_dir / f"{stem}.f32")
        print(f"{item} -> {out_dir / (stem + '.pgm')}")
    return 0


def _parse_method(text: str):
    """The tau of ``global:TAU``, or None for ``otsu``."""
    if text == "otsu":
        return None
    m = re.fullmatch(r"global:([0-9.eE+-]+)", text)
    if m:
        try:
            tau = float(m.group(1))
        except ValueError:
            tau = -1.0
        if 0.0 <= tau <= 1.0:
            return tau
    raise ConfigError(f"method must be 'otsu' or 'global:TAU' with TAU in [0,1], got {text!r}")


def cmd_binarize(args) -> int:
    tau = _parse_method(args.method)
    if args.min_area < 0:
        raise ConfigError("--min-area must be non-negative")
    scores_dir = Path(args.scores)
    # the exact float sidecar of a frame wins over its 8-bit image
    files = {**_index_files(scores_dir, (".pgm",)), **_index_files(scores_dir, (".f32",))}
    if not files:
        raise DataError(f"{scores_dir} holds no score maps")
    out_dir = Path(args.out)
    outs = {idx: make_parent(out_dir / f"{path.stem}.pgm")  # fail before the first frame
            for idx, path in files.items()}
    for idx, path in sorted(files.items()):
        score = load_scoremap(path) if path.suffix.lower() == ".f32" else load_image(path)[0, 0]
        frame_tau = otsu_threshold(score).tau if tau is None else tau
        mask = threshold_global(score, frame_tau)
        mask = remove_small_regions(mask, args.min_area, args.connectivity)
        save_image(mask, outs[idx])
        if tau is None:
            print(f"frame {idx}: tau={frame_tau:.6f}")
    return 0


def cmd_eval(args) -> int:
    pred_dir = Path(args.pred)
    gt_dir = Path(args.gt)
    preds = _index_files(pred_dir, (".pgm",))
    gts = _index_files(gt_dir, (".pgm",))
    lone = sorted(preds.keys() ^ gts.keys())
    if lone:
        raise DataError(f"prediction/ground-truth misalignment: frame {lone[0]} is in "
                        f"only one of {pred_dir} and {gt_dir}")
    report_path = make_parent(args.report)  # fail before the first frame
    roi_global = None
    if args.roi is not None:
        roi_global = load_image(args.roi)[0, 0] >= 0.5
    pred_masks = []
    gt_masks = []
    rois = []
    for idx in sorted(preds):
        pred = load_image(preds[idx])[0, 0] >= 0.5
        gt, roi = _load_truth(gts[idx], pred.shape, GtMapping(), roi_global)
        pred_masks.append(pred)
        gt_masks.append(gt)
        rois.append(roi)
    report = evaluate_sequence(pred_masks, gt_masks, rois)
    for i, value in enumerate(report.frame_foms, start=1):
        print(f"frame {i}: fom={value:.4f}")
    print(f"aggregate: precision={report.precision:.4f} recall={report.recall:.4f} "
          f"fom={report.fom:.4f} (mean-of-frames {report.mean_fom:.4f})")
    write_file(report_path, (format_report(report) + "\n").encode("utf-8"))
    print(f"report: {report_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvfcn",
        description="Foreground segmentation engine: model summary, training, "
                    "inference, binarization, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summary", help="print the layer table and parameter count")
    p.add_argument("--input-size", default="240x320", metavar="HxW")
    p.set_defaults(func=cmd_summary)

    p = sub.add_parser("train", help="train on one sequence")
    p.add_argument("--data", required=True, metavar="ROOT")
    p.add_argument("--config", required=True, metavar="FILE")
    p.add_argument("--init", metavar="CKPT", help="donor checkpoint for transfer learning")
    p.add_argument("--out", required=True, metavar="CKPT")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="emit score maps for input images")
    p.add_argument("--ckpt", required=True, metavar="CKPT")
    p.add_argument("--in", dest="inputs", required=True, nargs="+", metavar="IMAGE")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--save-scores", action="store_true",
                   help="also write exact float32 sidecars")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("binarize", help="threshold score maps into masks")
    p.add_argument("--scores", required=True, metavar="DIR")
    p.add_argument("--method", required=True, metavar="global:TAU|otsu")
    p.add_argument("--min-area", type=int, default=50)
    p.add_argument("--connectivity", type=int, default=8, choices=(4, 8))
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=cmd_binarize)

    p = sub.add_parser("eval", help="score predicted masks against ground truth")
    p.add_argument("--pred", required=True, metavar="DIR")
    p.add_argument("--gt", required=True, metavar="DIR")
    p.add_argument("--roi", metavar="FILE")
    p.add_argument("--report", default="eval_report.txt", metavar="FILE")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

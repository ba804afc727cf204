"""Foreground-detection evaluation: confusion counts, precision/recall, and
the figure of merit (harmonic mean of precision and recall), per frame and
pooled over a sequence."""

import numpy as np
from dataclasses import dataclass

from .errors import DataError, ShapeError


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __add__(self, other):
        return ConfusionCounts(self.tp + other.tp, self.fp + other.fp,
                               self.fn + other.fn, self.tn + other.tn)


def confusion(pred, gt, roi=None) -> ConfusionCounts:
    """Tally TP/FP/FN/TN over the pixels where roi is 1 (all pixels when
    roi is omitted)."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ShapeError(f"prediction {pred.shape} and ground truth {gt.shape} differ")
    p = pred != 0
    g = gt != 0
    if roi is not None:
        roi = np.asarray(roi)
        if roi.shape != gt.shape:
            raise ShapeError(f"roi {roi.shape} does not match frames {gt.shape}")
        valid = roi != 0
        p = p[valid]
        g = g[valid]
    return ConfusionCounts(
        tp=int(np.count_nonzero(p & g)),
        fp=int(np.count_nonzero(p & ~g)),
        fn=int(np.count_nonzero(~p & g)),
        tn=int(np.count_nonzero(~p & ~g)),
    )


def precision(counts: ConfusionCounts) -> float:
    if counts.tp + counts.fp == 0:
        return 1.0 if counts.fn == 0 else 0.0
    return counts.tp / (counts.tp + counts.fp)


def recall(counts: ConfusionCounts) -> float:
    if counts.tp + counts.fn == 0:
        return 1.0 if counts.fp == 0 else 0.0
    return counts.tp / (counts.tp + counts.fn)


def fom(counts: ConfusionCounts) -> float:
    """2*TP / (2*TP + FP + FN); two empty masks agree perfectly (1.0)."""
    denom = 2 * counts.tp + counts.fp + counts.fn
    if denom == 0:
        return 1.0
    return 2 * counts.tp / denom


@dataclass(frozen=True)
class FoMReport:
    """Pooled precision/recall/FoM plus the per-frame FoM trace."""

    precision: float
    recall: float
    fom: float
    frame_foms: tuple[float, ...]
    mean_fom: float
    counts: ConfusionCounts


def evaluate_sequence(preds, gts, rois=None) -> FoMReport:
    """Score an aligned sequence of binary masks.

    The headline numbers pool the confusion counts across frames; the
    mean of per-frame FoM values is reported alongside.
    """
    preds = list(preds)
    gts = list(gts)
    if len(preds) != len(gts):
        raise DataError(
            f"prediction/ground-truth length mismatch: {len(preds)} vs {len(gts)}"
        )
    if not preds:
        raise DataError("cannot evaluate an empty sequence")
    if rois is None:
        rois = [None] * len(preds)
    else:
        rois = list(rois)
        if len(rois) != len(preds):
            raise DataError("roi list length does not match the frames")
    pooled = ConfusionCounts()
    frame_foms = []
    for pred, gt, roi in zip(preds, gts, rois):
        counts = confusion(pred, gt, roi)
        frame_foms.append(fom(counts))
        pooled = pooled + counts
    return FoMReport(
        precision=precision(pooled),
        recall=recall(pooled),
        fom=fom(pooled),
        frame_foms=tuple(frame_foms),
        mean_fom=float(np.mean(frame_foms)),
        counts=pooled,
    )


def format_report(report: FoMReport) -> str:
    """Machine-readable key=value rendering of a sequence report."""
    lines = [
        f"frames={len(report.frame_foms)}",
        f"tp={report.counts.tp}",
        f"fp={report.counts.fp}",
        f"fn={report.counts.fn}",
        f"tn={report.counts.tn}",
        f"precision={report.precision:.6f}",
        f"recall={report.recall:.6f}",
        f"fom={report.fom:.6f}",
        f"fom_mean={report.mean_fom:.6f}",
    ]
    for i, value in enumerate(report.frame_foms, start=1):
        lines.append(f"frame_{i}_fom={value:.6f}")
    return "\n".join(lines)

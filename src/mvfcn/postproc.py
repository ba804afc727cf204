"""Score-map binarization: global or Otsu thresholding plus small-region
cleanup via connected-component labeling, done on horizontal foreground
runs rather than pixels."""

import numpy as np
from dataclasses import dataclass

from .errors import ConfigError, DataError, ShapeError

HISTOGRAM_BINS = 256


def threshold_global(score, tau: float):
    """Binary mask, 1 where score >= tau."""
    if not 0.0 <= tau <= 1.0:
        raise ConfigError(f"threshold must be in [0, 1], got {tau}")
    score = np.asarray(score)
    return (score >= tau).astype(np.uint8)


@dataclass(frozen=True)
class OtsuResult:
    tau: float                 # chosen threshold, a bin edge in [0, 1]
    sigma_w2: float            # weighted within-class variance at tau


def otsu_threshold(score) -> OtsuResult:
    """Pick the 256-bin threshold minimizing the weighted within-class
    variance; ties break toward the lower threshold.

    Scores are quantized into 256 levels; candidate thresholds are the 255
    interior bin edges t/256, splitting bins < t from bins >= t. A map whose
    histogram occupies a single bin has no two classes to separate.
    """
    score = np.asarray(score)
    if score.dtype != np.float32:  # float32 * 256 is exact: the same bins
        score = score.astype(np.float64)
    if score.size == 0:
        raise DataError("empty score map")
    if not (score.min() >= 0.0 and score.max() <= 1.0):  # NaN fails both
        raise DataError("score values must lie in [0, 1]")
    bins = np.minimum((score * HISTOGRAM_BINS).astype(np.int64), HISTOGRAM_BINS - 1)
    hist = np.bincount(bins.ravel(), minlength=HISTOGRAM_BINS)
    if np.count_nonzero(hist) < 2:
        raise DataError("degenerate histogram: score map occupies a single level")

    p = hist / hist.sum()
    centers = (np.arange(HISTOGRAM_BINS) + 0.5) / HISTOGRAM_BINS
    # prefix moments; class 0 holds bins < t for candidate t in 1..255
    c0 = np.cumsum(p)[:-1]
    m0 = np.cumsum(p * centers)[:-1]
    q0 = np.cumsum(p * centers ** 2)[:-1]
    c1 = 1.0 - c0
    m1 = m0[-1] + p[-1] * centers[-1] - m0
    q1 = q0[-1] + p[-1] * centers[-1] ** 2 - q0

    with np.errstate(divide="ignore", invalid="ignore"):
        var0 = np.where(c0 > 0, q0 / np.maximum(c0, 1e-300) - (m0 / np.maximum(c0, 1e-300)) ** 2, 0.0)
        var1 = np.where(c1 > 0, q1 / np.maximum(c1, 1e-300) - (m1 / np.maximum(c1, 1e-300)) ** 2, 0.0)
    sigma_w2 = np.where(c0 > 0, c0 * var0, 0.0) + np.where(c1 > 0, c1 * var1, 0.0)
    best = int(np.argmin(sigma_w2))  # first minimum = lowest threshold
    return OtsuResult(
        tau=(best + 1) / HISTOGRAM_BINS,
        sigma_w2=float(max(sigma_w2[best], 0.0)),
    )


def _foreground(mask, connectivity: int):
    """The bool foreground of a 2-d mask, after checking the connectivity."""
    if connectivity not in (4, 8):
        raise ConfigError(f"connectivity must be 4 or 8, got {connectivity}")
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ShapeError(f"mask must be 2-d, got shape {mask.shape}")
    return mask != 0


def label_components(mask, connectivity: int = 8):
    """Label foreground components by horizontal runs: runs on consecutive
    rows that touch (overlap, or meet diagonally under 8-connectivity) are
    joined, then each run labels its pixels. Components are numbered 1, 2,
    ... in the raster order of their first pixel.

    The join is a whole-array union-find (Shiloach & Vishkin, 1982): each
    round hooks the larger root of every touching pair onto the smaller one,
    then pointer jumping points every run at its root. A root is thus always
    its component's first run, and at most O(log runs) rounds are needed.

    Returns (labels, areas) where labels is 0 for background and areas[k] is
    the pixel count of component k (areas[0] is the background count).
    """
    fg = _foreground(mask, connectivity)
    h, w = fg.shape
    padded = np.pad(fg, ((0, 0), (1, 1)))
    # changes alternate run start, run end [start, end) in raster order
    rows, cols = np.divmod(np.flatnonzero(padded[:, 1:] != padded[:, :-1]), w + 1)
    rows, starts, ends = rows[::2], cols[::2], cols[1::2]
    # raster keys: rows w + 2 apart, so a reach of one column stays in its row
    key = rows * (w + 2)
    above = key - (w + 2)
    reach = int(connectivity == 8)
    # runs first[b]:stop[b] of the row above touch run b; list each pair
    first = np.searchsorted(key + ends, above + starts - reach, side="right")
    stop = np.searchsorted(key + starts, above + ends + reach, side="left")
    count = stop - first
    lower = np.repeat(np.arange(len(starts)), count)
    upper = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
    root = np.arange(len(starts))
    while (apart := root[upper] != root[lower]).any():
        ra, rb = root[upper[apart]], root[lower[apart]]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(jumped := root[root], root):
            root = jumped
    run_label = np.cumsum(root == np.arange(len(root)))[root]
    labels = np.zeros((h, w), dtype=np.int64)
    labels[fg] = np.repeat(run_label, ends - starts)
    areas = np.bincount(run_label, ends - starts, minlength=1).astype(np.int64)
    areas[0] = h * w - areas.sum()
    return labels, areas


def remove_small_regions(mask, min_area: int = 50, connectivity: int = 8):
    """Erase connected foreground components smaller than ``min_area`` pixels;
    a component of exactly ``min_area`` pixels survives."""
    if min_area < 0:
        raise ConfigError(f"min_area must be non-negative, got {min_area}")
    out = _foreground(mask, connectivity).astype(np.uint8)
    if min_area == 0 or not out.any():
        return out
    labels, areas = label_components(out, connectivity)
    small = areas < min_area
    small[0] = False
    out[small[labels]] = 0
    return out

"""Training: binary cross-entropy loss, Adam, step-decay learning rate,
paired geometric augmentation, the ordered train/test split, and the epoch
loop, which can start from a donor checkpoint (transfer) or resume a run.

The loss consumes pre-sigmoid logits fused with the sigmoid for numerical
stability; its value equals the plain cross-entropy of the post-sigmoid
score map.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .graph import ModelGraph, backward, build_mvfcn, forward
from .io import CheckpointPayload, TrainConfig, apply_state, snapshot_state
from .metrics import ConfusionCounts, confusion, fom
from .postproc import otsu_threshold, threshold_global
from .rng import EngineRng
from .tensor import INFER, TRAIN, sigmoid


@dataclass
class AdamState:
    """First/second moment accumulators keyed by (layer_id, name)."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(graph: ModelGraph, grads, state: AdamState) -> None:
    """One bias-corrected Adam update, applied to the parameters in place."""
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for lid, name, param in graph.parameter_items():
        g = grads[lid][name]
        if g.shape != param.shape:
            raise ShapeError(
                f"gradient for layer {lid} {name} shaped {g.shape}, "
                f"parameter is {param.shape}"
            )
        key = (lid, name)
        for moments in (state.m, state.v):
            if key not in moments:  # not setdefault: it would zero-fill on every step
                moments[key] = np.zeros_like(param)
        m, v = state.m[key], state.v[key]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        param -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Step-decayed learning rate for a given epoch index."""
    if epoch < 0:
        raise ConfigError("epoch must be non-negative")
    if cfg.lr_decay_every == 0:
        return cfg.base_lr
    return cfg.base_lr * cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)


@dataclass(frozen=True)
class SplitSpec:
    """Ordered exclusive split: the first k frames train, the rest test."""

    n: int
    k: int

    @property
    def train_indices(self) -> range:
        return range(self.k)

    @property
    def test_indices(self) -> range:
        return range(self.k, self.n)


def ordered_split(n: int, ratio: float = 0.7) -> SplitSpec:
    """Temporal split at k = floor(n * ratio); never shuffles across the
    boundary, so no test frame is adjacent to a training frame's future."""
    if n < 2:
        raise DataError(f"need at least 2 annotated frames to split, got {n}")
    k = math.floor(n * ratio)
    k = min(max(k, 1), n - 1)
    return SplitSpec(n=n, k=k)


def bce_loss(logits, target):
    """Mean binary cross-entropy of sigmoid(logits) against targets in [0, 1].

    Evaluated in the fused log-sum-exp form, so saturated correct logits
    give a loss that actually reaches ~0 instead of a clamp floor. Returns
    (loss, d_logits) with d = (sigmoid(logits) - target) / count.
    """
    logits = np.asarray(logits)
    target = np.asarray(target)
    if logits.shape != target.shape:
        raise ShapeError(f"logits {logits.shape} and target {target.shape} differ")
    if target.size and not (target.min() >= 0.0 and target.max() <= 1.0):  # NaN fails both
        raise DataError("target values must lie in [0, 1]")
    per_element = np.maximum(logits, 0) - logits * target + np.log1p(np.exp(-np.abs(logits)))
    loss = float(per_element.mean(dtype=np.float64))
    d_logits = (sigmoid(logits) - target) / logits.size
    return loss, d_logits.astype(logits.dtype, copy=False)


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------

def apply_affine_pair(image, gt, angle_deg: float, shift_y: float,
                      shift_x: float, zoom: float):
    """Rotate/zoom about the center then translate, applied to both arrays.

    The image is sampled bilinearly, the mask nearest-neighbor and
    re-binarized; everything mapped from outside the frame becomes zero.
    The identity parameters (0, 0, 0, 1) reproduce both inputs bit-exactly.
    """
    image = np.asarray(image)
    gt = np.asarray(gt)
    if image.shape[-2:] != gt.shape[-2:]:
        raise ShapeError(f"image {image.shape} and mask {gt.shape} spatial dims differ")
    h, w = gt.shape[-2:]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    theta = math.radians(angle_deg)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    rows, cols = np.meshgrid(np.arange(h, dtype=np.float64),
                             np.arange(w, dtype=np.float64), indexing="ij")
    xr = cols - cx - shift_x
    yr = rows - cy - shift_y
    xi = (cos_t * xr + sin_t * yr) / zoom + cx
    yi = (-sin_t * xr + cos_t * yr) / zoom + cy

    out_img = _sample_bilinear(image, yi, xi)
    out_gt = _sample_nearest(gt, yi, xi)
    out_gt = (out_gt >= 0.5).astype(gt.dtype)
    return out_img, out_gt


def _gather(image, y, x):
    """``image`` at integer pixel coordinates, zero outside the frame."""
    h, w = image.shape[-2:]
    inside = (y >= 0) & (y < h) & (x >= 0) & (x < w)
    return image[..., np.clip(y, 0, h - 1), np.clip(x, 0, w - 1)] * inside


def _sample_bilinear(image, yi, xi):
    y0 = np.floor(yi).astype(np.int64)
    x0 = np.floor(xi).astype(np.int64)
    fy = yi - y0
    fx = xi - x0
    out = np.zeros(image.shape[:-2] + yi.shape, dtype=image.dtype)
    for dy in (0, 1):
        for dx in (0, 1):
            weight = (fy if dy else 1.0 - fy) * (fx if dx else 1.0 - fx)
            out += (_gather(image, y0 + dy, x0 + dx) * weight).astype(out.dtype, copy=False)
    return out


def _sample_nearest(image, yi, xi):
    return _gather(image, np.rint(yi).astype(np.int64), np.rint(xi).astype(np.int64))


def augment_pair(image, gt, cfg: TrainConfig, rng: EngineRng):
    """Draw one random affine transform and apply it to the pair.

    Draw order: rotation, vertical shift, horizontal shift, zoom.
    Disabled augmentation is an identity and consumes no rng draws.
    """
    if not cfg.augment:
        return image, gt
    h, w = gt.shape[-2:]
    angle = float(rng.uniform(-cfg.max_rotation_deg, cfg.max_rotation_deg))
    shift_y = float(rng.uniform(-cfg.shift_fraction, cfg.shift_fraction)) * h
    shift_x = float(rng.uniform(-cfg.shift_fraction, cfg.shift_fraction)) * w
    zoom = float(rng.uniform(1.0 - cfg.zoom_fraction, 1.0 + cfg.zoom_fraction))
    return apply_affine_pair(image, gt, angle, shift_y, shift_x, zoom)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    """One annotated frame: image (c, h, w) in [0, 1], mask (h, w) in {0, 1},
    optional roi (h, w) in {0, 1}."""

    image: np.ndarray
    gt: np.ndarray
    roi: np.ndarray | None = None


@dataclass(frozen=True)
class HistoryRow:
    epoch: int
    lr: float
    train_loss: float
    val_loss: float
    train_fom: float
    val_fom: float


@dataclass
class History:
    rows: list[HistoryRow] = field(default_factory=list)

    def __len__(self):
        return len(self.rows)

    def as_table(self) -> str:
        lines = ["epoch\tlr\ttrain_loss\tval_loss\ttrain_fom\tval_fom"]
        for r in self.rows:
            lines.append(
                f"{r.epoch}\t{r.lr:.8g}\t{r.train_loss:.6f}\t{r.val_loss:.6f}"
                f"\t{r.train_fom:.4f}\t{r.val_fom:.4f}"
            )
        return "\n".join(lines)


@dataclass
class TrainResult:
    best: CheckpointPayload    # parameters of the best-validation-FoM epoch
    last: CheckpointPayload    # full state after the final epoch (resumable)
    history: History
    graph: ModelGraph


def _batched(indices, size):
    for i in range(0, len(indices), size):
        yield indices[i:i + size]


def _frame_mask(score2d):
    """Otsu-binarize one score map, falling back to 0.5 when the map is too
    flat to have two histogram classes."""
    try:
        tau = otsu_threshold(score2d).tau
    except DataError:
        tau = 0.5
    return threshold_global(score2d, tau)


def evaluate_split(graph, dataset, indices, batch_size):
    """Infer-mode loss and pooled Otsu-binarized FoM over a set of frames."""
    pooled = ConfusionCounts()
    losses = []
    weights = []
    idx = list(indices)
    for batch in _batched(idx, batch_size):
        x = np.stack([dataset[i].image for i in batch]).astype(np.float32)
        y = np.stack([dataset[i].gt for i in batch])[:, None].astype(np.float32)
        score, cache = forward(graph, x, mode=INFER)
        loss, _ = bce_loss(cache.logits, y)
        losses.append(loss)
        weights.append(len(batch))
        for row, i in enumerate(batch):
            mask = _frame_mask(score[row, 0])
            pooled = pooled + confusion(mask, dataset[i].gt >= 0.5, dataset[i].roi)
    mean_loss = float(np.average(losses, weights=weights))
    return mean_loss, fom(pooled)


def train_loop(dataset, cfg: TrainConfig, init: CheckpointPayload | None = None,
               start_epoch: int = 0) -> TrainResult:
    """Mini-batch Adam training over the ordered split of one sequence.

    ``init`` may be a checkpoint payload. At ``start_epoch`` 0 it is a
    weights-only transfer of every parameter and batch-norm statistic (no
    layer is frozen), so the run keeps its seed's rng stream and a fresh
    optimizer. Later it is a resume that also restores the rng position and
    optimizer moments when present, which continues an interrupted run
    bit-exactly. Returns the best-validation-FoM checkpoint, the final
    resumable state, and the per-epoch history.
    """
    dataset = list(dataset)
    if not dataset:
        raise DataError("dataset is empty")
    shapes = {(s.image.shape[-2], s.image.shape[-1]) for s in dataset}
    if len(shapes) != 1 or any(s.image.shape[-2:] != s.gt.shape[-2:] for s in dataset):
        raise DataError("all frames and masks must share one spatial size")
    split = ordered_split(len(dataset), cfg.split_ratio)
    if start_epoch > cfg.max_epochs:
        raise ConfigError(f"start_epoch {start_epoch} exceeds max_epochs {cfg.max_epochs}")

    rng = EngineRng(cfg.seed)
    graph = build_mvfcn(dropout_rate=cfg.dropout_rate, bn_momentum=cfg.bn_momentum)
    graph.initialize_parameters(rng)
    adam = AdamState(lr=cfg.base_lr, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2,
                     eps=cfg.adam_eps)
    if init is not None and start_epoch > 0:
        apply_state(graph, init, rng=rng, adam=adam)
    elif init is not None:
        apply_state(graph, init)

    history = History()
    best_fom = -1.0
    best = snapshot_state(graph, rng)
    for epoch in range(start_epoch, cfg.max_epochs):
        adam.lr = lr_at(epoch, cfg)
        order = [split.train_indices[i] for i in rng.permutation(split.k)]
        batch_losses = []
        batch_sizes = []
        for batch in _batched(order, cfg.batch_size):
            images = []
            masks = []
            for i in batch:
                img, gt = augment_pair(dataset[i].image, dataset[i].gt, cfg, rng)
                images.append(img)
                masks.append(gt)
            x = np.stack(images).astype(np.float32)
            y = np.stack(masks)[:, None].astype(np.float32)
            _, cache = forward(graph, x, mode=TRAIN, rng=rng)
            loss, d_logits = bce_loss(cache.logits, y)
            grads = backward(graph, cache, d_logits)
            adam_step(graph, grads, adam)
            batch_losses.append(loss)
            batch_sizes.append(len(batch))
        train_loss = float(np.average(batch_losses, weights=batch_sizes))
        _, train_fom = evaluate_split(graph, dataset, split.train_indices, cfg.batch_size)
        val_loss, val_fom = evaluate_split(graph, dataset, split.test_indices, cfg.batch_size)
        history.rows.append(HistoryRow(epoch, adam.lr, train_loss, val_loss,
                                       train_fom, val_fom))
        if val_fom > best_fom:
            best_fom = val_fom
            best = snapshot_state(graph, rng)
    last = snapshot_state(graph, rng, adam)
    return TrainResult(best=best, last=last, history=history, graph=graph)

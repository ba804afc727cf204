"""Synthetic bright-rectangle sequences for demos and desk-scale training
checks: each frame is a noisy textured background with one bright axis-
aligned rectangle whose footprint is the ground-truth mask."""

from pathlib import Path

import numpy as np

from .io import save_image
from .rng import EngineRng
from .train import Sample


def make_rectangles_dataset(count: int = 8, size=(64, 64), seed: int = 0) -> list[Sample]:
    """Generate ``count`` frames of textured noise with a bright rectangle."""
    h, w = size
    rng = EngineRng(seed)
    samples = []
    for _ in range(count):
        image = rng.uniform(0.0, 0.45, size=(3, h, w)).astype(np.float32)
        rh = int(rng.integers(h // 4, h // 2 + 1))
        rw = int(rng.integers(w // 4, w // 2 + 1))
        top = int(rng.integers(0, h - rh + 1))
        left = int(rng.integers(0, w - rw + 1))
        brightness = rng.uniform(0.75, 1.0)
        image[:, top:top + rh, left:left + rw] = brightness
        image += rng.uniform(-0.03, 0.03, size=image.shape).astype(np.float32)
        np.clip(image, 0.0, 1.0, out=image)
        gt = np.zeros((h, w), dtype=np.float32)
        gt[top:top + rh, left:left + rw] = 1.0
        samples.append(Sample(image=image, gt=gt))
    return samples


def write_dataset_tree(samples, root) -> Path:
    """Write samples as a `input/in%06d.ppm` + `groundtruth/gt%06d.pgm` tree."""
    root = Path(root)
    for i, sample in enumerate(samples, start=1):
        save_image(sample.image, root / "input" / f"in{i:06d}.ppm")
        save_image(sample.gt, root / "groundtruth" / f"gt{i:06d}.pgm")
    return root

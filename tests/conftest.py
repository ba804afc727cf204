"""Shared fixtures and independent oracles.

The oracles here deliberately take different routes than the library code:
central finite differences for gradients, per-candidate recomputation for
threshold search, and BFS flood fill for connected components. Gradient
checks run in float64.
"""

import numpy as np
import pytest

from mvfcn import EngineRng, LayerSpec, ModelGraph, ShapeError


@pytest.fixture
def rng():
    return EngineRng(1234)


def write_raw_scoremap(path, score):
    """Write a score-map sidecar byte for byte, bypassing save_scoremap's
    checks, so readers can be shown maps no writer would produce."""
    score = np.asarray(score, dtype="<f4")
    path.write_bytes(b"MVSC" + np.array(score.shape, "<u4").tobytes() + score.tobytes())


def transpose_alpha(target: int, kernel: int, stride: int, padding: int) -> int:
    """Keras-style sizing oracle: count of zeros added on the top/right edge
    of the dilated input so the upsampled output hits exactly ``target``."""
    m = target + 2 * padding - kernel
    if m < 0:
        raise ShapeError(
            f"invalid upsampling target {target} for kernel {kernel}, padding {padding}"
        )
    return m % stride


def transpose_output_size(in_size: int, kernel: int, stride: int,
                          padding: int, alpha: int) -> int:
    """Spatial size a dilate-then-convolve transposed convolution produces."""
    return stride * (in_size - 1) + alpha + kernel - 2 * padding


SOFT_EPS = 1e-8


def fom_soft(x, y) -> float:
    """Soft overlap 2*I/U with I = sum(x*y)+eps and U = sum(x+y)+eps: the
    oracle for the engine's hard FoM.

    Accepts probability maps or binary masks; on binary inputs it agrees
    with ``metrics.fom`` of the confusion counts up to eps.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ShapeError(f"shapes {x.shape} and {y.shape} differ")
    intersection = float((x * y).sum()) + SOFT_EPS
    union = float((x + y).sum()) + SOFT_EPS
    return 2.0 * intersection / union


def rel_err(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.abs(a).max() + np.abs(b).max()
    if denom == 0:
        return 0.0
    return float(np.abs(a - b).max() / denom)


def numerical_grad(f, x, eps=1e-5):
    """Central finite differences of a scalar-valued f at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def flood_fill_components(mask, connectivity=8):
    """BFS labeling oracle; returns list of pixel-coordinate sets."""
    mask = np.asarray(mask) != 0
    h, w = mask.shape
    if connectivity == 8:
        offsets = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    else:
        offsets = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    seen = np.zeros_like(mask)
    components = []
    for si in range(h):
        for sj in range(w):
            if not mask[si, sj] or seen[si, sj]:
                continue
            stack = [(si, sj)]
            seen[si, sj] = True
            comp = set()
            while stack:
                i, j = stack.pop()
                comp.add((i, j))
                for di, dj in offsets:
                    ni, nj = i + di, j + dj
                    if 0 <= ni < h and 0 <= nj < w and mask[ni, nj] and not seen[ni, nj]:
                        seen[ni, nj] = True
                        stack.append((ni, nj))
            components.append(comp)
    return components


def brute_force_otsu(hist):
    """Exhaustive threshold search recomputing both class moments from the
    raw histogram at every candidate; returns (best_t, sigma_w2)."""
    hist = np.asarray(hist, dtype=np.float64)
    total = hist.sum()
    centers = (np.arange(hist.size) + 0.5) / hist.size
    best_t, best_val = None, None
    for t in range(1, hist.size):
        w0 = hist[:t].sum()
        w1 = hist[t:].sum()
        val = 0.0
        if w0 > 0:
            mu0 = (hist[:t] * centers[:t]).sum() / w0
            var0 = (hist[:t] * (centers[:t] - mu0) ** 2).sum() / w0
            val += (w0 / total) * var0
        if w1 > 0:
            mu1 = (hist[t:] * centers[t:]).sum() / w1
            var1 = (hist[t:] * (centers[t:] - mu1) ** 2).sum() / w1
            val += (w1 / total) * var1
        if best_val is None or val < best_val - 1e-15:
            best_t, best_val = t, val
    return best_t, best_val


def tiny_graph(in_channels=2, final_activation="sigmoid"):
    """Input -> conv(3, s2, relu) -> convT(3, s2) -> conv(1x1, final)."""
    layers = [
        LayerSpec(1, "input"),
        LayerSpec(2, "conv", (1,), 3, 2, 4, "relu"),
        LayerSpec(3, "convT", (2,), 3, 2, 4),
        LayerSpec(4, "conv", (3,), 1, 1, 1, final_activation),
    ]
    return ModelGraph(layers, in_channels=in_channels, input_divisor=2)


def fanout_graph(in_channels=2):
    """A graph with fan-out and concat: one producer feeding two consumers."""
    layers = [
        LayerSpec(1, "input"),
        LayerSpec(2, "conv", (1,), 3, 1, 3, "relu"),
        LayerSpec(3, "conv", (2,), 3, 2, 4, "relu"),
        LayerSpec(4, "convT", (3,), 3, 2, 3),
        LayerSpec(5, "concat", (4, 2)),
        LayerSpec(6, "batchnorm", (5,)),
        LayerSpec(7, "conv", (6,), 1, 1, 1, "sigmoid"),
    ]
    return ModelGraph(layers, in_channels=in_channels, input_divisor=2)


def to_float64(graph):
    """Cast every parameter and batch-norm state to float64 in place, for
    gradient checks that need 64-bit headroom."""
    for lid, p in graph.params.items():
        graph.params[lid] = {k: v.astype(np.float64) for k, v in p.items()}
    for state in graph.bn_states.values():
        state.gamma = state.gamma.astype(np.float64)
        state.beta = state.beta.astype(np.float64)
        state.running_mean = state.running_mean.astype(np.float64)
        state.running_var = state.running_var.astype(np.float64)
    return graph

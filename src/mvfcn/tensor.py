"""Rank-4 tensors and the differentiable layer primitives.

Data layout is channel-major (batch, channel, height, width), row-major in
memory. Convolutions use same-floor zero padding: the output spatial size
is ceil(in / stride) and any odd padding row/column lands on the
bottom/right edge. Transposed convolution is implemented as the exact
adjoint of that convolution, so the upsampling path inverts the
downsampling path size-for-size.

Every op runs in the dtype of its inputs: float32 in production, float64
when the gradient-check harness wants extra headroom.
"""

import numpy as np
from dataclasses import dataclass

from .errors import ConfigError, ShapeError

TRAIN = "train"
INFER = "infer"


def _check_nchw(x, name="input"):
    x = np.asarray(x)
    if x.ndim != 4:
        raise ShapeError(f"{name} must be rank-4 (n, c, h, w), got shape {x.shape}")
    if min(x.shape) < 1:
        raise ShapeError(f"{name} has an empty dimension: {x.shape}")
    return x


def same_floor_padding(size: int, kernel: int, stride: int) -> tuple[int, int, int]:
    """Return (pad_begin, pad_end, out_size) for one spatial axis.

    out_size = ceil(size / stride); the extra padding row/column when the
    total is odd goes on the end (bottom/right).
    """
    out = -(-size // stride)
    total = max((out - 1) * stride + kernel - size, 0)
    begin = total // 2
    return begin, total - begin, out


@dataclass(frozen=True)
class ConvSpec:
    """Square odd kernel, same-floor padded convolution."""

    kernel: int
    stride: int
    in_channels: int
    out_channels: int

    def __post_init__(self):
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ShapeError(f"kernel must be a positive odd integer, got {self.kernel}")
        if self.stride < 1:
            raise ShapeError(f"stride must be positive, got {self.stride}")
        if self.in_channels < 1 or self.out_channels < 1:
            raise ShapeError("channel counts must be positive")

    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.out_channels, self.in_channels, self.kernel, self.kernel)

    def output_hw(self, h: int, w: int) -> tuple[int, int]:
        return -(-h // self.stride), -(-w // self.stride)


class TransposeConvSpec(ConvSpec):
    """Learnable upsampling: the adjoint of a same-floor strided convolution.

    Weights are stored (in_channels, out_channels, k, k). The default target
    spatial size is stride times the input size.
    """

    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.in_channels, self.out_channels, self.kernel, self.kernel)

    def output_hw(self, h: int, w: int) -> tuple[int, int]:
        return self.stride * h, self.stride * w


def transpose_alpha(target: int, kernel: int, stride: int, padding: int) -> int:
    """Count of zeros added on the top/right edge of the dilated input so the
    upsampled output hits exactly ``target``."""
    m = target + 2 * padding - kernel
    if m < 0:
        raise ShapeError(
            f"invalid upsampling target {target} for kernel {kernel}, padding {padding}"
        )
    return m % stride


def transpose_output_size(in_size: int, kernel: int, stride: int,
                          padding: int, alpha: int) -> int:
    """Spatial size produced by a transposed convolution."""
    return stride * (in_size - 1) + alpha + kernel - 2 * padding


# Bytes one row block's column matrix may take. Blocks hold at least one
# output row, so a single row wider than this still runs, unsplit.
COLUMN_BUDGET = 4 << 20


def _taps(k: int, s: int, oh: int, ow: int):
    """Walk the k*k kernel taps of a stride-``s`` window over an oh x ow
    small-side grid, yielding (ki, kj, rows, cols): the slices of a padded
    big-side window that tap (ki, kj) pairs with the grid, element for element.

    This is the only place that knows the kernel-window arithmetic; every
    convolution pass below is built on it.
    """
    for ki in range(k):
        for kj in range(k):
            yield (ki, kj, slice(ki, ki + (oh - 1) * s + 1, s),
                   slice(kj, kj + (ow - 1) * s + 1, s))


def _row_blocks(oh: int, row_bytes: int):
    """Split oh small-side rows into (first_row, rows) blocks whose column
    matrix, ``row_bytes`` per row, fits in COLUMN_BUDGET."""
    step = max(1, min(oh, COLUMN_BUDGET // row_bytes))
    for r0 in range(0, oh, step):
        yield r0, min(step, oh - r0)


def _windows(big, k: int, s: int):
    """Walk the big side (n, c, h, w) of a stride-``s`` k x k convolution by
    image and block of small-side rows (k*k*c*ow elements a row under
    COLUMN_BUDGET), yielding (i, r0, rows, win, part, win_part): ``win`` is
    the block's window, zero-padded as far as the taps reach, ``part`` the
    map region it covers (a view of ``big``) and ``win_part`` its place in
    ``win``. All windows share one buffer; ``part[...] = win_part`` stores one.
    The only code that derives the same-floor padding and the small side,
    ceil(h / s) x ceil(w / s), from the big side's size."""
    n, c, h, w = big.shape
    pt, _, oh = same_floor_padding(h, k, s)
    pl, _, ow = same_floor_padding(w, k, s)
    blocks = list(_row_blocks(oh, k * k * c * ow * big.itemsize))
    win_w = (ow - 1) * s + k
    cw = min(w, win_w - pl)  # map columns some window reaches
    buf = np.zeros((c, (blocks[0][1] - 1) * s + k, win_w), dtype=big.dtype)
    for i in range(n):
        for r0, rows in blocks:
            win_h = (rows - 1) * s + k
            top = r0 * s - pt  # map row of the window's first row
            lo, hi = max(top, 0), min(top + win_h, h)
            part = big[i, :, lo:hi, :cw]
            win_part = buf[:, lo - top:hi - top, pl:pl + cw]
            buf[:, :lo - top] = buf[:, hi - top:win_h] = 0  # pad rows
            win_part[...] = part  # pad columns stay zero unless a caller adds
            yield i, r0, rows, buf[:, :win_h], part, win_part


def _column_blocks(big, k: int, s: int):
    """Im2col through :func:`_windows`: yield (i, r0, rows, cols), cols being
    image i's (k*k*c, rows*ow) matrix whose row (ki, kj, ci) is channel ci of tap (ki, kj)."""
    n, c, h = big.shape[:3]
    if k == s == 1:  # a 1x1 kernel's columns are the image itself
        for i in range(n):
            yield i, 0, h, big[i].reshape(c, -1)
        return
    for i, r0, rows, win, _, _ in _windows(big, k, s):
        ow = (win.shape[2] - k) // s + 1  # the window spans (ow - 1) * s + k columns
        if i == r0 == 0:  # the first block is the tallest: size the buffer
            buf = np.empty(k * k * c * rows * ow, dtype=big.dtype)
        cols = buf[:k * k * c * rows * ow].reshape(k, k, c, rows, ow)
        for ki, kj, r, q in _taps(k, s, rows, ow):
            cols[ki, kj] = win[:, r, q]
        yield i, r0, rows, cols.reshape(k * k * c, -1)


def _weight_grad(small, big, weights, s: int):
    """Kernel gradient shared by both convolutions: each tap correlates the
    small side (n, a, oh, ow) with its window of the big side (n, b, ...),
    giving an (a, b) slice of a weights-shaped array. One GEMM per row block
    against the big side's column matrix."""
    a = small.shape[1]
    k = weights.shape[-1]
    acc = sum(small[i, :, r0:r0 + rows].reshape(a, -1) @ cols.T
              for i, r0, rows, cols in _column_blocks(big, k, s))
    d_w = np.empty_like(weights)
    d_w[...] = acc.reshape(a, k, k, -1).transpose(0, 3, 1, 2)
    return d_w


def _check_conv_inputs(x, weights, spec: ConvSpec):
    x = _check_nchw(x)
    if x.shape[1] != spec.in_channels:
        raise ShapeError(
            f"input has {x.shape[1]} channels, spec expects {spec.in_channels}")
    weights = np.asarray(weights)
    if weights.shape != spec.weight_shape():
        raise ShapeError(
            f"weights shaped {weights.shape}, spec expects {spec.weight_shape()}"
        )
    return x, weights


def conv2d_forward(x, weights, bias, spec: ConvSpec):
    """Cross-correlate ``x`` with ``weights`` plus per-channel ``bias``.

    x: (n, cin, h, w); weights: (cout, cin, k, k); bias: (cout,) or None.
    Returns (n, cout, ceil(h/s), ceil(w/s)). Each output neuron gathers
    its window through the kernel: one GEMM per block of output rows.
    """
    x, weights = _check_conv_inputs(x, weights, spec)
    cout = spec.out_channels
    w_mat = weights.transpose(0, 2, 3, 1).reshape(cout, -1)
    out = np.empty((x.shape[0], cout, *spec.output_hw(*x.shape[2:])), dtype=x.dtype)
    for i, r0, rows, cols in _column_blocks(x, spec.kernel, spec.stride):
        # each channel's block rows are contiguous, so the reshape is a view
        np.matmul(w_mat, cols, out=out[i, :, r0:r0 + rows].reshape(cout, -1))
    if bias is not None:
        out += np.asarray(bias, dtype=out.dtype)[:, None, None]
    return out


def conv2d_backward(x, weights, spec: ConvSpec, d_out, input_grad: bool = True):
    """Gradients of a scalar loss through :func:`conv2d_forward`.

    d_x is exactly a transposed convolution of d_out with the same kernel.
    Returns (d_x, d_weights, d_bias) with shapes matching the forward inputs;
    d_x is None when ``input_grad`` is off.
    """
    x, weights = _check_conv_inputs(x, weights, spec)
    n, _, h, w = x.shape
    k, s = spec.kernel, spec.stride
    d_out = np.asarray(d_out)
    expected = (n, spec.out_channels, *spec.output_hw(h, w))
    if d_out.shape != expected:
        raise ShapeError(
            f"upstream gradient shaped {d_out.shape}, forward produced {expected}")
    d_w = _weight_grad(d_out, x, weights, s)
    del x  # an input the caller holds no name for is freed before d_x
    d_x = None
    if input_grad:
        adjoint = TransposeConvSpec(k, s, spec.out_channels, spec.in_channels)
        d_x = convT2d_forward(d_out, weights, None, adjoint, out_hw=(h, w))
    return d_x, d_w, d_out.sum(axis=(0, 2, 3))


def convT2d_forward(x, weights, bias, spec: TransposeConvSpec, out_hw=None):
    """Transposed convolution: scatter each input neuron through the kernel.

    Equivalent to dilating the input with stride-1 interleaved zeros plus the
    edge zeros counted by :func:`transpose_alpha`, then convolving at unit
    stride; implemented directly as the adjoint of :func:`conv2d_forward`:
    per block of input rows one GEMM gives every tap's slab, scatter-added
    into the block's window of the output, which is loaded with the earlier
    blocks' partial sums and stored back. Default size (stride*h, stride*w).
    """
    x, weights = _check_conv_inputs(x, weights, spec)
    n, c, h, w = x.shape
    k, s = spec.kernel, spec.stride
    out_h, out_w = out_hw if out_hw is not None else spec.output_hw(h, w)
    cout = spec.out_channels
    if ConvSpec(k, s, cout, c).output_hw(out_h, out_w) != (h, w):
        raise ShapeError(
            f"target {out_h}x{out_w} is not a stride-{s} preimage of input {h}x{w}"
        )
    w_mat = weights.transpose(2, 3, 1, 0).reshape(-1, c)
    out = np.zeros((n, cout, out_h, out_w), dtype=x.dtype)
    for i, r0, rows, win, part, win_part in _windows(out, k, s):
        slabs = (w_mat @ x[i, :, r0:r0 + rows].reshape(c, -1)).reshape(k, k, cout, rows, w)
        for ki, kj, r, q in _taps(k, s, rows, w):
            win[:, r, q] += slabs[ki, kj]
        part[...] = win_part
    if bias is not None:
        out += np.asarray(bias, dtype=out.dtype)[:, None, None]
    return out


def convT2d_backward(x, weights, spec: TransposeConvSpec, d_out,
                     input_grad: bool = True):
    """Gradients through :func:`convT2d_forward`.

    d_x is exactly a forward convolution of d_out with the same kernel, or
    None when ``input_grad`` is off.
    """
    x, weights = _check_conv_inputs(x, weights, spec)
    n, c, h, w = x.shape
    k, s = spec.kernel, spec.stride
    d_out = np.asarray(d_out)
    if d_out.ndim != 4 or d_out.shape[:2] != (n, spec.out_channels):
        raise ShapeError(
            f"upstream gradient shaped {d_out.shape} does not match "
            f"(n={n}, cout={spec.out_channels}, ...)"
        )
    out_h, out_w = d_out.shape[2:]
    adjoint = ConvSpec(k, s, spec.out_channels, spec.in_channels)
    if adjoint.output_hw(out_h, out_w) != (h, w):
        raise ShapeError(
            f"upstream gradient {out_h}x{out_w} is not a stride-{s} image of {h}x{w}"
        )
    d_w = _weight_grad(x, d_out, weights, s)
    del x  # as in conv2d_backward
    d_x = conv2d_forward(d_out, weights, None, adjoint) if input_grad else None
    return d_x, d_w, d_out.sum(axis=(0, 2, 3))


def relu(x, out=None):
    """max(x, 0); ``out=x`` applies it in place."""
    return np.maximum(x, 0, out=out)


def relu_backward(d_out, x, out=None):
    """Pass the upstream gradient where x > 0, zero (signed as d_out * 0)
    elsewhere; ``out=d_out`` applies it in place."""
    return np.multiply(d_out, x > 0, out=out)


def sigmoid(x):
    """Numerically stable logistic function, output in (0, 1)."""
    x = np.asarray(x)
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def sigmoid_backward(d_out, y):
    """Chain rule through the logistic function given its output y."""
    return d_out * y * (1.0 - y)


@dataclass
class BatchNormState:
    """Per-channel scale/shift plus running statistics for inference."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.99
    eps: float = 1e-3
    initialized: bool = False

    @classmethod
    def create(cls, channels: int, momentum: float = 0.99, dtype=np.float32):
        return cls(
            gamma=np.ones(channels, dtype=dtype),
            beta=np.zeros(channels, dtype=dtype),
            running_mean=np.zeros(channels, dtype=dtype),
            running_var=np.ones(channels, dtype=dtype),
            momentum=momentum,
        )

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]


def batchnorm_forward(x, state: BatchNormState, mode: str = TRAIN):
    """Normalize per channel over (batch, h, w), then scale and shift.

    Train mode uses mini-batch statistics and updates the running averages;
    infer mode uses the running statistics and requires them to have been
    trained or loaded from a checkpoint. Returns (y, cache) where cache feeds
    :func:`batchnorm_backward` (None in infer mode).
    """
    x = _check_nchw(x)
    if x.shape[1] != state.channels:
        raise ShapeError(
            f"input has {x.shape[1]} channels, state holds {state.channels}"
        )
    if mode == TRAIN:
        mu = x.mean(axis=(0, 2, 3))
        # one centring pass feeds both: x.var centres again internally
        xhat = x - mu.reshape(1, -1, 1, 1)
        var = np.square(xhat).mean(axis=(0, 2, 3))
        inv_std = 1.0 / np.sqrt(var + state.eps)
        xhat *= inv_std.reshape(1, -1, 1, 1)
        m = state.momentum
        state.running_mean = (m * state.running_mean + (1 - m) * mu).astype(
            state.running_mean.dtype)
        state.running_var = (m * state.running_var + (1 - m) * var).astype(
            state.running_var.dtype)
        state.initialized = True
        return batchnorm_affine(xhat, state), (xhat, inv_std)
    if mode == INFER:
        if not state.initialized:
            raise RuntimeError(
                "batch norm running statistics are uninitialized; train at "
                "least one step or load them from a checkpoint"
            )
        # gamma * (x - mean) * inv_std + beta as one per-channel scale and shift
        inv_std = 1.0 / np.sqrt(state.running_var + state.eps)
        scale = state.gamma * inv_std
        shift = state.beta - state.running_mean * scale
        y = x * scale.reshape(1, -1, 1, 1)
        y += shift.reshape(1, -1, 1, 1)
        return y, None
    raise ConfigError(f"mode must be '{TRAIN}' or '{INFER}', got {mode!r}")


def batchnorm_affine(xhat, state: BatchNormState):
    """The train-mode output ``xhat * gamma + beta``: the forward builds it
    here, and a backward that did not keep it rebuilds the same bits here."""
    y = xhat * state.gamma.reshape(1, -1, 1, 1)
    y += state.beta.reshape(1, -1, 1, 1)
    return y


def batchnorm_backward(d_out, state: BatchNormState, cache):
    """Gradients through the train-mode normalization.

    d_x = inv_std / m * (m * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat)),
    with dxhat = d_out * gamma, built in d_x and one scratch array.
    Returns (d_x, d_gamma, d_beta).
    """
    if cache is None:
        raise RuntimeError("batch norm backward needs a train-mode cache")
    xhat, inv_std = cache
    d_out = np.asarray(d_out)
    m = d_out.shape[0] * d_out.shape[2] * d_out.shape[3]
    d_beta = d_out.sum(axis=(0, 2, 3))
    scratch = d_out * xhat
    d_gamma = scratch.sum(axis=(0, 2, 3))
    dxhat = np.multiply(d_out, state.gamma.reshape(1, -1, 1, 1), out=scratch)
    sum_dxhat = dxhat.sum(axis=(0, 2, 3), keepdims=True)
    d_x = dxhat * xhat
    sum_dxhat_xhat = d_x.sum(axis=(0, 2, 3), keepdims=True)
    np.multiply(dxhat, m, out=d_x)
    d_x -= sum_dxhat
    d_x -= np.multiply(xhat, sum_dxhat_xhat, out=scratch)
    d_x *= inv_std.reshape(1, -1, 1, 1) / m
    return d_x, d_gamma, d_beta


def concat_channels(inputs):
    """Stack tensors along the channel axis in argument order."""
    if not inputs:
        raise ShapeError("concat needs at least one input")
    arrs = [_check_nchw(t, f"concat input {i}") for i, t in enumerate(inputs)]
    base = arrs[0].shape
    for i, a in enumerate(arrs[1:], start=1):
        if a.shape[0] != base[0] or a.shape[2:] != base[2:]:
            raise ShapeError(
                f"concat input {i} shaped {a.shape} does not match {base} on "
                "(batch, h, w)"
            )
    return np.concatenate(arrs, axis=1)


def concat_backward(d_out, channel_sizes):
    """Split the upstream gradient back into the per-input channel blocks."""
    offsets = np.cumsum(channel_sizes)[:-1]
    return np.split(d_out, offsets, axis=1)


# Elements of one dropout mask draw
DROPOUT_CHUNK = 1 << 20


def dropout(x, rate: float, rng, mode: str = TRAIN):
    """Inverted dropout: zero with probability ``rate``, scale survivors.

    Returns (y, keep_mask); the mask is None whenever the op is an identity
    (infer mode or rate 0).
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if mode == INFER or rate == 0.0:
        return x, None
    if mode != TRAIN:
        raise ConfigError(f"mode must be '{TRAIN}' or '{INFER}', got {mode!r}")
    # chunk by chunk, the same doubles in the same stream order as one
    # uniform(size=x.shape) draw, with no float64 array of x's size
    mask = np.empty(x.shape, dtype=bool)
    flat = mask.reshape(-1)
    for i in range(0, flat.size, DROPOUT_CHUNK):
        part = flat[i:i + DROPOUT_CHUNK]
        np.greater_equal(rng.uniform(size=part.size), rate, out=part)
    return _scale_kept(x, mask, rate), mask


def dropout_backward(d_out, mask, rate: float, out=None):
    """The gradient through :func:`dropout`'s mask; ``out=d_out`` applies
    it in place."""
    if mask is None:
        return d_out
    return _scale_kept(d_out, mask, rate, out)


def _scale_kept(x, mask, rate: float, out=None):
    """x where the bool mask keeps it, scaled by 1 / (1 - rate) in x's own
    dtype; zero (signed as x * 0) where it drops."""
    y = np.multiply(x, mask, out=out)
    y *= y.dtype.type(1.0 / (1.0 - rate))
    return y


def resize_nearest(image, target_h: int, target_w: int):
    """Nearest-neighbor resize over the last two axes; values are copied,
    never interpolated, so the value set is preserved."""
    image = np.asarray(image)
    if image.ndim < 2:
        raise ShapeError("resize needs at least 2 spatial dimensions")
    if target_h < 1 or target_w < 1:
        raise ShapeError(f"target size must be positive, got {target_h}x{target_w}")
    h, w = image.shape[-2], image.shape[-1]
    if (h, w) == (target_h, target_w):
        return image.copy()
    rows = (np.arange(target_h) * h) // target_h
    cols = (np.arange(target_w) * w) // target_w
    return image[..., rows[:, None], cols[None, :]]

"""Rank-4 tensors and the differentiable layer primitives.

Data layout is channel-major (batch, channel, height, width), row-major in
memory. Convolutions use same-floor zero padding: the output spatial size
is ceil(in / stride) and any odd padding row/column lands on the
bottom/right edge. Transposed convolution is implemented as the exact
adjoint of that convolution, so the upsampling path inverts the
downsampling path size-for-size.

Every op runs in the dtype of its inputs: float32 in production, float64
when the gradient-check harness wants extra headroom.

The engine owns the cores. Each pass (a convolution, a batch norm, an
activation, a concat) cuts its work into fixed parts, runs them on a
thread pool sized to the process's CPU affinity, and holds OpenBLAS to one
thread meanwhile, so every GEMM runs whole on one worker. The parts depend
on the pass alone, never on the worker count, and so do the bytes.

And its heap. On import this module sets glibc's mmap threshold to
MMAP_THRESHOLD (64 MiB) and its trim threshold to twice that, for the
whole process. glibc's own dynamic threshold stops at 32 MiB, so the
34-39 MB head maps of a 240x320 train step went back to the kernel after
every pass. A forward builds no batch norm that a conv reads, and an
infer forward streams the head (:class:`ChannelParts`, whose affine the
conv applies to each window, and conv2d_forward's ``head``): its largest
map is L27's, 18.75 MiB, and a batch-1 240x320 forward takes under 100
minor page faults a frame. Maps over 64 MiB, such as the batch-8 240x320
paper maps, stay on mmap. Without glibc's mallopt (macOS, musl) nothing
is set. A fresh process still faults on its first frame.
"""

import ctypes
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError

TRAIN = "train"
INFER = "infer"


def _check_nchw(x, name="input"):
    if isinstance(x, ChannelParts):  # its parts were checked when it was made
        return x
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


# Bytes one row block's GEMM may span along the grid: its column matrix
# plus the matrix on the other side (the block's output rows, its product,
# or the small side's rows it correlates). Blocks hold at least one grid
# row, so a single row wider than this still runs, unsplit.
COLUMN_BUDGET = 4 << 20


def _blas_threads():
    """OpenBLAS's (get, set) thread-count functions, or None. They are looked
    up through numpy's core extension, which links OpenBLAS, so no file is
    read to find them."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            try:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


class _BlasPin:
    """Holds OpenBLAS at one thread from the first pass in to the last pass
    out, then gives back the caller's count. An idle OpenBLAS worker spins
    on the second core for about 130 ms after each threaded GEMM, so the
    engine runs every GEMM single-threaded inside a pass and takes both
    cores with its own pool instead. Entering yields whether it pinned."""

    def __init__(self, blas):
        self.blas = blas
        self.lock = threading.Lock()
        self.depth = 0
        self.saved = 1

    def __enter__(self) -> bool:
        if self.blas is None:
            return False
        get, put = self.blas
        with self.lock:
            if self.depth == 0:
                self.saved = get()
                put(1)
            self.depth += 1
        return True

    def __exit__(self, *exc) -> None:
        if self.blas is None:
            return
        with self.lock:
            self.depth -= 1
            if self.depth == 0:
                self.blas[1](self.saved)


_PIN = _BlasPin(_blas_threads())


# glibc's mmap threshold, above which an allocation gets its own map that
# free() hands back to the kernel. Its dynamic default stops at 32 MiB, so
# the 34-39 MB maps of a 240x320 train step (L28's concat, L29's xhat,
# L30's output: 128 x 240 x 320 x 4 B = 39 MB) would be mapped,
# faulted in and unmapped on every pass; an infer forward builds none of
# them, and its largest map is L27's, 18.75 MiB, or 37.5 MiB at batch 2.
# 64 MiB clears the largest map of one 240x320 frame and keeps the
# batch-8 paper maps (275-315 MB) on mmap, so the holes they would leave
# in the heap do not grow the peak. The trim threshold is
# twice this, glibc's own ratio, so the heap top stays between passes.
MMAP_THRESHOLD = 64 << 20


def _keep_heap() -> bool:
    """Set glibc's mmap and trim thresholds for the whole process, through
    ``mallopt``; returns whether both took. Without glibc's ``mallopt`` (on
    macOS there is none, and musl's returns 0) the allocator keeps its own
    policy."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # glibc's malloc.h
    return bool(mallopt(m_mmap_threshold, MMAP_THRESHOLD)
                and mallopt(m_trim_threshold, 2 * MMAP_THRESHOLD))


_HEAP_KEPT = _keep_heap()


class _Cores:
    """A pool of ``workers`` threads for the parts of a pass; none for one.
    Its threads start on the first submit, not here."""

    def __init__(self, workers: int):
        self.workers = workers
        self.pool = ThreadPoolExecutor(workers, "mvfcn") if workers > 1 else None


_cores = _Cores(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)


@contextmanager
def workers(n: int):
    """Run the passes inside the block on ``n`` workers; 1 runs them in order
    on the caller's thread. The bytes of every pass are the same for any n."""
    global _cores
    saved, _cores = _cores, _Cores(n)
    try:
        yield
    finally:
        if _cores.pool is not None:
            _cores.pool.shutdown()
        _cores = saved


# Elements of the largest array one part of a pass reads or writes (its
# slice of a map, a concat input, or a conv block's column matrix or the
# matrix its GEMM pairs with it) below which the pass runs its parts in
# order: smaller parts lose more to the handoffs between threads than the
# second core gains them.
POOL_MIN = 1 << 17


def _at_once(parts: int, size: int) -> int:
    """How many of a pass's ``parts`` run at a time: one when a part's
    largest array (``size``) holds fewer than POOL_MIN elements, when there
    is one worker, or when there is no OpenBLAS to pin."""
    if size < POOL_MIN or _PIN.blas is None:
        return 1
    return min(parts, _cores.workers)


def _held(parts: int, size: int) -> int:
    """How many results of a pass exist at a time: the parts the pool runs
    or queues, plus the one the consumer holds."""
    at_once = _at_once(parts, size)
    return 1 if at_once == 1 else 2 * at_once + 1


def _parts(fn, parts, size: int):
    """Yield ``fn(part)`` for each part, in part order, with OpenBLAS pinned
    to one thread. The parts run on the pool, a bounded number ahead of the
    consumer, or in order on the caller's thread (see :func:`_at_once`).
    Each part is fixed by the pass, not by the worker count,
    and writes only its own slice or returns its own result, so the bytes do
    not depend on which thread runs it. A part must not start a pass itself:
    it would wait on the workers it holds."""
    parts = list(parts)
    held = _held(len(parts), size)
    with _PIN:
        if held == 1:
            for part in parts:
                yield fn(part)
            return
        pending = deque()
        try:
            for part in parts:
                pending.append(_cores.pool.submit(fn, part))
                if len(pending) == held:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()
            wait(pending)


def _by_halves(fn, x) -> list:
    """``fn(ix)`` for the slice ``ix`` of each half of x's channels (axis 1),
    the parts of a pass that splits by channel; one part when x has one
    channel. The results in part order."""
    c = x.shape[1]
    halves = [slice(0, c // 2), slice(c // 2, c)] if c > 1 else [slice(0, c)]
    return list(_parts(fn, halves, x.size // c * (c - c // 2)))


def _elementwise(fn, *arrays) -> None:
    """``fn`` on each channel half (axis 1) of the equally shaped ``arrays``;
    on the whole arrays when they have no channel axis."""
    if arrays[0].ndim < 2:
        fn(*arrays)
    else:
        _by_halves(lambda ix: fn(*(a[:, ix] for a in arrays)), arrays[0])


class _Scratch:
    """Buffers for a pass: one set per part that runs at a time, made here
    on the caller's thread. A part takes a set and gives it back. Big arrays
    are never allocated on a worker: each worker thread gets its own malloc
    arena, which keeps what it frees and so raises peak memory."""

    def __init__(self, make, count: int):
        self.free = [make() for _ in range(count)]

    @contextmanager
    def __call__(self):
        item = self.free.pop()
        try:
            yield item
        finally:
            self.free.append(item)


def _row_blocks(oh: int, row_bytes: int):
    """Split oh grid rows into (first_row, rows) blocks whose GEMM,
    ``row_bytes`` per row, fits in COLUMN_BUDGET."""
    step = max(1, min(oh, COLUMN_BUDGET // row_bytes))
    for r0 in range(0, oh, step):
        yield r0, min(step, oh - r0)


class _Windows:
    """A map ``src`` (n, c, h, w) read through a k x k window at stride s
    over an oh x ow ``grid``, with ``pad`` = (top, left) zero rows and
    columns before the map, cut into ``blocks``: (i, r0, rows) runs of
    image i's grid rows, the tallest first. A block's columns and the
    ``other`` channels its GEMM pairs with them take under COLUMN_BUDGET.
    ``work`` counts the elements of the larger of the two for the tallest
    block, and ``at_once`` how many blocks run at a time (:func:`_at_once`).
    The map is held as :class:`ChannelParts`, whose affine each window
    applies as it loads; an array is one part with none."""

    def __init__(self, src, k: int, s: int, pad, grid, other: int):
        self.src = src if isinstance(src, ChannelParts) else ChannelParts([src])
        self.k, self.s = k, s
        (self.pt, self.pl), (self.oh, self.ow) = pad, grid
        c = src.shape[1]
        rows = list(_row_blocks(self.oh, (k * k * c + other) * self.ow * src.dtype.itemsize))
        self.blocks = [(i, r0, m) for i in range(src.shape[0]) for r0, m in rows]
        self.win_w = (self.ow - 1) * s + k
        self.cw = min(src.shape[3], self.win_w - self.pl)  # map columns some window reaches
        self.work = max(k * k * c, other) * rows[0][1] * self.ow
        self.at_once = _at_once(len(self.blocks), self.work)

    @classmethod
    def same_floor(cls, big, k: int, s: int, small_c: int):
        """The big side (n, c, h, w) of a stride-``s`` k x k convolution
        under same-floor padding, its grid the small side of ``small_c``
        channels, ceil(h / s) x ceil(w / s)."""
        pt, _, oh = same_floor_padding(big.shape[2], k, s)
        pl, _, ow = same_floor_padding(big.shape[3], k, s)
        return cls(big, k, s, (pt, pl), (oh, ow), small_c)

    def scratch(self):
        """A zeroed window buffer and a column buffer for the tallest block."""
        c, rows = self.src.shape[1], self.blocks[0][2]
        return (np.zeros((c, (rows - 1) * self.s + self.k, self.win_w), self.src.dtype),
                np.empty(self.k * self.k * c * rows * self.ow, self.src.dtype))

    def columns(self, scratch, i: int, r0: int, rows: int):
        """Block (i, r0, rows)'s (k*k*c, rows*ow) column matrix, row
        (ki, kj, ci) holding channel ci of tap (ki, kj): the block's window
        is loaded into the window buffer part by part, given the affine,
        zero-padded as far as the taps reach, and the columns are one
        strided copy of it."""
        win, col_buf = scratch
        k, s, ow = self.k, self.s, self.ow
        c, h = self.src.shape[1:3]
        win_h = (rows - 1) * s + k
        top = r0 * s - self.pt  # map row of the window's first row
        lo, hi = max(top, 0), min(top + win_h, h)
        reach = slice(self.pl, self.pl + self.cw)
        for channels, part in self.src.slices():
            win[channels, lo - top:hi - top, reach] = part[i, :, lo:hi, :self.cw]
        if self.src.affine is not None:  # batchnorm_forward's expressions, whole window
            scale, shift = self.src.affine
            win[:, :win_h] *= scale[:, None, None]
            win[:, :win_h] += shift[:, None, None]
            win[:, :win_h, :self.pl] = win[:, :win_h, reach.stop:] = 0  # pad columns
        win[:, :lo - top] = win[:, hi - top:win_h] = 0  # pad rows
        cols = col_buf[:k * k * c * rows * ow].reshape(k, k, c, rows, ow)
        sc, sr, sq = win.strides
        # A view made by the constructor, not by as_strided: as_strided reads
        # __array_interface__, whose keys churn Python's interned-string
        # table, and the table's resizes land in whichever thread's heap
        # runs it, a different place each run, so peak RSS varied by 30 MB.
        taps = np.ndarray(cols.shape, win.dtype, win, strides=(sr, sq, sc, s * sr, s * sq))
        np.copyto(cols, taps)
        return cols.reshape(k * k * c, -1)


def _column_blocks(windows: _Windows, fn):
    """Im2col, block by block on the pool: yield fn(i, r0, rows, cols) in
    block order, cols being the block's column matrix, built in its
    worker's own buffers."""
    if windows.k == windows.s == 1 and len(windows.src.arrays) == 1 and windows.src.affine is None:
        # a 1x1 kernel's columns are the block's own rows
        (src,) = windows.src.arrays
        return _parts(lambda b: fn(*b, src[b[0], :, b[1]:b[1] + b[2]].reshape(src.shape[1], -1)),
                      windows.blocks, windows.work)
    scratch = _Scratch(windows.scratch, windows.at_once)

    def block(part):
        with scratch() as buffers:
            return fn(*part, windows.columns(buffers, *part))

    return _parts(block, windows.blocks, windows.work)


def _weight_grad(small, big, weights, s: int):
    """Kernel gradient shared by both convolutions: each tap correlates the
    small side (n, a, oh, ow) with its window of the big side (n, b, ...),
    giving an (a, b) slice of a weights-shaped array. One GEMM per row block
    against the big side's column matrix, the products summed in block
    order."""
    a = small.shape[1]
    k = weights.shape[-1]
    windows = _Windows.same_floor(big, k, s, a)
    acc = np.zeros((a, k * k * big.shape[1]), np.result_type(small, windows.src.dtype))
    # product buffers made here, each given back once the caller has added it
    free = [np.empty_like(acc) for _ in range(_held(len(windows.blocks), windows.work))]

    def product(i, r0, rows, cols):
        return np.matmul(small[i, :, r0:r0 + rows].reshape(a, -1), cols.T, out=free.pop())

    for p in _column_blocks(windows, product):
        acc += p
        free.append(p)
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


def _gemm_block(w_mat, cols, bias, o):
    """One row block of a convolution: ``o`` (cout, rows, ow) gets
    ``w_mat @ cols`` plus the (cout, 1, 1) ``bias`` when there is one."""
    # each channel's block rows are contiguous, so the reshape is a view
    np.matmul(w_mat, cols, out=o.reshape(len(w_mat), -1))
    if bias is not None:
        o += bias


def _conv_matrices(weights, bias, dtype):
    """A conv's (cout, k*k*cin) weight matrix, columns in tap-major order,
    and its bias shaped to add to a (cout, rows, ow) block, or None."""
    w_mat = weights.transpose(0, 2, 3, 1).reshape(len(weights), -1)
    return w_mat, None if bias is None else np.asarray(bias, dtype=dtype)[:, None, None]


def conv2d_forward(x, weights, bias, spec: ConvSpec, head=None):
    """Cross-correlate ``x`` with ``weights`` plus per-channel ``bias``.

    x: (n, cin, h, w), an array or :class:`ChannelParts`; weights:
    (cout, cin, k, k); bias: (cout,) or None. Returns (n, cout, ceil(h/s),
    ceil(w/s)). Each output neuron gathers its window through the kernel:
    one GEMM per block of output rows, which also adds the bias to its
    block.

    ``head`` is an epilogue: the (weights, bias) of a 1x1 stride-1 conv from
    cout channels to hout. Each row block is then built in its worker's
    scratch, ReLU'd, and run through the head's GEMM and bias, and the
    return is the head's (n, hout, ceil(h/s), ceil(w/s)) output, without
    this conv's whole output. Its bits are those of :func:`relu` and a
    second ``conv2d_forward`` when the output is a multiple of 16 wide, as
    every MV-FCN map is; the head's GEMM runs on this conv's row blocks,
    not its own, and at other widths OpenBLAS can round their tails apart.
    """
    x, weights = _check_conv_inputs(x, weights, spec)
    cout = spec.out_channels
    w_mat, bias = _conv_matrices(weights, bias, x.dtype)
    windows = _Windows.same_floor(x, spec.kernel, spec.stride, cout)
    if head is not None:
        head_w = np.asarray(head[0])
        if head_w.ndim != 4 or head_w.shape[1:] != (cout, 1, 1):
            raise ShapeError(f"head weights shaped {head_w.shape}, expected (hout, {cout}, 1, 1)")
        head_mat, head_bias = _conv_matrices(head_w, head[1], x.dtype)
        tallest = cout * windows.blocks[0][2] * windows.ow
        products = _Scratch(lambda: np.empty(tallest, x.dtype), windows.at_once)
    out = np.empty((x.shape[0], cout if head is None else len(head_w), windows.oh, windows.ow),
                   dtype=x.dtype)

    def block(i, r0, rows, cols):
        o = out[i, :, r0:r0 + rows]
        if head is None:
            _gemm_block(w_mat, cols, bias, o)
            return
        with products() as buf:
            z = buf[:cout * rows * windows.ow].reshape(cout, rows, -1)
            _gemm_block(w_mat, cols, bias, z)
            np.maximum(z, 0, out=z)  # relu's expression
            _gemm_block(head_mat, z.reshape(cout, -1), head_bias, o)

    list(_column_blocks(windows, block))
    return out


def _phase_weights(weights, s: int):
    """The (s*s*cout, t*t*c) weights of a stride-``s`` transposed conv's
    phases, t = ceil(k/s): row (fr, fc, o) and column (jr, jc, ci) hold tap
    (s*(t-1-jr) + fr, s*(t-1-jc) + fc) of ``weights`` (c, cout, k, k), the
    taps past the kernel zero."""
    c, cout, k, _ = weights.shape
    t = -(-k // s)
    taps = np.zeros((c, cout, s * t, s * t), weights.dtype)
    taps[:, :, :k, :k] = weights
    taps = taps.reshape(c, cout, t, s, t, s)[:, :, ::-1, :, ::-1]
    return taps.transpose(3, 5, 1, 2, 4, 0).reshape(s * s * cout, t * t * c)


def convT2d_forward(x, weights, bias, spec: TransposeConvSpec, out_hw=None):
    """Transposed convolution, the adjoint of :func:`conv2d_forward`, as a
    gather.

    At stride s the output splits into s*s phases, one per (row, column)
    offset mod s. Each phase is a stride-1 convolution of the input with
    that phase's taps of the flipped kernel, ceil(k/s) on a side (the
    sub-pixel convolution of Shi et al., CVPR 2016). One GEMM per block of
    input rows gives every phase's rows, written into an s-fold grid that
    is cropped once (depth to space). At stride 1 it is :func:`conv2d_forward`
    with the rotated kernel. Default size (stride*h, stride*w).
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
    if s == 1:
        return conv2d_forward(x, weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), bias,
                              ConvSpec(k, 1, c, cout))
    t = -(-k // s)
    # the output's same-floor padding, in whole grid steps and a remainder
    (a_r, p_r), (a_c, p_c) = (divmod(same_floor_padding(length, k, s)[0], s)
                              for length in (out_h, out_w))
    gh, gw = -(-(out_h + p_r) // s), -(-(out_w + p_c) // s)
    windows = _Windows(x, t, 1, (t - 1 - a_r, t - 1 - a_c), (gh, gw), s * s * cout)
    w_mat = _phase_weights(weights, s)
    tallest = s * s * cout * windows.blocks[0][2] * gw
    products = _Scratch(lambda: np.empty(tallest, x.dtype), windows.at_once)
    # grid position (u, f) on an axis is s*u + f of the uncropped output
    full = np.empty((n, cout, gh, s, gw, s), dtype=x.dtype)
    if bias is not None:
        bias = np.asarray(bias, dtype=full.dtype)[:, None, None]

    def block(i, r0, rows, cols):
        with products() as buf:
            p = np.matmul(w_mat, cols, out=buf[:s * s * cout * rows * gw].reshape(-1, rows * gw))
            p = p.reshape(s, s, cout, rows, gw)
            if bias is not None:
                p += bias
            for fr in range(s):
                for fc in range(s):
                    full[i, :, r0:r0 + rows, fr, :, fc] = p[fr, fc]

    list(_column_blocks(windows, block))
    return full.reshape(n, cout, s * gh, s * gw)[:, :, p_r:p_r + out_h, p_c:p_c + out_w]


def conv2d_backward(x, weights, spec: ConvSpec, d_out, input_grad: bool = True):
    """Gradients of a scalar loss through :func:`conv2d_forward`, or through
    :func:`convT2d_forward` when ``spec`` is a :class:`TransposeConvSpec`.

    The two passes are adjoint, so each one's d_x is the other's forward of
    d_out with the same kernel. Of x and d_out, the small side is a stride-s
    image of the big side: d_out for a convolution, x for a transposed one.
    Returns (d_x, d_weights, d_bias) with shapes matching the forward inputs;
    d_x is None when ``input_grad`` is off.
    """
    x, weights = _check_conv_inputs(x, weights, spec)
    n, _, h, w = x.shape
    k, s = spec.kernel, spec.stride
    d_out = np.asarray(d_out)
    if d_out.ndim != 4 or d_out.shape[:2] != (n, spec.out_channels):
        raise ShapeError(
            f"upstream gradient shaped {d_out.shape} does not match "
            f"(n={n}, cout={spec.out_channels}, ...)"
        )
    transposed = isinstance(spec, TransposeConvSpec)
    small, big = (x, d_out) if transposed else (d_out, x)
    (sh, sw), (bh, bw) = small.shape[2:], big.shape[2:]
    if (-(-bh // s), -(-bw // s)) != (sh, sw):
        raise ShapeError(f"upstream gradient shaped {d_out.shape}: "
                         f"{bh}x{bw} is not a stride-{s} image of {sh}x{sw}")
    d_w = _weight_grad(small, big, weights, s)
    del x, small, big  # an input the caller holds no name for is freed before d_x
    d_x = None
    if input_grad:
        adjoint = (ConvSpec if transposed else TransposeConvSpec)(
            k, s, spec.out_channels, spec.in_channels)
        d_x = (conv2d_forward(d_out, weights, None, adjoint) if transposed
               else convT2d_forward(d_out, weights, None, adjoint, out_hw=(h, w)))
    return d_x, d_w, d_out.sum(axis=(0, 2, 3))


convT2d_backward = conv2d_backward


def relu(x, out=None):
    """max(x, 0); ``out=x`` applies it in place."""
    x = np.asarray(x)
    out = np.empty_like(x) if out is None else out
    _elementwise(lambda a, o: np.maximum(a, 0, out=o), x, out)
    return out


def relu_backward(d_out, x, out=None):
    """Pass the upstream gradient where x > 0, zero (signed as d_out * 0)
    elsewhere; ``out=d_out`` applies it in place."""
    d_out, x = np.asarray(d_out), np.asarray(x)
    out = np.empty_like(d_out) if out is None else out
    _elementwise(lambda d, a, keep, o: np.multiply(d, np.greater(a, 0, out=keep), out=o),
                 d_out, x, np.empty(x.shape, bool), out)
    return out


def relu_mask(x):
    """The bool map x > 0: all that :func:`relu_backward` reads of a ReLU
    output, in a quarter of a float32 map's bytes."""
    x = np.asarray(x)
    out = np.empty(x.shape, bool)
    _elementwise(lambda a, o: np.greater(a, 0, out=o), x, out)
    return out


def sigmoid(x):
    """Numerically stable logistic function, output in (0, 1)."""
    x = np.asarray(x)
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def sigmoid_backward(d_out, y):
    """Chain rule through the logistic function given its output y."""
    return d_out * y * (1.0 - y)


# added to the variance under the square root in every batch norm, train or infer
BN_EPS = 1e-3


@dataclass
class BatchNormState:
    """Per-channel scale/shift plus running statistics for inference."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.99
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

    Given :class:`ChannelParts` without an affine, y is left unbuilt for a
    convolution to read, with the per-channel (scale, shift) attached: in
    infer mode the running affine on the input's own parts, in train mode
    (gamma, beta) on xhat. Nothing is written into the parts, and the
    conv's windows hold the bits of the built y.
    """
    x = _check_nchw(x)
    if x.shape[1] != state.channels:
        raise ShapeError(
            f"input has {x.shape[1]} channels, state holds {state.channels}"
        )
    if mode not in (TRAIN, INFER):
        raise ConfigError(f"mode must be '{TRAIN}' or '{INFER}', got {mode!r}")
    parts = x if isinstance(x, ChannelParts) else None
    if mode == INFER:
        if not state.initialized:
            raise RuntimeError(
                "batch norm running statistics are uninitialized; train at "
                "least one step or load them from a checkpoint"
            )
        # gamma * (x - mean) * inv_std + beta as one per-channel scale and shift
        scale = state.gamma * (1.0 / np.sqrt(state.running_var + BN_EPS))
        affine, cache = (scale, state.beta - state.running_mean * scale), None
    else:
        if parts is not None:
            x = parts.arrays[0] if len(parts.arrays) == 1 else concat_channels(parts.arrays)
        xhat, squares = np.empty_like(x), np.empty_like(x)

        def normalize(ix):
            part, xhat_part = x[:, ix], xhat[:, ix]
            mu = part.mean(axis=(0, 2, 3))
            # one centring pass feeds both: x.var centres again internally
            np.subtract(part, mu.reshape(1, -1, 1, 1), out=xhat_part)
            var = np.square(xhat_part, out=squares[:, ix]).mean(axis=(0, 2, 3))
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            xhat_part *= inv_std.reshape(1, -1, 1, 1)
            return mu, var, inv_std

        # per-channel statistics: a channel half gives each channel's bytes
        mu, var, inv_std = map(np.concatenate,
                               zip(*_by_halves(normalize, x)))
        del squares  # freed before the output is allocated
        m = state.momentum
        state.running_mean = (m * state.running_mean + (1 - m) * mu).astype(
            state.running_mean.dtype)
        state.running_var = (m * state.running_var + (1 - m) * var).astype(
            state.running_var.dtype)
        state.initialized = True
        x, affine, cache = xhat, (state.gamma, state.beta), (xhat, inv_std)
    if parts is not None:
        return ChannelParts([x] if mode == TRAIN else parts.arrays, affine), cache
    scale, shift = affine
    y = np.empty(x.shape, np.result_type(x, scale, shift))

    def half(ix):  # x * scale + shift, the expressions a window's affine uses
        np.multiply(x[:, ix], scale[ix].reshape(1, -1, 1, 1), out=y[:, ix])
        y[:, ix] += shift[ix].reshape(1, -1, 1, 1)

    _by_halves(half, x)
    return y, cache


def batchnorm_backward(d_out, state: BatchNormState, cache, out=None):
    """Gradients through the train-mode normalization.

    d_x = inv_std / m * (m * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat)),
    with dxhat = d_out * gamma, built in d_x and one scratch array. Each
    channel half reads d_out before it writes d_x, so ``out=d_out``, when
    d_out has the dtype of d_x, builds d_x in the upstream gradient, with
    the same bytes. Returns (d_x, d_gamma, d_beta).
    """
    if cache is None:
        raise RuntimeError("batch norm backward needs a train-mode cache")
    xhat, inv_std = cache
    d_out = np.asarray(d_out)
    m = d_out.shape[0] * d_out.shape[2] * d_out.shape[3]
    d_x = np.empty(d_out.shape, np.result_type(d_out, xhat)) if out is None else out
    scratches = np.empty_like(d_x)

    def half(ix):
        d, xh, dx = d_out[:, ix], xhat[:, ix], d_x[:, ix]
        d_beta = d.sum(axis=(0, 2, 3))
        scratch = np.multiply(d, xh, out=scratches[:, ix])
        d_gamma = scratch.sum(axis=(0, 2, 3))
        dxhat = np.multiply(d, state.gamma[ix].reshape(1, -1, 1, 1), out=scratch)
        sum_dxhat = dxhat.sum(axis=(0, 2, 3), keepdims=True)
        np.multiply(dxhat, xh, out=dx)
        sum_dxhat_xhat = dx.sum(axis=(0, 2, 3), keepdims=True)
        np.multiply(dxhat, m, out=dx)
        dx -= sum_dxhat
        dx -= np.multiply(xh, sum_dxhat_xhat, out=scratch)
        dx *= inv_std[ix].reshape(1, -1, 1, 1) / m
        return d_gamma, d_beta

    d_gamma, d_beta = map(np.concatenate,
                          zip(*_by_halves(half, d_out)))
    return d_x, d_gamma, d_beta


class ChannelParts:
    """A map left unbuilt: the maps ``inputs``, each (n, c_j, h, w), stacked
    along axis 1 in order, in their common dtype, then ``x * scale + shift``
    per channel when ``affine`` is a (scale, shift) pair. The convolution
    forwards load each window from it part by part and apply the affine
    there, so the map is never allocated. ``shape`` and ``dtype`` are the
    built map's: float64 statistics widen float32 parts."""

    def __init__(self, inputs, affine=None):
        if not inputs:
            raise ShapeError("concat needs at least one input")
        arrs = [_check_nchw(np.asarray(t), f"concat input {i}") for i, t in enumerate(inputs)]
        base = arrs[0].shape
        for i, a in enumerate(arrs[1:], start=1):
            if a.shape[0] != base[0] or a.shape[2:] != base[2:]:
                raise ShapeError(
                    f"concat input {i} shaped {a.shape} does not match {base} on "
                    "(batch, h, w)"
                )
        dtype = np.result_type(*arrs)
        self.arrays = [a.astype(dtype, copy=False) for a in arrs]
        self.affine = affine
        self.dtype = dtype if affine is None else np.result_type(dtype, *affine)
        self.shape = (base[0], sum(a.shape[1] for a in arrs), *base[2:])

    def slices(self):
        """Yield (channels, part): each part with the slice of the built
        map's channels it holds."""
        start = 0
        for part in self.arrays:
            yield slice(start, start + part.shape[1]), part
            start += part.shape[1]


def concat_channels(inputs):
    """Stack tensors along the channel axis in argument order."""
    parts = ChannelParts(inputs)
    out = np.empty(parts.shape, parts.dtype)

    def copy(item):
        channels, part = item
        out[:, channels] = part

    list(_parts(copy, parts.slices(), max(a.size for a in parts.arrays)))  # one part per input
    return out


def concat_backward(d_out, channel_sizes):
    """Split the upstream gradient back into the per-input channel blocks."""
    offsets = np.cumsum(channel_sizes)[:-1]
    return np.split(d_out, offsets, axis=1)


# Elements of one dropout mask draw
DROPOUT_CHUNK = 1 << 20


def dropout(x, rate: float, rng, mode: str = TRAIN, out=None):
    """Inverted dropout: zero with probability ``rate``, scale survivors;
    ``out=x`` applies it in place.

    Returns (y, keep_mask); the mask is None whenever the op is an identity
    (infer mode or rate 0), and y is then x itself.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if mode not in (TRAIN, INFER):
        raise ConfigError(f"mode must be '{TRAIN}' or '{INFER}', got {mode!r}")
    if mode == INFER or rate == 0.0:
        return x, None
    # chunk by chunk, the same doubles in the same stream order as one
    # uniform(size=x.shape) draw, with no float64 array of x's size
    mask = np.empty(x.shape, dtype=bool)
    flat = mask.reshape(-1)
    for i in range(0, flat.size, DROPOUT_CHUNK):
        part = flat[i:i + DROPOUT_CHUNK]
        np.greater_equal(rng.uniform(size=part.size), rate, out=part)
    return _scale_kept(x, mask, rate, out), mask


def dropout_backward(d_out, mask, rate: float, out=None):
    """The gradient through :func:`dropout`'s mask; ``out=d_out`` applies
    it in place."""
    if mask is None:
        return d_out
    return _scale_kept(d_out, mask, rate, out)


def _scale_kept(x, mask, rate: float, out=None):
    """x where the bool mask keeps it, scaled by 1 / (1 - rate) in x's own
    dtype; zero (signed as x * 0) where it drops."""
    out = np.empty_like(x) if out is None else out
    scale = out.dtype.type(1.0 / (1.0 - rate))

    def part(a, keep, o):
        np.multiply(a, keep, out=o)
        o *= scale

    _elementwise(part, x, mask, out)
    return out


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

"""Machine and provenance block, the sgemm roofline reference, and the
computed FLOP and byte counts of every conv and convT layer."""

import ctypes
import os
import platform
import time
from pathlib import Path

import numpy as np

from mvfcn.graph import infer_shapes

FLOAT_BYTES = 4


def _openblas():
    """The loaded OpenBLAS library, found through this process's own maps."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def blas_threads():
    lib = _openblas()
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None) if lib is not None else None
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return fn()
    return None


def blas_build() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


def machine_info(root: Path) -> dict:
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build(),
        "blas_threads": blas_threads(),
        "commit": git_commit(root),
        "src_lines": src_lines(root),
    }


def sgemm_gflops(n: int = 1024, reps: int = 7) -> float:
    """Best float32 n x n matmul rate of a few tries: the roofline that
    the measured conv GFLOP/s can be held against."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2 * n ** 3 / best / 1e9


def conv_kernel_counts(graph, input_hw) -> dict:
    """Computed (not measured) per-frame counts for each conv/convT layer.

    FLOPs count one multiply and one add per MAC of the k x k taps and
    leave out the bias add. Bytes are the float32 traffic of a single pass:
    forward reads x and w and writes y; backward reads x, w and d_y and
    writes d_x and d_w. The weight bytes do not scale with the batch.
    """
    shapes = infer_shapes(graph, (graph.in_channels, *input_hw))
    counts = {}
    for layer in graph.layers:
        if layer.kind not in ("conv", "convT"):
            continue
        cin, ih, iw = shapes[layer.inputs[0]]
        cout, oh, ow = shapes[layer.id]
        taps = layer.kernel * layer.kernel * cin * cout
        positions = oh * ow if layer.kind == "conv" else ih * iw
        x, y, w = cin * ih * iw, cout * oh * ow, taps
        counts[layer.id] = {
            "kind": layer.kind,
            "fwd_flops": 2 * taps * positions,
            "bwd_flops": 4 * taps * positions,
            "fwd_bytes_per_frame": FLOAT_BYTES * (x + y),
            "bwd_bytes_per_frame": FLOAT_BYTES * (2 * x + y),
            "weight_bytes": FLOAT_BYTES * w,
        }
    return counts

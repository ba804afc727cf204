"""The engine's pool: each pooled pass gives the bytes of the in-order run
on any worker count, OpenBLAS gets the caller's thread count back after a
pass, and no GEMM runs outside ``tensor``, where the pin cannot reach it.
The engine's heap: a pass faults no memory back in that the previous one
used, and the engine runs the same without glibc's ``mallopt``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mvfcn
from mvfcn import (
    BatchNormState,
    ConvSpec,
    EngineRng,
    TrainConfig,
    TransposeConvSpec,
    batchnorm_backward,
    batchnorm_forward,
    concat_channels,
    conv2d_backward,
    conv2d_forward,
    convT2d_backward,
    convT2d_forward,
    dropout,
    dropout_backward,
    relu,
    relu_backward,
    train_loop,
)
from mvfcn import tensor
from mvfcn.io import save_checkpoint
from mvfcn.tensor import ChannelParts
from mvfcn.synth import make_rectangles_dataset

WORKERS = (2, 3)


@pytest.fixture
def pool_every_pass(monkeypatch):
    # the tests' maps are small: pool them all the same
    monkeypatch.setattr(tensor, "POOL_MIN", 0)


def _on(workers: int, run):
    with tensor.workers(workers):
        return run()


def _arrays(result):
    """Each array a pass returned, with its dtype and shape, flattened."""
    if isinstance(result, np.ndarray):
        return [(result.dtype.str, result.shape, result.tobytes())]
    if isinstance(result, ChannelParts):
        return _arrays(result.arrays)
    if isinstance(result, (tuple, list)):
        return [a for item in result for a in _arrays(item)]
    return [result]


def _normal(seed: int):
    r = np.random.default_rng(seed)
    return lambda *shape: r.normal(size=shape).astype(np.float32)


def _conv_passes(batch):
    """(name, run) pairs for the conv passes; each run builds its inputs."""
    normal = _normal(3)
    spec3 = ConvSpec(3, 1, 5, 7)
    spec1 = ConvSpec(1, 1, 5, 3)
    spec9 = ConvSpec(9, 1, 5, 4)
    spec_s2 = ConvSpec(3, 2, 5, 4)
    tspec = TransposeConvSpec(3, 2, 4, 5)
    tspec4, tspec8 = TransposeConvSpec(5, 4, 4, 5), TransposeConvSpec(9, 8, 4, 5)
    tspec1 = TransposeConvSpec(1, 1, 3, 5)
    x = normal(batch, 5, 11, 9)
    w3, w1, w2 = normal(*spec3.weight_shape()), normal(*spec1.weight_shape()), \
        normal(*spec_s2.weight_shape())
    w9 = normal(*spec9.weight_shape())
    wt, wt1 = normal(*tspec.weight_shape()), normal(*tspec1.weight_shape())
    wt4, wt8 = normal(*tspec4.weight_shape()), normal(*tspec8.weight_shape())
    small = normal(batch, 4, 6, 5)

    def folded(mode, dtype=np.float32):
        # conv3x3 of a batch norm left unbuilt: the infer affine on two
        # parts, or (gamma, beta) on xhat, with the train backward too
        s = BatchNormState.create(5, dtype=dtype)
        s.gamma[...], s.beta[...] = normal(5), normal(5)
        s.running_mean[...], s.running_var[...] = normal(5), np.abs(normal(5)) + 0.5
        s.initialized = True
        y, _ = batchnorm_forward(ChannelParts([x[:, :2], x[:, 2:]] if mode == "infer" else [x]),
                                 s, mode)
        out = conv2d_forward(y, w3, normal(7), spec3)
        return out if mode == "infer" else (out, conv2d_backward(y, w3, spec3, normal(*out.shape)))

    return [
        ("conv3x3", lambda: conv2d_forward(x, w3, normal(7), spec3)),
        ("conv1x1", lambda: conv2d_forward(x, w1, np.arange(3, dtype=np.float32), spec1)),
        ("conv3x3_parts_head", lambda: conv2d_forward(
            ChannelParts([x[:, :2], x[:, 2:]]), w3, normal(7), spec3,
            head=(normal(2, 7, 1, 1), normal(2)))),
        ("conv3x3_folded_infer", lambda: folded("infer")),
        ("conv3x3_folded_infer_float64", lambda: folded("infer", np.float64)),
        ("conv3x3_folded_train", lambda: folded("train")),
        ("conv_backward", lambda: conv2d_backward(x, w3, spec3, normal(batch, 7, 11, 9))),
        ("conv9x9_backward", lambda: conv2d_backward(x, w9, spec9, normal(batch, 4, 11, 9))),
        ("conv_s2_backward", lambda: conv2d_backward(x, w2, spec_s2, normal(batch, 4, 6, 5))),
        ("conv1x1_backward", lambda: conv2d_backward(x, w1, spec1, normal(batch, 3, 11, 9))),
        ("convT", lambda: convT2d_forward(small, wt, np.ones(5, np.float32), tspec,
                                          out_hw=(11, 9))),
        ("convT_s4", lambda: convT2d_forward(normal(batch, 4, 6, 3), wt4, normal(5), tspec4,
                                             out_hw=(23, 9))),
        ("convT_s8", lambda: convT2d_forward(normal(batch, 4, 5, 2), wt8, normal(5), tspec8,
                                             out_hw=(37, 9))),
        ("convT1x1", lambda: convT2d_forward(normal(batch, 3, 11, 9), wt1, None, tspec1)),
        ("convT_backward", lambda: convT2d_backward(small, wt, tspec, normal(batch, 5, 12, 10))),
    ]


def _map_passes(batch):
    normal = _normal(4)
    x, d = normal(batch, 5, 7, 6), normal(batch, 5, 7, 6)
    x[0, 0, 0, :2] = [0.0, -0.0]

    def train_norm():
        s = BatchNormState.create(5)
        s.gamma[...], s.beta[...] = normal(5), normal(5)
        y, cache = batchnorm_forward(x, s, "train")
        return y, cache, s.running_mean, s.running_var, batchnorm_backward(d, s, cache)

    def infer_norm():
        s = BatchNormState.create(5)
        s.running_mean[...], s.running_var[...] = normal(5), np.abs(normal(5)) + 0.5
        s.initialized = True
        return batchnorm_forward(x, s, "infer")[0]

    def masks():
        y, mask = dropout(x, 0.3, EngineRng(5), "train")
        return y, mask, dropout_backward(d, mask, 0.3)

    def masks_in_place():
        y = x.copy()
        out, mask = dropout(y, 0.3, EngineRng(5), "train", out=y)
        assert out is y
        return y, mask

    return [
        ("relu", lambda: relu(x)),
        ("relu_backward", lambda: relu_backward(d, x)),
        ("relu_mask", lambda: tensor.relu_mask(x)),
        ("batchnorm_train", train_norm),
        ("batchnorm_infer", infer_norm),
        ("dropout", masks),
        ("dropout_in_place", masks_in_place),
        ("concat", lambda: concat_channels([x, normal(batch, 2, 7, 6), d[:, :1]])),
    ]


def _pass_ids():
    return [name for name, _ in _conv_passes(1) + _map_passes(1)]


@pytest.mark.usefixtures("pool_every_pass")
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("name", _pass_ids())
def test_pooled_pass_bytes_equal_the_in_order_run(monkeypatch, batch, name):
    # a small column budget cuts each image into an odd number of blocks:
    # conv3x3's 45-row columns and 7 output channels, 9 wide, 4 rows a block
    row_bytes = (3 * 3 * 5 + 7) * 9 * 4
    monkeypatch.setattr(tensor, "COLUMN_BUDGET", 4 * row_bytes)
    assert len(list(tensor._row_blocks(11, row_bytes))) == 3

    def run():
        passes = dict(_conv_passes(batch) + _map_passes(batch))
        return _arrays(passes[name]())

    in_order = _on(1, run)
    for workers in WORKERS:
        assert _on(workers, run) == in_order, workers


@pytest.mark.usefixtures("pool_every_pass")
def test_train_loop_bytes_do_not_depend_on_the_worker_count(tmp_path):
    samples = make_rectangles_dataset(6, (32, 32), seed=8)
    cfg = TrainConfig(max_epochs=2, batch_size=4, seed=5, dropout_rate=0.3, augment=True)
    digests = []
    for workers in (1, 2):
        result = _on(workers, lambda: train_loop(samples, cfg))
        for name in ("best", "last"):
            save_checkpoint(tmp_path / f"{workers}{name}.ckpt", getattr(result, name))
        digests.append((result.history.as_table(),
                        (tmp_path / f"{workers}best.ckpt").read_bytes(),
                        (tmp_path / f"{workers}last.ckpt").read_bytes()))
    assert digests[0] == digests[1]


blas = pytest.mark.skipif(tensor._PIN.blas is None, reason="no OpenBLAS thread control")


def test_an_openblas_build_gets_its_thread_control():
    # without it every pass runs in order on one core, and the tests
    # marked blas skip rather than fail
    build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in build.get("name", "").lower():
        pytest.skip(f"numpy's BLAS is {build.get('name')!r}, not OpenBLAS")
    assert tensor._PIN.blas is not None, build["name"]


@blas
@pytest.mark.usefixtures("pool_every_pass")
@pytest.mark.parametrize("caller", [1, 2])
def test_blas_threads_pinned_in_a_pass_and_restored_after(caller):
    get, put = tensor._PIN.blas
    saved = get()
    try:
        put(caller)
        with tensor.workers(2):
            inside = list(tensor._parts(lambda part: get(), range(4), 1))
        assert inside == [1, 1, 1, 1]
        assert get() == caller
        x = np.ones((1, 2, 5, 5), np.float32)
        conv2d_forward(x, np.ones((3, 2, 3, 3), np.float32), None, ConvSpec(3, 1, 2, 3))
        assert get() == caller
    finally:
        put(saved)


@blas
@pytest.mark.usefixtures("pool_every_pass")
def test_blas_threads_restored_when_a_part_fails():
    get, _ = tensor._PIN.blas
    before = get()

    def fail(part):
        if part == 2:
            raise ValueError("part 2")

    with tensor.workers(2), pytest.raises(ValueError, match="part 2"):
        list(tensor._parts(fail, range(5), 1))
    assert get() == before
    assert tensor._PIN.depth == 0


@blas
@pytest.mark.parametrize("shape,spec,pooled", [
    ((8, 3, 48, 64), ConvSpec(3, 1, 3, 16), False),  # L2: 27 x 3072 columns a part
    ((8, 16, 48, 64), ConvSpec(3, 2, 16, 16), False),  # L5: 144 x 768
    ((1, 128, 240, 320), ConvSpec(1, 1, 128, 1), True),  # L32: reads 128 x 8000
    ((8, 112, 48, 64), ConvSpec(3, 1, 112, 128), True),  # L30: 1008 x 896
], ids=["L2-48x64-batch8", "L5-48x64-batch8", "L32-240x320-batch1", "L30-48x64-batch8"])
def test_pool_judges_the_work_of_one_part(monkeypatch, shape, spec, pooled):
    # many small parts lose more to the handoffs than the second core gains
    with tensor.workers(2):
        pool, submitted = tensor._cores.pool, []
        submit = pool.submit
        monkeypatch.setattr(pool, "submit", lambda *a: submitted.append(a) or submit(*a))
        conv2d_forward(np.zeros(shape, np.float32), np.zeros(spec.weight_shape(), np.float32),
                       None, spec)
    assert bool(submitted) == pooled


def test_only_tensor_runs_a_gemm():
    # a GEMM elsewhere would run outside every pass: on OpenBLAS's threads,
    # whose idle spin holds the core the pool's next pass needs
    gemm = re.compile(r"^\s*[^@\s].*@|\b(matmul|dot|tensordot|einsum)\b")  # not a decorator
    package = Path(mvfcn.__file__).parent
    offenders = [f"{module.name}:{lineno}"
                 for module in sorted(package.glob("*.py")) if module.name != "tensor.py"
                 for lineno, line in enumerate(module.read_text().splitlines(), start=1)
                 if gemm.search(line.split("#")[0])]
    assert offenders == []


# what the C library's name lookup gives where there is no glibc mallopt
_NO_MALLOPT = {
    "macos": "types.SimpleNamespace()",  # no mallopt symbol
    "musl": "types.SimpleNamespace(mallopt=lambda param, value: 0)",  # a stub that refuses
}


def _fresh_forward(h: int, w: int, libc: str | None = None) -> tuple[bool, int, str]:
    """Run two batch-1 infer forwards in a fresh interpreter, whose allocator
    no other test has touched; with ``libc``, ``ctypes.CDLL(None)`` returns
    that instead. Returns whether the engine set the heap thresholds, the
    second forward's minor page faults, and the sha256 of its score map."""
    patch = "" if libc is None else f"""
cdll = ctypes.CDLL
ctypes.CDLL = lambda name, *args, **kwargs: {libc} if name is None else cdll(name, *args, **kwargs)
"""
    script = f"""
import ctypes, hashlib, resource, types
import numpy as np
{patch}
from mvfcn import EngineRng, build_mvfcn, forward, tensor
graph = build_mvfcn()
graph.initialize_parameters(EngineRng(0))
for state in graph.bn_states.values():
    state.initialized = True
x = np.random.default_rng(1).uniform(size=(1, 3, {h}, {w})).astype(np.float32)
forward(graph, x, mode="infer")
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
score, _ = forward(graph, x, mode="infer")
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(tensor._HEAP_KEPT, faults, hashlib.sha256(score.tobytes()).hexdigest())
"""
    path = [str(Path(mvfcn.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    kept, faults, digest = out.split()
    return kept == "True", int(faults), digest


def test_second_frame_faults_no_memory_back_in():
    # glibc's dynamic mmap threshold stops at 32 MiB, under the 34-39 MB maps
    # of a 240x320 frame, and its trim threshold gave the heap top back after
    # each pass: the second forward took about 10,600 minor faults
    kept, faults, _ = _fresh_forward(240, 320)
    if not kept:
        pytest.skip("no glibc mallopt")
    assert faults < 100


@pytest.mark.parametrize("libc", sorted(_NO_MALLOPT))
def test_engine_runs_without_mallopt(libc):
    kept, _, digest = _fresh_forward(32, 32, _NO_MALLOPT[libc])
    assert not kept
    assert digest == _fresh_forward(32, 32)[2]

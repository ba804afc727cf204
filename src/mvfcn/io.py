"""File formats: PGM/PPM image codec, ground-truth label decoding, dataset
discovery, the binary checkpoint format, and key=value config parsing.

This module does all of the package's file reads and writes: a file-system
failure becomes the reader's or writer's error class.

The config section holds the whole config-file schema: ``parse_config``
returns one flat ``TrainConfig`` (imported by ``train``). Each key is the
name of one of its typed fields or, for a ``gt_*`` key, ``gt_`` + the name
of a field of its nested ``GtMapping``. That field carries the key's one
default, and its class's ``__post_init__`` its one range check, for files
and direct construction alike; the key table is derived from those fields.

Checkpoint layout (all little-endian):

    magic "MVFC" | u32 version | u64 fingerprint | u32 entry_count
    entries sorted by (layer_id, role):
        u16 layer_id | u8 role | u8 rank | u32 dims[rank] | payload
    u64 checksum over every preceding byte

Payloads are 32-bit words: IEEE-754 floats for tensors, raw unsigned words
for the rng-position entry (role 6, layer 0). Roles 0-5 are weight, bias,
gamma, beta, running_mean, running_var; role 7 is the optimizer step count
and roles 8+r / 12+r carry the optimizer's first/second moments for the
parameter with role r. ``fingerprint`` hashes the architecture table, so a
checkpoint only loads into a graph with the identical layer layout.

``load_checkpoint`` checks the magic, version, checksum and entry framing,
and records the file in the payload's ``source``. ``apply_state`` is the
one way a payload enters a graph: before it copies anything,
``validate_payload`` checks the fingerprint, each tensor of the graph's
entry table present with its shape, any optimizer moment shaped like its
parameter, the step and rng entry sizes, and every float tensor it checks
for NaN and inf. ``save_checkpoint`` refuses a float entry that holds NaN
or inf as stored, naming its layer and entry, and writes nothing.
"""

import contextlib
import math
import os
import re
import struct
import zlib
from collections import defaultdict
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import CheckpointError, ConfigError, DataError
from .rng import STATE_WORDS

MAGIC = b"MVFC"
VERSION = 1
_FILE_HEADER = struct.Struct("<4sIQI")  # magic, version, fingerprint, entry count
_ENTRY_HEADER = struct.Struct("<HBB")   # layer_id, role, rank
_CHECKSUM = struct.Struct("<Q")

ROLE_RUNNING_MEAN = 4
ROLE_RUNNING_VAR = 5
ROLE_RNG = 6
ROLE_ADAM_STEP = 7
ADAM_M_BASE = 8
ADAM_V_BASE = 12

PARAM_ROLES = {"weight": 0, "bias": 1, "gamma": 2, "beta": 3}
# role -> the entry's name in errors
ROLE_NAMES = {ROLE_RUNNING_MEAN: "running_mean", ROLE_RUNNING_VAR: "running_var",
              ROLE_ADAM_STEP: "adam step", **{base + role: name + suffix
              for name, role in PARAM_ROLES.items()
              for base, suffix in ((0, ""), (ADAM_M_BASE, " adam m"), (ADAM_V_BASE, " adam v"))}}


def fingerprint(graph) -> int:
    """Architecture hash of ``graph``: its input channels, input divisor and
    every layer row, dropout rate included; identical tables give identical
    fingerprints regardless of the parameter values."""
    rows = [f"in:{graph.in_channels}:div:{graph.input_divisor}"]
    rows += (f"{l.id}:{l.kind}:k{l.kernel}:s{l.stride}:c{l.out_channels}"
             f":a{l.activation}:r{l.rate}:{','.join(map(str, l.inputs))}" for l in graph.layers)
    return checksum64("|".join(rows).encode())


def checksum64(data: bytes) -> int:
    """64-bit checksum built from two decorrelated CRC-32 passes."""
    lo = zlib.crc32(data)
    hi = zlib.crc32(data, 0x9E3779B9)
    return lo | (hi << 32)


def _file_op(path: Path, error, action=Path.read_bytes, verb="read"):
    """``action(path)``, by default the file's bytes; a file-system failure
    becomes ``error`` as "cannot <verb> <path>"."""
    try:
        return action(path)
    except OSError as exc:
        raise error(f"cannot {verb} {path}: {exc}") from exc


def make_parent(path, error=DataError) -> Path:
    """Create ``path``'s parent directory unless it exists; return ``path``."""
    path = Path(path)
    if _file_op(path, error, Path.is_dir, "write"):
        raise error(f"cannot write {path}: it is a directory")
    _file_op(path, error, lambda p: p.parent.mkdir(parents=True, exist_ok=True), "write")
    return path


def write_file(path, data: bytes, error=DataError) -> None:
    """Write ``data`` to ``path``, creating its parent directory on demand.

    The bytes go to a temp file beside the target, which then replaces it,
    so a process killed mid-write leaves the previous file whole. On any
    failure the temp file is removed. A symlink is followed, and a target
    that is not a regular file (a device, a FIFO) is written in place.
    """
    path = make_parent(path, error)
    if path.exists() and not path.is_file():
        _file_op(path, error, lambda p: p.write_bytes(data), "write")
        return
    target = path.resolve() if path.is_symlink() else path
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, target)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        if isinstance(exc, OSError):
            raise error(f"cannot write {path}: {exc}") from exc
        raise


# ---------------------------------------------------------------------------
# PGM / PPM codec
# ---------------------------------------------------------------------------

# magic, width, height, maxval: each number follows any run of whitespace and
# '#' comment lines and is followed by whitespace, one byte of which ends it all
_PNM_HEADER = re.compile(rb"P([56])" + rb"(?:\s|#[^\n]*\n)*(\d+)(?=\s)" * 3 + rb"\s")


def _read_pnm(path: Path):
    data = _file_op(path, DataError)
    header = _PNM_HEADER.match(data)
    if header is None:
        problem = "malformed header" if data[:2] in (b"P5", b"P6") else "not a binary PGM/PPM file"
        raise DataError(f"{path}: {problem}")
    channels = 1 if header[1] == b"5" else 3
    width, height, maxval = map(int, header.groups()[1:])
    if width < 1 or height < 1:
        raise DataError(f"{path}: empty image {width}x{height}")
    if maxval != 255:
        raise DataError(f"{path}: unsupported bit depth (maxval {maxval}, need 255)")
    need = width * height * channels
    payload = data[header.end():header.end() + need]
    if len(payload) < need:
        raise DataError(f"{path}: truncated payload ({len(payload)} of {need} bytes)")
    pixels = np.frombuffer(payload, dtype=np.uint8)
    return channels, height, width, pixels


def load_image(path):
    """Read a binary PGM (P5) or PPM (P6) into a (1, c, h, w) float32 tensor
    scaled to [0, 1]. Interleaved pixels become channel-major planes."""
    channels, h, w, pixels = _read_pnm(Path(path))
    planes = pixels.reshape(h, w, channels).transpose(2, 0, 1)
    return (planes.astype(np.float32) / 255.0)[None]


def save_image(array, path):
    """Write a [0, 1]-valued array as 8-bit PGM/PPM; value = round(255 * v).

    Accepts (h, w), (c, h, w), or (1, c, h, w) with c in {1, 3}. A bool or
    integer array encodes each value as clip(v, 0, 1) * 255.
    """
    arr = np.asarray(array)
    if arr.dtype.kind not in "biu":
        arr = arr.astype(np.float64)
    if arr.ndim == 4 and arr.shape[0] == 1:
        arr = arr[0]
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[0] not in (1, 3):
        raise DataError(f"cannot encode array of shape {np.asarray(array).shape}")
    c, h, w = arr.shape
    if arr.size == 0:
        raise DataError(f"{path}: cannot encode an empty image {w}x{h}")
    if arr.dtype.kind != "f":
        body = (arr > 0).astype(np.uint8) * 255
    elif not np.isfinite(arr).all():
        raise DataError(f"{path}: cannot encode a non-finite value")
    else:
        body = np.rint(np.clip(arr, 0.0, 1.0) * 255.0).astype(np.uint8)
    interleaved = body.transpose(1, 2, 0).tobytes()
    magic = b"P5" if c == 1 else b"P6"
    write_file(path, magic + f"\n{w} {h}\n255\n".encode() + interleaved)


def ensure_rgb(tensor):
    """Replicate a :func:`load_image` tensor (1 or 3 channels) to three."""
    if tensor.shape[1] == 3:
        return tensor
    return np.repeat(tensor, 3, axis=1)


# ---------------------------------------------------------------------------
# Ground-truth decoding
# ---------------------------------------------------------------------------

def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


@dataclass(frozen=True)
class GtMapping:
    """Label byte -> class assignment for ground-truth frames.

    Default follows the change-detection convention: 255 foreground, 0 and
    50 (shadow) background, 85/170 excluded from scoring via the roi.
    """

    foreground: tuple[int, ...] = (255,)
    background: tuple[int, ...] = (0, 50)
    exclude: tuple[int, ...] = (85, 170)
    strict: bool = True

    def __post_init__(self):
        fg, bg, ex = map(set, (self.foreground, self.background, self.exclude))
        bad = sorted(v for v in fg | bg | ex if not 0 <= v <= 255)
        _require(not bad, f"gt labels must be in [0, 255], got {bad}")
        shared = sorted(fg & bg | fg & ex | bg & ex)
        _require(not shared, f"gt label(s) {shared} sit in more than one of "
                 "foreground/background/exclude")


def load_gt(path, mapping: GtMapping = GtMapping()):
    """Decode a grayscale ground-truth frame into (mask, roi), both float32
    {0, 1} arrays of shape (h, w)."""
    path = Path(path)
    channels, h, w, pixels = _read_pnm(path)
    if channels != 1:
        raise DataError(f"{path}: ground truth must be grayscale (P5)")
    values = pixels.reshape(h, w)
    mask = np.isin(values, mapping.foreground)
    excluded = np.isin(values, mapping.exclude)
    if mapping.strict:
        known = mask | excluded | np.isin(values, mapping.background)
        if not known.all():
            bad = sorted(set(np.unique(values[~known]).tolist()))
            raise DataError(f"{path}: unmapped ground-truth value(s) {bad}")
    return mask.astype(np.float32), (~excluded).astype(np.float32)


# ---------------------------------------------------------------------------
# Dataset discovery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FramePair:
    index: int
    image_path: Path
    gt_path: Path


@dataclass(frozen=True)
class DatasetManifest:
    name: str
    frames: tuple[FramePair, ...]
    roi_path: Path | None = None


def _index_files(directory: Path, suffixes=(".pgm", ".ppm")) -> dict[int, Path]:
    """Map the last digit run of each file stem to its path, for files whose
    suffix is in ``suffixes``; two files with the same index are an error."""
    indexed = {}
    for entry in _file_op(directory, DataError, lambda d: sorted(d.iterdir())):
        if entry.suffix.lower() not in suffixes:
            continue
        digits = re.findall(r"\d+", entry.stem)
        if not digits:
            continue
        idx = int(digits[-1])
        if idx in indexed:
            raise DataError(f"duplicate frame index {idx} in {directory}")
        indexed[idx] = entry
    return indexed


def discover_dataset(root) -> DatasetManifest:
    """Scan a `<root>/input` + `<root>/groundtruth` tree into an ordered,
    index-aligned manifest.

    Every input frame needs its ground truth, and the frame numbering may
    have no gaps.
    """
    root = Path(root)
    inputs = _index_files(root / "input")
    gts = _index_files(root / "groundtruth")
    if not inputs or not gts:
        raise DataError(f"{root}: empty input/ or groundtruth/ directory")
    orphan_gts = sorted(set(gts) - set(inputs))
    if orphan_gts:
        raise DataError(f"{root}: ground-truth frames {orphan_gts} have no input frame")
    frames = []
    for idx in sorted(inputs):
        if idx not in gts:
            raise DataError(f"{root}: input frame {idx} has no ground truth")
        frames.append(FramePair(idx, inputs[idx], gts[idx]))
    indices = [f.index for f in frames]
    gaps = [b for a, b in zip(indices, indices[1:]) if b != a + 1]
    if gaps:
        raise DataError(f"{root}: frame numbering has gaps before {gaps}")
    roi = root / "ROI.pgm"
    return DatasetManifest(name=root.name, frames=tuple(frames),
                           roi_path=roi if roi.is_file() else None)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

@dataclass
class CheckpointPayload:
    """In-memory checkpoint: architecture fingerprint plus one array per
    (layer_id, role) entry; ``source`` is the file that errors name."""

    fingerprint: int
    entries: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    source: str = field(default="checkpoint", compare=False)


def _state_entries(graph):
    """Yield (key, name, live array, moment keys) for every tensor a
    checkpoint of ``graph`` must hold: the parameters, whose moment keys map
    each ``AdamState`` moment attribute to its entry key, then the batch-norm
    running statistics, which have none."""
    for lid, name, arr in graph.parameter_items():
        role = PARAM_ROLES[name]
        yield (lid, role), name, arr, {"m": (lid, ADAM_M_BASE + role),
                                       "v": (lid, ADAM_V_BASE + role)}
    for lid, state in graph.bn_states.items():
        yield (lid, ROLE_RUNNING_MEAN), "running_mean", state.running_mean, {}
        yield (lid, ROLE_RUNNING_VAR), "running_var", state.running_var, {}


def _entry_dtype(role: int) -> str:
    return "<u4" if role == ROLE_RNG else "<f4"


def snapshot_state(graph, rng=None, adam=None) -> CheckpointPayload:
    """Deep-copy the graph's parameters, batch-norm statistics, the rng
    position, and (optionally) the optimizer moments."""
    payload = CheckpointPayload(fingerprint=fingerprint(graph))
    entries = payload.entries
    for key, name, arr, moment_keys in _state_entries(graph):
        entries[key] = arr.copy()
        for attr, moment_key in moment_keys.items() if adam is not None else ():
            moment = getattr(adam, attr).get((key[0], name))
            if moment is not None:
                entries[moment_key] = moment.copy()
    if rng is not None:
        entries[(0, ROLE_RNG)] = rng.state_words()
    if adam is not None:
        entries[(0, ROLE_ADAM_STEP)] = np.array([adam.t], dtype=np.float32)
    return payload


def save_checkpoint(path, payload: CheckpointPayload) -> None:
    """Serialize a payload; identical payloads produce byte-identical files.
    A float entry that holds NaN or inf as stored is refused, unwritten."""
    chunks = [_FILE_HEADER.pack(MAGIC, VERSION, payload.fingerprint, len(payload.entries))]
    for (lid, role) in sorted(payload.entries):
        arr = payload.entries[(lid, role)]
        dims = arr.shape if arr.ndim else (1,)
        stored = np.ascontiguousarray(arr, dtype=_entry_dtype(role))
        if role != ROLE_RNG and not np.isfinite(stored).all():
            raise CheckpointError(f"{path}: layer {lid} {ROLE_NAMES.get(role, f'role {role}')} "
                                  "holds a non-finite value; nothing was written")
        chunks.append(_ENTRY_HEADER.pack(lid, role, len(dims)))
        chunks.append(struct.pack(f"<{len(dims)}I", *dims))
        chunks.append(stored.tobytes())
    body = b"".join(chunks)
    write_file(path, body + _CHECKSUM.pack(checksum64(body)), CheckpointError)


def load_checkpoint(path, graph=None) -> CheckpointPayload:
    """Parse a checkpoint file into a payload whose ``source`` is ``path``.

    When ``graph`` is given, the payload is also checked against it by
    ``validate_payload`` before anything is returned.
    """
    path = Path(path)
    data = _file_op(path, CheckpointError)
    end = len(data) - _CHECKSUM.size
    if end < _FILE_HEADER.size:
        raise CheckpointError(f"{path}: file too short to be a checkpoint")
    magic, version, arch_hash, count = _FILE_HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}")
    if checksum64(data[:end]) != _CHECKSUM.unpack_from(data, end)[0]:
        raise CheckpointError(f"{path}: checksum mismatch (corrupt or truncated)")
    if version != VERSION:
        raise CheckpointError(f"{path}: unknown format version {version}")
    payload = CheckpointPayload(fingerprint=arch_hash, source=str(path))
    offset = _FILE_HEADER.size
    for _ in range(count):
        if offset + _ENTRY_HEADER.size > end:
            raise CheckpointError(f"{path}: truncated entry table")
        lid, role, rank = _ENTRY_HEADER.unpack_from(data, offset)
        offset += _ENTRY_HEADER.size
        if offset + 4 * rank > end:
            raise CheckpointError(f"{path}: truncated entry dims")
        dims = struct.unpack_from(f"<{rank}I", data, offset)
        offset += 4 * rank
        size = math.prod(dims)
        if offset + 4 * size > end:
            raise CheckpointError(f"{path}: truncated entry payload")
        raw = data[offset:offset + 4 * size]
        offset += 4 * size
        payload.entries[(lid, role)] = (
            np.frombuffer(raw, dtype=_entry_dtype(role)).reshape(dims).copy())
    if offset != end:
        raise CheckpointError(f"{path}: {end - offset} stray bytes after entries")
    if graph is not None:
        validate_payload(graph, payload)
    return payload


def validate_payload(graph, payload: CheckpointPayload):
    """Refuse anything but an exact match to ``graph`` (see the module
    docstring for the list of checks), naming the file, layer and tensor."""
    source = payload.source
    if payload.fingerprint != fingerprint(graph):
        raise CheckpointError(
            f"{source}: architecture fingerprint {payload.fingerprint:#018x} does "
            f"not match the graph ({fingerprint(graph):#018x})"
        )

    def check(key, shape, required=False):
        got = payload.entries.get(key)
        if got is None:
            if required:
                raise CheckpointError(f"{source}: missing {ROLE_NAMES[key[1]]} for layer {key[0]}")
            return
        where = f"{source}: layer {key[0]} {ROLE_NAMES[key[1]]}"
        if got.shape != shape:
            raise CheckpointError(f"{where} shaped {got.shape}, graph has {shape}")
        if not np.isfinite(got).all():
            raise CheckpointError(f"{where} holds a non-finite value")

    for key, _, arr, moment_keys in _state_entries(graph):
        check(key, arr.shape, required=True)
        for moment_key in moment_keys.values():
            check(moment_key, arr.shape)
    check((0, ROLE_ADAM_STEP), (1,))
    rng_entry = payload.entries.get((0, ROLE_RNG))
    if rng_entry is not None and rng_entry.size != STATE_WORDS:
        raise CheckpointError(f"{source}: rng entry must hold {STATE_WORDS} words")


def apply_state(graph, payload: CheckpointPayload, rng=None, adam=None) -> None:
    """Validate a payload against the graph, then copy it in (and optionally
    restore the rng position and optimizer moments)."""
    validate_payload(graph, payload)
    entries = payload.entries
    restore_adam = adam is not None and (0, ROLE_ADAM_STEP) in entries
    if restore_adam:
        adam.t = int(entries[(0, ROLE_ADAM_STEP)][0])
        adam.m.clear()
        adam.v.clear()
    for key, name, arr, moment_keys in _state_entries(graph):
        np.copyto(arr, entries[key])
        if key[1] == ROLE_RUNNING_VAR:
            graph.bn_states[key[0]].initialized = True
        for attr, moment_key in moment_keys.items() if restore_adam else ():
            if moment_key in entries:
                getattr(adam, attr)[(key[0], name)] = entries[moment_key].copy()
    if rng is not None and (0, ROLE_RNG) in entries:
        rng.set_state_words(entries[(0, ROLE_RNG)])


# ---------------------------------------------------------------------------
# Score-map sidecars (exact float32 copies of emitted score maps)
# ---------------------------------------------------------------------------

SCORE_MAGIC = b"MVSC"


def save_scoremap(score, path) -> None:
    score = np.asarray(score, dtype=np.float32)
    if score.ndim != 2:
        raise DataError(f"score map must be 2-d, got {score.shape}")
    h, w = score.shape
    if score.size == 0:
        raise DataError(f"{path}: cannot write an empty score map {h}x{w}")
    if not np.isfinite(score).all():
        raise DataError(f"{path}: cannot write a non-finite score")
    write_file(path, SCORE_MAGIC + struct.pack("<II", h, w)
               + np.ascontiguousarray(score, dtype="<f4").tobytes())


def load_scoremap(path):
    path = Path(path)
    data = _file_op(path, DataError)
    if data[:4] != SCORE_MAGIC or len(data) < 12:
        raise DataError(f"{path}: not a score-map sidecar")
    h, w = struct.unpack_from("<II", data, 4)
    if h == 0 or w == 0:
        raise DataError(f"{path}: empty score map {h}x{w}")
    need = 12 + 4 * h * w
    if len(data) != need:
        raise DataError(f"{path}: {len(data)} bytes, a {h}x{w} score map takes {need}")
    score = np.frombuffer(data[12:], dtype="<f4").reshape(h, w).copy()
    if not np.isfinite(score).all():
        raise DataError(f"{path}: score map holds a non-finite value")
    return score


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    """A parsed config file: the settings of one per-sequence training run,
    including the network input size, the random affine jitter applied
    identically to a frame and its mask, and the ground-truth label mapping."""

    input_height: int = 240
    input_width: int = 320
    base_lr: float = 2e-4
    lr_decay_factor: float = 0.8
    lr_decay_every: int = 5          # 0 disables the schedule
    batch_size: int = 8
    max_epochs: int = 30
    dropout_rate: float = 0.3
    seed: int = 7
    augment: bool = True
    max_rotation_deg: float = 10.0
    shift_fraction: float = 0.1
    zoom_fraction: float = 0.1
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    bn_momentum: float = 0.99
    split_ratio: float = 0.7
    gt: GtMapping = field(default_factory=GtMapping)

    def __post_init__(self):
        h, w = self.input_height, self.input_width
        _require(h > 0 and w > 0, "input size must be positive")
        _require(h % 16 == 0 and w % 16 == 0, f"input size {h}x{w} must be divisible by 16")
        _require(self.seed >= 0, "seed must be non-negative")
        _require(0 < self.base_lr < math.inf, "base_lr must be positive and finite")
        _require(0 < self.lr_decay_factor < 1, "lr_decay_factor must be in (0, 1)")
        _require(self.lr_decay_every >= 0, "lr_decay_every must be >= 0")
        _require(self.batch_size >= 1, "batch_size must be >= 1")
        _require(self.max_epochs >= 1, "max_epochs must be >= 1")
        _require(0 <= self.dropout_rate < 1, "dropout_rate must be in [0, 1)")
        _require(0 <= self.max_rotation_deg < 180, "max_rotation_deg must be in [0, 180)")
        _require(0 <= self.shift_fraction < 1, "shift_fraction must be in [0, 1)")
        _require(0 <= self.zoom_fraction < 1, "zoom_fraction must be in [0, 1)")
        _require(0 < self.adam_beta1 < 1 and 0 < self.adam_beta2 < 1,
                 "adam betas must be in (0, 1)")
        _require(0 < self.adam_eps < math.inf, "adam_eps must be positive and finite")
        _require(0 < self.bn_momentum < 1, "bn_momentum must be in (0, 1)")
        _require(0 < self.split_ratio < 1, "split_ratio must be in (0, 1)")


def _parse_bool(value: str) -> bool:
    v = value.strip().lower()
    if v in ("true", "false"):
        return v == "true"
    raise ConfigError(f"expected true/false, got {value!r}")


def _parse_int_list(value: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in value.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {value!r}") from exc


def _config_keys() -> dict:
    """File key -> (owner class, field name, parser) for every typed field:
    a ``TrainConfig`` field's key is its name, a ``GtMapping`` field's is
    ``gt_`` + its name."""
    parsers = {int: int, float: float, bool: _parse_bool, tuple[int, ...]: _parse_int_list}
    table = {}
    for owner, prefix in ((TrainConfig, ""), (GtMapping, "gt_")):
        for f in fields(owner):
            if f.type in parsers:
                table[prefix + f.name] = (owner, f.name, parsers[f.type])
    return table


_CONFIG_KEYS = _config_keys()


def parse_config(path) -> TrainConfig:
    """Parse a UTF-8 `key = value` file; `#` starts a full-line comment.

    Unknown keys and out-of-range values are rejected.
    """
    path = Path(path)
    try:
        text = _file_op(path, ConfigError).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
    values = defaultdict(dict)  # owner class -> {field name: parsed value}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        owner, name, parse = _CONFIG_KEYS[key]
        if name in values[owner]:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[owner][name] = parse(value.strip())
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    try:
        return TrainConfig(gt=GtMapping(**values[GtMapping]), **values[TrainConfig])
    except ConfigError as exc:  # a range check: name the file, as the loop does
        raise ConfigError(f"{path}: {exc}") from exc

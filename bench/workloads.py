"""The benchmark's workloads: seeded inputs, one timed task, and the checks
that the program's outputs are right.

Every workload follows the same protocol, driven by ``run.py``:

* ``setup(work, seed)`` makes the inputs from the seed and writes them
  under ``work``; it is timed as ``setup_s``.
* ``task()`` runs the program once on those inputs and returns a
  :class:`TaskResult` with the wall time of the timed part only.
* ``digest()`` hashes every output of the last task. All tasks of one run
  see the same inputs, so every digest must equal the first one.
* ``check()`` inspects the outputs of the last task in depth and returns
  the indices of the frames that are wrong.
* ``final_check()`` runs the reference computations that are too large to
  repeat (a float64 forward, a stored training reference) once, after the
  measured loop, and also returns bad frame indices.

All calls into the program go through module attributes
(``mtrain.train_loop``, ``postproc.otsu_threshold``, ...) so that the
tracer's wrappers see them.
"""

import contextlib
import hashlib
import io as pyio
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mvfcn.cli as cli
import mvfcn.io as mio
import mvfcn.metrics as mmetrics
import mvfcn.postproc as postproc
import mvfcn.train as mtrain
from mvfcn.errors import DataError
from mvfcn.graph import build_mvfcn, forward
from mvfcn.rng import EngineRng
from mvfcn.synth import make_rectangles_dataset, write_dataset_tree
from mvfcn.tensor import INFER

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference.json"

# float32 against float64 through 32 layers with fan-in up to 1008 agrees to
# about 1e-5 on the [0, 1] score; a wrong kernel is off by 1e-2 or more.
SCORE_ATOL = 1e-4
# A conv rewrite may reorder float sums: losses then move in the 6th digit,
# and an Otsu bin edge can flip a few pixels of the FoM.
LOSS_RTOL = 1e-3
FOM_ATOL = 0.02

MIN_AREA = 50


@dataclass
class TaskResult:
    wall_s: float               # timed part of the task
    frame_s: list[float]        # per-frame latency samples
    frames: int                 # operations attempted
    digest: str = ""
    traced: bool = False
    failed: int = 0


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else str(chunk).encode())
    return h.hexdigest()


def _payload_bytes(payload) -> bytes:
    return b"".join(payload.entries[k].tobytes() for k in sorted(payload.entries))


# ---------------------------------------------------------------------------
# train_epoch
# ---------------------------------------------------------------------------

def train_config(seed: int, batch: int = 8, **overrides) -> mtrain.TrainConfig:
    """One epoch at the paper's batch size, augmentation and dropout."""
    return mtrain.TrainConfig(batch_size=batch, max_epochs=1, dropout_rate=0.3,
                              seed=seed, **overrides)


def history_values(row) -> dict:
    return {"train_loss": row.train_loss, "val_loss": row.val_loss,
            "train_fom": row.train_fom, "val_fom": row.val_fom}


def history_matches(got: dict, want: dict) -> bool:
    """Losses within LOSS_RTOL, FoMs within FOM_ATOL, everything finite."""
    if not all(math.isfinite(v) for v in got.values()):
        return False
    return all(
        math.isclose(got[k], want[k], rel_tol=LOSS_RTOL) if k.endswith("loss")
        else abs(got[k] - want[k]) <= FOM_ATOL
        for k in want
    )


def run_canary(size, frames, batch, seed, base_lr) -> dict:
    """A fixed-seed miniature of train_epoch whose history row is stored in
    reference.json. Runs use arbitrary seeds, so this is what pins the
    numerics of the whole training path to known values."""
    samples = make_rectangles_dataset(frames, size, seed)
    result = mtrain.train_loop(samples, train_config(seed, batch, base_lr=base_lr))
    return history_values(result.history.rows[0])


class TrainEpoch:
    """``train.train_loop`` for one epoch: 16 training frames in two steps
    of batch 8, then ``evaluate_split`` over all 23 frames."""

    name = "train_epoch"

    def __init__(self, frames: int = 23, size=(48, 64), batch: int = 8):
        self.n, self.net_hw, self.batch = frames, size, batch

    def setup(self, work: Path, seed: int) -> None:
        samples = make_rectangles_dataset(self.n, self.net_hw, seed)
        manifest = mio.discover_dataset(write_dataset_tree(samples, work / "data"))
        self.samples = cli.load_samples(manifest, self.net_hw, mio.GtMapping())
        self.cfg = train_config(seed, self.batch)
        self.trained = mtrain.ordered_split(self.n, self.cfg.split_ratio).k

    def task(self) -> TaskResult:
        t0 = time.perf_counter()
        self.result = mtrain.train_loop(self.samples, self.cfg)
        wall = time.perf_counter() - t0
        return TaskResult(wall, [wall / self.trained], self.trained)

    def digest(self) -> str:
        r = self.result
        return _sha(r.history.as_table(), _payload_bytes(r.best), _payload_bytes(r.last))

    def check(self) -> set:
        row = history_values(self.result.history.rows[0])
        if all(math.isfinite(v) for v in row.values()):
            return set()
        return set(range(self.trained))

    def final_check(self) -> set:
        ref = json.loads(REFERENCE.read_text())["train_canary"]
        got = run_canary(tuple(ref["size"]), ref["frames"], ref["batch"],
                         ref["seed"], ref["base_lr"])
        return set() if history_matches(got, ref["history"]) else set(range(self.trained))


# ---------------------------------------------------------------------------
# infer_pipeline
# ---------------------------------------------------------------------------

def scores_match(score, reference, atol: float = SCORE_ATOL) -> bool:
    score = np.asarray(score)
    return (score.shape == reference.shape and bool(np.isfinite(score).all())
            and float(np.max(np.abs(score.astype(np.float64) - reference))) <= atol)


def reference_score(ckpt: Path, image) -> np.ndarray:
    """The same graph and checkpoint run in float64 on one (c, h, w) frame."""
    graph = build_mvfcn()
    graph.initialize_parameters(EngineRng(0), dtype=np.float64)
    mio.apply_state(graph, mio.load_checkpoint(ckpt, graph))
    score, _ = forward(graph, np.asarray(image, dtype=np.float64)[None], mode=INFER)
    return score[0, 0]


# The frames come from --seed but the untrained model does not: how much of
# a score map clears Otsu depends on the init seed far more than on the
# frame (8k to 69k of 76.8k pixels), and with it the cleanup cost. Seed 1
# gives about 25k foreground pixels on every frame.
MODEL_SEED = 1


class InferPipeline:
    """In-process ``mvfcn.cli.main``: infer --save-scores, binarize --method
    otsu --min-area 50, eval, over a synthetic 240x320 sequence."""

    name = "infer_pipeline"
    net_hw = cli.NETWORK_INPUT

    def __init__(self, frames: int = 1):
        self.n = frames

    def setup(self, work: Path, seed: int) -> None:
        self.work = work
        self.samples = make_rectangles_dataset(self.n, cli.NETWORK_INPUT, seed)
        data = write_dataset_tree(self.samples, work / "data")
        self.inputs = sorted(str(p) for p in (data / "input").iterdir())
        self.gt_dir = data / "groundtruth"
        graph = build_mvfcn()
        graph.initialize_parameters(EngineRng(MODEL_SEED))
        self.ckpt = work / "model.ckpt"
        mio.save_checkpoint(self.ckpt, mio.snapshot_state(graph))
        self.scores, self.masks = work / "scores", work / "masks"
        self.report = work / "report.txt"

    def task(self) -> TaskResult:
        stages = [
            ["infer", "--ckpt", self.ckpt, "--in", *self.inputs, "--out", self.scores,
             "--save-scores"],
            ["binarize", "--scores", self.scores, "--method", "otsu",
             "--min-area", MIN_AREA, "--out", self.masks],
            ["eval", "--pred", self.masks, "--gt", self.gt_dir, "--report", self.report],
        ]
        log = pyio.StringIO()
        ends = []
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            self.codes = []
            for argv in stages:
                self.codes.append(cli.main([str(a) for a in argv]))
                ends.append(time.perf_counter())
        self.log = log.getvalue()
        return TaskResult(ends[-1] - t0, [(ends[0] - t0) / self.n], self.n)

    def digest(self) -> str:
        files = sorted(p for d in (self.scores, self.masks) if d.is_dir() for p in d.iterdir())
        if self.report.is_file():
            files.append(self.report)
        return _sha(self.codes, self.log.replace(str(self.work), "WORK"),
                    *(p.read_bytes() for p in files))

    def _sidecars(self):
        return [mio.load_scoremap(p) for p in sorted(self.scores.glob("*.f32"))]

    def check(self) -> set:
        """Masks equal Otsu + cleanup of the sidecars, and the eval report
        equals ``evaluate_sequence`` on those in-memory masks."""
        if any(self.codes):
            return set(range(self.n))
        masks = [postproc.remove_small_regions(
                     postproc.threshold_global(s, postproc.otsu_threshold(s).tau), MIN_AREA)
                 for s in self._sidecars()]
        written = [mio.load_image(p)[0, 0] >= 0.5 for p in sorted(self.masks.glob("*.pgm"))]
        bad = {i for i, (m, w) in enumerate(zip(masks, written))
               if not np.array_equal(m.astype(bool), w)}
        report = mmetrics.evaluate_sequence(masks, [s.gt for s in self.samples])
        if self.report.read_text() != mmetrics.format_report(report) + "\n":
            bad = set(range(self.n))
        return bad

    def final_check(self) -> set:
        image = cli.resize_nearest(mio.load_image(self.inputs[0]), *cli.NETWORK_INPUT)[0]
        ok = scores_match(self._sidecars()[0], reference_score(self.ckpt, image))
        return set() if ok else {0}


# ---------------------------------------------------------------------------
# post_heavy
# ---------------------------------------------------------------------------

BLOCK = 16        # speckle grid; each block holds one big or four small squares
BG_MAX = 0.245    # background scores stay below the Otsu bin edge 0.25
FG_MIN = 0.75
AXES = (52, 75)   # ellipse semi-axes, rows and columns: about 12.3k pixels
SPECKLE_BLOCKS = 200   # active blocks at density 1.0; at least 212 lie outside the ellipse box
BIG_SHARE = 0.2


def _sides(rng, low: int, high: int, count: int) -> list[int]:
    """``count`` square sides cycling through low..high-1, in seeded order,
    so their total area depends on ``count`` only."""
    return [int(v) for v in rng.permutation(np.resize(np.arange(low, high), count))]


def make_score_sequence(count: int, seed: int, size=(240, 320)):
    """Seeded score maps with one foreground ellipse plus speckle.

    Returns (scores, gts, expected): float32 maps, the ellipse masks, and
    the masks that Otsu plus 8-connected cleanup at MIN_AREA must produce.
    Scores sit in [0, BG_MAX) or [FG_MIN, 1), so every threshold between
    the two modes gives the same mask. Speckle squares are placed on a
    grid with at least one empty row and column between them and keep two
    pixels from the ellipse's bounding box, so components never merge: a
    square of side <= 7 (area < 50) is removed and one of side >= 8 is
    kept. The frames take the speckle densities of a ramp from 0.3 to 1.0
    in a seeded order, which spreads the cleanup cost per frame.

    The seed moves the ellipse, picks the active blocks and orders the
    square sides, but the amount of work per frame is fixed: the ellipse
    size, the number of active blocks (density x SPECKLE_BLOCKS), the
    share of big squares and the multiset of sides do not depend on it.
    So the cost of the median frame, and of a whole sequence, is nearly
    the same for every seed.
    """
    h, w = size
    ra, rb = AXES
    rng = np.random.Generator(np.random.PCG64(seed))
    density = rng.permutation(np.linspace(0.3, 1.0, count))
    rows, cols = np.mgrid[0:h, 0:w]
    scores, gts, expected = [], [], []
    for p in density:
        cy = rng.uniform(ra + 2, h - ra - 2)
        cx = rng.uniform(rb + 2, w - rb - 2)
        blob = ((rows - cy) / ra) ** 2 + ((cols - cx) / rb) ** 2 <= 1.0
        keep = blob.copy()
        fg = blob.copy()
        y0, y1 = int(cy - ra) - 2, int(cy + ra) + 3
        x0, x1 = int(cx - rb) - 2, int(cx + rb) + 3
        free = [(by, bx) for by in range(0, h, BLOCK) for bx in range(0, w, BLOCK)
                if not (by < y1 and by + BLOCK > y0 and bx < x1 and bx + BLOCK > x0)]
        active = round(p * SPECKLE_BLOCKS)
        picked = rng.choice(len(free), size=active, replace=False)
        big = round(BIG_SHARE * active)
        big_sides = iter(_sides(rng, 8, BLOCK, big))
        small_sides = iter(_sides(rng, 1, BLOCK // 2, 4 * (active - big)))
        for n, k in enumerate(picked):
            by, bx = free[k]
            if n < big:
                s = next(big_sides)
                fg[by:by + s, bx:bx + s] = True
                keep[by:by + s, bx:bx + s] = True
                continue
            for oy in (0, BLOCK // 2):
                for ox in (0, BLOCK // 2):
                    s = next(small_sides)
                    fg[by + oy:by + oy + s, bx + ox:bx + ox + s] = True
        score = np.where(fg, rng.uniform(FG_MIN, 1.0, size), rng.uniform(0.0, BG_MAX, size))
        scores.append(score.astype(np.float32))
        gts.append(blob.astype(np.uint8))
        expected.append(keep.astype(np.uint8))
    return scores, gts, expected


def pgm_bytes(mask) -> bytes:
    """The exact file ``io.save_image`` must write for a {0, 1} mask."""
    h, w = mask.shape
    return b"P5" + f"\n{w} {h}\n255\n".encode() + (np.asarray(mask, np.uint8) * 255).tobytes()


class PostHeavy:
    """Per-frame binarize and cleanup through the public io and postproc
    functions, then ``metrics.evaluate_sequence``; no network."""

    name = "post_heavy"
    min_tasks = 12   # >= 120 frames, so at least 12 lie beyond the frame p90

    def __init__(self, frames: int = 10):
        self.n = frames

    def setup(self, work: Path, seed: int) -> None:
        scores, self.gts, self.expected = make_score_sequence(self.n, seed)
        (work / "scores").mkdir(parents=True)
        self.out = work / "masks"
        self.out.mkdir()
        self.paths = [work / "scores" / f"score{i:06d}.f32" for i in range(1, self.n + 1)]
        for score, path in zip(scores, self.paths):
            mio.save_scoremap(score, path)

    def frame(self, path: Path):
        """Binarize and clean one score map; None when the program refuses it."""
        try:
            score = mio.load_scoremap(path)
            mask = postproc.threshold_global(score, postproc.otsu_threshold(score).tau)
            mask = postproc.remove_small_regions(mask, MIN_AREA, 8)
            mio.save_image(mask, self.out / (path.stem + ".pgm"))
        except DataError:
            return None
        return mask

    def task(self) -> TaskResult:
        self.masks, frame_s = [], []
        t0 = time.perf_counter()
        for path in self.paths:
            f0 = time.perf_counter()
            self.masks.append(self.frame(path))
            frame_s.append(time.perf_counter() - f0)
        done = [(m, g) for m, g in zip(self.masks, self.gts) if m is not None]
        self.report = mmetrics.evaluate_sequence(*zip(*done)) if done else None
        wall = time.perf_counter() - t0
        return TaskResult(wall, frame_s, self.n)

    def digest(self) -> str:
        return _sha(repr(self.report),
                    *(b"-" if m is None else m.tobytes() for m in self.masks))

    def check(self) -> set:
        """Masks and files byte-identical to the construction, and the
        report's pooled counts equal a direct count."""
        bad = {i for i, (m, e, p) in enumerate(zip(self.masks, self.expected, self.paths))
               if m is None or m.dtype != np.uint8 or not np.array_equal(m, e)
               or (self.out / (p.stem + ".pgm")).read_bytes() != pgm_bytes(e)}
        done = [i for i, m in enumerate(self.masks) if m is not None]
        if not done:
            return bad
        e = np.stack([self.expected[i] for i in done]).astype(bool)
        g = np.stack([self.gts[i] for i in done]).astype(bool)
        want = mmetrics.ConfusionCounts(int((e & g).sum()), int((e & ~g).sum()),
                                        int((~e & g).sum()), int((~e & ~g).sum()))
        if self.report.counts != want:
            bad |= set(range(self.n))
        return bad

    def final_check(self) -> set:
        return set()


WORKLOADS = {w.name: w for w in (TrainEpoch, InferPipeline, PostHeavy)}

"""Benchmark of the mvfcn engine. Run from the root of a checkout:

    python3 bench/run.py --workload train_epoch --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --workload all --seed 1

One run sets the workload up and runs one untimed warm-up task whose
outputs are checked in depth, then repeats set-up and task until
``--seconds`` have passed. Every task must reproduce the warm-up's outputs
byte for byte. With ``--trace 0`` the last line of stdout reports the
end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics of
a run that alternates untraced and traced tasks, and the spans go to
``bench/.traces/``. ``--workload all`` runs each workload in a fresh
process. See bench/README.md for the metrics.
"""

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_TASKS = 2

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("task_s", "s"), ("frame_s_p50", "s"))


def _load_program() -> None:
    src = ROOT / "src"
    if not (src / "mvfcn" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'mvfcn'} is missing; run from a checkout of the repository")
    sys.path.insert(0, str(src))


def measure(workload, seed: int, seconds: float, tracer=None):
    """Warm up, then set up and run tasks for ``seconds``.

    Every task gets a fresh setup, timed, so ``setup_s`` is a median over
    the whole run and every task also shows that a new setup from the same
    seed reproduces the warm-up's outputs. Returns (setup times, measured
    TaskResults, bad frames, peak RSS in MB). With a tracer, odd-numbered
    tasks run traced.
    """
    work_root = BENCH / ".work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{workload.name}-", dir=work_root) as tmp:
        workload.setup(Path(tmp) / "warmup", seed)
        workload.task()
        reference = workload.digest()
        bad = workload.check()
        setup_s, results = [], []
        start = time.perf_counter()
        work = Path(tmp) / "warmup"
        min_tasks = getattr(workload, "min_tasks", MIN_TASKS)
        while len(results) < min_tasks or time.perf_counter() - start < seconds:
            shutil.rmtree(work)
            work = Path(tmp) / f"task{len(results)}"
            t0 = time.perf_counter()
            workload.setup(work, seed)
            setup_s.append(time.perf_counter() - t0)
            traced = tracer is not None and len(results) % 2 == 1
            if traced:
                with tracer.installed(), tracer.span(tracing.TASK):
                    result = workload.task()
            else:
                result = workload.task()
            result.digest = workload.digest()
            result.traced = traced
            results.append(result)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        bad |= workload.final_check()
    for result in results:
        result.failed = len(bad) if result.digest == reference else result.frames
    return setup_s, results, bad, peak_mb


def end_to_end(setup_s, results, peak_mb) -> dict:
    return {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_mb,
        "task_s": statistics.median(r.wall_s for r in results),
        "frame_s_p50": statistics.median(f for r in results for f in r.frame_s),
    }


def tail(results) -> dict:
    """The frame p90 and how many samples lie beyond it. It is meaningful
    only with ten or more beyond (post_heavy), so it is reported beside
    the metrics rather than as one."""
    frames = sorted(f for r in results for f in r.frame_s)
    p90 = statistics.quantiles(frames, n=10, method="inclusive")[8]
    return {"frame_s_p90": p90, "beyond_p90": sum(f > p90 for f in frames),
            "frame_samples": len(frames)}


def per_layer(workload, tracer, results) -> tuple[dict, dict]:
    """Per-layer metrics of the traced tasks plus the trace file body."""
    import machine
    from mvfcn.graph import build_mvfcn

    hw = getattr(workload, "net_hw", None)
    kernels = machine.conv_kernel_counts(build_mvfcn(), hw) if hw else {}
    trees = tracing.task_trees(tracer.spans)
    values = tracing.summarize([tracing.task_metrics(t, kernels) for t in trees])
    walls = {flag: statistics.median(r.wall_s for r in results if r.traced == flag)
             for flag in (False, True)}
    values["trace.overhead_s"] = walls[True] - walls[False]
    values["machine.sgemm_gflops"] = machine.sgemm_gflops()
    body = {"kernels_computed": kernels, "untraced_task_s": walls[False],
            "traced_task_s": walls[True],
            "spans": [[s.name, s.start, s.end, s.parent, s.attrs] for s in tracer.spans]}
    return values, body


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    _load_program()
    import machine
    import workloads

    if name not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {name!r}; known: {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name]()
    tracer = tracing.Tracer() if trace else None
    setup_s, results, bad, peak_mb = measure(workload, seed, seconds, tracer)
    info = machine.machine_info(ROOT)
    if trace:
        values, body = per_layer(workload, tracer, results)
        units = dict(tracing.PER_LAYER)
        traces = BENCH / ".traces"
        traces.mkdir(exist_ok=True)
        body.update(workload=name, seed=seed, machine=info, metrics=values)
        (traces / f"{name}-seed{seed}.json").write_text(json.dumps(body))
    else:
        values, units = end_to_end(setup_s, results, peak_mb), dict(END_TO_END)
    attempted = sum(r.frames for r in results)
    failed = sum(r.failed for r in results)
    print(json.dumps({"machine": info, "workload": name, "setup_s": setup_s,
                      "task_s": [r.wall_s for r in results], **tail(results),
                      "bad_frames": sorted(bad)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process, so peak RSS is its own."""
    names = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    status = 0
    for entry in names:
        print(f"== {entry['name']}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", entry["name"], "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))], check=False)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

"""Run-to-run spread of the end-to-end metrics. Run from the root of a checkout:

    python3 bench/stability.py --workloads post_heavy --seeds 5
    python3 bench/stability.py --seeds 10 --out bench/baseline.json

Runs ``bench/run.py`` once per seed and workload, one process at a time,
then prints for each metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile spread
as a share of the median, next to the metric's bound in BENCHMARK.json.
A spread above a third of the bound is flagged; ``setup_s`` is reported
but, having the largest bound, is judged only by its median.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """(info line, result line) of one untraced run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seconds": args.seconds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        infos, runs = zip(*(run_once(workload, seed, args.seconds)
                            for seed in range(args.first_seed, args.first_seed + args.seeds)))
        summary["machine"] = infos[0]["machine"]
        if not all(r["correct"] for r in runs):
            steady = False
        stats = {}
        print(f"== {workload}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}")
        for name, bound in bounds.items():
            s = spread([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            stats[name] = s
            flag = ""
            if name != "setup_s" and s["spread"] > bound / 3:
                flag = "  <-- above a third of the bound"
                steady = False
            print(f"  {name:<14} median {s['median']:.6g} {s['unit']:<3} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.3f} "
                  f"(bound {bound}){flag}")
        s = spread([i["frame_s_p90"] for i in infos])
        s["unit"] = "s"
        stats["frame_s_p90 (info)"] = s
        print(f"  frame_s_p90    median {s['median']:.6g} s   spread {s['spread']:.3f} "
              f"(info, {min(i['beyond_p90'] for i in infos)}+ samples beyond it)")
        summary["workloads"][workload] = stats
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

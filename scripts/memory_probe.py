#!/usr/bin/env python3
"""Report the memory and wall time of two consecutive infer forwards and
two consecutive train steps of the canonical network on random input.

For each pass it prints the tracemalloc peak (the most memory numpy and
Python held at once during the pass), the memory still held after it,
the wall time and the minor page faults the process took in it (the
ru_minflt delta: pages the kernel mapped in, zeroed, on first touch).
Each infer forward counts from where its pass started; both train steps
count from where the first one started, and the steps hold their cache
the way train_loop does, bound until the next forward returns, so memory
a step keeps into the next one shows in the second step's peak.
At exit it prints the process's peak resident set size (ru_maxrss in MB
of 1024 KiB, as bench/run.py reads peak_rss_mb), which also counts the
interpreter, BLAS buffers, tracemalloc's own records and the heap the
allocator keeps. Importing the engine sets glibc's mmap threshold to
64 MiB and its trim threshold to 128 MiB (``tensor.MMAP_THRESHOLD``), so
freed arrays up to 64 MiB stay in the heap for the next pass, and only
larger ones, such as the batch-8 240x320 maps, go back to the kernel.
So the first pass faults its memory in and the next ones of the same
size do not. Reporting only: nothing is checked against a bound.

    PYTHONPATH=src python3 scripts/memory_probe.py --size 240x320 --batch 1 --pass infer
    PYTHONPATH=src python3 scripts/memory_probe.py --size 240x320 --batch 2 --pass train
"""

import argparse
import resource
import time
import tracemalloc

import numpy as np

from mvfcn import AdamState, EngineRng, adam_step, backward, bce_loss, build_mvfcn, forward


def _size(text):
    h, _, w = text.partition("x")
    return int(h), int(w)


def _minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _measure(label, fn, since=None):
    """Run fn; print the traced peak and what stays traced after, both above
    ``since`` (default: what was traced when fn started), the time and the
    minor page faults."""
    tracemalloc.reset_peak()
    if since is None:
        since = tracemalloc.get_traced_memory()[0]
    faults = _minor_faults()
    start = time.perf_counter()
    fn()
    seconds = time.perf_counter() - start
    faults = _minor_faults() - faults
    now, peak = tracemalloc.get_traced_memory()
    print(f"{label}: peak {(peak - since) / 2**20:.1f} MiB, "
          f"held after {(now - since) / 2**20:.1f} MiB, {seconds:.2f} s, "
          f"{faults} minor faults")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--size", type=_size, default=(240, 320), help="HxW, default 240x320")
    parser.add_argument("--batch", type=int, default=1)
    parser.add_argument("--pass", dest="which", choices=("infer", "train", "both"),
                        default="both")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    graph = build_mvfcn()
    graph.initialize_parameters(EngineRng(args.seed))
    for state in graph.bn_states.values():
        state.initialized = True  # identity running statistics
    r = np.random.default_rng(args.seed)
    x = r.uniform(size=(args.batch, 3, *args.size)).astype(np.float32)
    y = (r.uniform(size=(args.batch, 1, *args.size)) > 0.5).astype(np.float32)
    rng = EngineRng(args.seed + 1)
    adam = AdamState(lr=1e-3)

    def infer():
        forward(graph, x, mode="infer")

    held = {}  # the loop's names: the cache stays bound into the next step

    def train_step():
        _, held["cache"] = forward(graph, x, mode="train", rng=rng)
        _, d_logits = bce_loss(held["cache"].logits, y)
        held["grads"] = backward(graph, held["cache"], d_logits)
        adam_step(graph, held["grads"], adam)

    print(f"batch {args.batch}, {args.size[0]}x{args.size[1]}")
    tracemalloc.start()
    if args.which in ("infer", "both"):
        for n in (1, 2):
            _measure(f"infer forward {n}", infer)
    if args.which in ("train", "both"):
        since = tracemalloc.get_traced_memory()[0]
        for step in (1, 2):
            _measure(f"train step {step}", train_step, since)
    tracemalloc.stop()
    print(f"peak RSS: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Peak memory of each stage of one experiment seed.

    python scripts/stage_memory.py --experiment tiles-1cm-n500 --seed 1

Runs evaluate.run_experiment for one experiment of scripts/output_digest.py's
table (a benchmark workload's is the config perfbench/run.py runs) and one
seed, into a temporary directory, with tracemalloc on. Each
stage is a call that run_experiment or simulate_for_config makes through
evaluate's namespace (STAGES). For each call the script prints one row: the
memory tracemalloc traced when the stage began, its traced peak while it ran,
what it traced when the stage ended, and the process's ru_maxrss after it.
The first row is ru_maxrss after the imports, before any stage.

tracemalloc traces the allocations that go through Python's allocators,
numpy's arrays among them, so a traced peak is the stage's own figure. The
process's ru_maxrss also counts the interpreter, the imported modules and
tracemalloc's own bookkeeping, so it reads a few MB above an untraced run's.
"""

import argparse
import resource
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from output_digest import EXPERIMENTS  # noqa: E402; its import puts this checkout's src on the path

import hapticloc.evaluate as evaluate  # noqa: E402

# the stages of a seed, in the order a seed of a class experiment runs them
STAGES = (
    "train_contact_classifier",
    "generate_course",
    "walk",
    "classify_log",
    "walklog_hash",
    "to_step_inputs",
    "run_localization",
    "_write_per_seed_outputs",
    "write_report",
)
# MB of 2**20 bytes, as perfbench's peak_rss_mb counts them
MB = 2**20


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def traced(name, real):
    """real, printing its row each time it is called."""

    def stage(*args, **kwargs):
        label = f"{name} {args[3]}" if name == "run_localization" else name
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = real(*args, **kwargs)
        end, peak = tracemalloc.get_traced_memory()
        print(f"{label:<28} {start / MB:>9.2f} {peak / MB:>9.2f} {end / MB:>9.2f} {maxrss_mb():>10.1f}", flush=True)
        return result

    return stage


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--experiment", choices=list(EXPERIMENTS), default="tiles-1cm-n500")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    cfg = replace(EXPERIMENTS[args.experiment](), seeds=(args.seed,))
    print(f"{args.experiment}, seed {args.seed}; traced MB at start, peak and end of each stage; ru_maxrss MB after it")
    print(f"{'stage':<28} {'start':>9} {'peak':>9} {'end':>9} {'maxrss':>10}")
    print(f"{'(imports)':<28} {'':>9} {'':>9} {'':>9} {maxrss_mb():>10.1f}")
    real = {name: getattr(evaluate, name) for name in STAGES}
    for name, fn in real.items():
        setattr(evaluate, name, traced(name, fn))
    tracemalloc.start()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            evaluate.run_experiment(cfg, tmp)
    finally:
        tracemalloc.stop()
        for name, fn in real.items():
            setattr(evaluate, name, fn)


if __name__ == "__main__":
    main()

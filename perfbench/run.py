#!/usr/bin/env python3
"""Benchmark of the hapticloc localizer, one workload per run.

    python3 perfbench/run.py --workload tiles-1cm-n500 --seed 0 --seconds 30 --trace 0

Each run drives ``hapticloc.evaluate.run_experiment`` one experiment seed at
a time, in a closed loop on one process: the filter gets the next footstep
only after the previous ``mcl.step`` has returned. ``--seed N`` selects K
experiment seeds, K fixed per workload (see experiment_seeds), and the run
goes through them once.

With ``--trace 0`` a timer around each ``mcl.step`` call is the only
instrument, and the run prints the end-to-end metrics. Their times, except
set-up, are scaled to a reference machine speed measured by a probe kernel
between steps (see speed.py); the raw figures go to the run record. With
``--trace 1`` wrappers from spans.py record a span per call into each layer,
and the run prints per-layer metrics per seed. Each seed is then run again
untraced: its output files must be byte-identical to the traced ones, and
the median time ratio is the tracing overhead.

The last line of standard output is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value", "unit"}}},
where one operation is one experiment seed in one localization mode. The
full record of the run, with machine, versions and sample counts, goes to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

import checks
import spans
import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = BENCH_DIR / "runs"
RESULTS_DIR = BENCH_DIR / "results"

# set-up is one process start, so it is timed in fresh child processes,
# spread over the seeds so that they meet the same machine speed phases
SETUP_REPEATS = 5
WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    make_config: object  # (hapticloc.evaluate, hapticloc.sim) -> ExperimentConfig
    headline: str  # the mode whose mean ATE is ate_m
    seeds_per_run: int  # K: the K seeds take 20-33 s on a 2-vCPU Xeon
    check: object  # checks.check_* over every seed's scores
    # experiment seeds run on every --seed: those known to fail, each kept
    # as a failed operation (see checks.check_wallroom)
    fixed_seeds: tuple = ()
    # the range the --seed blocks cycle through; None for unbounded
    seed_range: range | None = None


# Wall-room seeds 1..600 were each run at 5k particles: seeds 40 and 374
# alone end off (0.30 m and 0.31 m), the same way on every run. They run on
# every --seed as failed operations, and the other seeds cycle through the
# rest of that range, so the share of failed operations is the same on
# every run.
#
# Why these three: see README.md. In short, tiles is the only one with force
# signals, the classifier and the class layer, at the onboard particle count
# where per-call overhead dominates; chevron is per-particle arithmetic at
# 10k particles; wall-room is the only kd-tree and point-cloud user.
WORKLOADS = {
    "tiles-1cm-n500": Workload(
        lambda ev, sim: replace(ev.default_tiles_experiment(), course=sim.CourseSpec("class-tiles", resolution=0.01)),
        "HL-GC",
        6,
        checks.check_tiles,
    ),
    "chevron-n10k": Workload(
        lambda ev, sim: replace(ev.default_chevron_experiment(), n_particles=10_000),
        "HL-G",
        3,
        checks.check_chevron,
    ),
    "wallroom-n5k": Workload(
        lambda ev, sim: replace(ev.default_wallroom_experiment(), n_particles=5_000),
        "HL-3D",
        24,
        checks.check_wallroom,
        fixed_seeds=(40, 374),
        seed_range=range(1, 601),
    ),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0, help="selects K experiment seeds, K fixed per workload")
    p.add_argument("--seconds", type=float, default=30.0, help="nominal run length; the K seeds run once whatever it is")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def import_hapticloc():
    """Import the package from this checkout's src/ and nowhere else."""
    if not (SRC / "hapticloc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hapticloc package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hapticloc
    import hapticloc.evaluate

    if Path(hapticloc.__file__).resolve().parent != SRC / "hapticloc":
        sys.exit(f"perfbench: imported hapticloc from {hapticloc.__file__}, not from {SRC}")
    return hapticloc


def experiment_seeds(seed: int, wl: Workload) -> tuple:
    """The workload's fixed seeds, then block N of the other seeds: N*k+1 ..
    N*k+k for k = K less the fixed seeds, or that block of the workload's
    seed range less the fixed seeds, taken cyclically."""
    k = wl.seeds_per_run - len(wl.fixed_seeds)
    if wl.seed_range is None:
        return wl.fixed_seeds + tuple(seed * k + i + 1 for i in range(k))
    pool = [s for s in wl.seed_range if s not in wl.fixed_seeds]
    return wl.fixed_seeds + tuple(pool[(seed * k + i) % len(pool)] for i in range(k))


def setup_only(args) -> None:
    """What setup_s times: import hapticloc and build the first seed's map layers."""
    hl = import_hapticloc()
    wl = WORKLOADS[args.workload]
    cfg = wl.make_config(hl.evaluate, hl.sim)
    hl.sim.generate_course(replace(cfg.course, seed=experiment_seeds(args.seed, wl)[0]))


def time_setup(args) -> float:
    """Wall time of one set-up in a fresh process.

    It is scaled by the run's median probe time, not by probes next to it:
    those track a child's imports too loosely and widened the spread.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", args.workload, "--seed", str(args.seed)]
    t = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t


class StepTimer:
    """Times each mcl.step call; after it returns, checks the weights sum to 1.

    The speed probe may run just before a step, outside its timer. Its
    gathers leave the caches cold, so a step right after a probe is flagged
    and left out of the step samples.
    """

    def __init__(self, probe: speed.SpeedProbe):
        self.probe = probe
        self.starts: list[float] = []
        self.samples: list[float] = []
        self.after_probe: list[bool] = []
        self.bad_weights = 0
        self._undo: list = []

    def install(self, hl) -> None:
        step = hl.mcl.step
        starts, samples, after_probe = self.starts, self.samples, self.after_probe
        probe = self.probe
        clock = time.perf_counter

        def timed_step(state, *args, **kwargs):
            probed = probe.maybe_sample()
            t = clock()
            out = step(state, *args, **kwargs)
            samples.append(clock() - t)
            starts.append(t)
            after_probe.append(probed)
            if abs(float(np.exp(state.log_weights).sum()) - 1.0) > WEIGHT_SUM_TOL:
                self.bad_weights += 1
            return out

        self._undo = spans.patch_everywhere(step, timed_step)

    def uninstall(self) -> None:
        spans.restore(self._undo)
        self._undo = []


def dir_digest(path: Path) -> str:
    """sha256 over every file's relative path and bytes."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def run_seed(hl, cfg, seed: int, out: Path) -> tuple:
    """Start and end time of run_experiment for one seed: simulate, train,
    filter every mode, score and write."""
    shutil.rmtree(out, ignore_errors=True)
    t = time.perf_counter()
    hl.evaluate.run_experiment(replace(cfg, seeds=(seed,)), str(out))
    return t, time.perf_counter()


def timing_metrics(setups, seed_times, steps, n_particles: int) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "seed_s": (statistics.median(seed_times), "s"),
        "step_ms": (1e3 * statistics.median(steps), "ms"),
        "step_ms_p90": (1e3 * statistics.quantiles(steps, n=10)[8], "ms"),
        "particle_steps_per_s": (n_particles * len(steps) / math.fsum(steps), "particle-steps/s"),
    }


def machine_record(hl) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        except OSError:
            done = None
        if done and done.returncode == 0:
            sha = done.stdout.strip()
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "hapticloc": hl.__version__,
        "git_sha": sha,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        setup_only(args)
        return 0
    wl = WORKLOADS[args.workload]
    seeds = experiment_seeds(args.seed, wl)
    hl = import_hapticloc()
    setups = []
    setup_at = [] if args.trace else [j * len(seeds) // SETUP_REPEATS for j in range(SETUP_REPEATS)]
    probe = speed.SpeedProbe()
    cfg = wl.make_config(hl.evaluate, hl.sim)
    modes = tuple(cfg.modes)
    run_dir = RUNS_DIR / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    tracer = spans.Tracer() if args.trace else None
    timer = StepTimer(probe)

    seed_runs = []  # (raw seconds, speed scale) per seed run
    overheads = []  # traced run: traced over untraced speed-scaled time of each seed
    scores, digests, problems = {}, {}, []
    attempted = failed = 0
    for i, seed in enumerate(seeds):
        setups += [time_setup(args) for _ in range(setup_at.count(i))]
        attempted += len(modes)
        out = run_dir / f"s{seed}"
        first_step = len(timer.samples)
        if tracer:
            tracer.install(hl)
        timer.install(hl)
        try:
            start, end = run_seed(hl, cfg, seed, out)
        except Exception as exc:
            traceback.print_exc()
            failed += len(modes)
            problems.append(f"seed {seed}: run_experiment raised {exc!r}")
            continue
        finally:
            timer.uninstall()
            if tracer:
                tracer.uninstall()
        n_steps, extra = divmod(len(timer.samples) - first_step, len(modes))
        seed_runs.append(probe.net_and_scale(start, end))
        digests[seed] = dir_digest(out)
        if tracer:
            # the same seed untraced, right after: files must match byte
            # for byte, and the ratio of speed-scaled times is the
            # tracing overhead
            untraced = run_dir / f"untraced-s{seed}"
            timer.install(hl)
            try:
                u_start, u_end = run_seed(hl, cfg, seed, untraced)
            finally:
                timer.uninstall()
            u_net, u_scale = probe.net_and_scale(u_start, u_end)
            overheads.append(seed_runs[-1][0] * seed_runs[-1][1] / (u_net * u_scale))
            if dir_digest(untraced) != digests[seed]:
                problems.append(f"seed {seed}: traced and untraced runs wrote different files")
        if extra:
            problems.append(f"seed {seed}: {len(timer.samples) - first_step} steps over {len(modes)} modes")
        trajs, report = checks.read_seed_outputs(out, seed, modes)
        seed_scores, seed_problems = checks.check_seed(trajs, report, seed, modes, n_steps)
        problems += seed_problems
        if seed_scores:
            scores[seed] = seed_scores
        if seed == seeds[0]:
            problems += checks.self_test(trajs, report, seed, modes, n_steps)

    if timer.bad_weights:
        problems.append(f"{timer.bad_weights} steps left weights that do not sum to 1 within {WEIGHT_SUM_TOL}")
    if not scores:
        sys.exit("perfbench: no seed completed")
    workload_problems, off = wl.check(scores)
    problems += workload_problems
    # a seed that misses the workload's per-seed accuracy bound is one
    # failed operation; only a seed known to fail on every run may
    failed += len(off)
    known_failures = [f"seed {s}: {msg}" for s, msg in off.items() if s in wl.fixed_seeds]
    problems += [f"seed {s}: {msg}" for s, msg in off.items() if s not in wl.fixed_seeds]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "experiment_seeds": list(seeds),
        "modes": list(modes),
        "n_particles": cfg.n_particles,
        "machine": machine_record(hl),
        "ate_m": {str(s): {name: v[0] for name, v in by_name.items()} for s, by_name in scores.items()},
        "end_error_m": {str(s): by_name[wl.headline][2] for s, by_name in scores.items()},
        "mean_end_error_m": math.fsum(by_name[wl.headline][2] for by_name in scores.values()) / len(scores),
        "known_failures": known_failures,
        "output_sha256": {str(s): d for s, d in digests.items()},
    }
    steps = np.array(timer.samples)
    after_probe = np.array(timer.after_probe, dtype=bool)
    kept = steps[~after_probe]
    record["samples"] = {
        "setup": len(setups),
        "seed": len(seed_runs),
        "step": len(kept),
        "step_after_probe": int(after_probe.sum()),
    }
    if tracer:
        metrics = per_layer_metrics(tracer, probe, len(seed_runs))
        metrics["trace.overhead_pct"] = (100.0 * (statistics.median(overheads) - 1.0), "%")
        record["traced_over_untraced"] = overheads
        record["spans"] = tracer.n_spans
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        tracer.save(RESULTS_DIR / f"{args.workload}-spans.npz")
    else:
        raw = timing_metrics(setups, [r for r, _ in seed_runs], list(kept), cfg.n_particles)
        metrics = timing_metrics(
            [t * speed.REFERENCE_PROBE_S / statistics.median(probe.durations) for t in setups],
            [r * k for r, k in seed_runs],
            list(kept * probe.scale_at(np.array(timer.starts)[~after_probe])),
            cfg.n_particles,
        )
        metrics["ate_m"] = (checks.mean_ate(scores, wl.headline), "m")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        record["raw"] = {k: v for k, (v, _) in raw.items()}
        record["probe"] = {"samples": len(probe.durations), "median_s": statistics.median(probe.durations)}
        # what the cold steps after the probes add to the seed times: the
        # part of seed_s the step samples leave out
        record["after_probe_excess_s"] = float(after_probe.sum() * (np.mean(steps[after_probe]) - np.mean(kept)))
        record["seed_runs"] = seed_runs
        record["setups"] = setups

    correct = not problems
    record.update(correct=correct, problems=problems, attempted=attempted, failed=failed)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    with open(RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)

    for msg in known_failures:
        print(f"FAILED OPERATION (known fault): {msg}", file=sys.stderr)
    for msg in problems:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(
        f"{args.workload}: experiment seeds {', '.join(map(str, seeds))}; {len(seed_runs)} seed runs, "
        f"{len(kept)} mcl.step samples ({int(after_probe.sum())} after a probe left out), {len(setups)} set-ups"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": record["metrics"]}))
    return 0 if correct else 1


def per_layer_metrics(tracer: spans.Tracer, probe: speed.SpeedProbe, n_seeds: int) -> dict:
    """Every traced layer's calls, self ms (wall ms less probe time for
    evaluate stages) and query points, each per experiment seed."""
    summary = tracer.summary(probe.starts, probe.spent)
    point_layers = spans.point_layer_names()
    metrics = {}
    for name in spans.layer_names():
        calls, points, ms = summary.get(name, (0, 0, 0.0))
        metrics[f"{name}.calls"] = (calls / n_seeds, "count")
        if name in point_layers:
            metrics[f"{name}.points"] = (points / n_seeds, "count")
        metrics[f"{name}.ms"] = (ms / n_seeds, "ms")
    return metrics


if __name__ == "__main__":
    sys.exit(main())

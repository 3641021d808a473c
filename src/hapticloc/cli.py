"""Command-line front end.

Subcommands: make-course, simulate, localize, eval, classify, run-experiment.
A course directory holds course.hmap plus course.cmap / course.xyz when the
course has those layers. Failures print one `error: ...` line on stderr and
exit nonzero.

On a mode that reads terrain classes, localize fuses a classifier's class
probabilities for the walk log's force signals: by default the logistic
baseline run-experiment trains for experiment seed --seed (so make-course,
simulate and localize with one --seed write run-experiment's files for that
seed), or with --weights FILE the network that classify also runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import evaluate, sim
from .geometry import load_trajectory, save_trajectory
from .likelihood import MODES
from .maps import MapSet, check_same_lattice, load_map, save_map
from .mcl import write_diagnostics_csv
from .network import load_weights
from .sim import CourseSpec


# the file of each map layer in a course directory
_LAYER_FILES = {"elevation": "course.hmap", "class": "course.cmap", "cloud": "course.xyz"}


def save_course_dir(maps: MapSet, out_dir) -> list:
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, layer in maps.layers.items():
        written.append(os.path.join(out_dir, _LAYER_FILES[name]))
        save_map(layer, written[-1])
    return written


def load_course_dir(path) -> MapSet:
    files = {name: os.path.join(path, file) for name, file in _LAYER_FILES.items()}
    if not os.path.isfile(files["elevation"]):
        raise FileNotFoundError(f"no course.hmap in {path}")
    layers = {name: load_map(file) for name, file in files.items() if os.path.isfile(file)}
    if "class" in layers:
        try:
            check_same_lattice(layers["class"], layers["elevation"])
        except ValueError as e:
            raise ValueError(f"{files['class']}: not on the lattice of {files['elevation']}: {e}") from e
    return MapSet(layers["elevation"], class_grid=layers.get("class"), cloud=layers.get("cloud"))


def _cmd_make_course(args) -> int:
    spec = CourseSpec(args.kind, resolution=args.resolution, seed=args.seed)
    course = sim.generate_course(spec)
    for path in save_course_dir(course, args.out):
        print(path)
    return 0


def _cmd_simulate(args) -> int:
    course = load_course_dir(args.course)
    cfg = evaluate.default_experiment(course)
    if args.waypoints:
        cfg = replace(cfg, waypoints=evaluate.parse_waypoints(args.waypoints))
    log = evaluate.walk(cfg, course, args.seed)
    sim.save_walklog(log, args.out, signals_dir="signals" if log.has_signals else None)
    print(args.out)
    print(f"steps={log.n_steps} sha256={sim.walklog_hash(log)}")
    return 0


def _cmd_localize(args) -> int:
    course = load_course_dir(args.course)
    cfg = evaluate.default_experiment(course)
    if args.particles is not None:
        cfg = replace(cfg, n_particles=args.particles)
    mode = args.mode or cfg.modes[0]
    needs_class = "class" in MODES[mode]
    if args.weights is not None and not needs_class:
        raise ValueError(f"--weights: mode {mode} reads no terrain classes")
    log = sim.load_walklog(args.walklog, load_signals=needs_class)
    if needs_class:
        model = evaluate.train_contact_classifier(args.seed) if args.weights is None else load_weights(args.weights)
        sim.classify_log(log, model)
    state = evaluate.run_localization(log, course, mode, cfg, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    save_trajectory(os.path.join(args.out, "estimate.traj"), state.trajectory, log.timestamps())
    write_diagnostics_csv(state, os.path.join(args.out, "diagnostics.csv"))
    a = evaluate.ate(log.true_poses(), state.trajectory)
    p = state.trajectory[-1].position
    print(f"final=({p[0]:.4f}, {p[1]:.4f}, {p[2]:.4f}) ate={a:.6f}")
    return 0


def _cmd_eval(args) -> int:
    _, truth = load_trajectory(args.truth)
    _, est = load_trajectory(args.est)
    print(f"{evaluate.ate(truth, est):.6f}")
    return 0


def _cmd_classify(args) -> int:
    probs = load_weights(args.weights).predict(sim.load_signal(args.signal))
    print(" ".join(format(p, ".9f") for p in probs))
    return 0


def _cmd_run_experiment(args) -> int:
    cfg, out_dir = evaluate.load_experiment_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seeds=(args.seed,))
    if args.particles is not None:
        cfg = replace(cfg, n_particles=args.particles)
    if args.out is not None:
        out_dir = args.out
    if out_dir is None:
        out_dir = os.path.join("runs", cfg.name)
    report = evaluate.run_experiment(cfg, out_dir)
    print(f"report: {os.path.join(out_dir, 'report.csv')}")
    for row in report.rows:
        if row.seed == "mean":
            print(f"{row.mode:>10s}  ate={row.ate_m:.4f} m  improvement={row.improvement_pct:+.1f}%")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hapticloc", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-course", help="generate a synthetic course into a directory")
    p.add_argument("--kind", required=True, choices=sim.COURSE_KINDS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resolution", type=float, default=0.05)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_make_course)

    p = sub.add_parser("simulate", help="walk a course and write the log")
    p.add_argument("--course", required=True, help="course directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="walk log csv path")
    p.add_argument("--waypoints", help="walk 'x,y x,y ...' instead of the course kind's experiment walk")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("localize", help="run the particle filter over a walk log")
    p.add_argument("--course", required=True)
    p.add_argument("--walklog", required=True)
    p.add_argument("--mode", choices=tuple(MODES), help="default: the course kind's first experiment mode")
    p.add_argument(
        "--particles",
        type=int,
        help="maximum; above 500 the filter adapts by KLD (default: the course kind's experiment particle count)",
    )
    p.add_argument("--seed", type=int, default=0, help="filter seed, and the experiment seed of the classifier")
    p.add_argument("--weights", help="class modes: fuse this network weights file, not the seed's baseline")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("eval", help="mean translational error between two trajectories")
    p.add_argument("--truth", required=True)
    p.add_argument("--est", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("classify", help="run the contact network on one signal file")
    p.add_argument("--weights", required=True, help="network weights file")
    p.add_argument("--signal", required=True, help="signal csv")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("run-experiment", help="full multi-seed experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, help="run this single seed instead of the config's list")
    p.add_argument("--particles", type=int, help="maximum; above 500 the filter adapts by KLD")
    p.add_argument("--out", help="output directory (overrides config)")
    p.set_defaults(func=_cmd_run_experiment)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: make-course, simulate, localize, eval, run-experiment.
A course directory holds course.ini, which names its course kind
([course] kind = ...), and exactly that kind's layer files: course.hmap,
plus course.cmap / course.xyz when the kind has the class / cloud layer.
make-course writes them; simulate and localize take their settings from
the kind's default experiment, and refuse a directory whose files do not
match its kind. Failures print one `error: ...` line on stderr and exit
nonzero.

On a mode that reads terrain classes, localize fuses the class
probabilities of the logistic baseline that run-experiment trains for
experiment seed --seed, for the walk log's force signals: so make-course,
simulate and localize with one --seed write run-experiment's files for that
seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import evaluate, sim
from .fields import positive_int
from .geometry import load_trajectory, save_trajectory
from .likelihood import MODES, require_layers
from .maps import MapSet, check_same_lattice, load_map, save_map
from .mcl import write_diagnostics_csv
from .sim import CourseSpec


# the file that names a course directory's kind, and the file of each map layer
_KIND_FILE = "course.ini"
_LAYER_FILES = {"elevation": "course.hmap", "class": "course.cmap", "cloud": "course.xyz"}


def save_course_dir(kind: str, maps: MapSet, out_dir) -> list:
    """Write the map layers, then course.ini naming their kind; remove the
    layer files of another kind that out_dir held, which the kind would
    refuse."""
    os.makedirs(out_dir, exist_ok=True)
    for name, file in _LAYER_FILES.items():
        if name not in maps.layers and os.path.isfile(os.path.join(out_dir, file)):
            os.remove(os.path.join(out_dir, file))
    written = []
    for name, layer in maps.layers.items():
        written.append(os.path.join(out_dir, _LAYER_FILES[name]))
        save_map(layer, written[-1])
    written.append(os.path.join(out_dir, _KIND_FILE))
    with open(written[-1], "w") as f:
        f.write(f"[course]\nkind = {kind}\n")
    return written


def load_course_dir(path) -> tuple:
    """(kind, MapSet) of a course directory: the kind its course.ini names
    and that kind's map layers, each from its file."""
    ini = os.path.join(path, _KIND_FILE)
    if not os.path.isfile(ini):
        raise FileNotFoundError(f"no {_KIND_FILE} in {path} to name the course kind")
    cp = evaluate.read_ini(ini)
    if cp.sections() != ["course"] or list(cp["course"]) != ["kind"]:
        raise ValueError(f"{ini}: expected a [course] section with the one key kind")
    kind = cp["course"]["kind"]
    if kind not in sim.COURSES:
        raise ValueError(f"{ini}: unknown course kind {kind!r}")
    kind_layers = sim.COURSES[kind].layers
    files = {name: os.path.join(path, file) for name, file in _LAYER_FILES.items()}
    for name, file in files.items():
        if name in kind_layers and not os.path.isfile(file):
            raise FileNotFoundError(f"no {_LAYER_FILES[name]} in {path}: a {kind} course has the layers {kind_layers}")
        if name not in kind_layers and os.path.isfile(file):
            raise ValueError(f"{file}: a {kind} course has no {name} layer, only {kind_layers}")
    layers = {name: load_map(files[name]) for name in kind_layers}
    if "class" in layers:
        try:
            check_same_lattice(layers["class"], layers["elevation"])
        except ValueError as e:
            raise ValueError(f"{files['class']}: not on the lattice of {files['elevation']}: {e}") from e
    return kind, MapSet(layers["elevation"], class_grid=layers.get("class"), cloud=layers.get("cloud"))


def _cmd_make_course(args) -> int:
    spec = CourseSpec(args.kind, resolution=args.resolution, seed=args.seed)
    course = sim.generate_course(spec)
    for path in save_course_dir(spec.kind, course, args.out):
        print(path)
    return 0


def _cmd_simulate(args) -> int:
    kind, course = load_course_dir(args.course)
    cfg = evaluate.default_experiment(kind)
    if args.waypoints:
        cfg = replace(cfg, waypoints=evaluate.parse_waypoints(args.waypoints))
    log = evaluate.walk(cfg, course, args.seed)
    sim.save_walklog(log, args.out, signals_dir="signals" if log.has_signals else None)
    print(args.out)
    print(f"steps={log.n_steps} sha256={sim.walklog_hash(log)}")
    return 0


def _cmd_localize(args) -> int:
    kind, course = load_course_dir(args.course)
    cfg = evaluate.default_experiment(kind)
    if args.particles is not None:
        cfg = replace(cfg, n_particles=args.particles)
    mode = args.mode or cfg.modes[0]
    require_layers(MODES[mode], course.layers)
    needs_class = "class" in MODES[mode]
    # trained before the log is loaded, as evaluate.simulate_for_config
    # trains before the walk, so the training set is freed before the
    # log's signals are read
    model = evaluate.train_contact_classifier(args.seed) if needs_class else None
    if model is not None and model.n_classes != course.class_grid.n_classes:
        raise ValueError(
            f"the logistic baseline has {model.n_classes} classes but the class layer has {course.class_grid.n_classes}"
        )
    log = sim.load_walklog(args.walklog, load_signals=needs_class)
    if model is not None:
        sim.classify_log(log, model)
    state = evaluate.run_localization(log.init_prior, evaluate.to_step_inputs(log), course, mode, cfg, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    save_trajectory(os.path.join(args.out, "estimate.traj"), state.trajectory, log.timestamps())
    write_diagnostics_csv(state, os.path.join(args.out, "diagnostics.csv"))
    a = evaluate.ate(log.true_poses(), state.trajectory)
    p = state.trajectory[-1].position
    print(f"final=({p[0]:.4f}, {p[1]:.4f}, {p[2]:.4f}) ate={a:.6f}")
    return 0


def _cmd_eval(args) -> int:
    t_truth, truth = load_trajectory(args.truth)
    t_est, est = load_trajectory(args.est)
    i = next((i for i, (a, b) in enumerate(zip(t_truth, t_est)) if a != b), None)
    if i is not None:
        raise ValueError(
            f"the trajectories' times differ at row {i + 1}: "
            f"{float(t_truth[i])!r} in {args.truth}, {float(t_est[i])!r} in {args.est}"
        )
    print(f"{evaluate.ate(truth, est):.6f}")
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


def non_negative_int(text) -> int:
    """A --seed: a non-negative integer, as numpy's generators take."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hapticloc", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-course", help="generate a synthetic course into a directory")
    p.add_argument("--kind", required=True, choices=tuple(sim.COURSES))
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--resolution", type=float, default=0.05)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_make_course)

    p = sub.add_parser("simulate", help="walk a course and write the log")
    p.add_argument("--course", required=True, help="course directory")
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--out", required=True, help="walk log csv path")
    p.add_argument("--waypoints", help="walk 'x,y x,y ...' instead of the course kind's experiment walk")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("localize", help="run the particle filter over a walk log")
    p.add_argument("--course", required=True)
    p.add_argument("--walklog", required=True)
    p.add_argument("--mode", choices=tuple(MODES), help="default: the course kind's first experiment mode")
    p.add_argument(
        "--particles",
        type=positive_int,
        help="maximum; above 500 the filter adapts by KLD (default: the course kind's experiment particle count)",
    )
    p.add_argument("--seed", type=non_negative_int, default=0, help="filter seed, and the experiment seed of the classifier")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("eval", help="mean translational error between two trajectories of the same times")
    p.add_argument("--truth", required=True)
    p.add_argument("--est", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("run-experiment", help="full multi-seed experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=non_negative_int, help="run this single seed instead of the config's list")
    p.add_argument("--particles", type=positive_int, help="maximum; above 500 the filter adapts by KLD")
    p.add_argument("--out", help="output directory (overrides config)")
    p.set_defaults(func=_cmd_run_experiment)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

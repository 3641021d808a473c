"""Checks on the files an experiment writes, computed apart from hapticloc.

The pose arithmetic here is this file's own (plain floats and math), so a
fault in hapticloc.geometry or hapticloc.evaluate cannot hide itself by
agreeing with its own check.

Trajectory files hold one ``t x y z qx qy qz qw`` line per pose; report.csv
holds ``mode,seed,ate_m,improvement_pct`` rows with six decimals.
"""

from __future__ import annotations

import copy
import math
import os

REPORT_TOL = 1e-6  # report.csv rounds to 6 decimals: at most 5e-7 off
UNIT_QUAT_TOL = 1e-9
PAPER_ERROR_M = 0.20  # the paper keeps localization error below 20 cm


def read_trajectory(path) -> list:
    poses = []
    with open(path) as f:
        for line in f:
            parts = line.split()
            if parts and not parts[0].startswith("#"):
                poses.append([float(v) for v in parts[1:]])
    return poses


def read_report(path) -> dict:
    """(mode, seed) -> ate_m as written."""
    rows = {}
    with open(path) as f:
        for line in f:
            if line.startswith("#") or line.startswith("mode,"):
                continue
            mode, seed, ate_m, _ = line.strip().split(",")
            rows[(mode, seed)] = float(ate_m)
    return rows


def read_seed_outputs(run_dir, seed: int, modes) -> tuple:
    """(trajectories by name, report rows) for one run_experiment output dir."""
    seed_dir = os.path.join(run_dir, f"seed_{seed}")
    names = ("truth", "odom-only") + tuple(modes)
    trajs = {name: read_trajectory(os.path.join(seed_dir, f"{name}.traj")) for name in names}
    return trajs, read_report(os.path.join(run_dir, "report.csv"))


def _rotate_by_inverse(q, v):
    """Rotate v by the conjugate of the scalar-last quaternion q."""
    x, y, z, w = -q[0], -q[1], -q[2], q[3]
    # t = 2 (q_v x v); v' = v + w t + q_v x t
    tx = 2.0 * (y * v[2] - z * v[1])
    ty = 2.0 * (z * v[0] - x * v[2])
    tz = 2.0 * (x * v[1] - y * v[0])
    return (
        v[0] + w * tx + (y * tz - z * ty),
        v[1] + w * ty + (z * tx - x * tz),
        v[2] + w * tz + (x * ty - y * tx),
    )


def ate(truth, est) -> float:
    """Mean norm of the translation of T_true^-1 T_est, no alignment."""
    total = 0.0
    for t, e in zip(truth, est):
        d = (e[0] - t[0], e[1] - t[1], e[2] - t[2])
        total += math.hypot(*_rotate_by_inverse(t[3:7], d))
    return total / len(truth)


def check_seed(trajs: dict, report: dict, seed: int, modes, n_steps: int) -> tuple:
    """Check one seed's outputs; returns (scores, problems).

    scores maps each scored trajectory name to (ATE, start position error,
    end position error). Every trajectory must hold n_steps + 1 finite poses
    with unit quaternions, and every ATE in the report must match the one
    recomputed here from the trajectory files.
    """
    problems = []
    for name, poses in trajs.items():
        if len(poses) != n_steps + 1:
            problems.append(f"seed {seed} {name}: {len(poses)} poses, expected {n_steps + 1}")
        for k, p in enumerate(poses):
            if len(p) != 7 or not all(math.isfinite(v) for v in p):
                problems.append(f"seed {seed} {name}: pose {k} is not 7 finite numbers")
                break
            if abs(math.fsum(v * v for v in p[3:7]) - 1.0) > UNIT_QUAT_TOL:
                problems.append(f"seed {seed} {name}: pose {k} quaternion is not unit")
                break
    if problems:
        return {}, problems
    truth = trajs["truth"]
    scores = {}
    for name in ("odom-only",) + tuple(modes):
        est = trajs[name]
        scores[name] = (ate(truth, est), math.dist(truth[0][:3], est[0][:3]), math.dist(truth[-1][:3], est[-1][:3]))
        written = report.get((name, str(seed)))
        if written is None:
            problems.append(f"seed {seed} {name}: no report row")
        elif abs(written - scores[name][0]) > REPORT_TOL:
            problems.append(f"seed {seed} {name}: report ATE {written:.6f} m, recomputed {scores[name][0]:.9f} m")
    return scores, problems


def self_test(trajs: dict, report: dict, seed: int, modes, n_steps: int) -> list:
    """The checks must catch a 1 cm trajectory shift and an altered report value."""
    mode = modes[0]
    failures = []
    shifted = copy.deepcopy(trajs)
    for p in shifted[mode]:
        p[0] += 0.01
    if not check_seed(shifted, report, seed, modes, n_steps)[1]:
        failures.append(f"self-test: a 1 cm shift of {mode}.traj went unnoticed")
    altered = dict(report)
    altered[(mode, str(seed))] += 1e-5
    if not check_seed(trajs, altered, seed, modes, n_steps)[1]:
        failures.append("self-test: an altered report.csv value went unnoticed")
    return failures


# Workload checks over every seed of a run: scores maps seed -> name ->
# (ATE, start error, end error) as check_seed returns them. Each returns
# (problems, off): off maps a seed whose headline operation misses a
# per-seed accuracy bound to what it missed, one failed operation each.


def mean_ate(scores: dict, name: str) -> float:
    return math.fsum(by_name[name][0] for by_name in scores.values()) / len(scores)


def check_chevron(scores: dict) -> tuple:
    odom, hlg = mean_ate(scores, "odom-only"), mean_ate(scores, "HL-G")
    if not hlg <= 0.5 * odom:
        return [f"chevron: mean HL-G ATE {hlg:.4f} m above half of odometry {odom:.4f} m"], {}
    return [], {}


def check_tiles(scores: dict) -> tuple:
    odom, hlg, hlgc = (mean_ate(scores, name) for name in ("odom-only", "HL-G", "HL-GC"))
    problems = []
    if not hlgc < hlg:
        problems.append(f"tiles: mean HL-GC ATE {hlgc:.4f} m not below HL-G {hlg:.4f} m")
    if not hlg < odom:
        problems.append(f"tiles: mean HL-G ATE {hlg:.4f} m not below odometry {odom:.4f} m")
    if not hlgc < PAPER_ERROR_M:
        problems.append(f"tiles: mean HL-GC ATE {hlgc:.4f} m not under {PAPER_ERROR_M} m")
    return problems, {}


def check_wallroom(scores: dict) -> tuple:
    """Every seed starts at least 0.10 m off and ends within 0.10 m."""
    problems, off = [], {}
    for seed, by_name in scores.items():
        _, start, end = by_name["HL-3D"]
        if not start >= 0.10:
            problems.append(f"wall-room seed {seed}: HL-3D starts {start:.4f} m off, expected at least 0.10 m")
        if not end <= 0.10:
            off[seed] = f"wall-room HL-3D ends {end:.4f} m off, expected within 0.10 m"
    return problems, off

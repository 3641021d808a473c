"""Trajectory evaluation and end-to-end experiment runs.

ATE here is the mean norm of the translational part of T_true^-1 T_est over
all poses, with no alignment step: estimates are judged in the map frame the
filter localizes in. That translational part is R_true^T (p_est - p_true),
and a rotation keeps a vector's length, so ATE equals the mean
||p_est - p_true|| and is computed so, with no rotation.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .classifier import LogisticBaseline, baseline_train
from .geometry import Pose, save_trajectory, tilt_matrix, wrap_angle
from .likelihood import MODES, LikelihoodConfig, lay_out_contacts, require_layers
from .maps import MapSet
from .mcl import FilterState, StepInput, init_filter, run_filter, write_diagnostics_csv
from .sim import (
    COURSES,
    N_TERRAIN_CLASSES,
    CourseSpec,
    NoiseSpec,
    WalkLog,
    check_waypoints,
    classify_log,
    generate_course,
    probe_scenario,
    sample_signal_length,
    simulate_walk,
    synth_force_signal,
    walklog_hash,
)

# the filter's process noise is the odometry covariance scaled up: the
# injected bias is deliberately absent from the reported covariance
ODOM_COV_SCALE = 1.5

# the prior's spread in z and yaw. Standing height is known well; a loose z
# prior just starves the first contact update of effective particles. The xy
# spread is ExperimentConfig.prior_std_xyz; roll and pitch have none, as the
# filter takes them from gravity.
PRIOR_STD_Z = 0.02
PRIOR_STD_YAW = 0.05

# labeled signals per terrain class that train a seed's contact classifier,
# and the offset from the experiment seed to its training seed, which keeps
# the training draws clear of the seeds the walks draw from
TRAIN_PER_CLASS = 150
TRAIN_SEED_OFFSET = 10_000


def ate(truth, est) -> float:
    """Mean translational error of T_true^-1 T_est, no alignment, metres."""
    truth, est = list(truth), list(est)
    if len(truth) != len(est):
        raise ValueError(f"trajectory length mismatch: {len(truth)} truth vs {len(est)} estimated")
    if not truth:
        raise ValueError("cannot evaluate empty trajectories")
    tp = np.stack([p.position for p in truth])
    ep = np.stack([p.position for p in est])
    return float(np.mean(np.linalg.norm(ep - tp, axis=1)))


def per_step_errors(truth, est) -> np.ndarray:
    """World-frame error components per pose: columns x, y, z, yaw."""
    truth, est = list(truth), list(est)
    if len(truth) != len(est):
        raise ValueError("trajectory length mismatch")
    tp = np.stack([p.position for p in truth])
    ep = np.stack([p.position for p in est])
    dyaw = wrap_angle(_yaws(est) - _yaws(truth))
    return np.column_stack([ep - tp, dyaw])


def _yaws(poses) -> np.ndarray:
    """The heading of every pose about world z, in one arctan2 call over the
    stacked quaternions. On the machines tests/golden_digests.txt names,
    numpy's vector arctan2 rounds as its scalar call does, so the error files
    match those of one scalar arctan2 per pose."""
    qx, qy, qz, qw = np.stack([p.quat for p in poses]).T
    return np.arctan2(2.0 * (qw * qz + qx * qy), 1.0 - 2.0 * (qy * qy + qz * qz))


def to_step_inputs(log: WalkLog) -> list:
    """One StepInput per step of log, from its columns: the layout of the feet
    in contact, and one read-only covariance for the steps of one diagonal."""
    covs, probs, inputs = {}, log.class_probs, []
    for j, (odo, cov, tilt, touching) in enumerate(zip(log.odometry, log.cov_diag, log.tilt.tolist(), log.in_contact)):
        cov = covs.setdefault(cov.tobytes(), np.diag(ODOM_COV_SCALE**2 * cov))
        cov.flags.writeable = False
        feet_probs = None if probs is None else probs[j][touching]
        layout = lay_out_contacts(log.offsets[j][touching], feet_probs, tilt_matrix(*tilt))
        inputs.append(StepInput(Pose(odo[:3], odo[3:]), cov, layout, tuple(tilt)))
    return inputs


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs. Every setting is an INI key (see
    _INI_KEYS) but course.kind, which picks the sim.COURSES entry, and
    course.seed, which each seed of a run sets; the fixed ones are module
    constants."""

    name: str
    course: CourseSpec
    waypoints: tuple | None  # None: the course kind's scripted walk (see walk)
    noise: NoiseSpec = NoiseSpec()
    likelihood: LikelihoodConfig = LikelihoodConfig()
    # distinct keys of MODES; odometry-only dead reckoning is always reported
    modes: tuple = ("HL-G",)
    seeds: tuple = (1, 2, 3, 4, 5)
    # maximum; above 500 the filter adapts by KLD (mcl.KLD_MIN_PARTICLES)
    n_particles: int = 500
    prior_std_xyz: float = 0.12

    def __post_init__(self):
        # the [filter] keys, checked before a walk is simulated for them
        if not self.n_particles >= 1:
            raise ValueError(f"[filter] particles must be at least 1, got {self.n_particles}")
        if not 0.0 <= self.prior_std_xyz < np.inf:
            raise ValueError(f"[filter] prior_std_xyz must be finite and non-negative, got {self.prior_std_xyz}")
        entry = COURSES[self.course.kind]
        if self.waypoints is not None:
            object.__setattr__(self, "waypoints", tuple(map(tuple, check_waypoints(self.waypoints).tolist())))
        elif entry.waypoints is not None:
            raise ValueError(f"a {self.course.kind} experiment needs waypoints: its course kind has no scripted walk")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError(f"modes {self.modes} repeat a mode")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds {self.seeds} must be one or more distinct seeds")
        if min(self.seeds) < 0:
            raise ValueError(f"[experiment] seeds must be non-negative integers, got {self.seeds}")
        for mode in self.modes:
            if mode not in MODES:
                raise ValueError(
                    f"unknown mode {mode!r}, expected one of {tuple(MODES)} (odom-only is always reported)"
                )
            require_layers(MODES[mode], entry.layers)

    def prior_cov(self) -> np.ndarray:
        """The 6x6 tangent covariance of the filter prior; roll and pitch, which
        the filter takes from gravity, have none."""
        xyz, z, yaw = self.prior_std_xyz, PRIOR_STD_Z, PRIOR_STD_YAW
        return np.diag([xyz**2, xyz**2, z**2, 0.0, 0.0, yaw**2])


def default_experiment(kind: str) -> ExperimentConfig:
    """The default experiment of a course kind, from its sim.COURSES entry."""
    course = CourseSpec(kind)
    entry = COURSES[kind]
    return ExperimentConfig(entry.experiment, course, entry.waypoints, entry.noise, modes=entry.modes)


def default_chevron_experiment() -> ExperimentConfig:
    return default_experiment("chevron-ramp")


def default_tiles_experiment() -> ExperimentConfig:
    return default_experiment("class-tiles")


def default_wallroom_experiment() -> ExperimentConfig:
    return default_experiment("wall-room")


def make_training_set(per_class: int, seed: int):
    """Labeled synthetic signals covering every class, deterministic in seed."""
    rng = np.random.default_rng(seed)
    signals, labels = [], []
    for c in range(N_TERRAIN_CLASSES):
        for _ in range(per_class):
            signals.append(synth_force_signal(c, sample_signal_length(rng), rng))
            labels.append(c)
    return signals, labels


def train_contact_classifier(seed: int) -> LogisticBaseline:
    """The logistic baseline that labels the contacts of experiment seed `seed`."""
    train_seed = seed + TRAIN_SEED_OFFSET
    signals, labels = make_training_set(TRAIN_PER_CLASS, train_seed)
    return baseline_train(signals, labels, n_classes=N_TERRAIN_CLASSES, seed=train_seed)


def _reads_class(cfg: ExperimentConfig) -> bool:
    return any("class" in MODES[m] for m in cfg.modes)


def walk(cfg: ExperimentConfig, course: MapSet, seed: int) -> WalkLog:
    """The experiment's walk: its waypoints, or with none the wall room's
    probe walk, the one scripted walk (see sim.CourseKind)."""
    if cfg.waypoints is None:
        return probe_scenario(course, cfg.noise, seed)
    return simulate_walk(course, cfg.waypoints, cfg.noise, seed)


def simulate_for_config(cfg: ExperimentConfig, seed: int):
    """Course + walk log for one seed of an experiment; a mode that reads
    classes gets them from a classifier trained for the seed.

    The classifier is trained first, so that its training signals are freed
    before the course and the walk's signals exist: the seed's peak memory
    then holds one set of signals, not two. The training set, the course and
    the walk each draw from a generator of their own, so the order moves no
    draw. The labeled log classify_log returns holds no signals, which
    nothing reads after labeling (walklog_hash leaves signal references
    empty), so the walk's signals are freed with the walk's own log."""
    model = train_contact_classifier(seed) if _reads_class(cfg) else None
    course = generate_course(replace(cfg.course, seed=seed))
    log = walk(cfg, course, seed)
    return course, log if model is None else classify_log(log, model)


def run_localization(prior: Pose, inputs, maps: MapSet, mode: str, cfg: ExperimentConfig, seed: int = 0) -> FilterState:
    """Run one filter mode over step inputs with cfg's filter settings,
    starting from prior. A step only reads its StepInput, so the modes of a
    seed share one list (to_step_inputs of the seed's log)."""
    return run_filter(
        init_filter(
            prior,
            cfg.prior_cov(),
            maps,
            cfg.likelihood,
            mode=mode,
            n_particles=cfg.n_particles,
            seed=seed,
        ),
        inputs,
    )


@dataclass
class ReportRow:
    mode: str
    seed: str
    ate_m: float
    improvement_pct: float


@dataclass
class EvalReport:
    name: str
    rows: list = field(default_factory=list)
    walklog_hashes: dict = field(default_factory=dict)

    def mean_ate(self, mode: str) -> float:
        vals = [r.ate_m for r in self.rows if r.mode == mode and r.seed != "mean"]
        if not vals:
            raise KeyError(f"no rows for mode {mode}")
        return float(np.mean(vals))


def write_report(report: EvalReport, path) -> None:
    with open(path, "w") as f:
        f.write(f"# hapticloc report: {report.name}\n")
        for seed in sorted(report.walklog_hashes):
            f.write(f"# walklog seed={seed} sha256={report.walklog_hashes[seed]}\n")
        f.write("mode,seed,ate_m,improvement_pct\n")
        for r in report.rows:
            f.write(f"{r.mode},{r.seed},{r.ate_m:.6f},{r.improvement_pct:.6f}\n")


def _write_per_seed_outputs(out_dir, seed, log, results):
    d = os.path.join(out_dir, f"seed_{seed}")
    os.makedirs(d, exist_ok=True)
    times = log.timestamps()
    truth = log.true_poses()
    save_trajectory(os.path.join(d, "truth.traj"), truth, times)
    for mode, traj, state in results:
        save_trajectory(os.path.join(d, f"{mode}.traj"), traj, times)
        errs = per_step_errors(truth, traj)
        with open(os.path.join(d, f"errors_{mode}.csv"), "w") as f:
            f.write("k,err_x,err_y,err_z,err_yaw\n")
            for k, row in enumerate(errs.tolist()):
                f.write("%d,%.9g,%.9g,%.9g,%.9g\n" % (k, *row))
        if state is not None:
            write_diagnostics_csv(state, os.path.join(d, f"diagnostics_{mode}.csv"))


def _improvement_pct(ate_odom: float, ate_mode: float) -> float:
    """Percent of the odometry ATE a mode removes; nan when odometry is exact."""
    return 100.0 * (ate_odom - ate_mode) / ate_odom if ate_odom > 0.0 else float("nan")


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> EvalReport:
    """Simulate, localize in every configured mode, and score each seed.

    Odometry-only dead reckoning is always evaluated as the baseline that
    improvement percentages refer to.
    """
    report = EvalReport(name=cfg.name)
    for seed in cfg.seeds:
        course, log = simulate_for_config(cfg, seed)
        report.walklog_hashes[seed] = walklog_hash(log)
        truth = log.true_poses()
        odom_traj = log.odometry_poses()
        ate_odom = ate(truth, odom_traj)
        report.rows.append(ReportRow("odom-only", str(seed), ate_odom, 0.0))
        results = [("odom-only", odom_traj, None)]
        inputs = to_step_inputs(log)
        for mode in cfg.modes:
            state = run_localization(log.init_prior, inputs, course, mode, cfg, seed)
            a = ate(truth, state.trajectory)
            report.rows.append(ReportRow(mode, str(seed), a, _improvement_pct(ate_odom, a)))
            results.append((mode, state.trajectory, state))
        if out_dir is not None:
            _write_per_seed_outputs(out_dir, seed, log, results)

    mean_odom = report.mean_ate("odom-only")
    report.rows.append(ReportRow("odom-only", "mean", mean_odom, 0.0))
    for mode in cfg.modes:
        mean_mode = report.mean_ate(mode)
        report.rows.append(ReportRow(mode, "mean", mean_mode, _improvement_pct(mean_odom, mean_mode)))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_report(report, os.path.join(out_dir, "report.csv"))
    return report


def parse_waypoints(text) -> tuple:
    """'x,y x,y ...' -> ((x, y), ...), checked by check_waypoints."""
    try:
        waypoints = tuple((float(a), float(b)) for a, b in (p.split(",") for p in text.split()))
    except ValueError as e:
        raise ValueError(f"bad waypoint list {text!r}: expected 'x,y x,y ...'") from e
    check_waypoints(waypoints)
    return waypoints


def _tuple_of(parse):
    return lambda text: tuple(parse(word) for word in text.split())


# (section, key) -> (ExperimentConfig field or field.subfield, parser of the
# value). [experiment] kind picks the default experiment the file starts
# from, and out is the run directory, not a setting.
_INI_KEYS = {
    ("experiment", "name"): ("name", str),
    ("experiment", "seeds"): ("seeds", _tuple_of(int)),
    ("experiment", "modes"): ("modes", _tuple_of(str)),
    ("course", "resolution"): ("course.resolution", float),
    ("walk", "waypoints"): ("waypoints", parse_waypoints),
    ("noise", "white_std"): ("noise.white_std", _tuple_of(float)),
    ("noise", "z_bias"): ("noise.z_bias", float),
    ("noise", "yaw_bias"): ("noise.yaw_bias", float),
    ("noise", "outlier_prob"): ("noise.outlier_prob", float),
    ("filter", "particles"): ("n_particles", int),
    ("filter", "sigma_z"): ("likelihood.sigma_z", float),
    ("filter", "sigma_c"): ("likelihood.sigma_c", float),
    ("filter", "prior_std_xyz"): ("prior_std_xyz", float),
}
_INI_SECTIONS = tuple(dict.fromkeys(section for section, _ in _INI_KEYS))


def read_ini(path) -> configparser.ConfigParser:
    """Parse an INI file whose values are literal text: a '%' in one is not
    interpolation. A file that cannot be read, or is not INI syntax (no
    section header, a section or key listed twice), raises a one-line
    ValueError naming the file."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        read = cp.read(path)
    except configparser.Error as e:
        # some of configparser's messages span lines; the CLI prints one
        raise ValueError(f"{path}: {' '.join(str(e).split())}") from e
    if not read:
        raise ValueError(f"cannot read config file {path}")
    return cp


def load_experiment_config(path):
    """Parse an INI experiment file; unset keys keep the course's defaults.

    Returns (ExperimentConfig, out_dir or None). A section or key outside
    _INI_KEYS, or a value that does not parse, raises a ValueError naming
    the file, the section and the key; a file that read_ini refuses raises
    one naming the file.
    """
    cp = read_ini(path)
    if "experiment" not in cp or "kind" not in cp["experiment"]:
        raise ValueError(f"{path}: config needs an [experiment] section with a 'kind' key")
    kind = cp["experiment"]["kind"]
    if kind not in COURSES:
        raise ValueError(f"{path}: unknown course kind {kind!r}")
    cfg = default_experiment(kind)

    updates, sub_updates = {}, {}
    for section in cp.sections():
        if section not in _INI_SECTIONS:
            keys = ", ".join(cp[section]) or "no keys"
            raise ValueError(f"{path}: unknown section [{section}] ({keys}), expected one of {_INI_SECTIONS}")
        for key, text in cp[section].items():
            if section == "experiment" and key in ("kind", "out"):
                continue
            if (section, key) not in _INI_KEYS:
                home = [f"[{s}]" for s, k in _INI_KEYS if k == key]
                hint = f" (it belongs in {', '.join(home)})" if home else ""
                raise ValueError(f"{path}: unknown key {key!r} in section [{section}]{hint}")
            name, parse = _INI_KEYS[section, key]
            try:
                value = parse(text)
            except ValueError as e:
                raise ValueError(f"{path}: [{section}] {key} = {text!r}: {e}") from e
            fld, _, sub = name.partition(".")
            if sub:
                sub_updates.setdefault(fld, {})[sub] = value
            else:
                updates[fld] = value
    try:
        for fld, values in sub_updates.items():
            updates[fld] = replace(getattr(cfg, fld), **values)
        cfg = replace(cfg, **updates)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e
    return cfg, cp["experiment"].get("out")

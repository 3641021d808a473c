"""ATE metric, experiment configs, report generation, INI parsing."""

import filecmp
import pathlib
import re
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

import hapticloc.evaluate as evaluate_module
import hapticloc.mcl as mcl_module
from hapticloc.evaluate import (
    _INI_KEYS,
    EvalReport,
    ExperimentConfig,
    ReportRow,
    _yaws,
    ate,
    default_chevron_experiment,
    default_experiment,
    default_tiles_experiment,
    default_wallroom_experiment,
    load_experiment_config,
    per_step_errors,
    run_experiment,
    run_localization,
    simulate_for_config,
    to_step_inputs,
    write_report,
)
from hapticloc.geometry import Pose, quat_from_rotvec
from hapticloc.likelihood import LikelihoodConfig
from hapticloc.mcl import init_filter, run_filter
from hapticloc.sim import COURSES, STEP_LENGTH, CourseSpec, NoiseSpec, generate_course, simulate_walk, walklog_hash
from per_pose import quat_from_yaw


def pose(x=0.0, y=0.0, z=0.0, yaw=0.0):
    return Pose(np.array([x, y, z]), quat_from_yaw(yaw))


def test_ate_identical_trajectories_is_zero():
    traj = [pose(k * 0.1, 0.0, 0.3, 0.2 * k) for k in range(5)]
    assert ate(traj, traj) == 0.0


def test_ate_constant_world_shift():
    truth = [pose(k * 0.1) for k in range(6)]
    est = [pose(k * 0.1 + 0.1) for k in range(6)]
    assert ate(truth, est) == pytest.approx(0.1, abs=1e-12)


def test_ate_invariant_to_truth_orientation():
    # rotated truth frames change error direction, never its norm
    truth = [pose(1.0, 2.0, 0.0, yaw=np.pi / 2) for _ in range(4)]
    est = [pose(1.1, 2.0, 0.0, yaw=np.pi / 2) for _ in range(4)]
    assert ate(truth, est) == pytest.approx(0.1, abs=1e-12)
    rng = np.random.default_rng(0)
    truth = [Pose(rng.normal(size=3), quat_from_rotvec(0.5 * rng.normal(size=3))) for _ in range(20)]
    d = np.array([0.03, -0.04, 0.12])
    est = [Pose(p.position + d, p.quat) for p in truth]
    assert ate(truth, est) == pytest.approx(np.linalg.norm(d), abs=1e-12)


def test_ate_mixed_offsets_average():
    truth = [pose() for _ in range(4)]
    est = [pose(0.1), pose(0.1), pose(0.0, 0.2), pose(0.0, 0.2)]
    assert ate(truth, est) == pytest.approx(0.15, abs=1e-12)


def test_ate_validation():
    with pytest.raises(ValueError, match="mismatch"):
        ate([pose()], [pose(), pose()])
    with pytest.raises(ValueError):
        ate([], [])


def test_yaws_of_pure_yaw():
    yaws = (-3.0, -1.2, 0.0, 0.7, 2.9)
    assert _yaws([pose(yaw=yaw) for yaw in yaws]) == pytest.approx(yaws, abs=1e-12)


def test_per_step_errors_components_and_yaw_wrap():
    truth = [pose(1.0, 2.0, 0.5, yaw=np.pi - 0.1)]
    est = [pose(1.2, 1.9, 0.6, yaw=-np.pi + 0.1)]
    e = per_step_errors(truth, est)
    assert e.shape == (1, 4)
    assert np.allclose(e[0, :3], [0.2, -0.1, 0.1], atol=1e-12)
    assert e[0, 3] == pytest.approx(0.2, abs=1e-12)


def test_to_step_inputs_scales_covariance():
    maps = generate_course(CourseSpec("chevron-ramp", seed=1))
    log = simulate_walk(maps, ((1.0, 0.7), (1.25, 0.7)), NoiseSpec(white_std=(0.004,) * 6), 0)
    inputs = to_step_inputs(log)
    assert len(inputs) == 5
    want = np.diag(1.5**2 * np.full(6, 0.004**2))
    for inp, rec in zip(inputs, log.records):
        assert np.allclose(inp.odom_cov, want, atol=1e-18)
        # the record's contacts themselves, in a tuple: the input's layout is fixed
        assert type(inp.contacts) is tuple and list(map(id, inp.contacts)) == list(map(id, rec.contacts))
        assert inp.tilt == rec.tilt


def test_experiment_config_validation():
    ok = default_chevron_experiment()
    # only wall-room has a scripted walk to take without waypoints
    for kind in ("chevron-ramp", "class-tiles"):
        with pytest.raises(ValueError, match=f"a {kind} experiment needs waypoints"):
            ExperimentConfig("x", CourseSpec(kind), None)
    with pytest.raises(ValueError, match=r"requires a class layer, not among the map layers \('elevation',\)"):
        ExperimentConfig("x", CourseSpec("chevron-ramp"), ((0, 0), (1, 0)), modes=("HL-GC",))
    with pytest.raises(ValueError, match="unknown mode"):
        ExperimentConfig("x", CourseSpec("chevron-ramp"), ((0, 0), (1, 0)), modes=("HL-Z",))
    cov = ok.prior_cov()
    assert np.allclose(np.diag(cov), [0.12**2, 0.12**2, 0.02**2, 0.0, 0.0, 0.05**2])


# modes and seeds each list distinct values, checked by the constructor and
# so by the INI loader
@pytest.mark.parametrize(
    "key, values, match",
    [
        ("modes", ("odom-only", "HL-G"), "unknown mode 'odom-only'"),
        ("modes", ("HL-G", "HL-G"), "repeat"),
        ("seeds", (), "distinct seeds"),
        ("seeds", (1, 1), "distinct seeds"),
        ("seeds", (-3, 1), "non-negative"),
    ],
    ids=["odom-only", "repeated", "no-seeds", "repeated-seeds", "negative-seed"],
)
def test_modes_are_distinct_filter_modes(key, values, match, tmp_path):
    with pytest.raises(ValueError, match=match):
        replace(default_chevron_experiment(), **{key: values})
    p = tmp_path / "modes.ini"
    p.write_text(f"[experiment]\nkind = chevron-ramp\n{key} = {' '.join(map(str, values))}\n")
    with pytest.raises(ValueError, match=match):
        load_experiment_config(p)


# waypoints that cannot be walked fail at construction, so the INI loader
# rejects them too, naming the file, the section and the key
@pytest.mark.parametrize(
    "waypoints, text, match",
    [
        (((1.0, 0.7),), "1.0,0.7", r"\(n>=2, 2\) array, got shape \(1, 2\)"),
        (((1.0, 0.7), (float("nan"), 0.7)), "1.0,0.7 nan,0.7", "finite"),
        (((1.0, 0.7), (3.0, float("inf"))), "1.0,0.7 3.0,inf", "finite"),
        (((1.0, 0.7), (3.0, 0.7), (3.0, 0.7)), "1.0,0.7 3.0,0.7 3.0,0.7", "duplicate consecutive"),
    ],
    ids=["one-waypoint", "nan", "inf", "repeated"],
)
def test_unwalkable_waypoints_are_rejected(waypoints, text, match, tmp_path):
    with pytest.raises(ValueError, match=match):
        replace(default_chevron_experiment(), waypoints=waypoints)
    p = tmp_path / "walk.ini"
    p.write_text(f"[experiment]\nkind = chevron-ramp\n[walk]\nwaypoints = {text}\n")
    with pytest.raises(ValueError, match=match) as err:
        load_experiment_config(p)
    assert str(err.value).startswith(f"{p}: [walk] waypoints = ")


# a walk must log at least one step of sim.STEP_LENGTH; the INI loader
# checks the span as it parses the waypoints, so it names the key
@pytest.mark.parametrize(
    "walk, waypoints",
    [
        ("waypoints = 1.0,0.7 1.03,0.7", ((1.0, 0.7), (1.03, 0.7))),
        ("waypoints = 1.0,0.7 1.03,0.7 1.03,0.71", ((1.0, 0.7), (1.03, 0.7), (1.03, 0.71))),
    ],
    ids=["one-leg", "two-legs"],
)
def test_a_walk_shorter_than_one_step_is_rejected(walk, waypoints, tmp_path):
    match = f"waypoints span .* m, shorter than one {STEP_LENGTH} m step"
    with pytest.raises(ValueError, match=match):
        replace(default_chevron_experiment(), waypoints=waypoints)
    p = tmp_path / "short.ini"
    p.write_text(f"[experiment]\nkind = chevron-ramp\n[walk]\n{walk}\n")
    with pytest.raises(ValueError, match=match) as err:
        load_experiment_config(p)
    assert str(err.value).startswith(f"{p}: [walk] waypoints = ")


def test_a_walk_of_one_step_is_walked():
    cfg = replace(default_chevron_experiment(), waypoints=((1.0, 0.7), (1.05, 0.7)))
    _, log = simulate_for_config(cfg, 1)
    assert log.n_steps == 1


def settings(obj, prefix=""):
    """Dotted names of a config's settable fields, nested configs expanded."""
    names = set()
    for f in fields(obj):
        if f.init:
            value = getattr(obj, f.name)
            names |= settings(value, f"{prefix}{f.name}.") if is_dataclass(value) else {prefix + f.name}
    return names


def test_every_setting_is_an_ini_key():
    # but the course kind, which picks the builder, and the course seed,
    # which each seed of a run sets
    want = {name for name, _ in _INI_KEYS.values()} | {"course.kind", "course.seed"}
    for builder in (default_chevron_experiment, default_tiles_experiment, default_wallroom_experiment):
        assert settings(builder()) == want
    assert len(want) == 15


def test_readme_ini_table_lists_exactly_the_loader_keys():
    # README's "| `[section]` | keys |" rows, against _INI_KEYS plus
    # [experiment] kind and out, which pick the builder and the run directory
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `\[(\w+)\]` +\|(.*)\|$", readme, re.M)
    listed = [(section, key) for section, keys in rows for key in re.findall(r"(?:^|,)\s*`(\w+)`", keys)]
    assert len(listed) == len(set(listed))
    assert set(listed) == set(_INI_KEYS) | {("experiment", "kind"), ("experiment", "out")}


def test_default_experiments_are_valid():
    for builder in (default_chevron_experiment, default_tiles_experiment, default_wallroom_experiment):
        cfg = builder()
        assert cfg.seeds == (1, 2, 3, 4, 5)
        assert cfg.n_particles == 500
        # the kind's COURSES entry names the experiment
        assert cfg.course == CourseSpec(cfg.course.kind)
        assert cfg.name == COURSES[cfg.course.kind].experiment
    with pytest.raises(ValueError, match="unknown course kind 'volcano'"):
        default_experiment("volcano")


def tiny_chevron(seeds=(1, 2)):
    return replace(default_chevron_experiment(), seeds=seeds, waypoints=((1.0, 0.7), (3.4, 0.7)), n_particles=150)


def test_run_experiment_report_structure_and_consistency(tmp_path):
    cfg = tiny_chevron()
    report = run_experiment(cfg, out_dir=tmp_path / "run")
    n_seeds, n_modes = len(cfg.seeds), len(cfg.modes)
    assert len(report.rows) == (n_seeds + 1) * (n_modes + 1)
    odom = {r.seed: r.ate_m for r in report.rows if r.mode == "odom-only"}
    for r in report.rows:
        if r.mode == "odom-only":
            assert r.improvement_pct == 0.0
        else:
            want = 100.0 * (odom[r.seed] - r.ate_m) / odom[r.seed]
            assert abs(r.improvement_pct - want) < 1e-9
    assert report.mean_ate("HL-G") == pytest.approx(
        np.mean([r.ate_m for r in report.rows if r.mode == "HL-G" and r.seed != "mean"])
    )
    with pytest.raises(KeyError):
        report.mean_ate("HL-3D")

    # per-seed artifacts
    for seed in cfg.seeds:
        d = tmp_path / "run" / f"seed_{seed}"
        assert (d / "truth.traj").exists()
        assert (d / "HL-G.traj").exists()
        assert (d / "diagnostics_HL-G.csv").exists()
        errs = (d / "errors_HL-G.csv").read_text().strip().split("\n")
        assert errs[0] == "k,err_x,err_y,err_z,err_yaw"
        assert len(errs) == 2 + log_steps(cfg, seed)
        assert (d / "errors_odom-only.csv").exists()

    text = (tmp_path / "run" / "report.csv").read_text().split("\n")
    assert text[0] == "# hapticloc report: chevron"
    hash_lines = [l for l in text if l.startswith("# walklog seed=")]
    assert len(hash_lines) == n_seeds
    header_idx = text.index("mode,seed,ate_m,improvement_pct")
    data = [l for l in text[header_idx + 1 :] if l]
    assert len(data) == len(report.rows)
    for line in data:
        mode, seed, a, imp = line.split(",")
        if mode != "odom-only" and seed in odom:
            # file-level self-consistency, at the file's 6-decimal precision
            want = 100.0 * (odom[seed] - float(a)) / odom[seed]
            assert abs(float(imp) - want) < 5e-3


def log_steps(cfg, seed):
    _, log = simulate_for_config(cfg, seed)
    return log.n_steps


def test_run_experiment_byte_identical_reruns(tmp_path):
    cfg = tiny_chevron(seeds=(3,))
    run_experiment(cfg, out_dir=tmp_path / "a")
    run_experiment(cfg, out_dir=tmp_path / "b")
    for rel in ("report.csv", "seed_3/truth.traj", "seed_3/HL-G.traj", "seed_3/errors_HL-G.csv"):
        assert filecmp.cmp(tmp_path / "a" / rel, tmp_path / "b" / rel, shallow=False), rel


def test_report_hash_lines_match_walklogs(tmp_path):
    from hapticloc.sim import walklog_hash

    cfg = tiny_chevron(seeds=(4,))
    report = run_experiment(cfg)
    _, log = simulate_for_config(cfg, 4)
    assert report.walklog_hashes[4] == walklog_hash(log)


def test_write_report_row_order(tmp_path):
    rep = EvalReport(name="demo", walklog_hashes={2: "ff", 1: "aa"})
    rep.rows = [ReportRow("odom-only", "1", 0.25, 0.0), ReportRow("HL-G", "1", 0.05, 80.0)]
    p = tmp_path / "r.csv"
    write_report(rep, p)
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "# hapticloc report: demo"
    assert lines[1] == "# walklog seed=1 sha256=aa"
    assert lines[2] == "# walklog seed=2 sha256=ff"
    assert lines[3] == "mode,seed,ate_m,improvement_pct"
    assert lines[4] == "odom-only,1,0.250000,0.000000"
    assert lines[5] == "HL-G,1,0.050000,80.000000"


def test_simulate_for_config_class_probs():
    cfg = replace(default_tiles_experiment(), waypoints=((0.6, 0.6), (2.0, 0.6)))
    _, log = simulate_for_config(cfg, 1)
    soft = [c for r in log.records for c in r.contacts if c.class_probs is not None]
    assert soft
    for c in soft:
        assert c.class_probs.sum() == pytest.approx(1.0, abs=1e-9)


def record_calls(monkeypatch, *targets):
    """The list to which each call of the (module, name) targets appends
    its name, in call order; the calls go through to the real functions."""
    calls = []

    def wrap(name, real):
        def recorded(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return recorded

    for module, name in targets:
        monkeypatch.setattr(module, name, wrap(name, getattr(module, name)))
    return calls


def test_a_class_seed_trains_its_classifier_before_it_builds_the_course(monkeypatch):
    # so the training signals are freed before the walk's signals exist
    names = ("train_contact_classifier", "generate_course", "walk", "classify_log")
    calls = record_calls(monkeypatch, *((evaluate_module, name) for name in names))
    simulate_for_config(replace(default_tiles_experiment(), waypoints=((0.6, 0.6), (1.0, 0.6))), 1)
    assert calls == list(names)


def test_class_tiles_walk_does_not_depend_on_the_modes():
    # a walk on a course with a class layer always logs its force signals, so
    # the signal draws, and with them the odometry noise, do not depend on
    # whether a mode reads classes
    hashes = {
        modes: walklog_hash(simulate_for_config(replace(default_tiles_experiment(), modes=modes), 1)[1])
        for modes in (("HL-G",), default_tiles_experiment().modes)
    }
    assert len(set(hashes.values())) == 1
    assert hashes["HL-G",].startswith("cbd5b4067401")


def test_a_class_seed_releases_its_signals_once_its_contacts_are_labeled():
    # nothing reads a signal after classify_log, so the filters run without
    # the walk's signals; the log hashes as it did with them
    _, log = simulate_for_config(default_tiles_experiment(), 1)
    assert not log.has_signals and all(r.signals == [None] * 4 for r in log.records)
    assert any(c.class_probs is not None for r in log.records for c in r.contacts)
    assert walklog_hash(log).startswith("cbd5b4067401")


def test_courses_differ_across_experiment_seeds():
    cfg = tiny_chevron()
    a, _ = simulate_for_config(cfg, 1)
    b, _ = simulate_for_config(cfg, 2)
    assert not np.array_equal(a.elevation.heights, b.elevation.heights)


def test_run_localization_reads_the_experiment_config():
    maps = generate_course(CourseSpec("chevron-ramp", seed=1))
    log = simulate_walk(maps, ((1.0, 0.7), (1.5, 0.7)), NoiseSpec(white_std=(0.004,) * 6), 0)
    cfg = replace(
        default_chevron_experiment(),
        likelihood=LikelihoodConfig(sigma_z=0.02),
        n_particles=80,
        prior_std_xyz=0.1,
    )
    st = run_localization(log.init_prior, to_step_inputs(log), maps, "HL-G", cfg, seed=3)
    want = run_filter(
        init_filter(
            log.init_prior,
            np.diag([0.1**2, 0.1**2, 0.02**2, 0.02**2, 0.02**2, 0.05**2]),
            maps,
            LikelihoodConfig(sigma_z=0.02),
            mode="HL-G",
            n_particles=80,
            seed=3,
        ),
        to_step_inputs(log),
    )
    assert len(st.trajectory) == 11 and st.n_particles == 80
    assert all(np.array_equal(a.to_array(), b.to_array()) for a, b in zip(st.trajectory, want.trajectory))
    assert [d.ess for d in st.diagnostics] == [d.ess for d in want.diagnostics]


def test_modes_sharing_one_input_list_match_a_fresh_list_each():
    # run_experiment builds a seed's step inputs once for all its modes: a
    # step only reads them, so each mode, run after the others on the shared
    # list, steps as it does on a list of its own
    cfg = replace(default_tiles_experiment(), waypoints=((0.6, 0.6), (2.0, 0.6), (2.0, 1.2)), n_particles=100)
    course, log = simulate_for_config(cfg, 2)
    shared = to_step_inputs(log)
    for mode in cfg.modes:
        got = run_localization(log.init_prior, shared, course, mode, cfg, seed=2)
        want = run_localization(log.init_prior, to_step_inputs(log), course, mode, cfg, seed=2)
        assert [p.to_array().tobytes() for p in got.trajectory] == [p.to_array().tobytes() for p in want.trajectory]
        assert [d.ess for d in got.diagnostics] == [d.ess for d in want.diagnostics]
    for a, b in zip(shared, to_step_inputs(log)):
        assert np.array_equal(a.odom_cov, b.odom_cov) and a.tilt == b.tilt


def test_a_three_mode_tiles_seed_makes_the_propagation_terms_once_per_input(monkeypatch):
    # HL-G, HL-GC and HL-C start from one prior and step one input list: the
    # first mode to step an input makes its terms, and the others reuse them,
    # except on their first input, which each starts from the rotation its
    # init_filter made (the terms are keyed by the start rotation)
    terms, steps = [], []
    make_terms, make_step = mcl_module._propagation_terms, mcl_module.step

    def counted_terms(*args):
        terms.append(args)
        return make_terms(*args)

    def counted_step(state, inp):
        steps.append(inp)
        return make_step(state, inp)

    monkeypatch.setattr(mcl_module, "_propagation_terms", counted_terms)
    monkeypatch.setattr(mcl_module, "step", counted_step)
    cfg = replace(default_tiles_experiment(), waypoints=((0.6, 0.6), (2.0, 0.6), (2.0, 1.2)), n_particles=100,
                  seeds=(3,))
    assert cfg.modes == ("HL-G", "HL-GC", "HL-C")
    run_experiment(cfg)
    inputs = list(dict.fromkeys(steps))
    assert len(inputs) > 0 and len(steps) == 3 * len(inputs)
    assert len(terms) == len(inputs) + len(cfg.modes) - 1


def test_load_experiment_config_overrides(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text(
        "[experiment]\n"
        "kind = class-tiles\n"
        "name = my-tiles 100%\n"
        "seeds = 7 8\n"
        "modes = HL-G HL-GC\n"
        "out = runs/custom\n"
        "[course]\n"
        "resolution = 0.1\n"
        "[walk]\n"
        "waypoints = 0.6,0.6 4.0,0.6\n"
        "[noise]\n"
        "white_std = 0.003 0.003 0.002 0.0003 0.0003 0.001\n"
        "z_bias = 0.002\n"
        "[filter]\n"
        "particles = 350\n"
        "sigma_z = 0.02\n"
        "prior_std_xyz = 0.2\n"
    )
    cfg, out = load_experiment_config(p)
    assert cfg.name == "my-tiles 100%"
    assert cfg.course.kind == "class-tiles" and cfg.course.resolution == 0.1
    assert cfg.seeds == (7, 8)
    assert cfg.modes == ("HL-G", "HL-GC")
    assert cfg.n_particles == 350
    assert cfg.waypoints == ((0.6, 0.6), (4.0, 0.6))
    assert cfg.noise.white_std == (0.003, 0.003, 0.002, 0.0003, 0.0003, 0.001)
    assert cfg.noise.z_bias == 0.002
    assert cfg.noise.yaw_bias == 0.0006  # untouched default for this course
    # a new config, so the floor follows the new sigma_z
    assert cfg.likelihood == LikelihoodConfig(sigma_z=0.02, sigma_c=0.05)
    assert cfg.prior_std_xyz == 0.2
    assert out == "runs/custom"


# (INI text, pattern of the error); each error starts with the file's path
BAD_CONFIGS = [
    ("[experiment]\nname = x\n", "kind"),
    ("[experiment]\nkind = volcano\n", "unknown course kind"),
    ("[experiment]\nkind = chevron-ramp\n[filtr]\nparticles = 7\n", r"unknown section \[filtr\] \(particles\)"),
    ("[experiment]\nkind = chevron-ramp\n[filter]\npartciles = 7\n", r"unknown key 'partciles' in section \[filter\]"),
    (
        "[experiment]\nkind = chevron-ramp\nparticles = 7\n",
        r"unknown key 'particles' in section \[experiment\] \(it belongs in \[filter\]\)",
    ),
    ("[experiment]\nkind = chevron-ramp\n[filter]\nparticles = 7.5\n", r"\[filter\] particles = '7.5'"),
    ("[experiment]\nkind = chevron-ramp\n[noise]\nz_bias = fast\n", r"\[noise\] z_bias = 'fast'"),
    ("[experiment]\nkind = chevron-ramp\nseeds = 1 two\n", r"\[experiment\] seeds = '1 two'"),
    ("[experiment]\nkind = chevron-ramp\n[walk]\nwaypoints = 1.0,0.7 3.0\n", r"\[walk\] waypoints = .*bad waypoint list"),
    # the retired settings, now module constants of sim and mcl
    ("[experiment]\nkind = chevron-ramp\n[walk]\nstep_length = 0.05\n", r"unknown key 'step_length' in section \[walk\]$"),
    ("[experiment]\nkind = chevron-ramp\n[walk]\nstanding_height = 0.5\n", r"unknown key 'standing_height' in section \[walk\]$"),
    ("[experiment]\nkind = chevron-ramp\n[filter]\nresample_frac = 0.5\n", r"unknown key 'resample_frac' in section \[filter\]$"),
    ("[experiment]\nkind = chevron-ramp\n[filter]\nxy_std_threshold = 0.1\n", r"unknown key 'xy_std_threshold' in section \[filter\]$"),
    # noise settings no walk can use (the constructor's side: tests/test_sim.py)
    ("[experiment]\nkind = chevron-ramp\n[noise]\nwhite_std = 0.1 0.1\n", "white_std must hold 6 finite values"),
    ("[experiment]\nkind = chevron-ramp\n[noise]\nwhite_std = 0 0 0 0 0 -0.1\n", "white_std must hold 6 finite values"),
    ("[experiment]\nkind = chevron-ramp\n[noise]\nwhite_std = 0 0 0 0 0 nan\n", "white_std must hold 6 finite values"),
    ("[experiment]\nkind = chevron-ramp\n[noise]\nz_bias = nan\n", "z_bias must be finite"),
    ("[experiment]\nkind = chevron-ramp\n[noise]\nyaw_bias = inf\n", "yaw_bias must be finite"),
    ("[experiment]\nkind = chevron-ramp\n[noise]\noutlier_prob = 7\n", r"outlier_prob must lie in \[0, 1\], got 7.0"),
    # settings that once ran every step with underflowed weights, or failed
    # after the walk was simulated without naming the key
    ("[experiment]\nkind = chevron-ramp\n[filter]\nsigma_z = inf\n", r"\[filter\] sigma_z must be finite .*, got inf"),
    ("[experiment]\nkind = chevron-ramp\n[filter]\nsigma_z = 1e-320\n", r"\[filter\] sigma_z must be .*, got 1e-320"),
    ("[experiment]\nkind = chevron-ramp\n[filter]\nsigma_c = 1e308\n", r"\[filter\] sigma_c must be .*, got 1e\+308"),
    ("[experiment]\nkind = chevron-ramp\n[course]\nresolution = inf\n", "course resolution must be finite and positive, got inf"),
    ("[experiment]\nkind = chevron-ramp\nseeds = -3 1\n", r"\[experiment\] seeds must be non-negative integers, got \(-3, 1\)"),
]


def test_load_experiment_config_errors(tmp_path):
    with pytest.raises(ValueError, match="cannot read"):
        load_experiment_config(tmp_path / "missing.ini")
    p = tmp_path / "bad.ini"
    for body, match in BAD_CONFIGS:
        p.write_text(body)
        with pytest.raises(ValueError, match=match) as err:
            load_experiment_config(p)
        assert str(err.value).startswith(str(p))


def test_wall_room_config_with_waypoints_walks_them(tmp_path):
    # an experiment walks its waypoints; the wall probe is only the walk of
    # a wall-room experiment without them
    root = pathlib.Path(__file__).resolve().parents[1] / "configs"
    p = tmp_path / "room.ini"
    p.write_text((root / "wall_room.ini").read_text() + "\n[walk]\nwaypoints = 0.2,-0.4 1.2,-0.4\n")
    cfg, _ = load_experiment_config(p)
    _, log = simulate_for_config(cfg, 1)
    assert np.array_equal(log.true_poses()[0].position[:2], [0.2, -0.4])
    assert log.n_steps == 20


def test_packaged_configs_parse():
    root = pathlib.Path(__file__).resolve().parents[1] / "configs"
    for name, builder in (
        ("chevron.ini", default_chevron_experiment),
        ("class_tiles.ini", default_tiles_experiment),
        ("wall_room.ini", default_wallroom_experiment),
    ):
        cfg, out = load_experiment_config(root / name)
        assert cfg == builder()
        assert out is None

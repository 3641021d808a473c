"""Output writers: each row's one %-format gives the bytes of the per-value
format(v, ".17g") joiners these files were first written with, which stay
here as the oracle."""

import io
from types import SimpleNamespace

import numpy as np

from hapticloc.evaluate import _write_per_seed_outputs, per_step_errors
from hapticloc.geometry import FOOT_LABELS, Pose
from hapticloc.likelihood import ContactMeasurement
from hapticloc.mcl import StepDiagnostics, write_diagnostics_csv
from hapticloc.sim import WALKLOG_VERSION, CourseSpec, _write_walklog, generate_course, simulate_walk
from test_sim import QUIET, straight

# a signed zero, the smallest subnormal, a huge magnitude and values that
# take all 17 digits
TINY, HUGE, THIRD, SUM = 5e-324, 1e300, 1.0 / 3.0, 0.1 + 0.2

TIMES = [-0.0, TINY, HUGE, THIRD]
TRUTH = [Pose([0.0, 0.0, 0.0]), Pose([1.0, 2.0, 3.0]), Pose([0.0, 0.0, 0.0]), Pose([0.0, 0.0, 0.0])]
# every column of the estimate, and of its error against the truth, holds
# each kind of value
ESTIMATE = [
    Pose([-0.0, TINY, HUGE], [-0.0, TINY, 0.0, 1.0]),
    Pose([1.0 + 2.0 / 3.0, 2.0 + THIRD, 123456789.12345678], [0.1, 0.2, 0.3, 0.9]),
    Pose([HUGE, -0.0, TINY], [0.0, 0.0, -0.0, -1.0]),
    Pose([TINY, -HUGE, -0.0], [0.5, -0.5, 0.5, THIRD]),
]


def g(v):
    return format(v, ".17g")


def oracle_trajectory(times, poses):
    return "".join(
        " ".join(g(v) for v in np.concatenate([[t], p.to_array()])) + "\n"
        for t, p in zip(np.asarray(times, dtype=float), poses)
    )


def oracle_errors(truth, est):
    rows = (f"{k}," + ",".join(format(v, ".9g") for v in row) + "\n" for k, row in enumerate(per_step_errors(truth, est)))
    return "k,err_x,err_y,err_z,err_yaw\n" + "".join(rows)


def oracle_diagnostics(state):
    out = "k,ess,xy_std_x,xy_std_y,branch,x,y,z,qx,qy,qz,qw\n"
    for k, d in enumerate(state.diagnostics, start=1):
        pose = ",".join(g(v) for v in state.trajectory[k].to_array())
        out += f"{k},{d.ess:.17g},{d.xy_std[0]:.17g},{d.xy_std[1]:.17g},{d.branch},{pose}\n"
    return out


def oracle_walklog_header():
    pose = ("x", "y", "z", "qx", "qy", "qz", "qw")
    cols = ["k", "t"] + [f"true_{c}" for c in pose] + [f"odo_{c}" for c in pose]
    cols += ["cov_x", "cov_y", "cov_z", "cov_roll", "cov_pitch", "cov_yaw", "tilt_roll", "tilt_pitch"]
    for label in FOOT_LABELS:
        cols += [f"{label}_{c}" for c in ("off_x", "off_y", "off_z", "contact", "world_z", "class", "signal")]
    return ",".join(cols)


def oracle_walklog(log, signals_dir=None):
    out = f"# walklog {WALKLOG_VERSION}\n"
    out += "# start_pose " + " ".join(g(v) for v in log.start_pose.to_array()) + "\n"
    out += "# init_prior " + " ".join(g(v) for v in log.init_prior.to_array()) + "\n"
    out += oracle_walklog_header() + "\n"
    for r in log.records:
        row = [str(r.k), g(r.timestamp)]
        row += [g(v) for v in r.true_pose.to_array()]
        row += [g(v) for v in r.odom_increment.to_array()]
        row += [g(v) for v in r.odom_cov_diag]
        row += [g(v) for v in r.tilt]
        for j, contact in enumerate(r.contacts):
            row += [g(v) for v in contact.offset]
            row.append("1" if contact.in_contact else "0")
            row.append(g(r.true_foot_world[j, 2]))
            row.append(str(int(r.true_class_ids[j])))
            has_ref = signals_dir is not None and r.signals[j] is not None
            row.append(f"{signals_dir}/sig_{r.k:05d}_{FOOT_LABELS[j]}.csv" if has_ref else "")
        out += ",".join(row) + "\n"
    return out


def test_trajectory_and_error_rows_match_the_oracle(tmp_path):
    log = SimpleNamespace(timestamps=lambda: np.array(TIMES), true_poses=lambda: TRUTH)
    _write_per_seed_outputs(tmp_path, 7, log, [("HL-G", ESTIMATE, None)])
    d = tmp_path / "seed_7"
    assert (d / "truth.traj").read_text() == oracle_trajectory(TIMES, TRUTH)
    assert (d / "HL-G.traj").read_text() == oracle_trajectory(TIMES, ESTIMATE)
    errors = (d / "errors_HL-G.csv").read_text()
    assert errors == oracle_errors(TRUTH, ESTIMATE)
    assert "-0," in errors and "4.94065646e-324" in errors and "1e+300" in errors


def test_diagnostics_rows_match_the_oracle(tmp_path):
    diagnostics = [
        StepDiagnostics(-0.0, np.array([TINY, HUGE]), "full", 5),
        StepDiagnostics(THIRD, np.array([-0.0, SUM]), "z-only", 5),
        StepDiagnostics(HUGE, np.array([123456789.12345678, TINY]), "full", 3),
    ]
    state = SimpleNamespace(diagnostics=diagnostics, trajectory=ESTIMATE)
    write_diagnostics_csv(state, tmp_path / "diag.csv")
    assert (tmp_path / "diag.csv").read_text() == oracle_diagnostics(state)


def test_walklog_rows_match_the_oracle():
    log = simulate_walk(generate_course(CourseSpec("class-tiles", seed=2)), straight(0.2, start=(0.6, 0.6)), QUIET, 3)
    log.start_pose = ESTIMATE[0]
    r = log.records[0]
    r.timestamp = -0.0
    r.true_pose, r.odom_increment = ESTIMATE[1], ESTIMATE[3]
    r.odom_cov_diag = np.array([-0.0, TINY, HUGE, THIRD, SUM, 123456789.12345678])
    r.tilt = (-0.0, TINY)
    r.true_foot_world[:, 2] = [-0.0, TINY, HUGE, SUM]
    r.contacts[1] = ContactMeasurement([-0.0, TINY, HUGE], None, False)
    r.signals[2] = None
    assert sum(s is not None for s in r.signals) == 3
    for signals_dir in (None, "signals"):
        buf = io.StringIO()
        _write_walklog(log, buf, signals_dir)
        assert buf.getvalue() == oracle_walklog(log, signals_dir)

"""End-to-end command-line flows, driven through main() in-process."""

import json
import os
import pathlib
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from hapticloc import evaluate, sim
from hapticloc.cli import load_course_dir, main
from hapticloc.evaluate import (
    default_chevron_experiment,
    default_tiles_experiment,
    default_wallroom_experiment,
    run_experiment,
    run_localization,
    simulate_for_config,
    to_step_inputs,
    train_contact_classifier,
)
from hapticloc.geometry import save_trajectory
from hapticloc.maps import UNKNOWN_CLASS, ClassGrid, load_map, save_map
from hapticloc.sim import classify_log, load_walklog, save_walklog, walklog_hash
from test_evaluate import record_calls

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_identical_trajectories(tmp_path, capsys):
    p = tmp_path / "a.traj"
    p.write_text("0 1 2 0.5 0 0 0 1\n1 1.1 2 0.5 0 0 0 1\n")
    code, out, err = run(capsys, "eval", "--truth", str(p), "--est", str(p))
    assert code == 0
    assert out.strip() == "0.000000"


def test_eval_constant_offset(tmp_path, capsys):
    t = tmp_path / "t.traj"
    e = tmp_path / "e.traj"
    t.write_text("0 1.0 2 0.5 0 0 0 1\n1 1.5 2 0.5 0 0 0 1\n")
    e.write_text("0 1.1 2 0.5 0 0 0 1\n1 1.6 2 0.5 0 0 0 1\n")
    code, out, _ = run(capsys, "eval", "--truth", str(t), "--est", str(e))
    assert code == 0
    assert out.strip() == "0.100000"


def test_eval_rejects_trajectories_whose_times_differ(tmp_path, capsys):
    # each pose shifted by 100 s once scored 0.000000 against its source
    t = tmp_path / "t.traj"
    e = tmp_path / "e.traj"
    t.write_text("0 1.0 2 0.5 0 0 0 1\n1 1.5 2 0.5 0 0 0 1\n")
    e.write_text("0 1.0 2 0.5 0 0 0 1\n101 1.5 2 0.5 0 0 0 1\n")
    code, out, err = run(capsys, "eval", "--truth", str(t), "--est", str(e))
    assert code == 1 and out == ""
    assert err == f"error: the trajectories' times differ at row 2: 1.0 in {t}, 101.0 in {e}\n"


@pytest.mark.parametrize("bad", ["0 1.1 nan 0.5 0 0 0 1", "0 1.1 2 0.5 nan 0 0 1"])
def test_eval_rejects_non_finite_fields(tmp_path, capsys, bad):
    t = tmp_path / "t.traj"
    e = tmp_path / "e.traj"
    t.write_text("0 1.0 2 0.5 0 0 0 1\n")
    e.write_text(bad + "\n")
    code, out, err = run(capsys, "eval", "--truth", str(t), "--est", str(e))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {e}:1: ") and len(err.splitlines()) == 1


def test_eval_names_the_line_of_a_zero_quaternion(tmp_path, capsys):
    t = tmp_path / "t.traj"
    e = tmp_path / "e.traj"
    t.write_text("0 1.0 2 0.5 0 0 0 1\n1 1.5 2 0.5 0 0 0 1\n")
    e.write_text("0 1.0 2 0.5 0 0 0 1\n1 1 2 3 0 0 0 0\n")
    code, out, err = run(capsys, "eval", "--truth", str(t), "--est", str(e))
    assert code == 1 and out == ""
    assert err == f"error: {e}:2: zero-norm quaternion cannot be normalized\n"


def test_eval_missing_file_errors(tmp_path, capsys):
    code, out, err = run(capsys, "eval", "--truth", str(tmp_path / "no.traj"), "--est", str(tmp_path / "no.traj"))
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


def test_make_course_rejects_an_infinite_resolution(tmp_path, capsys):
    # it once failed in the course builder with a numpy reduction error
    d = tmp_path / "chev"
    code, out, err = run(capsys, "make-course", "--kind", "chevron-ramp", "--resolution", "inf", "--out", str(d))
    assert code == 1 and out == ""
    assert err == "error: course resolution must be finite and positive, got inf\n"
    assert not d.exists()


@pytest.mark.parametrize(
    "kind, extent", [("chevron-ramp", "3.0 m y"), ("class-tiles", "3.5 m y"), ("wall-room", "3.5 m x")]
)
def test_make_course_rejects_a_resolution_that_leaves_an_axis_without_a_cell(kind, extent, tmp_path, capsys):
    # at 10 m the chevron ramp once failed with a numpy reduction error, and
    # the other two kinds with an error that named no resolution
    d = tmp_path / "course"
    code, out, err = run(capsys, "make-course", "--kind", kind, "--resolution", "10", "--out", str(d))
    assert code == 1 and out == ""
    assert err == f"error: course resolution 10.0 leaves the {extent} extent of a {kind} course without a cell\n"
    assert not d.exists()


def test_make_course_reports_a_failed_allocation_in_one_line(tmp_path, capsys, monkeypatch):
    # a resolution of 1e-9 once died with numpy's allocation traceback
    def too_big(spec):
        raise MemoryError("Unable to allocate 52.2 GiB for an array")

    monkeypatch.setattr(sim, "generate_course", too_big)
    d = tmp_path / "course"
    code, out, err = run(capsys, "make-course", "--kind", "chevron-ramp", "--resolution", "1e-9", "--out", str(d))
    assert code == 1 and out == ""
    assert err == "error: Unable to allocate 52.2 GiB for an array\n"
    assert not d.exists()


@pytest.mark.parametrize(
    "command",
    [
        ("make-course", "--kind", "wall-room"),
        ("simulate", "--course", "course"),
        ("localize", "--course", "course", "--walklog", "walk.csv"),
        ("run-experiment", "--config", "configs/chevron.ini"),
    ],
    ids=lambda command: command[0],
)
def test_every_seed_option_takes_a_non_negative_int(tmp_path, capsys, command):
    # a negative seed once built a wall room, or failed in numpy's generator
    # without naming the option
    with pytest.raises(SystemExit) as exit_:
        main([*command, "--seed", "-1", "--out", str(tmp_path / "out")])
    assert exit_.value.code == 2
    assert "argument --seed: must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command",
    [
        ("localize", "--course", "course", "--walklog", "walk.csv"),
        ("run-experiment", "--config", "configs/chevron.ini"),
    ],
    ids=lambda command: command[0],
)
@pytest.mark.parametrize("value", ["0", "-3"])
def test_every_particles_option_takes_a_count_of_at_least_one(tmp_path, capsys, command, value):
    # --particles 0 once failed naming "[filter] particles", a key no one wrote
    with pytest.raises(SystemExit) as exit_:
        main([*command, "--particles", value, "--out", str(tmp_path / "out")])
    assert exit_.value.code == 2
    assert f"argument --particles: invalid positive_int value: '{value}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_make_course_layers(tmp_path, capsys):
    d = tmp_path / "chev"
    code, out, _ = run(capsys, "make-course", "--kind", "chevron-ramp", "--seed", "3", "--out", str(d))
    assert code == 0
    assert (d / "course.hmap").exists()
    assert not (d / "course.cmap").exists()
    assert out.split() == [str(d / "course.hmap"), str(d / "course.ini")]
    assert (d / "course.ini").read_text() == "[course]\nkind = chevron-ramp\n"

    d2 = tmp_path / "tiles"
    code, out, _ = run(capsys, "make-course", "--kind", "class-tiles", "--out", str(d2))
    assert code == 0
    assert (d2 / "course.hmap").exists() and (d2 / "course.cmap").exists()

    d3 = tmp_path / "room"
    code, out, _ = run(capsys, "make-course", "--kind", "wall-room", "--out", str(d3))
    assert code == 0
    assert (d3 / "course.xyz").exists()
    kind, maps = load_course_dir(d3)
    assert kind == "wall-room" and maps.cloud is not None


def test_simulate_writes_log_and_hash(tmp_path, capsys):
    d = tmp_path / "course"
    run(capsys, "make-course", "--kind", "class-tiles", "--out", str(d))
    log_path = tmp_path / "walk.log"
    code, out, _ = run(
        capsys, "simulate", "--course", str(d), "--seed", "2",
        "--waypoints", "0.6,0.6 2.0,0.6", "--out", str(log_path),
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == str(log_path)
    assert lines[1].startswith("steps=28 sha256=")
    assert (tmp_path / "signals").is_dir()  # class course synthesizes signals
    log = load_walklog(log_path)
    assert log.n_steps == 28


def test_simulate_same_seed_same_hash(tmp_path, capsys):
    d = tmp_path / "course"
    run(capsys, "make-course", "--kind", "chevron-ramp", "--out", str(d))
    _, out1, _ = run(capsys, "simulate", "--course", str(d), "--seed", "5",
                     "--waypoints", "1.0,0.7 2.0,0.7", "--out", str(tmp_path / "a.log"))
    _, out2, _ = run(capsys, "simulate", "--course", str(d), "--seed", "5",
                     "--waypoints", "1.0,0.7 2.0,0.7", "--out", str(tmp_path / "b.log"))
    assert out1.split("\n")[1] == out2.split("\n")[1]


@pytest.mark.parametrize(
    "builder",
    [default_chevron_experiment, default_tiles_experiment, default_wallroom_experiment],
    ids=["chevron-ramp", "class-tiles", "wall-room"],
)
def test_simulate_logs_the_experiment_walk(builder, tmp_path, capsys):
    # the experiment's walk (the wall probe on wall-room) with its noise:
    # the log run-experiment records
    cfg, seed = builder(), 3
    d = tmp_path / "course"
    run(capsys, "make-course", "--kind", cfg.course.kind, "--seed", str(seed), "--out", str(d))
    code, out, err = run(capsys, "simulate", "--course", str(d), "--seed", str(seed),
                         "--out", str(tmp_path / "walk.log"))
    assert code == 0, err
    assert out.split("\n")[1].endswith(f" sha256={walklog_hash(simulate_for_config(cfg, seed)[1])}")


def test_wall_probe_flow_and_localize(tmp_path, capsys):
    d = tmp_path / "room"
    run(capsys, "make-course", "--kind", "wall-room", "--out", str(d))
    log_path = tmp_path / "probe.log"
    code, out, _ = run(capsys, "simulate", "--course", str(d), "--seed", "1", "--out", str(log_path))
    assert code == 0
    assert "steps=40" in out

    out_dir = tmp_path / "loc"
    code, out, _ = run(capsys, "localize", "--course", str(d), "--walklog", str(log_path),
                       "--mode", "HL-3D", "--particles", "200", "--seed", "0", "--out", str(out_dir))
    assert code == 0
    assert out.startswith("final=(")
    assert "ate=" in out
    assert (out_dir / "estimate.traj").exists()
    diag = (out_dir / "diagnostics.csv").read_text().split("\n")
    assert diag[0] == "k,ess,xy_std_x,xy_std_y,branch,x,y,z,qx,qy,qz,qw"
    est_lines = [l for l in (out_dir / "estimate.traj").read_text().split("\n") if l]
    assert len(est_lines) == 41  # prior pose plus one per step

    # without --mode and --particles: the wall-room experiment's HL-3D and particle count
    code, _, err = run(capsys, "localize", "--course", str(d), "--walklog", str(log_path), "--out", str(out_dir))
    assert code == 0, err
    log = load_walklog(log_path)
    cfg = default_wallroom_experiment()
    want = run_localization(log.init_prior, to_step_inputs(log), load_course_dir(d)[1], "HL-3D", cfg, seed=0)
    save_trajectory(tmp_path / "want.traj", want.trajectory, log.timestamps())
    assert (out_dir / "estimate.traj").read_bytes() == (tmp_path / "want.traj").read_bytes()


def test_localize_fuses_the_seed_s_baseline_as_run_experiment_does(tmp_path, capsys):
    # make-course, simulate and localize with one --seed: the HL-GC files
    # run-experiment writes for that seed, byte for byte
    d, log_path, out_dir = tmp_path / "tiles", tmp_path / "walk.csv", tmp_path / "loc"
    for argv in (
        ("make-course", "--kind", "class-tiles", "--seed", "1", "--out", str(d)),
        ("simulate", "--course", str(d), "--seed", "1", "--out", str(log_path)),
        ("localize", "--course", str(d), "--walklog", str(log_path), "--mode", "HL-GC", "--seed", "1",
         "--out", str(out_dir)),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 0, err
    run_experiment(replace(default_tiles_experiment(), seeds=(1,), modes=("HL-GC",)), tmp_path / "run")
    seed_dir = tmp_path / "run" / "seed_1"
    assert (out_dir / "estimate.traj").read_bytes() == (seed_dir / "HL-GC.traj").read_bytes()
    assert (out_dir / "diagnostics.csv").read_bytes() == (seed_dir / "diagnostics_HL-GC.csv").read_bytes()


def tiles_walk(tmp_path, capsys):
    """A short class-tiles walk log with its force signals: (course, log)."""
    d, log_path = tmp_path / "tiles", tmp_path / "walk.csv"
    run(capsys, "make-course", "--kind", "class-tiles", "--seed", "1", "--out", str(d))
    code, _, err = run(capsys, "simulate", "--course", str(d), "--waypoints", "0.6,0.6 1.6,0.6",
                       "--seed", "1", "--out", str(log_path))
    assert code == 0, err
    return d, log_path


def test_localize_class_source_errors(tmp_path, capsys):
    d, log_path = tiles_walk(tmp_path, capsys)
    # the same walk, saved without its force signals
    bare = tmp_path / "bare.csv"
    save_walklog(load_walklog(log_path), bare)
    args = ("localize", "--course", str(d), "--particles", "100", "--out", str(tmp_path / "loc"))
    code, out, err = run(capsys, *args, "--walklog", str(bare), "--mode", "HL-GC")
    assert code == 1 and out == ""
    assert err.strip() == "error: the walk log holds no force signals to classify"
    # the trained baseline is refused on a class layer of another class
    # count, before it labels a contact
    grid = load_map(d / "course.cmap")
    save_map(ClassGrid(grid.resolution, grid.origin, grid.class_ids, 9), d / "course.cmap")
    code, out, err = run(capsys, *args, "--walklog", str(log_path), "--mode", "HL-C")
    assert code == 1 and out == ""
    assert err.strip() == "error: the logistic baseline has 8 classes but the class layer has 9"


@pytest.mark.parametrize("mode", ["HL-GC", "HL-C"])
def test_localize_checks_the_mode_s_layers_before_it_trains(mode, tmp_path, capsys, monkeypatch):
    d, log_path = tmp_path / "chevron", tmp_path / "walk.csv"
    run(capsys, "make-course", "--kind", "chevron-ramp", "--out", str(d))
    run(capsys, "simulate", "--course", str(d), "--waypoints", "1.0,0.7 2.0,0.7", "--out", str(log_path))
    trained = []
    monkeypatch.setattr(evaluate, "train_contact_classifier", trained.append)
    code, out, err = run(capsys, "localize", "--course", str(d), "--walklog", str(log_path), "--mode", mode,
                         "--out", str(tmp_path / "loc"))
    assert code == 1 and out == "" and trained == []
    assert err.strip() == "error: the class channel requires a class layer, not among the map layers ('elevation',)"


def test_localize_trains_the_classifier_before_it_loads_the_walk_log(tmp_path, capsys, monkeypatch):
    # as simulate_for_config does, so the training set is freed before the
    # log's signals are read
    d, log_path = tiles_walk(tmp_path, capsys)
    calls = record_calls(monkeypatch, (evaluate, "train_contact_classifier"), (sim, "load_walklog"))
    code, _, err = run(capsys, "localize", "--course", str(d), "--walklog", str(log_path), "--mode", "HL-C",
                       "--particles", "100", "--out", str(tmp_path / "loc"))
    assert code == 0, err
    assert calls == ["train_contact_classifier", "load_walklog"]


def test_localize_rejects_another_walk_log_version(tmp_path, capsys):
    d, log_path = tiles_walk(tmp_path, capsys)
    log_path.write_text(log_path.read_text().replace("# walklog 2\n", "# walklog 1\n", 1))
    code, out, err = run(capsys, "localize", "--course", str(d), "--walklog", str(log_path), "--mode", "HL-G",
                         "--particles", "100", "--out", str(tmp_path / "loc"))
    assert code == 1 and out == ""
    assert err.strip() == f"error: {log_path}: walk log version 1, this reader reads version 2"


@pytest.mark.parametrize("mode", ["HL-GC", "HL-C"])
def test_localize_over_a_patch_of_unlabeled_cells(mode, tmp_path, capsys):
    # feet on unlabeled cells log no force signal, stay unlabeled and add
    # no class term, so the class modes run over them
    d, log_path = tmp_path / "tiles", tmp_path / "walk.csv"
    run(capsys, "make-course", "--kind", "class-tiles", "--seed", "1", "--out", str(d))
    grid = load_map(d / "course.cmap")
    x = grid.origin[0] + (np.arange(grid.n_cols) + 0.5) * grid.resolution
    y = grid.origin[1] + (np.arange(grid.n_rows) + 0.5) * grid.resolution
    ids = grid.class_ids.copy()
    ids[np.ix_((y >= 0.3) & (y < 0.9), (x >= 2.0) & (x < 2.5))] = UNKNOWN_CLASS
    save_map(ClassGrid(grid.resolution, grid.origin, ids, grid.n_classes), d / "course.cmap")
    code, _, err = run(capsys, "simulate", "--course", str(d), "--waypoints", "1.6,0.6 2.8,0.6",
                       "--seed", "1", "--out", str(log_path))
    assert code == 0, err
    log = classify_log(load_walklog(log_path, load_signals=True), train_contact_classifier(1))
    unlabeled = log.class_ids == UNKNOWN_CLASS
    assert unlabeled.sum() > 10 and not unlabeled.all()
    labeled = ~np.isnan(log.class_probs).any(axis=2)
    assert np.array_equal(labeled, ~unlabeled)

    code, out, err = run(capsys, "localize", "--course", str(d), "--walklog", str(log_path), "--mode", mode,
                         "--particles", "100", "--seed", "1", "--out", str(tmp_path / "loc"))
    assert code == 0, err
    assert out.startswith("final=(")


@pytest.mark.parametrize(
    "kind, mode, walk",
    [
        ("chevron-ramp", "HL-G", ("--waypoints", "1.0,0.7 2.0,0.7")),
        ("class-tiles", "HL-GC", ("--waypoints", "0.6,0.6 1.6,0.6")),
    ],
)
def test_localize_on_each_course_kind(kind, mode, walk, tmp_path, capsys):
    # the wall-room kind: test_wall_probe_flow_and_localize
    d = tmp_path / "course"
    run(capsys, "make-course", "--kind", kind, "--out", str(d))
    log_path = tmp_path / "walk.log"
    code, _, err = run(capsys, "simulate", "--course", str(d), *walk, "--seed", "1", "--out", str(log_path))
    assert code == 0, err
    out_dir = tmp_path / "loc"
    code, out, err = run(capsys, "localize", "--course", str(d), "--walklog", str(log_path),
                         "--mode", mode, "--particles", "100", "--out", str(out_dir))
    assert code == 0, err
    assert out.startswith("final=(")
    est_lines = [l for l in (out_dir / "estimate.traj").read_text().split("\n") if l]
    assert len(est_lines) == load_walklog(log_path).n_steps + 1


def test_course_layers_matching_no_kind_error(tmp_path, capsys):
    # a layer file the kind does not have is refused, not taken as another kind
    d = tmp_path / "tiles"
    run(capsys, "make-course", "--kind", "class-tiles", "--out", str(d))
    room = tmp_path / "room"
    run(capsys, "make-course", "--kind", "wall-room", "--out", str(room))
    shutil.copy(room / "course.xyz", d / "course.xyz")
    want = f"error: {d / 'course.xyz'}: a class-tiles course has no cloud layer, only ('elevation', 'class')\n"
    code, out, err = run(capsys, "localize", "--course", str(d), "--walklog", str(tmp_path / "no.log"),
                         "--out", str(tmp_path / "loc"))
    assert (code, out, err) == (1, "", want)
    code, out, err = run(capsys, "simulate", "--course", str(d), "--out", str(tmp_path / "x.log"))
    assert (code, out, err) == (1, "", want)


def test_a_class_tiles_course_without_its_class_layer_is_refused(tmp_path, capsys):
    # with course.cmap deleted, simulate once walked the chevron experiment's
    # 452 steps, and localize ran HL-G on the class-tiles walk
    d, log_path = tiles_walk(tmp_path, capsys)
    (d / "course.cmap").unlink()
    want = f"error: no course.cmap in {d}: a class-tiles course has the layers ('elevation', 'class')\n"
    code, out, err = run(capsys, "simulate", "--course", str(d), "--seed", "1", "--out", str(tmp_path / "x.csv"))
    assert (code, out, err) == (1, "", want)
    assert not (tmp_path / "x.csv").exists()
    code, out, err = run(capsys, "localize", "--course", str(d), "--walklog", str(log_path),
                         "--out", str(tmp_path / "loc"))
    assert (code, out, err) == (1, "", want)
    assert not (tmp_path / "loc").exists()


def test_a_course_directory_that_names_no_known_kind_is_refused(tmp_path, capsys):
    d = tmp_path / "chev"
    run(capsys, "make-course", "--kind", "chevron-ramp", "--out", str(d))
    ini = d / "course.ini"
    for body, message in [
        (None, f"no course.ini in {d} to name the course kind"),
        ("[course]\nkind = volcano\n", f"{ini}: unknown course kind 'volcano'"),
        ("[course]\nkind = chevron-ramp\nseed = 1\n", f"{ini}: expected a [course] section with the one key kind"),
        ("[walk]\nkind = chevron-ramp\n", f"{ini}: expected a [course] section with the one key kind"),
        ("kind = chevron-ramp\n", f"{ini}: File contains no section headers."),
    ]:
        if body is None:
            ini.unlink()
        else:
            ini.write_text(body)
        for argv in (
            ("simulate", "--course", str(d), "--out", str(tmp_path / "x.csv")),
            ("localize", "--course", str(d), "--walklog", str(tmp_path / "no.csv"), "--out", str(tmp_path / "loc")),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "" and len(err.splitlines()) == 1, err
            assert err.startswith(f"error: {message}"), err


def test_two_kinds_with_the_same_layers_walk_their_own_experiments(tmp_path, capsys, monkeypatch):
    # a kind made only here, with the chevron ramp's builder and layers but
    # a walk of its own: its directory names it, so simulate walks its
    # waypoints, and a chevron-ramp directory still walks the chevron loop
    loop = ((1.0, 0.7), (6.2, 0.7), (6.2, 1.3), (1.0, 1.3))
    monkeypatch.setitem(
        sim.COURSES, "chevron-once", replace(sim.COURSES["chevron-ramp"], experiment="chevron-once", waypoints=loop)
    )
    steps = {}
    for kind in ("chevron-once", "chevron-ramp"):
        d = tmp_path / kind
        code, _, err = run(capsys, "make-course", "--kind", kind, "--seed", "1", "--out", str(d))
        assert code == 0, err
        code, out, err = run(capsys, "simulate", "--course", str(d), "--seed", "1", "--out", str(tmp_path / "walk.csv"))
        assert code == 0, err
        cfg = evaluate.default_experiment(kind)
        assert cfg.course.kind == kind
        log = simulate_for_config(cfg, 1)[1]
        assert out.split("\n")[1] == f"steps={log.n_steps} sha256={walklog_hash(log)}"
        steps[kind] = log.n_steps
    assert steps == {"chevron-once": 220, "chevron-ramp": 452}


def test_make_course_over_a_course_of_another_kind_writes_a_loadable_course(tmp_path, capsys):
    # a course directory re-made as another kind keeps none of the old
    # kind's layer files, so simulate walks the new kind's experiment
    d = tmp_path / "course"
    for kind in ("wall-room", "class-tiles", "chevron-ramp"):
        code, _, err = run(capsys, "make-course", "--kind", kind, "--seed", "1", "--out", str(d))
        assert code == 0, err
        assert sorted(os.listdir(d)) == sorted(
            ["course.ini"] + [f for name, f in (("elevation", "course.hmap"), ("class", "course.cmap"),
                                               ("cloud", "course.xyz")) if name in sim.COURSES[kind].layers]
        )
        assert load_course_dir(d)[0] == kind
    code, out, err = run(capsys, "simulate", "--course", str(d), "--seed", "1", "--out", str(tmp_path / "walk.csv"))
    assert code == 0, err
    assert out.split("\n")[1].startswith("steps=452 ")


def test_course_with_a_class_layer_off_the_elevation_lattice_names_the_file(tmp_path, capsys):
    d = tmp_path / "tiles"
    run(capsys, "make-course", "--kind", "class-tiles", "--out", str(d))
    save_map(ClassGrid(0.1, (0.0, 0.0), np.zeros((35, 70), dtype=np.uint8), 8), d / "course.cmap")
    code, out, err = run(capsys, "simulate", "--course", str(d), "--out", str(tmp_path / "x.log"))
    assert code == 1 and out == ""
    assert err == (
        f"error: {d / 'course.cmap'}: not on the lattice of {d / 'course.hmap'}: "
        "grid lattice mismatch: 70x35@0.1 origin [0. 0.] vs 140x70@0.05 origin [0. 0.]\n"
    )


def test_simulate_path_errors(tmp_path, capsys):
    d = tmp_path / "room"
    run(capsys, "make-course", "--kind", "wall-room", "--out", str(d))
    log_path = str(tmp_path / "x.log")
    code, _, err = run(capsys, "simulate", "--course", str(d), "--waypoints", "1.0,0.7 6.2,0.7", "--out", log_path)
    assert code == 1
    assert err.strip() == "error: walk path leaves the map at xy=(2.5, 0.7)"
    code, _, err = run(capsys, "simulate", "--course", str(d), "--waypoints", "1.0,0.7 6.2", "--out", log_path)
    assert code == 1 and "bad waypoint list" in err


def test_localize_missing_course_errors(tmp_path, capsys):
    code, _, err = run(capsys, "localize", "--course", str(tmp_path / "nowhere"),
                       "--walklog", str(tmp_path / "no.log"), "--out", str(tmp_path / "o"))
    assert code == 1 and err.startswith("error:")


def test_run_experiment_from_config(tmp_path, capsys):
    ini = tmp_path / "tiny.ini"
    ini.write_text(
        "[experiment]\n"
        "kind = chevron-ramp\n"
        "name = tiny\n"
        "seeds = 1 2\n"
        "[walk]\n"
        "waypoints = 1.0,0.7 3.4,0.7\n"
    )
    out_dir = tmp_path / "run"
    code, out, _ = run(capsys, "run-experiment", "--config", str(ini),
                       "--seed", "7", "--particles", "150", "--out", str(out_dir))
    assert code == 0
    assert f"report: {out_dir / 'report.csv'}" in out
    assert "odom-only" in out and "HL-G" in out
    report = (out_dir / "report.csv").read_text().split("\n")
    assert report[0] == "# hapticloc report: tiny"
    assert "mode,seed,ate_m,improvement_pct" in report
    # --seed replaces the config's whole seed list
    data = [l for l in report if l and not l.startswith("#") and not l.startswith("mode,")]
    seeds = {l.split(",")[1] for l in data}
    assert seeds == {"7", "mean"}
    assert (out_dir / "seed_7" / "truth.traj").exists()


def test_run_experiment_bad_config_errors(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[experiment]\nkind = volcano\n")
    code, _, err = run(capsys, "run-experiment", "--config", str(ini))
    assert code == 1 and err.startswith("error:")
    ini.write_text("[experiment]\nkind = chevron-ramp\n[noise]\noutlier_prob = 7\n")
    code, _, err = run(capsys, "run-experiment", "--config", str(ini), "--out", str(tmp_path / "run"))
    assert code == 1 and err.startswith(f"error: {ini}: ") and "outlier_prob" in err
    # INI syntax errors, each once a configparser traceback; a '%' is
    # literal text, so that file fails only at its bad outlier_prob
    for body, message in [
        ("[experiment]\nkind = chevron-ramp\nname = run%x\n[noise]\noutlier_prob = 7\n", "outlier_prob"),
        ("[experiment]\nkind = chevron-ramp\nkind = wall-room\n", "option 'kind' in section 'experiment' already exists"),
        ("[experiment]\nkind = chevron-ramp\n[walk]\n[walk]\n", "section 'walk' already exists"),
        ("kind = chevron-ramp\n", "File contains no section headers"),
        ("[experiment]\nkind = chevron-ramp\nseeds\n", "[line 3]: 'seeds\\n'"),
    ]:
        ini.write_text(body)
        code, _, err = run(capsys, "run-experiment", "--config", str(ini), "--out", str(tmp_path / "run"))
        assert code == 1 and len(err.splitlines()) == 1
        assert err.startswith(f"error: {ini}: ") and message in err
        assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("prior_std_xyz", "-0.5", "prior_std_xyz must be finite and non-negative, got -0.5"),
        ("particles", "0", "particles must be at least 1, got 0"),
    ],
)
def test_run_experiment_rejects_a_filter_value_out_of_range(tmp_path, capsys, key, value, message):
    # each value once ran: a negative std squared, or an error without the
    # file after the walk was simulated
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[experiment]\nkind = chevron-ramp\nseeds = 1\n[filter]\n{key} = {value}\n")
    code, _, err = run(capsys, "run-experiment", "--config", str(ini), "--out", str(tmp_path / "run"))
    assert code == 1
    assert err.strip() == f"error: {ini}: [filter] {message}"
    assert not (tmp_path / "run").exists()


def test_run_experiment_with_exact_odometry_reports_nan(tmp_path, capsys):
    # noise-free odometry has an ATE of 0, so no improvement over it is defined
    ini = tmp_path / "exact.ini"
    ini.write_text(
        "[experiment]\nkind = chevron-ramp\nseeds = 1\n"
        "[walk]\nwaypoints = 1.0,0.7 1.5,0.7\n"
        "[noise]\nwhite_std = 0 0 0 0 0 0\nz_bias = 0\nyaw_bias = 0\n"
    )
    out_dir = tmp_path / "run"
    code, out, err = run(capsys, "run-experiment", "--config", str(ini), "--particles", "100", "--out", str(out_dir))
    assert code == 0, err
    report = (out_dir / "report.csv").read_text().split("\n")
    assert "odom-only,1,0.000000,0.000000" in report
    rows = [line.split(",") for line in report if line.startswith("HL-G,")]
    assert [r[1] for r in rows] == ["1", "mean"]
    assert all(r[3] == "nan" for r in rows)
    assert "improvement=+nan%" in out


def readme_quick_start():
    """The README quick-start's commands, each with the output its comment
    lines show: the comments right below a command are what it prints."""
    block = README.read_text().split("## Quick start", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    steps, below_command = [], False
    for line in block.split("\n"):
        if line.startswith("hapticloc "):
            steps.append((line.split()[1:], []))
            below_command = True
        elif below_command and line.startswith("# "):
            steps[-1][1].append(line[2:])
        else:
            below_command = False
    return steps


def test_readme_quick_start_prints_what_it_shows(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    steps = readme_quick_start()
    # the chevron flow, then the class-tiles flow
    flow = [("make-course", 0), ("simulate", 1), ("localize", 1)]
    assert [(argv[0], len(shown)) for argv, shown in steps] == flow + flow
    for argv, shown in steps:
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        printed = out.split("\n")
        for want in shown:
            # a shown line ending in "..." is the start of the printed one
            if want.endswith("..."):
                assert any(line.startswith(want[:-3]) for line in printed), (want, out)
            else:
                assert want in printed, (want, out)


# in a fresh interpreter: the scipy modules loaded after the CLI's import,
# then after each command of every course kind's flow, localize once in each
# of the kind's modes, on a short walk with 50 particles
COLD_START = """
import json, sys, tempfile
from hapticloc.cli import main

def loaded():
    return [m for m in ("scipy", "scipy.ndimage", "scipy.spatial", "scipy.special") if m in sys.modules]

seen = [["import", loaded()]]
with tempfile.TemporaryDirectory() as tmp:
    for kind, walk, modes in (
        ("chevron-ramp", ["--waypoints", "1.0,0.7 2.0,0.7"], ("HL-G",)),
        ("class-tiles", ["--waypoints", "0.5,0.6 1.5,0.6"], ("HL-G", "HL-GC", "HL-C")),
        ("wall-room", [], ("HL-3D",)),
    ):
        course, log = f"{tmp}/{kind}", f"{tmp}/{kind}.csv"
        commands = [
            ("make-course", ["--kind", kind, "--out", course]),
            ("simulate", ["--course", course, "--out", log, *walk]),
        ] + [
            (f"localize {mode}", ["--course", course, "--walklog", log, "--mode", mode,
                                  "--particles", "50", "--out", f"{tmp}/{kind}-{mode}"])
            for mode in modes
        ]
        for name, argv in commands:
            assert main([name.split()[0], *argv]) == 0, (name, kind)
            seen.append([f"{name} {kind}", loaded()])
print(json.dumps(seen))
"""


def test_an_elevation_only_process_loads_no_scipy_module():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", COLD_START], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    seen = dict(json.loads(done.stdout.splitlines()[-1]))
    # no command or mode loads scipy: the class fields are numpy's, and the
    # cloud's field fills its bricks from its own buckets of the points
    assert list(seen)[-1] == "localize HL-3D wall-room"
    assert not [name for name, modules in seen.items() if modules]

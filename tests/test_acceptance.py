"""Acceptance suite: every headline behaviour checked at its stated tolerance.

Each criterion prints one summary line

    [acceptance] criterion NN <name>: PASS/FAIL (<detail>)

before asserting, so `pytest tests/test_acceptance.py -v -s` doubles as the
sign-off report. Budgets are wall-clock upper bounds measured on the same
machine that runs the numeric checks; the detail string records the actual
time so regressions are visible before they become failures.
"""

import math
import statistics
import time

import numpy as np
import pytest

from hapticloc.classifier import baseline_predict, baseline_train, loss_and_grad
from hapticloc.evaluate import (
    default_chevron_experiment,
    default_tiles_experiment,
    default_wallroom_experiment,
    make_training_set,
    run_experiment,
)
from hapticloc.geometry import Pose, quat_rotate
from hapticloc.likelihood import ContactMeasurement, LikelihoodConfig, gaussian_density
from hapticloc.maps import (
    UNKNOWN_CLASS,
    ClassGrid,
    ElevationGrid,
    MapSet,
    PointCloudMap,
    class_at,
    class_distance_many,
    cloud_distances,
    elevation_at,
)
from hapticloc.mcl import (
    StepInput,
    init_filter,
    run_filter,
    step,
    systematic_resample_indices,
)
from hapticloc.network import NetworkConfig, forward
from hapticloc.sim import CourseSpec, generate_course
from test_network import random_weights


def _report(num, name, ok, detail):
    print(f"\n[acceptance] criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


# base-frame foot offsets, in FOOT_LABELS order (LF, RF, LH, RH)
FEET = (
    (0.2, 0.15, -0.3),
    (0.2, -0.15, -0.3),
    (-0.2, 0.15, -0.3),
    (-0.2, -0.15, -0.3),
)


def _flat_maps(extent=10.0, res=0.5):
    n = int(2 * extent / res)
    g = ElevationGrid(res, (-extent, -extent), np.zeros((n, n)))
    return MapSet(elevation=g)


def _elevation_contacts():
    return [ContactMeasurement(f) for f in FEET]


# criterion 1 -----------------------------------------------------------------
# Densities of N(0, sigma) at 0, 1, 2, 3 sigma. Frozen from an independent
# evaluation of exp(-k^2/2) / (sigma * sqrt(2*pi)) in plain Python floats.

DENSITY_AT_SIGMA_001 = (
    39.894228040143275,
    24.197072451914337,
    5.399096651318806,
    0.44318484119380075,
)
DENSITY_AT_SIGMA_005 = (
    7.978845608028654,
    4.839414490382867,
    1.079819330263761,
    0.08863696823876,
)


def test_criterion_01_likelihood_closed_form():
    worst = 0.0
    for sigma, frozen in ((0.01, DENSITY_AT_SIGMA_001), (0.05, DENSITY_AT_SIGMA_005)):
        for k, want in enumerate(frozen):
            got = float(gaussian_density(k * sigma, sigma))
            worst = max(worst, abs(got - want))
    # default floors sit exactly at the 3-sigma density of their channel
    cfg = LikelihoodConfig()
    worst = max(worst, abs(cfg.rho - DENSITY_AT_SIGMA_001[3]))
    worst = max(worst, abs(cfg.class_rho - DENSITY_AT_SIGMA_005[3]))
    _report(1, "likelihood closed form", worst < 1e-12, f"max abs err {worst:.3e} vs 1e-12")


# criterion 2 -----------------------------------------------------------------


def _exhaustive_class_distance(grid, xy, class_id):
    ix = int(np.floor((xy[0] - grid.origin[0]) / grid.resolution))
    iy = int(np.floor((xy[1] - grid.origin[1]) / grid.resolution))
    rows, cols = np.nonzero(grid.class_ids == class_id)
    if len(rows) == 0:
        return np.inf
    d2 = (rows - iy) ** 2 + (cols - ix) ** 2
    return grid.resolution * np.sqrt(float(d2.min()))


def test_criterion_02_exact_nearest_queries():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260819)

    # the cloud channel's query: unbounded, and stopped at the floor reach,
    # where a point is inf beyond the reach and exact within it. Half the
    # queries land about half a reach from a map point, so both sides count.
    cloud = PointCloudMap(rng.uniform(-4.0, 4.0, (3000, 3)))
    reach = LikelihoodConfig().floor_reach
    near = cloud.points[rng.integers(0, len(cloud.points), 500)] + rng.normal(0.0, 0.5 * reach, (500, 3))
    queries = np.vstack([rng.uniform(-4.5, 4.5, (500, 3)), near])
    want = np.array([np.linalg.norm(cloud.points - q, axis=1).min() for q in queries])
    bounded = np.where(want < reach, want, np.inf)
    cloud_bad = int(np.sum(cloud_distances(cloud, queries.T) != want))
    cloud_bad += int(np.sum(cloud_distances(cloud, queries.T, reach) != bounded))

    ids = rng.integers(0, 8, (40, 60)).astype(np.uint8)
    ids[rng.random((40, 60)) < 0.1] = UNKNOWN_CLASS
    grid = ClassGrid(0.05, (-1.0, -0.5), ids, 8)
    pts = np.column_stack(
        [
            rng.uniform(grid.origin[0], grid.origin[0] + grid.n_cols * grid.resolution - 1e-9, 1000),
            rng.uniform(grid.origin[1], grid.origin[1] + grid.n_rows * grid.resolution - 1e-9, 1000),
        ]
    )
    field_bad = 0
    for c in range(grid.n_classes):
        got = class_distance_many(grid, pts.T, c)
        want = np.array([_exhaustive_class_distance(grid, p, c) for p in pts])
        field_bad += int(np.sum(got != want))

    dt = time.perf_counter() - t0
    ok = cloud_bad == 0 and field_bad == 0 and dt < 5.0
    _report(
        2,
        "exact nearest queries",
        ok,
        f"cloud mismatches {cloud_bad}/2000 ({int(np.sum(bounded < np.inf))} within reach), "
        f"field mismatches {field_bad}/8000, {dt:.2f}s vs 5s",
    )


# criterion 3 -----------------------------------------------------------------


def test_criterion_03_mask_invariance():
    t0 = time.perf_counter()
    cfg = NetworkConfig()
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(100):
        net = random_weights(cfg, seed=trial)
        # pin both ends of the length range, randomize the rest
        length = {0: 4, 1: 512}.get(trial, int(rng.integers(4, 513)))
        x = rng.standard_normal((length, cfg.in_channels))
        base = forward(net, x)
        for pad_factor in (2, 4):
            buf = rng.standard_normal((length * pad_factor, cfg.in_channels))
            buf[:length] = x
            worst = max(worst, float(np.abs(forward(net, buf, valid_len=length) - base).max()))
    dt = time.perf_counter() - t0
    ok = worst < 1e-6 and dt < 60.0
    _report(3, "padding mask invariance", ok, f"max prob shift {worst:.3e} vs 1e-6, {dt:.1f}s vs 60s")


# criterion 4 -----------------------------------------------------------------


def test_criterion_04_classifier_baseline():
    t0 = time.perf_counter()
    sigs, labels = make_training_set(per_class=40, seed=11)
    labels = np.asarray(labels)
    order = np.random.default_rng(0).permutation(len(sigs))
    cut = int(0.75 * len(sigs))
    tr, te = order[:cut], order[cut:]
    model = baseline_train([sigs[i] for i in tr], labels[tr], seed=0)
    probs = np.stack([baseline_predict(model, sigs[i]) for i in te])
    acc = float(np.mean(np.argmax(probs, axis=1) == labels[te]))

    rng = np.random.default_rng(1)
    b, f, c = 10, 6, 5
    w = rng.standard_normal((c, f))
    bias = rng.standard_normal(c)
    x = rng.standard_normal((b, f))
    y = rng.integers(0, c, b)
    _, dw, db = loss_and_grad(w, bias, x, y, c)
    eps = 1e-6
    num_dw = np.zeros_like(w)
    for i in range(c):
        for j in range(f):
            wp, wm = w.copy(), w.copy()
            wp[i, j] += eps
            wm[i, j] -= eps
            num_dw[i, j] = (loss_and_grad(wp, bias, x, y, c)[0] - loss_and_grad(wm, bias, x, y, c)[0]) / (2 * eps)
    num_db = np.zeros_like(bias)
    for i in range(c):
        bp, bm = bias.copy(), bias.copy()
        bp[i] += eps
        bm[i] -= eps
        num_db[i] = (loss_and_grad(w, bp, x, y, c)[0] - loss_and_grad(w, bm, x, y, c)[0]) / (2 * eps)
    rel = max(
        float(np.max(np.abs(dw - num_dw) / np.maximum(np.abs(num_dw), 1e-8))),
        float(np.max(np.abs(db - num_db) / np.maximum(np.abs(num_db), 1e-8))),
    )
    dt = time.perf_counter() - t0
    ok = acc >= 0.9 and rel < 1e-5 and dt < 60.0
    _report(
        4,
        "contact classifier baseline",
        ok,
        f"held-out accuracy {acc:.1%} vs 90%, grad rel err {rel:.2e} vs 1e-5, {dt:.1f}s vs 60s",
    )


# criterion 5 -----------------------------------------------------------------


def _count_steps(out_dir, seed, mode):
    with open(out_dir / f"seed_{seed}" / f"errors_{mode}.csv") as f:
        return sum(1 for _ in f) - 2  # header line plus the k=0 prior row


def test_criterion_05_chevron_geometry_localization(tmp_path):
    t0 = time.perf_counter()
    cfg = default_chevron_experiment()
    assert cfg.noise.z_bias > 0.0 and cfg.noise.yaw_bias > 0.0, "drift injection disabled"
    out = tmp_path / "chevron"
    report = run_experiment(cfg, out)
    mean_odom = report.mean_ate("odom-only")
    mean_g = report.mean_ate("HL-G")
    ratio = mean_g / mean_odom
    min_steps = min(_count_steps(out, s, "HL-G") for s in cfg.seeds)
    dt = time.perf_counter() - t0
    ok = len(cfg.seeds) == 5 and min_steps >= 400 and ratio <= 0.5 and dt < 120.0
    _report(
        5,
        "uneven-terrain localization",
        ok,
        f"ATE {mean_g:.3f}m vs odom {mean_odom:.3f}m, ratio {ratio:.2f} vs 0.50, "
        f"min steps/seed {min_steps} vs 400, {dt:.1f}s vs 120s",
    )


# criterion 6 -----------------------------------------------------------------


def test_criterion_06_tiles_class_fusion(tmp_path):
    t0 = time.perf_counter()
    cfg = default_tiles_experiment()
    out = tmp_path / "tiles"
    report = run_experiment(cfg, out)
    mean_g = report.mean_ate("HL-G")
    mean_gc = report.mean_ate("HL-GC")
    rel = (mean_g - mean_gc) / mean_g

    # class-only mode: xy stays bounded while unobservable z drifts away
    max_xy = 0.0
    min_final_z = math.inf
    for seed in cfg.seeds:
        errs = np.genfromtxt(out / f"seed_{seed}" / "errors_HL-C.csv", delimiter=",", skip_header=1)
        max_xy = max(max_xy, float(np.abs(errs[:, 1:3]).max()))
        min_final_z = min(min_final_z, float(errs[-1, 3]))

    dt = time.perf_counter() - t0
    ok = mean_gc < mean_g and rel >= 0.10 and max_xy < 0.8 and min_final_z > 0.3 and dt < 180.0
    _report(
        6,
        "class fusion on tile field",
        ok,
        f"ATE geometry {mean_g:.3f}m vs fused {mean_gc:.3f}m ({rel:.1%} better vs 10%), "
        f"class-only max |xy err| {max_xy:.2f}m vs 0.8, min final z err +{min_final_z:.2f}m vs +0.3, "
        f"{dt:.1f}s vs 180s",
    )


# criterion 7 -----------------------------------------------------------------


def test_criterion_07_wallroom_probe_convergence(tmp_path):
    t0 = time.perf_counter()
    cfg = default_wallroom_experiment()
    out = tmp_path / "wallroom"
    run_experiment(cfg, out)
    worst_start = math.inf
    worst_final = 0.0
    for seed in cfg.seeds:
        errs = np.genfromtxt(out / f"seed_{seed}" / "errors_HL-3D.csv", delimiter=",", skip_header=1)
        worst_start = min(worst_start, float(np.linalg.norm(errs[0, 1:4])))
        worst_final = max(worst_final, float(np.linalg.norm(errs[-1, 1:4])))
    dt = time.perf_counter() - t0
    # the run must actually start displaced before convergence means anything
    ok = len(cfg.seeds) == 5 and worst_start >= 0.10 and worst_final <= 0.10 and dt < 30.0
    _report(
        7,
        "wall probing pins the offset prior",
        ok,
        f"prior offset >= {worst_start:.3f}m, worst final position err {worst_final:.3f}m vs 0.10m, "
        f"{dt:.1f}s vs 30s",
    )


# criterion 8 -----------------------------------------------------------------


def test_criterion_08_ambiguity_fallback():
    maps = _flat_maps()
    n = 200
    st = init_filter(
        Pose([0.0, 0.0, 0.3]), np.diag(np.full(6, 1e-12)), maps, LikelihoodConfig(),
        mode="HL-G", n_particles=n, seed=5, resample_frac=0.5, xy_std_threshold=0.10,
    )
    # two equally weighted clusters straddling y = 0: xy spread past the
    # threshold on ground that cannot disambiguate them
    st.positions = np.zeros((3, n))
    st.positions[2] = 0.3
    st.positions[1, : n // 2] = 0.15
    st.positions[1, n // 2 :] = -0.15
    st.yaw = np.zeros(n)

    inc = Pose([0.05, 0.0, 0.0])
    inp = StepInput(inc, np.diag(np.full(6, 1e-12)), _elevation_contacts())
    for _ in range(10):
        step(st, inp)

    branches = {d.branch for d in st.diagnostics}
    xy = np.array([p.position[:2] for p in st.trajectory])
    max_delta = float(np.linalg.norm(np.diff(xy, axis=0), axis=1).max())
    bound = float(np.linalg.norm(inc.position[:2])) + 1e-6
    ok = branches == {"z-only"} and max_delta <= bound
    _report(
        8,
        "ambiguous posterior falls back to dead reckoning",
        ok,
        f"branches {sorted(branches)}, max xy step {max_delta:.6f}m vs one increment {bound:.6f}m",
    )


# criterion 9 -----------------------------------------------------------------


def test_criterion_09_filter_invariants():
    t0 = time.perf_counter()
    maps = _flat_maps()
    prior_cov = np.diag([0.01, 0.01, 0.0004, 1e-6, 1e-6, 1e-4])
    inputs = [
        StepInput(Pose([0.05, 0.0, 0.0]), np.diag([1e-5, 1e-5, 1e-6, 1e-8, 1e-8, 1e-7]), _elevation_contacts())
        for _ in range(10)
    ]

    st = init_filter(
        Pose([0.0, 0.0, 0.3]), prior_cov, maps, LikelihoodConfig(),
        mode="HL-G", n_particles=50, seed=2, resample_frac=0.5, xy_std_threshold=0.10,
    )
    norm_err = 0.0
    for inp in inputs:
        step(st, inp)
        norm_err = max(norm_err, abs(float(np.exp(st.log_weights).sum()) - 1.0))

    rng_w = np.random.default_rng(3)
    weights = rng_w.dirichlet(np.ones(16))
    trials = 10_000
    counts = np.zeros(16)
    rng = np.random.default_rng(4)
    for _ in range(trials):
        counts += np.bincount(systematic_resample_indices(weights, rng), minlength=16)
    mean = trials * 16 * weights
    sigma = np.sqrt(trials * 16 * weights * (1.0 - weights))
    max_dev = float(np.max(np.abs(counts - mean) / sigma))

    runs = [
        run_filter(
            init_filter(
                Pose([0.0, 0.0, 0.3]), prior_cov, maps, LikelihoodConfig(),
                mode="HL-G", n_particles=80, seed=9, resample_frac=0.5, xy_std_threshold=0.10,
            ),
            inputs,
        )
        for _ in range(2)
    ]
    trajs = [np.stack([p.to_array() for p in s.trajectory]) for s in runs]
    deterministic = np.array_equal(trajs[0], trajs[1])

    dt = time.perf_counter() - t0
    ok = norm_err < 1e-9 and max_dev < 3.0 and deterministic and dt < 30.0
    _report(
        9,
        "filter invariants",
        ok,
        f"weight sum err {norm_err:.2e} vs 1e-9, resampling worst dev {max_dev:.2f} sigma vs 3, "
        f"bit-identical reruns {deterministic}, {dt:.1f}s vs 30s",
    )


# criterion 10 ----------------------------------------------------------------


def test_criterion_10_performance_budgets():
    course = generate_course(CourseSpec("class-tiles", seed=1))
    pose = Pose([3.0, 1.5, elevation_at(course.elevation, (3.0, 1.5)) + 0.3])
    contacts = []
    for f in FEET:
        w = pose.position + quat_rotate(pose.quat, np.array(f))
        cid = class_at(course.class_grid, w[:2])
        probs = np.zeros(8)
        probs[0 if cid == UNKNOWN_CLASS else cid] = 1.0
        contacts.append(ContactMeasurement(f, class_probs=probs))
    st = init_filter(
        pose, np.diag([4e-4, 4e-4, 4e-4, 1e-6, 1e-6, 1e-6]), course, LikelihoodConfig(),
        mode="HL-GC", n_particles=500, seed=3, resample_frac=0.5, xy_std_threshold=0.10,
    )
    inp = StepInput(Pose([0.002, 0.0, 0.0]), np.diag(np.full(6, 1e-6)), contacts)
    times = []
    for _ in range(50):
        t0 = time.perf_counter()
        step(st, inp)
        times.append(time.perf_counter() - t0)
    median_ms = 1e3 * statistics.median(times)

    rng = np.random.default_rng(12)
    ids = rng.integers(0, 8, (512, 512)).astype(np.uint8)
    ids[rng.random((512, 512)) < 0.05] = UNKNOWN_CLASS
    t0 = time.perf_counter()
    ClassGrid(0.05, (0.0, 0.0), ids, 8)  # distance fields build on construction
    build_s = time.perf_counter() - t0

    ok = median_ms < 10.0 and build_s < 1.0
    _report(
        10,
        "performance budgets",
        ok,
        f"filter step median {median_ms:.2f}ms vs 10ms (500 particles, 4 contacts), "
        f"512x512 distance fields {build_s:.2f}s vs 1s",
    )

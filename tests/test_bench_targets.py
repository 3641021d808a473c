"""The benchmark's hooks into the package still catch what they time.

perfbench/spans.py looks up every TARGETS entry with getattr when a run uses
--trace 1, so a renamed or removed function stops every traced run with an
AttributeError. perfbench/run.py times each filter step by replacing every
module-level reference to mcl.step, so a step bound anywhere else would run
untimed. Each workload of perfbench/run.py builds its ExperimentConfig
with code of its own, which scripts/output_digest.py runs too, and so does
each default experiment there, so a refactor of the config or the course
builders can break them. A
channel's time counts as its span's only while the step calls it through
the traced name, so a few tiles steps run under spans.Tracer and count the
calls of each channel. scripts/stage_memory.py wraps the stages that
run_experiment calls by name. These tests load spans.py, output_digest.py
and stage_memory.py from their files, and run perfbench/run.py, without
writing bytecode next to them; perfbench/run.py is also loaded, to compare
its workloads' configs with output_digest.py's.
"""

import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import hapticloc
from hapticloc import evaluate, mcl, sim
from hapticloc.evaluate import (
    default_chevron_experiment,
    default_tiles_experiment,
    run_localization,
    simulate_for_config,
    to_step_inputs,
)
from hapticloc.likelihood import MODES

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
BENCH_RUN = ROOT / "perfbench" / "run.py"
OUTPUT_DIGEST = ROOT / "scripts" / "output_digest.py"
STAGE_MEMORY = ROOT / "scripts" / "stage_memory.py"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def load_module(name, path):
    """The module at path, its own imports also searched for beside it."""
    spec = importlib.util.spec_from_file_location(name, path)
    # registered before it runs, as a dataclass looks its module up
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    search, dont_write = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(path.parent))
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:], sys.dont_write_bytecode = search, dont_write
    return module


def load_spans():
    return load_module("perfbench_spans", SPANS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_sets_up(workload):
    # what setup_s times: the workload's ExperimentConfig and its first course
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(BENCH_RUN), "--setup-only", "--workload", workload, "--seed", "0"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


def test_every_output_digest_experiment_builds():
    experiments = load_module("output_digest", OUTPUT_DIGEST).EXPERIMENTS
    assert set(WORKLOADS) < set(experiments)
    for build in experiments.values():
        build()  # raises if the config no longer builds
    # the golden digests and the stage memory table run the configs the
    # benchmark runs
    bench = load_module("perfbench_run", BENCH_RUN).WORKLOADS
    assert set(bench) == set(WORKLOADS)
    for name, workload in bench.items():
        assert experiments[name]() == workload.make_config(evaluate, sim), name


def test_stage_memory_prints_a_row_for_each_stage_of_a_seed(capsys):
    stage_memory = load_module("stage_memory", STAGE_MEMORY)
    real = {name: getattr(evaluate, name) for name in stage_memory.STAGES}
    stage_memory.main(["--experiment", "class-tiles", "--seed", "1"])
    lines = capsys.readouterr().out.splitlines()
    imports, rows = lines[2].split(), [line.rsplit(None, 4) for line in lines[3:]]
    assert imports[0] == "(imports)"
    assert [row[0] for row in rows] == [
        "train_contact_classifier", "generate_course", "walk", "classify_log", "walklog_hash", "to_step_inputs",
        *(f"run_localization {mode}" for mode in default_tiles_experiment().modes),
        "_write_per_seed_outputs", "write_report",
    ]
    values = [[float(v) for v in row[1:]] for row in rows]
    assert all(start <= peak and end <= peak for start, peak, end, _ in values)
    maxrss = [float(imports[1])] + [row[3] for row in values]
    assert maxrss == sorted(maxrss)
    # the stages run unwrapped again
    assert all(getattr(evaluate, name) is fn for name, fn in real.items())


# resolves (module, attr) pairs given as JSON the way Tracer.install does, in
# an interpreter that has imported only what perfbench/run.py imports
RESOLVE_TARGETS = """
import json, sys
import hapticloc, hapticloc.evaluate
missing = []
for module, attr in json.loads(sys.argv[1]):
    obj = getattr(hapticloc, module, None)
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    if not callable(obj):
        missing.append(f"{module}.{attr}")
print(json.dumps(missing))
"""


def test_every_traced_target_resolves():
    targets = load_spans().TARGETS
    assert targets
    pairs = json.dumps([(module, attr) for module, attr, _ in targets])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", RESOLVE_TARGETS, pairs], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    missing = json.loads(done.stdout)
    assert not missing, f"perfbench/spans.py traces names the package lacks: {missing}"


def test_step_timer_sees_every_step():
    # the way perfbench/run.py's StepTimer installs its timer
    spans = load_spans()
    step, calls = mcl.step, []

    def timed_step(state, *args, **kwargs):
        calls.append(state)
        return step(state, *args, **kwargs)

    cfg = replace(default_chevron_experiment(), waypoints=((1.0, 0.7), (2.0, 0.7)), n_particles=50)
    course, log = simulate_for_config(cfg, 1)
    undo = spans.patch_everywhere(step, timed_step)
    try:
        state = run_localization(log.init_prior, to_step_inputs(log), course, "HL-G", cfg, seed=1)
    finally:
        spans.restore(undo)
    assert mcl.step is step
    assert len(calls) == len(log.records) > 0 and all(c is state for c in calls)


def test_each_channel_runs_under_its_span_once_a_step():
    # a step that routes a channel around its traced entry point would leave
    # its time to the caller's self time and its span at 0 calls
    spans = load_spans()
    cfg = replace(default_tiles_experiment(), waypoints=((0.6, 0.6), (1.6, 0.6)), n_particles=50)
    course, log = simulate_for_config(cfg, 1)
    inputs = to_step_inputs(log)[:6]
    weighed = sum(inp.layout.size > 0 for inp in inputs)
    labeled = sum(inp.layout.n_probs is not None for inp in inputs)
    assert weighed == labeled == len(inputs)
    for mode in cfg.modes:
        tracer = spans.Tracer()
        tracer.install(hapticloc)
        try:
            run_localization(log.init_prior, inputs, course, mode, cfg, seed=1)
        finally:
            tracer.uninstall()
        calls = {name: c for name, (c, _, _) in tracer.summary().items()}
        assert calls["mcl.step"] == len(inputs)
        for channel, steps in (("elevation", weighed), ("class", labeled)):
            want = steps if channel in MODES[mode] else 0
            assert calls[f"likelihood.{channel}_log_likelihood_points"] == want, (mode, channel)

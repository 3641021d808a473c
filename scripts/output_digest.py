#!/usr/bin/env python
"""sha256 of every output file of the standard experiments, for given seeds.

    python scripts/output_digest.py --seeds 1 2 > digests.txt
    python scripts/output_digest.py --seeds 3 4 5 --experiments wall-room wallroom-n5k
    python scripts/output_digest.py --against HEAD~ --seeds 1 2 3
    python scripts/output_digest.py --write

Runs each course kind's default experiment (sim.COURSES: chevron,
class-tiles, wall-room) and the benchmark's three workloads (class-tiles
on a 1 cm map, chevron at 10k particles, wall-room at 5k particles) for the
given seeds into a temporary directory; --experiments picks some of the
six. A workload's config is the one perfbench/run.py's WORKLOADS builds, so
the digests cover what the benchmark runs.
Prints one "<sha256>  <experiment>/<file>" line for report.csv and for every
file under seed_N/. Run it on two checkouts and diff the outputs to check
that a change keeps every file byte-identical.

--against REV does that in one run: it exports the git revision REV with
git archive into a temporary directory, runs the same experiments and
seeds there with REV's own copy of this script (on REV's package, with
the experiments as REV builds them) and here, and prints each file whose
digest differs, or that only one side wrote; it exits 1 if any does.

--write instead writes the golden digests that tests/test_golden.py checks,
to tests/golden_digests.txt: GOLDEN's experiments and seeds, under a header
line that names what produced them: the numpy and scipy versions and the
CPU path, numpy's active SIMD dispatch targets and the OpenBLAS kernel,
which both move filter outputs in their last bits.
"""

import argparse
import ctypes
import functools
import hashlib
import importlib.util
import io
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_RUN = ROOT / "perfbench" / "run.py"
# digest the package of this checkout, not an installed one
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

from hapticloc import evaluate, sim  # noqa: E402
from hapticloc.evaluate import default_experiment, run_experiment  # noqa: E402


def bench_workloads() -> dict:
    """perfbench/run.py's WORKLOADS, loaded from its file, with the modules
    it imports from beside it; no bytecode is written there."""
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_RUN)
    # registered before it runs, as its dataclasses look their module up
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    path, dont_write = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH_RUN.parent))
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:], sys.dont_write_bytecode = path, dont_write
    return module.WORKLOADS


# each course kind's default experiment, under its name, then the benchmark's
EXPERIMENTS = {
    **{entry.experiment: functools.partial(default_experiment, kind) for kind, entry in sim.COURSES.items()},
    **{name: functools.partial(w.make_config, evaluate, sim) for name, w in bench_workloads().items()},
}

# the golden set: seed 1 of the three default experiments, plus wall-room
# seed 40, whose probe once ended in the wrong mode, seed 1 of chevron-n10k,
# the one whose particle count adapts, seed 1 of tiles-1cm-n500, whose 1 cm
# class layer, force signals and trained classifier feed its outputs, and
# seed 1 of wallroom-n5k, whose 5k-particle filter weighs the cloud field
GOLDEN = {
    "chevron": (1,),
    "class-tiles": (1,),
    "wall-room": (1, 40),
    "chevron-n10k": (1,),
    "tiles-1cm-n500": (1,),
    "wallroom-n5k": (1,),
}
GOLDEN_FILE = ROOT / "tests" / "golden_digests.txt"


def simd_dispatch() -> str:
    """The SIMD targets numpy dispatches its loops to on this CPU."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return ",".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t)) or "baseline"


def openblas_core() -> str:
    """The kernel numpy's bundled OpenBLAS chose for this CPU, or "unknown"
    for a numpy without it."""
    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename().decode()


def header_line() -> str:
    return (
        f"# numpy {numpy.__version__} scipy {scipy.__version__} "
        f"simd {simd_dispatch()} openblas {openblas_core()}"
    )


def digest_lines(runs):
    """Yield "<sha256>  <experiment>/<file>" for each (name, seeds) of runs."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, seeds in runs:
            out = Path(tmp) / name
            run_experiment(replace(EXPERIMENTS[name](), seeds=tuple(seeds)), str(out))
            files = [out / "report.csv"] + sorted(f for f in out.glob("seed_*/**/*") if f.is_file())
            for f in files:
                digest = hashlib.sha256(f.read_bytes()).hexdigest()
                yield f"{digest}  {name}/{f.relative_to(out).as_posix()}"


def digests_against(rev: str, experiments, seeds):
    """{file: (digest at rev, digest here)} for every file the experiments
    write for seeds on either side; a side that did not write one has
    None."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        # the export's own copy of this script digests the export's package
        # with the experiments as REV builds them
        script = Path(tmp) / "scripts" / "output_digest.py"
        cmd = [sys.executable, str(script), "--seeds", *map(str, seeds), "--experiments", *experiments]
        theirs = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        ours = list(digest_lines((name, seeds) for name in experiments))
        out, _ = theirs.communicate()
        if theirs.returncode:
            sys.exit(f"output_digest: the run at {rev} failed")
    sides = [{f: d for d, f in (line.split("  ", 1) for line in lines)} for lines in (out.splitlines(), ours)]
    return {f: (sides[0].get(f), sides[1].get(f)) for f in sorted(sides[0].keys() | sides[1].keys())}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    p.add_argument("--experiments", nargs="+", choices=list(EXPERIMENTS), default=list(EXPERIMENTS),
                   metavar="NAME", help=f"experiments to run (default: all of {', '.join(EXPERIMENTS)})")
    p.add_argument("--write", action="store_true",
                   help=f"write the golden digests to {GOLDEN_FILE.relative_to(ROOT)} instead")
    p.add_argument("--against", metavar="REV",
                   help="compare with the git revision REV: print the files whose digests differ, exit 1 if any")
    args = p.parse_args(argv)
    if args.write:
        lines = [header_line(), *digest_lines(GOLDEN.items())]
        GOLDEN_FILE.write_text("\n".join(lines) + "\n")
        print(f"{GOLDEN_FILE}: {len(lines) - 1} digests")
        return
    if args.against is not None:
        pairs = digests_against(args.against, args.experiments, args.seeds)
        differ = [f for f, (theirs, ours) in pairs.items() if theirs != ours]
        for f in differ:
            theirs, ours = pairs[f]
            print(f"{f}: {theirs or 'not written'} at {args.against}, {ours or 'not written'} here")
        print(f"{len(differ)} of {len(pairs)} files differ from {args.against}", file=sys.stderr)
        sys.exit(1 if differ else 0)
    for line in digest_lines((name, args.seeds) for name in args.experiments):
        print(line, flush=True)


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""sha256 of every output file of the standard experiments, for given seeds.

    python scripts/output_digest.py --seeds 1 2 > digests.txt
    python scripts/output_digest.py --seeds 3 4 5 --experiments wall-room wallroom-n5k

Runs the three default experiments (chevron, class-tiles, wall-room) and the
benchmark's three configurations (perfbench/run.py: class-tiles on a 1 cm
map, chevron at 10k particles, wall-room at 5k particles) for the given
seeds into a temporary directory; --experiments picks some of the six.
Prints one "<sha256>  <experiment>/<file>" line for report.csv and for every
file under seed_N/. Run it on two checkouts and diff the outputs to check
that a change keeps every file byte-identical.
"""

import argparse
import hashlib
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

# digest the package of this checkout, not an installed one
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hapticloc.evaluate import (  # noqa: E402
    default_chevron_experiment,
    default_tiles_experiment,
    default_wallroom_experiment,
    run_experiment,
)
from hapticloc.sim import CourseSpec  # noqa: E402

EXPERIMENTS = {
    "chevron": default_chevron_experiment,
    "class-tiles": default_tiles_experiment,
    "wall-room": default_wallroom_experiment,
    "tiles-1cm-n500": lambda: replace(
        default_tiles_experiment(), course=CourseSpec("class-tiles", resolution=0.01)
    ),
    "chevron-n10k": lambda: replace(default_chevron_experiment(), n_particles=10_000),
    "wallroom-n5k": lambda: replace(default_wallroom_experiment(), n_particles=5_000),
}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    p.add_argument("--experiments", nargs="+", choices=list(EXPERIMENTS), default=list(EXPERIMENTS),
                   metavar="NAME", help=f"experiments to run (default: all of {', '.join(EXPERIMENTS)})")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.experiments:
            out = Path(tmp) / name
            run_experiment(replace(EXPERIMENTS[name](), seeds=tuple(args.seeds)), str(out))
            files = [out / "report.csv"] + sorted(f for f in out.glob("seed_*/**/*") if f.is_file())
            for f in files:
                digest = hashlib.sha256(f.read_bytes()).hexdigest()
                print(f"{digest}  {name}/{f.relative_to(out).as_posix()}", flush=True)


if __name__ == "__main__":
    main()

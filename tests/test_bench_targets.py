"""The benchmark's traced layers exist in the package.

perfbench/spans.py looks up every TARGETS entry with getattr when a run uses
--trace 1, so a renamed or removed function stops every traced run with an
AttributeError. This test loads spans.py from its file, without writing
bytecode next to it, and resolves each entry on the imported package.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_traced_target_resolves():
    targets = load_spans().TARGETS
    assert targets
    missing = []
    for module, attr, _ in targets:
        obj = importlib.import_module(f"hapticloc.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert not missing, f"perfbench/spans.py traces names the package lacks: {missing}"

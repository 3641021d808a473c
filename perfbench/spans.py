"""Wrappers installed from outside the package: a span per call into a layer.

Every wrapper replaces a public function (or a map class's constructor) in
each loaded ``hapticloc`` module that refers to it, so calls made through an
imported name (``hapticloc.mcl.quat_rotate``) are caught as well as calls
made inside the defining module (``hapticloc.geometry.quat_rotate``).

A span is (name, start, end, parent, points). Spans live in flat arrays in
memory and are written out once, at the end of a run. A layer's self time
is its span minus the time its child spans cover; calls on one thread nest,
so that is the span minus the sum of its direct children.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (module, attribute, counts query points). Attribute "Name.__init__" wraps
# a class constructor; the span is named after the class.
TARGETS = (
    ("geometry", "quat_rotate", False),
    ("geometry", "quat_mul", False),
    ("geometry", "quat_from_rotvec", False),
    ("geometry", "quat_to_rotvec", False),
    ("geometry", "covariance_factor", False),
    ("maps", "elevation_at_many", True),
    ("maps", "class_at_many", True),
    ("maps", "class_distance_many", True),
    ("maps", "cloud_distances", True),
    ("maps", "ClassGrid.__init__", False),
    ("maps", "PointCloudMap.__init__", False),
    ("likelihood", "contact_log_likelihood", False),
    ("likelihood", "elevation_log_likelihood_points", False),
    ("likelihood", "class_log_likelihood_points", False),
    ("likelihood", "cloud_log_likelihood_points", False),
    ("mcl", "step", False),
    ("mcl", "systematic_resample_indices", False),
    ("mcl", "estimate_detail", False),
    ("mcl", "init_filter", False),
    ("mcl", "contacts_for_mode", False),
    ("sim", "generate_course", False),
    ("sim", "simulate_walk", False),
    ("sim", "probe_scenario", False),
    ("sim", "synth_force_signal", False),
    ("sim", "classify_log", False),
    ("sim", "walklog_hash", False),
    ("classifier", "baseline_train", False),
    ("classifier", "baseline_predict", False),
    ("evaluate", "simulate_for_config", False),
    ("evaluate", "train_contact_classifier", False),
    ("evaluate", "run_localization", False),
    ("evaluate", "ate", False),
    # the write stage has no public entry point of its own: its two helpers
    # share one span name
    ("evaluate", "_write_per_seed_outputs", False),
    ("evaluate", "write_report", False),
)

# evaluate spans are the stage split of one seed (simulate, train, filter,
# write, score), so they report wall time with their children included
INCLUSIVE_PREFIX = "evaluate."


def span_name(module: str, attr: str) -> str:
    if attr.endswith(".__init__"):
        return f"{module}.{attr.split('.')[0]}"
    if attr in ("_write_per_seed_outputs", "write_report"):
        return f"{module}.write"
    return f"{module}.{attr}"


def layer_names() -> list[str]:
    return list(dict.fromkeys(span_name(m, a) for m, a, _ in TARGETS))


def point_layer_names() -> list[str]:
    return [span_name(m, a) for m, a, points in TARGETS if points]


def patch_everywhere(original, replacement) -> list:
    """Replace every reference to original in the loaded hapticloc modules.

    Returns the undo list for restore().
    """
    undo = []
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] != "hapticloc":
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)
                undo.append((mod, name, original))
    return undo


def restore(undo) -> None:
    for obj, name, original in reversed(undo):
        setattr(obj, name, original)


def _n_points(query) -> int:
    shape = np.shape(query)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


class Tracer:
    """Records one span per call into each target while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.points = array("q")
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, fn, count_points: bool):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_id, parent, start, end, points, stack = (
            self.name_id, self.parent, self.start, self.end, self.points, self._stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            points.append(_n_points(args[1]) if count_points else 0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self, hapticloc) -> None:
        for module, attr, count_points in TARGETS:
            mod = getattr(hapticloc, module)
            name = span_name(module, attr)
            if attr.endswith(".__init__"):
                cls = getattr(mod, attr.split(".")[0])
                self._undo.append((cls, "__init__", cls.__init__))
                cls.__init__ = self._wrap(name, cls.__init__, count_points)
            else:
                original = getattr(mod, attr)
                self._undo += patch_everywhere(original, self._wrap(name, original, count_points))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    @property
    def n_spans(self) -> int:
        return len(self.start)

    def summary(self, skip_starts=(), skip_durations=()) -> dict:
        """name -> (calls, points, ms): self time, or for evaluate stages wall
        time less the skipped intervals (the speed probe) that start inside."""
        names, parent, start, end, points = self._arrays()
        dur = end - start
        skipped = np.concatenate([[0.0], np.cumsum(skip_durations)])
        skip_starts = np.asarray(skip_starts, dtype=float)
        inner = skipped[np.searchsorted(skip_starts, end)] - skipped[np.searchsorted(skip_starts, start)]
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        points = np.bincount(names, weights=points, minlength=k)
        wall = np.bincount(names, weights=dur - inner, minlength=k)
        own = np.bincount(names, weights=dur - child, minlength=k)
        out = {}
        for i, name in enumerate(self.names):
            ms = wall[i] if name.startswith(INCLUSIVE_PREFIX) else own[i]
            out[name] = (int(calls[i]), int(points[i]), 1e3 * float(ms))
        return out

    def _arrays(self):
        return (
            np.array(self.name_id, dtype=np.int32),
            np.array(self.parent, dtype=np.int32),
            np.array(self.start, dtype=float),
            np.array(self.end, dtype=float),
            np.array(self.points, dtype=np.int64),
        )

    def save(self, path) -> None:
        names, parent, start, end, points = self._arrays()
        np.savez(path, names=np.array(self.names), name_id=names, parent=parent, start=start, end=end, points=points)

"""The one field parser of every text file the package reads.

Map layers, walk logs, force signals and trajectories all read their fields
through parse_field. The rule is stated here once: a field
that does not parse, or is not finite, raises ValueError naming the file, the
line and the field, ``<path>:<line>: column <name>: ...``; a row whose values
parse but make no valid object (a pose with a zero quaternion) names the line,
``<path>:<line>: ...``; an error of the file as a whole (no data rows, a wrong
count of values) names the file, ``<path>: ...``. nan is allowed only as a
height's no-data value.
"""

from __future__ import annotations

import math


def parse_field(text, parse, where, column):
    """parse(text) of the field column at where, "<path>:<line>"; a parse that
    raises ValueError, KeyError or OverflowError, or a float not finite, raises."""
    try:
        value = parse(text)
    except (ValueError, KeyError, OverflowError):
        raise ValueError(f"{where}: column {column}: cannot parse {text!r}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{where}: column {column}: {text} is not finite")
    return value


def parse_fields(parts, columns, where) -> list:
    """A line's floats, one per named column."""
    if len(parts) != len(columns):
        raise ValueError(f"{where}: expected {len(columns)} fields '{' '.join(columns)}', got {len(parts)}")
    return [parse_field(text, float, where, column) for text, column in zip(parts, columns)]


def positive_int(text) -> int:
    """A count or a size: an integer above 0."""
    value = int(text)
    if value <= 0:
        raise ValueError(text)
    return value


def data_lines(path):
    """("<path>:<line>", stripped text) of each line, blank and '#' lines skipped."""
    with open(path) as f:
        for ln, line in enumerate(f, start=1):
            s = line.strip()
            if s and not s.startswith("#"):
                yield f"{path}:{ln}", s


def build(path, make, *args):
    """make(*args); a ValueError it raises is raised again naming the file,
    or the line when path is a row's "<path>:<line>"."""
    try:
        return make(*args)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e

"""Every reader of a text file, fed the same three kinds of bad input.

Each reader parses its fields with fields.parse_field, so a token that does
not parse, a value that is not finite, and a file with no data rows all raise
ValueError (MapFormatError for maps). A field's error starts with
"<path>:<line>: column <field>: ", an error of the file as a whole with
"<path>: " and names what the file lacks.
"""

import numpy as np
import pytest

from hapticloc.geometry import Pose, load_trajectory, save_trajectory
from hapticloc.maps import ClassGrid, ElevationGrid, MapFormatError, PointCloudMap, load_map, save_map
from hapticloc.network import load_weights, save_weights
from hapticloc.sim import (
    CourseSpec,
    GaitParams,
    NoiseSpec,
    generate_course,
    load_signal,
    load_walklog,
    save_signal,
    save_walklog,
    simulate_walk,
    synth_force_signal,
)
from test_network import SMALL, random_weights


def write_walklog(path):
    maps = generate_course(CourseSpec("chevron-ramp", seed=1))
    save_walklog(simulate_walk(maps, ((1.0, 0.7), (1.2, 0.7)), GaitParams(), NoiseSpec(), 1), path)


# reader -> (write a good file, load it, the line and the index of the field
# to corrupt, the field's name, the separator of its line, the lines a file
# with no data rows keeps, a word of the error such a file raises)
READERS = {
    "hmap": (
        lambda p: save_map(ElevationGrid(0.5, (0.0, 0.0), [[0.0, 1.0], [2.0, np.nan]]), p),
        load_map, 2, 1, "height[1]", " ", 1, "height",
    ),
    "cmap": (
        lambda p: save_map(ClassGrid(0.5, (0.0, 0.0), np.array([[0, 1], [255, 1]]), 2), p),
        load_map, 3, 1, "class_id[1]", " ", 1, "class_id",
    ),
    "cloud": (
        lambda p: save_map(PointCloudMap([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]), p),
        load_map, 2, 2, "z", " ", 0, "points",
    ),
    "walklog": (write_walklog, load_walklog, 5, 3, "true_y", ",", 4, "step rows"),
    "signal": (
        lambda p: save_signal(synth_force_signal(1, 20, np.random.default_rng(0)), p),
        load_signal, 3, 2, "fz", ",", 1, "samples",
    ),
    "trajectory": (
        lambda p: save_trajectory(p, [Pose([1.0, 2.0, 0.5]), Pose([1.1, 2.0, 0.5])]),
        load_trajectory, 2, 4, "qx", " ", 0, "poses",
    ),
    "weights": (
        lambda p: save_weights(random_weights(SMALL, seed=0), p),
        load_weights, 3, 0, "fc1.bias[0]", " ", 1, "tensors",
    ),
}


def bad_file(tmp_path, reader, kind):
    """A good file of the reader's format with one kind of damage."""
    write, _, line, index, _, sep, header_lines, _ = READERS[reader]
    path = tmp_path / f"bad.{reader}"
    write(path)
    lines = path.read_text().split("\n")
    if kind == "empty":
        lines = lines[:header_lines] + [""]
    else:
        fields = lines[line - 1].split(sep)
        fields[index] = {"unparsable": "x", "non-finite": "inf"}[kind]
        lines[line - 1] = sep.join(fields)
    path.write_text("\n".join(lines))
    return path


@pytest.mark.parametrize("kind", ["unparsable", "non-finite", "empty"])
@pytest.mark.parametrize("reader", list(READERS))
def test_reader_rejects_bad_input_naming_the_file_line_and_field(reader, kind, tmp_path):
    _, load, line, _, field, _, _, lacks = READERS[reader]
    path = bad_file(tmp_path, reader, kind)
    error = MapFormatError if load is load_map else ValueError
    with pytest.raises(error) as err:
        load(path)
    assert type(err.value) is error
    message = str(err.value)
    if kind == "empty":
        assert message.startswith(f"{path}: ") and lacks in message
    else:
        token = {"unparsable": "x", "non-finite": "inf"}[kind]
        assert message.startswith(f"{path}:{line}: column {field}: ") and token in message


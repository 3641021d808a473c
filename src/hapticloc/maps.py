"""Terrain map layers and their plain-text file formats.

All grid layers share the same lattice convention: `origin` is the world xy of
the outer corner of cell (col 0, row 0), cells are `resolution` squares, and a
query point belongs to the cell that contains it (no interpolation). Values are
stored row-major, one grid row per file line.

Every grid layer keeps its values in a padded array, the lattice with a
one-cell border that holds the layer's off-map value (nan height, the unknown
class, inf distance), and its public array is a view of the interior.
padded_cells maps query points to flat indices into the padded array, a point
off the lattice to the border, so a lookup is one gather with no inside mask.
Layers on one lattice share the indices.

File formats, read with fields.parse_field: a field that does not parse, or
is not finite, raises an error naming the file, the line and the field; nan
is allowed only as a height's no-data value.

  elevation   header ``HMAP 1 <n_cols> <n_rows> <resolution> <origin_x> <origin_y>``
              followed by n_rows * n_cols heights; missing cells are ``nan``.
  class map   header ``CMAP 1 <n_cols> <n_rows> <resolution> <origin_x> <origin_y> <n_classes>``
              followed by integer ids; 255 marks unlabeled cells.
  point cloud one ``x y z`` triple per line, no header.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import distance_transform_edt
from scipy.spatial import cKDTree

from .fields import build, data_lines, parse_field, parse_fields, positive_int

UNKNOWN_CLASS = 255


class MapFormatError(ValueError):
    """Raised when a map file does not parse; message carries path and line."""


def _check_lattice(grid) -> None:
    """Coerce and check a grid's resolution and origin, naming the bad field:
    a cell index computed from a non-finite one means nothing."""
    grid.resolution = float(grid.resolution)
    if not (np.isfinite(grid.resolution) and grid.resolution > 0.0):
        raise ValueError(f"grid resolution must be finite and positive, got {grid.resolution}")
    grid.origin = np.array(grid.origin, dtype=float).reshape(2)
    if not np.isfinite(grid.origin).all():
        raise ValueError(f"grid origin must be finite, got {grid.origin.tolist()}")


def _padded(interior, border):
    """interior inside a one-cell border of the value border."""
    rows, cols = interior.shape[-2:]
    out = np.full(interior.shape[:-2] + (rows + 2, cols + 2), border, dtype=interior.dtype)
    out[..., 1:-1, 1:-1] = interior
    return out


@dataclass
class ElevationGrid:
    """2.5D height field. heights has shape (n_rows, n_cols), nan = no data.

    heights is the interior view of _padded, the heights with a nan border.
    """

    resolution: float
    origin: np.ndarray
    heights: np.ndarray
    _padded: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_lattice(self)
        heights = np.asarray(self.heights, dtype=float)
        if heights.ndim != 2 or heights.size == 0:
            raise ValueError("heights must be a non-empty 2D array")
        # nan marks no data; an infinite height is a corrupt one
        if np.isinf(heights).any():
            r, c = np.argwhere(np.isinf(heights))[0]
            raise ValueError(f"heights must be finite or nan (no data), got {heights[r, c]} at (row {r}, col {c})")
        self._padded = _padded(heights, np.nan)
        self.heights = self._padded[1:-1, 1:-1]

    @property
    def n_rows(self) -> int:
        return self.heights.shape[0]

    @property
    def n_cols(self) -> int:
        return self.heights.shape[1]


@dataclass
class ClassGrid:
    """Per-cell terrain class ids on the same lattice convention as ElevationGrid.

    Per-class distance fields are precomputed at construction from an exact
    Euclidean distance transform, so nearest-class queries are O(1). Distances
    are measured center-to-center on the cell lattice.

    class_ids is the interior view of _padded, the ids with an unknown-class
    border, and _dist holds the padded distance fields, inf on the border.
    """

    resolution: float
    origin: np.ndarray
    class_ids: np.ndarray
    n_classes: int
    _padded: np.ndarray = field(init=False, repr=False, compare=False)
    _dist: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_lattice(self)
        ids = np.asarray(self.class_ids, dtype=np.uint8)
        if ids.ndim != 2 or ids.size == 0:
            raise ValueError("class_ids must be a non-empty 2D array")
        self.n_classes = int(self.n_classes)
        if not 0 < self.n_classes <= 254:
            raise ValueError("n_classes must be in [1, 254]")
        bad = (ids >= self.n_classes) & (ids != UNKNOWN_CLASS)
        if bad.any():
            r, c = np.argwhere(bad)[0]
            raise ValueError(
                f"class id {int(ids[r, c])} at cell (row {r}, col {c}) "
                f"outside [0, {self.n_classes}) and not the unknown sentinel {UNKNOWN_CLASS}"
            )
        self._padded = _padded(ids, UNKNOWN_CLASS)
        self.class_ids = self._padded[1:-1, 1:-1]
        self._build_distance_fields()

    @property
    def n_rows(self) -> int:
        return self.class_ids.shape[0]

    @property
    def n_cols(self) -> int:
        return self.class_ids.shape[1]

    def _build_distance_fields(self):
        rows, cols = self.class_ids.shape
        self._dist = np.full((self.n_classes, rows + 2, cols + 2), np.inf)
        row_idx, col_idx = np.indices((rows, cols))
        for c in range(self.n_classes):
            mask = self.class_ids == c
            if not mask.any():
                continue
            _, (nr, nc) = distance_transform_edt(~mask, return_indices=True)
            # recompute from integer offsets so lattice distances are exact
            d2 = (nr - row_idx).astype(np.int64) ** 2 + (nc - col_idx).astype(np.int64) ** 2
            self._dist[c, 1:-1, 1:-1] = self.resolution * np.sqrt(d2.astype(float))


@dataclass
class PointCloudMap:
    """3D map as a raw point set with a kd-tree for nearest-neighbour queries."""

    points: np.ndarray
    _tree: cKDTree = field(init=False, repr=False)

    def __post_init__(self):
        self.points = np.array(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 3 or len(self.points) == 0:
            raise ValueError("point cloud must be a non-empty (M, 3) array")
        if not np.isfinite(self.points).all():
            raise ValueError("point cloud contains non-finite coordinates")
        self._tree = cKDTree(self.points)


@dataclass
class MapSet:
    """Map layers of one course. Grid layers, when both present, share a lattice."""

    elevation: ElevationGrid
    class_grid: ClassGrid | None = None
    cloud: PointCloudMap | None = None

    def __post_init__(self):
        if self.class_grid is not None:
            check_same_lattice(self.elevation, self.class_grid)

    @property
    def layers(self) -> dict:
        """The layers present, by the name of the likelihood channel that reads each."""
        present = {"elevation": self.elevation, "class": self.class_grid, "cloud": self.cloud}
        return {name: layer for name, layer in present.items() if layer is not None}


def check_same_lattice(a, b) -> None:
    if (
        a.n_rows != b.n_rows
        or a.n_cols != b.n_cols
        or a.resolution != b.resolution
        or not np.array_equal(a.origin, b.origin)
    ):
        raise ValueError(
            "grid lattice mismatch: "
            f"{a.n_cols}x{a.n_rows}@{a.resolution} origin {a.origin} vs "
            f"{b.n_cols}x{b.n_rows}@{b.resolution} origin {b.origin}"
        )


def padded_cells(grid, xy, out=None, scratch=None) -> np.ndarray:
    """Flat indices into the grid's padded layers for query points (2, ...).

    A point off the lattice, or with a nan coordinate, gets a border cell.
    out, an int64 array of the points' shape, receives the indices; scratch,
    a float array of xy's shape, holds the column and row on the way.
    """
    xy = np.asarray(xy, dtype=float)
    col, row = np.empty(xy.shape) if scratch is None else scratch
    for axis, coord, origin, n in (
        (col, xy[0], grid.origin[0], grid.n_cols),
        (row, xy[1], grid.origin[1], grid.n_rows),
    ):
        np.subtract(coord, origin, out=axis)
        np.divide(axis, grid.resolution, out=axis)
        np.floor(axis, out=axis)
        # the lattice index, -1 and n (off the lattice, nan included) as the border
        np.fmax(axis, -1.0, out=axis)
        np.fmin(axis, n, out=axis)
        np.add(axis, 1.0, out=axis)
    # integers far below 2**53, so exact in float64
    np.multiply(row, grid.n_cols + 2, out=row)
    np.add(row, col, out=row)
    if out is None:
        return row.astype(np.int64)
    np.copyto(out, row, casting="unsafe")
    return out


def _cells(grid, xy, cells):
    return padded_cells(grid, xy) if cells is None else cells


def elevation_at_many(grid: ElevationGrid, xy, cells=None, out=None) -> np.ndarray:
    """Heights at query points (2, ...); nan outside the grid or on no-data cells.

    cells, the points' padded_cells when the caller has them, saves computing
    them again; out receives the heights.
    """
    return grid._padded.take(_cells(grid, xy, cells), out=out, mode="clip")


def _padded_index(coord, origin, resolution, n) -> int:
    """One coordinate's index into a padded axis, by padded_cells' rule in
    plain floats: (coord - origin) / resolution, floored, plus one for the
    border; 0, a border cell, off the lattice or for nan."""
    i = (float(coord) - float(origin)) / resolution
    return math.floor(i) + 1 if 0.0 <= i < n else 0


def _padded_value(grid, xy):
    """The padded layer's value at one point (x, y): the lookup the batched
    functions make, without their per-call array overhead."""
    row = _padded_index(xy[1], grid.origin[1], grid.resolution, grid.n_rows)
    return grid._padded[row, _padded_index(xy[0], grid.origin[0], grid.resolution, grid.n_cols)]


def elevation_at(grid: ElevationGrid, xy) -> float:
    """Height of the cell containing xy; nan outside the grid or on no-data cells."""
    return float(_padded_value(grid, xy))


def class_at_many(grid: ClassGrid, xy, cells=None) -> np.ndarray:
    """Class ids at query points (2, ...); the unknown sentinel outside the grid.

    cells as for elevation_at_many.
    """
    return grid._padded.take(_cells(grid, xy, cells), mode="clip")


def class_at(grid: ClassGrid, xy) -> int:
    """Class id of the cell containing xy; the unknown sentinel outside the grid."""
    return int(_padded_value(grid, xy))


def check_class_ids(grid: ClassGrid, class_id) -> np.ndarray:
    """class_id (one id or an array of them) as int64, each checked to lie in
    [0, n_classes)."""
    class_id = np.asarray(class_id, dtype=np.int64)
    bad = (class_id < 0) | (class_id >= grid.n_classes)
    if bad.any():
        raise ValueError(f"class id {int(class_id[bad][0])} outside [0, {grid.n_classes})")
    return class_id


def class_distance_many(grid: ClassGrid, xy, class_id, cells=None, out=None, scratch=None) -> np.ndarray:
    """Lattice distances to the nearest class_id cell for query points (2, M).

    class_id is one class for every point or an array of per-point classes
    that broadcasts against the points. A class absent from the grid is at
    distance inf; so are points outside the grid (callers treat them as
    off-map before this). cells and out as for elevation_at_many; scratch,
    an int64 array of the points' shape, holds the flat index into the
    distance fields.
    """
    class_id = check_class_ids(grid, class_id)
    field_size = grid._padded.size
    index = np.add(class_id * field_size, _cells(grid, xy, cells), out=scratch)
    return grid._dist.take(index, out=out, mode="clip")


def cloud_distances(cloud: PointCloudMap, points, max_distance: float = np.inf) -> np.ndarray:
    """Nearest-neighbour distances for query points (3, ...), on every core.

    With max_distance the kd-tree search stops there: a point with no map point
    nearer than max_distance gets inf, and every other point gets the same
    distance as the unbounded search. The default is the exact, unbounded
    query. A caller that scores every distance beyond some reach the same
    (the cloud channel's floor) can pass the reach and lose nothing, provided
    its score does not increase with distance.
    """
    points = np.moveaxis(np.asarray(points, dtype=float), 0, -1)
    dist, _ = cloud._tree.query(points, distance_upper_bound=max_distance, workers=-1)
    return np.asarray(dist, dtype=float)


def parse_class_id(text) -> int:
    """A class id as a file holds it: 0 to 254 a class, 255 unlabeled."""
    cid = int(text)
    if not 0 <= cid <= UNKNOWN_CLASS:
        raise ValueError(text)
    return cid


def _height(text, where, column):
    # nan, as save_map writes a no-data cell, or a finite height
    return math.nan if text == "nan" else parse_field(text, float, where, column)


_GRID_COLUMNS = ("n_cols", "n_rows", "resolution", "origin_x", "origin_y")
_GRID_RULES = {"n_cols": positive_int, "n_rows": positive_int, "n_classes": int}


def _grid(path, lines, make, column, parse):
    """A grid layer from its file's data lines: the header, then n_rows *
    n_cols values, each parse(text, where, column)."""
    where, header = lines[0]
    tag, *parts = header.split()
    columns = _GRID_COLUMNS + (("n_classes",) if tag == "CMAP" else ())
    if len(parts) != 1 + len(columns) or parts[0] != "1":
        expected = " ".join([tag, "1"] + [f"<{c}>" for c in columns])
        raise ValueError(f"{where}: expected header '{expected}', got {header!r}")
    fields = [parse_field(text, _GRID_RULES.get(c, float), where, c) for text, c in zip(parts[1:], columns)]
    n_cols, n_rows, resolution, origin_x, origin_y = fields[:5]
    values = [parse(text, w, f"{column}[{j}]") for w, line in lines[1:] for j, text in enumerate(line.split())]
    if len(values) != n_rows * n_cols:
        raise ValueError(f"{path}: expected {n_rows * n_cols} {column} values, found {len(values)}")
    return build(path, make, resolution, (origin_x, origin_y), np.reshape(values, (n_rows, n_cols)), *fields[5:])


def load_map(path):
    """Load a map file; the format is sniffed from the first line that is
    neither blank nor a comment.

    Returns ElevationGrid, ClassGrid, or PointCloudMap.
    """
    lines = list(data_lines(path))
    tag = lines[0][1].split()[0] if lines else ""
    try:
        if tag == "HMAP":
            return _grid(path, lines, ElevationGrid, "height", _height)
        if tag == "CMAP":
            return _grid(path, lines, ClassGrid, "class_id", lambda t, w, c: parse_field(t, parse_class_id, w, c))
        # no recognized header: point cloud
        points = [parse_fields(line.split(), ("x", "y", "z"), where) for where, line in lines]
        if not points:
            raise ValueError(f"{path}: no HMAP or CMAP header and no 'x y z' points")
        return build(path, PointCloudMap, points)
    except ValueError as e:
        raise MapFormatError(str(e)) from e


def save_map(obj, path) -> None:
    """Write a map layer in its text format; loading it back is lossless."""
    with open(path, "w") as f:
        if isinstance(obj, ElevationGrid):
            f.write(
                f"HMAP 1 {obj.n_cols} {obj.n_rows} {obj.resolution:.17g} "
                f"{obj.origin[0]:.17g} {obj.origin[1]:.17g}\n"
            )
            for row in obj.heights:
                f.write(" ".join(format(v, ".17g") for v in row) + "\n")
        elif isinstance(obj, ClassGrid):
            f.write(
                f"CMAP 1 {obj.n_cols} {obj.n_rows} {obj.resolution:.17g} "
                f"{obj.origin[0]:.17g} {obj.origin[1]:.17g} {obj.n_classes}\n"
            )
            for row in obj.class_ids:
                f.write(" ".join(str(int(v)) for v in row) + "\n")
        elif isinstance(obj, PointCloudMap):
            for p in obj.points:
                f.write(" ".join(format(v, ".17g") for v in p) + "\n")
        else:
            raise TypeError(f"cannot save object of type {type(obj).__name__} as a map")

"""Terrain map layers and their plain-text file formats.

All grid layers share the same lattice convention: `origin` is the world xy of
the outer corner of cell (col 0, row 0), cells are `resolution` squares, and a
query point belongs to the cell that contains it (no interpolation). Values are
stored row-major, one grid row per file line.

Every grid layer keeps its values in a padded array, the lattice with a
one-cell border that holds the layer's off-map value (nan height, the unknown
class, the cap of the squared offsets), and its public array is a view of
the interior; both, like a cloud's points, are read-only once checked.
padded_cells maps query points to flat indices into the padded array, a point
off the lattice to the border, so a lookup is one gather with no inside mask.
Layers on one lattice share the indices.

File formats, read with fields.parse_field: a field that does not parse, or
is not finite, raises an error naming the file, the line and the field; nan
is allowed only as a height's no-data value.

  elevation   header ``HMAP 1 <n_cols> <n_rows> <resolution> <origin_x> <origin_y>``
              followed by n_rows * n_cols heights; missing cells are ``nan``.
  class map   header ``CMAP 1 <n_cols> <n_rows> <resolution> <origin_x> <origin_y> <n_classes>``
              followed by integer ids, each a class (check_class_ids) or 255, unlabeled.
  point cloud one ``x y z`` triple per line, no header.

A point cloud answers exact nearest-neighbour queries from a kd-tree
(cloud_distances), and keeps a truncated distance field for one reach and
lattice spacing (PointCloudMap.distance_field): the band of lattice nodes
near the cloud, stored sparsely in bricks, and one dense index of their
rows over the box of bricks around the cloud. field_distances interpolates
it at query points, and fills the nodes it finds unfilled from kd-tree
queries, together, the first time it reads them, so a run pays only for
the nodes its points reach.

A class layer keeps, for one reach, each cell's squared lattice offset to
the nearest cell of each class (ClassGrid.squared_offsets), found in numpy
by an exact separable transform and capped one above the largest offset
within the reach, like the cloud's field cut at its reach; its padded
border holds one code more, so a point off the lattice reads a value of its
own. The offsets are small integers in the smallest unsigned dtype that
holds that code, and a table over them turns them into any function of the
distance with one gather: the distance table, resolution * sqrt(k) and inf
at the cap and on the border, gives class_distance_many, and the class
channel keeps a table of its scores (likelihood.class_scores), which reads
the border as neutral.

Loading a layer validates it, and builds no index. The class layer's
offsets and the point cloud's kd-tree are built the first time a
caller reads them, and then kept: mcl.init_filter requests the indexes of
its mode's channels, so no filter step builds one. scipy serves only the
kd-tree (scipy.spatial), imported when it is first built, so a process that
weighs no cloud contact never loads scipy.

Layers compare by identity: two layers loaded from one file are equal only
to themselves.
"""

from __future__ import annotations

import itertools
import math
import mmap
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .fields import build, data_lines, parse_field, parse_fields, positive_int

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

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
    grid.origin.flags.writeable = False


def _padded(interior, border):
    """interior inside a one-cell border of the value border."""
    rows, cols = interior.shape[-2:]
    out = np.full(interior.shape[:-2] + (rows + 2, cols + 2), border, dtype=interior.dtype)
    out[..., 1:-1, 1:-1] = interior
    return out


class _Lattice:
    """A grid layer's lattice size, read from its padded values."""

    @property
    def n_rows(self) -> int:
        return self._padded.shape[0] - 2

    @property
    def n_cols(self) -> int:
        return self._padded.shape[1] - 2


@dataclass(eq=False)
class ElevationGrid(_Lattice):
    """2.5D height field. heights has shape (n_rows, n_cols), nan = no data.

    heights is the interior view of _padded, the heights with a nan border;
    both are read-only, so every caller reads the heights that were checked.
    """

    resolution: float
    origin: np.ndarray
    heights: np.ndarray
    _padded: np.ndarray = field(init=False, repr=False)

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
        self._padded.flags.writeable = False
        self.heights = self._padded[1:-1, 1:-1]


@dataclass(eq=False)
class ClassGrid(_Lattice):
    """Per-cell terrain class ids on the same lattice convention as ElevationGrid.

    Per-class squared lattice offsets, from an exact Euclidean distance
    transform in numpy (_nearest_squares), make nearest-class queries O(1).
    Distances are measured center-to-center on the cell lattice. The
    transform runs on the first request of squared_offsets for a reach,
    beyond which the offsets hold their cap, as the cloud's field stops at
    its reach; _offsets keeps the last SquaredOffsets it built: a filter
    reads one.

    class_ids is the interior view of _padded, the ids with an unknown-class
    border: each cell UNKNOWN_CLASS or a class id that check_class_ids passed
    as given. Both are read-only, so the offsets describe the ids that were
    checked. has_unlabeled_cells, found when the grid is built, says
    whether any cell of the interior is UNKNOWN_CLASS: the offsets' border
    code marks every point off the lattice, so only such a grid needs its
    class ids to find the points the class channel leaves neutral.
    """

    resolution: float
    origin: np.ndarray
    class_ids: np.ndarray
    n_classes: int
    _padded: np.ndarray = field(init=False, repr=False)
    has_unlabeled_cells: bool = field(init=False)
    _offsets: SquaredOffsets | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        _check_lattice(self)
        given = np.asarray(self.class_ids)
        if given.ndim != 2 or given.size == 0:
            raise ValueError("class_ids must be a non-empty 2D array")
        self.n_classes = int(self.n_classes)
        if not 0 < self.n_classes <= 254:
            raise ValueError("n_classes must be in [1, 254]")
        # checked before the uint8 cast, which would wrap -1 to the sentinel and 263 to 7
        unknown = given == UNKNOWN_CLASS
        self.has_unlabeled_cells = bool(unknown.any())
        check_class_ids(np.where(unknown, 0, given) if self.has_unlabeled_cells else given, self.n_classes)
        self._padded = _padded(given.astype(np.uint8, copy=False), UNKNOWN_CLASS)
        self._padded.flags.writeable = False
        self.class_ids = self._padded[1:-1, 1:-1]

    def squared_offsets(self, reach: float = math.inf) -> SquaredOffsets:
        """The grid's SquaredOffsets for reach: built on the first request
        and kept until a request for another reach replaces it. The default,
        an unbounded reach, keeps every offset exact."""
        reach = float(reach)
        if self._offsets is None or self._offsets.reach != reach:
            k_max = _reach_squares(reach, self.resolution, self.n_rows, self.n_cols)
            cap, border = k_max + 1, k_max + 2
            offsets = np.full((self.n_classes,) + self._padded.shape, cap, dtype=np.min_scalar_type(border))
            offsets[:, 0] = offsets[:, -1] = offsets[:, :, 0] = offsets[:, :, -1] = border
            for c in range(self.n_classes):
                mask = self.class_ids == c
                if mask.any():
                    k = _nearest_squares(mask, k_max)
                    np.minimum(k, cap, out=k)
                    np.copyto(offsets[c, 1:-1, 1:-1], k, casting="unsafe")
                    del k  # so that the next class's transform runs without it
            offsets.flags.writeable = False
            distances = self.resolution * np.sqrt(np.arange(border + 1, dtype=float))
            distances[cap:] = np.inf
            distances.flags.writeable = False
            self._offsets = SquaredOffsets(reach, k_max, offsets, distances)
        return self._offsets


@dataclass(frozen=True, eq=False)
class SquaredOffsets:
    """A class layer's squared lattice offsets for one reach.

    offsets, (n_classes, n_rows + 2, n_cols + 2) and read-only, holds each
    cell's squared lattice offset k to the nearest cell of each class where
    k is at most k_max, the largest offset whose distance is within reach,
    the cap k_max + 1 beyond it and for a class absent from the grid, and
    the border code k_max + 2 (border) on the padded border, where every
    point off the lattice reads; its dtype is the smallest unsigned one that
    holds the border code. An unlabeled cell of the interior keeps its exact
    offsets.
    A table of k_max + 3 entries over k turns the offsets into any function
    of the distance with one gather: distances holds resolution * sqrt(k),
    the exact transform's arithmetic, and inf at the cap and the border
    code. table keeps the tables a caller derives from distances; one may
    give the border code a value of its own, as the class channel's scores
    give it the neutral 0.
    """

    reach: float
    k_max: int
    offsets: np.ndarray
    distances: np.ndarray
    _tables: dict = field(default_factory=dict, repr=False)

    @property
    def border(self) -> int:
        """The border code, k_max + 2."""
        return self.k_max + 2

    def table(self, key, make) -> np.ndarray:
        """make(distances), a table over the offsets, read-only: made on the
        first request for key and kept with the offsets."""
        if key not in self._tables:
            values = make(self.distances)
            values.flags.writeable = False
            self._tables[key] = values
        return self._tables[key]


def _reach_squares(reach: float, resolution: float, n_rows: int, n_cols: int) -> int:
    """The largest squared lattice offset k whose distance, resolution *
    sqrt(k) in float arithmetic, is at most reach, and at most the largest
    squared offset on an n_rows by n_cols lattice."""
    if not reach >= 0.0:
        raise ValueError(f"class field reach must be non-negative, got {reach}")
    k_lattice = (n_rows - 1) ** 2 + (n_cols - 1) ** 2
    if resolution * math.sqrt(k_lattice) <= reach:
        return k_lattice
    k = int((reach / resolution) ** 2)
    while k > 0 and resolution * math.sqrt(k) > reach:
        k -= 1
    while resolution * math.sqrt(k + 1) <= reach:
        k += 1
    return k


def _nearest_squares(mask, k_max: int) -> np.ndarray:
    """Squared lattice offsets from each cell to the nearest True cell of a
    2-D mask: exact where they are at most k_max, above k_max elsewhere.

    The exact separable transform (Felzenszwalb & Huttenlocher, "Distance
    Transforms of Sampled Functions", 2012) on integers. A column pass finds
    g, each cell's row offset to the nearest True cell of its column, and a
    row pass the minimum over column offsets dj of g**2 + dj**2. A square
    of at most k_max has offsets of at most r = isqrt(k_max) on each axis,
    so g is capped at r + 1 and dj runs to r; the row pass also stops once
    dj**2 reaches every square it holds, beyond which no offset can lower
    one. The column pass runs in the narrowest signed type that holds
    n_rows + cap, and uint16 holds the squares when r bounds them, int64
    otherwise; each pass frees what it has read, so besides the mask at most
    three arrays of its shape live at once.
    """
    n_rows, n_cols = mask.shape
    r = math.isqrt(k_max)
    cap = r + 1
    # the narrowest signed type whose max reaches n_rows + cap
    rows = np.arange(n_rows, dtype=np.min_scalar_type(-(n_rows + cap) - 1))[:, None]
    # the nearest True row at or above, and at or below, each cell; a column
    # without one reads an offset of at least cap
    above = np.where(mask, rows, -cap)
    np.maximum.accumulate(above, axis=0, out=above)
    np.subtract(rows, above, out=above)
    below = np.where(mask, rows, n_rows + cap)[::-1]
    np.minimum.accumulate(below, axis=0, out=below)
    below = below[::-1]
    np.subtract(below, rows, out=below)
    np.minimum(above, below, out=above)
    del below
    np.minimum(above, cap, out=above)
    dtype = np.uint16 if cap * cap + r * r <= np.iinfo(np.uint16).max else np.int64
    g2 = above.astype(dtype)
    del above
    np.multiply(g2, g2, out=g2)
    k = g2.copy()
    shifted = np.empty_like(g2)
    for dj in range(1, min(r, n_cols - 1) + 1):
        dj2 = dtype(dj * dj)
        if dj2 >= k.max():
            break
        np.add(g2[:, :-dj], dj2, out=shifted[:, dj:])
        np.minimum(k[:, dj:], shifted[:, dj:], out=k[:, dj:])
        np.add(g2[:, dj:], dj2, out=shifted[:, :-dj])
        np.minimum(k[:, :-dj], shifted[:, :-dj], out=k[:, :-dj])
    return k


@dataclass(eq=False)
class PointCloudMap:
    """3D map as a raw point set with a kd-tree for nearest-neighbour queries.

    points is a read-only copy: the kd-tree keeps a reference to it, not a
    copy, and every distance field is filled from it. kd_tree builds the
    tree on its first call and keeps it. _field keeps the last field
    distance_field made, with its (reach, spacing): a filter reads one.
    """

    points: np.ndarray
    _tree: cKDTree | None = field(init=False, repr=False, default=None)
    _field: tuple | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self.points = np.array(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 3 or len(self.points) == 0:
            raise ValueError("point cloud must be a non-empty (M, 3) array")
        if not np.isfinite(self.points).all():
            raise ValueError("point cloud contains non-finite coordinates")
        self.points.flags.writeable = False

    def kd_tree(self) -> cKDTree:
        """The kd-tree over points: built on the first call and kept."""
        if self._tree is None:
            from scipy.spatial import cKDTree

            self._tree = cKDTree(self.points)
        return self._tree

    def distance_field(self, reach: float, spacing: float) -> DistanceField | None:
        """The cloud's DistanceField for reach, on a lattice of the given
        spacing: made on the first request and kept until a request for
        another reach or spacing replaces it. None when its bricks and their
        row index would hold more than FIELD_BUDGET_BYTES. Making it builds
        the kd-tree too, which fills the field's nodes, or, for a field over
        the budget, answers the queries in its place."""
        key = (float(reach), float(spacing))
        if self._field is None or self._field[0] != key:
            self.kd_tree()
            self._field = (key, _make_field(self, *key))
        return self._field[1]


# A distance field's lattice has a node at every integer multiple of its
# spacing. Its nodes are stored in bricks of FIELD_BRICK cells a side: brick
# b holds nodes FIELD_BRICK * b to FIELD_BRICK * (b + 1) on each axis, the
# last an apron shared with the next brick, so the eight corners of a cell
# lie in one brick. A field holds at most FIELD_BUDGET_BYTES.
FIELD_BRICK = 8
FIELD_BUDGET_BYTES = 16 * 2**20
_SIDE = FIELD_BRICK + 1
_BRICK_NODES = _SIDE**3
# a node's offsets x, y, z in its brick, in the order of its index there,
# 81 x + 9 y + z, so FIELD_BRICK times these weights weigh offsets over
# FIELD_BRICK; a cell's corners from its low one, in the order the gather
# interpolates them: z pairs, then x, then y
_LOCAL = np.indices((_SIDE,) * 3).reshape(-1, _BRICK_NODES).T
_OFFSET_WEIGHTS = FIELD_BRICK * np.array([[_SIDE**2, _SIDE, 1.0]])
_CORNERS = np.array([dx * _SIDE**2 + dy * _SIDE + dz for dy in (0, 1) for dx in (0, 1) for dz in (0, 1)])
# the steps of a node's distance from 0 to the cap, stored one above, so
# that a uint8 0 marks a node not filled yet; the zero corners
# field_distances fills at a time, the cap on one fill's memory: a fill
# holds about 130 bytes a node it is given (its distinct nodes, their
# coordinates and the kd-tree's results), so one fill and its
# bookkeeping stay near 0.7 MB; and the float64 rows of a point that its
# scratch holds
_QUANTA = 254
_ZERO_CHUNK = 4096
GATHER_ROWS = 10


@dataclass(frozen=True, eq=False)
class DistanceField:
    """A point cloud's distance field for one reach, stored sparsely and
    filled as gathers read it.

    Each node holds its distance to the nearest point of cloud, capped at
    cap (reach plus a cell diagonal) and rounded to a multiple of quantum,
    as one plus that multiple: one uint8 a node, 0 while the node is not
    filled. keys are the sorted int64 keys of the bricks that may hold a
    node within reach plus half a cell diagonal of the cloud, and bricks
    their nodes, a row each, plus a last row all at cap that stands for
    every other brick. A node is filled (fill) on the first gather that
    reads it; its value does not depend on when, and the pages of bricks no
    gather read take no memory (_make_field). A brick's key is weights @
    (b - low) for its brick coordinates b; low and high lie at least one
    brick beyond the kept ones on each side, so a brick outside that box
    clamps to a border key, which is never kept.

    rows is the row index over that box, one entry a key: the row of a kept
    brick, the last row for every other one, so a gather finds each point's
    row with one take.
    """

    cloud: PointCloudMap = field(repr=False)
    reach: float
    spacing: float
    keys: np.ndarray
    rows: np.ndarray
    bricks: np.ndarray
    low: np.ndarray
    high: np.ndarray
    weights: np.ndarray

    @property
    def cap(self) -> float:
        return self.reach + math.sqrt(3.0) * self.spacing

    @property
    def quantum(self) -> float:
        return self.cap / _QUANTA

    @property
    def error_bound(self) -> float:
        """How far field_distances may lie from the exact distance of a
        point within reach: half a cell diagonal, the most that interpolating
        a function of slope at most 1 between a cell's corners can miss by,
        plus half a quantum."""
        return 0.5 * math.sqrt(3.0) * self.spacing + 0.5 * self.quantum

    def fill(self, nodes) -> None:
        """Fill each of the nodes, given by their flat indices into bricks,
        that is not filled yet with its bounded cloud_distances, capped and
        quantized. A fill holds about 130 bytes a node it is given, all at
        once, so a caller bounds the count (field_distances: _ZERO_CHUNK)."""
        flat = self.bricks.reshape(-1)
        # the distinct nodes, ascending: a sorted copy without its repeats
        nodes = np.sort(nodes, axis=None)
        distinct = np.empty(len(nodes), dtype=bool)
        distinct[:1] = True
        np.not_equal(nodes[1:], nodes[:-1], out=distinct[1:])
        nodes = nodes[distinct & (flat[nodes] == 0)]
        row, local = np.divmod(nodes, _BRICK_NODES)
        span = (self.high - self.low + 1.0).astype(np.int64)
        brick = np.column_stack(np.unravel_index(self.keys[row], span)) + self.low
        at = FIELD_BRICK * brick + _LOCAL[local]
        at *= self.spacing
        d = cloud_distances(self.cloud, at.T, self.cap)
        np.minimum(d, self.cap, out=d)
        np.rint(np.divide(d, self.quantum, out=d), out=d)
        flat[nodes] = d + 1.0


def _field_bricks(points, radius: float, spacing: float):
    """(keys, rows, low, high, weights) of DistanceField for the bricks with
    a node within radius of some point on every axis; None when they and
    their row index exceed the budget.

    A point's bricks form a box, lo to hi; points with a box of one shape
    share its offsets, so each shape's distinct low corners, shifted by
    each of its offsets, mark the kept bricks in a mask over the box.
    """
    u = points.T / spacing
    lo = np.ceil((u - radius / spacing) / FIELD_BRICK) - 1.0
    hi = np.floor((u + radius / spacing) / FIELD_BRICK)
    low, high = lo.min(axis=1) - 1.0, hi.max(axis=1) + 1.0
    span = high - low + 1.0
    # the row index, an intp a brick of the box, is checked before anything
    # the size of the box is made
    index_bytes = span.prod() * np.dtype(np.intp).itemsize
    if index_bytes > FIELD_BUDGET_BYTES:
        return None
    weights = np.array([span[1] * span[2], span[2], 1.0])
    corner = weights @ (lo - low[:, None])
    extent = (hi - lo).astype(np.int64)
    sizes = (int(extent.max()) + 1,) * 3
    shape = np.ravel_multi_index(extent, sizes)
    kept = np.zeros(int(span.prod()), dtype=bool)
    for s in np.unique(shape):
        corners = np.unique(corner[shape == s])
        for offset in itertools.product(*(range(e + 1) for e in np.unravel_index(s, sizes))):
            kept[(corners + weights @ offset).astype(np.int64)] = True
    keys = np.flatnonzero(kept)
    # a row of nodes and a key a kept brick, and the index
    if len(keys) * (_BRICK_NODES + keys.itemsize) + index_bytes > FIELD_BUDGET_BYTES:
        return None
    rows = np.full(len(kept), len(keys), dtype=np.intp)
    rows[keys] = np.arange(len(keys))
    return keys, rows, low, high, weights


def _make_field(cloud: PointCloudMap, reach: float, spacing: float) -> DistanceField | None:
    """The field of distance_field, no node filled yet; None over the budget.

    A cell that holds a point within reach of the cloud has its nearest
    corner within reach plus half a cell diagonal, and every corner within
    reach plus a diagonal, the cap. So the field keeps the bricks with a
    node within reach plus half a diagonal of some cloud point on every
    axis; a point in any other brick is beyond the reach and reads cap. The
    bricks lie in an anonymous memory map, whose pages read zero and take
    memory only once a node on them fills (numpy's own allocation asks for
    huge pages for an array this large, so a first write would commit 2 MB).
    """
    found = _field_bricks(cloud.points, reach + 0.5 * math.sqrt(3.0) * spacing, spacing)
    if found is None:
        return None
    keys, rows, low, high, weights = found
    n = len(keys) + 1
    bricks = np.frombuffer(mmap.mmap(-1, n * _BRICK_NODES), dtype=np.uint8).reshape(n, _BRICK_NODES)
    bricks[-1] = _QUANTA + 1
    return DistanceField(cloud, reach, spacing, keys, rows, bricks, low, high, weights)


def field_distances(distance_field: DistanceField, points, out=None, scratch=None) -> np.ndarray:
    """The field's distances at finite query points (3, ...), read in one
    sweep: each point's cell and offset in it, its base node, the cell's low
    corner, as its brick's row from the field's row index and its offset in
    the brick, and the trilinear interpolation of the cell's eight corner
    nodes, each read at its fixed offset from the base. A node no gather has
    read yet reads 0: the gather fills the nodes of all the corners that
    read 0 with one fill per _ZERO_CHUNK of them, and reads back only those
    corners. For a point within the field's reach of the cloud, the distance
    lies within error_bound of the exact one; a point in a brick the field
    does not keep reads cap.

    out, a C-contiguous float64 array of the points' shape, receives the
    distances. scratch, a float64 array of at least GATHER_ROWS times the
    points' count entries, holds the gather's rows; a caller that gathers
    again makes it once.
    """
    points = np.asarray(points, dtype=float)
    shape = points.shape[1:]
    points = points.reshape(3, -1)
    m = points.shape[1]
    if out is None:
        out = np.empty(shape)
    elif out.dtype != np.float64 or out.shape != shape or not out.flags.c_contiguous:
        raise ValueError(
            f"field_distances writes into a C-contiguous float64 out of the points' shape {shape}, "
            f"got {out.dtype} {out.shape}{'' if out.flags.c_contiguous else ', not C-contiguous'}"
        )
    scratch = np.empty(GATHER_ROWS * m) if scratch is None else scratch
    _gather(distance_field, points, out.reshape(-1), scratch.reshape(-1)[: GATHER_ROWS * m].reshape(GATHER_ROWS, m))
    return out


def _gather(f: DistanceField, points, out, real) -> None:
    """field_distances for points (3, M) into out (M,), with real, GATHER_ROWS
    float rows of M, as scratch: rows 0-2 hold t, the offset in the cell,
    until the interpolation; rows 3-8 the cell, brick and key on the way to
    the base node, an int64 row; row 9 the offset in the brick, then the
    corner nodes as uint8."""
    m = len(out)
    index = real.view(np.int64)
    t, cell, brick, offset = real[0:3], real[3:6], real[6:9], real[9]
    base, key = index[3], index[4]
    # the cell and the point's offset in it, in cells; then the cell's brick,
    # and its low node's offset in the brick over FIELD_BRICK (scaling by a
    # power of two and flooring integers are exact)
    np.divide(points, f.spacing, out=t)
    np.floor(t, out=cell)
    np.subtract(t, cell, out=t)
    np.multiply(cell, 1.0 / FIELD_BRICK, out=cell)
    np.floor(cell, out=brick)
    np.subtract(cell, brick, out=cell)
    np.matmul(_OFFSET_WEIGHTS, cell, out=offset[None])
    # a brick outside the box clamps to its border, where none is kept
    np.fmax(brick, f.low[:, None], out=brick)
    np.fmin(brick, f.high[:, None], out=brick)
    np.subtract(brick, f.low[:, None], out=brick)
    np.matmul(f.weights[None], brick, out=cell[0:1])
    # a brick that is not kept reads the last row, all cap
    np.copyto(key, cell[0], casting="unsafe")
    f.rows.take(key, out=base, mode="clip")
    np.multiply(base, _BRICK_NODES, out=base)
    np.add(base, offset, out=base, casting="unsafe")
    # the corner nodes, a row of M per corner, over the offset in the brick
    corners = offset.view(np.uint8)
    nodes = corners.reshape(8, m)
    flat = f.bricks.reshape(-1)
    for corner, row in zip(_CORNERS, nodes):
        flat[corner:].take(base, out=row, mode="clip")
    # a node no gather has read yet reads 0: fill the nodes of the corners
    # that read 0, then read back just those corners; the key's row is free
    # to mark them
    if not nodes.all():
        zero = real[4:6].view(bool).reshape(-1)[: 8 * m]
        at = np.flatnonzero(np.equal(corners, 0, out=zero))
        for start in range(0, len(at), _ZERO_CHUNK):
            chunk = at[start : start + _ZERO_CHUNK]
            corner, point = np.divmod(chunk, m)
            missing = base.take(point)
            missing += _CORNERS.take(corner)
            f.fill(missing)
            corners[chunk] = flat.take(missing)

    # the corners interpolated along z, y and x in quanta
    lerp = real[3:7]
    np.subtract(nodes[1::2], nodes[0::2], out=lerp, dtype=float)
    np.multiply(lerp, t[2], out=lerp)
    np.add(lerp, nodes[0::2], out=lerp)
    for lo, hi, frac in ((lerp[0:2], lerp[2:4], t[1]), (lerp[0], lerp[1], t[0])):
        np.subtract(hi, lo, out=hi)
        np.multiply(hi, frac, out=hi)
        np.add(lo, hi, out=lo)
    # nodes hold one quantum above their distance
    np.subtract(lerp[0], 1.0, out=lerp[0])
    np.multiply(lerp[0], f.quantum, out=out)


@dataclass(frozen=True, eq=False)
class MapSet:
    """Map layers of one course, fixed once built. Grid layers, when both present, share a lattice."""

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
    a float array of xy's shape, holds the column and row on the way. The
    passes that treat both axes alike take them together; an origin or a
    bound that differs by axis stays a scalar per axis, which numpy runs
    faster than a broadcast (2, 1, ...) column.
    """
    xy = np.asarray(xy, dtype=float)
    lattice = np.empty(xy.shape) if scratch is None else scratch
    col, row = lattice
    np.subtract(xy[0], grid.origin[0], out=col)
    np.subtract(xy[1], grid.origin[1], out=row)
    np.divide(lattice, grid.resolution, out=lattice)
    np.floor(lattice, out=lattice)
    # the lattice index, -1 and n (off the lattice, nan included) as the border
    np.fmax(lattice, -1.0, out=lattice)
    np.fmin(col, grid.n_cols, out=col)
    np.fmin(row, grid.n_rows, out=row)
    # (row + 1) * (n_cols + 2) + col + 1, its two ones added as n_cols + 3;
    # integers far below 2**53, so exact in float64
    np.multiply(row, grid.n_cols + 2, out=row)
    np.add(row, col, out=row)
    np.add(row, grid.n_cols + 3, out=row)
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


def class_at_many(grid: ClassGrid, xy, cells=None) -> np.ndarray:
    """Class ids at query points (2, ...); the unknown sentinel outside the grid.

    cells as for elevation_at_many.
    """
    return grid._padded.take(_cells(grid, xy, cells), mode="clip")


def check_class_ids(class_id, n_classes: int):
    """class_id, one class id or an array of them, checked as given, before
    any cast: an integral value in [0, n_classes) passes, as an int for a
    scalar, else an integer array (itself, or int64 for others). Any other
    id raises a ValueError naming the first as given and its index. A Python
    int costs no numpy call, an integer array two reductions."""
    if type(class_id) is int and 0 <= class_id < n_classes:
        return class_id
    ids = np.asarray(class_id)
    if ids.dtype.kind in "iu" and (not ids.size or (ids.min() >= 0 and ids.max() < n_classes)):
        return ids if ids.ndim else int(ids)
    if ids.dtype.kind in "iuf":  # nan fails every compare, inf the range
        good = (ids >= 0) & (ids < n_classes) & (ids == np.floor(ids))
    else:  # an object array, as Python ints past int64 make, holds a class only as an int
        good = np.array([type(v) is int and 0 <= v < n_classes for v in ids.flat], dtype=bool).reshape(ids.shape)
    if good.all():
        return int(ids) if ids.ndim == 0 else ids.astype(np.int64)
    where = tuple(int(i) for i in np.argwhere(~good)[0])
    at = f" at index {where}" if where else ""
    raise ValueError(f"class id {ids.item(where)!r}{at} is not an integer in [0, {n_classes})")


def class_distance_many(
    grid: ClassGrid, xy, class_id, cells=None, out=None, scratch=None, reach: float = math.inf
) -> np.ndarray:
    """Lattice distances to the nearest class_id cell for query points (2, M),
    read from the grid's squared offsets for reach through their distance
    table: inf for a point whose distance exceeds reach, exact otherwise.

    class_id is one class for every point or an array of per-point classes
    that broadcasts against the points. A class absent from the grid is at
    distance inf; so are points outside the grid (callers treat them as
    off-map before this). cells and out as for elevation_at_many; scratch
    as for class_offsets_many.
    """
    f = grid.squared_offsets(reach)
    return f.distances.take(class_offsets_many(grid, xy, class_id, f, cells, scratch), out=out, mode="clip")


def class_offsets_many(grid: ClassGrid, xy, class_id, offsets: SquaredOffsets, cells=None, scratch=None):
    """The squared offsets to the nearest class_id cell for query points (2,
    M), read from offsets, the grid's SquaredOffsets; class_id as for
    class_distance_many, each checked by check_class_ids. scratch, an
    int64 array of the points' shape, holds the flat index into the
    offsets."""
    class_id = check_class_ids(class_id, grid.n_classes)
    field_start = np.multiply(class_id, grid._padded.size, dtype=np.int64)
    index = np.add(field_start, _cells(grid, xy, cells), out=scratch)
    return offsets.offsets.take(index, mode="clip")


def cloud_distances(cloud: PointCloudMap, points, max_distance: float = np.inf) -> np.ndarray:
    """Nearest-neighbour distances for query points (3, ...), on one thread:
    on the wall room's cloud the kd-tree's threads were slower at every
    query size tried, from 10 points (several times the query) to 16,384,
    and a distance field's fill, about one a step, queries a few nodes to a
    few thousand.

    With max_distance the kd-tree search stops there: a point with no map point
    nearer than max_distance gets inf, and every other point gets the same
    distance as the unbounded search. The default is the exact, unbounded
    query. A caller that scores every distance beyond some reach the same
    (the cloud channel's floor) can pass the reach and lose nothing, provided
    its score does not increase with distance.
    """
    points = np.moveaxis(np.asarray(points, dtype=float), 0, -1)
    dist, _ = cloud.kd_tree().query(points, distance_upper_bound=max_distance)
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


# each grid file's header columns after its tag and the version 1, with their parsers
_LATTICE = {"n_cols": positive_int, "n_rows": positive_int, "resolution": float, "origin_x": float, "origin_y": float}
_GRID_COLUMNS = {"HMAP": _LATTICE, "CMAP": {**_LATTICE, "n_classes": int}}


def _grid(path, lines, make, column, parse):
    """A grid layer from its file's data lines: the header, then n_rows *
    n_cols values, each parse(text, where, column)."""
    where, header = lines[0]
    tag, *parts = header.split()
    columns = _GRID_COLUMNS[tag]
    if len(parts) != 1 + len(columns) or parts[0] != "1":
        expected = " ".join([tag, "1"] + [f"<{c}>" for c in columns])
        raise ValueError(f"{where}: expected header '{expected}', got {header!r}")
    fields = [parse_field(text, columns[c], where, c) for text, c in zip(parts[1:], columns)]
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
    if isinstance(obj, ElevationGrid):
        tag, rows, fmt = "HMAP", obj.heights, ".17g"
    elif isinstance(obj, ClassGrid):
        tag, rows, fmt = "CMAP", obj.class_ids, "d"
    elif isinstance(obj, PointCloudMap):
        tag, rows, fmt = None, obj.points, ".17g"
    else:
        raise TypeError(f"cannot save object of type {type(obj).__name__} as a map")
    with open(path, "w") as f:
        if tag is not None:
            origin = {"origin_x": obj.origin[0], "origin_y": obj.origin[1]}
            header = (origin[c] if c in origin else getattr(obj, c) for c in _GRID_COLUMNS[tag])
            f.write(" ".join([tag, "1", *(format(v, ".17g") for v in header)]) + "\n")
        for row in rows:
            f.write(" ".join(format(v, fmt) for v in row) + "\n")

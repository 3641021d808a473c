import math
import re
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import distance_transform_edt
from scipy.spatial import cKDTree

from hapticloc.classifier import baseline_train
import hapticloc.maps as maps_module
from hapticloc.maps import (
    GATHER_ROWS,
    UNKNOWN_CLASS,
    ClassGrid,
    ElevationGrid,
    MapFormatError,
    MapSet,
    PointCloudMap,
    check_same_lattice,
    class_distance_many,
    class_offsets_many,
    cloud_distances,
    elevation_at_many,
    class_at_many,
    field_distances,
    load_map,
    padded_cells,
    save_map,
)
from hapticloc.evaluate import default_tiles_experiment
from hapticloc.likelihood import LikelihoodConfig
from hapticloc.sim import N_TERRAIN_CLASSES, CourseSpec, generate_course, synth_force_signal
from per_pose import class_at, elevation_at


def small_elevation():
    h = np.array([[0.0, 0.1, np.nan], [0.3, 0.4, 0.5]])
    return ElevationGrid(0.5, (1.0, 2.0), h)


def distance_fields(grid, reach=math.inf):
    """The grid's padded distance fields for reach, (n_classes, n_rows + 2,
    n_cols + 2), read from its squared offsets through their distance table:
    each cell's distance to the nearest cell of each class where that
    distance is at most reach, inf beyond it, on the border and for a class
    absent from the grid. The default, an unbounded reach, gives the exact
    transform."""
    f = grid.squared_offsets(reach)
    return f.distances.take(f.offsets)


def traced_peak(call):
    """call()'s result, and the peak in bytes that tracemalloc traced while
    it ran, above what was traced when it began."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def fill_every_node(f):
    """Fill every node of the distance field f: one fill of every brick row."""
    f.fill(np.arange(len(f.keys)))


def kd_tree_bricks(f, cloud, rows):
    """The nodes of the bricks of rows as the kd-tree fills them (len(rows),
    729): each node's distance to the nearest point of cloud, found by
    cKDTree and stopped at the cap, capped and rounded to the quantum, plus
    one; the oracle of DistanceField.fill."""
    span = (f.high - f.low + 1.0).astype(np.int64)
    brick = np.column_stack(np.unravel_index(f.keys[rows], span)) + f.low
    nodes = (8 * brick[:, None, :] + np.indices((9, 9, 9)).reshape(3, -1).T) * f.spacing
    d = cKDTree(cloud.points).query(nodes.reshape(-1, 3), distance_upper_bound=f.cap)[0]
    return (np.rint(np.minimum(d, f.cap) / f.quantum) + 1.0).astype(np.uint8).reshape(len(rows), -1)


def random_class_grid(rng, rows, cols, n_classes=8):
    ids = rng.integers(0, n_classes + 1, size=(rows, cols)).astype(np.uint8)
    ids[ids == n_classes] = UNKNOWN_CLASS  # sprinkle unknowns
    return ClassGrid(0.05, (rng.uniform(-1, 1), rng.uniform(-1, 1)), ids, n_classes)


# elevation lookups: containing cell, no interpolation


def test_elevation_containing_cell():
    g = small_elevation()
    assert elevation_at(g, (1.01, 2.01)) == 0.0
    assert elevation_at(g, (1.49, 2.49)) == 0.0  # anywhere inside cell 0
    assert elevation_at(g, (1.5, 2.0)) == 0.1  # boundary belongs to the next cell
    assert elevation_at(g, (1.2, 2.7)) == 0.3
    assert elevation_at(g, (2.2, 2.8)) == 0.5


def test_elevation_outside_and_nodata_are_nan():
    g = small_elevation()
    assert np.isnan(elevation_at(g, (0.99, 2.1)))
    assert np.isnan(elevation_at(g, (1.1, 3.01)))
    assert np.isnan(elevation_at(g, (2.6, 2.1)))  # nodata cell
    many = elevation_at_many(g, [(0.0, 1.01), (0.0, 2.01)])
    assert np.isnan(many[0]) and many[1] == 0.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(0.5, 3.5), st.floats(1.5, 3.5)), min_size=1, max_size=20))
def test_elevation_many_matches_scalar(points):
    g = small_elevation()
    many = elevation_at_many(g, np.array(points).T)
    for p, v in zip(points, many):
        s = elevation_at(g, p)
        assert (np.isnan(v) and np.isnan(s)) or v == s


def masked_lookups(grid, ids, xy):
    """Heights, class ids and class-0 distances through an inside mask, as the
    lookups read them before the padded layers: the oracle for the border."""
    ix = np.floor((xy[0] - grid.origin[0]) / grid.resolution)
    iy = np.floor((xy[1] - grid.origin[1]) / grid.resolution)
    inside = (ix >= 0) & (ix < grid.n_cols) & (iy >= 0) & (iy < grid.n_rows)
    r, c = np.where(inside, iy, 0).astype(int), np.where(inside, ix, 0).astype(int)
    heights = np.where(inside, grid.heights[r, c], np.nan)
    classes = np.where(inside, ids.class_ids[r, c], UNKNOWN_CLASS)
    return heights, classes, np.where(inside, distance_fields(ids)[0, 1:-1, 1:-1][r, c], np.inf)


coords = st.one_of(st.floats(-2.0, 5.0), st.sampled_from([np.nan, np.inf, -np.inf, 1e300, -1e300, 2.0**63]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coords, coords), min_size=1, max_size=30))
def test_padded_lookups_match_an_inside_mask(points):
    # off the lattice, non-finite or past int64: every such point reads the border
    g = small_elevation()
    ids = ClassGrid(g.resolution, g.origin, np.array([[0, 1, 255], [2, 0, 1]]), 3)
    xy = np.array(points, dtype=float).T
    cells = padded_cells(g, xy)
    assert np.array_equal(cells, padded_cells(ids, xy))
    heights, classes, dist = masked_lookups(g, ids, xy)
    assert np.array_equal(elevation_at_many(g, xy, cells=cells), heights, equal_nan=True)
    assert np.array_equal(elevation_at_many(g, xy), heights, equal_nan=True)
    assert np.array_equal(class_at_many(ids, xy), classes)
    assert np.array_equal(class_distance_many(ids, xy, 0, cells=cells), dist)


def per_axis_cells(grid, xy):
    """padded_cells one axis at a time, each index clamped to the border
    and shifted by one, then row * (n_cols + 2) + col: the oracle of the
    passes that take both axes."""
    xy = np.asarray(xy, dtype=float)
    col, row = np.empty(xy.shape)
    for axis, coord, origin, n in (
        (col, xy[0], grid.origin[0], grid.n_cols),
        (row, xy[1], grid.origin[1], grid.n_rows),
    ):
        np.subtract(coord, origin, out=axis)
        np.divide(axis, grid.resolution, out=axis)
        np.floor(axis, out=axis)
        np.fmax(axis, -1.0, out=axis)
        np.fmin(axis, n, out=axis)
        np.add(axis, 1.0, out=axis)
    np.multiply(row, grid.n_cols + 2, out=row)
    np.add(row, col, out=row)
    return row.astype(np.int64)


@settings(max_examples=100, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 50), st.integers(1, 50)),
    resolution=st.sampled_from([0.01, 0.05, 0.37, 2.5]),
    origin=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
    points=st.lists(st.tuples(coords, coords), min_size=1, max_size=40),
    seed=st.integers(0, 2**32 - 1),
)
def test_padded_cells_match_the_per_axis_form_bit_for_bit(shape, resolution, origin, points, seed):
    # off-lattice, nan, inf and past-int64 points, and random ones off the
    # lattice's nodes, in any leading shape, into new arrays or given ones
    g = ElevationGrid(resolution, origin, np.zeros(shape))
    rng = np.random.default_rng(seed)
    span = resolution * np.array([[shape[1]], [shape[0]]])
    xy = np.concatenate([np.array(points, dtype=float).T, g.origin[:, None] + rng.uniform(-0.2, 1.2, (2, 60)) * span],
                        axis=1)
    want = per_axis_cells(g, xy)
    assert np.array_equal(padded_cells(g, xy), want)
    rows = np.stack([xy, xy[:, ::-1]], axis=1)
    out, scratch = np.empty(rows.shape[1:], dtype=np.int64), np.full(rows.shape, np.nan)
    assert padded_cells(g, rows, out=out, scratch=scratch) is out
    assert np.array_equal(out, [want, want[::-1]])


# cell edges of small_elevation's lattice (origin (1, 2), 0.5 m cells), and
# the floats just below them
edges = st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0, 3.5]).flatmap(
    lambda e: st.sampled_from([e, np.nextafter(e, -np.inf), -0.0])
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.one_of(coords, edges), st.one_of(coords, edges)), min_size=1, max_size=20))
def test_scalar_lookups_match_the_batched_ones_bit_for_bit(points):
    # elevation_at and class_at take one point in plain floats: the same
    # cells as padded_cells, off-lattice, nan and inf points on the border
    g = small_elevation()
    ids = ClassGrid(g.resolution, g.origin, np.array([[0, 1, 255], [2, 0, 1]]), 3)
    xy = np.array(points, dtype=float).T
    for p, h, c in zip(points, elevation_at_many(g, xy), class_at_many(ids, xy)):
        assert np.float64(elevation_at(g, p)).view(np.uint64) == h.view(np.uint64), p
        assert class_at(ids, p) == c, p
        assert class_at(ids, np.array(p)) == c and np.array_equal(elevation_at(g, np.array(p)), h, equal_nan=True)


def test_layer_arrays_are_views_of_the_padded_layers():
    g = small_elevation()
    ids = ClassGrid(g.resolution, g.origin, np.array([[0, 1, 255], [2, 0, 1]]), 3)
    for layer, padded in ((g.heights, g._padded), (ids.class_ids, ids._padded)):
        assert np.shares_memory(layer, padded)
        assert np.array_equal(padded[1:-1, 1:-1], layer, equal_nan=True)
    assert np.isnan(g._padded[0]).all() and np.isnan(g._padded[:, -1]).all()
    assert (ids._padded[0] == UNKNOWN_CLASS).all() and (ids._padded[:, -1] == UNKNOWN_CLASS).all()


def test_a_frozen_grid_rejects_writes():
    # every grid is read-only from construction: its heights, the padded
    # array they view, and the origin of its lattice
    g = small_elevation()
    for a in (g.heights, g._padded, g.origin):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 7.0
    assert elevation_at(g, (1.01, 2.01)) == 0.0


def test_a_map_set_rejects_a_new_layer():
    # a replaced layer would skip the lattice check the set made when built
    g = small_elevation()
    ms = MapSet(g, class_grid=ClassGrid(g.resolution, g.origin, np.zeros((2, 3), dtype=int), 3))
    other = ClassGrid(g.resolution, g.origin, np.zeros((5, 5), dtype=int), 3)
    for name, layer in (("elevation", g), ("class_grid", other), ("cloud", None)):
        with pytest.raises(FrozenInstanceError):
            setattr(ms, name, layer)
    assert ms.class_grid.n_rows == 2


def test_a_layer_rejects_a_new_setting():
    # a rebound setting would skip the checks the layer made when built: a
    # negative resolution would read nan on the map, and a smaller class
    # count would build too few class offsets
    g = small_elevation()
    ids = ClassGrid(g.resolution, g.origin, np.zeros((2, 3), dtype=int), 3)
    cloud = PointCloudMap(np.zeros((1, 3)))
    for layer, name, value in (
        (g, "resolution", -1.0),
        (g, "origin", (0.0, 0.0)),
        (g, "heights", np.ones((2, 3))),
        (ids, "resolution", -1.0),
        (ids, "origin", (0.0, 0.0)),
        (ids, "class_ids", np.ones((2, 3), dtype=np.uint8)),
        (ids, "n_classes", 1),
        (cloud, "points", np.ones((1, 3))),
    ):
        with pytest.raises(FrozenInstanceError):
            setattr(layer, name, value)
    assert elevation_at_many(g, [[1.01], [2.01]]).tolist() == [0.0]
    assert ids.squared_offsets().offsets.shape == (3, 4, 5)
    assert cloud_distances(cloud, np.array([[0.0], [0.0], [2.0]])).tolist() == [2.0]


def cell_center(grid, ix, iy):
    return grid.origin + (np.array([ix, iy]) + 0.5) * grid.resolution


def test_class_at_unknown_off_map():
    rng = np.random.default_rng(0)
    g = random_class_grid(rng, 6, 7)
    assert class_at(g, (g.origin[0] - 1.0, g.origin[1])) == UNKNOWN_CLASS
    ix, iy = 3, 2
    assert class_at(g, cell_center(g, ix, iy)) == g.class_ids[iy, ix]


# distance fields vs exhaustive scan


def exhaustive_class_distance(grid, xy, class_id):
    """Scan every matching cell; lattice distance between cell centers."""
    ix = int(np.floor((xy[0] - grid.origin[0]) / grid.resolution))
    iy = int(np.floor((xy[1] - grid.origin[1]) / grid.resolution))
    rows, cols = np.nonzero(grid.class_ids == class_id)
    if len(rows) == 0:
        return np.inf
    d2 = (rows - iy) ** 2 + (cols - ix) ** 2
    return grid.resolution * np.sqrt(float(d2.min()))


def test_class_distance_matches_exhaustive_scan():
    rng = np.random.default_rng(1)
    for _ in range(5):
        g = random_class_grid(rng, rng.integers(4, 30), rng.integers(4, 30))
        pts = np.column_stack(
            [
                rng.uniform(g.origin[0], g.origin[0] + g.n_cols * g.resolution - 1e-9, 40),
                rng.uniform(g.origin[1], g.origin[1] + g.n_rows * g.resolution - 1e-9, 40),
            ]
        )
        for c in range(g.n_classes):
            got = class_distance_many(g, pts.T, c)
            want = np.array([exhaustive_class_distance(g, p, c) for p in pts])
            assert np.array_equal(got, want)


def index_distance_fields(ids, n_classes, resolution):
    """The padded fields worked out from the transform's nearest-cell indices."""
    rows, cols = ids.shape
    dist = np.full((n_classes, rows + 2, cols + 2), np.inf)
    row_idx, col_idx = np.indices((rows, cols))
    for c in range(n_classes):
        mask = ids == c
        if not mask.any():
            continue
        _, (nr, nc) = distance_transform_edt(~mask, return_indices=True)
        d2 = (nr - row_idx).astype(np.int64) ** 2 + (nc - col_idx).astype(np.int64) ** 2
        dist[c, 1:-1, 1:-1] = resolution * np.sqrt(d2.astype(float))
    return dist


@st.composite
def class_maps(draw):
    """(ids, n_classes): a random map over some of the classes, with unlabeled cells."""
    n_classes = draw(st.integers(1, 6))
    present = draw(st.lists(st.integers(0, n_classes - 1), max_size=n_classes, unique=True))
    values = np.array(present + [UNKNOWN_CLASS] * draw(st.integers(0 if present else 1, 2)), dtype=np.uint8)
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    return rng.choice(values, size=shape), n_classes


@settings(max_examples=150, deadline=None)
@given(class_maps(), st.sampled_from([0.01, 0.05, 0.1, 0.37, 2.5]))
def test_distance_fields_match_the_index_fields_bit_for_bit(class_map, resolution):
    # scipy's distances are the root of the same summed integer offsets
    ids, n_classes = class_map
    g = ClassGrid(resolution, (0.0, 0.0), ids, n_classes)
    want = index_distance_fields(ids, n_classes, resolution)
    assert np.array_equal(distance_fields(g).view(np.uint64), want.view(np.uint64))


def edt_fields(ids, n_classes, resolution):
    """The padded fields from scipy's exact transform, as the class layer
    built them with scipy: the oracle of the numpy transform."""
    fields = np.full((n_classes, ids.shape[0] + 2, ids.shape[1] + 2), np.inf)
    for c in range(n_classes):
        mask = ids == c
        if mask.any():
            np.multiply(resolution, distance_transform_edt(~mask), out=fields[c, 1:-1, 1:-1])
    return fields


def assert_cut_at(got, want, reach):
    """got holds want bit for bit where want is within reach, and inf beyond it."""
    within = want <= reach
    assert np.array_equal(got[within].view(np.uint64), want[within].view(np.uint64))
    assert np.all(got[~within] == np.inf)


def sparse_ids(shape, seed, n_classes=3, density=0.002):
    """A map that is unlabeled but for a few cells of each class, so that
    distances run long: over a long enough lattice or reach the transform
    keeps int64 squares."""
    rng = np.random.default_rng(seed)
    ids = np.full(shape, UNKNOWN_CLASS, dtype=np.uint8)
    cells = rng.random(shape) < density
    ids[cells] = rng.integers(0, n_classes, cells.sum())
    ids.flat[0] = 0
    return ids


@pytest.mark.parametrize(
    "ids, resolution, reach",
    [
        (np.array([[0, 255, 1, 1, 255, 255, 0, 255]], dtype=np.uint8), 0.1, 0.25),  # 1 x N
        (np.array([[0, 255, 1, 1, 255, 255, 0, 255]], dtype=np.uint8).T, 0.1, 0.25),  # N x 1
        (np.array([[1]], dtype=np.uint8), 0.05, 0.15),  # a single cell
        (np.full((3, 4), UNKNOWN_CLASS, dtype=np.uint8), 0.05, math.inf),  # every cell unknown
        (np.array([[0, 1, 1], [255, 1, 0]], dtype=np.uint8), 0.1, 0.099),  # a reach below one cell
        (np.array([[0, 1, 1], [255, 1, 0]], dtype=np.uint8), 0.1, 0.0),
        (np.array([[0, 1, 1], [255, 1, 0]], dtype=np.uint8), 0.1, 0.1),  # exactly one cell
        # exactly a lattice distance, sqrt(13) cells, where (reach / resolution)**2 is below 13
        (np.pad([[0]], ((0, 4), (0, 4)), constant_values=UNKNOWN_CLASS).astype(np.uint8), 0.07, 0.07 * math.sqrt(13)),
        (sparse_ids((1, 300), 1), 0.01, math.inf),  # long rows: int64 squares
        (sparse_ids((300, 1), 2), 0.01, 2.5),  # a reach of 250 cells: int64 squares
        (sparse_ids((120, 90), 3), 0.02, 0.3),  # a reach of 15 cells: uint16 squares
        (sparse_ids((200, 260), 4), 0.05, math.inf),
    ],
)
def test_distance_fields_at_a_reach_match_the_exact_transform(ids, resolution, reach):
    g = ClassGrid(resolution, (0.0, 0.0), ids, 3)
    offsets = g.squared_offsets(reach)
    got = distance_fields(g, reach)
    assert g.squared_offsets(reach) is offsets
    assert_cut_at(got, edt_fields(ids, 3, resolution), reach)


UNSIGNED = (np.uint8, np.uint16, np.uint32, np.uint64)


@settings(max_examples=100, deadline=None)
@given(
    ids=st.tuples(st.integers(1, 3), st.integers(1, 400)).flatmap(
        lambda shape: st.builds(lambda seed: sparse_ids(shape, seed, density=0.05), st.integers(0, 2**32 - 1))
    ),
    transpose=st.booleans(),
    resolution=st.sampled_from([0.01, 0.05, 0.37]),
    reach=st.one_of(st.floats(0.0, 5.0), st.just(math.inf)),
)
def test_squared_offsets_take_the_smallest_unsigned_dtype_that_holds_their_cap(ids, transpose, resolution, reach):
    # long thin grids reach every dtype up to uint32 with an unbounded reach
    ids = ids.T if transpose else ids
    g = ClassGrid(resolution, (0.0, 0.0), ids, 3)
    f = g.squared_offsets(reach)
    cap, border = f.k_max + 1, f.k_max + 2
    assert f.offsets.dtype in UNSIGNED and f.offsets.shape == (3, ids.shape[0] + 2, ids.shape[1] + 2)
    assert np.iinfo(f.offsets.dtype).max >= border
    assert all(np.iinfo(d).max < border for d in UNSIGNED if np.dtype(d).itemsize < f.offsets.itemsize)
    # the cap beyond the reach and the border code on the border, which the
    # distance table reads as inf
    inner = f.offsets[:, 1:-1, 1:-1]
    assert inner.max() <= cap and (f.offsets[:, 0] == border).all() and (f.offsets[:, :, -1] == border).all()
    assert (f.offsets[:, -1] == border).all() and (f.offsets[:, :, 0] == border).all()
    assert f.distances.shape == (border + 1,) and (f.distances[cap:] == np.inf).all()
    # k_max: the largest offset within the reach, or the lattice's largest
    k_lattice = (ids.shape[0] - 1) ** 2 + (ids.shape[1] - 1) ** 2
    assert f.k_max <= k_lattice and resolution * math.sqrt(f.k_max) <= reach
    assert f.k_max == k_lattice or resolution * math.sqrt(cap) > reach


@pytest.mark.parametrize("k_max, dtype", [(253, np.uint8), (254, np.uint16)])
def test_squared_offsets_widen_when_the_border_code_passes_255(k_max, dtype):
    # the border code k_max + 2 sets the dtype: 255 still fits a byte, 256 not
    g = ClassGrid(1.0, (0.0, 0.0), np.zeros((20, 20), dtype=np.uint8), 1)
    f = g.squared_offsets(math.sqrt(k_max + 0.5))
    assert f.k_max == k_max and f.offsets.dtype == dtype
    assert f.offsets[0, 0, 0] == k_max + 2 and f.distances[k_max + 2] == np.inf


@pytest.mark.parametrize(
    "n_rows, r",
    [(100, 26), (100, 27), (32740, 26), (32740, 27)],
    ids=["int8", "int16", "int16-edge", "int32"],
)
def test_the_column_pass_holds_its_largest_value_at_each_width(n_rows, r):
    # the column pass runs in the narrowest signed type that holds
    # n_rows + cap, cap = r + 1: 127 and 32767 sit on a type's edge, 128
    # and 32768 one past it. One class cell at each end of a column.
    mask = np.zeros((n_rows, 1), dtype=bool)
    mask[[0, -1]] = True
    k_max = r * r + r  # isqrt(k_max) == r
    got = maps_module._nearest_squares(mask, k_max)
    d2 = np.minimum(np.arange(n_rows), np.arange(n_rows)[::-1]).astype(np.int64) ** 2
    inside = d2 <= k_max
    assert np.array_equal(got[inside, 0], d2[inside]) and (got[~inside, 0] > k_max).all()


def test_a_1_cm_tiles_grid_s_class_transform_holds_few_bytes_a_cell():
    # the column pass runs in int16 and each pass frees what it has read, as
    # squared_offsets frees each class's offsets once it has copied them.
    # Beyond the offsets and the table it keeps, the transform at the tiles
    # experiment's class reach peaks at 7.2 traced bytes a cell of the 1 cm
    # grid, against 17.2 with an int32 column pass that held every
    # intermediate; the bound leaves 25% over 7.2
    grid = generate_course(CourseSpec("class-tiles", resolution=0.01, seed=1)).class_grid
    reach = default_tiles_experiment().likelihood.class_reach
    f, peak = traced_peak(lambda: grid.squared_offsets(reach))
    transient = peak - f.offsets.nbytes - f.distances.nbytes
    assert transient / grid.class_ids.size < 9.0, f"{transient / grid.class_ids.size:.2f} bytes a cell"


def test_distance_fields_keep_the_last_reach_and_reject_a_bad_one():
    ids = np.array([[0, 1, 1, 1, 1, 0]], dtype=np.uint8)
    g = ClassGrid(0.1, (0.0, 0.0), ids, 2)
    near = g.squared_offsets(0.15)
    assert distance_fields(g, 0.15)[0, 1, 3] == np.inf and distance_fields(g)[0, 1, 3] == 0.2
    assert g.squared_offsets(0.15) is not near
    assert class_distance_many(g, [[0.25], [0.05]], 0, reach=0.15)[0] == np.inf
    assert class_distance_many(g, [[0.25], [0.05]], 0)[0] == 0.2
    for reach in (-0.1, math.nan):
        with pytest.raises(ValueError, match="reach must be non-negative"):
            distance_fields(g, reach)


def test_class_distance_per_point_classes():
    rng = np.random.default_rng(3)
    g = random_class_grid(rng, 12, 9)
    pts = rng.uniform(-1.0, 1.0, (50, 2))
    classes = rng.integers(0, g.n_classes, 50)
    got = class_distance_many(g, pts.T, classes)
    want = [class_distance_many(g, p.reshape(2, 1), c)[0] for p, c in zip(pts, classes)]
    assert np.array_equal(got, want)
    classes[7] = g.n_classes
    n = g.n_classes
    with pytest.raises(ValueError, match=rf"class id {n} at index \(7,\) is not an integer in \[0, {n}\)"):
        class_distance_many(g, pts.T, classes)


def test_class_distance_outside_grid_is_inf():
    rng = np.random.default_rng(11)
    g = random_class_grid(rng, 5, 5)
    out = class_distance_many(g, [[g.origin[0] - 1.0], [g.origin[1]]], 0)
    assert out[0] == np.inf


def test_class_distance_lattice_absent_and_bad_class():
    ids = np.zeros((4, 5), dtype=np.uint8)
    ids[2, 3] = 1
    g = ClassGrid(0.1, (0.0, 0.0), ids, 3)  # class 2 declared but absent
    got = class_distance_many(g, [[0.05], [0.05]], [1])
    assert got[0] == exhaustive_class_distance(g, (0.05, 0.05), 1) == 0.1 * np.sqrt(3**2 + 2**2)
    got = class_distance_many(g, [[0.05], [0.05]], [2])
    assert got[0] == exhaustive_class_distance(g, (0.05, 0.05), 2) == np.inf
    with pytest.raises(ValueError, match=r"class id 9 at index \(0,\) is not an integer in \[0, 3\)"):
        class_distance_many(g, [[0.05], [0.05]], [9])


def test_class_grid_rejects_bad_ids():
    ids = np.full((3, 3), 7, dtype=np.uint8)
    with pytest.raises(ValueError):
        ClassGrid(0.1, (0, 0), ids, 4)  # id 7 outside [0, 4) and not UNKNOWN


@pytest.mark.parametrize("bad", [-1, 263, 300, 1.7, np.nan], ids=["minus-1", "263", "300", "1.7", "nan"])
def test_class_grid_checks_each_id_as_given_before_it_casts_it(bad):
    # a cast to uint8 first made -1 the unknown sentinel and 263 class 7,
    # silently, reported 300 as 44, and truncated 1.7 to class 1
    ids = np.array([[0, 1, 255], [2, bad, 7]])
    with pytest.raises(ValueError) as err:
        ClassGrid(0.1, (0, 0), ids, 8)
    assert str(err.value) == f"class id {ids[1, 1].item()!r} at index (1, 1) is not an integer in [0, 8)"
    # the ids of every other cell, as ints or integral floats, are accepted
    ids[1, 1] = 3
    for given in (ids, ids.astype(float)):
        g = ClassGrid(0.1, (0, 0), given, 8)
        assert g.class_ids.dtype == np.uint8 and g.class_ids.tolist() == [[0, 1, 255], [2, 3, 7]]


@pytest.mark.parametrize("bad", [1.7, -0.2, 2.99, 1e20], ids=["1.7", "minus-0.2", "2.99", "1e20"])
def test_a_lookup_checks_each_class_id_as_given(bad):
    # an int64 cast first answered 1.7 as class 1, -0.2 as class 0 and 2.99
    # as class 2, and let 1e20 escape as an OverflowError
    g = ClassGrid(0.1, (0, 0), [[0, 1], [2, 0]], 3)
    xy = [[0.05], [0.05]]
    for class_id, at in ((bad, ""), ([bad], " at index (0,)"), (np.array([[0.0], [bad]]), " at index (1, 0)")):
        with pytest.raises(ValueError) as err:
            class_distance_many(g, xy, class_id)
        assert str(err.value) == f"class id {bad!r}{at} is not an integer in [0, 3)"
    # integral floats keep their class
    assert class_distance_many(g, xy, [2.0])[0] == class_distance_many(g, xy, [2])[0] == 0.1


def _lookup_class(class_id, as_column):
    # the class the offsets of a 1 x N row of cells, class c in column c,
    # answer for class_id at column 0: its squared offset is c * c
    grid = ClassGrid(1.0, (0.0, 0.0), [list(range(N_TERRAIN_CLASSES))], N_TERRAIN_CLASSES)
    k = class_offsets_many(grid, [[0.5], [0.5]], np.array([[class_id]]) if as_column else class_id,
                           grid.squared_offsets())
    return math.isqrt(int(np.ravel(k)[0]))


_SIGNAL = synth_force_signal(0, 5, np.random.default_rng(0))

# the class id rule's four entry points, each answering the class it reads
# class_id as; the unknown sentinel, which only a map cell may hold, is not drawn
CLASS_ID_ENTRIES = {
    "ClassGrid": lambda c: int(ClassGrid(1.0, (0.0, 0.0), np.array([[c]]), N_TERRAIN_CLASSES).class_ids[0, 0]),
    "lookup": lambda c: _lookup_class(c, as_column=False),
    "lookup-column": lambda c: _lookup_class(c, as_column=True),
    "synth_force_signal": lambda c: next(
        k for k in range(N_TERRAIN_CLASSES)
        if np.array_equal(synth_force_signal(c, 5, np.random.default_rng(0)).samples,
                          synth_force_signal(k, 5, np.random.default_rng(0)).samples)
    ),
    # one signal of one label: training raises that label's bias above the rest
    "baseline_train": lambda c: int(np.argmax(baseline_train([_SIGNAL], [c], N_TERRAIN_CLASSES).bias)),
}

class_id_values = st.one_of(
    st.integers(-3, N_TERRAIN_CLASSES + 3),
    st.integers(-(2**70), 2**70),
    st.integers(-3, N_TERRAIN_CLASSES + 3).map(float),
    st.integers(0, 254).map(np.uint8),
    st.integers(-3, N_TERRAIN_CLASSES + 3).map(np.int64),
    st.floats(-3.0, N_TERRAIN_CLASSES + 3.0),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, float(N_TERRAIN_CLASSES), 2**63, 2**64]),
).filter(lambda c: c != UNKNOWN_CLASS)


@settings(max_examples=150, deadline=None)
@given(class_id_values)
def test_every_entry_point_takes_the_same_class_ids_as_the_same_classes(class_id):
    answers = {}
    for name, entry in CLASS_ID_ENTRIES.items():
        try:
            answers[name] = entry(class_id)
        except ValueError as err:
            value = class_id.item() if isinstance(class_id, np.generic) else class_id
            assert str(err).startswith(f"class id {value!r}")
            assert str(err).endswith(f" is not an integer in [0, {N_TERRAIN_CLASSES})")
            answers[name] = None
    # every entry point accepts the integral values in [0, N), as ints or
    # floats, each as its own class, and refuses every other value
    integral = not isinstance(class_id, float) or class_id.is_integer()
    want = int(class_id) if integral and 0 <= class_id < N_TERRAIN_CLASSES else None
    assert answers == dict.fromkeys(CLASS_ID_ENTRIES, want)


def test_class_ids_and_distance_fields_are_read_only():
    # the squared offsets the distance fields are read from, built on the
    # first read, describe the validated ids: a write into the ids, the
    # offsets or their distance table would leave them disagreeing
    ids = np.array([[0, 1], [UNKNOWN_CLASS, 0]], dtype=np.uint8)
    g = ClassGrid(0.1, (0.0, 0.0), ids, 3)
    with pytest.raises(ValueError, match="read-only"):
        g.class_ids[0, 0] = 1
    ids[0, 0] = 1  # the grid holds a copy
    assert class_at(g, (0.05, 0.05)) == 0
    offsets = g.squared_offsets()
    assert g.squared_offsets() is offsets
    with pytest.raises(ValueError, match="read-only"):
        offsets.offsets[0, 1, 1] = 5
    with pytest.raises(ValueError, match="read-only"):
        offsets.distances[0] = 5.0
    assert class_distance_many(g, [[0.05], [0.05]], 0)[0] == 0.0


# kd queries vs exhaustive scan


def exhaustive_distance(points, q):
    return float(np.linalg.norm(points - np.asarray(q, dtype=float), axis=1).min())


def test_cloud_distances_vectorized():
    rng = np.random.default_rng(3)
    cloud = PointCloudMap(rng.normal(size=(50, 3)))
    qs = rng.normal(size=(10, 3))
    got = cloud_distances(cloud, qs.T)
    want = [exhaustive_distance(cloud.points, q) for q in qs]
    assert np.allclose(got, want, rtol=0, atol=0)


def test_cloud_distances_bounded_search():
    rng = np.random.default_rng(4)
    cloud = PointCloudMap(rng.uniform(-1, 1, size=(200, 3)))
    qs = rng.uniform(-1.5, 1.5, size=(300, 3))
    want = np.array([exhaustive_distance(cloud.points, q) for q in qs])
    bound = float(np.median(want))
    got = cloud_distances(cloud, qs.T.reshape(3, 30, 10), bound).ravel()
    inside = want < bound
    assert 0 < inside.sum() < len(qs)
    assert np.array_equal(got[inside], want[inside])
    assert np.all(got[~inside] == np.inf)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_cloud=st.integers(1, 30),
    spacing=st.floats(1e-3, 0.3),
    reach_cells=st.floats(0.5, 12.0),
    dense=st.booleans(),
)
def test_field_nodes_hold_their_quantized_capped_distance(seed, n_cloud, spacing, reach_cells, dense):
    # every brick with a node within reach plus half a cell diagonal is
    # kept, and only bricks that near a point's own; a gather fills exactly
    # the bricks its points fall in, and every node of a filled brick is
    # its exact nearest distance, capped and rounded to the quantum, plus
    # one, as the kd-tree finds it; the last brick, which stands for every
    # other one, is all cap. A reach past 6.3 cells puts the cap beyond a
    # brick side, so a brick reads the points of two rings of bricks or
    # more; a dense cloud puts more points around a brick than one chunk of
    # the fill, on a lattice of quarter cells, so that many share a z
    reach = reach_cells * spacing
    rng = np.random.default_rng(seed)
    if dense:
        cloud = PointCloudMap(np.round(rng.uniform(-12.0, 12.0, (20 * n_cloud, 3))) * (spacing / 4.0))
    else:
        cloud = PointCloudMap(rng.uniform(-20.0, 20.0, (n_cloud, 3)) * spacing)
    f = cloud.distance_field(reach, spacing)
    assert f is cloud.distance_field(reach, spacing)
    assert np.all(np.diff(f.keys) > 0) and not f.bricks[:-1].any()
    near = reach + np.sqrt(3.0) / 2.0 * spacing
    rings = math.ceil(near / (8 * spacing)) + 1
    own = np.floor(cloud.points / (8 * spacing))
    around = np.indices((2 * rings + 1,) * 3).reshape(3, -1).T - rings
    brick = np.unique((own[:, None, :] + around).reshape(-1, 3), axis=0)
    nodes = (8 * brick[:, None, :] + np.indices((9, 9, 9)).reshape(3, -1).T) * spacing
    d = cKDTree(cloud.points).query(nodes.reshape(-1, 3))[0].reshape(len(brick), -1)
    key = (brick - f.low) @ f.weights
    kept = np.isin(key, f.keys)
    assert kept[d.min(axis=1) <= near].all()
    assert np.isin(f.keys, key).all()
    want = kd_tree_bricks(f, cloud, np.arange(len(f.keys)))
    rows = read_rows(f, cloud.points[:3].T)
    field_distances(f, cloud.points[:3].T)
    assert np.array_equal(np.flatnonzero(f.bricks[:-1].any(axis=1)), rows)
    assert np.array_equal(f.bricks[rows], want[rows])
    fill_every_node(f)
    assert np.array_equal(f.bricks[:-1], want)
    assert np.all(f.bricks[-1] == 255)
    # a gather just past a kept brick's own node reads that node's distance
    own_nodes = (np.indices((9, 9, 9)).reshape(3, -1).T < 8).all(axis=1)
    at = nodes[kept][np.argsort(key[kept])][:, own_nodes].reshape(-1, 3) + 1e-6 * spacing
    got = field_distances(f, at.T)
    assert np.allclose(got, (want[:, own_nodes].ravel() - 1.0) * f.quantum, rtol=0.0, atol=1e-3 * f.quantum)


def test_the_wall_room_field_equals_a_kd_tree_fill_in_every_node():
    # all 5,022,810 nodes of the wall room's field at the default sigma_z,
    # each bit for bit what the kd-tree's bounded query gives
    cfg = LikelihoodConfig()
    cloud = PointCloudMap(generate_course(CourseSpec("wall-room")).cloud.points)
    f = cloud.distance_field(cfg.floor_reach, cfg.field_spacing)
    fill_every_node(f)
    assert f.bricks[:-1].size == 5_022_810
    for start in range(0, len(f.keys), 512):
        rows = np.arange(start, min(start + 512, len(f.keys)))
        assert np.array_equal(f.bricks[rows], kd_tree_bricks(f, cloud, rows)), start


def test_a_dense_cloud_fills_a_brick_a_chunk_of_points_at_a_time(monkeypatch):
    # 2,000 points in one brick: each fill reads them in chunks of the
    # fill's size, and every node still holds the kd-tree's value
    runs = []
    make = maps_module._runs

    def counted(*args):
        for p in make(*args):
            runs.append(p.shape[1])
            yield p

    monkeypatch.setattr(maps_module, "_runs", counted)
    rng = np.random.default_rng(8)
    cloud = PointCloudMap(rng.uniform(0.001, 0.059, (2000, 3)))
    f = cloud.distance_field(0.03, 0.0075)
    fill_every_node(f)
    chunk = maps_module._FILL_POINTS
    assert max(runs) == chunk and len(runs) >= len(f.keys) * math.ceil(2000 / chunk)
    assert np.array_equal(f.bricks[:-1], kd_tree_bricks(f, cloud, np.arange(len(f.keys))))


def test_field_distances_do_not_depend_on_which_nodes_filled_first():
    rng = np.random.default_rng(3)
    points = rng.uniform(-0.2, 0.2, (50, 3))
    query = (points[rng.integers(0, 50, 400)] + rng.normal(0.0, 0.02, (400, 3))).T
    gathered = PointCloudMap(points).distance_field(0.03, 0.0075)
    filled = PointCloudMap(points).distance_field(0.03, 0.0075)
    fill_every_node(filled)
    # a gather in two halves, which fills as it goes, against one over a
    # full field
    got = np.concatenate([field_distances(gathered, query[:, :200]), field_distances(gathered, query[:, 200:])])
    assert np.array_equal(got, field_distances(filled, query))
    assert np.array_equal(field_distances(gathered, query), got)


def read_rows(f, points):
    """The distinct rows of the kept bricks a gather at points (3, M) reads:
    those of the bricks the points' cells lie in, each cell's eight corners
    in the brick of its low corner."""
    brick = np.floor(np.floor(points.T / f.spacing) / 8)
    inside = ((brick >= f.low) & (brick <= f.high)).all(axis=1)
    row = binary_search_rows(f.keys, ((brick[inside] - f.low) @ f.weights).astype(np.int64))
    return np.unique(row[row < len(f.keys)])


def filled_rows(f):
    """The rows of the field's filled bricks: a filled node holds at least 1."""
    return np.flatnonzero(f.bricks[:-1].all(axis=1))


def counted_fills(monkeypatch):
    """The rows of each DistanceField.fill call from here on."""
    calls = []
    fill = maps_module.DistanceField.fill

    def counted(f, rows):
        calls.append(rows)
        fill(f, rows)

    monkeypatch.setattr(maps_module.DistanceField, "fill", counted)
    return calls


def gather_case(seed, n_cloud=50, n_query=400):
    """(cloud points, query points (3, n_query)) near the cloud."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-0.2, 0.2, (n_cloud, 3))
    return points, (points[rng.integers(0, n_cloud, n_query)] + rng.normal(0.0, 0.02, (n_query, 3))).T


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_cloud=st.integers(1, 30),
    n_centres=st.integers(1, 4),
    n_query=st.integers(1, 400),
    prefill=st.floats(0.0, 1.0),
)
def test_a_gather_reads_what_a_full_field_holds(seed, n_cloud, n_centres, n_query, prefill):
    # whatever was filled before, a gather reads the full field's values bit
    # for bit, fills every brick it reads and no other one; what its
    # scratch held before, and how much longer it is, do not matter
    spacing = 0.0075
    rng = np.random.default_rng(seed)
    points = rng.uniform(-0.1, 0.1, (n_cloud, 3))
    centres = points[rng.integers(0, n_cloud, n_centres)]
    query = (centres[rng.integers(0, n_centres, n_query)] + rng.normal(0.0, 1.5 * spacing, (n_query, 3))).T
    gathered = PointCloudMap(points).distance_field(0.03, spacing)
    full = PointCloudMap(points).distance_field(0.03, spacing)
    fill_every_node(full)
    read = read_rows(gathered, query)
    n_rows = len(gathered.keys)
    gathered.fill(np.concatenate([read, rng.integers(0, n_rows, 5)])[rng.random(len(read) + 5) < prefill])
    filled_before = filled_rows(gathered)
    scratch = rng.uniform(-1e9, 1e9, GATHER_ROWS * n_query + int(rng.integers(0, 100)))
    got = field_distances(gathered, query, scratch=scratch)
    assert np.array_equal(got, field_distances(full, query))
    assert np.array_equal(field_distances(gathered, query, scratch=scratch), got)
    filled = filled_rows(gathered)
    assert np.array_equal(filled, np.union1d(filled_before, read))
    assert not gathered.bricks[np.setdiff1d(np.arange(n_rows), filled)].any()
    assert np.array_equal(gathered.bricks[filled], full.bricks[filled])


def test_a_gather_leaves_none_of_its_corners_unfilled(monkeypatch):
    # a gather fills every brick it reads, so gathering the same points
    # again fills nothing and reads what the first gather read; neither
    # does a gather over a full field
    calls = counted_fills(monkeypatch)
    points, query = gather_case(11)
    f = PointCloudMap(points).distance_field(0.03, 0.0075)
    first = field_distances(f, query)
    assert calls and f.bricks[read_rows(f, query)].all()
    calls.clear()
    assert np.array_equal(field_distances(f, query), first)
    assert calls == []
    full = PointCloudMap(points).distance_field(0.03, 0.0075)
    fill_every_node(full)
    calls.clear()
    assert np.array_equal(field_distances(full, query), first)
    assert calls == []


def test_a_gather_fills_its_unfilled_bricks_with_one_fill(monkeypatch):
    # the bricks whose first node reads 0, over all the points, go to one
    # fill, which fills each of them once, whatever order the bricks were
    # filled in before
    points, query = gather_case(5, n_query=10_000)
    f = PointCloudMap(points).distance_field(0.03, 0.0075)
    full = PointCloudMap(points).distance_field(0.03, 0.0075)
    fill_every_node(full)
    read = read_rows(f, query)
    f.fill(read[::-3])
    unfilled = np.setdiff1d(read, read[::-3])
    assert len(unfilled) > 1
    calls = counted_fills(monkeypatch)
    got = field_distances(f, query)
    assert len(calls) == 1
    assert np.array_equal(np.unique(calls[0]), unfilled)
    assert np.array_equal(filled_rows(f), read)
    assert np.array_equal(got, field_distances(full, query))


def test_field_distances_refuse_an_out_that_does_not_fit_the_points():
    points, query = gather_case(3, n_query=20)
    f = PointCloudMap(points).distance_field(0.03, 0.0075)
    for out in (np.empty(10), np.empty(30), np.empty(20, dtype=np.int64), np.empty((20, 2))[:, 0]):
        with pytest.raises(ValueError, match=r"\(20,\).*" + re.escape(str(out.shape))):
            field_distances(f, query, out=out)
    assert not f.bricks[:-1].any()
    out = np.empty(20)
    assert field_distances(f, query, out=out) is out


def binary_search_rows(keys, query):
    """Each query key's rank among the sorted keys, or len(keys), the
    border row, for a key not among them."""
    rank = np.searchsorted(keys, query)
    found = rank < len(keys)
    found[found] = keys[rank[found]] == query[found]
    return np.where(found, rank, len(keys))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_cloud=st.integers(1, 30),
    spacing=st.floats(1e-3, 0.3),
    spread=st.floats(1.0, 300.0),
)
def test_row_index_holds_the_rows_a_binary_search_finds(seed, n_cloud, spacing, spread):
    # one entry a brick of the box low..high, at the brick's key: the rank
    # of a kept key among the sorted keys, and the last row, all cap, for
    # every other brick, every border brick among them
    rng = np.random.default_rng(seed)
    cloud = PointCloudMap(rng.uniform(-spread, spread, (n_cloud, 3)) * spacing)
    f = cloud.distance_field(4.0 * spacing, spacing)
    span = (f.high - f.low + 1.0).astype(np.int64)
    box = np.arange(span.prod())
    brick = np.stack(np.unravel_index(box, span))
    assert np.array_equal(f.weights @ brick, box)
    assert f.keys.dtype == np.int64 and np.all(np.diff(f.keys) > 0)
    assert np.array_equal(f.rows, binary_search_rows(f.keys, box))
    border = ((brick == 0) | (brick == span[:, None] - 1)).any(axis=0)
    assert border.any() and np.all(f.rows[border] == len(f.keys))


def test_a_cloud_keeps_one_field():
    # and a field builds no kd-tree: it fills its bricks from its own buckets
    cloud = PointCloudMap(np.zeros((1, 3)))
    f = cloud.distance_field(0.03, 0.0075)
    assert cloud._tree is None
    tree = cloud.kd_tree()
    assert cloud.distance_field(0.03, 0.0075) is f
    assert cloud.distance_field(0.04, 0.0075) is not f
    assert cloud.distance_field(0.03, 0.0075) is not f
    assert cloud.kd_tree() is tree


def test_cloud_points_are_read_only():
    # the kd-tree reads the cloud's own array, and a distance field is sorted
    # from it: a write into it would leave them answering for the old points
    # without an error
    rng = np.random.default_rng(5)
    cloud = PointCloudMap(rng.uniform(-10.0, 10.0, (1000, 3)))
    query = np.full((3, 1), -5.0)
    before = cloud_distances(cloud, query)
    with pytest.raises(ValueError, match="read-only"):
        cloud.points[0] = query[:, 0]
    assert np.array_equal(cloud_distances(cloud, query), before)
    assert before[0] == exhaustive_distance(cloud.points, query[:, 0]) > 0.0


# file formats


def test_elevation_round_trip(tmp_path):
    g = small_elevation()
    save_map(g, tmp_path / "a.hmap")
    header = (tmp_path / "a.hmap").read_text().split("\n")[0]
    assert header == f"HMAP 1 {g.n_cols} {g.n_rows} {g.resolution:.17g} {g.origin[0]:.17g} {g.origin[1]:.17g}"
    g2 = load_map(tmp_path / "a.hmap")
    assert g2.resolution == g.resolution
    assert np.array_equal(g2.origin, g.origin)
    assert np.array_equal(g2.heights, g.heights, equal_nan=True)


def test_class_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    g = random_class_grid(rng, 5, 6)
    save_map(g, tmp_path / "a.cmap")
    header = (tmp_path / "a.cmap").read_text().split("\n")[0]
    assert header == f"CMAP 1 {g.n_cols} {g.n_rows} {g.resolution:.17g} {g.origin[0]:.17g} {g.origin[1]:.17g} {g.n_classes}"
    g2 = load_map(tmp_path / "a.cmap")
    assert np.array_equal(g2.class_ids, g.class_ids)
    assert g2.n_classes == g.n_classes


def test_cloud_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    c = PointCloudMap(rng.normal(size=(17, 3)))
    save_map(c, tmp_path / "a.xyz")
    c2 = load_map(tmp_path / "a.xyz")
    assert np.array_equal(c2.points, c.points)


def test_save_map_refuses_what_is_no_layer_before_it_opens_the_file(tmp_path):
    with pytest.raises(TypeError, match="cannot save object of type dict as a map"):
        save_map({}, tmp_path / "a.map")
    assert not (tmp_path / "a.map").exists()


def test_layers_compare_and_hash_by_identity(tmp_path):
    # an eq over array fields would raise on two equal layers
    rng = np.random.default_rng(6)
    layers = {
        "a.hmap": small_elevation(),
        "a.cmap": random_class_grid(rng, 5, 6),
        "a.xyz": PointCloudMap(rng.normal(size=(17, 3))),
    }
    loaded = []
    for name, layer in layers.items():
        save_map(layer, tmp_path / name)
        a, b = load_map(tmp_path / name), load_map(tmp_path / name)
        assert a == a and a != b and hash(a) != hash(b)
        loaded.append(a)
    elevation, grid, cloud = loaded
    maps = MapSet(elevation, cloud=cloud)
    assert maps == maps and maps != MapSet(elevation, cloud=cloud)
    field = cloud.distance_field(0.1, 0.05)
    assert field == field and field != cloud.distance_field(0.2, 0.05)
    assert hash(field) == hash(field)
    assert {elevation, grid, cloud, maps, field} == {elevation, grid, cloud, maps, field}


def test_load_map_bad_magic(tmp_path):
    p = tmp_path / "bad.hmap"
    p.write_text("WHAT 1 2 0 0 0.5\n0 0\n")
    with pytest.raises(MapFormatError, match="bad.hmap"):
        load_map(p)


def test_load_map_wrong_value_count(tmp_path):
    p = tmp_path / "short.hmap"
    p.write_text("HMAP 1 2 2 0.5 0.0 0.0\n0 0 0\n")
    with pytest.raises(MapFormatError, match="short.hmap"):
        load_map(p)


def test_load_map_bad_value_reports_line(tmp_path):
    p = tmp_path / "val.hmap"
    p.write_text("HMAP 1 2 1 0.5 0.0 0.0\n0 zebra\n")
    with pytest.raises(MapFormatError, match=r"val.hmap:2"):
        load_map(p)


def test_check_same_lattice():
    a = ElevationGrid(0.1, (0, 0), np.zeros((3, 3)))
    ids = np.zeros((3, 3), dtype=np.uint8)
    good = ClassGrid(0.1, (0, 0), ids, 2)
    check_same_lattice(a, good)
    shifted = ClassGrid(0.1, (0.05, 0), ids, 2)
    with pytest.raises(ValueError):
        check_same_lattice(a, shifted)
    with pytest.raises(ValueError):
        MapSet(elevation=a, class_grid=shifted)


def test_pointcloud_rejects_nonfinite():
    pts = np.array([[0.0, 0.0, np.nan]])
    with pytest.raises(ValueError):
        PointCloudMap(pts)


# lattice validation: a cell index from a non-finite resolution or origin means nothing


def make_grid(kind, resolution, origin):
    if kind == "elevation":
        return ElevationGrid(resolution, origin, np.zeros((2, 3)))
    return ClassGrid(resolution, origin, np.zeros((2, 3), dtype=np.uint8), 2)


@pytest.mark.parametrize("kind", ["elevation", "class"])
@pytest.mark.parametrize(
    "field, resolution, origin",
    [
        ("resolution", np.inf, (0.0, 0.0)),
        ("resolution", np.nan, (0.0, 0.0)),
        ("resolution", 0.0, (0.0, 0.0)),
        ("origin", 0.1, (np.nan, 0.0)),
        ("origin", 0.1, (0.0, -np.inf)),
    ],
    ids=["inf-resolution", "nan-resolution", "zero-resolution", "nan-origin", "inf-origin"],
)
def test_grids_reject_non_finite_lattice(kind, field, resolution, origin):
    with pytest.raises(ValueError, match=f"grid {field} must be finite"):
        make_grid(kind, resolution, origin)


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_elevation_rejects_infinite_heights_and_keeps_nan_as_no_data(bad):
    h = np.zeros((2, 3))
    h[0, 0] = np.nan
    assert np.isnan(elevation_at(ElevationGrid(0.5, (0.0, 0.0), h), (0.1, 0.1)))
    h[1, 2] = bad
    with pytest.raises(ValueError, match=r"heights must be finite or nan \(no data\), got -?inf at \(row 1, col 2\)"):
        ElevationGrid(0.5, (0.0, 0.0), h)


@pytest.mark.parametrize(
    "text, line, why",
    [
        ("HMAP 1 2 1 inf 0.0 0.0\n0 0\n", 1, "resolution: inf is not finite"),
        ("HMAP 1 2 1 0.5 nan 0.0\n0 0\n", 1, "origin_x: nan is not finite"),
        ("HMAP 1 2 1 0.5 0.0 0.0\n0 -inf\n", 2, "height[1]: -inf is not finite"),
        ("CMAP 1 2 1 inf 0.0 0.0 2\n0 1\n", 1, "resolution: inf is not finite"),
        ("0 0 inf\n", 1, "z: inf is not finite"),
    ],
    ids=["hmap-resolution", "hmap-origin", "hmap-height", "cmap-resolution", "cloud-point"],
)
def test_load_map_rejects_non_finite_geometry_with_its_path(tmp_path, text, line, why):
    p = tmp_path / "odd.map"
    p.write_text(text)
    with pytest.raises(MapFormatError) as err:
        load_map(p)
    assert str(err.value) == f"{p}:{line}: column {why}"

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hapticloc.maps import (
    UNKNOWN_CLASS,
    ClassGrid,
    ElevationGrid,
    MapFormatError,
    MapSet,
    PointCloudMap,
    check_same_lattice,
    class_at,
    class_distance_many,
    cloud_distances,
    elevation_at,
    elevation_at_many,
    class_at_many,
    load_map,
    padded_cells,
    save_map,
)


def small_elevation():
    h = np.array([[0.0, 0.1, np.nan], [0.3, 0.4, 0.5]])
    return ElevationGrid(0.5, (1.0, 2.0), h)


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
    return heights, classes, np.where(inside, ids._dist[0, 1:-1, 1:-1][r, c], np.inf)


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
    assert np.shares_memory(g.heights, g._padded)
    g.heights[0, 0] = 7.0
    assert elevation_at(g, (1.01, 2.01)) == 7.0
    assert np.isnan(g._padded[0]).all() and np.isnan(g._padded[:, -1]).all()


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


def test_class_distance_per_point_classes():
    rng = np.random.default_rng(3)
    g = random_class_grid(rng, 12, 9)
    pts = rng.uniform(-1.0, 1.0, (50, 2))
    classes = rng.integers(0, g.n_classes, 50)
    got = class_distance_many(g, pts.T, classes)
    want = [class_distance_many(g, p.reshape(2, 1), c)[0] for p, c in zip(pts, classes)]
    assert np.array_equal(got, want)
    classes[7] = g.n_classes
    with pytest.raises(ValueError, match=f"class id {g.n_classes} outside"):
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
    with pytest.raises(ValueError, match="class id 9 outside"):
        class_distance_many(g, [[0.05], [0.05]], [9])


def test_class_grid_rejects_bad_ids():
    ids = np.full((3, 3), 7, dtype=np.uint8)
    with pytest.raises(ValueError):
        ClassGrid(0.1, (0, 0), ids, 4)  # id 7 outside [0, 4) and not UNKNOWN


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


# file formats


def test_elevation_round_trip(tmp_path):
    g = small_elevation()
    save_map(g, tmp_path / "a.hmap")
    g2 = load_map(tmp_path / "a.hmap")
    assert g2.resolution == g.resolution
    assert np.array_equal(g2.origin, g.origin)
    assert np.array_equal(g2.heights, g.heights, equal_nan=True)


def test_class_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    g = random_class_grid(rng, 5, 6)
    save_map(g, tmp_path / "a.cmap")
    g2 = load_map(tmp_path / "a.cmap")
    assert np.array_equal(g2.class_ids, g.class_ids)
    assert g2.n_classes == g.n_classes


def test_cloud_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    c = PointCloudMap(rng.normal(size=(17, 3)))
    save_map(c, tmp_path / "a.xyz")
    c2 = load_map(tmp_path / "a.xyz")
    assert np.array_equal(c2.points, c.points)


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

"""Contact measurement likelihoods, all in the log domain.

Three channels, one per map layer:

  elevation   residual z = foot_world_z - grid height under the foot, N(z; 0, sigma_z)
  cloud       residual z = distance from the foot to the nearest map point, read
              from the cloud's field, N(z; 0, sigma_z)
  class       matching class -> the N(.; 0, sigma_c) peak density; mismatch ->
              N(d; 0, sigma_c) of the lattice distance d to the nearest cell of
              the estimated class

Every channel is floored in the linear domain at the channel's density at
3 sigma, so a single bad contact cannot zero a particle. A foot that
falls outside the map, or on a no-data / unlabeled cell, contributes a neutral
factor of 1 (log-likelihood 0). So does the class channel for a contact
without class_probs: no classifier labeled it, as the simulator logs no
force signal for a foot on an unlabeled cell.

The cloud channel reads its distance from the cloud's likelihood field
(Probabilistic Robotics, section 6.4): maps.DistanceField, made once per
cloud and reach on the first request, which init_filter makes, and kept
by the cloud. Its lattice nodes lie field_spacing = 0.75 sigma_z apart. Each
node in the band around the cloud holds its exact nearest-neighbour
distance, capped at the floor reach (LikelihoodConfig.floor_reach, beyond
which the Gaussian can no longer beat the floor) plus a cell diagonal, and
rounded to one of 254 quanta; the band is stored sparsely, in bricks of
nodes, and a dense index over the box of bricks around the cloud holds
each brick's row, so a contact finds its brick with one lookup. A point's
distance interpolates the eight corners of its cell, and a brick no step
has read before is filled whole first, from the field's own buckets of the
cloud's points, each node bit for bit what a kd-tree query gives, so runs
pay for the bricks their contacts reach, once per cloud, and no value
depends on which filled first. For a point within the reach the distance lies within
error_bound = sqrt(3)/2 field_spacing plus half a quantum of the exact
distance (the interpolation of a distance, whose slope is at most 1,
misses by at most half a cell diagonal). A point beyond the reach plus
that bound, or off the band, reads at least the reach and scores the
floor, as its exact distance would: gaussian_log_density is
non-increasing in the distance in float arithmetic too. A cloud whose
field and row index would hold more than maps.FIELD_BUDGET_BYTES (a
sigma_z of a few mm on the wall room, or a few points far apart at a fine
spacing) has none, and its channel keeps the exact nearest-neighbour
search of a kd-tree (scipy.spatial, the only use of scipy here), stopped
at the floor reach: there a point with no map point within the reach gets
distance inf, which scores the floor, and every other point its exact
distance, bit for bit.

The class channel reads the class layer's squared lattice offsets
(maps.ClassGrid.squared_offsets), one field per class, built in numpy on the
first request, which init_filter makes, and kept by the grid. Like the
cloud's field they stop at a reach, LikelihoodConfig.class_reach, the floor
reach of sigma_c: a cell within it holds its exact squared offset k, and a
cell beyond it the cap k_max + 1, and the padded border, where every point
off the lattice reads, the border code k_max + 2. The channel scores each
offset once, ahead of the queries, and the offsets keep the scores
(class_scores), which every call reads from the layer: a table of k_max + 3
entries holds the floored density of the distance resolution * sqrt(k),
the floor at the cap, where the exact distance would score it too, and 0
at the border code, the neutral factor of an off-map foot. So a contact's
class term is two gathers, its offset at the cell and that offset's score,
each bit for bit what the Gaussian of the exact distance gives. Only a
layer with unlabeled cells inside it also looks up the class ids under the
points, to zero the terms of those cells, which keep their exact offsets.

A localization mode is the set of channels it fuses (MODES). Each channel
reads the map layer of its own name, so the layers a mode needs are its
channels, and every contact is weighed with the same channel set.

The contacts of one step are evaluated together (contacts_log_likelihood) at
particles that carry a position and a yaw each and share one roll and pitch.
What depends on the contacts alone is laid out once, before a step input
is built (lay_out_contacts, from a walk log's rows, or from
ContactMeasurements through contact_layout): the offsets tilted by that
roll and pitch, the estimated classes as a (K, 1) column, and the one
length of their class probabilities. Each call turns the offsets per
particle into (3, K, N) world points; the grid channels share one set of
padded cell indices, and each channel looks its layer up once, from the
indexes its layer keeps (class_scores, cloud_field). Row k, contact k's,
is computed as for the contact on its own, so rows added in contact order
sum bit for bit as the contacts one at a time would. A filter hands it
ContactBuffers, which every step writes into.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import planar_rotate_add
from .maps import (
    GATHER_ROWS,
    UNKNOWN_CLASS,
    ClassGrid,
    ElevationGrid,
    MapSet,
    PointCloudMap,
    class_at_many,
    class_offsets_many,
    cloud_distances,
    elevation_at_many,
    field_distances,
    padded_cells,
)

# mode -> the channels it weighs every contact with
MODES = {
    "HL-G": ("elevation",),
    "HL-GC": ("elevation", "class"),
    "HL-C": ("class",),
    "HL-3D": ("cloud",),
}

_LOG_2PI = math.log(2.0 * math.pi)


def gaussian_density(x, sigma):
    """N(x; 0, sigma) in the linear domain."""
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))


def gaussian_log_density(x, sigma, out=None):
    """log N(x; 0, sigma); out, which may be x itself, receives the result."""
    x = np.asarray(x, dtype=float)
    out = np.divide(x, sigma, out=np.empty_like(x) if out is None else out)
    np.square(out, out=out)
    np.multiply(out, -0.5, out=out)
    np.subtract(out, math.log(sigma), out=out)
    return np.subtract(out, 0.5 * _LOG_2PI, out=out)


def _floor_reach(sigma, log_rho) -> float:
    """Distance beyond which a channel of that sigma scores its floor.

    sigma * sqrt(2 * (log_peak - log_rho)) is where the log density meets
    log_rho; the relative 1e-6 margin puts the density at the reach below
    the floor in float arithmetic as well.
    """
    log_peak = float(gaussian_log_density(0.0, sigma))
    return sigma * math.sqrt(2.0 * (log_peak - log_rho)) * (1.0 + 1e-6)


def _floor_density(name, sigma) -> float:
    """The density at 3 sigma, a channel's floor. A sigma that is not finite
    and positive, or so small or large that its floor is not a finite,
    positive float, raises: every weight it made would be 0, inf or nan."""
    if 0.0 < sigma < math.inf:
        with np.errstate(over="ignore", under="ignore"):
            rho = float(gaussian_density(3.0 * sigma, sigma))
        if 0.0 < rho < math.inf:
            return rho
    raise ValueError(f"[filter] {name} must be finite and positive with a finite, positive floor density, got {sigma}")


@dataclass(frozen=True)
class LikelihoodConfig:
    """Channel sigmas, and the linear-domain floors and floor reaches derived
    from them.

    Each floor is its channel's density at 3 sigma, strictly below the peak
    for any sigma. Each reach is the distance beyond which its channels
    score their floor: floor_reach for the sigma_z channels, and class_reach
    for the class channel, the reach of its squared offsets. None is
    settable: replace(cfg, sigma_z=...) derives them anew from the new
    sigmas, once, not on every step that reads them.
    """

    sigma_z: float = 0.01
    sigma_c: float = 0.05
    rho: float = field(init=False)
    class_rho: float = field(init=False)
    floor_reach: float = field(init=False)
    class_reach: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "rho", _floor_density("sigma_z", self.sigma_z))
        object.__setattr__(self, "class_rho", _floor_density("sigma_c", self.sigma_c))
        object.__setattr__(self, "floor_reach", _floor_reach(self.sigma_z, self.log_rho))
        object.__setattr__(self, "class_reach", _floor_reach(self.sigma_c, self.log_class_rho))

    @property
    def log_rho(self) -> float:
        return math.log(self.rho)

    @property
    def field_spacing(self) -> float:
        """The node spacing of the cloud channel's distance field, 0.75
        sigma_z. Derived, not a setting."""
        return 0.75 * self.sigma_z

    @property
    def log_class_rho(self) -> float:
        return math.log(self.class_rho)


def _read_only(value) -> np.ndarray:
    a = np.array(value, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ContactMeasurement:
    """One foot contact handed to the filter, checked once, when it is built.

    offset is the contact point in the base frame, a finite 3-vector.
    class_probs is a terrain classifier's distribution over the classes, a
    finite, non-negative, non-empty 1-D vector whose argmax is the class the
    class channel queries the map for (lay_out_contacts); None when no
    classifier labeled the contact. Both arrays are kept as read-only copies.
    """

    offset: np.ndarray
    class_probs: np.ndarray | None = None
    in_contact: bool = True

    def __post_init__(self):
        offset = _read_only(self.offset)
        # three scalar checks cost less than one numpy call on a 3-vector
        if offset.shape != (3,) or not all(map(math.isfinite, offset.tolist())):
            raise ValueError(f"contact offset must be a finite 3-vector, got {offset.tolist()}")
        object.__setattr__(self, "offset", offset)
        if self.class_probs is not None:
            probs = _read_only(self.class_probs)
            if probs.ndim != 1 or not probs.size:
                raise ValueError(f"class_probs must be a non-empty 1-D vector, got shape {probs.shape}")
            # argmax would rank a nan above every probability; nan fails both compares
            if not all(0.0 <= p < math.inf for p in probs.tolist()):
                raise ValueError(f"class_probs must be finite and non-negative, got {probs}")
            object.__setattr__(self, "class_probs", probs)


def elevation_log_likelihood_points(
    points, grid: ElevationGrid, cfg: LikelihoodConfig, cells=None, out=None
) -> np.ndarray:
    """Per-point elevation channel for world contact points (3, ...).

    cells, the points' padded_cells when the caller has them, saves computing
    them again. out receives the result; it holds the heights, then the
    residuals, then their log-likelihoods.
    """
    points = np.asarray(points, dtype=float)
    ll = elevation_at_many(grid, points[:2], cells=cells, out=out)
    nodata = np.isnan(ll)
    np.subtract(points[2], ll, out=ll)
    gaussian_log_density(ll, cfg.sigma_z, out=ll)
    np.maximum(ll, cfg.log_rho, out=ll)
    np.copyto(ll, 0.0, where=nodata)
    return ll


def cloud_field(cloud: PointCloudMap, cfg: LikelihoodConfig):
    """The cloud's distance field for the channel: truncated at
    cfg.floor_reach, with nodes cfg.field_spacing apart, filled whole
    bricks at a time from its own buckets of the cloud's points. The cloud
    makes it on the first request and keeps it; None when the field exceeds
    the budget, and then the cloud builds its kd-tree instead."""
    return cloud.distance_field(cfg.floor_reach, cfg.field_spacing)


def cloud_log_likelihood_points(
    points, cloud: PointCloudMap, cfg: LikelihoodConfig, out=None, scratch=None
) -> np.ndarray:
    """Per-point cloud channel for world contact points (3, ...).

    The distance is the cloud's field interpolated at the point, or, for a
    cloud whose field exceeds the budget, the nearest-neighbour search
    stopped at cfg.floor_reach; a point beyond the reach scores the floor
    either way. out receives the distances, then the scores; scratch as for
    maps.field_distances.
    """
    field = cloud_field(cloud, cfg)
    if field is None:
        d = cloud_distances(cloud, points, cfg.floor_reach)
    else:
        d = field_distances(field, points, out=out, scratch=scratch)
    ll = gaussian_log_density(d, cfg.sigma_z, out=d if out is None else out)
    return np.maximum(ll, cfg.log_rho, out=ll)


def class_scores(grid: ClassGrid, cfg: LikelihoodConfig):
    """(offsets, scores) of the class channel: the grid's SquaredOffsets for
    cfg.class_reach, and the channel's score of each offset, the floored
    log density of its distance, the floor at the cap (distance inf), and 0
    at the border code (SquaredOffsets.border), where a point off the
    lattice reads and is neutral. The grid makes the offsets on the first
    request and keeps them, and they keep the scores for sigma_c."""
    f = grid.squared_offsets(cfg.class_reach)

    def score(distances):
        # the Gaussian of the offsets below the border code, 0 at it
        ll = np.zeros(len(distances))
        scored = ll[: f.border]
        gaussian_log_density(distances[: f.border], cfg.sigma_c, out=scored)
        np.maximum(scored, cfg.log_class_rho, out=scored)
        return ll

    return f, f.table(("class", cfg.sigma_c), score)


def class_log_likelihood_points(
    points_xy, class_id, grid: ClassGrid, cfg: LikelihoodConfig, cells=None, out=None, scratch=None
) -> np.ndarray:
    """Per-point class channel for world xy contact points (2, ...).

    class_id is the classifier's estimate: one class for every point, or
    per-point classes that broadcast against the points (a (K, 1) column for
    the (2, K, N) points of K contacts). Every point scores the floored
    density of the lattice distance to the nearest cell of that class, so a
    cell of that class scores the peak density (distance 0) and an estimate
    absent from the map the floor (distance inf); off-map and unlabeled
    cells are neutral. Each point's squared offset, from the offsets
    class_scores returns, picks its score from their table, so a distance
    beyond cfg.class_reach scores the floor, as the exact distance would,
    and an off-map point, which reads the border code, scores 0. An
    unlabeled cell inside the grid keeps its exact offsets, so only a grid
    that has one (ClassGrid.has_unlabeled_cells) looks the points' class ids
    up after the two gathers, and zeroes the unlabeled ones.
    cells as for the elevation channel; out receives the scores; scratch as
    for maps.class_offsets_many.
    """
    if cells is None:
        cells = padded_cells(grid, points_xy)
    offsets, scores = class_scores(grid, cfg)
    k = class_offsets_many(grid, points_xy, class_id, offsets, cells=cells, scratch=scratch)
    ll = scores.take(k, out=out, mode="clip")
    if grid.has_unlabeled_cells:
        np.copyto(ll, 0.0, where=class_at_many(grid, points_xy, cells=cells) == UNKNOWN_CLASS)
    return ll


def _check_class_probs(n_probs: int, grid: ClassGrid) -> None:
    """Raise unless class_probs of n_probs entries hold one per class of the layer."""
    if n_probs != grid.n_classes:
        raise ValueError(f"class_probs has {n_probs} entries but the class layer has {grid.n_classes} classes")


def require_layers(channels, layers) -> None:
    """Raise unless layers, names of map layers, include the layer every channel reads."""
    for name in channels:
        if name not in layers:
            raise ValueError(f"the {name} channel requires a {name} layer, not among the map layers {tuple(layers)}")


class ContactBuffers:
    """The arrays contacts_log_likelihood writes for up to n_max particles,
    reused from call to call: the (3, K, N) world points, their (K, N)
    padded cell indices, the (K, N) flat indices into the class layer's
    squared offsets, and a (2, K, N) pair of float rows: the rows it
    returns and the class rows, which padded_cells uses first as its
    scratch and the cloud channel as its distances. Each is a contiguous
    view of a flat array, for any contact count K and particle count N up
    to n_max; the arrays grow to the largest K asked for. The rows a call
    returns are overwritten by the next call. The cloud field's scratch
    (cloud_scratch), maps.GATHER_ROWS float rows of K * n_max, is allocated
    only when a cloud channel asks for it, and again after the others grow.
    """

    def __init__(self, n_max: int):
        self.n_max = n_max
        self._world = np.empty(0)
        self._cells = np.empty(0, dtype=np.int64)
        self._index = np.empty(0, dtype=np.int64)
        self._rows = np.empty(0)
        self._cloud_scratch = None

    @property
    def cloud_scratch(self):
        """maps.field_distances' scratch for the largest K asked for, made on
        the first request after the buffers grow."""
        if self._cloud_scratch is None:
            self._cloud_scratch = np.empty(GATHER_ROWS * self._cells.size)
        return self._cloud_scratch

    def views(self, k: int, n: int):
        """(world, cells, index, rows) for k contacts at n particles."""
        if self._cells.size < k * self.n_max:
            size = k * self.n_max
            self._world = np.empty(3 * size)
            self._cells = np.empty(size, dtype=np.int64)
            self._index = np.empty(size, dtype=np.int64)
            self._rows = np.empty(2 * size)
            self._cloud_scratch = None
        kn = k * n
        return (
            self._world[: 3 * kn].reshape(3, k, n),
            self._cells[:kn].reshape(k, n),
            self._index[:kn].reshape(k, n),
            self._rows[: 2 * kn].reshape(2, k, n),
        )


@dataclass(frozen=True, eq=False)
class ContactLayout:
    """K contacts laid out as contacts_log_likelihood reads them, made once
    (lay_out_contacts) for any number of filters to weigh.

    offsets (3, K) holds the offsets tilted by rotation, the base's
    tilt_matrix; classes (K, 1) the estimated classes, 0 for a contact no
    classifier labeled; unlabeled the rows of those; n_probs the labeled
    contacts' class_probs length, or None. offsets and classes are read-only.
    """

    offsets: np.ndarray
    classes: np.ndarray
    unlabeled: tuple[int, ...]
    n_probs: int | None
    rotation: np.ndarray

    @property
    def size(self) -> int:
        return self.offsets.shape[1]


def lay_out_contacts(offsets, class_probs, rotation) -> ContactLayout:
    """The one layout of contacts: offsets (K, 3) in the base frame, each
    tilted by rotation on its own (a (3, 3) @ (3, K) product may round
    otherwise); class_probs (K, C), nan for a contact no classifier labeled,
    or None. A labeled contact's class is its row's first largest entry."""
    tilted = np.array([rotation @ offset for offset in offsets], dtype=float).reshape(-1, 3).T
    classes = np.zeros((tilted.shape[1], 1), dtype=np.int64)
    unlabeled, n_probs = tuple(range(len(classes))), None
    if class_probs is not None and not np.isnan(class_probs[:, 0]).all():
        labeled = ~np.isnan(class_probs[:, 0])
        classes[labeled, 0] = class_probs[labeled].argmax(axis=1)
        unlabeled, n_probs = tuple(np.flatnonzero(~labeled).tolist()), class_probs.shape[1]
    tilted.flags.writeable = classes.flags.writeable = False
    return ContactLayout(tilted, classes, unlabeled, n_probs, rotation)


def contact_layout(contacts, tilt_matrix) -> ContactLayout:
    """lay_out_contacts of ContactMeasurements. Labeled contacts whose
    class_probs differ in length raise: a class layer has one class count."""
    lengths = {c.class_probs.size for c in contacts if c.class_probs is not None}
    if len(lengths) > 1:
        raise ValueError(f"the contacts' class_probs differ in length: {sorted(lengths)} entries")
    n = max(lengths, default=0)
    probs = np.array([np.full(n, np.nan) if c.class_probs is None else c.class_probs for c in contacts])
    return lay_out_contacts([c.offset for c in contacts], probs if n else None, tilt_matrix)


def contacts_log_likelihood(
    positions,
    heading,
    layout: ContactLayout,
    channels,
    maps: MapSet,
    cfg: LikelihoodConfig,
    buffers: ContactBuffers | None = None,
) -> np.ndarray:
    """Joint log-likelihoods (K, N) of the K contacts of layout at N
    particles: positions (3, N) and heading (2, N), the cos and sin of each
    particle's yaw; the particles share the roll and pitch the layout's
    offsets were tilted by.

    Row k belongs to contact k, and every row uses the same channels (a
    value of MODES). The tilted offsets are turned by each particle's
    heading into one (3, K, N) array; the grid channels share the points'
    padded cell indices (MapSet keeps its grids on one lattice), and each
    channel queries its layer once for all the contacts. Row k starts at 0
    and adds the channels given in the order elevation, class, cloud: (0 +
    elevation) + class for elevation and class. A contact without
    class_probs adds no class term: its class row is computed for a
    stand-in class and then zeroed. The layout's class_probs length is
    checked against the class layer here. The arrays come from buffers, or
    new ones without.
    """
    require_layers(channels, maps.layers)
    n = positions.shape[1]
    if buffers is None:
        buffers = ContactBuffers(n)
    world, cells, index, rows = buffers.views(layout.size, n)
    ll, class_rows = rows
    planar_rotate_add(heading, layout.offsets[:, :, None], positions, world)
    if "elevation" in channels or "class" in channels:
        padded_cells(maps.elevation, world[:2], out=cells, scratch=rows)
    if "elevation" in channels:
        # the channel is never -0.0, so writing it is adding it to 0 bit for bit
        elevation_log_likelihood_points(world, maps.elevation, cfg, cells=cells, out=ll)
    else:
        ll.fill(0.0)
    if "class" in channels and layout.n_probs is not None:
        _check_class_probs(layout.n_probs, maps.class_grid)
        class_log_likelihood_points(
            world[:2], layout.classes, maps.class_grid, cfg, cells=cells, out=class_rows, scratch=index
        )
        for k in layout.unlabeled:
            class_rows[k].fill(0.0)
        ll += class_rows
    if "cloud" in channels:
        ll += cloud_log_likelihood_points(world, maps.cloud, cfg, out=class_rows, scratch=buffers.cloud_scratch)
    return ll


def contact_log_likelihood(
    positions, heading, tilt_matrix, contact: ContactMeasurement, channels, maps: MapSet, cfg: LikelihoodConfig
) -> np.ndarray:
    """Joint per-particle log-likelihood of one contact, particles as arrays."""
    return contacts_log_likelihood(positions, heading, contact_layout([contact], tilt_matrix), channels, maps, cfg)[0]

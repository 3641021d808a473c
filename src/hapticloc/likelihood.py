"""Contact measurement likelihoods, all in the log domain.

Three channels, one per map layer:

  elevation   residual z = foot_world_z - grid height under the foot, N(z; 0, sigma_z)
  cloud       residual z = distance from the foot to the nearest map point, N(z; 0, sigma_z)
  class       matching class -> the N(.; 0, sigma_c) peak density; mismatch ->
              N(d; 0, sigma_c) of the lattice distance d to the nearest cell of
              the estimated class

Every channel is floored in the linear domain at the channel's density at
3 sigma, so a single bad contact cannot zero a particle. A foot that
falls outside the map, or on a no-data / unlabeled cell, contributes a neutral
factor of 1 (log-likelihood 0). So does the class channel for a contact
without class_probs: no classifier labeled it, as the simulator logs no
force signal for a foot on an unlabeled cell.

The cloud channel's nearest-neighbour search stops at the floor reach
(LikelihoodConfig.floor_reach): the distance beyond which the Gaussian can no
longer beat the floor, widened by a relative 1e-6. A point with no map point
within the reach gets distance inf, which scores max(-inf, log_rho) = log_rho.
That is exactly what its true distance d scored: gaussian_log_density is
non-increasing in d in float arithmetic too (d / sigma, its square, the
scaling by -0.5 and the subtraction of constants each round monotonically), so
d >= reach gives gaussian_log_density(d) <= gaussian_log_density(reach) <
log_rho. The margin also covers the rounding of the tree's squared-distance
comparison against the reach, which is some ulps, far below 1e-6. Points
within the reach get the same nearest distance as the unbounded search, bit
for bit, so the bound changes no output; it only saves searching the tree
beyond the reach.

A localization mode is the set of channels it fuses (MODES). Each channel
reads the map layer of its own name, so the layers a mode needs are its
channels, and every contact is weighed with the same channel set.

The contacts of one step are evaluated together (contacts_log_likelihood) at
particles that carry a position and a yaw each and share one roll and pitch:
each contact's offset is tilted once, as a single pose, and then turned per
particle in the plane into (3, K, N) world points. The grid channels share
one set of padded cell indices for all of them, and each channel of the set
looks its layer up once, the class channel with one estimated class per
contact row. The result keeps one row per contact, computed with the same
arithmetic as one contact on its own, so a caller that adds the rows to the
weights in contact order gets the same sums bit for bit as evaluating the
contacts one at a time. A filter hands it ContactBuffers, so that the world
points, cell indices, rows and the lookups' scratch of every step are
written into the same arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import planar_rotate_add, quat_from_euler, quat_matrix
from .maps import (
    UNKNOWN_CLASS,
    ClassGrid,
    ElevationGrid,
    MapSet,
    PointCloudMap,
    class_at_many,
    class_distance_many,
    cloud_distances,
    elevation_at_many,
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


@dataclass(frozen=True)
class LikelihoodConfig:
    """Channel sigmas and the linear-domain floors derived from them.

    Each floor is its channel's density at 3 sigma, strictly below the peak
    for any sigma. The floors are not settable: replace(cfg, sigma_z=...)
    derives them anew from the new sigmas.
    """

    sigma_z: float = 0.01
    sigma_c: float = 0.05
    rho: float = field(init=False)
    class_rho: float = field(init=False)

    def __post_init__(self):
        if not self.sigma_z > 0.0 or not self.sigma_c > 0.0:
            raise ValueError("likelihood sigmas must be positive")
        object.__setattr__(self, "rho", float(gaussian_density(3.0 * self.sigma_z, self.sigma_z)))
        object.__setattr__(self, "class_rho", float(gaussian_density(3.0 * self.sigma_c, self.sigma_c)))

    @property
    def log_rho(self) -> float:
        return math.log(self.rho)

    @property
    def floor_reach(self) -> float:
        """Distance beyond which the sigma_z channels score their floor.

        sigma_z * sqrt(2 * (log_peak - log_rho)) is where the log density meets
        log_rho; the relative 1e-6 margin puts the density at the reach below
        the floor in float arithmetic as well. Derived, not a setting.
        """
        log_peak = float(gaussian_log_density(0.0, self.sigma_z))
        return self.sigma_z * math.sqrt(2.0 * (log_peak - self.log_rho)) * (1.0 + 1e-6)

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
    finite, non-negative 1-D vector whose argmax is the class the class
    channel queries the map for; None when no classifier labeled the
    contact. Both are kept as read-only copies.
    """

    offset: np.ndarray
    class_probs: np.ndarray | None = None
    in_contact: bool = True

    def __post_init__(self):
        offset = _read_only(self.offset)
        if offset.shape != (3,) or not np.isfinite(offset).all():
            raise ValueError(f"contact offset must be a finite 3-vector, got {offset.tolist()}")
        object.__setattr__(self, "offset", offset)
        if self.class_probs is not None:
            probs = _read_only(self.class_probs)
            if probs.ndim != 1:
                raise ValueError(f"class_probs must be 1-D, got shape {probs.shape}")
            # argmax would rank a nan above every probability
            if not (np.isfinite(probs).all() and (probs >= 0.0).all()):
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


def cloud_log_likelihood_points(points, cloud: PointCloudMap, cfg: LikelihoodConfig) -> np.ndarray:
    """Per-point cloud channel for world contact points (3, ...).

    The nearest-neighbour search stops at cfg.floor_reach; a point farther
    from the map scores the floor, as its exact distance would.
    """
    d = cloud_distances(cloud, points, cfg.floor_reach)
    return np.maximum(gaussian_log_density(d, cfg.sigma_z), cfg.log_rho)


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
    cells are neutral. cells as for the elevation channel; out receives the
    distances, then the scores; scratch as for class_distance_many.
    """
    if cells is None:
        cells = padded_cells(grid, points_xy)
    ll = class_distance_many(grid, points_xy, class_id, cells=cells, out=out, scratch=scratch)
    gaussian_log_density(ll, cfg.sigma_c, out=ll)
    np.maximum(ll, cfg.log_class_rho, out=ll)
    np.copyto(ll, 0.0, where=class_at_many(grid, points_xy, cells=cells) == UNKNOWN_CLASS)
    return ll


def _estimated_class(contact: ContactMeasurement, grid: ClassGrid) -> int:
    """The argmax of the contact's class_probs, one entry per class of the layer."""
    if contact.class_probs.size != grid.n_classes:
        raise ValueError(
            f"class_probs has {contact.class_probs.size} entries but the class layer has {grid.n_classes} classes"
        )
    return int(np.argmax(contact.class_probs))


def require_layers(channels, layers) -> None:
    """Raise unless layers, names of map layers, include the layer every channel reads."""
    for name in channels:
        if name not in layers:
            raise ValueError(f"the {name} channel requires a {name} layer, not among the map layers {tuple(layers)}")


class ContactBuffers:
    """The arrays contacts_log_likelihood writes for up to n_max particles,
    reused from call to call: the (3, K, N) world points, their (K, N)
    padded cell indices, the (K, N) flat indices into the class distance
    fields, and a (2, K, N) pair of float rows: the rows it returns and the
    class rows, which padded_cells uses first as its scratch. Each is a
    contiguous view of a flat array, for any contact count K and particle
    count N up to n_max; the arrays grow to the largest K asked for. The rows
    a call returns are overwritten by the next call.
    """

    def __init__(self, n_max: int):
        self.n_max = n_max
        self._world = np.empty(0)
        self._cells = np.empty(0, dtype=np.int64)
        self._index = np.empty(0, dtype=np.int64)
        self._rows = np.empty(0)

    def views(self, k: int, n: int):
        """(world, cells, index, rows) for k contacts at n particles."""
        if self._cells.size < k * self.n_max:
            size = k * self.n_max
            self._world = np.empty(3 * size)
            self._cells = np.empty(size, dtype=np.int64)
            self._index = np.empty(size, dtype=np.int64)
            self._rows = np.empty(2 * size)
        kn = k * n
        return (
            self._world[: 3 * kn].reshape(3, k, n),
            self._cells[:kn].reshape(k, n),
            self._index[:kn].reshape(k, n),
            self._rows[: 2 * kn].reshape(2, k, n),
        )


def contacts_log_likelihood(
    positions,
    heading,
    tilt,
    contacts,
    channels,
    maps: MapSet,
    cfg: LikelihoodConfig,
    buffers: ContactBuffers | None = None,
) -> np.ndarray:
    """Joint log-likelihoods (K, N) of K contacts at N particles: positions
    (3, N), heading (2, N) the cos and sin of each particle's yaw, and tilt
    the (roll, pitch) they share.

    Row k belongs to contacts[k], and every row uses the same channels (a
    value of MODES). The contact offsets are tilted by one rotation matrix,
    then turned by each particle's heading into one (3, K, N) array; the
    grid channels share the points' padded cell indices (MapSet keeps its
    grids on one lattice), and each channel queries its layer once for all
    the contacts. Row k starts at 0 and adds the channels given in the order
    elevation, class, cloud: (0 + elevation) + class for elevation and
    class. A contact without class_probs adds no class term: its class row
    is computed for a stand-in class and then zeroed. The arrays come from
    buffers, or new ones without.
    """
    require_layers(channels, maps.layers)
    labeled = []
    if "class" in channels:
        labeled = [c.class_probs is not None for c in contacts]
        column = np.array(
            [_estimated_class(c, maps.class_grid) if has else 0 for c, has in zip(contacts, labeled)]
        ).reshape(-1, 1)

    n = positions.shape[1]
    if buffers is None:
        buffers = ContactBuffers(n)
    world, cells, index, rows = buffers.views(len(contacts), n)
    ll, class_rows = rows
    # each offset tilted once, as one pose, so a contact's row does not
    # depend on the others; then turned per particle
    tilt_matrix = quat_matrix(quat_from_euler(tilt[0], tilt[1], 0.0))
    offsets = np.array([tilt_matrix @ c.offset for c in contacts]).T
    planar_rotate_add(heading, offsets[:, :, None], positions, world)
    if "elevation" in channels or "class" in channels:
        padded_cells(maps.elevation, world[:2], out=cells, scratch=rows)
    if "elevation" in channels:
        # the channel is never -0.0, so writing it is adding it to 0 bit for bit
        elevation_log_likelihood_points(world, maps.elevation, cfg, cells=cells, out=ll)
    else:
        ll.fill(0.0)
    if any(labeled):
        class_log_likelihood_points(
            world[:2], column, maps.class_grid, cfg, cells=cells, out=class_rows, scratch=index
        )
        for row, has in zip(class_rows, labeled):
            if not has:
                row.fill(0.0)
        ll += class_rows
    if "cloud" in channels:
        ll += cloud_log_likelihood_points(world, maps.cloud, cfg)
    return ll


def contact_log_likelihood(
    positions, heading, tilt, contact: ContactMeasurement, channels, maps: MapSet, cfg: LikelihoodConfig
) -> np.ndarray:
    """Joint per-particle log-likelihood of one contact, particles as arrays."""
    return contacts_log_likelihood(positions, heading, tilt, [contact], channels, maps, cfg)[0]

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

The contacts of one step are evaluated together (contacts_log_likelihood):
one quaternion call per contact moves the K contacts to (3, K, N) world
points, and each channel of the set looks its layer up once for all of them,
the class channel with one estimated class per contact row. The result
keeps one row per contact, computed with the same arithmetic as one contact
on its own, so a caller that adds the rows to the weights in contact order
gets the same sums bit for bit as evaluating the contacts one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import quat_rotate
from .maps import (
    UNKNOWN_CLASS,
    ClassGrid,
    ElevationGrid,
    MapSet,
    PointCloudMap,
    check_class_ids,
    class_at_many,
    class_distance_many,
    cloud_distances,
    elevation_at_many,
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


def gaussian_log_density(x, sigma):
    x = np.asarray(x, dtype=float)
    return -0.5 * (x / sigma) ** 2 - math.log(sigma) - 0.5 * _LOG_2PI


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

    @property
    def log_class_peak(self) -> float:
        return float(gaussian_log_density(0.0, self.sigma_c))


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


def elevation_log_likelihood_points(points, grid: ElevationGrid, cfg: LikelihoodConfig) -> np.ndarray:
    """Per-point elevation channel for world contact points (3, ...)."""
    points = np.asarray(points, dtype=float)
    h = elevation_at_many(grid, points[:2])
    z = points[2] - h
    nodata = np.isnan(h)
    ll = np.maximum(gaussian_log_density(np.where(nodata, 0.0, z), cfg.sigma_z), cfg.log_rho)
    ll[nodata] = 0.0
    return ll


def cloud_log_likelihood_points(points, cloud: PointCloudMap, cfg: LikelihoodConfig) -> np.ndarray:
    """Per-point cloud channel for world contact points (3, ...).

    The nearest-neighbour search stops at cfg.floor_reach; a point farther
    from the map scores the floor, as its exact distance would.
    """
    d = cloud_distances(cloud, points, cfg.floor_reach)
    return np.maximum(gaussian_log_density(d, cfg.sigma_z), cfg.log_rho)


def class_log_likelihood_points(points_xy, class_id, grid: ClassGrid, cfg: LikelihoodConfig) -> np.ndarray:
    """Per-point class channel for world xy contact points (2, ...).

    class_id is the classifier's estimate: one class for every point, or
    per-point classes that broadcast against the points (a (K, 1) column for
    the (2, K, N) points of K contacts). Cells already of that class score the
    peak density; other cells score the floored density of the lattice
    distance to the nearest cell of that class, looked up in one call for all
    of them. An estimate absent from the map scores the floor itself; off-map
    and unlabeled cells are neutral.
    """
    class_id = check_class_ids(grid, class_id)
    points_xy = np.asarray(points_xy, dtype=float)
    ids = class_at_many(grid, points_xy)
    ll = np.full(ids.shape, cfg.log_class_rho)
    neutral = ids == UNKNOWN_CLASS
    match = ids == class_id
    # an absent class scores the floor without a distance lookup
    mismatch = ~neutral & ~match & grid._present[class_id]
    if mismatch.any():
        d = class_distance_many(grid, points_xy[:, mismatch], np.broadcast_to(class_id, ids.shape)[mismatch])
        ll[mismatch] = np.maximum(gaussian_log_density(d, cfg.sigma_c), cfg.log_class_rho)
    ll[match] = cfg.log_class_peak
    ll[neutral] = 0.0
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


def contacts_log_likelihood(positions, quats, contacts, channels, maps: MapSet, cfg: LikelihoodConfig) -> np.ndarray:
    """Joint log-likelihoods (K, N) of K contacts at N particles, positions
    (3, N) and quats (4, N).

    Row k belongs to contacts[k], and every row uses the same channels (a
    value of MODES). Each contact is moved to world points by its own
    quaternion call, into one (3, K, N) array, and each channel queries its
    layer once for all the contacts. Row k starts at 0 and adds the channels
    given in the order elevation, class, cloud: (0 + elevation) + class for
    elevation and class. A contact without class_probs adds no class term.
    """
    require_layers(channels, maps.layers)
    if "class" in channels:
        labeled = [k for k, c in enumerate(contacts) if c.class_probs is not None]
        column = np.array([_estimated_class(contacts[k], maps.class_grid) for k in labeled]).reshape(-1, 1)

    world = np.stack([quat_rotate(quats, c.offset) + positions for c in contacts], axis=1)
    ll = np.zeros(world.shape[1:])
    if "elevation" in channels:
        ll += elevation_log_likelihood_points(world, maps.elevation, cfg)
    if "class" in channels and labeled:
        ll[labeled] += class_log_likelihood_points(world[:2, labeled], column, maps.class_grid, cfg)
    if "cloud" in channels:
        ll += cloud_log_likelihood_points(world, maps.cloud, cfg)
    return ll


def contact_log_likelihood(
    positions, quats, contact: ContactMeasurement, channels, maps: MapSet, cfg: LikelihoodConfig
) -> np.ndarray:
    """Joint per-particle log-likelihood of one contact, particles as arrays."""
    return contacts_log_likelihood(positions, quats, [contact], channels, maps, cfg)[0]

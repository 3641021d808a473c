"""Sequential Monte Carlo localization over foot-contact measurements.

Particles are 4-DoF poses, a position and a yaw each, stored as component
rows (positions (3, N) and yaw (N,), each C-contiguous) with log-domain
weights. Roll and pitch are not particle state: on a legged robot the IMU
observes them against gravity, so each step takes them from its input
(StepInput.tilt) and every particle shares them. A particle's attitude is
Rz(yaw) Ry(pitch) Rx(roll). The state's tilt and tilt_rotation are that one
shared attitude, as a (roll, pitch) pair and its read-only tilt_matrix:
init_filter sets both from the prior mean, and each step both from its
input (StepInput.tilt and StepInput.rotation).

Each step propagates every particle by the odometry increment with body-frame
Gaussian noise, multiplies weights by the joint contact likelihood, resamples
systematically when the effective sample size drops below RESAMPLE_FRAC of
N, and appends a pose estimate.

Propagation reads the x, y, z and yaw block of the odometry covariance. The
increment's rotation, seen from the tilted base at the step start, turns the
heading by an angle all particles share and leaves a level part; both are
folded, once per step, into the 4x4 noise factor and the increment's
translation (_propagation_terms). Each particle then draws 4 normal values:
its yaw moves by the turn plus its yaw noise, and its position by the
displacement rotated in the plane by its new yaw less the turn. The yaw
noise is thus applied before the translation instead of after it, which
turns the step by the noise angle (about 0.15 mm on a 5 cm step at 3 mrad),
so that one cos/sin pair per particle, of its new yaw, serves both the
propagation and the contacts: each contact offset is tilted once, as a
single pose, and then rotated per particle in the plane by that pair.

The estimate is the weighted mean, under the weights the step normalized
(Probabilistic Robotics ch. 4), while the particle spread in x and y stays
within XY_STD_THRESHOLD: positions average with the weights, and yaw
averages as yaw_ref + sum(w * wrap(yaw - yaw_ref)) about the highest-weight
particle, so a set straddling +-pi averages near pi. Beyond the threshold
(ambiguous, typically multimodal sets) x, y, and heading continue by dead
reckoning from the previous estimate and only z is taken from the particles,
so the reported pose never teleports between modes. Either way the estimate's
attitude is its yaw composed with the step's roll and pitch.

What a step computes is done as rarely as what it depends on allows:
- once per StepInput, when it is built: a read-only copy of its odometry
  covariance, the rotation of its tilt and its contact layout, the
  in-contact offsets tilted by that rotation with their estimated classes
  and class-probability length (likelihood.ContactLayout);
- once per filter, in init_filter: the settings, the workspace, the
  rotation of the prior's tilt, and the indexes of the mode's channels,
  which their map layers keep, and which a step reads from there
  (likelihood.class_scores, likelihood.cloud_field);
- once per input and start rotation: the propagation terms. The first
  filter to step an input makes them and the input keeps them, keyed by
  the filter's start rotation (FilterState.tilt_rotation), the very array:
  the prior's, or the rotation of the input the filter stepped last. So the
  other modes of a seed, which step the same inputs in the same order,
  reuse the terms of every input after their first (_shared_terms);
- per step: the draws, the propagation, the contacts' world points, map
  lookups and weights, the check of the layout's class-probability length
  against the filter's class layer, the resample and the estimate. The
  weights are normalized once, in log space, and exponentiated once; the
  ESS, the resample and the estimate all read those linear weights (after
  a resample or a reset, the exp of the uniform log-weights).

The state owns its particle arrays. A FilterState allocates, once, every
particle-sized array a step writes (its _Workspace), and a step writes into
those, not into new arrays: positions and yaw each alternate between two
buffers, one read while the other is written. So later steps overwrite the
arrays the state holds now; a caller that wants a snapshot of positions,
yaw or log_weights copies it. A caller may still replace those
attributes with arrays of its own, of any count up to the maximum: the
next step only reads them, and writes its results into the workspace.

The particle count adapts by KLD-sampling (Fox, "Adapting the sample size
in particle filters through KLD-sampling", IJRR 2003; Probabilistic
Robotics 8.3.7). init_filter's n_particles is the maximum. A filter whose
maximum exceeds KLD_MIN_PARTICLES resamples in two draws: a systematic draw
of the current count, then, if the KLD bound for the (x, y, yaw) bins of
KLD_BIN that the distinct drawn particles occupy (kld_sample_size), clamped
to [KLD_MIN_PARTICLES, maximum], differs from the current count, a second
systematic draw of that many. Below the floor a step costs mostly its fixed
numpy call overhead and the filter loses accuracy, so a filter with at most
KLD_MIN_PARTICLES particles keeps its count and draws once. The workspace is
allocated once, at the maximum: each buffer is a flat array viewed as
C-contiguous (rows, n) for the current count n, and the views are rebuilt
only when n changes.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .geometry import (
    POSE_COLUMNS,
    Pose,
    compose,
    covariance_factor,
    planar_rotate_add,
    quat_from_euler,
    quat_matrix,
    quat_to_euler,
    tilt_matrix,
)
from .likelihood import (
    MODES,
    ContactBuffers,
    ContactLayout,
    ContactMeasurement,
    LikelihoodConfig,
    class_scores,
    cloud_field,
    contact_layout,
    contacts_log_likelihood,
    require_layers,
)
from .maps import MapSet

log = logging.getLogger(__name__)

# the x, y, z and yaw block of a 6x6 covariance of tangent vectors
# [dx dy dz droll dpitch dyaw]
_XYZ_YAW = np.ix_([0, 1, 2, 5], [0, 1, 2, 5])

# KLD-sampling: with probability 1 - KLD_DELTA the KL divergence between the
# particle set and the binned posterior stays below KLD_EPSILON; the bins are
# KLD_BIN wide in x, y (m) and yaw (rad). A filter never adapts below
# KLD_MIN_PARTICLES, and one of at most that many never adapts.
KLD_EPSILON = 0.03
KLD_DELTA = 0.01
KLD_BIN = (0.02, 0.02, math.radians(2.0))
KLD_MIN_PARTICLES = 500
_KLD_Z = NormalDist().inv_cdf(1.0 - KLD_DELTA)

RESAMPLE_FRAC = 0.5  # a step resamples below this share of N effective particles
XY_STD_THRESHOLD = 0.10  # metres of x and y spread the full estimate allows


@dataclass(frozen=True, eq=False)
class StepInput:
    """Odometry increment with its 6x6 tangent covariance, the foot contacts,
    and tilt, the base's (roll, pitch) against gravity at the end of the step.

    An input is fixed when it is built, and so is the work that depends on it
    alone, which every filter that steps it reads (its increment is a Pose,
    finite and read-only once built): odom_cov, a read-only copy of the
    caller's covariance; rotation, the read-only tilt_matrix of its tilt,
    which becomes the state's tilt_rotation when a filter steps it; and
    layout, the contacts in contact (contacts_for_mode) tilted by that
    rotation and laid out for likelihood.contacts_log_likelihood. The
    propagation terms also depend on the filter's start rotation, so the
    input keeps the last terms a filter made with that rotation as their key
    (_shared_terms), for the next filter to step it.
    """

    odom_increment: Pose
    odom_cov: np.ndarray
    contacts: tuple[ContactMeasurement, ...]
    tilt: tuple = (0.0, 0.0)
    rotation: np.ndarray = field(init=False, repr=False)
    layout: ContactLayout = field(init=False, repr=False)
    # [start rotation, (g, u, turn)]: the terms _shared_terms made last, and
    # the rotation they were made from
    _terms: list = field(init=False, repr=False, default_factory=lambda: [None, None])

    def __post_init__(self):
        odom_cov = np.array(self.odom_cov, dtype=float)
        odom_cov.flags.writeable = False
        if odom_cov.shape != (6, 6):
            raise ValueError(f"odometry covariance must be 6x6, got {odom_cov.shape}")
        tilt = np.asarray(self.tilt, dtype=float)
        if tilt.shape != (2,):
            raise ValueError(f"tilt must be (roll, pitch), got {self.tilt}")
        tilt = tuple(tilt.tolist())
        # a non-finite input would turn every particle into nan without a trace
        for name, values in (("odom_cov", odom_cov.ravel().tolist()), ("tilt", tilt)):
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{name} must be finite")
        contacts = tuple(self.contacts)
        for k, c in enumerate(contacts):
            if not isinstance(c, ContactMeasurement):
                raise TypeError(f"contacts[{k}] must be a ContactMeasurement, got {type(c).__name__}")
        rotation = tilt_matrix(*tilt)
        rotation.flags.writeable = False
        for name, value in (
            ("odom_cov", odom_cov),
            ("contacts", contacts),
            ("tilt", tilt),
            ("rotation", rotation),
            ("layout", contact_layout(contacts_for_mode(contacts), rotation)),
        ):
            object.__setattr__(self, name, value)


@dataclass
class StepDiagnostics:
    ess: float
    xy_std: np.ndarray
    branch: str
    # the particles the step propagated and weighed; its resample may leave
    # another count for the next step
    n_particles: int


class _Workspace:
    """Every particle-sized array a step writes, for up to n_max particles.

    Each buffer is a flat array of n_max per row, and the attributes are its
    C-contiguous (rows, n) views for the current count n, rebuilt by resize.
    positions and yaw are pairs of buffers: a step reads the state's current
    array and writes the other one of the pair (_spare).
    """

    def __init__(self, n_max: int):
        self.n_max = n_max
        self._positions = (np.empty(3 * n_max), np.empty(3 * n_max))
        self._yaw = (np.empty(n_max), np.empty(n_max))
        self._draws = np.empty(4 * n_max)
        self._delta = np.empty(4 * n_max)
        self._heading = np.empty(2 * n_max)
        self._vectors = tuple(np.empty(n_max) for _ in range(3))
        # systematic resampling's cumulative weights and pointers, and the
        # ramp 0, 1, ..., n_max - 1 the pointers are made from; a draw may
        # take any count up to n_max, so these are never resized
        self.resample_rows = (np.empty(n_max), np.empty(n_max), np.arange(n_max, dtype=float))
        self.contacts = ContactBuffers(n_max)
        self.n = None
        self.resize(n_max)

    def resize(self, n: int) -> None:
        """Point the views at the first n particles of every buffer."""
        if n == self.n:
            return
        self.n = n
        self.positions = tuple(flat[: 3 * n].reshape(3, n) for flat in self._positions)
        self.yaw = tuple(flat[:n] for flat in self._yaw)
        # the (4, n) normal draws and the noise rows the step's factor makes
        # of them; the estimate reuses two rows for the xy residuals
        self.draws = self._draws[: 4 * n].reshape(4, n)
        self.delta = self._delta[: 4 * n].reshape(4, n)
        # cos and sin of the particles' yaw after propagation
        self.heading = self._heading[: 2 * n].reshape(2, n)
        self.log_weights, self.weights, self.scratch = (flat[:n] for flat in self._vectors)


def _spare(pair, current) -> int:
    """The index in pair of the buffer that current is not."""
    return int(current is pair[0])


@dataclass
class FilterState:
    """The particle set plus every setting of the run, bound once by init_filter.

    trajectory[0] is the prior mean and trajectory[k] the estimate after step
    k, whose diagnostics are diagnostics[k - 1]. tilt is the (roll, pitch)
    every particle shares, and tilt_rotation its read-only tilt_matrix, one
    attitude: init_filter sets both from the prior mean, and each step both
    from its input. A step starts from tilt_rotation.

    The state owns positions, yaw and log_weights, and later steps overwrite
    them in place (see the module docstring): copy one to keep it.
    """

    # component rows: positions (3, N) and yaw (N,), each C-contiguous
    positions: np.ndarray
    yaw: np.ndarray
    tilt: tuple
    tilt_rotation: np.ndarray
    log_weights: np.ndarray
    rng: np.random.Generator
    maps: MapSet
    likelihood: LikelihoodConfig
    # the likelihood channels of the filter's mode, a value of MODES
    channels: tuple[str, ...]
    trajectory: list[Pose]
    diagnostics: list[StepDiagnostics] = field(default_factory=list)
    divergence_count: int = 0
    # the last odometry covariance step factored (a StepInput's read-only
    # odom_cov) and the factor of its x, y, z and yaw block
    odom_cov: np.ndarray | None = None
    odom_factor: np.ndarray | None = None
    workspace: _Workspace = field(init=False, repr=False)

    def __post_init__(self):
        self.workspace = _Workspace(self.n_particles)

    @property
    def n_particles(self) -> int:
        """The current count; init_filter's n_particles is its maximum, n_max."""
        return len(self.log_weights)

    @property
    def n_max(self) -> int:
        return self.workspace.n_max


def init_filter(
    prior_mean: Pose,
    prior_cov,
    maps: MapSet,
    likelihood: LikelihoodConfig,
    *,
    mode: str,
    n_particles: int,
    seed: int,
) -> FilterState:
    """Sample the prior particle set; the trajectory starts at the prior mean.

    n_particles is the maximum count, and the prior's count: above
    KLD_MIN_PARTICLES the count adapts by KLD-sampling on each resample.

    prior_cov is a finite 6x6 tangent covariance in the prior mean's body
    frame (a Pose, finite once built), of which the particles draw the x, y,
    z and yaw block; they share the prior mean's roll and pitch, the state's
    tilt, whose rotation, tilt_rotation, is made here, once per filter. Binds every setting of the run: the maps
    and likelihood every step weighs its contacts against, and the channels
    of mode, a key of MODES. A mode whose channels need a layer maps lacks
    raises here. The indexes of the mode's channels are requested here, so
    that no step builds one; their map layers keep them, and a step reads
    them from there: for the class channel the class layer's squared offsets
    and their table of scores (likelihood.class_scores), and for the cloud
    channel the cloud's distance field (likelihood.cloud_field), which
    builds the cloud's kd-tree and finds the field's bricks; steps fill the
    nodes they read.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {tuple(MODES)}")
    require_layers(MODES[mode], maps.layers)
    if n_particles < 1:
        raise ValueError("need at least one particle")
    prior_cov = np.asarray(prior_cov, dtype=float)
    # a non-finite prior would make every particle, and so every estimate, nan
    if not np.isfinite(prior_cov).all():
        raise ValueError("prior covariance must be finite")
    if "class" in MODES[mode]:
        class_scores(maps.class_grid, likelihood)
    if "cloud" in MODES[mode]:
        cloud_field(maps.cloud, likelihood)
    rng = np.random.default_rng(seed)
    roll, pitch, yaw = quat_to_euler(prior_mean.quat)
    if prior_cov.shape != (6, 6):
        raise ValueError(f"prior covariance must be 6x6, got {prior_cov.shape}")
    factor = covariance_factor(prior_cov[_XYZ_YAW])
    # body-frame position noise, turned into the world by the prior's attitude
    factor[:3] = quat_matrix(prior_mean.quat) @ factor[:3]
    delta = factor @ rng.standard_normal((4, n_particles))
    rotation = tilt_matrix(roll, pitch)
    rotation.flags.writeable = False
    return FilterState(
        positions=prior_mean.position[:, None] + delta[:3],
        yaw=yaw + delta[3],
        tilt=(roll, pitch),
        tilt_rotation=rotation,
        log_weights=np.full(n_particles, -np.log(n_particles)),
        rng=rng,
        maps=maps,
        likelihood=likelihood,
        channels=MODES[mode],
        trajectory=[prior_mean],
    )


def systematic_resample_indices(weights, rng: np.random.Generator, m: int | None = None, rows=None) -> np.ndarray:
    """Systematic resampling: m evenly spaced pointers (default: one per
    weight) with one shared random offset; the indices come out sorted.

    Unbiased: particle i is drawn m * weights[i] times in expectation.
    rows, the workspace's resample_rows, holds the cumulative weights and the
    pointers, so only the indices are allocated; without it all are. Weights
    whose total is not finite, or lies more than 1e-6 from 1, raise: the
    last cumulative weight is pinned to 1, which would draw from them as
    though they were normalized.
    """
    weights = np.asarray(weights, dtype=float)
    n = len(weights)
    m = n if m is None else m
    cum_row, pointer_row, ramp = (np.empty(n), np.empty(m), np.arange(m, dtype=float)) if rows is None else rows
    cum = np.cumsum(weights, out=cum_row[:n])
    total = float(cum[-1])
    # nan fails the compare
    if not abs(total - 1.0) <= 1e-6:
        raise ValueError(f"resampling needs weights that sum to 1, got a total of {total}")
    cum[-1] = 1.0
    pointers = np.add(rng.random(), ramp[:m], out=pointer_row[:m])
    pointers /= m
    idx = np.searchsorted(cum, pointers, side="right")
    return np.minimum(idx, n - 1, out=idx)


def kld_sample_size(k: int) -> int:
    """The KLD-sampling particle count for k occupied bins.

    The chi-square quantile chi2(1 - KLD_DELTA, k - 1) / (2 KLD_EPSILON), by
    the Wilson-Hilferty approximation; 1 for a single bin.
    """
    if k < 2:
        return 1
    a = 2.0 / (9.0 * (k - 1))
    return math.ceil((k - 1) / (2.0 * KLD_EPSILON) * (1.0 - a + math.sqrt(a) * _KLD_Z) ** 3)


def occupied_bins(positions, yaw, idx) -> int:
    """The number of KLD_BIN cells of (x, y, yaw) the particles idx occupy.

    idx is sorted, as systematic_resample_indices returns it, so a particle
    counts once, where its index first appears; only those keys are sorted.
    """
    first = np.empty(len(idx), dtype=bool)
    first[0] = True
    np.not_equal(idx[1:], idx[:-1], out=first[1:])
    picked = idx[first]
    bins = np.empty((3, len(picked)))
    positions[0].take(picked, out=bins[0])
    positions[1].take(picked, out=bins[1])
    np.mod(yaw.take(picked, out=bins[2]), 2.0 * np.pi, out=bins[2])
    bins /= np.array(KLD_BIN)[:, None]
    np.floor(bins, out=bins)
    # one integer key per bin, exact in float64 while the spans allow it:
    # (low[0] * span[1] + low[1]) * span[2] + low[2], low = bins - min, made
    # in place (rounding is monotonic, so max(low) is max(bins) - min)
    lo = bins.min(axis=1)
    span = bins.max(axis=1) - lo + 1.0
    if span[0] * span[1] * span[2] < 2.0**53:
        bins -= lo[:, None]
        key = np.multiply(bins[0], span[1])
        key += bins[1]
        key *= span[2]
        key += bins[2]
        key.sort()
        return 1 + int(np.count_nonzero(key[1:] != key[:-1]))
    return np.unique(bins, axis=1).shape[1]


def _resample_indices(state: FilterState, weights) -> np.ndarray:
    """A systematic draw of the current count, and above KLD_MIN_PARTICLES a
    second one if the KLD count of the first, clamped to [KLD_MIN_PARTICLES,
    n_max], differs from it."""
    rows = state.workspace.resample_rows
    idx = systematic_resample_indices(weights, state.rng, rows=rows)
    if state.n_max <= KLD_MIN_PARTICLES:
        return idx
    k = occupied_bins(state.positions, state.yaw, idx)
    m = min(max(kld_sample_size(k), KLD_MIN_PARTICLES), state.n_max)
    return idx if m == len(idx) else systematic_resample_indices(weights, state.rng, m, rows)


def _logsumexp(a, scratch=None):
    """log(sum(exp(a))); scratch, an array of a's shape, holds the exponentials."""
    m = a.max()
    # not finite: nan fails both compares
    if not -math.inf < m < math.inf:
        return m
    e = np.subtract(a, m, out=scratch)
    return m + np.log(np.exp(e, out=e).sum())


def estimate_detail(state: FilterState, increment: Pose, weights: np.ndarray):
    """(pose, xy_std, branch): weighted mean, or the dead-reckoning fallback.

    weights are the linear weights of the state's particles, the exp of its
    normalized log_weights, as the step made them: the estimate reads them
    and normalizes nothing again.

    The full branch averages positions with the weights, and yaw about the
    highest-weight particle's yaw, each difference wrapped to (-pi, pi]. The
    z-only branch composes the previous estimate with the step's odometry
    increment for x, y, and yaw, and takes just z from the weighted mean.
    Both attach the state's roll and pitch.
    """
    ws = state.workspace
    p = state.positions
    mean_p = p @ weights
    spread = np.subtract(p[:2], mean_p[:2, None], out=ws.delta[:2])
    xy_std = np.sqrt(np.square(spread, out=spread) @ weights)
    roll, pitch = state.tilt
    if xy_std[0] <= XY_STD_THRESHOLD and xy_std[1] <= XY_STD_THRESHOLD:
        ref = float(state.yaw[state.log_weights.argmax()])
        # wrap(yaw - ref) as pi - mod(pi - (yaw - ref), 2 pi), in place; the
        # mod is the identity on [0, 2 pi), where every yaw within pi of ref
        # lies (it turns -0.0 into 0.0, and pi less either is pi)
        dyaw = np.subtract(np.pi + ref, state.yaw, out=ws.scratch)
        if not (0.0 <= dyaw.min() and dyaw.max() < 2.0 * np.pi):
            np.mod(dyaw, 2.0 * np.pi, out=dyaw)
        np.subtract(np.pi, dyaw, out=dyaw)
        yaw = ref + float(dyaw @ weights)
        return Pose(mean_p, quat_from_euler(roll, pitch, yaw)), xy_std, "full"
    base = compose(state.trajectory[-1], increment)
    yaw = quat_to_euler(base.quat)[2]
    return Pose([base.position[0], base.position[1], mean_p[2]], quat_from_euler(roll, pitch, yaw)), xy_std, "z-only"


def _odom_factor(state: FilterState, cov: np.ndarray) -> np.ndarray:
    """The factor of the x, y, z and yaw block of cov, a StepInput's
    read-only odom_cov, factored again only when cov differs bitwise from
    the covariance the cached factor came from."""
    if state.odom_cov is None or state.odom_cov.tobytes() != cov.tobytes():
        state.odom_factor = covariance_factor(cov[_XYZ_YAW])
        state.odom_cov = cov
    return state.odom_factor


def _propagation_terms(start, increment: Pose, factor):
    """The terms of a step every particle shares: (g, u, turn).

    The increment's rotation, seen from the base at the step start (start,
    the tilt_matrix of its roll and pitch), turns the heading by turn. g is
    the 4x4 noise factor with its position rows carried through the
    increment's rotation and the turn undone, u the increment's translation
    with the tilt applied and the turn undone: a particle's displacement is
    u + g[:3] @ draws, rotated in the plane by its new yaw.
    """
    m = start @ quat_matrix(increment.quat)
    turn = math.atan2(m[1, 0], m[0, 0])
    undo = quat_matrix(quat_from_euler(0.0, 0.0, -turn))
    g = factor.copy()
    g[:3] = undo @ m @ factor[:3]
    return g, undo @ (start @ increment.position), turn


def _shared_terms(state: FilterState, inp: StepInput):
    """_propagation_terms from the state's start rotation for inp: the terms
    inp holds when they were made from that very rotation (a read-only
    array, so a hit cannot serve another tilt's terms), else made, with the
    state's cached factor, and kept by inp for the next filter to step it."""
    start = state.tilt_rotation
    cached = inp._terms
    if cached[0] is not start:
        terms = _propagation_terms(start, inp.odom_increment, _odom_factor(state, inp.odom_cov))
        for a in terms[:2]:
            a.flags.writeable = False
        cached[:] = start, terms
    return cached[1]


def contacts_for_mode(contacts) -> list:
    """The contacts a step weighs with its mode's channels: the feet in contact."""
    return [c for c in contacts if c.in_contact]


def step(state: FilterState, inp: StepInput) -> FilterState:
    """Advance the filter by one four-support phase; mutates and returns state.

    Contacts with in_contact False are skipped (the input's layout holds the
    others). Those are weighed against the state's maps and likelihood with
    the channels of the filter's mode, all together: the particles' cos/sin
    pair moves them to world points, and each channel queries its map layer
    once for all of them. Their log-likelihoods are then added to the
    weights one contact at a time, in contact order. The class channel reads
    the scores init_filter had its layer make (likelihood.class_scores), as
    the cloud channel reads its field. The step starts from the state's
    tilt_rotation, and sets tilt and tilt_rotation to the input's tilt and
    rotation. The propagation terms come from the input when another filter
    made them from the same start rotation (_shared_terms); else the
    odometry covariance factor is cached in the state and recomputed, with
    the full symmetry and PSD checks, only when the covariance changes. A
    resample may change the particle count (_resample_indices); the step's
    diagnostics keep the count it carried.
    """
    n = state.n_particles
    inc = inp.odom_increment
    ws = state.workspace
    # a no-op unless the caller replaced the arrays with another count
    ws.resize(n)

    # propagate: the shared terms once, then 4 draws and one cos/sin pair per particle
    g, u, turn = _shared_terms(state, inp)
    state.rng.standard_normal(out=ws.draws)
    d = np.matmul(g, ws.draws, out=ws.delta)
    yaw = np.add(state.yaw, d[3], out=ws.yaw[_spare(ws.yaw, state.yaw)])
    yaw += turn
    np.cos(yaw, out=ws.heading[0])
    np.sin(yaw, out=ws.heading[1])
    np.add(d[:3], u[:, None], out=d[:3])
    p = planar_rotate_add(ws.heading, d, state.positions, ws.positions[_spare(ws.positions, state.positions)])
    state.positions, state.yaw = p, yaw
    # the next step starts from this input's attitude
    state.tilt, state.tilt_rotation = inp.tilt, inp.rotation

    # the first write of the weights moves them into the workspace
    lw = state.log_weights
    if inp.layout.size:
        for ll in contacts_log_likelihood(
            p, ws.heading, inp.layout, state.channels, state.maps, state.likelihood, ws.contacts
        ):
            lw = np.add(lw, ll, out=ws.log_weights)

    total = _logsumexp(lw, ws.scratch)
    if not -math.inf < total < math.inf:
        # every weight underflowed: reset rather than crash, and record it
        state.divergence_count += 1
        log.warning("step %d: all particle weights underflowed, resetting to uniform", len(state.diagnostics) + 1)
        lw = ws.log_weights
        lw.fill(-np.log(n))
    else:
        lw = np.subtract(lw, total, out=ws.log_weights)
    state.log_weights = lw

    w = np.exp(lw, out=ws.weights)
    ess = float(1.0 / np.square(w, out=ws.scratch).sum())
    if ess < RESAMPLE_FRAC * n:
        idx = _resample_indices(state, w)
        # the spare of each pair, picked before a new count resizes the views
        spare_p, spare_yaw = _spare(ws.positions, p), _spare(ws.yaw, yaw)
        ws.resize(len(idx))
        # the indices lie in [0, n): mode="clip" writes out unbuffered
        state.positions = p.take(idx, axis=1, out=ws.positions[spare_p], mode="clip")
        state.yaw = yaw.take(idx, out=ws.yaw[spare_yaw], mode="clip")
        state.log_weights = ws.log_weights
        state.log_weights.fill(-np.log(len(idx)))
        w = np.exp(state.log_weights, out=ws.weights)

    est, xy_std, branch = estimate_detail(state, inc, w)
    state.trajectory.append(est)
    state.diagnostics.append(StepDiagnostics(ess, xy_std, branch, n))
    return state


def run_filter(state: FilterState, inputs) -> FilterState:
    """Step the filter through a sequence of StepInputs; mutates and returns state."""
    for inp in inputs:
        step(state, inp)
    return state


def write_diagnostics_csv(state: FilterState, path) -> None:
    """Per-step diagnostics: ESS, xy spread, estimate branch, estimated pose."""
    line = "%d,%.17g,%.17g,%.17g,%s," + ",".join(["%.17g"] * len(POSE_COLUMNS)) + "\n"
    with open(path, "w") as f:
        f.write(",".join(("k", "ess", "xy_std_x", "xy_std_y", "branch", *POSE_COLUMNS)) + "\n")
        for k, d in enumerate(state.diagnostics, start=1):
            f.write(line % (k, d.ess, *d.xy_std.tolist(), d.branch, *state.trajectory[k].to_array().tolist()))

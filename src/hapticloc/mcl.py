"""Sequential Monte Carlo localization over foot-contact measurements.

Particles are SE(3) poses stored as component rows (positions (3, N),
scalar-last quaternions (4, N), each C-contiguous) with log-domain weights.
Each step propagates every particle by the odometry increment with body-frame
Gaussian noise, multiplies weights by the joint contact likelihood, resamples
systematically when the effective sample size drops below a fraction of N,
and appends a pose estimate.

The estimate is the weighted mean while the particle spread in x and y stays
below a threshold. Beyond it (ambiguous, typically multimodal sets) x, y, and
heading continue by dead reckoning from the previous estimate and only z is
taken from the particles, so the reported pose never teleports between modes.

The state owns its particle arrays. A FilterState allocates, once, every
particle-sized array a step writes (its _Workspace), and a step writes into
those, not into new arrays: the kernels take out=, and positions and quats
each alternate between two buffers, one read while the other is written. So
a step overwrites the arrays the state held before it; a caller that wants
a snapshot of positions, quats or log_weights copies it. A caller may still
replace those attributes with arrays of its own: the next step only reads
them, and writes its results into the workspace.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    Pose,
    compose,
    covariance_factor,
    quat_conjugate,
    quat_from_rotvec,
    quat_mul,
    quat_rotate,
    quat_to_rotvec,
)
from .likelihood import (
    MODES,
    ContactBuffers,
    ContactMeasurement,
    LikelihoodConfig,
    contacts_log_likelihood,
    require_layers,
)
from .maps import MapSet

log = logging.getLogger(__name__)


@dataclass
class StepInput:
    """Odometry increment with its 6x6 tangent covariance, plus foot contacts."""

    odom_increment: Pose
    odom_cov: np.ndarray
    contacts: list[ContactMeasurement]

    def __post_init__(self):
        self.odom_cov = np.asarray(self.odom_cov, dtype=float)
        if self.odom_cov.shape != (6, 6):
            raise ValueError(f"odometry covariance must be 6x6, got {self.odom_cov.shape}")
        # a non-finite input would turn every particle into nan without a trace
        for name, value in (
            ("odom_increment.position", self.odom_increment.position),
            ("odom_increment.quat", self.odom_increment.quat),
            ("odom_cov", self.odom_cov),
        ):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")


@dataclass
class StepDiagnostics:
    ess: float
    xy_std: np.ndarray
    branch: str


class _Workspace:
    """Every particle-sized array a step writes, for N particles.

    positions and quats are pairs of buffers: a kernel reads the state's
    current array and writes the other one of the pair (_spare).
    """

    def __init__(self, n: int):
        self.positions = (np.empty((3, n)), np.empty((3, n)))
        self.quats = (np.empty((4, n)), np.empty((4, n)))
        # the (N, 6) normal draws, their product with the covariance factor,
        # and that noise as component rows
        self.draws = np.empty((n, 6))
        self.noise = np.empty((n, 6))
        self.delta = np.empty((6, n))
        # a rotated vector and a rotation per particle
        self.vec = np.empty((3, n))
        self.rot = np.empty((4, n))
        self.log_weights = np.empty(n)
        self.weights = np.empty(n)
        self.scratch = np.empty(n)
        # the estimate's (N, k) copies for its weighted means
        self.columns = np.empty((n, 3))
        self.spread = np.empty((n, 2))
        self.contacts = ContactBuffers(n)


def _spare(pair, current):
    """The buffer of pair that current is not."""
    return pair[1] if current is pair[0] else pair[0]


@dataclass
class FilterState:
    """The particle set plus every setting of the run, bound once by init_filter.

    trajectory[0] is the prior mean and trajectory[k] the estimate after step
    k, whose diagnostics are diagnostics[k - 1].

    The state owns positions, quats and log_weights, and each step
    overwrites them in place (see the module docstring): copy one to keep it.
    """

    # component rows: positions (3, N) and quats (4, N), each C-contiguous
    positions: np.ndarray
    quats: np.ndarray
    log_weights: np.ndarray
    rng: np.random.Generator
    maps: MapSet
    likelihood: LikelihoodConfig
    # the likelihood channels of the filter's mode, a value of MODES
    channels: tuple[str, ...]
    resample_frac: float
    xy_std_threshold: float
    trajectory: list[Pose]
    diagnostics: list[StepDiagnostics] = field(default_factory=list)
    divergence_count: int = 0
    # the last odometry covariance step factored (a copy) and its factor
    odom_cov: np.ndarray | None = None
    odom_factor: np.ndarray | None = None
    workspace: _Workspace = field(init=False, repr=False)

    def __post_init__(self):
        self.workspace = _Workspace(self.n_particles)

    @property
    def n_particles(self) -> int:
        return len(self.log_weights)


def init_filter(
    prior_mean: Pose,
    prior_cov,
    maps: MapSet,
    likelihood: LikelihoodConfig,
    *,
    mode: str,
    n_particles: int,
    seed: int,
    resample_frac: float,
    xy_std_threshold: float,
) -> FilterState:
    """Sample the prior particle set; the trajectory starts at the prior mean.

    Binds every setting of the run: the maps and likelihood every step
    weighs its contacts against, and the channels of mode, a key of MODES.
    A mode whose channels need a layer maps lacks raises here.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {tuple(MODES)}")
    require_layers(MODES[mode], maps.layers)
    if n_particles < 1:
        raise ValueError("need at least one particle")
    if not 0.0 <= resample_frac <= 1.0:
        raise ValueError("resample_frac must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    factor = covariance_factor(prior_cov)
    # the draws and their matmul as (N, 6) rows, then one copy to component rows
    delta = np.ascontiguousarray((rng.standard_normal((n_particles, 6)) @ factor.T).T)
    positions = prior_mean.position[:, None] + quat_rotate(prior_mean.quat, delta[:3])
    quats = quat_mul(prior_mean.quat, quat_from_rotvec(delta[3:]))
    return FilterState(
        positions=positions,
        quats=quats,
        log_weights=np.full(n_particles, -np.log(n_particles)),
        rng=rng,
        maps=maps,
        likelihood=likelihood,
        channels=MODES[mode],
        resample_frac=float(resample_frac),
        xy_std_threshold=float(xy_std_threshold),
        trajectory=[prior_mean],
    )


def systematic_resample_indices(weights, rng: np.random.Generator) -> np.ndarray:
    """Systematic resampling: N evenly spaced pointers with one shared random offset.

    Unbiased: particle i is drawn N * weights[i] times in expectation.
    """
    weights = np.asarray(weights, dtype=float)
    n = len(weights)
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    pointers = (rng.random() + np.arange(n)) / n
    return np.searchsorted(cum, pointers, side="right").clip(max=n - 1)


def _logsumexp(a, scratch=None):
    """log(sum(exp(a))); scratch, an array of a's shape, holds the exponentials."""
    m = np.max(a)
    if not np.isfinite(m):
        return m
    e = np.subtract(a, m, out=scratch)
    return m + np.log(np.sum(np.exp(e, out=e)))


def estimate_detail(state: FilterState, increment: Pose):
    """(pose, xy_std, branch): weighted mean, or the dead-reckoning fallback.

    The full branch averages positions with the weights and averages orientation
    in the tangent space linearized at the highest-weight particle. The z-only
    branch composes the previous estimate with the step's odometry increment
    for x, y, and orientation, and takes just z from the weighted mean.
    """
    ws = state.workspace
    lw = state.log_weights
    w = np.subtract(lw, _logsumexp(lw, ws.scratch), out=ws.weights)
    np.exp(w, out=w)
    # the weighted means multiply w by (N, k) copies, the matmul the golden
    # outputs were made with; (k, N) @ w takes another BLAS path
    positions = ws.columns
    np.copyto(positions, state.positions.T)
    mean_p = w @ positions
    spread = np.subtract(positions[:, :2], mean_p[:2], out=ws.spread)
    xy_std = np.sqrt(w @ np.square(spread, out=spread))
    if np.all(xy_std <= state.xy_std_threshold):
        ref = state.quats[:, int(np.argmax(lw))]
        dq = quat_mul(quat_conjugate(ref), state.quats, out=ws.rot)
        rotvecs = ws.columns
        np.copyto(rotvecs, quat_to_rotvec(dq, out=ws.vec).T)
        q = quat_mul(ref, quat_from_rotvec(w @ rotvecs))
        return Pose(mean_p, q), xy_std, "full"
    base = compose(state.trajectory[-1], increment)
    return Pose([base.position[0], base.position[1], mean_p[2]], base.quat), xy_std, "z-only"


def _odom_factor(state: FilterState, cov) -> np.ndarray:
    """covariance_factor(cov), factored again only when cov differs bitwise
    from the covariance the cached factor came from."""
    cov = np.asarray(cov, dtype=float)
    cached = state.odom_cov
    if cached is None or cached.shape != cov.shape or cached.tobytes() != cov.tobytes():
        state.odom_factor = covariance_factor(cov)
        # a copy: the caller may mutate its array in place between steps
        state.odom_cov = cov.copy()
    return state.odom_factor


def contacts_for_mode(contacts) -> list:
    """The contacts a step weighs with its mode's channels: the feet in contact."""
    return [c for c in contacts if c.in_contact]


def step(state: FilterState, inp: StepInput) -> FilterState:
    """Advance the filter by one four-support phase; mutates and returns state.

    Contacts with in_contact False are skipped (contacts_for_mode). The
    others are weighed against the state's maps and likelihood with the
    channels of the filter's mode, all together: one quaternion call moves
    them to world points, and each channel queries its map layer once for
    all of them. Their log-likelihoods are then added to the weights one
    contact at a time, in contact order. The odometry covariance factor is
    cached in the state and recomputed, with the full symmetry and PSD
    checks, only when the covariance changes.
    """
    n = state.n_particles
    inc = inp.odom_increment
    ws = state.workspace

    # propagate: particle o increment, then right-perturbation noise
    factor = _odom_factor(state, inp.odom_cov)
    state.rng.standard_normal(out=ws.draws)
    np.copyto(ws.delta, np.matmul(ws.draws, factor.T, out=ws.noise).T)
    p, q = state.positions, state.quats
    p = np.add(p, quat_rotate(q, inc.position, out=ws.vec), out=_spare(ws.positions, p))
    q = quat_mul(q, inc.quat, out=_spare(ws.quats, q))
    p = np.add(p, quat_rotate(q, ws.delta[:3], out=ws.vec), out=_spare(ws.positions, p))
    q = quat_mul(q, quat_from_rotvec(ws.delta[3:], out=ws.rot), out=_spare(ws.quats, q))
    state.positions, state.quats = p, q

    # the first write of the weights moves them into the workspace
    lw = state.log_weights
    active = contacts_for_mode(inp.contacts)
    if active:
        for ll in contacts_log_likelihood(
            p, q, active, state.channels, state.maps, state.likelihood, ws.contacts
        ):
            lw = np.add(lw, ll, out=ws.log_weights)

    total = _logsumexp(lw, ws.scratch)
    if not np.isfinite(total):
        # every weight underflowed: reset rather than crash, and record it
        state.divergence_count += 1
        log.warning("step %d: all particle weights underflowed, resetting to uniform", len(state.diagnostics) + 1)
        lw = ws.log_weights
        lw.fill(-np.log(n))
    else:
        lw = np.subtract(lw, total, out=ws.log_weights)
    state.log_weights = lw

    w = np.exp(lw, out=ws.weights)
    ess = float(1.0 / np.sum(np.square(w, out=ws.scratch)))
    if ess < state.resample_frac * n:
        idx = systematic_resample_indices(w, state.rng)
        # the indices lie in [0, n): mode="clip" writes out unbuffered
        state.positions = p.take(idx, axis=1, out=_spare(ws.positions, p), mode="clip")
        state.quats = q.take(idx, axis=1, out=_spare(ws.quats, q), mode="clip")
        lw.fill(-np.log(n))

    est, xy_std, branch = estimate_detail(state, inc)
    state.trajectory.append(est)
    state.diagnostics.append(StepDiagnostics(ess, xy_std, branch))
    return state


def run_filter(state: FilterState, inputs) -> FilterState:
    """Step the filter through a sequence of StepInputs; mutates and returns state."""
    for inp in inputs:
        step(state, inp)
    return state


def write_diagnostics_csv(state: FilterState, path) -> None:
    """Per-step diagnostics: ESS, xy spread, estimate branch, estimated pose."""
    with open(path, "w") as f:
        f.write("k,ess,xy_std_x,xy_std_y,branch,x,y,z,qx,qy,qz,qw\n")
        for k, d in enumerate(state.diagnostics, start=1):
            pose = ",".join(format(v, ".17g") for v in state.trajectory[k].to_array())
            f.write(f"{k},{d.ess:.17g},{d.xy_std[0]:.17g},{d.xy_std[1]:.17g},{d.branch},{pose}\n")

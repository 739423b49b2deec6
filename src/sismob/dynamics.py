"""Deterministic continuum dynamics.

The coupled system on n regions:

    dp/dt = (B - D - L(x)) p - diag(p) B p      (infected fractions)
    dx/dt = Q^T x                               (population fractions)

integrated jointly with classic fixed-step RK4. The infected-fraction
box [0,1]^n is invariant for the exact flow; the integrator clips
floating-point drift up to 1e-9 and treats anything larger as a
step-size failure.

The x-flow is linear and does not depend on p, so each RK4 stage of x
is a fixed polynomial in z = dt Q^T applied to x: 1 + z/2,
1 + z/2 + z^2/4, 1 + z + z^2/2 + z^3/4 and the full R(z). Their radii
of absolute monotonicity are 2, 1, 2/3 and 1 (Bolley & Crouzeix 1978;
Kraaijevanger 1991), so while dt * max_i nu_i <= 2/3 every stage maps
positive x to positive x. Inside that bound the stages go unchecked;
above it every stage is checked for a nonpositive entry.

Each right-hand side applies Q^T twice. The product is dense, or, when
Q has few enough nonzeros for its size (`_transpose`), a sum over the
generator's out-edges (`mobility.out_edges`); the form is chosen once
per `integrate` or `limit_state` call. Every graph with n <= 64, so
every bundled figure, takes the dense product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sismob.errors import PopulationStepFailure, StateEscapedBox
from sismob.mobility import GeneratorMatrix, PopulationDistribution, _readonly, out_edges
from sismob.spectral import EpidemicParams

BOX_SLACK = 1e-9
DEFAULT_DT = 0.01
DEFAULT_T_MAX = 500.0
# Measured per Q^T product with 1 BLAS thread. While the dense Q^T fits
# in a core's L2 cache (n < 512, 2 MB), lines, stars and cycles break even
# at n^2 / nonzeros = 64; a complete graph at n = 300 is 29x slower on the
# edge list. From n = 512 on the dense product slows, and random chains
# break even at a ratio of 11-18: at 20 the edge list is 1.2-1.6x faster
# at n = 512-2000, and a line, ring or star at n = 1000 is 14-21x faster.
EDGE_LIST_DENSITY = 64
EDGE_LIST_DENSITY_LARGE = 20
EDGE_LIST_LARGE_N = 512
# the smallest radius of absolute monotonicity among RK4's stage polynomials
POSITIVE_STEP_BOUND = 2.0 / 3.0
# limit_state stops once ||dp||_inf + ||dx||_inf falls below this
LIMIT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ModelState:
    """Infected fractions p in [0,1]^n plus population fractions x."""

    p: np.ndarray
    x: PopulationDistribution

    def __post_init__(self):
        object.__setattr__(self, "p", _readonly(np.atleast_1d(self.p)))
        if self.p.shape != (self.x.n,):
            raise ValueError(f"p has shape {self.p.shape}, expected ({self.x.n},)")
        if np.any(self.p < 0.0) or np.any(self.p > 1.0):
            raise ValueError("infected fractions must lie in [0, 1]")

    @property
    def n(self) -> int:
        return self.x.n


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled states of one integration run. `p` and `x` are (m, n)
    arrays aligned with `times`; `clips` counts steps where floating-point
    drift outside [0,1] (within the 1e-9 slack) was clipped back."""

    times: np.ndarray
    p: np.ndarray
    x: np.ndarray
    clips: int = 0

    def __post_init__(self):
        for name in ("times", "p", "x"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        if not (len(self.times) == len(self.p) == len(self.x)):
            raise ValueError("times, p, x must have matching lengths")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("sample times must be strictly increasing")

    def state(self, k: int) -> ModelState:
        return ModelState(p=self.p[k], x=PopulationDistribution(x=self.x[k]))

    def final(self) -> ModelState:
        return self.state(len(self.times) - 1)


class _EdgeListTranspose:
    """Q^T as a product over the generator's out-edges:
    (Q^T y)_j = sum over edges i -> j of q_ij y_i, minus nu_j y_j."""

    __slots__ = ("src", "dst", "rate", "nu", "n")

    def __init__(self, g: GeneratorMatrix):
        self.src, self.dst, self.rate = out_edges(g)
        self.nu = g.nu
        self.n = g.n

    def __matmul__(self, y):
        return np.bincount(self.dst, self.rate * y[self.src], minlength=self.n) - self.nu * y


def _transpose(g: GeneratorMatrix):
    """Q^T as an edge list when Q has fewer than n^2 / density nonzeros
    (its E edges plus the diagonal), else as a dense copy. The density is
    EDGE_LIST_DENSITY below EDGE_LIST_LARGE_N nodes and
    EDGE_LIST_DENSITY_LARGE from there on."""
    sparse = _EdgeListTranspose(g)
    density = EDGE_LIST_DENSITY if g.n < EDGE_LIST_LARGE_N else EDGE_LIST_DENSITY_LARGE
    if density * (sparse.src.size + g.n) < g.n * g.n:
        return sparse
    return g.q.T.copy()


def _rhs(p, x, qt, bd, beta):
    """Derivatives without validation; qt = _transpose(g), bd = beta - delta.

    The coupling term L(x) p is evaluated as (p * (Q^T x) - Q^T (x p)) / x,
    which avoids materializing the n-by-n Laplacian at every stage.
    """
    qtx = qt @ x
    dp = bd * p - beta * p * p - (p * qtx - qt @ (x * p)) / x
    return dp, qtx


def rhs(state: ModelState, params: EpidemicParams, g: GeneratorMatrix):
    """(dp, dx) for the coupled system at one state."""
    if params.n != g.n or state.n != g.n:
        raise ValueError("state, params, and generator sizes must agree")
    # state.x is a PopulationDistribution, so x is already strictly positive
    return _rhs(state.p, state.x.x, _transpose(g), params.beta - params.delta, params.beta)


def _positive_step_limit(g: GeneratorMatrix, dt: float) -> float | None:
    """None when dt is within POSITIVE_STEP_BOUND / max_i nu_i, so that
    every RK4 stage stays positive; otherwise that largest such dt."""
    nu_max = float(g.nu.max())
    if dt * nu_max <= POSITIVE_STEP_BOUND:
        return None
    return POSITIVE_STEP_BOUND / nu_max


def _check_stage(x: np.ndarray, t: float, dt: float, dt_safe: float):
    # the exact x-flow keeps every entry positive, so a nonpositive stage
    # or result means dt is outside RK4's stability interval
    if np.any(x <= 0.0):
        raise PopulationStepFailure(t, dt, int(np.flatnonzero(x <= 0.0)[0]), dt_safe)


def _rk4_step(p, x, t, dt, qt, bd, beta, dt_safe):
    """One RK4 step from time t; x must be strictly positive. Every stage
    is checked for positivity unless dt_safe is None (see
    `_positive_step_limit`)."""
    checked = dt_safe is not None
    k1p, k1x = _rhs(p, x, qt, bd, beta)
    x2 = x + (0.5 * dt) * k1x
    if checked:
        _check_stage(x2, t, dt, dt_safe)
    k2p, k2x = _rhs(p + (0.5 * dt) * k1p, x2, qt, bd, beta)
    x3 = x + (0.5 * dt) * k2x
    if checked:
        _check_stage(x3, t, dt, dt_safe)
    k3p, k3x = _rhs(p + (0.5 * dt) * k2p, x3, qt, bd, beta)
    x4 = x + dt * k3x
    if checked:
        _check_stage(x4, t, dt, dt_safe)
    k4p, k4x = _rhs(p + dt * k3p, x4, qt, bd, beta)
    p_new = p + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    x_new = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    if checked:
        _check_stage(x_new, t, dt, dt_safe)
    return p_new, x_new


def _police_box(p: np.ndarray, t: float) -> tuple[np.ndarray, bool]:
    lo = float(p.min())
    hi = float(p.max())
    # written so that NaN, which fails every comparison, escapes the box
    if not (lo >= -BOX_SLACK and hi <= 1.0 + BOX_SLACK):
        node = int(np.argmin(p)) if lo < -BOX_SLACK else int(np.argmax(p))
        raise StateEscapedBox(t, node, float(p[node]))
    if lo < 0.0 or hi > 1.0:
        return np.clip(p, 0.0, 1.0), True
    return p, False


def integrate(
    initial: ModelState,
    params: EpidemicParams,
    g: GeneratorMatrix,
    t_end: float,
    dt: float = DEFAULT_DT,
    output_stride: int = 1,
) -> Trajectory:
    """Fixed-step RK4 from t = 0 to exactly t_end.

    States are recorded at t = 0, every `output_stride` full steps, and
    at t_end (the last step is shortened to land on it exactly).
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end <= 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if output_stride < 1:
        raise ValueError("output_stride must be at least 1")
    if params.n != g.n or initial.n != g.n:
        raise ValueError("state, params, and generator sizes must agree")

    qt = _transpose(g)
    bd = params.beta - params.delta
    beta = params.beta
    # the shortened last step, rem < dt, is within the bound whenever dt is
    dt_safe = _positive_step_limit(g, dt)

    n_full = int(np.floor(t_end / dt + 1e-9))
    rem = t_end - n_full * dt
    if rem <= 1e-12 * max(1.0, t_end):
        rem = 0.0

    p = initial.p.copy()
    x = initial.x.x.copy()
    times = [0.0]
    ps = [p.copy()]
    xs = [x.copy()]
    clips = 0

    # a step that overflows leaves inf or NaN in p, which _police_box
    # reports as StateEscapedBox, so numpy need not warn about it too
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_full + 1):
            p, x = _rk4_step(p, x, (k - 1) * dt, dt, qt, bd, beta, dt_safe)
            t = k * dt
            p, clipped = _police_box(p, t)
            clips += clipped
            if k % output_stride == 0 and not (k == n_full and rem == 0.0):
                times.append(t)
                ps.append(p.copy())
                xs.append(x.copy())
        if rem > 0.0:
            p, x = _rk4_step(p, x, n_full * dt, rem, qt, bd, beta, dt_safe)
            p, clipped = _police_box(p, t_end)
            clips += clipped
    times.append(t_end)
    ps.append(p.copy())
    xs.append(x.copy())

    return Trajectory(
        times=np.array(times),
        p=np.vstack(ps),
        x=np.vstack(xs),
        clips=clips,
    )


@dataclass(frozen=True)
class LimitResult:
    """Near-equilibrium state reached by long integration; `converged`
    is False when the derivative norm was still above tolerance at t_max."""

    state: ModelState
    converged: bool
    t: float


def limit_state(
    g: GeneratorMatrix,
    params: EpidemicParams,
    initial: ModelState,
    dt: float = DEFAULT_DT,
    t_max: float = DEFAULT_T_MAX,
) -> LimitResult:
    """Integrate until ||dp||_inf + ||dx||_inf < LIMIT_TOL or t_max is
    reached.

    The derivative norm is checked once per unit-time chunk, so the
    returned t is a chunk boundary.
    """
    if params.n != g.n or initial.n != g.n:
        raise ValueError("state, params, and generator sizes must agree")
    qt = _transpose(g)
    bd = params.beta - params.delta
    beta = params.beta
    dt_safe = _positive_step_limit(g, dt)

    chunk_steps = max(1, int(round(1.0 / dt)))
    p = initial.p.copy()
    x = initial.x.x.copy()
    t = 0.0
    converged = False
    # as in integrate, _police_box reports an overflowed step
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t_max - 1e-12:
            for _ in range(chunk_steps):
                p, x = _rk4_step(p, x, t, dt, qt, bd, beta, dt_safe)
                t += dt
                p, _clipped = _police_box(p, t)
            dp, dx = _rhs(p, x, qt, bd, beta)
            if float(np.abs(dp).max()) + float(np.abs(dx).max()) < LIMIT_TOL:
                converged = True
                break
    return LimitResult(
        state=ModelState(p=p, x=PopulationDistribution(x=x / x.sum())),
        converged=converged,
        t=t,
    )

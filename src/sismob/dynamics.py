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

A moving-x step (`_rk4_step`) steps p and x together and returns the
new p, the new x and Q^T x. x's step depends on x alone, so once a step
leaves x bit-for-bit unchanged every later step repeats it: `_Stepper`,
which takes every step of `integrate` and `limit_state`, then stops
stepping x and builds the linear part of the p-flow at that x once,
A = diag(bd - (Q^T x) / x) + diag(1/x) Q^T diag(x) (`_p_operator`).
Every later full step is a fixed-x step, RK4 on dp = A p - beta p p
(`_rk4_fixed_step`): about 29 numpy calls where the p stages of a
moving-x step make about 55. The shortened last step is a moving-x
step. x stays bit-identical to stepping both together, and so does p
through the step that fixes x; after it, p differs from the moving-x
step by roundoff, at most 5.4e-14 of a row's largest entry on the
bundled figures. Whether x reaches such a fixed point is seen in the
state alone: from the stationary distribution it does at once on every
bundled figure. On stars at n = 1000 with nu ~ U(0.5, 1.5) it does
after 0 to 146 of 300 steps (24 instances), because the
detailed-balance v leaves Q^T v at roundoff.

Each stage's dp applies Q^T once more, to x p. The product is dense, or, when
Q has few enough nonzeros for its size (`_transpose` counts them before
it builds either form), a sum over the generator's out-edges
(`mobility.out_edges`, held as an `_EdgeList`). A takes the same form.
Every graph with n <= 64, so every bundled figure, takes the dense
product.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from sismob.errors import NumericalError
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
        # written so that NaN, which fails every comparison, is rejected
        if not np.all((self.p >= 0.0) & (self.p <= 1.0)):
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


class _EdgeList:
    """An n-by-n operator held as its off-diagonal entries w on the edges
    src -> dst and its diagonal d: (M y)_j = sum over edges i -> j of
    w_ij y_i, plus d_j y_j. Q^T is the instance (rate, -nu) over the
    generator's out-edges."""

    __slots__ = ("src", "dst", "w", "d", "n")

    def __init__(self, src, dst, w, d):
        self.src, self.dst, self.w, self.d = src, dst, w, d
        self.n = d.size

    def __matmul__(self, y):
        return np.bincount(self.dst, self.w * y[self.src], minlength=self.n) + self.d * y


def _transpose(g: GeneratorMatrix):
    """Q^T as an edge list when Q has fewer than n^2 / density nonzeros
    (its E edges plus the diagonal), else as a dense copy. The density is
    EDGE_LIST_DENSITY below EDGE_LIST_LARGE_N nodes and
    EDGE_LIST_DENSITY_LARGE from there on."""
    density = EDGE_LIST_DENSITY if g.n < EDGE_LIST_LARGE_N else EDGE_LIST_DENSITY_LARGE
    if density * (np.count_nonzero(g.q > 0.0) + g.n) < g.n * g.n:
        src, dst, rate = out_edges(g)
        return _EdgeList(src, dst, rate, -g.nu)
    return g.q.T.copy()


def _dp(p, x, qtx, qt, bd, beta):
    """dp at (p, x) given qtx = Q^T x; qt = _transpose(g), bd = beta - delta.

    The coupling term L(x) p is evaluated as (p * (Q^T x) - Q^T (x p)) / x,
    which avoids materializing the n-by-n Laplacian at every stage.
    """
    return bd * p - beta * p * p - (p * qtx - qt @ (x * p)) / x


def _rhs(p, x, qt, bd, beta):
    """Derivatives (dp, dx) without validation."""
    qtx = qt @ x
    return _dp(p, x, qtx, qt, bd, beta), qtx


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
        node = int(np.flatnonzero(x <= 0.0)[0]) + 1
        raise NumericalError(
            f"RK4 step of dt = {dt} from t = {t} drove the population fraction "
            f"at node {node} to a nonpositive value; step size too large "
            f"(dt <= 2/(3 max nu) = {dt_safe:.6g} keeps every stage positive)"
        )


def _rk4_step(p, x, t, dt, qt, bd, beta, dt_safe):
    """One RK4 step of size dt of p and x together from time t; x must be
    strictly positive. Returns (p_new, x_new, Q^T x). Every x stage is
    checked for positivity unless dt_safe is None (see
    `_positive_step_limit`)."""
    checked = dt_safe is not None
    qx1 = qt @ x
    x2 = x + (0.5 * dt) * qx1
    if checked:
        _check_stage(x2, t, dt, dt_safe)
    qx2 = qt @ x2
    x3 = x + (0.5 * dt) * qx2
    if checked:
        _check_stage(x3, t, dt, dt_safe)
    qx3 = qt @ x3
    x4 = x + dt * qx3
    if checked:
        _check_stage(x4, t, dt, dt_safe)
    qx4 = qt @ x4
    x_new = x + (dt / 6.0) * (qx1 + 2.0 * qx2 + 2.0 * qx3 + qx4)
    if checked:
        _check_stage(x_new, t, dt, dt_safe)
    k1 = _dp(p, x, qx1, qt, bd, beta)
    k2 = _dp(p + (0.5 * dt) * k1, x2, qx2, qt, bd, beta)
    k3 = _dp(p + (0.5 * dt) * k2, x3, qx3, qt, bd, beta)
    k4 = _dp(p + dt * k3, x4, qx4, qt, bd, beta)
    return p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), x_new, qx1


def _p_operator(qt, x, qtx, bd):
    """The linear part of dp at a fixed x, in the form of qt:
    A = diag(bd - qtx / x) + diag(1 / x) Q^T diag(x), so that
    dp = A p - beta p p; qtx = Q^T x."""
    d = bd - qtx / x
    if isinstance(qt, _EdgeList):
        return _EdgeList(qt.src, qt.dst, qt.w * x[qt.src] / x[qt.dst], d + qt.d)
    a = qt * x
    a /= x[:, None]
    a.flat[:: x.size + 1] += d
    return a


def _rk4_fixed_step(p, dt, a, beta):
    """One RK4 step of size dt of dp = A p - beta p p, the p-flow once x
    is fixed; a = _p_operator at that x."""
    k1 = a @ p - beta * p * p
    y = p + (0.5 * dt) * k1
    k2 = a @ y - beta * y * y
    y = p + (0.5 * dt) * k2
    k3 = a @ y - beta * y * y
    y = p + dt * k3
    k4 = a @ y - beta * y * y
    return p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _require_positive(**values):
    # written so that NaN, which fails every comparison, is rejected too
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")


def _police_box(p: np.ndarray, t: float) -> tuple[np.ndarray, bool]:
    lo = float(p.min())
    hi = float(p.max())
    # written so that NaN, which fails every comparison, escapes the box
    if not (lo >= -BOX_SLACK and hi <= 1.0 + BOX_SLACK):
        node = int(np.argmin(p)) if lo < -BOX_SLACK else int(np.argmax(p))
        raise NumericalError(
            f"p at node {node + 1} = {float(p[node])} left [0, 1] at t = {t}; "
            "step size too large"
        )
    if lo < 0.0 or hi > 1.0:
        return np.clip(p, 0.0, 1.0), True
    return p, False


class _Stepper:
    """The RK4 step of one integrate or limit_state call, with Q^T, beta -
    delta, beta and dt's stage bound fixed once. Once a full step leaves x
    bit-for-bit unchanged, `fixed` holds the linear part of the p-flow at
    that x (`_p_operator`) and later full steps step p alone with it.
    `clips` counts the steps whose p was clipped back into the box. As a
    context it silences numpy's overflow warnings: an overflowed step
    leaves inf or NaN in p, which _police_box reports as NumericalError."""

    __slots__ = ("qt", "bd", "beta", "dt", "dt_safe", "fixed", "clips", "quiet")

    def __init__(self, initial: ModelState, params: EpidemicParams, g: GeneratorMatrix, dt: float):
        if params.n != g.n or initial.n != g.n:
            raise ValueError("state, params, and generator sizes must agree")
        self.qt = _transpose(g)
        self.bd = params.beta - params.delta
        self.beta = params.beta
        self.dt = dt
        # a shortened step h < dt is within the bound whenever dt is
        self.dt_safe = _positive_step_limit(g, dt)
        self.fixed = None
        self.clips = 0
        self.quiet = np.errstate(over="ignore", invalid="ignore")

    def __enter__(self):
        self.quiet.__enter__()
        return self

    def __exit__(self, *exc):
        self.quiet.__exit__(*exc)

    def step(self, p, x, t, t_new, h=None):
        """(p, x) one step on from time t, with the box checked at t_new:
        a step of dt, or of h (a shortened step), which always steps x."""
        full = h is None
        if full and self.fixed is not None:
            p = _rk4_fixed_step(p, self.dt, self.fixed, self.beta)
        else:
            h = self.dt if full else h
            p, x_new, qtx = _rk4_step(p, x, t, h, self.qt, self.bd, self.beta, self.dt_safe)
            if full and np.array_equal(x_new, x):
                self.fixed = _p_operator(self.qt, x, qtx, self.bd)
            x = x_new
        p, clipped = _police_box(p, t_new)
        self.clips += clipped
        return p, x

    def rhs(self, p, x):
        return _rhs(p, x, self.qt, self.bd, self.beta)


def integrate(
    initial: ModelState,
    params: EpidemicParams,
    g: GeneratorMatrix,
    t_end: float,
    dt: float = DEFAULT_DT,
    output_stride: int = 1,
) -> Trajectory:
    """Fixed-step RK4 from t = 0 to exactly t_end.

    States are recorded at t = 0, every `output_stride` (an integer) full
    steps, and at t_end (the last step is shortened to land on it exactly).
    """
    _require_positive(dt=dt, t_end=t_end)
    output_stride = operator.index(output_stride)
    if output_stride < 1:
        raise ValueError("output_stride must be at least 1")
    stepper = _Stepper(initial, params, g, dt)

    n_full = int(np.floor(t_end / dt + 1e-9))
    rem = t_end - n_full * dt
    if rem <= 1e-12 * max(1.0, t_end):
        rem = 0.0

    # nothing writes to p or x once made, and np.vstack copies the records
    p, x = initial.p, initial.x.x
    times, ps, xs = [0.0], [p], [x]
    with stepper:
        for k in range(1, n_full + 1):
            p, x = stepper.step(p, x, (k - 1) * dt, k * dt)
            if k % output_stride == 0 and not (k == n_full and rem == 0.0):
                times.append(k * dt)
                ps.append(p)
                xs.append(x)
        if rem > 0.0:
            p, x = stepper.step(p, x, n_full * dt, t_end, rem)
    times.append(t_end)
    ps.append(p)
    xs.append(x)
    return Trajectory(times=np.array(times), p=np.vstack(ps), x=np.vstack(xs),
                      clips=stepper.clips)


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
    _require_positive(dt=dt, t_max=t_max)
    stepper = _Stepper(initial, params, g, dt)

    chunk_steps = max(1, int(round(1.0 / dt)))
    p, x = initial.p, initial.x.x
    t, converged = 0.0, False
    with stepper:
        while t < t_max - 1e-12:
            for _ in range(chunk_steps):
                t_old, t = t, t + dt
                p, x = stepper.step(p, x, t_old, t)
            dp, dx = stepper.rhs(p, x)
            if float(np.abs(dp).max()) + float(np.abs(dx).max()) < LIMIT_TOL:
                converged = True
                break
    state = ModelState(p=p, x=PopulationDistribution(x=x / x.sum()))
    return LimitResult(state=state, converged=converged, t=t)

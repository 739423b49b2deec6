"""Eigenstructure and stability classification.

Everything the long-run verdict needs lives here: the spectral abscissa
of Metzler matrices via shifted power iteration, the per-instance
`Analysis` (v, L* and mu, computed once), the basic reproduction
number, the weighted-Laplacian eigenvalue lambda_2, and the four
stability conditions built from it.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from sismob.errors import (
    NoConvergence,
    NotIrreducible,
    NotMetzler,
    SingularMMatrix,
)
from sismob.mobility import (
    GeneratorMatrix,
    PopulationDistribution,
    _readonly,
    mobility_laplacian,
    stationary_distribution,
    strongly_connected,
)

POWER_MAX_ITER = 100_000
POWER_RTOL = 1e-12

DISEASE_FREE_STABLE = "DiseaseFreeStable"
ENDEMIC_STABLE = "EndemicStable"


@dataclass(frozen=True)
class EpidemicParams:
    """Per-node infection rates beta (> 0) and recovery rates delta (>= 0)."""

    beta: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beta", _readonly(np.atleast_1d(self.beta)))
        object.__setattr__(self, "delta", _readonly(np.atleast_1d(self.delta)))
        if self.beta.shape != self.delta.shape or self.beta.ndim != 1:
            raise ValueError(
                f"beta {self.beta.shape} and delta {self.delta.shape} must be "
                "vectors of equal length"
            )
        if np.any(self.beta <= 0.0):
            raise ValueError("all infection rates beta_i must be strictly positive")
        if np.any(self.delta < 0.0):
            raise ValueError("recovery rates delta_i must be nonnegative")

    @classmethod
    def of(cls, n: int, beta, delta) -> "EpidemicParams":
        """Broadcast scalar or vector rates to length n."""
        b = np.broadcast_to(np.asarray(beta, dtype=float), (n,)).copy()
        d = np.broadcast_to(np.asarray(delta, dtype=float), (n,)).copy()
        return cls(beta=b, delta=d)

    @property
    def n(self) -> int:
        return self.beta.shape[0]


@dataclass(frozen=True)
class PerronPair:
    """Dominant real eigenvalue with its strictly positive eigenvector
    (unit 1-norm)."""

    value: float
    vector: np.ndarray
    iterations: int = 0

    def __post_init__(self):
        object.__setattr__(self, "vector", _readonly(self.vector))


@dataclass(frozen=True)
class StabilityReport:
    mu: float
    r0: float | None
    lambda2: float | None
    m: float
    m_lower: float | None
    verdict: str
    condition_i: bool
    condition_ii: bool
    condition_iii: bool
    condition_iv: bool
    condition_iv_margin: float

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2)


def _as_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def spectral_abscissa(m) -> PerronPair:
    """Dominant eigenvalue of an irreducible Metzler matrix.

    Shift by c = 1 + max_i |m_ii| so the matrix becomes nonnegative with a
    strictly positive diagonal (hence primitive when irreducible), run
    power iteration from the uniform vector, and unshift. The shifted
    dominant eigenvalue is at least 1 by a row-sum bound, so the relative
    residual test below cannot divide by something tiny.
    """
    m = _as_square(m)
    n = m.shape[0]
    off = m.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off < 0.0):
        raise NotMetzler("matrix has a negative off-diagonal entry")
    if not strongly_connected(off > 0.0):
        raise NotIrreducible("spectral_abscissa needs an irreducible matrix")

    c = 1.0 + float(np.abs(np.diag(m)).max(initial=0.0))
    shifted = m + c * np.eye(n)
    y = np.full(n, 1.0 / n)
    y /= np.linalg.norm(y)
    lam = 0.0
    for it in range(1, POWER_MAX_ITER + 1):
        z = shifted @ y
        lam = float(y @ z)
        if np.linalg.norm(z - lam * y) <= POWER_RTOL * lam:
            break
        y = z / np.linalg.norm(z)
    else:
        raise NoConvergence("power iteration for spectral abscissa", POWER_MAX_ITER)
    y = np.abs(y)
    y /= y.sum()
    return PerronPair(value=lam - c, vector=y, iterations=it)


@dataclass(frozen=True)
class Analysis:
    """What the verdict, the endemic solve and the default initial state
    share for one instance: the stationary distribution v, L* = L(v), the
    Jacobian B - D - L* at the disease-free state, and its Perron pair,
    whose value is the stability margin mu."""

    params: EpidemicParams
    g: GeneratorMatrix
    v: PopulationDistribution
    lstar: np.ndarray
    jac: np.ndarray
    mu: PerronPair


def analyze(params: EpidemicParams, g: GeneratorMatrix) -> Analysis:
    """Solve v, L* and mu once for the instance (params, g)."""
    if params.n != g.n:
        raise ValueError(f"params length {params.n} does not match generator n {g.n}")
    v = stationary_distribution(g)
    lstar = mobility_laplacian(g, v)
    jac = np.diag(params.beta - params.delta) - lstar
    jac.setflags(write=False)
    return Analysis(params=params, g=g, v=v, lstar=lstar, jac=jac,
                    mu=spectral_abscissa(jac))


def next_generation_matrix(params: EpidemicParams, lstar) -> np.ndarray:
    """A = (L* + D)^{-1} B, the nonnegative matrix whose spectral radius
    is the reproduction number. Singular exactly when every recovery
    rate is zero (then L* + D inherits the Laplacian's zero row sums)."""
    l = _as_square(lstar)
    if np.all(params.delta == 0.0):
        raise SingularMMatrix(
            "L* + D is singular because all recovery rates are zero; "
            "the reproduction number is undefined"
        )
    return np.linalg.solve(l + np.diag(params.delta), np.diag(params.beta))


def reproduction_number(params: EpidemicParams, lstar) -> float:
    """rho((L* + D)^{-1} B) via Perron iteration on the nonnegative
    next-generation matrix."""
    a = next_generation_matrix(params, lstar)
    return spectral_abscissa(a).value


def lambda2_weighted(lstar, v) -> float:
    """Second-smallest eigenvalue of S = (W L* + L*^T W)/2 where
    W = diag(v / max_i v_i). The smallest eigenvalue of S is 0.
    """
    vv = v.x if isinstance(v, PopulationDistribution) else np.asarray(v, dtype=float)
    l = _as_square(lstar)
    if l.shape[0] < 2:
        raise ValueError("lambda2 needs at least 2 nodes")
    w = vv / vv.max()
    s = 0.5 * (w[:, None] * l + l.T * w[None, :])
    eig = np.linalg.eigvalsh(s)
    return float(eig[1])


def _lambda2_at_stationarity(g: GeneratorMatrix) -> tuple[float, np.ndarray]:
    """(lambda2, w) at the mobility equilibrium v, with w = v / max_i v_i."""
    v = stationary_distribution(g)
    return lambda2_weighted(mobility_laplacian(g, v), v), v.x / v.x.max()


def m_lower_bound(g: GeneratorMatrix) -> float:
    """-lambda2 / (4n + 1): recovery deficits m above this bound satisfy
    the sufficient stability condition regardless of how the slack is
    distributed."""
    lam2, _w = _lambda2_at_stationarity(g)
    return -lam2 / (4 * g.n + 1)


def _condition_iv_margin(beta, delta, w, lam2, n) -> float:
    """Left-hand side of the sufficient condition, written so that
    (iv) holds iff the returned margin is >= 0:

        lambda2 / ((1 + sqrt(1 + lambda2/sigma))^2 n + 1) + m

    with m = min_i(delta_i - beta_i) and sigma = sum_i w_i(delta_i - beta_i - m).
    sigma = 0 (all deficits equal) collapses the condition to m >= 0; the
    expression's sigma -> 0 limit is exactly m.
    """
    diff = delta - beta
    m = float(diff.min())
    sigma = float(w @ (diff - m))
    if sigma <= 0.0:
        return m
    root = 1.0 + np.sqrt(1.0 + lam2 / sigma)
    return lam2 / (root * root * n + 1.0) + m


def classify(analysis: Analysis) -> StabilityReport:
    """Full stability workup at the mobility equilibrium x = v.

    The verdict comes from the sign of mu = mu(B - D - L*): nonpositive
    means the disease-free state attracts everything, positive means a
    unique endemic equilibrium takes over. The four conditions are

    i.   delta_i > beta_i - nu_i for every node (necessary)
    ii.  delta_i >= beta_i for some node (necessary)
    iii. delta_i >= beta_i for every node (sufficient)
    iv.  the lambda2 margin is nonnegative (sufficient)
    """
    params, g, v, lstar = analysis.params, analysis.g, analysis.v, analysis.lstar
    beta, delta = params.beta, params.delta
    n = g.n
    mu = analysis.mu.value

    try:
        r0 = reproduction_number(params, lstar)
    except SingularMMatrix:
        r0 = None

    nu = g.nu
    m = float((delta - beta).min())
    if n >= 2:
        lam2 = lambda2_weighted(lstar, v)
        m_low = -lam2 / (4 * n + 1)
        w = v.x / v.x.max()
        margin = _condition_iv_margin(beta, delta, w, lam2, n)
    else:
        # a single region has no second eigenvalue; the condition
        # degenerates to the uncoupled scalar threshold
        lam2 = None
        m_low = None
        margin = m

    return StabilityReport(
        mu=mu,
        r0=r0,
        lambda2=lam2,
        m=m,
        m_lower=m_low,
        verdict=DISEASE_FREE_STABLE if mu <= 0.0 else ENDEMIC_STABLE,
        condition_i=bool(np.all(delta > beta - nu)),
        condition_ii=bool(np.any(delta >= beta)),
        condition_iii=bool(np.all(delta >= beta)),
        condition_iv=bool(margin >= 0.0),
        condition_iv_margin=float(margin),
    )


def curing_rates_for_margin(
    g: GeneratorMatrix,
    beta,
    m: float,
    deficient,
    margin: float = 0.0,
) -> np.ndarray:
    """Construct recovery rates that hit a prescribed condition-(iv) margin.

    Nodes in `deficient` (1-based) get delta_i = beta_i + m, pinning the
    minimum deficit at m; every other node gets a common surplus solved
    from the margin equation. With margin = 0 the sufficient condition
    holds with equality. Requires m < margin (otherwise no surplus can
    help) and enough slack that the inner square root exceeds 1.
    """
    n = g.n
    beta = np.broadcast_to(np.asarray(beta, dtype=float), (n,))
    lam2, w = _lambda2_at_stationarity(g)

    gap = margin - m
    if gap <= 0.0:
        raise ValueError(f"need m < margin, got m = {m}, margin = {margin}")
    if gap >= lam2 / (4 * n + 1):
        # the margin term is capped at lambda2/(4n+1) as the surplus grows
        raise ValueError(
            f"margin - m = {gap} is at or above the supremum "
            f"{lam2 / (4 * n + 1)}; no finite surplus attains it"
        )
    s = np.sqrt((lam2 / gap - 1.0) / n) - 1.0
    sigma = lam2 / (s * s - 1.0)

    deficient_idx = np.array(sorted(int(i) - 1 for i in deficient), dtype=int)
    if deficient_idx.size == 0 or deficient_idx.size >= n:
        raise ValueError("deficient must name at least one node and not all of them")
    if deficient_idx.min() < 0 or deficient_idx.max() >= n:
        raise ValueError("deficient node indices must lie in 1..n")
    rest = np.setdiff1d(np.arange(n), deficient_idx)

    delta = np.empty(n)
    delta[deficient_idx] = beta[deficient_idx] + m
    delta[rest] = beta[rest] + m + sigma / w[rest].sum()
    return delta

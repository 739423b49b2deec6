"""Eigenstructure and stability classification.

Everything the long-run verdict needs lives here: the spectral abscissa
of Metzler matrices, the per-instance `Analysis` (v, L* and mu, computed
once), the basic reproduction number, the weighted-Laplacian eigenvalue
lambda_2, and the four stability conditions built from it.

mu and R0 come from value-only dense eigen-solves: mu is the largest
eigenvalue of B - D - L*, and 1 / R0 the smallest of B^{-1}(L* + D).
For a reversible chain (detailed balance v_i q_ij = v_j q_ji) a
diagonal similarity makes either matrix symmetric, and `eigvalsh` of
that is more than twice as fast as `eigvals` (n = 1000, one BLAS
thread).

Uniform rates need no eigen-solve. L* has zero row sums, so the Perron
root of the M-matrix L* + D is delta when every delta_i equals delta
(Perron-Frobenius, eigenvector 1). With every beta_i equal to beta the
Jacobian is beta I - (L* + D), so mu = beta - delta and R0 = beta / delta
exactly when both rates are uniform, and R0 = beta / (beta - mu) when
only beta is. Any other instance takes the eigen-solves.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from sismob.errors import (
    EigenSolveFailure,
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

# a similarity-transformed matrix counts as symmetric when its
# asymmetry is below this tolerance times its largest off-diagonal
# entry; the roundoff of the stationary solve alone reached 1e-13
REVERSIBLE_RTOL = 1e-10

DISEASE_FREE_STABLE = "DiseaseFreeStable"
ENDEMIC_STABLE = "EndemicStable"


@dataclass(frozen=True, eq=False)
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
        # written so that NaN, which fails every comparison, is rejected
        if not np.all(self.beta > 0.0):
            raise ValueError("all infection rates beta_i must be strictly positive")
        if not np.all(self.delta >= 0.0):
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


@dataclass(frozen=True, eq=False)
class PerronPair:
    """Dominant real eigenvalue with its strictly positive eigenvector
    (unit 1-norm). `iterations` is 0, because the pair comes from a
    direct solve; perfbench/trace.py reads it."""

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

    By Perron-Frobenius (applied to m + cI for c large enough) the
    eigenvalue with the largest real part is real and simple, and its
    eigenvector can be scaled to be strictly positive. Both come from a
    dense eigen-solve.
    """
    m = _as_square(m)
    off = m.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off < 0.0):
        raise NotMetzler("matrix has a negative off-diagonal entry")
    if not strongly_connected(off > 0.0):
        raise NotIrreducible("spectral_abscissa needs an irreducible matrix")
    w, vecs = np.linalg.eig(m)
    k = int(np.argmax(w.real))
    y = np.abs(vecs[:, k].real)
    return PerronPair(value=float(w[k].real), vector=y / y.sum())


# overflow in these two is not an error of its own: the eigen-solve
# reports the non-finite matrix it leaves
@np.errstate(over="ignore", invalid="ignore")
def _rescaled(m: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """diag(left) m diag(right), built in one new array."""
    out = m * left[:, None]
    out *= right[None, :]
    return out


def _common(rates: np.ndarray) -> float | None:
    """The value every entry of `rates` shares, or None when they differ."""
    first = rates[0]
    return float(first) if np.all(rates == first) else None


def _eigen_solve(what: str, solve, m: np.ndarray) -> np.ndarray:
    """solve(m) for eigenvalues; a non-finite m or result, or a LAPACK
    failure, raises EigenSolveFailure naming `what`. Finite rates near
    the float limit overflow inside LAPACK's scaling."""
    if np.isfinite(m).all():
        try:
            w = solve(m)
        except np.linalg.LinAlgError:
            pass
        else:
            if np.isfinite(w).all():
                return w
    raise EigenSolveFailure(what)


@np.errstate(over="ignore", invalid="ignore")
def _real_eigenvalues(s: np.ndarray, what: str) -> np.ndarray:
    """Real parts of the eigenvalues of s, a diagonal rescaling of a
    matrix whose extreme eigenvalues are real, chosen so that s is
    symmetric under detailed balance.

    When s is symmetric to REVERSIBLE_RTOL, they come from value-only
    `eigvalsh` of its symmetric part: the skew remainder moves them only
    to second order. Otherwise they come from `eigvals`.
    """
    work = np.abs(s)
    np.fill_diagonal(work, 0.0)
    scale = float(work.max())
    np.subtract(s, s.T, out=work)
    np.abs(work, out=work)
    if float(work.max()) > REVERSIBLE_RTOL * scale:
        return _eigen_solve(what, np.linalg.eigvals, s).real
    np.add(s, s.T, out=work)
    work *= 0.5
    return _eigen_solve(what, np.linalg.eigvalsh, work)


@dataclass(frozen=True, eq=False)
class Analysis:
    """What the verdict, the endemic solve and the default initial state
    share for one instance: the stationary distribution v, L* = L(v), the
    Jacobian B - D - L* at the disease-free state, and its spectral
    abscissa mu (the stability margin)."""

    params: EpidemicParams
    g: GeneratorMatrix
    v: PopulationDistribution
    lstar: np.ndarray
    jac: np.ndarray
    mu: float


def analyze(params: EpidemicParams, g: GeneratorMatrix) -> Analysis:
    """Solve v, L* and mu once for the instance (params, g)."""
    if params.n != g.n:
        raise ValueError(f"params length {params.n} does not match generator n {g.n}")
    v = stationary_distribution(g)
    lstar = mobility_laplacian(g, v)
    # as in _rescaled, the eigen-solve reports an overflowed entry
    with np.errstate(over="ignore", invalid="ignore"):
        jac = np.diag(params.beta - params.delta) - lstar
    jac.setflags(write=False)
    beta, delta = _common(params.beta), _common(params.delta)
    if beta is not None and delta is not None:
        # jac = (beta - delta) I - L*, and -L* has Perron root 0 (L* 1 = 0)
        mu = beta - delta
    else:
        # jac is Metzler and irreducible (g is), so by Perron-Frobenius its
        # eigenvalue with the largest real part is real; its entry (i, j) is
        # q_ji off the diagonal, so diag(sqrt v) symmetrizes it under
        # detailed balance
        sv = np.sqrt(v.x)
        mu = float(_real_eigenvalues(_rescaled(jac, sv, 1.0 / sv), "mu").max())
    return Analysis(params=params, g=g, v=v, lstar=lstar, jac=jac, mu=mu)


def _require_recovery(params: EpidemicParams, consequence: str):
    """Raise SingularMMatrix when every recovery rate is zero: L* + D then
    inherits the Laplacian's zero row sums and is singular."""
    if np.all(params.delta == 0.0):
        raise SingularMMatrix(
            f"L* + D is singular because all recovery rates are zero; {consequence}"
        )


def next_generation_matrix(params: EpidemicParams, lstar) -> np.ndarray:
    """A = (L* + D)^{-1} B, the nonnegative matrix whose spectral radius
    is the reproduction number."""
    l = _as_square(lstar)
    _require_recovery(params, "the next-generation matrix is undefined")
    return np.linalg.solve(l + np.diag(params.delta), np.diag(params.beta))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def reproduction_number(analysis: Analysis) -> float:
    """R0 = rho((L* + D)^{-1} B).

    With a uniform beta it is beta / s, where s, the Perron root of the
    M-matrix L* + D, is delta for a uniform delta and beta - mu otherwise
    (see the module docstring). Any other instance takes 1 / the smallest
    eigenvalue of the inverse B^{-1}(L* + D), a nonsingular M-matrix (so
    the eigenvalue is real), after the similarity diag(sqrt(v beta)) that
    makes it symmetric under detailed balance. Rates that overflow or
    underflow the matrix or its inverse, or leave R0 not finite and
    positive, raise EigenSolveFailure."""
    params, lstar = analysis.params, analysis.lstar
    _require_recovery(params, "the reproduction number is undefined")
    beta = _common(params.beta)
    if beta is not None:
        delta = _common(params.delta)
        num, den = beta, (delta if delta is not None else beta - analysis.mu)
    else:
        d = np.sqrt(analysis.v.x * params.beta)
        s = _rescaled(lstar, d / params.beta, 1.0 / d)
        s.flat[:: s.shape[0] + 1] += params.delta / params.beta
        num, den = 1.0, float(_real_eigenvalues(s, "R0").min())
    # a roundoff-sized den can come out zero or negative
    r0 = float(np.divide(num, den))
    if not 0.0 < r0 < np.inf:
        raise EigenSolveFailure("R0")
    return r0


def _weights(v) -> np.ndarray:
    """The diagonal of W, v / max_i v_i."""
    vv = v.x if isinstance(v, PopulationDistribution) else np.asarray(v, dtype=float)
    return vv / vv.max()


def lambda2_weighted(lstar, v) -> float:
    """Second-smallest eigenvalue of S = (W L* + L*^T W)/2 where
    W = diag(v / max_i v_i). The smallest eigenvalue of S is 0.
    """
    l = _as_square(lstar)
    if l.shape[0] < 2:
        raise ValueError("lambda2 needs at least 2 nodes")
    w = _weights(v)
    # as in _rescaled, the eigen-solve reports an overflowed entry
    with np.errstate(over="ignore", invalid="ignore"):
        s = 0.5 * (w[:, None] * l + l.T * w[None, :])
    return float(_eigen_solve("lambda2", np.linalg.eigvalsh, s)[1])


def _margin_terms(lstar, v) -> tuple[float, np.ndarray, float]:
    """(lambda2, w, cap) at x = v, with w = v / max_i v_i and
    cap = lambda2 / (4n + 1), the supremum of the lambda2 term of the
    condition-(iv) margin as the slack sigma grows; m_lower is -cap."""
    lam2 = lambda2_weighted(lstar, v)
    w = _weights(v)
    return lam2, w, lam2 / (4 * w.size + 1)


def m_lower_bound(g: GeneratorMatrix) -> float:
    """-lambda2 / (4n + 1): recovery deficits m above this bound satisfy
    the sufficient stability condition regardless of how the slack is
    distributed."""
    v = stationary_distribution(g)
    return -_margin_terms(mobility_laplacian(g, v), v)[2]


def _condition_iv_margin(deficit, m, w, lam2, n) -> float:
    """Left-hand side of the sufficient condition, written so that
    (iv) holds iff the returned margin is >= 0:

        lambda2 / ((1 + sqrt(1 + lambda2/sigma))^2 n + 1) + m

    with deficit = delta - beta, m = min_i deficit_i and
    sigma = sum_i w_i(deficit_i - m). sigma = 0 (all deficits equal)
    collapses the condition to m >= 0; the expression's sigma -> 0
    limit is exactly m.
    """
    sigma = float(w @ (deficit - m))
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
    g, mu = analysis.g, analysis.mu
    beta, delta = analysis.params.beta, analysis.params.delta
    try:
        r0 = reproduction_number(analysis)
    except SingularMMatrix:
        r0 = None

    deficit = delta - beta
    m = float(deficit.min())
    if g.n >= 2:
        lam2, w, cap = _margin_terms(analysis.lstar, analysis.v)
        m_low = -cap
        margin = _condition_iv_margin(deficit, m, w, lam2, g.n)
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
        condition_i=bool(np.all(delta > beta - g.nu)),
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
    v = stationary_distribution(g)
    lam2, w, cap = _margin_terms(mobility_laplacian(g, v), v)

    gap = margin - m
    if gap <= 0.0:
        raise ValueError(f"need m < margin, got m = {m}, margin = {margin}")
    if gap >= cap:
        raise ValueError(f"margin - m = {gap} is at or above the supremum {cap}; "
                         "no finite surplus attains it")
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

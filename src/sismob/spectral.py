"""Eigenstructure and stability classification.

Everything the long-run verdict needs lives here: the spectral abscissa
of Metzler matrices, the per-generator `Mobility` (v, L* and lambda_2),
the per-instance `Analysis` (params, Mobility and mu), the basic
reproduction number, and the four stability conditions.

mu and R0 come from value-only dense eigen-solves: mu is the largest
eigenvalue of B - D - L*, and 1 / R0 the smallest of B^{-1}(L* + D).
For a reversible chain (detailed balance v_i q_ij = v_j q_ji, decided
once per generator by `stationary_distribution` and kept as
`v.reversible`) L* = -Q exactly, and a diagonal similarity makes
either matrix symmetric, so `eigvalsh` of it is used, more than twice as
fast as `eigvals` (n = 1000, one BLAS thread).

Uniform rates need no eigen-solve. L* has zero row sums, so the Perron
root of the M-matrix L* + D is delta when every delta_i equals delta
(Perron-Frobenius, eigenvector 1). With every beta_i equal to beta the
Jacobian is beta I - (L* + D), so mu = beta - delta and R0 = beta / delta
exactly when both rates are uniform, and R0 = beta / (beta - mu) when
only beta is. Any other instance takes the eigen-solves.

lambda2 of a reversible chain with n >= LANCZOS_MIN_N first tries a
few Lanczos steps on W L* in the complement of 1, and is taken from
them only when the Krylov space closes and a Frobenius-norm certificate
bounds every eigenvalue outside it (`_closed_krylov_lambda2`); stars and
complete graphs under uniform_out rates pass. Every other chain, and a
failed attempt, takes the dense `eigvalsh` and returns the same bits as
without the attempt.
"""

from __future__ import annotations

import dataclasses
import json
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from sismob.errors import InputError, NumericalError
from sismob.mobility import (
    GeneratorMatrix,
    PopulationDistribution,
    StationaryDistribution,
    _readonly,
    mobility_laplacian,
    stationary_distribution,
    strongly_connected,
)

DISEASE_FREE_STABLE = "DiseaseFreeStable"
ENDEMIC_STABLE = "EndemicStable"

# lambda2 of a reversible chain tries a closed Krylov space from this
# many nodes: there eigvalsh takes about 3 ms and a failed attempt 7 %
# of that, 3 % at n = 1000 (one BLAS thread); at n = 128 it is 26 %
LANCZOS_MIN_N = 256
# Lanczos steps before an attempt gives up; a star closes after 2
LANCZOS_STEPS = 8


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
        raise InputError("matrix has a negative off-diagonal entry")
    if not strongly_connected(off > 0.0):
        raise InputError("spectral_abscissa needs an irreducible matrix")
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


def _out_of_range(message: str) -> NumericalError:
    """A spectral quantity (mu, R0 or lambda2) that float64 cannot give,
    with `message` saying why."""
    return NumericalError(f"{message}; the rates are too large or too small for float64")


def _eigen_solve(what: str, solve, m: np.ndarray) -> np.ndarray:
    """solve(m) for eigenvalues; a non-finite m or result, or a LAPACK
    failure, raises NumericalError naming `what`. Finite rates near
    the float limit overflow inside LAPACK's scaling."""
    if np.isfinite(m).all():
        try:
            w = solve(m)
        except np.linalg.LinAlgError:
            pass
        else:
            if np.isfinite(w).all():
                return w
    raise _out_of_range(f"eigen-solve for {what} failed: the matrix or its eigenvalues "
                        "are not finite, or LAPACK did not converge")


@np.errstate(over="ignore", invalid="ignore")
def _real_eigenvalues(s: np.ndarray, what: str, symmetric: bool) -> np.ndarray:
    """Real parts of the eigenvalues of s, a diagonal rescaling of a
    matrix whose extreme eigenvalues are real, chosen so that s is
    symmetric under detailed balance.

    A `symmetric` s (the chain is reversible) takes value-only `eigvalsh`
    of its symmetric part s/2 + s^T/2, halved before the sum so that two
    entries near the float limit do not overflow it; s is a fresh array
    and is halved in place. Any other s takes `eigvals`."""
    if not symmetric:
        return _eigen_solve(what, np.linalg.eigvals, s).real
    s *= 0.5
    return _eigen_solve(what, np.linalg.eigvalsh, s + s.T)


def jacobian(params: EpidemicParams, lstar: np.ndarray) -> np.ndarray:
    """B - D - L*, the Jacobian of the infection flow at the disease-free
    state, as a new array."""
    # as in _rescaled, the eigen-solve reports an overflowed entry
    with np.errstate(over="ignore", invalid="ignore"):
        return np.diag(params.beta - params.delta) - lstar


@dataclass(frozen=True, eq=False)
class Mobility:
    """What the mobility chain g alone fixes: its stationary distribution
    v and L* = L(v), read-only, solved on construction, and the lambda2
    terms of condition (iv), solved on first use and kept."""

    g: GeneratorMatrix
    v: StationaryDistribution = field(init=False)
    lstar: np.ndarray = field(init=False)

    def __post_init__(self):
        v = stationary_distribution(self.g)
        # in detailed balance l_ij = -q_ji v_j / v_i is -q_ij, so a
        # reversible chain's L* is -Q with no division
        lstar = -self.g.q if v.reversible else mobility_laplacian(self.g, v)
        lstar.setflags(write=False)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "lstar", lstar)

    @cached_property
    def margin_terms(self) -> tuple[float, np.ndarray, float]:
        """(lambda2, w, cap) at x = v, with w = v / max_i v_i and
        cap = lambda2 / (4n + 1), the supremum of the lambda2 term of the
        condition-(iv) margin as the slack sigma grows; m_lower is -cap."""
        lam2 = lambda2_weighted(self.lstar, self.v)
        w = _readonly(self.v.x / self.v.x.max())
        return lam2, w, lam2 / (4 * w.size + 1)


@dataclass(frozen=True, eq=False)
class Analysis:
    """What the verdict, the endemic solve and the default initial state
    share for one instance: params, its `Mobility` and mu, the spectral
    abscissa of the Jacobian B - D - L* (the stability margin)."""

    params: EpidemicParams
    mobility: Mobility
    mu: float


def analyze(params: EpidemicParams, mobility: Mobility) -> Analysis:
    """Solve mu once for the instance (params, mobility)."""
    v, lstar, n = mobility.v, mobility.lstar, mobility.g.n
    if params.n != n:
        raise ValueError(f"params length {params.n} does not match generator n {n}")
    beta, delta = _common(params.beta), _common(params.delta)
    if beta is not None and delta is not None:
        # the Jacobian is (beta - delta) I - L*, and -L* has Perron root 0
        # (L* 1 = 0)
        mu = beta - delta
    else:
        # the Jacobian is Metzler and irreducible (g is), so by
        # Perron-Frobenius its eigenvalue with the largest real part is
        # real; its entry (i, j) is q_ji v_j / v_i off the diagonal, so
        # diag(sqrt v) symmetrizes it under detailed balance
        sv = np.sqrt(v.x)
        s = _rescaled(jacobian(params, lstar), sv, 1.0 / sv)
        mu = float(_real_eigenvalues(s, "mu", v.reversible).max())
    return Analysis(params=params, mobility=mobility, mu=mu)


def _require_recovery(params: EpidemicParams, consequence: str):
    """Raise NumericalError when every recovery rate is zero: L* + D then
    inherits the Laplacian's zero row sums and is singular."""
    if np.all(params.delta == 0.0):
        raise NumericalError(
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
    positive, raise NumericalError."""
    params, v, lstar = analysis.params, analysis.mobility.v, analysis.mobility.lstar
    _require_recovery(params, "the reproduction number is undefined")
    beta = _common(params.beta)
    if beta is not None:
        delta = _common(params.delta)
        num, den = beta, (delta if delta is not None else beta - analysis.mu)
    else:
        d = np.sqrt(v.x * params.beta)
        s = _rescaled(lstar, d / params.beta, 1.0 / d)
        s.flat[:: s.shape[0] + 1] += params.delta / params.beta
        num, den = 1.0, float(_real_eigenvalues(s, "R0", v.reversible).min())
    # a roundoff-sized den can come out zero or negative
    r0 = float(np.divide(num, den))
    if not 0.0 < r0 < np.inf:
        raise _out_of_range(f"R0 = {num} / {den} = {r0} is not finite and positive")
    return r0


@np.errstate(over="ignore", invalid="ignore")
def _closed_krylov_lambda2(l: np.ndarray, w: np.ndarray) -> float | None:
    """lambda2 of the symmetric S = W L* from Lanczos on 1^perp, or None.

    At most LANCZOS_STEPS steps of x -> w * (L* x) from a Gaussian start
    vector (fixed seed), each orthogonalised twice against the basis and
    once against 1, which S maps to 0. The answer is accepted only when
    the Krylov space closes (the residual beta falls to tol = 4 n u
    ||S||_inf), so that its Ritz values theta_1 <= ... <= theta_k are
    eigenvalues of S, and lambda2 <= theta_1 (Courant-Fischer). Every
    other eigenvalue mu off 1 then satisfies (mu - theta_1)^2 <= R, with
    R = ||S - theta_1 I||_F^2 - sum_j (theta_j - theta_1)^2 - theta_1^2,
    and theta_1 is returned when R plus a rounding allowance is at most
    (theta_1 / 100)^2, which puts lambda2 in [0.99 theta_1, theta_1]. A
    space that stays open, a non-finite step or a failed certificate
    gives None. No n x n array is made."""
    n = l.shape[0]
    u = np.finfo(float).eps / 2
    diag = np.diagonal(l)
    # the off-diagonals are <= 0 and the rows sum to 0
    tol = 4.0 * n * u * 2.0 * float((w * diag).max())
    one = np.full(n, 1.0 / np.sqrt(n))
    basis = np.empty((LANCZOS_STEPS, n))
    q = np.random.default_rng(0).standard_normal(n)
    q -= (one @ q) * one
    q /= np.linalg.norm(q)
    alpha, beta = [], []
    for k in range(LANCZOS_STEPS):
        basis[k] = q
        z = w * (l @ q)
        alpha.append(float(q @ z))
        for _ in range(2):
            z -= (basis[: k + 1] @ z) @ basis[: k + 1]
        z -= (one @ z) * one
        b = float(np.linalg.norm(z))
        # a non-finite step leaves b inf or NaN from then on, which never
        # closes the space, and an infinite tol fails the certificate
        if b <= tol:
            break
        beta.append(b)
        q = z / b
    else:
        return None
    theta = np.linalg.eigvalsh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
    t1 = float(theta[0])
    frob2 = float((w * w) @ np.einsum("ij,ij->i", l, l))
    r = (frob2 - 2.0 * t1 * float(w @ diag) + n * t1 * t1
         - float(((theta - t1) ** 2).sum()) - t1 * t1)
    # every term of r is at most scale (the trace term by AM-GM), and
    # rounding loses about n u of it; a residual of size tol taken as 0
    # moves ||S - theta_1 I||_F by about (k + 2) tol
    scale = frob2 + n * t1 * t1
    allowance = 4.0 * n * u * scale + 2.0 * (len(alpha) + 2) * tol * np.sqrt(scale)
    if t1 > 0.0 and 0.0 <= r + allowance <= (1e-2 * t1) ** 2:
        return t1
    return None


def lambda2_weighted(lstar, v) -> float:
    """Second-smallest eigenvalue of S = (W L* + L*^T W)/2 where
    W = diag(v / max_i v_i). The smallest eigenvalue of S is 0.

    When v is a reversible stationary distribution, W L* is symmetric by
    detailed balance (w_i l_ij = -v_j q_ji / max v = w_j l_ji), so S is
    W L* itself. From LANCZOS_MIN_N nodes such an S first tries
    `_closed_krylov_lambda2`, which succeeds when S has few distinct
    eigenvalues off 1: under uniform_out rates on an undirected graph
    S = L_G / max_i(d_i / nu_i), and a star's space closes after 2 steps,
    a complete graph's after 1. Every other case, and a failed attempt,
    takes value-only `eigvalsh` of S.
    """
    l = _as_square(lstar)
    n = l.shape[0]
    if n < 2:
        raise ValueError("lambda2 needs at least 2 nodes")
    vv = v.x if isinstance(v, PopulationDistribution) else np.asarray(v, dtype=float)
    w = vv / vv.max()
    reversible = isinstance(v, StationaryDistribution) and v.reversible
    if reversible and n >= LANCZOS_MIN_N:
        lam2 = _closed_krylov_lambda2(l, w)
        if lam2 is not None:
            return lam2
    # as in _rescaled, the eigen-solve reports an overflowed entry
    with np.errstate(over="ignore", invalid="ignore"):
        if reversible:
            s = w[:, None] * l
        else:
            s = 0.5 * (w[:, None] * l + l.T * w[None, :])
    return float(_eigen_solve("lambda2", np.linalg.eigvalsh, s)[1])


def m_lower_bound(mobility: Mobility) -> float:
    """-lambda2 / (4n + 1): recovery deficits m above this bound satisfy
    the sufficient stability condition regardless of how the slack is
    distributed."""
    return -mobility.margin_terms[2]


def _condition_iv_margin(deficit, m, w, lam2, n) -> float:
    """Left-hand side of the sufficient condition, written so that
    (iv) holds iff the returned margin is >= 0:

        lambda2 / ((1 + sqrt(1 + lambda2/sigma))^2 n + 1) + m

    with deficit = delta - beta, m = min_i deficit_i and
    sigma = sum_i w_i(deficit_i - m). sigma = 0 (all deficits equal)
    collapses the condition to m >= 0; the expression's sigma -> 0
    limit is exactly m. A sigma that overflows is the sigma -> inf limit,
    lambda2 / (4n + 1) + m. Where the denominator overflows, lambda2 /
    sigma is so large that the first term is sigma / n to float precision.
    """
    with np.errstate(over="ignore"):
        sigma = float(w @ (deficit - m))
    if sigma <= 0.0:
        return m
    with np.errstate(over="ignore"):
        root = 1.0 + np.sqrt(1.0 + lam2 / sigma)
        denominator = root * root * n + 1.0
    if denominator == np.inf:
        return sigma / n + m
    return lam2 / denominator + m


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
    g, mu = analysis.mobility.g, analysis.mu
    beta, delta = analysis.params.beta, analysis.params.delta
    # with every delta_i zero, L* + D is singular and R0 undefined
    r0 = None if np.all(delta == 0.0) else reproduction_number(analysis)

    deficit = delta - beta
    m = float(deficit.min())
    if g.n >= 2:
        lam2, w, cap = analysis.mobility.margin_terms
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
    mobility: Mobility,
    beta,
    m: float,
    deficient,
    margin: float = 0.0,
) -> np.ndarray:
    """Construct recovery rates that hit a prescribed condition-(iv) margin.

    Nodes in `deficient` (1-based ints; a repeat counts once) get
    delta_i = beta_i + m, pinning the minimum deficit at m; every other
    node gets a common surplus solved from the margin equation. With
    margin = 0 the sufficient condition holds with equality. Requires
    m < margin (otherwise no surplus can help) and enough slack that the
    inner square root exceeds 1.
    """
    n = mobility.g.n
    beta = np.broadcast_to(np.asarray(beta, dtype=float), (n,))
    lam2, w, cap = mobility.margin_terms

    gap = margin - m
    if gap <= 0.0:
        raise ValueError(f"need m < margin, got m = {m}, margin = {margin}")
    if gap >= cap:
        raise ValueError(f"margin - m = {gap} is at or above the supremum {cap}; "
                         "no finite surplus attains it")
    s = np.sqrt((lam2 / gap - 1.0) / n) - 1.0
    sigma = lam2 / (s * s - 1.0)

    # a node named twice is one node; operator.index rejects 2.7 and '1'
    ids = sorted({operator.index(i) for i in deficient})
    if not 0 < len(ids) < n:
        raise ValueError("deficient must name at least one node and not all of them")
    if ids[0] < 1 or ids[-1] > n:
        raise ValueError("deficient node indices must lie in 1..n")
    deficient_idx = np.array(ids) - 1
    rest = np.setdiff1d(np.arange(n), deficient_idx)

    delta = np.empty(n)
    delta[deficient_idx] = beta[deficient_idx] + m
    delta[rest] = beta[rest] + m + sigma / w[rest].sum()
    return delta

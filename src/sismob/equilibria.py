"""Equilibria of the continuum model.

The disease-free state (0, v) always exists. When the stability margin
mu(B - D - L*) is positive there is additionally a unique strictly
positive endemic profile p*, the positive zero of

    F(p) = (B - D - L*) p - diag(p) B p

(Lajmanovich & Yorke 1976). F is concave and F(1) = -delta <= 0, so
Newton's method from the all-ones vector descends monotonically to p*
(Ortega & Rheinboldt 1970). With uniform rates beta_i = beta and
delta_i = delta in (0, beta), L* 1 = 0 makes p* = (1 - delta/beta) 1 exactly,
so no Newton step is taken. The same p* is the fixed point of the
monotone map

    H(p) = (I + A diag(p))^{-1} A p,    A = (L* + D)^{-1} B,

which `h_map` and `lower_box_vector` expose for diagnostics and
property tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from sismob.dynamics import ModelState
from sismob.errors import NumericalError, RegimeError
from sismob.mobility import (
    _readonly,
    mobility_laplacian,  # not called here; perfbench/trace.py wraps this import site
    stationary_distribution,  # not called here; perfbench/trace.py wraps this import site
)
from sismob.spectral import (
    Analysis,
    Mobility,
    jacobian,
    next_generation_matrix,  # not called here; perfbench/trace.py wraps this import site
    spectral_abscissa,
)

MAX_NEWTON_ITER = 100
# the Newton solve stops once a step moves no entry by more than this
STEP_TOL = 1e-12
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class EndemicSolution:
    """Strictly positive equilibrium profile with iteration diagnostics.
    `residual` is the infinity norm of (B - D - L* - diag(p*) B) p*."""

    p_star: np.ndarray
    iterations: int
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "p_star", _readonly(self.p_star))

    def to_json(self) -> str:
        return json.dumps(
            {
                "p_star": [float(v) for v in self.p_star],
                "iterations": self.iterations,
                "residual": self.residual,
            },
            indent=2,
        )


def _not_endemic(mu: float) -> RegimeError:
    return RegimeError(f"no endemic equilibrium: stability margin {mu} is not positive")


def _no_convergence(what: str, iterations: int) -> NumericalError:
    return NumericalError(f"{what} did not converge within {iterations} iterations")


def disease_free(mobility: Mobility) -> ModelState:
    """(p, x) = (0, v): no infection anywhere, population at stationarity."""
    return ModelState(p=np.zeros(mobility.g.n), x=mobility.v)


def h_map(p, a: np.ndarray) -> np.ndarray:
    """One application of H: solve (I + A diag(p)) h = A p."""
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    try:
        return np.linalg.solve(np.eye(n) + a * p[None, :], a @ p)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"H-map system singular: {exc}") from exc


def _f(jac: np.ndarray, beta: np.ndarray, p: np.ndarray) -> np.ndarray:
    """F(p) = (B - D - L*) p - diag(p) B p, with jac = B - D - L*."""
    return jac @ p - p * (beta * p)


# an overflowed step or residual is inf or NaN, which never passes a
# tolerance, so the solve ends in NumericalError instead of a warning
@np.errstate(over="ignore", invalid="ignore")
def endemic_fixed_point(analysis: Analysis) -> EndemicSolution:
    """Unique strictly positive equilibrium p*. Uniform rates with delta > 0
    take the closed form (1 - delta/beta) 1 with `iterations` 0; any
    other instance takes Newton's method on F from the all-ones vector,
    stopping once a step moves no entry by more than STEP_TOL.

    When every recovery rate is zero, F(1) = 0 and p* is the all-ones
    vector, which the first Newton step leaves in place.

    Raises RegimeError when mu <= 0 (no positive equilibrium exists) or
    the solution collapses to the boundary, and NumericalError when
    ||F(p*)||_inf is above RESIDUAL_TOL * max(1, ||J||_inf), J = B - D - L*.
    """
    mu = analysis.mu
    if mu <= 0.0:
        raise _not_endemic(mu)
    jac, beta = jacobian(analysis.params, analysis.mobility.lstar), analysis.params.beta
    n = analysis.mobility.g.n

    common_beta, common_delta = analysis.params.uniform_rates
    # F(c 1) = c (beta - delta - beta c) 1, since L* 1 = 0, and mu > 0
    # here means delta < beta; with delta = 0 Newton's first step is
    # already zero
    if common_beta is not None and common_delta is not None and common_delta > 0.0:
        p, it = np.full(n, 1.0 - common_delta / common_beta), 0
    else:
        p, it = _newton(jac, beta, n)

    if np.any(p <= 0.0):
        raise RegimeError(
            f"endemic solve reached a nonpositive value at node {int(np.argmin(p)) + 1}; "
            "instance is numerically at the stability boundary"
        )
    residual = float(np.abs(_f(jac, beta, p)).max())
    # F's terms scale with J's entries; ||J||_inf is scaled before its sum, lest it overflow
    if not residual <= RESIDUAL_TOL:
        bound = max(RESIDUAL_TOL, float((RESIDUAL_TOL * np.abs(jac)).sum(axis=1).max()))
        if not residual <= bound:
            raise NumericalError(f"endemic equilibrium residual {residual} is above RESIDUAL_TOL"
                                 f" * max(1, ||J||_inf) = {bound} after {it} Newton steps")
    return EndemicSolution(p_star=p, iterations=it, residual=residual)


def _newton(jac: np.ndarray, beta: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """(p*, steps) by Newton's method on F from the all-ones vector."""
    p = np.ones(n)
    for it in range(1, MAX_NEWTON_ITER + 1):
        # F'(p) = B - D - L* - 2 diag(beta p)
        slope = jac.copy()
        slope.flat[:: n + 1] -= 2.0 * beta * p
        try:
            step = np.linalg.solve(slope, _f(jac, beta, p))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Newton system singular: {exc}") from exc
        p = p - step
        if float(np.abs(step).max()) <= STEP_TOL:
            return p, it
    raise _no_convergence("endemic Newton solve", MAX_NEWTON_ITER)


def lower_box_vector(a: np.ndarray) -> tuple[float, np.ndarray]:
    """(epsilon, u) with u the Perron vector of A and epsilon halved from 1
    until H(eps u) >= eps u holds componentwise.

    The positive fixed point of H lies in the box [eps u, 1]. Provided
    for diagnostics and property tests; `endemic_fixed_point` needs no
    lower corner, since its Newton iterates descend from the top of the
    box.
    """
    pair = spectral_abscissa(a)
    rho = pair.value
    if rho <= 1.0:
        raise _not_endemic(rho - 1.0)
    u = pair.vector / pair.vector.max()
    eps = 1.0
    for _ in range(200):
        if np.all(h_map(eps * u, a) >= eps * u):
            return eps, u
        eps *= 0.5
    raise _no_convergence("lower corner search for the fixed-point box", 200)

"""Equilibria of the continuum model.

The disease-free state (0, v) always exists. When the stability margin
mu(B - D - L*) is positive there is additionally a unique strictly
positive endemic profile p*, the positive zero of

    F(p) = (B - D - L*) p - diag(p) B p

(Lajmanovich & Yorke 1976). F is concave and F(1) = -delta <= 0, so
Newton's method from the all-ones vector descends monotonically to p*
(Ortega & Rheinboldt 1970). The same p* is the fixed point of the
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
from sismob.errors import (
    DegenerateSolution,
    NoConvergence,
    NotEndemicRegime,
    SingularSystem,
)
from sismob.mobility import (
    GeneratorMatrix,
    _readonly,
    mobility_laplacian,  # not called here; perfbench/trace.py wraps this import site
    stationary_distribution,
)
from sismob.spectral import (
    Analysis,
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


def disease_free(g: GeneratorMatrix) -> ModelState:
    """(p, x) = (0, v): no infection anywhere, population at stationarity."""
    v = stationary_distribution(g)
    return ModelState(p=np.zeros(g.n), x=v)


def h_map(p, a: np.ndarray) -> np.ndarray:
    """One application of H: solve (I + A diag(p)) h = A p."""
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    try:
        return np.linalg.solve(np.eye(n) + a * p[None, :], a @ p)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"H-map system singular: {exc}") from exc


def _f(jac: np.ndarray, beta: np.ndarray, p: np.ndarray) -> np.ndarray:
    """F(p) = (B - D - L*) p - diag(p) B p, with jac = B - D - L*."""
    return jac @ p - p * (beta * p)


# an overflowed step or residual is inf or NaN, which never passes a
# tolerance, so the solve ends in NoConvergence instead of a warning
@np.errstate(over="ignore", invalid="ignore")
def endemic_fixed_point(analysis: Analysis) -> EndemicSolution:
    """Unique strictly positive equilibrium p*, by Newton's method on F
    from the all-ones vector, stopping once a step moves no entry by
    more than STEP_TOL.

    When every recovery rate is zero, F(1) = 0 and p* is the all-ones
    vector, which the first Newton step leaves in place.

    Raises NotEndemicRegime when mu <= 0 (no positive equilibrium
    exists) and DegenerateSolution if the solution collapses to the
    boundary.
    """
    mu = analysis.mu
    if mu <= 0.0:
        raise NotEndemicRegime(mu)
    jac, beta = analysis.jac, analysis.params.beta
    n = analysis.g.n

    p = np.ones(n)
    for it in range(1, MAX_NEWTON_ITER + 1):
        # F'(p) = B - D - L* - 2 diag(beta p)
        slope = jac.copy()
        slope.flat[:: n + 1] -= 2.0 * beta * p
        try:
            step = np.linalg.solve(slope, _f(jac, beta, p))
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"Newton system singular: {exc}") from exc
        p = p - step
        if float(np.abs(step).max()) <= STEP_TOL:
            break
    else:
        raise NoConvergence("endemic Newton solve", MAX_NEWTON_ITER)

    if np.any(p <= 0.0):
        raise DegenerateSolution(int(np.argmin(p)))
    residual = float(np.abs(_f(jac, beta, p)).max())
    if not residual <= RESIDUAL_TOL:
        raise NoConvergence(
            f"endemic equilibrium residual {residual} above {RESIDUAL_TOL}", it
        )
    return EndemicSolution(p_star=p, iterations=it, residual=residual)


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
        raise NotEndemicRegime(rho - 1.0)
    u = pair.vector / pair.vector.max()
    eps = 1.0
    for _ in range(200):
        if np.all(h_map(eps * u, a) >= eps * u):
            return eps, u
        eps *= 0.5
    raise NoConvergence("lower corner search for the fixed-point box", 200)

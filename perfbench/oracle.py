"""Dense numpy reference for the quantities the benchmark checks.

Everything here is rebuilt from a scenario document alone (graph kind,
uniform_out exit rates, beta, delta) and never imports sismob, so a
defect in the program cannot also hide in its own yardstick.
"""

from __future__ import annotations

import numpy as np


def undirected_pairs(kind: str, n: int) -> list:
    """0-based unordered node pairs of the bidirectional graph kinds."""
    if kind == "line":
        return [(i, i + 1) for i in range(n - 1)]
    if kind == "ring":
        return [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
    if kind == "star":
        return [(0, j) for j in range(1, n)]
    if kind == "complete":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    raise ValueError(f"unknown graph kind {kind!r}")


def generator(doc: dict) -> np.ndarray:
    """Q with each node's exit rate nu_i split evenly over its out-edges."""
    n = doc["graph"]["n"]
    nu = np.broadcast_to(np.asarray(doc["rates"]["uniform_out"]["nu"], dtype=float), (n,))
    adj = np.zeros((n, n), dtype=bool)
    for i, j in undirected_pairs(doc["graph"]["kind"], n):
        adj[i, j] = adj[j, i] = True
    q = np.where(adj, (nu / adj.sum(axis=1))[:, None], 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def stationary(q: np.ndarray) -> np.ndarray:
    """v with Q^T v = 0 and sum(v) = 1: the last balance equation, which the
    others imply, is replaced by the normalisation."""
    a = q.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(q.shape[0])
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def laplacian(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """L* at x = v: -q_ji v_j / v_i off the diagonal, zero row sums."""
    lstar = -(q.T * v[None, :]) / v[:, None]
    np.fill_diagonal(lstar, 0.0)
    np.fill_diagonal(lstar, -lstar.sum(axis=1))
    return lstar


def _diag(x, n: int) -> np.ndarray:
    return np.diag(np.broadcast_to(np.asarray(x, dtype=float), (n,)))


def jacobian(q: np.ndarray, v: np.ndarray, beta, delta) -> np.ndarray:
    """B - D - L* at x = v."""
    n = q.shape[0]
    return _diag(beta, n) - _diag(delta, n) - laplacian(q, v)


def reproduction_number(q: np.ndarray, v: np.ndarray, beta, delta) -> float:
    """Spectral radius of (L* + D)^{-1} B over the full dense spectrum."""
    n = q.shape[0]
    a = np.linalg.solve(laplacian(q, v) + _diag(delta, n), _diag(beta, n))
    return float(np.abs(np.linalg.eigvals(a)).max())


def abscissa(jac: np.ndarray) -> float:
    """Largest real part over the full dense spectrum."""
    return float(np.linalg.eigvals(jac).real.max())


def endemic(jac: np.ndarray, beta, tol: float = 1e-14, max_iter: int = 100) -> np.ndarray:
    """Positive root of F(p) = J p - beta p^2 by Newton from the all-ones
    supersolution; only meaningful when abscissa(jac) > 0."""
    beta = np.broadcast_to(np.asarray(beta, dtype=float), jac.shape[:1])
    p = np.ones(jac.shape[0])
    for _ in range(max_iter):
        f = jac @ p - beta * p * p
        step = np.linalg.solve(jac - np.diag(2.0 * beta * p), f)
        p = p - step
        if float(np.abs(step).max()) <= tol:
            return p
    raise RuntimeError("oracle Newton solve did not converge")


def trajectory(q: np.ndarray, v: np.ndarray, beta, delta, p0, t_end: float, dt: float,
               stride: int) -> np.ndarray:
    """Classic RK4 on dp/dt = (B - D - L*) p - diag(p) B p with x held at v,
    sampled every `stride` steps and at t_end; t_end must be a whole number
    of steps. L* p is a sparse product over L*'s nonzeros."""
    n = q.shape[0]
    lstar = laplacian(q, v)
    rows, cols = np.nonzero(lstar)
    vals = lstar[rows, cols]
    r = np.broadcast_to(np.subtract(beta, delta), (n,))
    b = np.broadcast_to(np.asarray(beta, dtype=float), (n,))

    def f(p):
        return r * p - b * p * p - np.bincount(rows, vals * p[cols], minlength=n)

    p = np.broadcast_to(np.asarray(p0, dtype=float), (n,)).copy()
    steps = round(t_end / dt)
    out = [p.copy()]
    for k in range(1, steps + 1):
        k1 = f(p)
        k2 = f(p + 0.5 * dt * k1)
        k3 = f(p + 0.5 * dt * k2)
        k4 = f(p + dt * k3)
        p = p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if k % stride == 0 or k == steps:
            out.append(p.copy())
    return np.array(out)


def residual(jac: np.ndarray, beta, p) -> float:
    """Infinity norm of J p - diag(p) B p."""
    p = np.asarray(p, dtype=float)
    return float(np.abs(jac @ p - np.asarray(beta, dtype=float) * p * p).max())

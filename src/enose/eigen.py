"""Self-contained symmetric eigensolvers.

`jacobi_eigh` is the one dense solver (cyclic Jacobi, batched
rotations).  Pairs are visited in round-robin rounds so every round
rotates n/2 disjoint planes at once; disjoint plane rotations commute,
which makes the batched update exactly equivalent to the sequential
cyclic sweep while keeping the inner loop in numpy.

`leading_eigh` finds only the leading eigenpairs of a positive
semidefinite matrix by block subspace (orthogonal) iteration with a
Rayleigh-Ritz step (Golub & Van Loan, *Matrix Computations*, sec. 8.2;
Saad, *Numerical Methods for Large Eigenvalue Problems*, 2011).  The
small projected matrix is solved with `jacobi_eigh`.
"""

from __future__ import annotations

import numpy as np

# The start block comes from a generator with this fixed seed, so the
# iteration, and every KPCA model built on it, is deterministic.
START_SEED = 20240601
START_BLOCK = 16
# Steps before the iteration gives up and the whole matrix goes to
# `jacobi_eigh`; each step costs a small fraction of that dense solve.
MAX_ITER = 60
# A Ritz pair (w_j, v_j) has converged when ||a v_j - w_j v_j|| <= RESIDUAL_TOL * w_0.
RESIDUAL_TOL = 1e-11
# `jacobi_eigh` stops once the off-diagonal Frobenius norm is at most
# JACOBI_TOL times the whole matrix's, and raises after MAX_SWEEPS sweeps.
JACOBI_TOL = 1e-12
MAX_SWEEPS = 100


def _checked_symmetric(a) -> np.ndarray:
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(a, a.T, atol=1e-10 * (1.0 + np.abs(a).max())):
        raise ValueError("matrix must be symmetric")
    return 0.5 * (a + a.T)


def _round_robin_rounds(m: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Tournament schedule: m-1 rounds of m/2 disjoint index pairs (m even)."""
    players = list(range(m))
    rounds = []
    for _ in range(m - 1):
        p = np.array([players[k] for k in range(m // 2)])
        q = np.array([players[m - 1 - k] for k in range(m // 2)])
        rounds.append((p, q))
        players = [players[0], players[-1], *players[1:-1]]
    return rounds


def jacobi_eigh(a):
    """Eigenvalues and eigenvectors of a symmetric matrix.

    Returns (w, v) with eigenvalues descending (ties keep diagonal
    order) and eigenvectors in the columns of v, so a = v @ diag(w) @ v.T.
    """
    a = _checked_symmetric(a)
    n = a.shape[0]
    v = np.eye(n)
    if n == 1:
        return a[0, :1].copy(), v

    base = float(np.sqrt(np.sum(a * a)))
    if base == 0.0:
        return np.zeros(n), v
    floor_cut = JACOBI_TOL * base / (10.0 * n)

    m = n if n % 2 == 0 else n + 1
    rounds = _round_robin_rounds(m)

    for _ in range(MAX_SWEEPS):
        # off-diagonal Frobenius norm, computed directly (a difference of
        # squared norms cancels catastrophically near convergence)
        offmat = a - np.diag(np.diag(a))
        off = float(np.sqrt(np.sum(offmat * offmat)))
        if off <= JACOBI_TOL * base:
            break
        # threshold sweep: skip rotations that are small against the
        # remaining off-diagonal mass; the cut shrinks with it, so the
        # final accuracy is still set by JACOBI_TOL alone
        skip_cut = max(floor_cut, 0.25 * off / n)
        for p_all, q_all in rounds:
            real = (p_all < n) & (q_all < n)
            p, q = p_all[real], q_all[real]
            apq = a[p, q]
            active = np.abs(apq) > skip_cut
            if not active.any():
                continue
            p, q, apq = p[active], q[active], apq[active]

            theta = (a[q, q] - a[p, p]) / (2.0 * apq)
            t = np.sign(theta) / (np.abs(theta) + np.hypot(theta, 1.0))
            t = np.where(theta == 0.0, 1.0, t)  # sign(0) = 0 would stall
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c

            ap, aq = a[:, p].copy(), a[:, q].copy()
            a[:, p] = c * ap - s * aq
            a[:, q] = s * ap + c * aq
            rp, rq = a[p, :].copy(), a[q, :].copy()
            a[p, :] = c[:, None] * rp - s[:, None] * rq
            a[q, :] = s[:, None] * rp + c[:, None] * rq
            a[p, q] = 0.0
            a[q, p] = 0.0

            vp, vq = v[:, p].copy(), v[:, q].copy()
            v[:, p] = c * vp - s * vq
            v[:, q] = s * vp + c * vq
    else:
        raise RuntimeError(f"Jacobi did not converge in {MAX_SWEEPS} sweeps")

    w = np.diag(a).copy()
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def leading_eigh(a, fraction: float):
    """Leading eigenpairs of a positive semidefinite matrix.

    Returns (w, v) like `jacobi_eigh`, but only for the leading pairs:
    each satisfies ||a v_j - w_j v_j|| <= RESIDUAL_TOL * w_0, and together
    their eigenvalues add up to at least fraction * trace(a).  A block of
    START_BLOCK vectors is iterated for at most MAX_ITER steps.  If the
    converged pairs do not reach the fraction by then, or the whole block
    has converged short of it, all n pairs come from `jacobi_eigh(a)`.
    That dense solve is also the whole path for fraction >= 1, where
    every pair is needed, and for n < 2 * START_BLOCK, where the block
    saves little.
    """
    a = _checked_symmetric(a)
    n = a.shape[0]
    if fraction >= 1.0 or n < 2 * START_BLOCK:
        return jacobi_eigh(a)
    target = fraction * float(np.trace(a))
    rng = np.random.default_rng(START_SEED)
    q, _ = np.linalg.qr(rng.standard_normal((n, START_BLOCK)))
    for _ in range(MAX_ITER):
        aq = a @ q
        w, s = jacobi_eigh(q.T @ aq)
        v, av = q @ s, aq @ s
        converged = np.linalg.norm(av - v * w, axis=0) <= RESIDUAL_TOL * w[0]
        m = START_BLOCK if converged.all() else int(np.argmin(converged))
        if m and w[:m].sum() >= target:
            return w[:m], v[:, :m]
        if m == START_BLOCK:
            break  # every pair has converged; more steps cannot add any
        q, _ = np.linalg.qr(av)
    return jacobi_eigh(a)


def orient_columns(v: np.ndarray) -> np.ndarray:
    """Flip column signs so each column's largest-magnitude entry is positive."""
    top = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return np.where(top < 0, -v, v)

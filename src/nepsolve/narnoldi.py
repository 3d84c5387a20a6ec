"""Nonlinear Arnoldi: Rayleigh-Ritz projection onto an expanding subspace.

The subspace is grown with residual-inverse-iteration correction vectors,
the projected small nonlinear problem is solved by a dense SLP iteration,
and converged pairs are locked through the deflation machinery so the whole
loop runs on the extended problem.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
import scipy.linalg

from .core import EigenSolution, NepError, NepOperator, Settings
from .deflation import ExtSolveContext, InvariantPair, ProjectionContext, ext_apply
from .linalg import BREAKDOWN_RTOL, LinearSolverConfig
from .newton import _finish, _Hunt, _hunt_eta, _random_unit

__all__ = ["narnoldi_solve", "dense_nep_slp"]


def dense_nep_slp(proj: ProjectionContext, lam_start: complex, tol: float, max_it: int = 50):
    """Solve the projected nonlinear problem by dense SLP steps.

    Each step picks the smallest-magnitude eigenvalue mu of the dense pencil
    (M(lam), M'(lam)) and corrects lam <- lam - mu; the eigenvector of the
    final pencil is returned together with the converged eigenvalue.
    """
    lam = complex(lam_start)
    y = None
    for _ in range(max_it):
        if not np.isfinite(lam) or abs(lam - lam_start) > 1e8 * (1.0 + abs(lam_start)):
            raise NepError("projected iteration left the representable domain")
        M = proj.value(lam)
        Mp = proj.value(lam, deriv=True)
        if not (np.all(np.isfinite(M)) and np.all(np.isfinite(Mp))):
            raise NepError("projected matrices are not finite")
        try:
            w, W = scipy.linalg.eig(M, Mp)
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise NepError("projected dense eigensolve failed") from exc
        finite = np.isfinite(w)
        if not np.any(finite):
            raise NepError("projected pencil has no finite eigenvalues")
        idx = np.flatnonzero(finite)[np.argmin(np.abs(w[finite]))]
        mu = w[idx]
        y = W[:, idx]
        nrm = np.linalg.norm(y)
        if nrm == 0:
            raise NepError("projected eigensolve returned a zero vector")
        y = y / nrm
        lam = lam - mu
        if abs(mu) <= tol * max(1.0, abs(lam)):
            return y, lam
    return y, lam


def _orth2(V1, V2, w1, w2):
    """CGS2 on vectors stacked as [w1; w2] against the basis [V1; V2]."""
    m = V1.shape[1]
    h = np.zeros(m, dtype=complex)
    a, b = w1.astype(complex).copy(), w2.astype(complex).copy()
    nrm_in = math.hypot(np.linalg.norm(a), np.linalg.norm(b))
    for _ in range(2):
        if m:
            c = V1.conj().T @ a + (V2.conj().T @ b if V2.size else 0.0)
            a -= V1 @ c
            if V2.size:
                b -= V2 @ c
            h += c
    beta = math.hypot(np.linalg.norm(a), np.linalg.norm(b))
    dependent = beta <= BREAKDOWN_RTOL * max(nrm_in, 1e-300)
    return h, beta, a, b, dependent


def narnoldi_solve(
    op: NepOperator,
    settings: Settings,
    *,
    lin_cfg: Optional[LinearSolverConfig] = None,
    proj_tol: Optional[float] = None,
) -> EigenSolution:
    """Nonlinear Arnoldi iteration for a few eigenpairs near the target."""
    if not op.is_split:
        raise NepError("the nonlinear Arnoldi solver requires the split form")
    n = op.n
    tol = settings.tol
    ncv = settings.ncv_effective
    if proj_tol is None:
        proj_tol = max(1e-13, 1e-2 * tol)
    rng = np.random.default_rng(settings.seed)
    stats = {"outer_iterations": 0, "linear_solves": 0, "restarts": 0}
    budget = settings.max_it_effective

    pair = InvariantPair.empty(n)
    sigma = complex(settings.target)

    def fresh_proj(cols):
        ctx = ProjectionContext(pair, op)
        for v1, v2 in cols:
            ctx.append(v1, v2)
        return ctx

    # start from the normalized all-ones extended vector
    def start_columns():
        m = n + pair.k
        v = np.ones(m, dtype=complex) / math.sqrt(m)
        return [(v[:n], v[n:])]

    hunt = _Hunt(tol)

    def restart():
        """A fresh search space from a seeded random vector."""
        stats["restarts"] += 1
        hunt.reset()
        v = _random_unit(rng, n + pair.k)
        return fresh_proj([(v[:n], v[n:])]), sigma

    solve_ctx = ExtSolveContext(pair, op, sigma, lin_cfg)
    proj = fresh_proj(start_columns())
    lam_prev = sigma

    while pair.k < settings.nev and stats["outer_iterations"] < budget:
        stats["outer_iterations"] += 1
        try:
            y, lam = dense_nep_slp(proj, lam_prev, proj_tol)
        except NepError:
            proj, lam_prev = restart()
            continue
        x1 = proj.V1 @ y
        x2 = proj.V2 @ y
        r1, r2 = ext_apply(pair, op, lam, x1, x2)
        xnorm = math.hypot(np.linalg.norm(x1), np.linalg.norm(x2))
        eta = _hunt_eta(op, pair, lam, x1, x2, r1, r2)
        if hunt.record(eta, lam, np.concatenate([x1, x2]) / xnorm):
            extended = hunt.lock(op, pair)
            if extended is None:
                # restart the search space away from the failed direction
                proj, lam_prev = restart()
                continue
            pair = extended
            if pair.k >= settings.nev:
                break
            # keep the basis: pad the small block with a zero row for the new pair
            cols = [
                (proj.V1[:, j], np.concatenate([proj.V2[:, j], [0.0]]))
                for j in range(proj.m)
            ]
            stats["linear_solves"] += solve_ctx.solve_count
            solve_ctx = ExtSolveContext(pair, op, sigma, lin_cfg)
            proj = fresh_proj(cols)
            lam_prev = sigma
            continue
        v1, v2 = solve_ctx.solve(r1, r2)
        if proj.m >= ncv:
            # restart keeping only the current Ritz vector
            stats["restarts"] += 1
            proj = fresh_proj([(x1 / xnorm, x2 / xnorm)])
        h, beta, a, b, dep = _orth2(proj.V1, proj.V2, v1, v2)
        if dep:
            # correction already in the subspace: expand with a random direction
            for _ in range(5):
                rv = _random_unit(rng, n + pair.k)
                h, beta, a, b, dep = _orth2(proj.V1, proj.V2, rv[:n], rv[n:])
                if not dep:
                    break
            else:
                raise NepError("subspace expansion broke down")
        proj.append(a / beta, b / beta)
        lam_prev = lam

    stats["linear_solves"] += solve_ctx.solve_count
    return _finish(op, pair, settings, stats, converged=pair.k >= settings.nev)

"""Nonlinear Arnoldi: Rayleigh-Ritz projection onto an expanding subspace.

The subspace is grown with residual-inverse-iteration correction vectors
(orthogonalized by ``linalg.orthogonalize``), the projected small nonlinear
problem is solved by dense SLP steps started from the target every time, and
converged pairs are locked through the deflation machinery so the whole
loop runs on the extended problem.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
import scipy.linalg

from .core import EigenSolution, NepError, NepOperator, Settings
from .deflation import RANK_TOL, ExtSolveContext, ExtVector, InvariantPair, ProjectionContext
from .linalg import LinearSolverConfig, orthogonalize
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


def narnoldi_solve(
    op: NepOperator,
    settings: Settings,
    *,
    lin_cfg: Optional[LinearSolverConfig] = None,
) -> EigenSolution:
    """Nonlinear Arnoldi iteration for a few eigenpairs near the target."""
    if not op.is_split:
        raise NepError("the nonlinear Arnoldi solver requires the split form")
    n = op.n
    tol = settings.tol
    ncv = settings.ncv_effective
    proj_tol = max(1e-13, 1e-2 * tol)
    rng = np.random.default_rng(settings.seed)
    stats = {"outer_iterations": 0, "linear_solves": 0, "restarts": 0}
    budget = settings.max_it_effective

    pair = InvariantPair.empty(n)
    sigma = complex(settings.target)
    hunt = _Hunt(tol)

    def restart():
        """A fresh search space from a seeded random vector."""
        stats["restarts"] += 1
        hunt.reset()
        return ProjectionContext(pair, op, _random_unit(rng, n + pair.k)[:, None])

    solve_ctx = ExtSolveContext(pair, op, sigma, lin_cfg)
    # start from the normalized all-ones vector
    proj = ProjectionContext(pair, op, np.full((n, 1), 1.0 / math.sqrt(n), dtype=complex))

    while pair.k < settings.nev and stats["outer_iterations"] < budget:
        stats["outer_iterations"] += 1
        try:
            # every projected solve starts from the target, so the Ritz value
            # it picks does not depend on where earlier steps ended
            y, lam = dense_nep_slp(proj, sigma, proj_tol)
        except NepError:
            proj = restart()
            continue
        x = proj.V @ y
        x /= np.linalg.norm(x)
        eta, r1, r2 = _hunt_eta(ExtVector(pair, op, x[:n], x[n:]), lam)
        if hunt.record(eta, lam, x):
            extended = hunt.lock(op, pair)
            if extended is None:
                # restart the search space away from the failed direction
                proj = restart()
                continue
            pair = extended
            if pair.k >= settings.nev:
                break
            # keep the basis less the locked direction, or the next projected
            # solve finds the new eigenvector again (at eta = inf); a
            # rank-revealing QR drops the direction that vanishes with it
            V = np.vstack([proj.V, np.zeros((1, proj.m), dtype=complex)])
            x = pair.X[:, -1]
            V[:n] -= np.outer(x, x.conj() @ V[:n])
            Q, R, _ = scipy.linalg.qr(V, mode="economic", pivoting=True)
            V = Q[:, np.abs(np.diag(R)) > RANK_TOL]  # the columns of V had unit norm
            stats["linear_solves"] += solve_ctx.solve_count
            solve_ctx = ExtSolveContext(pair, op, sigma, lin_cfg)
            proj = ProjectionContext(pair, op, V)
            continue
        v1, v2 = solve_ctx.solve(r1, r2)
        if proj.m >= ncv:
            # restart keeping only the current Ritz vector
            stats["restarts"] += 1
            proj = ProjectionContext(pair, op, x[:, None])
        w = np.concatenate([v1, v2])
        for _ in range(6):
            _, beta, w, dep = orthogonalize(proj.V, w)
            if not dep:
                break
            # correction already in the subspace: try a random direction
            w = _random_unit(rng, n + pair.k)
        else:
            raise NepError("subspace expansion broke down")
        proj.append(w[:n] / beta, w[n:] / beta)

    stats["linear_solves"] += solve_ctx.solve_count
    return _finish(op, pair, settings, stats)

"""Nonlinear Arnoldi: Rayleigh-Ritz projection onto an expanding subspace.

The subspace is grown with residual-inverse-iteration correction vectors
(orthogonalized by ``linalg.orthogonalize``), the projected small nonlinear
problem is solved by dense SLP steps started from the target every time, and
the search loop, its lock and its restarts are ``newton._Search``'s, so the
whole loop runs on the extended problem.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.linalg

from .core import EigenSolution, NepError, NepOperator, Settings
from .deflation import RANK_TOL, ExtSolveContext, ProjectionContext
from .linalg import LinearSolverConfig, orthogonalize
from .newton import _random_unit, _Search

__all__ = ["narnoldi_solve", "dense_nep_slp"]


def dense_nep_slp(proj: ProjectionContext, lam_start: complex, tol: float):
    """Solve the projected nonlinear problem by dense SLP steps.

    Each step picks the smallest-magnitude eigenvalue mu of the dense pencil
    (M(lam), M'(lam)) and corrects lam <- lam - mu, until |mu| <= tol
    max(1, |lam|) or after 50 steps; the eigenvector of the final pencil is
    returned together with the last eigenvalue.
    """
    lam = complex(lam_start)
    y = None
    for _ in range(50):
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


class _NArnoldi(_Search):
    proj = None  # the projection, made by ``begin``

    def begin(self):
        n, V = self.n, self.xt[:, None]
        if self.proj is not None:
            # keep the basis less the locked direction, or the next projected
            # solve finds the new eigenvector again (at eta = inf); a
            # rank-revealing QR drops the direction that vanishes with it
            V = np.vstack([self.proj.V, np.zeros((1, self.proj.m), dtype=complex)])
            x = self.pair.X[:, -1]
            V[:n] -= np.outer(x, x.conj() @ V[:n])
            Q, R, _ = scipy.linalg.qr(V, mode="economic", pivoting=True)
            V = Q[:, np.abs(np.diag(R)) > RANK_TOL]  # the columns of V had unit norm
        self.use(ExtSolveContext(self.pair, self.op, self.target, self.lin_cfg))
        self.proj = ProjectionContext(self.pair, self.op, V)

    def iterate(self):
        try:
            # every projected solve starts from the target, so the Ritz value
            # it picks does not depend on where earlier steps ended
            y, self.lam = dense_nep_slp(self.proj, self.target, max(1e-13, 1e-2 * self.tol))
        except NepError:
            return None
        x = self.proj.V @ y
        self.xt = x / np.linalg.norm(x)
        return self.vector()

    def restarted(self):
        """A fresh search space from the restart vector."""
        self.reset()
        self.proj = ProjectionContext(self.pair, self.op, self.xt[:, None])

    def advance(self, eta, r1, r2):
        n, proj = self.n, self.proj
        v1, v2 = self.ctx.solve(r1, r2)
        if proj.m >= self.settings.ncv_effective:
            # restart keeping only the current Ritz vector
            self.stats["restarts"] += 1
            proj = self.proj = ProjectionContext(self.pair, self.op, self.xt[:, None])
        w = np.concatenate([v1, v2])
        for _ in range(6):
            _, beta, w, dep = orthogonalize(proj.V, w)
            if not dep:
                break
            # correction already in the subspace: try a random direction
            w = _random_unit(self.rng, n + self.pair.k)
        else:
            raise NepError("subspace expansion broke down")
        proj.append(w[:n] / beta, w[n:] / beta)
        return True


def narnoldi_solve(
    op: NepOperator,
    settings: Settings,
    *,
    lin_cfg: Optional[LinearSolverConfig] = None,
) -> EigenSolution:
    """Nonlinear Arnoldi iteration for a few eigenpairs near the target."""
    if not op.is_split:
        raise NepError("the nonlinear Arnoldi solver requires the split form")
    return _NArnoldi(op, settings, lin_cfg=lin_cfg).run()

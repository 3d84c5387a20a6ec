"""Chebyshev interpolation solver for real eigenvalues in an interval.

This is NLEIGS with every pole at infinity.  T is interpolated at the
degree+1 Chebyshev points of the interval, in Leja order from the target, in
NLEIGS's Newton form, and the divided differences stop where they fall below
``DD_TOL_DEFAULT``: ``degree`` is an upper bound and ``stats["degree"]`` the
degree used, since coefficients of rounding size only add spurious
eigenvalues.  The linearization is solved by NLEIGS's shift loop
(``nleigs.shift_invert_pairs``): shift-and-invert Krylov-Schur at the
target and, while pairs are missing, at the midpoint of the widest stretch
of the interval that no shift or eigenvalue covers, with NLEIGS's
Ritz-to-eigenpair rule.  The pair test is the interpolant residual
eta_poly; pairs are returned at Re lam with eta against T, and a degree too
small for tol against T leaves the solve unconverged (see ``core.finish``).
``ChebPoly`` is the interpolant in the Chebyshev basis, whose coefficients
show how fast T is resolved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .core import (
    EigenPair,
    EigenSolution,
    Interval,
    NepError,
    NepOperator,
    Settings,
    backward_error,
    finish,
)
from .linalg import LinearSolverConfig, SplitSum
from .nleigs import _GreedySequence, divided_differences, shift_invert_pairs

__all__ = ["cheb_nodes", "cheb_coeffs", "ChebPoly", "interpol_solve"]

DEFAULT_DEGREE = 20


def cheb_nodes(d: int) -> np.ndarray:
    """Chebyshev nodes cos((i+1/2) pi / (d+1)), i = 0..d, in [-1, 1]."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    i = np.arange(d + 1)
    return np.cos((i + 0.5) * np.pi / (d + 1))


@dataclass
class ChebPoly:
    """Matrix polynomial P_d = sum_k C_k tau_k(theta), C_0 with weight 1/2,
    theta being lam mapped to [-1, 1].

    As in ``nleigs.RationalInterpolant``, C_k = sum_i coeffs[i, k] M_i over ``mats``: the
    A_i with each f_i's Chebyshev coefficients, or T at the d+1 nodes with the cosine matrix.
    """

    interval: Interval
    mats: SplitSum
    coeffs: np.ndarray

    def eval(self, lam: complex) -> sp.csr_matrix:
        a, b = self.interval.a, self.interval.b
        tau = np.polynomial.chebyshev.chebvander(complex(2 * lam - (b + a)) / (b - a), self.coeffs.shape[1] - 1)[0]
        tau[0] *= 0.5
        return self.mats.assemble(self.coeffs @ tau)


def cheb_coeffs(op: NepOperator, interval: Interval, d: int) -> ChebPoly:
    """Interpolate T at the mapped Chebyshev nodes.

    C_k = 2/(d+1) sum_i T(map(cos w_i)) cos(k w_i) with w_i = (i+1/2)pi/(d+1);
    in split form only the f_i are evaluated at the nodes.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    omegas = (np.arange(d + 1) + 0.5) * np.pi / (d + 1)
    a, b = interval.a, interval.b
    mapped = 0.5 * (b - a) * np.cos(omegas) + 0.5 * (b + a)
    cosines = np.cos(np.outer(omegas, np.arange(d + 1))) * (2.0 / (d + 1))  # node i, degree k
    if op.is_split:
        values = np.array([op.coefficients(complex(lam)) for lam in mapped]).T
        return ChebPoly(Interval(a, b), op.mats, values @ cosines)
    return ChebPoly(Interval(a, b), SplitSum([op.assemble(complex(lam)) for lam in mapped]), cosines)


def interpol_solve(
    op: NepOperator,
    settings: Settings,
    *,
    degree: int = DEFAULT_DEGREE,
    lin_cfg: Optional[LinearSolverConfig] = None,
) -> EigenSolution:
    """Chebyshev interpolation + linearized polynomial eigensolve.

    Restricted to interval regions; ``degree`` (at least 2, as NLEIGS's
    recurrences need) bounds the interpolation degree.  Eigenvalue
    approximations outside the interval or with an interpolant residual
    eta_poly above tol are discarded; the rest are returned at Re lambda
    with eta against T and eta_poly attached.  Both count towards
    ``converged``, so a degree too small to resolve T shows as
    converged=False, with a note suggesting a higher degree.
    """
    region = settings.region
    if not isinstance(region, Interval):
        raise NepError("the interpolation solver requires an interval region")
    if degree < 2:
        raise ValueError("interpolation degree must be at least 2")
    nodes = 0.5 * (region.b - region.a) * cheb_nodes(degree) + 0.5 * (region.b + region.a)
    ri = divided_differences(op, _GreedySequence(nodes, [], settings.target), d_max=degree)
    tested, stats, _ = shift_invert_pairs(ri, settings, lambda lam, x: backward_error(ri, lam, x), lin_cfg=lin_cfg)
    stats["degree"] = ri.d
    pairs = [EigenPair(p.lam, p.x, backward_error(op, p.lam, p.x), eta_poly=p.eta) for p in tested]

    notes = []
    if pairs and max(p.eta for p in pairs) > 100 * max(p.eta_poly for p in pairs) + settings.tol:
        notes.append(
            "residuals against T exceed the interpolant residuals; "
            "consider increasing the interpolation degree"
        )
    return finish(settings, pairs, stats, notes)

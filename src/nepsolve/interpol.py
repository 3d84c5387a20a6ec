"""Chebyshev interpolation solver for real eigenvalues in an interval.

T is replaced by the degree-d Chebyshev interpolant P_d on the interval, held
as NLEIGS holds its rational interpolant (combinations of the A_i, or of T at
the nodes for a callback operator).  Its colleague-type linearization is
solved densely for small pencils, otherwise by shift-and-invert Krylov-Schur
on NLEIGS's compact basis (``linalg.ToarBasisEngine``), whose Ritz pairs
become eigenpairs by ``linalg.ShiftInvertRun``, the rule of NLEIGS, with
interpol's own region test (a 1% pad, |Im lam| within 1e-8 max(1, |lam|)
whatever the Ritz error); both paths test the interpolant residual eta_poly,
and return their pairs, at Re lam.  Residuals are reported against T; the
degree bounds the attainable accuracy and is a user choice, and a degree too
small for tol against T leaves the solve unconverged (see ``core.finish``).
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
from .linalg import (
    LinearSolverConfig,
    ShiftInvertRun,
    SplitSum,
    ToarBasisEngine,
    lu_factor,
    make_linear_solver,
)

__all__ = ["cheb_nodes", "cheb_coeffs", "ChebPoly", "ColleaguePencil", "interpol_solve"]

DEFAULT_DEGREE = 20
FILTER_MARGIN = 0.01
# Above this pencil dimension n*(d+1) the linearization is never formed and a
# shift-and-invert Krylov iteration is used instead (a dense solve of the full
# pencil needs minutes already at the 4k mark).
DENSE_PENCIL_CAP = 1500


def cheb_nodes(d: int) -> np.ndarray:
    """Chebyshev nodes cos((i+1/2) pi / (d+1)), i = 0..d, in [-1, 1]."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    i = np.arange(d + 1)
    return np.cos((i + 0.5) * np.pi / (d + 1))


@dataclass
class ChebPoly:
    """Matrix polynomial P_d = sum_k C_k tau_k(theta), C_0 with weight 1/2.

    As in ``nleigs.RationalInterpolant``, C_k = sum_i coeffs[i, k] M_i over ``mats``: the
    A_i with each f_i's Chebyshev coefficients, or T at the d+1 nodes with the cosine matrix.
    ``theta`` is lam mapped to [-1, 1].  P_d is scaled as T is: sum_i |w_i| ||M_i||_inf.
    """

    interval: Interval
    mats: SplitSum
    coeffs: np.ndarray

    @property
    def degree(self) -> int:
        return self.coeffs.shape[1] - 1

    @property
    def n(self) -> int:
        return self.mats.n

    def theta(self, lam: complex) -> complex:
        a, b = self.interval.a, self.interval.b
        return (2 * lam - (b + a)) / (b - a)

    def lam(self, theta: complex) -> complex:
        a, b = self.interval.a, self.interval.b
        return 0.5 * (b - a) * theta + 0.5 * (b + a)

    def tau_values(self, theta: complex) -> np.ndarray:
        d = self.degree
        vals = np.empty(d + 1, dtype=complex)
        vals[0] = 1.0
        if d >= 1:
            vals[1] = theta
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(2, d + 1):
                vals[k] = 2 * theta * vals[k - 1] - vals[k - 2]
        return vals

    def weights(self, lam: complex) -> np.ndarray:
        """The weight of each matrix M_i in P_d(lam)."""
        w = self.tau_values(self.theta(lam))
        w[0] *= 0.5
        return self.coeffs @ w

    def eval(self, lam: complex) -> sp.csr_matrix:
        return self.mats.assemble(self.weights(lam))

    def apply(self, lam: complex, v: np.ndarray) -> np.ndarray:
        return self.mats.apply(self.weights(lam), v)

    def norm_scale(self, lam: complex) -> float:
        return self.mats.scale(self.weights(lam))


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


class ColleaguePencil:
    """Colleague-type linearization of a Chebyshev matrix polynomial.

    The pencil (A, B) of size d*n acts on blocks z_k = tau_k(theta) x; its
    eigenvalues are the roots of det P_d in the theta variable.  It is formed
    only for small problems (``build_dense``); otherwise ``toar_expand`` feeds
    the compact basis, in complex scalars, with one solve per step.
    """

    dtype = np.dtype(complex)

    def __init__(self, poly: ChebPoly):
        if poly.degree < 1:
            raise NepError("linearization needs degree at least 1")
        self.poly = poly
        self.d = poly.degree
        self.n = poly.n
        self._shift = None
        self._solver = None

    # dense construction, used by small problems and oracles
    def build_dense(self):
        d, n = self.d, self.n
        Chat = [self.poly.mats.assemble(c).toarray() for c in self.poly.coeffs.T]
        Chat[0] *= 0.5
        Cd = Chat.pop()
        if d == 1:
            return -Chat[0], Cd
        A = np.zeros((d * n, d * n), dtype=complex)
        B = np.zeros((d * n, d * n), dtype=complex)
        eye = np.eye(n)
        A[:n, n : 2 * n] = eye
        for k in range(1, d - 1):
            A[k * n : (k + 1) * n, (k - 1) * n : k * n] = 0.5 * eye
            A[k * n : (k + 1) * n, (k + 1) * n : (k + 2) * n] = 0.5 * eye
        r = (d - 1) * n
        for k in range(d):
            A[r : r + n, k * n : (k + 1) * n] = -0.5 * Chat[k]
        A[r : r + n, (d - 2) * n : (d - 1) * n] += 0.5 * Cd
        for k in range(d - 1):
            B[k * n : (k + 1) * n, k * n : (k + 1) * n] = eye
        B[r : r + n, r : r + n] = Cd
        return A, B

    def factor(self, theta_sigma: complex, lin_cfg: Optional[LinearSolverConfig] = None):
        """Factor P_d(theta_sigma) for subsequent shift-invert applies."""
        P = self.poly.eval(self.poly.lam(theta_sigma))
        self._solver = make_linear_solver(P, lin_cfg)
        self._shift = complex(theta_sigma)
        return self

    @property
    def solve_count(self) -> int:
        return self._solver.solve_count if self._solver is not None else 0

    def toar_expand(self, U: np.ndarray, g: np.ndarray):
        """S = (A - theta_sigma B)^{-1} B on the vector with d coefficient rows ``g`` on U.

        Returns ``(y0, G)`` with S (I_d (x) U) g = (I_d (x) [U, y0]) G: block k is
        tau_k(theta_sigma) y0 + U t_k (t_0 = 0, t_1 = g_0, t_{k+1} = 2 theta_sigma t_k
        - t_{k-1} + 2 g_k), and P_d(theta_sigma) y0 = -sum_{k>=1} C_k U t_k.
        """
        if self._solver is None:
            raise NepError("factor() must be called before applying the pencil")
        d, mu, ts = self.d, U.shape[1], self._shift
        t = np.zeros((d + 1, mu), dtype=self.dtype)
        t[1] = g[0]
        for k in range(1, d):
            t[k + 1] = 2 * ts * t[k] - t[k - 1] + 2 * g[k]
        y0 = self._solver.solve(-self.poly.mats.combine((self.poly.coeffs[:, 1:] @ t[1:]) @ U.T))
        G = np.empty((d, mu + 1), dtype=self.dtype)
        G[:, :mu] = t[:d]
        G[:, mu] = self.poly.tau_values(ts)[:d]
        return y0, G


def _region_test(region: Interval):
    """interpol's ``contains``: lam in the interval padded by FILTER_MARGIN of
    its width, and strict in |Im lam| whatever the Ritz error (NLEIGS allows
    for it), so ``imag_tol`` is ignored."""
    pad = FILTER_MARGIN * (region.b - region.a)
    padded = Interval(region.a - pad, region.b + pad)
    return lambda lam, imag_tol=None: padded.contains(lam, imag_tol=1e-8 * max(1.0, abs(lam)))


def _dense_pairs(settings, poly: ChebPoly, pencil: ColleaguePencil, contains):
    """Small problems: form the pencil and take every eigenvalue at once.

    B is block diagonal with identities and the leading coefficient, so the
    generalized problem reduces to a standard one via B^{-1} A.  Returns the
    ``(lam, x, eta_poly)`` of the eigenvalues inside the interval, nearest
    the target first, at Re lam and with eta_poly <= tol, and the stats.
    """
    A, B = pencil.build_dense()
    # invert A rather than B: the leading Chebyshev coefficient in B decays
    # with the degree, and dividing by it would wreck the computed pairs
    try:
        M = lu_factor(A).solve(B)
    except np.linalg.LinAlgError as exc:
        raise NepError("colleague pencil matrix is singular") from exc
    w, V = np.linalg.eig(M)
    with np.errstate(divide="ignore", invalid="ignore"):
        thetas = np.where(w != 0, 1.0 / w, np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        order = np.argsort(np.abs(poly.lam(thetas) - complex(settings.target)))
    pairs = []
    for i in order:
        if not np.isfinite(thetas[i]):
            continue
        lam, x = poly.lam(thetas[i]), V[: pencil.n, i]
        nx = np.linalg.norm(x)
        if nx == 0 or not contains(lam):
            continue
        lam, x = complex(lam.real), x / nx
        eta_poly = backward_error(poly, lam, x)
        if eta_poly <= settings.tol:
            pairs.append((lam, x, eta_poly))
    return pairs, {"outer_iterations": 1, "linear_solves": 0, "pencil": "dense"}


def _krylov_pairs(settings, poly: ChebPoly, pencil: ColleaguePencil, contains, lin_cfg):
    """Large problems: shift-and-invert Krylov-Schur on the implicit pencil.

    Returns ``ShiftInvertRun.harvest``'s ``(lam, x, eta_poly)``, in wanted
    order, and the stats.
    """
    # internal Krylov shift: the mapped target, clamped away from the interval
    # ends.  At the ends the shift-inverted images of wanted and spurious
    # pencil eigenvalues interleave with ratios near one and the iteration
    # crawls; the returned pairs are still selected by distance to the target.
    theta_sigma = complex(np.clip(poly.theta(complex(settings.target)).real, -0.8, 0.8))
    for nudge in (0.0, 0.04, -0.04, 0.09, -0.09, 0.15):
        try:
            pencil.factor(theta_sigma + nudge, lin_cfg)
            break
        except np.linalg.LinAlgError:
            continue
    else:
        raise NepError("P_d could not be factored near the target")
    theta_sigma = theta_sigma + nudge

    d, n = pencil.d, pencil.n
    ncv = min(settings.ncv_effective, d * n)
    engine = ToarBasisEngine(pencil, np.broadcast_to(np.ones(n, dtype=pencil.dtype), (d, n)), ncv)
    run = ShiftInvertRun(
        engine,
        ncv,
        settings,
        lambda thetas: poly.lam(theta_sigma + 1.0 / thetas),
        np.random.default_rng(settings.seed),
        contains=contains,
        pair_eta=lambda lam, x: backward_error(poly, lam, x),
    )
    run.driver.run(settings.nev, settings.max_it_effective)
    return run.harvest(), {"outer_iterations": run.driver.restarts, "linear_solves": pencil.solve_count}


def interpol_solve(
    op: NepOperator,
    settings: Settings,
    *,
    degree: int = DEFAULT_DEGREE,
    lin_cfg: Optional[LinearSolverConfig] = None,
) -> EigenSolution:
    """Chebyshev interpolation + linearized polynomial eigensolve.

    Restricted to interval regions.  Eigenvalue approximations outside the
    interval (with a 1% margin) or with an interpolant residual eta_poly
    above tol are discarded; the rest are returned at Re lambda with eta
    against T and eta_poly attached.  Both count towards ``converged``, so
    a degree too small to resolve T shows as converged=False, with a note
    suggesting a higher degree.
    """
    region = settings.region
    if not isinstance(region, Interval):
        raise NepError("the interpolation solver requires an interval region")
    if degree < 1:
        raise ValueError("interpolation degree must be at least 1")
    poly = cheb_coeffs(op, region, degree)
    pencil = ColleaguePencil(poly)
    contains = _region_test(region)
    if op.n * (degree + 1) <= DENSE_PENCIL_CAP:
        tested, stats = _dense_pairs(settings, poly, pencil, contains)
    else:
        tested, stats = _krylov_pairs(settings, poly, pencil, contains, lin_cfg)
    stats["degree"] = degree
    pairs = [EigenPair(lam, x, backward_error(op, lam, x), eta_poly=eta_poly) for lam, x, eta_poly in tested]

    notes = []
    if pairs and max(p.eta for p in pairs) > 100 * max(p.eta_poly for p in pairs) + settings.tol:
        notes.append(
            "residuals against T exceed the interpolant residuals; "
            "consider increasing the interpolation degree"
        )
    return finish(settings, pairs, stats, notes)

"""Chebyshev interpolation solver for real eigenvalues in an interval.

T is replaced by the degree-d Chebyshev interpolant P_d on the interval, the
resulting polynomial eigenproblem is solved through a colleague-type
linearization with an implicit shift-and-invert Krylov iteration, and the
approximations are filtered back against the interval.  The Krylov path
reads its Ritz pairs back as eigenpairs by ``linalg.ShiftInvertRun``, the
rule of NLEIGS, with interpol's own region test (a 1% pad, |Im lam| within
1e-8 max(1, |lam|) whatever the Ritz error); both paths test the
interpolant residual eta_poly, and return their pairs, at Re lam.
Residuals are reported against the original T; the interpolation degree
bounds the attainable accuracy and is a user choice, and a degree too small
for tol against T leaves the solve unconverged (see ``core.finish``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

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
    FullBasisEngine,
    LinearSolverConfig,
    ShiftInvertRun,
    SplitSum,
    lu_factor,
    make_linear_solver,
    sparse_times,
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
    """Matrix polynomial sum_k C_k tau_k(theta) in the Chebyshev basis.

    ``coeffs[0]`` enters with weight 1/2.  ``theta`` is the interval variable
    mapped to [-1, 1].
    """

    interval: Interval
    coeffs: List[sp.csr_matrix]

    def __post_init__(self):
        self._sum = SplitSum(self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def n(self) -> int:
        return self.coeffs[0].shape[0]

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
        w = self.tau_values(self.theta(lam))
        w[0] *= 0.5
        return w

    def eval(self, lam: complex) -> sp.csr_matrix:
        return self._sum.assemble(self.weights(lam))

    def apply(self, lam: complex, v: np.ndarray) -> np.ndarray:
        return self._sum.apply(self.weights(lam), v)

    def norm_scale(self, lam: complex) -> float:
        return self._sum.scale(self.weights(lam))


def cheb_coeffs(op: NepOperator, interval: Interval, d: int) -> ChebPoly:
    """Interpolate T at the mapped Chebyshev nodes.

    C_k = 2/(d+1) sum_i T(map(cos w_i)) cos(k w_i) with w_i = (i+1/2)pi/(d+1).
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    omegas = (np.arange(d + 1) + 0.5) * np.pi / (d + 1)
    nodes = np.cos(omegas)
    a, b = interval.a, interval.b
    mapped = 0.5 * (b - a) * nodes + 0.5 * (b + a)
    Ts = SplitSum([op.assemble(complex(lam)) for lam in mapped])
    coeffs = [Ts.assemble(np.cos(k * omegas) * (2.0 / (d + 1))) for k in range(d + 1)]
    return ChebPoly(Interval(a, b), coeffs)


class ColleaguePencil:
    """Colleague-type linearization of a Chebyshev matrix polynomial.

    The pencil (A, B) of size d*n acts on blocks z_k = tau_k(theta) x; its
    eigenvalues are the roots of det P_d in the theta variable.  Shift-and-
    invert applications use one factorization of P_d(theta_sigma) plus the
    three-term recurrence, so the pencil is never formed for large problems.
    """

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
        C = [M.toarray() for M in self.poly.coeffs]
        Chat = [c.copy() for c in C[:-1]]
        Chat[0] = 0.5 * C[0]
        Cd = C[-1]
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

    def apply_shift_invert(self, x: np.ndarray) -> np.ndarray:
        """(A - theta_sigma B)^{-1} B x through block elimination."""
        if self._solver is None:
            raise NepError("factor() must be called before applying the pencil")
        d, n = self.d, self.n
        ts = self._shift
        C = self.poly.coeffs
        x = x.reshape(d, n)
        if d == 1:
            return self._solver.solve(-sparse_times(C[1], x[0]))
        # right-hand side blocks c = B x
        c = [x[k] for k in range(d - 1)] + [sparse_times(C[-1], x[d - 1])]
        # z_k = tau_k(ts) z_0 + s_k
        s = [np.zeros(n, dtype=complex), c[0]]
        for k in range(1, d - 1):
            s.append(2 * ts * s[k] - s[k - 1] + 2 * c[k])
        tau = self.poly.tau_values(ts)
        rhs = -2.0 * c[d - 1] + sparse_times(C[-1], s[d - 2]) - 2.0 * ts * sparse_times(C[-1], s[d - 1])
        rhs -= 0.5 * sparse_times(C[0], s[0])
        for k in range(1, d):
            rhs -= sparse_times(C[k], s[k])
        z0 = self._solver.solve(rhs)
        z = np.empty((d, n), dtype=complex)
        for k in range(d):
            z[k] = tau[k] * z0 + s[k]
        return z.reshape(d * n)


def _in_interval(region: Interval, lam: complex) -> bool:
    # strict in |Im lam|, whatever the Ritz error (NLEIGS allows for it)
    return region.contains(lam, pad=FILTER_MARGIN, imag_tol=1e-8 * max(1.0, abs(lam)))


def _dense_pairs(settings, poly: ChebPoly, pencil: ColleaguePencil):
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
        if nx == 0 or not _in_interval(settings.region, lam):
            continue
        lam, x = complex(lam.real), x / nx
        eta_poly = backward_error(poly, lam, x)
        if eta_poly <= settings.tol:
            pairs.append((lam, x, eta_poly))
    return pairs, {"outer_iterations": 1, "linear_solves": 0, "pencil": "dense"}


def _krylov_pairs(settings, poly: ChebPoly, pencil: ColleaguePencil, lin_cfg):
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
    engine = FullBasisEngine(pencil.apply_shift_invert, np.ones((d, n), dtype=complex), ncv)
    run = ShiftInvertRun(
        engine,
        ncv,
        settings,
        lambda thetas: poly.lam(theta_sigma + 1.0 / thetas),
        np.random.default_rng(settings.seed),
        contains=lambda lam, imag_tol: _in_interval(settings.region, lam),
        real=True,
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
    if op.n * (degree + 1) <= DENSE_PENCIL_CAP:
        tested, stats = _dense_pairs(settings, poly, pencil)
    else:
        tested, stats = _krylov_pairs(settings, poly, pencil, lin_cfg)
    stats["degree"] = degree
    pairs = [EigenPair(lam, x, backward_error(op, lam, x), eta_poly=eta_poly) for lam, x, eta_poly in tested]

    notes = []
    if pairs and max(p.eta for p in pairs) > 100 * max(p.eta_poly for p in pairs) + settings.tol:
        notes.append(
            "residuals against T exceed the interpolant residuals; "
            "consider increasing the interpolation degree"
        )
    return finish(settings, pairs, stats, notes)

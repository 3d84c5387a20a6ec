"""Chebyshev interpolation solver for real eigenvalues in an interval.

T is replaced by the degree-d Chebyshev interpolant P_d on the interval, the
resulting polynomial eigenproblem is solved through a colleague-type
linearization with an implicit shift-and-invert Krylov iteration, and the
approximations are filtered back against the interval.  Residuals are
reported against the original T; the interpolation degree bounds the
attainable accuracy and is a user choice.
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
)
from .linalg import (
    FullBasisEngine,
    KrylovSchurDriver,
    LinearSolverConfig,
    SplitSum,
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

    def scale_norm(self, lam: complex) -> float:
        return self._sum.scale(self.weights(lam))

    def residual(self, lam: complex, x: np.ndarray) -> float:
        nx = np.linalg.norm(x)
        return float(np.linalg.norm(self.apply(lam, x)) / (self.scale_norm(lam) * nx))


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
            return self._solver.solve(-(C[1] @ x[0]))
        # right-hand side blocks c = B x
        c = [x[k] for k in range(d - 1)] + [C[-1] @ x[d - 1]]
        # z_k = tau_k(ts) z_0 + s_k
        s = [np.zeros(n, dtype=complex), c[0]]
        for k in range(1, d - 1):
            s.append(2 * ts * s[k] - s[k - 1] + 2 * c[k])
        tau = np.empty(d + 1, dtype=complex)
        tau[0] = 1.0
        tau[1] = ts
        for k in range(2, d + 1):
            tau[k] = 2 * ts * tau[k - 1] - tau[k - 2]
        rhs = -2.0 * c[d - 1] + C[-1] @ s[d - 2] - 2.0 * ts * (C[-1] @ s[d - 1])
        rhs -= 0.5 * (C[0] @ s[0])
        for k in range(1, d):
            rhs -= C[k] @ s[k]
        z0 = self._solver.solve(rhs)
        z = np.empty((d, n), dtype=complex)
        for k in range(d):
            z[k] = tau[k] * z0 + s[k]
        return z.reshape(d * n)


def _solve_dense_pencil(op, settings, poly: ChebPoly, pencil: ColleaguePencil, degree: int) -> EigenSolution:
    """Small problems: form the pencil and take every eigenvalue at once.

    B is block diagonal with identities and the leading coefficient, so the
    generalized problem reduces to a standard one via B^{-1} A.
    """
    region = settings.region
    A, B = pencil.build_dense()
    n = pencil.n
    # invert A rather than B: the leading Chebyshev coefficient in B decays
    # with the degree, and dividing by it would wreck the computed pairs
    try:
        M = lu_factor(A).solve(B)
    except np.linalg.LinAlgError as exc:
        raise NepError("colleague pencil matrix is singular") from exc
    w, V = np.linalg.eig(M)
    with np.errstate(divide="ignore", invalid="ignore"):
        thetas = np.where(w != 0, 1.0 / w, np.inf)
    pairs = []
    seen = []
    with np.errstate(over="ignore", invalid="ignore"):
        order = np.argsort(np.abs(poly.lam(thetas) - complex(settings.target)))
    for i in order:
        if w[i] == 0 or not np.isfinite(thetas[i]):
            continue
        lam = poly.lam(thetas[i])
        if not region.contains(lam, pad=FILTER_MARGIN, imag_tol=1e-8 * max(1.0, abs(lam))):
            continue
        lam = complex(lam.real)
        x = V[:n, i]
        nx = np.linalg.norm(x)
        if nx == 0:
            continue
        x = x / nx
        eta_poly = poly.residual(lam, x)
        if eta_poly > settings.tol:
            continue
        if any(abs(lam - s) <= 1e-10 * max(1.0, abs(s)) for s in seen):
            continue
        pairs.append(EigenPair(lam, x, backward_error(op, lam, x), eta_poly=eta_poly))
        seen.append(lam)
    key = settings.sort_key()
    if pairs:
        so = np.argsort(key(np.array([p.lam for p in pairs])), kind="stable")
        pairs = [pairs[i] for i in so]
    converged = sum(1 for p in pairs[: settings.nev] if p.eta_poly <= settings.tol) >= settings.nev
    stats = {"outer_iterations": 1, "linear_solves": 0, "degree": degree, "pencil": "dense"}
    return EigenSolution(pairs=pairs, stats=stats, converged=converged)


def interpol_solve(
    op: NepOperator,
    settings: Settings,
    *,
    degree: int = DEFAULT_DEGREE,
    lin_cfg: Optional[LinearSolverConfig] = None,
) -> EigenSolution:
    """Chebyshev interpolation + linearized polynomial eigensolve.

    Restricted to interval regions.  Eigenvalue approximations outside the
    interval (with a 1% margin) are discarded; residuals against both the
    interpolant and the original operator are attached to each pair, and a
    large mismatch flags an interpolation degree that is too small.
    """
    region = settings.region
    if not isinstance(region, Interval):
        raise NepError("the interpolation solver requires an interval region")
    if degree < 1:
        raise ValueError("interpolation degree must be at least 1")
    poly = cheb_coeffs(op, region, degree)
    pencil = ColleaguePencil(poly)
    if op.n * (degree + 1) <= DENSE_PENCIL_CAP:
        return _solve_dense_pencil(op, settings, poly, pencil, degree)
    # internal Krylov shift: the mapped target, clamped away from the interval
    # ends.  At the ends the shift-inverted images of wanted and spurious
    # pencil eigenvalues interleave with ratios near one and the iteration
    # crawls; the returned pairs are still selected by distance to the target.
    theta_sigma = complex(np.clip(poly.theta(complex(settings.target)).real, -0.8, 0.8))
    factored = False
    for nudge in (0.0, 0.04, -0.04, 0.09, -0.09, 0.15):
        try:
            pencil.factor(theta_sigma + nudge, lin_cfg)
            theta_sigma = theta_sigma + nudge
            factored = True
            break
        except np.linalg.LinAlgError:
            continue
    if not factored:
        raise NepError("P_d could not be factored near the target")

    d, n = pencil.d, pencil.n
    total = d * n
    ncv = min(settings.ncv_effective, total)
    lam_key = settings.sort_key()

    def mapped(thetas):
        with np.errstate(divide="ignore", invalid="ignore"):
            lam_pencil = theta_sigma + 1.0 / np.asarray(thetas, dtype=complex)
        lams = np.array([poly.lam(t) for t in lam_pencil])
        lams[~np.isfinite(lams)] = np.inf
        return lams

    def in_region(lam: complex) -> bool:
        return region.contains(lam, pad=FILTER_MARGIN, imag_tol=1e-8 * max(1.0, abs(lam)))

    def keyfun(thetas):
        return lam_key(mapped(thetas))

    def wanted_filter(thetas, _res):
        return np.array([np.isfinite(l) and in_region(l) for l in mapped(thetas)])

    engine = FullBasisEngine(pencil.apply_shift_invert, np.ones((d, n), dtype=complex), ncv)
    driver = KrylovSchurDriver(
        engine,
        ncv,
        max(1e-14, 0.01 * settings.tol),
        keyfun,
        wanted_filter,
        np.random.default_rng(settings.seed),
    )

    def pair_test(theta, y, m):
        if theta == 0 or not np.isfinite(theta):
            return False
        lam = poly.lam(theta_sigma + 1.0 / theta)
        x = engine.ritz_first_block(y, m)
        nx = np.linalg.norm(x)
        if nx == 0 or not np.isfinite(nx):
            return False
        return poly.residual(complex(lam), x / nx) <= settings.tol

    driver.pair_test = pair_test
    driver.run(settings.nev, settings.max_it_effective)

    pairs = []
    seen = []
    for theta, y, _res, ok in driver.extract():
        if not ok:
            continue
        lam = complex(poly.lam(theta_sigma + 1.0 / theta).real)  # interval regions carry real spectra
        x = engine.ritz_first_block(y, driver.m)
        nx = np.linalg.norm(x)
        if nx == 0:
            continue
        x = x / nx
        if any(abs(lam - s) <= 1e-10 * max(1.0, abs(s)) for s in seen):
            continue
        eta_poly = poly.residual(lam, x)
        eta = backward_error(op, lam, x)
        pairs.append(EigenPair(lam, x, eta, eta_poly=eta_poly))
        seen.append(lam)

    if pairs:
        order = np.argsort(lam_key(np.array([p.lam for p in pairs])), kind="stable")
        pairs = [pairs[i] for i in order]
    converged = sum(1 for p in pairs[: settings.nev] if p.eta_poly <= settings.tol) >= settings.nev
    stats = {
        "outer_iterations": driver.restarts,
        "linear_solves": pencil.solve_count,
        "degree": degree,
    }
    if pairs and max(p.eta for p in pairs) > 100 * max(p.eta_poly for p in pairs) + settings.tol:
        stats["degree_warning"] = (
            "residuals against T exceed the interpolant residuals; "
            "consider increasing the interpolation degree"
        )
    return EigenSolution(pairs=pairs, stats=stats, converged=converged)

"""Dense and sparse linear-algebra kernels shared by the eigensolvers.

Dense matrices are plain complex ndarrays and sparse matrices are scipy CSR;
the routines here wrap LAPACK/SuperLU factorizations, provide reorthogonalized
Gram-Schmidt, small wrappers around the iterative linear solvers and one
kernel for split-form sums sum_i w_i M_i of sparse matrices.  One
Krylov-Schur driver with restart and locking runs every Krylov eigensolve:
NLEIGS and interpol on their shift-and-invert operators, and SLP's inner
linear eigenproblem through ``gen_eig_smallest``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "SingularMatrixError",
    "DenseLU",
    "lu_factor",
    "orthogonalize",
    "LinearSolverConfig",
    "make_linear_solver",
    "iterative_solve",
    "IterativeResult",
    "inf_norm",
    "SplitSum",
    "FullBasisEngine",
    "KrylovSchurDriver",
    "gen_eig_smallest",
]

BREAKDOWN_RTOL = 1e-14
COPY_RTOL = 1e-8


class SingularMatrixError(np.linalg.LinAlgError):
    pass


# -- dense factorizations ------------------------------------------------------


@dataclass
class DenseLU:
    lu: np.ndarray
    piv: np.ndarray

    def solve(self, b, adjoint: bool = False):
        trans = 2 if adjoint else 0
        return scipy.linalg.lu_solve((self.lu, self.piv), b, trans=trans, check_finite=False)


def lu_factor(A: np.ndarray) -> DenseLU:
    """LU with partial pivoting; raises on an exactly singular pivot."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("lu_factor requires a square matrix")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    diag = np.abs(np.diag(lu))
    zeros = np.flatnonzero(diag == 0.0)
    if zeros.size:
        raise SingularMatrixError(f"exactly singular pivot at index {int(zeros[0])}")
    return DenseLU(lu, piv)


# -- orthogonalization ---------------------------------------------------------


def orthogonalize(V: np.ndarray, w: np.ndarray):
    """Classical Gram-Schmidt with one unconditional reorthogonalization.

    Returns ``(h, beta, w_orth, dependent)`` where ``h = V^* w`` accumulated
    over both sweeps, ``beta = ||w_orth||`` and ``dependent`` flags a vector
    that lies in span(V) up to the breakdown threshold.
    """
    w = np.asarray(w, dtype=complex)
    nrm_w = np.linalg.norm(w)
    if V is None or V.shape[1] == 0:
        beta = nrm_w
        return np.zeros(0, dtype=complex), beta, w.copy(), beta <= BREAKDOWN_RTOL * max(nrm_w, 1.0)
    h = np.zeros(V.shape[1], dtype=complex)
    w_orth = w.copy()
    for _ in range(2):
        # V^H w without materializing conj(V)
        c = np.conj(np.conj(w_orth) @ V)
        w_orth = w_orth - V @ c
        h += c
    beta = np.linalg.norm(w_orth)
    dependent = beta <= BREAKDOWN_RTOL * nrm_w
    return h, beta, w_orth, dependent


# -- linear solvers ------------------------------------------------------------


@dataclass
class LinearSolverConfig:
    """Configuration for linear solves with a (sparse) system matrix."""

    mode: str = "direct"  # direct | gmres | bicgstab
    tol: float = 1e-10
    maxit: int = 2000
    restart: int = 50
    preconditioner: str = "jacobi"  # jacobi | none

    def __post_init__(self):
        if self.mode not in ("direct", "gmres", "bicgstab"):
            raise ValueError(f"unknown linear solver mode {self.mode!r}")
        if self.preconditioner not in ("jacobi", "none"):
            raise ValueError(f"unknown preconditioner {self.preconditioner!r}")


@dataclass
class IterativeResult:
    x: np.ndarray
    converged: bool
    residual_norm: float
    iterations: int
    breakdown: bool = False


class _DirectSolver:
    """Sparse (SuperLU) or dense LU factorization with adjoint solves."""

    def __init__(self, A):
        self.solve_count = 0
        if sp.issparse(A):
            self.n = A.shape[0]
            try:
                self._lu = spla.splu(sp.csc_matrix(A.astype(complex)))
            except RuntimeError as exc:
                raise SingularMatrixError(str(exc)) from exc
            self._dense = None
        else:
            A = np.asarray(A, dtype=complex)
            self.n = A.shape[0]
            self._lu = None
            self._dense = lu_factor(A)

    def solve(self, b, adjoint: bool = False):
        self.solve_count += 1
        b = np.asarray(b, dtype=complex)
        if self._dense is not None:
            return self._dense.solve(b, adjoint=adjoint)
        x = self._lu.solve(b, trans="H" if adjoint else "N")
        if not np.all(np.isfinite(x)):
            raise SingularMatrixError("direct solve produced non-finite entries")
        return x


class _IterativeSolver:
    def __init__(self, A, cfg: LinearSolverConfig):
        self.cfg = cfg
        self.A = sp.csr_matrix(A.astype(complex)) if sp.issparse(A) else np.asarray(A, complex)
        self.n = A.shape[0]
        self.solve_count = 0
        self._AH = None

    def _run(self, A, b):
        self.solve_count += 1
        res = iterative_solve(self.cfg, A, b)
        # an inexact solve degrades the outer iteration's progress, which the
        # eigensolvers detect themselves (residual rechecks, stall locks,
        # restarts); only a non-finite result is a hard failure
        if not np.all(np.isfinite(res.x)):
            raise SingularMatrixError(
                f"iterative linear solve produced non-finite entries "
                f"(residual {res.residual_norm:.3e})"
            )
        return res.x

    def solve(self, b, adjoint: bool = False):
        if not adjoint:
            return self._run(self.A, b)
        if self._AH is None:
            self._AH = self.A.conj().T.tocsr() if sp.issparse(self.A) else self.A.conj().T
        return self._run(self._AH, b)


def make_linear_solver(A, cfg: Optional[LinearSolverConfig] = None):
    cfg = cfg or LinearSolverConfig()
    if cfg.mode == "direct":
        return _DirectSolver(A)
    return _IterativeSolver(A, cfg)


def iterative_solve(cfg: LinearSolverConfig, A, b) -> IterativeResult:
    """GMRES or BiCGStab with optional point-Jacobi preconditioning.

    Non-convergence is reported in the result, not raised; breakdown is
    distinguished from plain iteration-count exhaustion.
    """
    b = np.asarray(b, dtype=complex)
    nrm_b = np.linalg.norm(b)
    if nrm_b == 0:
        return IterativeResult(np.zeros_like(b), True, 0.0, 0)
    count = {"it": 0}

    def cb(_):
        count["it"] += 1

    M = None
    if cfg.preconditioner == "jacobi":
        d = (A.diagonal() if sp.issparse(A) else np.diag(A)).astype(complex)
        d = np.where(d == 0, 1.0, d)
        M = spla.LinearOperator(A.shape, matvec=lambda v: v / d, dtype=complex)
    try:
        if cfg.mode == "bicgstab":
            x, info = spla.bicgstab(A, b, rtol=cfg.tol, atol=0.0, maxiter=cfg.maxit, M=M, callback=cb)
        else:
            x, info = spla.gmres(
                A,
                b,
                rtol=cfg.tol,
                atol=0.0,
                restart=cfg.restart,
                maxiter=cfg.maxit,
                M=M,
                callback=cb,
                callback_type="pr_norm",
            )
    except Exception:
        return IterativeResult(np.zeros_like(b), False, np.inf, count["it"], breakdown=True)
    resid = float(np.linalg.norm(A @ x - b))
    # judge convergence by the recomputed true residual: the backend's own
    # criterion runs in the preconditioned norm and can disagree either way
    converged = info >= 0 and resid <= cfg.tol * nrm_b * (1 + 1e-8)
    return IterativeResult(x, converged, resid, count["it"], breakdown=info < 0)


def inf_norm(A) -> float:
    if sp.issparse(A):
        if A.shape[0] == 0:
            return 0.0
        return float(abs(A).sum(axis=1).max())
    A = np.asarray(A)
    if A.size == 0:
        return 0.0
    return float(np.abs(A).sum(axis=1).max())


class SplitSum:
    """Weighted sums sum_i w_i M_i over a fixed list of sparse matrices M_i.

    One kernel for every split-form sum: T(lambda) over its coefficient
    matrices, a Chebyshev interpolant over its coefficients and a rational
    interpolant over its divided differences.  Sums run in the order of the
    matrices.  The conjugate transposes M_i^* and the norms ||M_i||_inf are
    built on first use and kept.
    """

    def __init__(self, mats):
        self.mats = list(mats)
        self.n = self.mats[0].shape[0]
        self._adjoints = None
        self._norms = None

    def assemble(self, w):
        """sum_i w_i M_i as a sparse matrix."""
        acc = w[0] * self.mats[0]
        for wi, M in zip(w[1:], self.mats[1:]):
            acc = acc + wi * M
        return sp.csr_matrix(acc)

    def apply(self, w, v: np.ndarray) -> np.ndarray:
        """(sum_i w_i M_i) v without assembling the sum."""
        out = np.zeros(self.n, dtype=complex)
        for wi, M in zip(w, self.mats):
            out += wi * (M @ v)
        return out

    def adjoint_products(self, v: np.ndarray) -> List[np.ndarray]:
        """[M_i^* v], one adjoint matvec per matrix."""
        if self._adjoints is None:
            self._adjoints = [M.conj().T.tocsr() for M in self.mats]
        return [MH @ v for MH in self._adjoints]

    def apply_adjoint(self, w, v: np.ndarray) -> np.ndarray:
        """(sum_i w_i M_i)^* v."""
        out = np.zeros(self.n, dtype=complex)
        for wi, u in zip(w, self.adjoint_products(v)):
            out += np.conj(wi) * u
        return out

    def scale(self, w) -> float:
        """sum_i |w_i| ||M_i||_inf, the residual scaling of the sum."""
        if self._norms is None:
            self._norms = [inf_norm(M) for M in self.mats]
        return float(sum(abs(wi) * nrm for wi, nrm in zip(w, self._norms)))


# -- Krylov-Schur ----------------------------------------------------------------


def _ordered_schur(M: np.ndarray, wanted: np.ndarray):
    """Complex Schur form with the eigenvalues in `wanted` moved to the front."""
    m = M.shape[0]
    if len(wanted) == 0 or len(wanted) == m:
        T, Q = scipy.linalg.schur(M, output="complex")
        return T, Q, len(wanted)
    wanted = np.asarray(wanted)
    all_eigs = np.linalg.eigvals(M)
    used = np.zeros(len(all_eigs), dtype=bool)
    for w in wanted:
        idx = int(np.argmin(np.where(used, np.inf, np.abs(all_eigs - w))))
        used[idx] = True
    unwanted = all_eigs[~used]

    def select(z):
        dw = np.min(np.abs(wanted - z))
        du = np.min(np.abs(unwanted - z)) if len(unwanted) else np.inf
        return dw <= du

    T, Q, sdim = scipy.linalg.schur(M, output="complex", sort=select)
    return T, Q, int(sdim)


def _retained(order, theta, conv, wanted, p_target: int, cap_total: int) -> List[int]:
    """Indices of the Ritz pairs a restart keeps, in ``order``.

    Converged wanted pairs come first, then the best unconverged candidates
    up to ``p_target``, then converged junk up to ``cap_total`` (keeping
    dominant junk locked prevents it from regrowing every cycle).  An
    unwanted unconverged Ritz value within COPY_RTOL |theta| of a converged
    unwanted one is a copy of it (a pole of an interpolant shows up as
    several) and counts as converged with it, so rounding noise in one
    copy's residual cannot decide how many vectors are kept.
    """
    junk = theta[conv & ~wanted]
    conv = conv.copy()
    for i in np.flatnonzero(~conv & ~wanted):
        if np.any(np.abs(junk - theta[i]) <= COPY_RTOL * abs(theta[i])):
            conv[i] = True
    keep = [i for i in order if conv[i] and wanted[i]][:cap_total]
    for i in order:
        if len(keep) >= min(p_target, cap_total):
            break
        if not conv[i] and i not in keep:
            keep.append(i)
    for i in order:
        if len(keep) >= cap_total:
            break
        if conv[i] and not wanted[i] and i not in keep:
            keep.append(i)
    return keep


class FullBasisEngine:
    """Explicitly stored Krylov vectors of length d*n."""

    def __init__(self, apply_fn, w_blocks: np.ndarray, ncv: int):
        self.apply_fn = apply_fn
        d, n = w_blocks.shape
        self.d, self.n = d, n
        self.V = np.zeros((d * n, ncv + 2), dtype=complex)
        v0 = w_blocks.reshape(-1).astype(complex)
        nrm = np.linalg.norm(v0)
        if nrm == 0:
            raise ValueError("zero starting vector")
        self.V[:, 0] = v0 / nrm

    def expand(self, j: int):
        w = self.apply_fn(self.V[:, j])
        h, beta, w_orth, dep = orthogonalize(self.V[:, : j + 1], w)
        if not dep:
            self.V[:, j + 1] = w_orth / beta
        return h, beta, dep

    def append_random(self, j: int, rng) -> bool:
        for _ in range(3):
            cand = rng.standard_normal(self.V.shape[0]) + 1j * rng.standard_normal(self.V.shape[0])
            h, beta, w_orth, dep = orthogonalize(self.V[:, : j + 1], cand)
            if not dep:
                self.V[:, j + 1] = w_orth / beta
                return True
        return False

    def transform(self, Qp: np.ndarray, m: int) -> None:
        p = Qp.shape[1]
        self.V[:, :p] = self.V[:, :m] @ Qp
        self.V[:, p] = self.V[:, m]

    def ritz_first_block(self, y: np.ndarray, m: int) -> np.ndarray:
        return (self.V[:, :m] @ y)[: self.n]

    def ritz_full(self, y: np.ndarray, m: int) -> np.ndarray:
        return self.V[:, :m] @ y


class KrylovSchurDriver:
    """The Krylov-Schur restart/locking loop of every Krylov eigensolve.

    NLEIGS runs it on the TOAR or the full basis engine; interpol, and SLP's
    inner linear eigenproblem through ``gen_eig_smallest``, on the full basis.

    Convergence of a Ritz pair is judged either by the relative residual of
    the linear operator or, when ``pair_test`` is set, by a caller-supplied
    test on the extracted pair (the backward error of the original problem).
    ``wanted_filter(theta, res)`` receives the Ritz values with their
    residuals, so a caller can judge membership of a Ritz value no more
    finely than its own error.  The Ritz data of H and their verdicts are
    computed once and kept until H changes, so ``extract`` after ``run``
    runs no pair test again.
    """

    def __init__(self, engine, ncv: int, tol: float, sort_key, wanted_filter=None, rng=None):
        self.engine = engine
        self.ncv = ncv
        self.tol = tol
        self.sort_key = sort_key
        self.wanted_filter = wanted_filter
        self.pair_test = None
        self.rng = rng or np.random.default_rng(0)
        self.H = np.zeros((ncv + 1, ncv), dtype=complex)
        self.m = 0
        self.restarts = 0
        self.exhausted = False
        self.ritz_history: List[np.ndarray] = []
        self._cycle = None  # (theta, Y, res, wanted, conv) of the current H

    def _ritz(self):
        m = self.m
        theta, Y = np.linalg.eig(self.H[:m, :m])
        nrm = np.maximum(np.linalg.norm(Y, axis=0), 1e-300)
        res = np.abs(self.H[m, :m] @ Y) / nrm
        return theta, Y, res

    def _wanted(self, theta, res):
        if self.wanted_filter is None:
            return np.ones(len(theta), dtype=bool)
        return np.asarray(self.wanted_filter(theta, res), dtype=bool)

    def _order(self, theta, wanted):
        # wanted Ritz values rank first (so out-of-region values never crowd
        # out wanted directions at a restart), each group by the caller's key
        return np.lexsort((self.sort_key(theta), ~wanted))

    def _verdicts(self):
        """Ritz values, vectors and residuals of H, which are wanted and converged."""
        if self._cycle is None:
            theta, Y, res = self._ritz()
            wanted = self._wanted(theta, res)
            conv = res <= self.tol * np.maximum(np.abs(theta), np.finfo(float).eps)
            if self.pair_test is not None:
                for i in range(len(theta)):
                    if conv[i] or not wanted[i] or res[i] > 1e-2:
                        continue
                    conv[i] = bool(self.pair_test(theta[i], Y[:, i], self.m))
            self._cycle = (theta, Y, res, wanted, conv)
        return self._cycle

    def run(self, min_converged: int, max_restarts: int):
        """Iterate until enough wanted Ritz pairs converge (or give up)."""
        stall = 0
        last_count = -1
        while True:
            while self.m < self.ncv and not self.exhausted:
                self._cycle = None
                j = self.m
                h, beta, dep = self.engine.expand(j)
                self.H[: j + 1, j] = h
                if dep:
                    self.H[j + 1, j] = 0.0
                    if not self.engine.append_random(j, self.rng):
                        self.exhausted = True
                else:
                    self.H[j + 1, j] = beta
                self.m += 1
            theta, Y, res, wanted, conv = self._verdicts()
            order = self._order(theta, wanted)
            self.ritz_history.append((theta[order], res[order]))
            count = int(np.sum(conv & wanted))
            all_conv = bool(np.all(conv))
            if count == last_count:
                stall += 1
            else:
                stall = 0
                last_count = count
            if (
                count >= min_converged
                or self.restarts >= max_restarts
                or self.exhausted
                or (all_conv and stall >= 1)
                or stall >= 15
            ):
                return count
            # always leave at least a quarter of the subspace for fresh expansions
            p_target = max(min_converged + 1, self.ncv // 2)
            cap_total = min(self.m - 1, max(min_converged + 2, (3 * self.ncv) // 4))
            wanted_vals = theta[_retained(order, theta, conv, wanted, p_target, cap_total)]
            T, Q, sdim = _ordered_schur(self.H[: self.m, : self.m], wanted_vals)
            sdim = max(1, min(sdim, self.m - 1))
            brow = self.H[self.m, : self.m] @ Q[:, :sdim]
            self.engine.transform(Q[:, :sdim], self.m)
            self._cycle = None
            self.H[:, :] = 0.0
            self.H[:sdim, :sdim] = T[:sdim, :sdim]
            self.H[sdim, :sdim] = brow
            self.m = sdim
            self.restarts += 1

    def extract(self):
        """Ritz tuples (theta, y, residual, ok) in wanted order.

        ``ok`` marks exactly the pairs that the converged count includes:
        converged and accepted by the wanted filter.
        """
        theta, Y, res, wanted, conv = self._verdicts()
        ok = conv & wanted
        return [(theta[i], Y[:, i], res[i], bool(ok[i])) for i in self._order(theta, wanted)]


def gen_eig_smallest(
    A,
    B,
    how_many: int = 1,
    v0: Optional[np.ndarray] = None,
    tol: float = 1e-10,
    ncv: Optional[int] = None,
    max_restarts: int = 60,
    solver_cfg: Optional[LinearSolverConfig] = None,
):
    """Smallest-magnitude eigenpairs of the pencil A x = mu B x.

    A is factorized once and Krylov-Schur is run on A^{-1}B, so the smallest
    |mu| of the pencil become the dominant eigenvalues 1/mu of the iteration
    operator.  Only the ``how_many`` dominant Ritz values count as wanted:
    a smaller one that converges first must not end the iteration while a
    dominant one is still unconverged.  Accepts matrices or callables
    (solve_A, apply_B).
    """
    if callable(A):
        if v0 is None:
            raise ValueError("operator form requires an initial vector")
        solve_A, apply_B, n = A, B, v0.shape[0]
    else:
        n = A.shape[0]
        solve_A = make_linear_solver(A, solver_cfg).solve
        apply_B = B if callable(B) else (lambda v: B @ v)
    if ncv is None:
        ncv = max(12, 2 * how_many + 8)
    ncv = min(max(ncv, how_many + 2), n)
    if v0 is None or not np.any(v0):
        v0 = np.ones(n, dtype=complex)

    def dominant(theta, _res):
        wanted = np.zeros(len(theta), dtype=bool)
        wanted[np.argsort(-np.abs(theta), kind="stable")[:how_many]] = True
        return wanted

    engine = FullBasisEngine(lambda v: solve_A(apply_B(v)), np.asarray(v0)[None, :], ncv)
    driver = KrylovSchurDriver(engine, ncv, tol, lambda t: -np.abs(t), dominant)
    driver.run(how_many, max_restarts)
    out = []
    for theta, y, _res, _ok in driver.extract()[:how_many]:
        if theta == 0:
            raise SingularMatrixError("Arnoldi produced a zero Ritz value")
        x = engine.ritz_full(y, driver.m)
        nrm = np.linalg.norm(x)
        out.append((1.0 / theta, x / nrm if nrm else x))
    out.sort(key=lambda p: abs(p[0]))
    return out

"""Dense and sparse linear-algebra kernels shared by the eigensolvers.

Dense matrices are plain ndarrays and sparse matrices are scipy CSR; the
routines here wrap LAPACK/SuperLU factorizations, provide reorthogonalized
Gram-Schmidt, small wrappers around the iterative linear solvers and one
kernel for split-form sums sum_i w_i M_i of sparse matrices.  One
Krylov-Schur driver with restart and locking runs every Krylov eigensolve:
NLEIGS and interpol on the compact basis of their one linearization
(``ToarBasisEngine``), through one Ritz-to-eigenpair rule
(``ShiftInvertRun``), and SLP's inner linear eigenproblem through
``gen_eig_smallest``.

Scalars follow the data: the Krylov kernels (``orthogonalize``,
``compress_columns``, the basis engines, ``SplitSum``'s applies, direct and
iterative solves and ``KrylovSchurDriver``) run on one code path, in real
arithmetic (``d*`` BLAS and LAPACK) on real input and in complex arithmetic
(``z*``) otherwise.  A complex vector given to a real kernel is served,
never cast down, and with no complex copy of a real basis or sparse matrix
(``basis_times``, ``sparse_times``).  A real Hessenberg matrix is restarted
through its real Schur form, and the driver reads a real Ritz value of it
out with its real vector (``KrylovSchurDriver.ritz_pair``), so a real run
gives real eigenpairs.  ``DenseLU`` follows the same rule.

``orthogonalize`` is the one Gram-Schmidt kernel of the Krylov bases.  Each
call reads the basis four times (two BLAS ``gemv`` per sweep) and copies
neither the basis nor its conjugate, provided the basis is column-major:
both basis engines keep their n-long vectors in Fortran-ordered buffers so
that every leading-column slice they pass is contiguous.

Direct solves with a sparse matrix take one of two routes, by one rule
(``_tridiagonal_route``) on the stored structure: a matrix whose entries all
lie on the three central diagonals (largest |i - j| at most 1, explicitly
stored zeros included) with n >= 3 is factorized by LAPACK's tridiagonal LU,
``?gttrf``/``?gttrs``; every other goes to SuperLU.  A ``SplitSum`` decides
the route once per support, on the union pattern of its terms with nonzero
weight, and hands a tridiagonal sum over as its three diagonals
(``Tridiagonal``), with no CSR matrix: every T(sigma) and NLEIGS R(sigma) of
the generated problems is of this kind.  A sparse matrix handed over as
such, a callback operator's T(sigma) or a split sum on the SuperLU route, is
scanned for its bandwidth at each factorization.
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import dgemv, zgemv
from scipy.linalg.lapack import dgttrf, dgttrs, dlaswp, dtrtrs, zgttrf, zgttrs, zlaswp, ztrtrs

__all__ = [
    "SingularMatrixError",
    "DenseLU",
    "lu_factor",
    "orthogonalize",
    "compress_columns",
    "LinearSolverConfig",
    "make_linear_solver",
    "Tridiagonal",
    "iterative_solve",
    "IterativeResult",
    "inf_norm",
    "SplitSum",
    "FullBasisEngine",
    "ToarBasisEngine",
    "KrylovSchurDriver",
    "ShiftInvertRun",
    "gen_eig_smallest",
]

BREAKDOWN_RTOL = 1e-14
COPY_RTOL = 1e-8
COMPRESS_RTOL = 1e-13
COMPRESS_ROWS = 1024  # rows per block of compress_columns: 1024 x ncv scalars fit in L2
GMRES_RESTART = 50


class SingularMatrixError(np.linalg.LinAlgError):
    pass


# -- dense factorizations ------------------------------------------------------


@dataclass
class DenseLU:
    """LU factors in the scalars of the factored matrix; a real factor serves
    a complex right-hand side in complex arithmetic."""
    lu: np.ndarray
    piv: np.ndarray

    def solve(self, b, adjoint: bool = False):
        # row interchanges and two triangular solves, not getrs: OpenBLAS's
        # getrs rounds one right-hand side differently at one BLAS thread
        # than at more
        trtrs, laswp = (ztrtrs, zlaswp) if self.lu.dtype.kind == "c" or np.iscomplexobj(b) else (dtrtrs, dlaswp)
        if not adjoint:
            y = trtrs(self.lu, laswp(b, self.piv), lower=1, unitdiag=1)[0]
            return trtrs(self.lu, y)[0]
        y = trtrs(self.lu, b, trans=2)[0]
        y = trtrs(self.lu, y, trans=2, lower=1, unitdiag=1)[0]
        return laswp(y, self.piv, inc=-1)


def lu_factor(A: np.ndarray) -> DenseLU:
    """LU with partial pivoting, real for a real A; raises on an exactly singular pivot."""
    A = np.asarray(A, dtype=np.result_type(A, np.float64))
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

    Memory traffic: each sweep is ``c = V^* w`` and ``w -= V c``, two BLAS
    ``gemv`` calls that update w_orth in place, so one call reads V four
    times and writes only w_orth, its one copy of w; V and w are left
    unchanged.  A real V and a real w take ``dgemv``, anything complex
    ``zgemv``.  V must be column-major (Fortran-contiguous) and of that
    scalar type to be read in place; any other layout or a real V against a
    complex w is copied on every call.
    """
    w = np.asarray(w)
    empty = V is None or V.shape[1] == 0
    w_orth = np.array(w, dtype=np.result_type(w, np.float64, *(() if empty else (V,))))
    nrm_w = np.linalg.norm(w_orth)
    if empty:
        beta = nrm_w
        return np.zeros(0, dtype=w_orth.dtype), beta, w_orth, beta <= BREAKDOWN_RTOL * max(nrm_w, 1.0)
    gemv = zgemv if np.iscomplexobj(w_orth) else dgemv
    h = 0.0
    for _ in range(2):
        c = gemv(1.0, V, w_orth, trans=2)
        w_orth = gemv(-1.0, V, c, beta=1.0, y=w_orth, overwrite_y=1)
        h = h + c
    beta = np.linalg.norm(w_orth)
    dependent = beta <= BREAKDOWN_RTOL * nrm_w
    return h, beta, w_orth, dependent


def compress_columns(B: np.ndarray, W: np.ndarray) -> None:
    """``B[:, :r] = B[:, :m] @ W`` in place (W is m x r), one block of rows at a time.

    Each block is one ``gemm``, which rounds every row as the unblocked product
    does; numpy would send a one-row block or a one-column W to ``gemv``,
    whose rounding depends on where the block starts.  B keeps its dtype, so
    a real B takes a real W.
    """
    m, r = W.shape
    n = B.shape[0]
    nblocks = 1 if r == 1 else max(1, n // COMPRESS_ROWS)
    for b in range(nblocks):
        block = B[n * b // nblocks : n * (b + 1) // nblocks]
        block[:, :r] = block[:, :m] @ W


def _range_basis(A: np.ndarray) -> np.ndarray:
    """Orthonormal left singular vectors of A for singular values above COMPRESS_RTOL times the largest.

    A complex A goes through the real SVD of [[Re A, -Im A], [Im A, Re A]] (OpenBLAS's complex
    SVD rounds differently at 1 and 2 BLAS threads): each left singular vector [x; y] gives
    x + iy, a multiple of one of A, and pivoted Gram-Schmidt on numpy's own loops keeps r of them.
    """
    if A.dtype.kind != "c":
        W, s, _ = np.linalg.svd(A, full_matrices=False)
        return W[:, : max(1, int(np.sum(s > COMPRESS_RTOL * s[0])))]
    Q = _range_basis(np.block([[A.real, -A.imag], [A.imag, A.real]]))
    C = Q[: len(A)] + 1j * Q[len(A) :]
    W = np.empty((len(A), (C.shape[1] + 1) // 2), dtype=complex)
    for j in range(W.shape[1]):
        norms = np.linalg.norm(C, axis=0)
        W[:, j] = C[:, np.argmax(norms)] / norms.max()
        C = C - np.outer(W[:, j], np.einsum("i,ij->j", W[:, j].conj(), C))
    return W


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def basis_times(B: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``B @ y`` for a complex y without a complex copy of a real basis B."""
    if B.dtype.kind == "c" or y.dtype.kind != "c":
        return B @ y
    return _complex(B @ y.real, B @ y.imag)


def sparse_times(M, v: np.ndarray) -> np.ndarray:
    """``M @ v`` for a sparse M, a vector or a block v, with no complex copy
    of a real M: a complex v is multiplied as the real array that interleaves
    its real and imaginary parts, by one real product."""
    if M.dtype.kind == "c" or v.dtype.kind != "c":
        return M @ v
    v = np.ascontiguousarray(v, dtype=complex)
    parts = M @ v.reshape(v.shape[0], -1).view(np.float64)
    return parts.view(complex).reshape((M.shape[0],) + v.shape[1:])


def random_vector(rng, size: int, dtype) -> np.ndarray:
    """A standard normal vector of ``dtype``, complex parts drawn one after the other."""
    v = rng.standard_normal(size)
    return v + 1j * rng.standard_normal(size) if np.dtype(dtype).kind == "c" else v


# -- linear solvers ------------------------------------------------------------


@dataclass
class LinearSolverConfig:
    """Configuration for linear solves with a (sparse) system matrix.

    The iterative modes are point-Jacobi preconditioned, and GMRES restarts
    every ``GMRES_RESTART`` iterations (see ``iterative_solve``).
    """

    mode: str = "direct"  # direct | gmres | bicgstab
    tol: float = 1e-10
    maxit: int = 2000

    def __post_init__(self):
        if self.mode not in ("direct", "gmres", "bicgstab"):
            raise ValueError(f"unknown linear solver mode {self.mode!r}")


@dataclass
class IterativeResult:
    x: np.ndarray
    converged: bool
    residual_norm: float
    iterations: int
    breakdown: bool = False


class Tridiagonal(NamedTuple):
    """The sub-, main and superdiagonal of a tridiagonal matrix, as
    ``make_linear_solver`` takes them for LAPACK's ``?gttrf``."""

    dl: np.ndarray
    d: np.ndarray
    du: np.ndarray

    @property
    def dtype(self) -> np.dtype:
        return self.d.dtype

    @property
    def shape(self):
        return (len(self.d), len(self.d))


def _tridiagonal_route(n: int, bandwidth: int) -> bool:
    """The direct route rule: ``?gttrf`` for a matrix whose stored entries all
    lie within ``bandwidth`` <= 1 of the main diagonal and n >= 3 (the
    ``?gttrf`` wrappers reject n <= 2), SuperLU for every other."""
    return n >= 3 and bandwidth <= 1


def _bandwidth(A) -> int:
    """Largest |i - j| over the stored entries of a sparse matrix, zeros included."""
    A = A.tocsr()
    if A.nnz == 0:
        return 0
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    return int(np.abs(A.indices - rows).max())


class _DirectSolver:
    """Sparse LU factorization with adjoint solves, on one of two routes.

    ``Tridiagonal`` diagonals, or a sparse matrix on the ``?gttrf`` route of
    ``_tridiagonal_route`` (its bandwidth found by one scan of its indices),
    get LAPACK's tridiagonal LU with partial pivoting, ``?gttrf``/``?gttrs``:
    no CSC copy, no fill-reducing ordering and no BLAS calls.  Every other
    matrix, wider bands and n <= 2, goes to SuperLU.  Both routes factor a
    real matrix in real arithmetic (``dgttrf``, real SuperLU) and a complex
    one in complex arithmetic; a complex right-hand side on a real factor is
    solved as its real and imaginary parts, two columns of one solve.  An
    exactly zero pivot raises ``SingularMatrixError`` at construction, and so
    does a solve whose result has non-finite entries.
    """

    def __init__(self, A):
        self.solve_count = 0
        self.n = A.shape[0]
        self._tri = self._lu = None
        self.dtype = np.result_type(A.dtype, np.float64)
        if not isinstance(A, Tridiagonal) and _tridiagonal_route(self.n, _bandwidth(A)):
            A = Tridiagonal(*(A.diagonal(k) for k in (-1, 0, 1)))
        if isinstance(A, Tridiagonal):
            gttrf, self._gttrs, self._adjoint = (
                (zgttrf, zgttrs, "C") if self.dtype.kind == "c" else (dgttrf, dgttrs, "T")
            )
            diags = [np.asarray(a, dtype=self.dtype) for a in A]
            *self._tri, info = gttrf(*diags, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
            if info > 0:
                raise SingularMatrixError(f"exactly singular pivot at index {info - 1}")
        else:
            # without exact zeros, as a sparse sum stores it: COLAMD and the pivots follow the values
            csc = sp.csc_matrix(A, dtype=self.dtype, copy=True)
            csc.eliminate_zeros()
            try:
                self._lu = spla.splu(csc)
            except RuntimeError as exc:
                raise SingularMatrixError(str(exc)) from exc

    def _solve(self, b, adjoint: bool):
        if self._tri is not None:
            return self._gttrs(*self._tri, b, trans=self._adjoint if adjoint else "N")[0]
        return self._lu.solve(b, trans="H" if adjoint else "N")

    def solve(self, b, adjoint: bool = False):
        self.solve_count += 1
        b = np.asarray(b)
        if self.dtype.kind == "c" or not np.iscomplexobj(b):
            x = self._solve(np.asarray(b, dtype=self.dtype), adjoint)
        else:
            # the real factor solves the real and the imaginary part together
            parts = np.concatenate([b.real.reshape(self.n, -1), b.imag.reshape(self.n, -1)], axis=1)
            xs = self._solve(parts, adjoint)
            k = xs.shape[1] // 2
            x = _complex(xs[:, :k], xs[:, k:]).reshape(b.shape)
        if not np.all(np.isfinite(x)):
            raise SingularMatrixError("direct solve produced non-finite entries")
        return x


class _IterativeSolver:
    """GMRES or BiCGStab on a sparse matrix, in the scalars of the matrix and
    the right-hand side (see ``iterative_solve``)."""

    def __init__(self, A, cfg: LinearSolverConfig):
        self.cfg = cfg
        self.A = A
        self.solve_count = 0
        self._AH = None

    def solve(self, b, adjoint: bool = False):
        if adjoint and self._AH is None:
            self._AH = self.A.conj().T.tocsr()
        self.solve_count += 1
        res = iterative_solve(self.cfg, self._AH if adjoint else self.A, b)
        # an inexact solve degrades the outer iteration's progress, which the
        # eigensolvers detect themselves (residual rechecks, stall locks,
        # restarts); only a non-finite result is a hard failure
        if not np.all(np.isfinite(res.x)):
            raise SingularMatrixError(
                f"iterative linear solve produced non-finite entries "
                f"(residual {res.residual_norm:.3e})"
            )
        return res.x


def make_linear_solver(A, cfg: Optional[LinearSolverConfig] = None):
    """A solver of A x = b and A^* x = b under cfg: A is a sparse matrix, or
    under the direct mode also a ``Tridiagonal``."""
    cfg = cfg or LinearSolverConfig()
    if cfg.mode == "direct":
        return _DirectSolver(A)
    return _IterativeSolver(A, cfg)


def iterative_solve(cfg: LinearSolverConfig, A, b) -> IterativeResult:
    """GMRES or BiCGStab on a sparse A with point-Jacobi preconditioning.

    The iteration runs in the scalars of A and b: real for a real A and a
    real b, complex otherwise, with a real A applied by ``sparse_times``.
    BiCGStab stops after ``maxit`` iterations, GMRES after the first whole restart
    cycle that reaches them (at most maxit + min(GMRES_RESTART, n) - 1).  Non-convergence
    is reported in the result, not raised; breakdown is distinguished from plain
    iteration-count exhaustion.
    """
    b = np.asarray(b)
    b = b.astype(np.result_type(A.dtype, b, np.float64), copy=False)
    nrm_b = np.linalg.norm(b)
    if nrm_b == 0:
        return IterativeResult(np.zeros_like(b), True, 0.0, 0)
    count = {"it": 0}

    def cb(_):
        count["it"] += 1

    d = A.diagonal()
    d = np.where(d == 0, 1.0, d)
    M = spla.LinearOperator(A.shape, matvec=lambda v: v / d, dtype=b.dtype)
    op = spla.LinearOperator(A.shape, matvec=lambda v: sparse_times(A, v), dtype=b.dtype)
    try:
        if cfg.mode == "bicgstab":
            x, info = spla.bicgstab(op, b, rtol=cfg.tol, atol=0.0, maxiter=cfg.maxit, M=M, callback=cb)
        else:
            cycles = -(-cfg.maxit // min(GMRES_RESTART, A.shape[0]))  # scipy's maxiter counts cycles
            x, info = spla.gmres(op, b, rtol=cfg.tol, atol=0.0, restart=GMRES_RESTART, maxiter=cycles, M=M,
                                 callback=cb, callback_type="pr_norm")
    except Exception:
        return IterativeResult(np.zeros_like(b), False, np.inf, count["it"], breakdown=True)
    resid = float(np.linalg.norm(op @ x - b))
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


class _SumPlan(NamedTuple):
    """What every sum over one support shares: the union pattern (``indptr``,
    ``indices``, read-only), the map of each term's entries into it (None
    where a term's pattern is the union) and the direct route of its sums."""

    indptr: np.ndarray
    indices: np.ndarray
    positions: list
    tridiagonal: bool


class SplitSum:
    """Weighted sums sum_i w_i M_i over a fixed list of sparse matrices M_i.

    One kernel for every split-form sum: T(lambda) over its coefficient
    matrices, a Chebyshev interpolant over its coefficients and a rational
    interpolant over its divided differences.  Sums run in the order of the
    matrices.  Each M_i is held once, in its own scalars, and ``dtype`` is
    the scalar type of the lot: sums and products follow the scalars of w,
    v and the M_i, with no complex copy of a real M_i (``sparse_times``).
    The transposes M_i^T, CSC views of the M_i's own arrays, the norms
    ||M_i||_inf and each support's ``_SumPlan`` (its sum pattern and direct
    route) are built on first use and kept.
    """

    def __init__(self, mats):
        self.mats = list(mats)
        self.n = self.mats[0].shape[0]
        self.dtype = np.result_type(*(M.dtype for M in self.mats), np.float64)
        self._transposes = None
        self._norms = None
        self._patterns = {}

    def _plan(self, support) -> _SumPlan:
        """The support's plan: the union pattern of its M_i, SLEPc's known nonzero pattern, as an
        M_i's own arrays where it is that M_i's pattern, read-only as every sum shares them, with a
        map of each other M_i's entries into it, and ``_tridiagonal_route`` on its bandwidth."""
        if support not in self._patterns:
            mats = [self.mats[k] for k in support]
            if not all(M.has_canonical_format for M in mats):
                raise ValueError("SplitSum assembles canonical CSR matrices only")
            keys = [(M.indptr.tobytes(), M.indices.tobytes()) for M in mats]
            # a bool copy of each distinct pattern, so M_i of equal patterns share one position map
            ones = {k: sp.csr_matrix((np.ones(M.nnz, bool), M.indices, M.indptr), M.shape) for k, M in zip(keys, mats)}
            first, *rest = [*ones.values()] or [sp.csr_matrix((self.n, self.n), dtype=bool)]
            union = sum(rest, first)
            owner = next((M for M in mats if M.nnz == union.nnz), union)
            indptr, indices = owner.indptr.view(), owner.indices.view()
            indptr.flags.writeable = indices.flags.writeable = False
            rank = sp.csr_matrix((np.arange(1, union.nnz + 1), union.indices, union.indptr), union.shape)
            maps = {k: None if E.nnz == union.nnz else rank.multiply(E).data - 1 for k, E in ones.items()}
            # the columns are sorted: a row's first and last entries bound its |i - j|
            rows = np.flatnonzero(np.diff(indptr))
            first, last = indices[indptr[rows]], indices[indptr[rows + 1] - 1]
            bandwidth = int(np.max(np.maximum(rows - first, last - rows), initial=0))
            self._patterns[support] = _SumPlan(
                indptr, indices, [maps[k] for k in keys], _tridiagonal_route(self.n, bandwidth)
            )
        return self._patterns[support]

    def _sum(self, w):
        """The plan of w's support and the data of sum_i w_i M_i on its pattern."""
        w = np.asarray(w)
        support = tuple(np.flatnonzero(w).tolist())
        plan = self._plan(support)
        data = np.zeros(len(plan.indices), dtype=np.result_type(w, self.dtype))
        for k, pos in zip(support, plan.positions):
            # M.data * w_k as scipy's scalar product makes it: w_k * M.data can differ in the last bit
            if pos is None:
                data += self.mats[k].data * w[k]
            else:
                np.add.at(data, pos, self.mats[k].data * w[k])
        return plan, data

    def assemble(self, w):
        """sum_i w_i M_i (canonical CSR M_i) as a CSR matrix on the union pattern of the M_i with
        w_i != 0, built once per such support (``_plan``).  One scaled add per term into zeros, in
        the order of the matrices, is bitwise scipy's sparse sum but for signed zeros; a cancelled
        entry stays, an exact zero."""
        plan, data = self._sum(w)
        return sp.csr_matrix((data, plan.indices, plan.indptr), shape=(self.n, self.n))

    def system(self, w, cfg: Optional[LinearSolverConfig] = None):
        """sum_i w_i M_i as ``make_linear_solver`` takes it under cfg: on the direct ``?gttrf`` route
        of its support, its ``Tridiagonal`` diagonals, the very entries ``assemble`` stores; else the
        CSR matrix of ``assemble``.  On the full tridiagonal pattern, 3n - 2 entries in canonical
        CSR, the diagonal, super- and subdiagonal entries take turns, so the diagonals are strided
        views of the summed data; a partial band (an identity-only support, say) is read out of
        its CSR matrix diagonal by diagonal."""
        plan, data = self._sum(w)
        tridiagonal = plan.tridiagonal and (cfg is None or cfg.mode == "direct")
        if tridiagonal and data.size == 3 * self.n - 2:
            return Tridiagonal(data[2::3], data[0::3], data[1::3])
        A = sp.csr_matrix((data, plan.indices, plan.indptr), shape=(self.n, self.n))
        return Tridiagonal(*(A.diagonal(k) for k in (-1, 0, 1))) if tridiagonal else A

    def apply(self, w, v: np.ndarray) -> np.ndarray:
        """(sum_i w_i M_i) v without assembling the sum, in the scalars of its inputs."""
        out = np.zeros(self.n, dtype=np.result_type(np.asarray(w), v, self.dtype))
        for wi, M in zip(w, self.mats):
            out += wi * sparse_times(M, v)
        return out

    def combine(self, rows: np.ndarray) -> np.ndarray:
        """sum_i M_i rows[i], one product per matrix, summed in their order."""
        out = sparse_times(self.mats[0], rows[0]).astype(np.result_type(rows, self.dtype), copy=False)
        for M, r in zip(self.mats[1:], rows[1:]):
            out += sparse_times(M, r)
        return out

    def adjoint_products(self, v: np.ndarray) -> List[np.ndarray]:
        """[M_i^* v] with no copy of M_i: M_i^T v for a real M_i, conj(M_i^T conj(v))
        for a complex one, bitwise the products of CSR copies of the M_i^*."""
        if self._transposes is None:
            self._transposes = [M.T for M in self.mats]
        return [sparse_times(MT, v) if MT.dtype.kind == "f" else np.conj(MT @ np.conj(v)) for MT in self._transposes]

    def apply_adjoint(self, w, v: np.ndarray) -> np.ndarray:
        """(sum_i w_i M_i)^* v."""
        out = np.zeros(self.n, dtype=np.result_type(np.asarray(w), v, self.dtype))
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
    """Schur form of M with the eigenvalues in `wanted` moved to the front.

    A complex M gets the complex Schur form.  A real M gets the real Schur
    form, with `wanted` first closed under conjugation: a 2 x 2 block holds a
    conjugate pair, and the leading block holds both of a pair or neither.
    """
    m = M.shape[0]
    output = "complex" if np.iscomplexobj(M) else "real"
    wanted = np.asarray(wanted, dtype=complex)
    if output == "real":
        missing = [z.conjugate() for z in wanted if z.imag and z.conjugate() not in wanted]
        wanted = np.concatenate([wanted, missing])
    if len(wanted) == 0 or len(wanted) == m:
        T, Q = scipy.linalg.schur(M, output=output)
        return T, Q, len(wanted)
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

    sort = select if output == "complex" else (lambda re, im: select(complex(re, im)))
    T, Q, sdim = scipy.linalg.schur(M, output=output, sort=sort)
    return T, Q, int(sdim)


def _restart_size(T: np.ndarray, sdim: int, m: int) -> int:
    """The number of Schur vectors a restart keeps: sdim within [1, m - 1],
    moved one step where that cut would split a 2 x 2 block of a real T."""
    k = max(1, min(sdim, m - 1))
    if k < m and T[k, k - 1] != 0:
        k += -1 if k > 1 else 1
    return k


def _retained(order, theta, conv, wanted, p_target: int, cap_total: int, known_junk=()) -> List[int]:
    """Indices of the Ritz pairs a restart keeps, in ``order``.

    Converged wanted pairs come first, then the best unconverged candidates
    up to ``p_target``, then converged junk up to ``cap_total`` (keeping
    dominant junk locked prevents it from regrowing every cycle).  An
    unwanted unconverged Ritz value within COPY_RTOL |theta| of a converged
    unwanted one, or of a value in ``known_junk``, is a copy of it (a pole
    of an interpolant shows up as several) and counts as converged with it,
    so rounding noise in one copy's residual cannot decide how many vectors
    are kept.
    """
    junk = np.concatenate([theta[conv & ~wanted], np.asarray(known_junk, dtype=complex)])
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
    """Explicitly stored Krylov vectors of length d*n.

    V is column-major, so each basis vector and every slice of leading
    columns is contiguous for ``apply_fn`` and ``orthogonalize``.  V holds
    ``dtype`` scalars; a real V needs an ``apply_fn`` that maps real vectors
    to real vectors.
    """

    def __init__(self, apply_fn, w_blocks: np.ndarray, ncv: int, dtype=complex):
        self.apply_fn = apply_fn
        d, n = w_blocks.shape
        self.d, self.n = d, n
        self.dtype = np.dtype(dtype)
        self.V = np.zeros((d * n, ncv + 2), dtype=self.dtype, order="F")
        v0 = w_blocks.reshape(-1).astype(self.dtype)
        nrm = np.linalg.norm(v0)
        if nrm == 0:
            raise ValueError("zero starting vector")
        self.V[:, 0] = v0 / nrm

    def expand(self, j: int):
        w = self.apply_fn(self.V[:, j])
        h, beta, w_orth, dep = orthogonalize(self.V[:, : j + 1], w)
        if not dep:
            np.divide(w_orth, beta, out=self.V[:, j + 1])
        return h, beta, dep

    def append_random(self, j: int, rng) -> bool:
        for _ in range(3):
            cand = random_vector(rng, self.V.shape[0], self.dtype)
            h, beta, w_orth, dep = orthogonalize(self.V[:, : j + 1], cand)
            if not dep:
                np.divide(w_orth, beta, out=self.V[:, j + 1])
                return True
        return False

    def transform(self, Qp: np.ndarray, m: int) -> None:
        p = Qp.shape[1]
        compress_columns(self.V, Qp)
        self.V[:, p] = self.V[:, m]

    def ritz_first_block(self, y: np.ndarray, m: int) -> np.ndarray:
        return basis_times(self.V[: self.n, :m], y)

    def ritz_full(self, y: np.ndarray, m: int) -> np.ndarray:
        return basis_times(self.V[:, :m], y)


class ToarBasisEngine:
    """Compact representation V_k = (I_d (x) U) G_k of the Krylov basis.

    ``ctx`` is a linearization with a block recurrence (NLEIGS's
    ``ShiftInvertContext``, which interpol shares): ``toar_expand(U, g)``
    gives the one new direction y0 and the coefficients on [U, y0], and
    ``dtype`` its scalars.  U (n x mu, orthonormal) holds the rank of the
    start blocks, folded in one at a time (d equal blocks give one column),
    and is a view of a column-major buffer of d + ncv + 2 columns, which
    grows only if rounding ever lets the rank pass it.  An expansion step
    reads U once for the solve's right-hand side, orthogonalizes the solution
    against U and writes at most one new column in place; a restart
    compresses U to U W in place (``_range_basis``).  G (d x mu x k) lives in
    a preallocated buffer alike.  U and G are real when both the start blocks
    and ``ctx`` are real, complex otherwise.
    """

    def __init__(self, ctx, w_blocks: np.ndarray, ncv: int):
        self.ctx = ctx
        d, n = w_blocks.shape
        self.d, self.n = d, n
        self.mu = 0
        self.k = 1  # basis columns held in G
        self.dtype = np.result_type(w_blocks, ctx.dtype)
        self._U = np.empty((n, d + ncv + 2), dtype=self.dtype, order="F")
        self._G = np.zeros((d, self._U.shape[1], ncv + 2), dtype=self.dtype)
        for i, w in enumerate(np.asarray(w_blocks, dtype=self.dtype)):
            c = self._fold(w)
            self._G[i, : c.size, 0] = c
        nrm = np.linalg.norm(self._G[:, : self.mu, 0])
        if nrm == 0:
            raise ValueError("zero starting vector")
        self._G[:, : self.mu, 0] /= nrm

    @property
    def U(self) -> np.ndarray:
        return self._U[:, : self.mu]

    @property
    def G(self) -> np.ndarray:
        return self._G[:, : self.mu, : self.k]

    def _stacked(self, cols: int) -> np.ndarray:
        return self._G[:, : self.mu, :cols].reshape(self.d * self.mu, cols)

    def _set_column(self, j: int, g: np.ndarray) -> None:
        self._G[:, : self.mu, j] = g.reshape(self.d, self.mu)
        self.k = j + 1

    def _fold(self, w: np.ndarray) -> np.ndarray:
        """Coefficients c with w = U c, after adding w's part outside span(U) to U."""
        h, beta, w_orth, dep = orthogonalize(self.U, w)
        if dep:
            return h
        mu = self.mu
        if mu == self._U.shape[1]:
            U = np.empty((self.n, mu + self.d), dtype=self.dtype, order="F")
            U[:, :mu] = self._U
            self._U = U
            G = np.zeros((self.d, mu + self.d, self._G.shape[2]), dtype=self.dtype)
            G[:, :mu] = self._G
            self._G = G
        np.divide(w_orth, beta, out=self._U[:, mu])
        self.mu = mu + 1
        return np.append(h, beta)

    def expand(self, j: int):
        mu = self.mu
        y0, g = self.ctx.toar_expand(self.U, self._G[:, :mu, j])
        # y0 = U c: fold its coefficients into those on U and the new column
        c = self._fold(y0)
        g[:, :mu] += g[:, mu:] * c[:mu]
        g = g[:, : c.size]
        g[:, mu:] *= c[mu:]
        h, beta, g_orth, dep = orthogonalize(self._stacked(j + 1), g.reshape(-1))
        if not dep:
            self._set_column(j + 1, g_orth / beta)
        return h, beta, dep

    def append_random(self, j: int, rng) -> bool:
        d, mu = self.d, self.mu
        for _ in range(3):
            cand = random_vector(rng, d * mu, self.dtype)
            h, beta, g_orth, dep = orthogonalize(self._stacked(j + 1), cand)
            if not dep:
                self._set_column(j + 1, g_orth / beta)
                return True
        return False

    def transform(self, Qp: np.ndarray, m: int) -> None:
        p = Qp.shape[1]
        d, mu = self.d, self.mu
        M_cat = np.empty((d, mu, p + 1), dtype=self.dtype)
        M_cat[:, :, :p] = np.einsum("imk,kp->imp", self._G[:, :mu, :m], Qp)
        M_cat[:, :, p] = self._G[:, :mu, m]
        # compress U to the subspace actually used by the kept coefficients
        W = _range_basis(M_cat.transpose(1, 0, 2).reshape(mu, d * (p + 1)))
        r = W.shape[1]
        compress_columns(self._U, W)
        self._G[:, :mu, : self.k] = 0.0  # everything outside G stays zero
        self._G[:, :r, : p + 1] = np.einsum("rm,imk->irk", W.conj().T, M_cat)
        self.mu, self.k = r, p + 1

    def ritz_first_block(self, y: np.ndarray, m: int) -> np.ndarray:
        return basis_times(self.U, self._G[0, : self.mu, :m] @ y)


class KrylovSchurDriver:
    """The Krylov-Schur restart/locking loop of every Krylov eigensolve.

    NLEIGS runs it on the compact (TOAR) or the full basis engine and
    interpol on the compact one, both through ``ShiftInvertRun``; SLP's inner
    linear eigenproblem runs it through ``gen_eig_smallest``, on the full basis.

    Convergence of a Ritz pair is judged either by the relative residual of
    the linear operator or, when ``pair_test`` is set, by a caller-supplied
    test on the extracted pair (the backward error of the original problem).
    ``wanted_filter(theta, res)`` receives the Ritz values with their
    residuals, so a caller can judge membership of a Ritz value no more
    finely than its own error.  The Ritz data of H and their verdicts are
    computed once and kept until H changes, so ``extract`` after ``run``
    runs no pair test again.
    A restart counts an unwanted Ritz value within COPY_RTOL of one of
    ``known_junk`` (say, an interpolant's pole images) as converged junk,
    whatever its residual.
    H holds the engine's scalars.  A real H is restarted through its real
    Schur form with the kept set closed under conjugation; a pair that adds
    a vector to the kept set adds one to the next cycle, so each cycle makes
    as many expansions as in complex arithmetic.  The pair test and
    ``extract`` read each Ritz pair out by ``ritz_pair``: real where H is.
    """

    def __init__(self, engine, ncv: int, tol: float, sort_key, wanted_filter=None, rng=None, known_junk=()):
        self.engine = engine
        self.ncv = ncv
        self.tol = tol
        self.sort_key = sort_key
        self.wanted_filter = wanted_filter
        self.known_junk = known_junk
        self.pair_test = None
        self.rng = rng or np.random.default_rng(0)
        self.H = np.zeros((ncv + 2, ncv + 1), dtype=engine.dtype)
        self.m = 0
        self.limit = ncv  # basis size of the current cycle: ncv, or ncv + 1 after a closed pair
        self.restarts = 0
        self.exhausted = False
        self.ritz_history: List[np.ndarray] = []
        self._cycle = None  # (theta, pairs, res, wanted, conv) of the current H

    def _ritz(self):
        m = self.m
        theta, Y = np.linalg.eig(self.H[:m, :m])
        theta, Y = theta.astype(complex, copy=False), Y.astype(complex, copy=False)
        nrm = np.maximum(np.linalg.norm(Y, axis=0), 1e-300)
        res = np.abs(self.H[m, :m] @ Y) / nrm
        return theta, Y, res

    @staticmethod
    def ritz_pair(theta, y, real: bool):
        """The Ritz pair (theta, y) as read out: of a ``real`` matrix, a Ritz value with exactly
        zero imaginary part (a real eigenvalue of ``dgeev``) is a real scalar with a real vector."""
        return (theta.real, y.real) if real and not theta.imag else (theta, y)

    def _wanted(self, theta, res):
        if self.wanted_filter is None:
            return np.ones(len(theta), dtype=bool)
        return np.asarray(self.wanted_filter(theta, res), dtype=bool)

    def _order(self, theta, wanted):
        # wanted Ritz values rank first (so out-of-region values never crowd
        # out wanted directions at a restart), each group by the caller's key
        return np.lexsort((self.sort_key(theta), ~wanted))

    def _verdicts(self):
        """Ritz values, pairs (``ritz_pair``) and residuals of H, which are wanted and converged."""
        if self._cycle is None:
            theta, Y, res = self._ritz()
            pairs = [self.ritz_pair(t, y, self.H.dtype.kind == "f") for t, y in zip(theta, Y.T)]
            wanted = self._wanted(theta, res)
            conv = res <= self.tol * np.maximum(np.abs(theta), np.finfo(float).eps)
            if self.pair_test is not None:
                for i in range(len(theta)):
                    if conv[i] or not wanted[i] or res[i] > 1e-2:
                        continue
                    conv[i] = bool(self.pair_test(*pairs[i], self.m))
            self._cycle = (theta, pairs, res, wanted, conv)
        return self._cycle

    def run(self, min_converged: int, max_restarts: int):
        """Iterate until enough wanted Ritz pairs converge (or give up)."""
        stall = 0
        last_count = -1
        while True:
            while self.m < self.limit and not self.exhausted:
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
            theta, _pairs, res, wanted, conv = self._verdicts()
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
            keep = _retained(order, theta, conv, wanted, p_target, cap_total, self.known_junk)
            T, Q, sdim = _ordered_schur(self.H[: self.m, : self.m], theta[keep])
            sdim = _restart_size(T, sdim, self.m)
            self.limit = self.ncv + min(1, max(0, sdim - len(keep)))
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
        theta, pairs, res, wanted, conv = self._verdicts()
        ok = conv & wanted
        return [(*pairs[i], res[i], bool(ok[i])) for i in self._order(theta, wanted)]


class ShiftInvertRun:
    """Eigenpairs of a problem from a Krylov-Schur run on its shift-and-invert operator.

    The one Ritz-to-eigenpair rule of NLEIGS (TOAR and full basis) and of
    interpol, at each shift of their loop.  A Ritz value theta maps to the eigenvalue
    ``to_lam(theta)`` (vectorized, once per call of the driver's key or
    filter); the driver ranks Ritz values by
    ``settings.sort_key()`` of their eigenvalues and iterates to the inner
    tolerance max(1e-14, 0.01 tol).  Region test: lam, known only to about
    the Ritz error res/|theta|^2, is wanted when it is finite and
    ``settings.region.contains(lam, imag_tol=max(1e-8 max(1, |lam|),
    res/|theta|^2))``.  A pair is tested
    and returned at lam, or at Re lam, a float, when ``settings.region`` is
    an ``Interval`` (interval regions carry real spectra).  Pair test, when
    ``pair_eta(lam, x)`` is given: the first block of the Ritz vector,
    normalized, has ``pair_eta`` <= tol at that point; each (restart, m,
    theta) is evaluated once.  ``harvest`` returns ``(lam, x, eta)`` for the
    pairs the converged count includes whose eta is at most tol: a pair
    converged by its Ritz residual alone was never pair-tested.
    """

    def __init__(self, engine, ncv: int, settings, to_lam, rng, *, pair_eta=None, known_junk=()):
        from .core import Interval  # core imports this module

        real = isinstance(settings.region, Interval)
        self.tol = tol = settings.tol
        lam_key = settings.sort_key()
        contains = settings.region.contains
        etas = {}
        inner_tol = max(1e-14, 0.01 * settings.tol)

        # the driver's callables hold it weakly and the run not at all: a cycle
        # would keep the basis allocated until the cyclic collector runs
        def key(thetas):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                return lam_key(to_lam(thetas))

        def wanted(thetas, res):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                lams = to_lam(thetas)
                imag_tols = np.maximum(1e-8 * np.maximum(1.0, np.abs(lams)), res / np.abs(thetas) ** 2)
            return [bool(np.isfinite(lam)) and contains(lam, imag_tol=t) for lam, t in zip(lams, imag_tols)]

        def point(theta) -> complex:
            """The eigenvalue that theta's pair is tested and returned at."""
            lam = to_lam(theta)
            return float(lam.real) if real else complex(lam)

        def pair(theta, y, m):
            driver = driver_ref()
            x = driver.engine.ritz_first_block(y, m)
            nx = np.linalg.norm(x)
            if nx == 0 or not np.isfinite(nx):
                return x, np.inf
            x = x / nx
            seen = (driver.restarts, m, theta)
            if seen not in etas:
                etas[seen] = pair_eta(point(theta), x)
            return x, etas[seen]

        self.driver = KrylovSchurDriver(engine, ncv, inner_tol, key, wanted, rng, known_junk)
        driver_ref = weakref.ref(self.driver)
        self.point, self._pair = point, pair
        if pair_eta is not None:
            self.driver.pair_test = lambda theta, y, m: pair(theta, y, m)[1] <= tol

    def harvest(self):
        """``(lam, x, eta)`` of the converged wanted pairs with eta <= tol, in wanted order."""
        out = []
        for theta, y, _res, ok in self.driver.extract():
            if ok:
                x, eta = self._pair(theta, y, self.driver.m)
                if eta <= self.tol:
                    out.append((self.point(theta), x, eta))
        return out


def gen_eig_smallest(solve_A, apply_B, v0: np.ndarray, tol: float = 1e-10):
    """The smallest-magnitude eigenpair ``(mu, x)`` of the pencil A x = mu B x.

    Krylov-Schur runs on A^{-1}B, given as the callables ``solve_A`` (one
    solve with the factored A) and ``apply_B``, from the start vector ``v0``,
    on a basis of 12 vectors (at most n) for at most 60 restarts; the
    smallest |mu| of the pencil becomes the dominant eigenvalue 1/mu of the
    iteration operator.  Only the dominant Ritz value counts as wanted: a
    smaller one that converges first must not end the iteration while the
    dominant one is still unconverged.  x has unit norm.  The basis takes
    v0's scalars: a real v0 needs callables that keep real vectors real, and
    gives a real Ritz value as a real mu with a real vector (``ritz_pair``).
    """
    ncv = min(12, v0.shape[0])

    def dominant(theta, _res):
        wanted = np.zeros(len(theta), dtype=bool)
        wanted[np.argsort(-np.abs(theta), kind="stable")[0]] = True
        return wanted

    engine = FullBasisEngine(lambda v: solve_A(apply_B(v)), v0[None, :], ncv, np.result_type(v0, np.float64))
    driver = KrylovSchurDriver(engine, ncv, tol, lambda t: -np.abs(t), dominant)
    driver.run(1, 60)
    theta, y, _res, _ok = driver.extract()[0]
    if theta == 0:
        raise SingularMatrixError("Arnoldi produced a zero Ritz value")
    x = engine.ritz_full(y, driver.m)
    nrm = np.linalg.norm(x)
    return 1.0 / theta, x / nrm if nrm else x

"""Rational-interpolation eigensolver with a compact Krylov representation.

Pipeline: the boundary of the target region is discretized, node/pole pairs
are chosen greedily (Leja-Bagby) from the boundary and the singularity set,
and T is replaced by a rational interpolant in the degree-graded rational
Newton basis.  The companion-type linearization of the interpolant is never
formed: shift-and-invert products are applied through block recurrences with
a single factorization of R_d(sigma).  The linear problem is solved with
Krylov-Schur, either on explicitly stored vectors of length d*n (full basis)
or on a compact tensor representation V_k = (I_d (x) U) G_k of the same basis
(the default, ``linalg.ToarBasisEngine``), and its Ritz pairs are read back
as eigenpairs by the rule of ``_krylov_schur_pairs``, which hands the
Krylov-Schur driver its region filter and pair test.  The run starts at the
target; on an interval, while fewer than nev pairs are found and the last
shift added one, it repeats on the same interpolant at the midpoint of the
widest gap between the interval's ends, the shifts and the eigenvalues found
(``next_shift``), at most nev shifts and ``max_it`` restarts in all.  The
two-sided variant takes each left eigenvector from adjoint inverse iteration
at its eigenvalue lam: R_d(lam) is factored, and the first block of
(A - lam B)^{-*} v, for a random v, is the left eigenvector.  interpol is
this solver with Chebyshev nodes and every pole at infinity: it builds its
interpolant with ``divided_differences`` and solves it by
``shift_invert_pairs``.

The compact expansion costs O(n mu) plus one sparse solve per step, mu being
the number of columns of U.  The block recurrence runs on the d x mu
coefficients, and the solve's right-hand side is formed in coefficient space.
The interpolant keeps every D_j as a combination of the same matrices: the
operator's A_i in split form, the explicit D_j themselves for a callback
operator.  Once per interpolant and scalar type (``shift_data``) the
coefficients are folded into a weight matrix with one column per matrix that
the right-hand side needs (nterms in split form, d on the callback path,
where D_{d-1} drops out), so each step reads U once, by one product with that
many columns, followed by one sparse matvec per column (``SplitSum.combine``);
a new shift costs its basis values and one factorization of R_d(sigma).  U
lives in a column-major buffer preallocated with d + ncv + 2 columns, so no
step copies it to grow it.

When the target and every node, pole, normalization factor, divided
difference and matrix of the interpolant are real, the linearization is a
real pencil: R_d(sigma) is factored, and the start block, the basis and H are
held, in real arithmetic (half the bytes per sweep over U), and a real Ritz
pair of H is read out as a real eigenpair; only conjugate pairs are complex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional

import numpy as np
import scipy.linalg

from .core import (
    EigenPair,
    EigenSolution,
    Interval,
    NepError,
    NepOperator,
    Settings,
    _as_csr,
    backward_error,
    distinct_pairs,
    finish,
)
from .functions import ScalarFunction
from .linalg import (
    FullBasisEngine,
    KrylovSchurDriver,
    LinearSolverConfig,
    SingularMatrixError,
    SplitSum,
    ToarBasisEngine,
    inf_norm,
    make_linear_solver,
    random_vector,
    tally_solves,
)

__all__ = [
    "LejaBagbySequence",
    "leja_bagby",
    "RationalInterpolant",
    "divided_differences",
    "auto_singularities",
    "UnsupportedPoleDetection",
    "ShiftInvertContext",
    "shift_invert_context",
    "shift_invert_pairs",
    "next_shift",
    "nleigs_solve",
]

DD_TOL_DEFAULT = 1e-11
DD_MAXDEG_DEFAULT = 30
BOUNDARY_POINTS = 1000
SHIFT_RETRY = 1e-4  # relative step off a target where the linearization is singular
LEFT_STEPS = 4  # adjoint inverse-iteration steps a left eigenvector may take


class UnsupportedPoleDetection(NepError):
    """Raised when automatic pole detection meets a term that is neither
    rational nor entire."""


# -- Leja-Bagby points -------------------------------------------------------


@dataclass
class LejaBagbySequence:
    """Greedy interpolation nodes, poles and normalization factors.

    b_j reads ``nodes[j-1]``, ``poles[j]`` and ``betas[j]``; poles[0] is
    unused (kept at infinity) and nodes[j] is the node of the degree-j divided
    difference.  ``betas`` normalizes each b_j to unit maximum modulus over
    the discretized boundary.  Fixed, unlike a ``_GreedySequence``.
    """

    nodes: np.ndarray
    poles: np.ndarray
    betas: np.ndarray

    @property
    def max_degree(self) -> int:
        return len(self.nodes) - 1

    def grow(self, j: int) -> None:
        """Make nodes[j] available, as far as the sequence reaches."""

    def inv_pole(self, j: int) -> complex:
        xi = self.poles[j]
        return 0.0 if np.isinf(xi) else 1.0 / xi

    def b_values(self, lam: complex, up_to: int) -> np.ndarray:
        """b_0(lam) .. b_{up_to}(lam) by the graded recurrence."""
        lam = complex(lam)
        out = np.empty(up_to + 1, dtype=complex)
        out[0] = 1.0 / self.betas[0]
        for j in range(1, up_to + 1):
            pole_factor = 1.0 - lam * self.inv_pole(j)
            if pole_factor == 0:
                raise NepError(f"basis function evaluated at the pole {self.poles[j]}")
            out[j] = out[j - 1] * (lam - self.nodes[j - 1]) / (self.betas[j] * pole_factor)
        return out

    def basis(self, d: int) -> "LejaBagbySequence":
        """The fixed sequence of what b_0 .. b_d read: nodes[:d], poles and betas[:d+1]."""
        return LejaBagbySequence(self.nodes[:d], self.poles[: d + 1], self.betas[: d + 1])


class _GreedySequence(LejaBagbySequence):
    """Greedy Leja-Bagby node/pole selection on discretized sets from the
    boundary point nearest ``start_hint``, one step per ``grow`` past the end.

    Nodes maximize and poles minimize |s_j| over the boundary and singularity
    discretizations respectively; the running products are tracked as sums of
    log-moduli so long sequences cannot overflow.  An empty singularity list
    places every pole at infinity (polynomial interpolation).
    """

    def __init__(self, boundary, singularities, start_hint):
        boundary = np.asarray(boundary, dtype=complex).ravel()
        if boundary.size == 0:
            raise ValueError("boundary discretization is empty")
        self._boundary, self._sing = boundary, np.asarray(list(singularities), dtype=complex).ravel()
        s0 = boundary[np.argmin(np.abs(boundary - complex(start_hint)))]
        super().__init__(np.array([s0]), np.array([np.inf], dtype=complex), np.ones(1))
        with np.errstate(divide="ignore"):
            self._log_bnd = np.log(np.abs(boundary - s0))
            self._log_xi = np.log(np.abs(self._sing - s0)) if self._sing.size else None
        self._b_bnd = np.full(boundary.shape, 1.0 / self.betas[0], dtype=complex)

    @property
    def max_degree(self) -> int:
        return self._boundary.size - 1

    def grow(self, j: int) -> None:
        while len(self.nodes) <= min(j, self.max_degree):
            self._step()

    def _step(self) -> None:
        boundary, sing, log_xi = self._boundary, self._sing, self._log_xi
        pole = np.complex128(np.inf)
        if sing.size:
            # a pole already used (or equal to a node) has |s| = +inf there
            # and must never be picked again; when every candidate is
            # exhausted the remaining poles are set to infinity
            imin = int(np.argmin(log_xi))
            if np.isfinite(log_xi[imin]):
                pole = sing[imin]
                if np.any(np.abs(self.nodes - pole) == 0.0):
                    raise NepError(f"degenerate configuration: pole {pole} coincides with a node")
        sj = boundary[int(np.argmax(self._log_bnd))]
        inv_xi = 0.0 if np.isinf(pole) else 1.0 / pole
        pole_factor = 1.0 - boundary * inv_xi
        with np.errstate(divide="ignore", invalid="ignore"):
            t = self._b_bnd * (boundary - self.nodes[-1]) / pole_factor
        t = np.where(np.isfinite(t), t, 0.0)
        bj = float(np.max(np.abs(t)))
        if bj == 0.0:
            raise NepError("degenerate configuration: normalization factor vanished")
        self.nodes, self.poles = np.append(self.nodes, sj), np.append(self.poles, pole)
        self.betas = np.append(self.betas, bj)
        self._b_bnd = t / bj
        with np.errstate(divide="ignore", invalid="ignore"):
            upd_b = np.log(np.abs(boundary - sj))
            if inv_xi != 0.0:
                upd_b = upd_b - np.log(np.abs(1.0 - boundary * inv_xi))
            # a boundary point hitting a node goes to -inf (never re-picked);
            # NaN can only arise from inf - inf collisions, treat as excluded
            log_bnd = self._log_bnd + np.nan_to_num(upd_b, nan=-np.inf, posinf=np.inf, neginf=-np.inf)
            self._log_bnd = np.where(np.isnan(log_bnd), -np.inf, log_bnd)
            if sing.size:
                upd_x = np.log(np.abs(sing - sj))
                if inv_xi != 0.0:
                    upd_x = upd_x - np.log(np.abs(1.0 - sing * inv_xi))
                # +inf marks a used-up pole and keeps it out of the argmin
                log_xi = log_xi + np.nan_to_num(upd_x, nan=np.inf, posinf=np.inf, neginf=-np.inf)
                self._log_xi = np.where(np.isnan(log_xi), np.inf, log_xi)


def leja_bagby(boundary, singularities, d_max: int, start_hint: complex = 0.0) -> LejaBagbySequence:
    """The first d_max greedy steps (fewer on a boundary of at most d_max
    points) of ``_GreedySequence``, as a fixed sequence."""
    seq = _GreedySequence(boundary, singularities, start_hint)
    seq.grow(d_max)
    return LejaBagbySequence(seq.nodes, seq.poles, seq.betas)


# -- automatic singularities ----------------------------------------------------


def _poly_roots(coeffs) -> np.ndarray:
    c = np.trim_zeros(np.asarray(coeffs, dtype=complex), "f")
    if c.size <= 1:
        return np.zeros(0, dtype=complex)
    return np.roots(c)


def _poles_of(f: ScalarFunction) -> List[complex]:
    if f.kind in ("exp", "phi"):  # entire functions
        return []
    if f.kind == "rational":
        roots = _poly_roots(f._den())
        alpha = complex(f.alpha)
        if alpha == 0:
            return []
        return list(roots / alpha)
    if f.kind == "combine" and f.op in ("add", "mul"):
        inner = _poles_of(f.left) + _poles_of(f.right)
        alpha = complex(f.alpha)
        if alpha == 0:
            return []
        return [z / alpha for z in inner]
    raise UnsupportedPoleDetection(
        f"cannot determine poles of a {f.kind}{'/' + str(f.op) if f.op else ''} term"
    )


def auto_singularities(op: NepOperator) -> np.ndarray:
    """Poles of a split operator: the union of the denominator roots of its
    rational terms; exponential and phi terms, entire, have none."""
    if not op.is_split:
        raise UnsupportedPoleDetection("pole detection requires the split form")
    poles: List[complex] = []
    for f in op.funcs:
        poles.extend(_poles_of(f))
    merged: List[complex] = []
    for z in poles:
        if not any(abs(z - w) <= 1e-10 * max(1.0, abs(w)) for w in merged):
            merged.append(z)
    return np.asarray(merged, dtype=complex)


# -- rational interpolant ----------------------------------------------------------


@dataclass
class RationalInterpolant:
    """Rational Newton interpolant R_d(lam) = sum_j b_j(lam) D_j.

    Both forms keep D_j = sum_i coeffs[i, j] M_i over the matrices ``mats``
    (a ``SplitSum``).  In split form ``mats`` is the operator's own sum of
    the A_i and ``coeffs`` (nterms x (d+1)) holds the scalar divided
    differences; for a callback operator ``mats`` holds the explicit D_j and
    ``coeffs`` is the identity.  ``seq`` holds what b_0 .. b_d read.  What
    does not depend on the shift, ``real`` and the ``shift_data`` of each
    scalar type, is built on first use and kept.
    """

    op: NepOperator
    seq: LejaBagbySequence
    d: int
    mats: SplitSum
    coeffs: np.ndarray
    reached_max_degree: bool = False
    _shift_data: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def real(self) -> bool:
        """Whether the nodes, poles and betas, the divided differences and
        the matrices all have exactly zero imaginary part."""
        scalars = (self.seq.nodes, self.seq.poles, self.seq.betas, self.coeffs)
        return all(not np.any(np.imag(a)) for a in scalars) and self.mats.dtype.kind == "f"

    def shift_data(self, real: bool) -> tuple:
        """What ``ShiftInvertContext`` reads at every shift, in real (of a ``real``
        interpolant) or complex scalars: the inverse poles 1/xi_j (0 at infinity),
        the divided-difference coefficients, and the right-hand side's block
        weights W with the ``SplitSum`` of the matrices its columns weigh."""
        if real not in self._shift_data:
            part = np.real if real else np.asarray
            d = self.d
            coeffs = part(self.coeffs)
            # the solve's right-hand side -(D_0 y^1 + ... + D_{d-2} y^{d-1} + D_d y^d / beta_d)
            # is -sum_k M_k (Y W)[:, k] for the blocks Y = [y^1 .. y^d], where W
            # (d x len(mats)) folds the coefficients of the D_j into block weights;
            # a matrix that no block weighs (D_{d-1} on the callback path) is dropped
            W = np.vstack([coeffs[:, : d - 1].T, coeffs[:, d][None, :] / self.seq.betas[d]])
            used = np.flatnonzero(np.any(W != 0, axis=0))
            inv_xi = part(np.array([self.seq.inv_pole(j) for j in range(d + 1)], dtype=complex))
            self._shift_data[real] = (inv_xi, coeffs, W[:, used], self.mats.subset(used))
        return self._shift_data[real]

    def b_values(self, lam: complex) -> np.ndarray:
        return self.seq.b_values(lam, self.d)

    def b_values_linearized(self, lam: complex) -> np.ndarray:
        """Basis values with the last pole moved to infinity.

        The companion-type linearization is built under this simplification,
        so every quantity entering its factorization must use the modified
        final basis function.
        """
        b = self.seq.b_values(lam, self.d - 1)
        bd = b[self.d - 1] * (lam - self.seq.nodes[self.d - 1]) / self.seq.betas[self.d]
        return np.concatenate([b, [bd]])

    def weights(self, lam: complex) -> np.ndarray:
        """The weight of each matrix in R_d(lam)."""
        return self.coeffs @ self.b_values(lam)

    def assemble(self, lam: complex):
        """R_d(lam) as a sparse matrix."""
        return self.mats.assemble(self.weights(lam))

    def apply(self, lam: complex, v: np.ndarray) -> np.ndarray:
        """R_d(lam) v without assembling R_d."""
        return self.mats.apply(self.weights(lam), v)

    def norm_scale(self, lam: complex) -> float:
        """The residual scaling of R_d(lam), sum_i |w_i| ||M_i||_inf, as
        ``NepOperator.norm_scale`` scales T."""
        return self.mats.scale(self.weights(lam))

    def dd_dense(self, j: int) -> np.ndarray:
        return self.mats.assemble(self.coeffs[:, j]).toarray()


def _bidiagonal_quotient(seq: LejaBagbySequence, m: int) -> np.ndarray:
    """H_m K_m^{-1} for the divided-difference matrix functions."""
    nodes = seq.nodes[:m]
    Hb = np.diag(nodes.astype(complex))
    Kb = np.eye(m, dtype=complex)
    for j in range(1, m):
        Hb[j, j - 1] = seq.betas[j]
        Kb[j, j - 1] = seq.betas[j] * seq.inv_pole(j)
    # M = Hb Kb^{-1}  <=>  Kb^T M^T = Hb^T
    Mt = scipy.linalg.solve_triangular(Kb.T, Hb.T, lower=False)
    return Mt.T


def divided_differences(
    op: NepOperator,
    seq: LejaBagbySequence,
    dd_tol: float = DD_TOL_DEFAULT,
    d_max: int = DD_MAXDEG_DEFAULT,
) -> RationalInterpolant:
    """Generate divided differences until their norms fall below dd_tol.

    Split form: the scalar divided differences of each f_i are read off
    matrix functions of the bidiagonal quotient, and the stopping estimate is
    the max modulus over the terms.  Callback form: explicit matrices from
    the interpolation recurrence with infinity-norm stopping.  The degree
    never drops below 2 (required by the linearization recurrences).  A
    ``_GreedySequence`` takes its greedy step for degree j when the loop
    reaches j, so no node past the final degree d is chosen; the interpolant
    keeps ``seq.basis(d)``.
    """
    d_max = min(d_max, seq.max_degree)
    if d_max < 2:
        raise NepError("need at least degree 2; supply a larger node budget")
    beta0 = seq.betas[0]
    d = d_max
    reached = True
    if op.is_split:
        coeffs = np.zeros((op.nterms, d_max + 1), dtype=complex)
        for j in range(d_max + 1):
            seq.grow(j)
            M = _bidiagonal_quotient(seq, j + 1)
            for i, f in enumerate(op.funcs):
                F = f.eval_matrix(M)
                coeffs[i, j] = beta0 * F[j, 0]
            delta = np.max(np.abs(coeffs[:, j]))
            if j == 0:
                delta0 = max(delta, np.finfo(float).tiny)
            if j >= 2 and delta <= dd_tol * delta0:
                d = j
                reached = False
                break
        return RationalInterpolant(op, seq.basis(d), d, op.mats, coeffs[:, : d + 1], reached)
    # callback path: explicit divided-difference matrices
    mats = [_as_csr(beta0 * op.assemble(seq.nodes[0]))]
    nrm0 = max(inf_norm(mats[0]), np.finfo(float).tiny)
    for j in range(1, d_max + 1):
        seq.grow(j)
        sj = seq.nodes[j]
        b = seq.b_values(sj, j)
        if b[j] == 0:
            raise NepError("interpolation nodes are not pairwise distinct")
        R = SplitSum(mats).assemble(b[:j])
        Dj = _as_csr((op.assemble(sj) - R) / b[j])
        mats.append(Dj)
        if j >= 2 and inf_norm(Dj) <= dd_tol * nrm0:
            d = j
            reached = False
            break
    return RationalInterpolant(op, seq.basis(d), d, SplitSum(mats), np.eye(d + 1, dtype=complex), reached)


# -- shift-and-invert recurrences ------------------------------------------------


class ShiftInvertContext:
    """Implicit application of S = (A - sigma B)^{-1} B and its adjoint.

    Only R_d(sigma) is factorized; everything else is block recurrences over
    the d parts of the vectors.  The same factorization serves the adjoint.
    A context computes only what depends on sigma, ``b_sigma``, ``denoms``,
    ``pole_factors`` and the factor of R_d(sigma), and reads the rest from the
    interpolant's ``shift_data``, built once for all its shifts.  When the
    interpolant and sigma are real, ``real`` is set and the weights and the
    factor of R_d(sigma) are real: a real vector maps to a real vector in real
    arithmetic, a complex one is served too, with no complex copy of a real
    matrix (``linalg.sparse_times``).  A sigma at which the linearization is
    singular, an interpolation node or an exactly singular R_d(sigma), raises
    ``SingularMatrixError``.
    """

    def __init__(self, ri: RationalInterpolant, sigma: complex, lin_cfg: Optional[LinearSolverConfig] = None):
        if ri.d < 2:
            raise NepError("shift-invert recurrences require degree >= 2")
        self.ri = ri
        self.d = d = ri.d
        self.sigma = complex(sigma)
        seq = ri.seq
        self.real = ri.real and not self.sigma.imag
        self.dtype = np.dtype(float if self.real else complex)
        part = np.real if self.real else np.asarray
        self.b_sigma = part(seq.b_values(self.sigma, d))
        self.denoms = part(
            np.array([seq.nodes[j - 1] - self.sigma for j in range(1, d)], dtype=complex)
        )  # denoms[j-1] = sigma_{j-1} - sigma, j = 1..d-1
        if np.any(self.denoms == 0):
            raise SingularMatrixError("the shift coincides with an interpolation node")
        self.inv_xi, self._coeffs, self._rhs_weights, self._rhs_sum = ri.shift_data(self.real)
        self.pole_factors = part(1.0 - self.sigma * self.inv_xi)  # index j for (1 - sigma/xi_j)
        self.beta = seq.betas
        self._mats = ri.mats
        weights = self._coeffs @ part(ri.b_values_linearized(self.sigma))
        self.solver = make_linear_solver(self._mats.system(weights, lin_cfg), lin_cfg)
        self.n = ri.op.n

    @property
    def solve_count(self) -> int:
        return self.solver.solve_count

    # forward recurrences ------------------------------------------------

    def _rhs(self, Y: np.ndarray, C: Optional[np.ndarray] = None) -> np.ndarray:
        """The solve's right-hand side for the blocks y^1 .. y^d = columns of Y C.

        ``Y`` is n x k and ``C`` (k x d, the identity when omitted) holds the
        block coefficients; ``C W`` is formed first, so Y is read once by one
        product with as many columns as there are matrices M_k.
        """
        CW = self._rhs_weights if C is None else C @ self._rhs_weights
        # row k is (Y C W)[:, k], contiguous for the matvec
        return -self._rhs_sum.combine(CW.T @ Y.T)

    def _blocks(self, g: np.ndarray) -> np.ndarray:
        """Rows y^1 .. y^{d-1} of the block recurrence and y^d = g^{d-1}.

        ``g`` holds d rows: the blocks of a vector, or its TOAR coefficients.
        """
        d = self.d
        out = np.empty_like(g)
        out[d - 1] = g[d - 1]
        out[d - 2] = (
            g[d - 2] + (self.beta[d - 1] * self.inv_xi[d - 1]) * g[d - 1]
        ) / self.denoms[d - 2]
        for j in range(d - 2, 0, -1):
            out[j - 1] = (
                g[j - 1]
                + (self.beta[j] * self.inv_xi[j]) * g[j]
                - self.beta[j] * self.pole_factors[j] * out[j]
            ) / self.denoms[j - 1]
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """w = S x for x given as d stacked blocks of length n."""
        d, n = self.d, self.n
        x = np.asarray(x)
        x = x.astype(np.result_type(x, self.dtype), copy=False).reshape(d, n)
        w = self._blocks(x)
        y0 = self.solver.solve(self._rhs(w.T))
        w[d - 1] = 0.0
        w += self.b_sigma[:d, None] * y0
        return w.reshape(d * n)

    # adjoint recurrences -------------------------------------------------

    def _dd_adjoint_combos(self, z0: np.ndarray) -> List[np.ndarray]:
        """[D_0^* z0, ..., D_d^* z0] with one adjoint matvec per matrix."""
        us = self._mats.adjoint_products(z0)
        out = []
        for j in range(self.d + 1):
            acc = np.zeros(self.n, dtype=z0.dtype)
            for u, c in zip(us, self._coeffs[:, j]):
                if c != 0:
                    acc += np.conj(c) * u
            out.append(acc)
        return out

    def adjoint_stage_z(self, x: np.ndarray):
        """``(z, dh)``: z = (A - sigma B)^{-*} x, the left-eigenvector stage
        of S* x, and dh = [D_0^* z[0], ..., D_d^* z[0]]."""
        d, n = self.d, self.n
        x = np.asarray(x)
        x = x.astype(np.result_type(x, self.dtype), copy=False).reshape(d, n)
        y0 = np.conj(self.b_sigma[d - 1]) * x[d - 1]
        for i in range(d - 1):
            y0 = y0 + np.conj(self.b_sigma[i]) * x[i]
        z = np.empty((d, n), dtype=x.dtype)
        z[0] = self.solver.solve(y0, adjoint=True)
        dh = self._dd_adjoint_combos(z[0])
        # y^i = x^{i-1} for i >= 1
        z[1] = (x[0] - dh[0]) / np.conj(self.denoms[0])
        for i in range(2, d):
            z[i] = (
                x[i - 1]
                - dh[i - 1]
                - self.beta[i - 1] * np.conj(self.pole_factors[i - 1]) * z[i - 1]
            ) / np.conj(self.denoms[i - 1])
        return z, dh

    def apply_adjoint(self, x: np.ndarray) -> np.ndarray:
        """w = S^* x via the transposed block triangular factors."""
        d, n = self.d, self.n
        z, dh = self.adjoint_stage_z(x)
        w = np.empty((d, n), dtype=z.dtype)
        w[0] = z[1]
        for i in range(1, d - 1):
            w[i] = self.beta[i] * np.conj(self.inv_xi[i]) * z[i] + z[i + 1]
        w[d - 1] = -dh[d] / self.beta[d] + self.beta[d - 1] * np.conj(self.inv_xi[d - 1]) * z[d - 1]
        return w.reshape(d * n)

    # compact expansion -----------------------------------------------------

    def toar_expand(self, U: np.ndarray, g: np.ndarray):
        """S applied to the vector with d coefficient rows ``g`` on U.

        Returns ``(y0, G)`` with S (I_d (x) U) g = (I_d (x) [U, y0]) G: the
        solve's result y0 is the only new direction, and G (d x (mu+1))
        holds the coefficients.  U is read once, by the product that forms
        the right-hand side.
        """
        d, mu = self.d, U.shape[1]
        g = np.asarray(g)
        G = np.zeros((d, mu + 1), dtype=np.result_type(g, U, self.dtype))
        Y = self._blocks(g.astype(G.dtype, copy=False))
        y0 = self.solver.solve(self._rhs(U, Y.T))
        G[: d - 1, :mu] = Y[: d - 1]
        G[:, mu] = self.b_sigma[:d]
        return y0, G


# -- the shift-and-invert eigensolve ------------------------------------------------


def shift_invert_context(ri: RationalInterpolant, target: complex, lin_cfg=None) -> ShiftInvertContext:
    """``ShiftInvertContext`` at the target or, where the linearization is
    singular there, once more at target + SHIFT_RETRY max(1, |target|).

    The shift in use is ``ctx.sigma``; a singular retry raises
    ``SingularMatrixError``.
    """
    target = complex(target)
    try:
        return ShiftInvertContext(ri, target, lin_cfg)
    except SingularMatrixError:
        return ShiftInvertContext(ri, target + SHIFT_RETRY * max(1.0, abs(target)), lin_cfg)


def _start_blocks(ctx: ShiftInvertContext) -> np.ndarray:
    """All-ones start blocks, made where an engine is built, so that no
    caller holds their n scalars through the run."""
    return np.broadcast_to(np.ones(ctx.n, dtype=ctx.dtype), (ctx.d, ctx.n))


def next_shift(region, shifts, lams) -> Optional[float]:
    """The shift after ``shifts``, given the eigenvalues ``lams`` found so far.

    On an ``Interval`` [a, b] it is the midpoint of the widest gap between
    covered points: a, b, the shifts and Re lam of every eigenvalue, clipped
    to [a, b].  Any other region gets no further shift (None).
    """
    if not isinstance(region, Interval):
        return None
    covered = np.unique(np.clip(np.real([region.a, region.b, *shifts, *lams]), region.a, region.b))
    i = int(np.argmax(np.diff(covered)))
    return float(0.5 * (covered[i] + covered[i + 1]))


def _krylov_schur_pairs(
    ctx: ShiftInvertContext, settings: Settings, pair_eta, rng, full_basis, known_junk, max_restarts: int
):
    """One Krylov-Schur run at ctx's shift, of at most ``max_restarts``
    restarts: its distinct pairs, restarts and Ritz history
    (``KrylovSchurDriver.ritz_history``).

    The Ritz-to-eigenpair rule of NLEIGS and interpol: the region rule of
    ``nleigs_solve`` as the driver's wanted filter, Ritz values ranked by
    ``settings.sort_key()`` of their lam, the inner tolerance
    max(1e-14, 0.01 tol), and as pair test ``pair_eta`` <= tol on the
    normalized first block of the Ritz vector.  The pairs returned are those
    the converged count includes whose eta is at most tol.  While fewer than
    nev pairs pass and the run may go on, it goes on wanting as many more
    converged Ritz pairs as are missing.
    """
    d, n, sigma = ctx.d, ctx.n, ctx.sigma
    ncv = min(settings.ncv_effective, d * n - 1)
    ncv = max(ncv, min(settings.nev + 2, d * n - 1))
    if full_basis:
        engine = FullBasisEngine(ctx.apply, _start_blocks(ctx), ncv, ctx.dtype)
    else:
        engine = ToarBasisEngine(ctx, _start_blocks(ctx), ncv)
    real = isinstance(settings.region, Interval)
    tol, lam_key, contains = settings.tol, settings.sort_key(), settings.region.contains
    to_lam = lambda thetas: sigma + 1.0 / thetas

    # the driver's callables hold the engine, never the driver: a cycle would
    # keep the basis allocated until the cyclic collector runs
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

    def first_block(y, m):
        """The first block of the Ritz vector, normalized; None where its norm is 0 or not finite."""
        x = engine.ritz_first_block(y, m)
        nx = np.linalg.norm(x)
        return x / nx if nx != 0 and np.isfinite(nx) else None

    def pair_test(theta, y, m):
        x = first_block(y, m)
        eta = np.inf if x is None else pair_eta(point(theta), x)
        return eta <= tol, eta

    driver = KrylovSchurDriver(engine, ncv, max(1e-14, 0.01 * tol), key, wanted, rng, known_junk, pair_test=pair_test)
    want = settings.nev
    while True:
        count = driver.run(want, max_restarts)
        found = [
            EigenPair(point(theta), first_block(y, driver.m), eta)
            for theta, y, _res, ok, eta in driver.extract()
            if ok and eta <= tol
        ]
        pairs = distinct_pairs(found)
        if len(pairs) >= settings.nev or driver.restarts >= max_restarts or driver.exhausted or count < want:
            break
        want += settings.nev - len(pairs)
    return pairs, driver.restarts, driver.ritz_history


def shift_invert_pairs(
    ri: RationalInterpolant, settings: Settings, pair_eta, *, lin_cfg=None, full_basis=False, poles=()
):
    """The region's pairs of ``ri``'s linearization, from Krylov-Schur runs
    at one shift after another, each read back by ``_krylov_schur_pairs``
    with ``pair_eta`` as its pair test.

    The first shift is the target (``shift_invert_context``).  While fewer
    than nev distinct pairs are found, the last shift added at least one and
    restarts are left, R_d is factored at ``next_shift`` and the run repeats
    there, at most nev shifts in all; ``settings.max_it`` caps the restarts
    of the whole loop, each run getting those still left.  The pairs merge
    through ``distinct_pairs``, earlier ones first.  A run at sigma counts a
    Ritz value near the image 1/(xi - sigma) of one of ``poles`` as
    converged junk.  Returns ``(pairs, stats, rng)``: ``stats`` sums the
    restarts (``outer_iterations``) and ``linear_solves`` (``tally_solves``)
    over the shifts and lists them in ``shifts``; every run draws from the
    one generator ``rng``.
    """
    rng = np.random.default_rng(settings.seed)
    poles = np.asarray(poles, dtype=complex)
    stats = {"outer_iterations": 0, "linear_solves": 0, "shifts": [], "ritz_history": []}
    pairs, real, sigma, budget = [], True, settings.target, settings.max_it_effective
    while sigma is not None:
        ctx = shift_invert_context(ri, sigma, lin_cfg)
        known_junk = 1.0 / (poles[poles != ctx.sigma] - ctx.sigma)
        left = budget - stats["outer_iterations"]
        found, restarts, history = _krylov_schur_pairs(ctx, settings, pair_eta, rng, full_basis, known_junk, left)
        stats["shifts"].append(ctx.sigma)
        stats["outer_iterations"] += restarts
        tally_solves(stats, ctx.solver)
        stats["ritz_history"] += history
        real = real and ctx.real
        del ctx  # no shift's factorization is made while an earlier one is held
        merged = distinct_pairs(pairs + found)
        done = len(merged) >= settings.nev or len(merged) == len(pairs) or len(stats["shifts"]) >= settings.nev
        if done or restarts >= left:
            sigma = None
        else:
            sigma = next_shift(settings.region, stats["shifts"], [p.lam for p in merged])
        pairs = merged
    stats["scalars"] = "real" if real else "complex"
    return pairs, stats, rng


# -- top-level solver ----------------------------------------------------------------


def _resolve_singularities(op: NepOperator, singularities, settings: Settings):
    if isinstance(singularities, str):
        if singularities == "none":
            return np.zeros(0, dtype=complex), None
        if singularities == "auto":
            try:
                return auto_singularities(op), None
            except UnsupportedPoleDetection as exc:
                if settings.problem_type == "rational":
                    raise
                return np.zeros(0, dtype=complex), f"pole detection skipped: {exc}"
        raise ValueError(f"unknown singularity source {singularities!r}")
    return np.asarray(list(singularities), dtype=complex), None


def nleigs_solve(
    op: NepOperator,
    settings: Settings,
    *,
    dd_tol: float = DD_TOL_DEFAULT,
    dd_maxdeg: int = DD_MAXDEG_DEFAULT,
    singularities="auto",
    full_basis: bool = False,
    lin_cfg: Optional[LinearSolverConfig] = None,
) -> EigenSolution:
    """Rational-interpolation solve over a region of the complex plane.

    The target is the first shift of the Krylov iteration, moved once
    where the linearization is singular there (``shift_invert_context``).
    On an ``Interval``, while pairs are missing, further shifts follow at
    the midpoints of the widest uncovered gaps (``shift_invert_pairs``); a
    2-D region keeps its one shift.  Accepted pairs lie inside the region
    and meet the backward-error tolerance.  The two-sided variant attaches
    to each pair a left eigenvector y, found by at most LEFT_STEPS steps of
    inverse iteration with S^* at the pair's eigenvalue (one context per
    pair, from a random start drawn from the first run's generator) and
    accepted when its backward error against T, eta_left, is at most tol; a
    pair whose y never meets tol keeps y None and the solve notes it.
    Two-sided runs use the full basis.

    Region rule (``_krylov_schur_pairs``, shared with interpol): while
    iterating, a Ritz value theta with residual res maps to
    lam = sigma + 1/theta, which is known only to about res/|theta|^2.  It
    counts as inside an ``Interval`` when Re lam lies in [a, b] and
    |Im lam| <= max(1e-8 max(1, |lam|), res/|theta|^2); the wanted filter,
    the restart ordering, the converged count and the returned pairs all
    use this one rule.
    Interval eigenvalues are tested (backward error <= tol) and returned at
    Re lam, as floats.  Other regions are tested on lam as it is.
    Pole rule: a restart counts an unwanted Ritz value within COPY_RTOL of
    the image 1/(xi - sigma) of a known pole xi as converged junk whatever
    its residual, so a pole copy's residual near the inner tolerance does
    not decide how many vectors are kept.
    Scalars: whether the interpolant is real is decided once, from data (see
    the module docstring) and only the nodes, poles and betas its degree d
    reads; real A_i and f_i with a real target over an ``Interval`` qualify,
    for the left vectors too, and a complex target, an ``Ellipse`` or a
    complex D_j do not.  ``stats["scalars"]`` reports ``"real"`` or
    ``"complex"``; there is no option.
    """
    if settings.region is None:
        raise NepError("nleigs requires a region")
    two_sided = settings.two_sided
    if two_sided:
        full_basis = True
    notes = []

    boundary = settings.region.boundary_points(BOUNDARY_POINTS)
    sing, note = _resolve_singularities(op, singularities, settings)
    if note:
        notes.append(note)
    seq = _GreedySequence(boundary, sing, settings.target)
    ri = divided_differences(op, seq, dd_tol=dd_tol, d_max=dd_maxdeg)
    if ri.reached_max_degree:
        notes.append(
            f"divided differences did not reach tol {dd_tol:g} at degree {ri.d}; proceeding"
        )
    pairs, stats, rng = shift_invert_pairs(
        ri, settings, lambda lam, x: backward_error(op, lam, x), lin_cfg=lin_cfg, full_basis=full_basis, poles=sing
    )
    stats.update(degree=ri.d, basis="full" if full_basis else "toar")

    if two_sided:
        # inverse iteration with S^* at each eigenvalue: one adjoint solve
        # with the nearly singular R_d(lam) makes the first block of the
        # stage vector the left eigenvector
        for p in pairs:
            pctx = shift_invert_context(ri, p.lam, lin_cfg)
            v = random_vector(rng, pctx.d * pctx.n, pctx.dtype)
            for step in range(LEFT_STEPS):
                if step:
                    v = pctx.apply_adjoint(v)
                    v = v / np.linalg.norm(v)
                yvec = pctx.adjoint_stage_z(v)[0][0]
                yvec = yvec / np.linalg.norm(yvec)
                eta_left = float(np.linalg.norm(op.apply_adjoint(p.lam, yvec)) / op.norm_scale(p.lam))
                if eta_left <= settings.tol:
                    p.y, p.eta_left = yvec, eta_left
                    break
            tally_solves(stats, pctx.solver)
        missing = [p for p in pairs if p.y is None]
        if missing:
            notes.append(f"{len(missing)} pairs lack a matched left eigenvector")

    return finish(settings, pairs, stats, notes)

"""Rational-interpolation eigensolver with a compact Krylov representation.

Pipeline: the boundary of the target region is discretized, node/pole pairs
are chosen greedily (Leja-Bagby) from the boundary and the singularity set,
and T is replaced by a rational interpolant in the degree-graded rational
Newton basis.  The companion-type linearization of the interpolant is never
formed: shift-and-invert products are applied through block recurrences with
a single factorization of R_d(sigma).  The linear problem is solved with
Krylov-Schur, either on explicitly stored vectors of length d*n (full basis)
or on a compact tensor representation V_k = (I_d (x) U) G_k of the same basis
(the default).  A two-sided variant runs a second Krylov process with the
adjoint recurrences to recover left eigenvectors.

The compact expansion costs O(n mu) plus one sparse solve per step, mu being
the number of columns of U.  The block recurrence runs on the d x mu
coefficients, and the solve's right-hand side is formed in coefficient space.
The interpolant keeps every D_j as a combination of the same matrices: the
operator's A_i in split form, the explicit D_j themselves for a callback
operator.  Once per shift the coefficients are folded into a weight matrix
with one column per matrix that the right-hand side needs (nterms in split
form, d on the callback path, where D_{d-1} drops out), so each step reads U
once, by one product with that many columns, followed by one sparse matvec
per column.  U lives in a column-major buffer preallocated with
d + ncv + 2 columns, so no step copies it to grow it.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    backward_error,
)
from .functions import ScalarFunction
from .linalg import (
    FullBasisEngine,
    KrylovSchurDriver,
    LinearSolverConfig,
    SplitSum,
    inf_norm,
    make_linear_solver,
    orthogonalize,
)

__all__ = [
    "LejaBagbySequence",
    "leja_bagby",
    "RationalInterpolant",
    "divided_differences",
    "auto_singularities",
    "UnsupportedPoleDetection",
    "ShiftInvertContext",
    "toar_arnoldi",
    "nleigs_solve",
]

DD_TOL_DEFAULT = 1e-11
DD_MAXDEG_DEFAULT = 30
BOUNDARY_POINTS_DEFAULT = 1000
COMPRESS_RTOL = 1e-13


class UnsupportedPoleDetection(NepError):
    """Raised when automatic pole detection meets a non-rational term."""


# -- Leja-Bagby points -------------------------------------------------------


@dataclass
class LejaBagbySequence:
    """Greedy interpolation nodes, poles and normalization factors.

    ``nodes[j]`` and ``poles[j]`` pair with the basis function b_j; poles[0]
    is unused (kept at infinity).  ``betas`` normalizes each b_j to unit
    maximum modulus over the discretized boundary.
    """

    nodes: np.ndarray
    poles: np.ndarray
    betas: np.ndarray

    @property
    def max_degree(self) -> int:
        return len(self.nodes) - 1

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


def leja_bagby(
    boundary,
    singularities,
    d_max: int,
    start_hint: complex = 0.0,
) -> LejaBagbySequence:
    """Greedy Leja-Bagby node/pole selection on discretized sets.

    Nodes maximize and poles minimize |s_j| over the boundary and singularity
    discretizations respectively; the running products are tracked as sums of
    log-moduli so long sequences cannot overflow.  An empty singularity list
    places every pole at infinity (polynomial interpolation).
    """
    boundary = np.asarray(boundary, dtype=complex).ravel()
    if boundary.size == 0:
        raise ValueError("boundary discretization is empty")
    sing = np.asarray(list(singularities), dtype=complex).ravel()
    d_max = min(d_max, boundary.size - 1)

    nodes = np.empty(d_max + 1, dtype=complex)
    poles = np.full(d_max + 1, np.inf, dtype=complex)
    betas = np.ones(d_max + 1, dtype=float)

    s0 = boundary[np.argmin(np.abs(boundary - complex(start_hint)))]
    nodes[0] = s0

    with np.errstate(divide="ignore"):
        log_bnd = np.log(np.abs(boundary - s0))
        log_xi = np.log(np.abs(sing - s0)) if sing.size else None
    b_bnd = np.full(boundary.shape, 1.0 / betas[0], dtype=complex)

    for j in range(1, d_max + 1):
        if sing.size:
            # a pole already used (or equal to a node) has |s| = +inf there
            # and must never be picked again; when every candidate is
            # exhausted the remaining poles are set to infinity
            imin = int(np.argmin(log_xi))
            if np.isfinite(log_xi[imin]):
                xi = sing[imin]
                if np.any(np.abs(nodes[:j] - xi) == 0.0):
                    raise NepError(
                        f"degenerate configuration: pole {xi} coincides with a node"
                    )
                poles[j] = xi
        sj = boundary[int(np.argmax(log_bnd))]
        nodes[j] = sj
        inv_xi = 0.0 if np.isinf(poles[j]) else 1.0 / poles[j]
        pole_factor = 1.0 - boundary * inv_xi
        with np.errstate(divide="ignore", invalid="ignore"):
            t = b_bnd * (boundary - nodes[j - 1]) / pole_factor
        t = np.where(np.isfinite(t), t, 0.0)
        bj = float(np.max(np.abs(t)))
        if bj == 0.0:
            raise NepError("degenerate configuration: normalization factor vanished")
        betas[j] = bj
        b_bnd = t / bj
        with np.errstate(divide="ignore", invalid="ignore"):
            upd_b = np.log(np.abs(boundary - sj))
            if inv_xi != 0.0:
                upd_b = upd_b - np.log(np.abs(1.0 - boundary * inv_xi))
            # a boundary point hitting a node goes to -inf (never re-picked);
            # NaN can only arise from inf - inf collisions, treat as excluded
            log_bnd = log_bnd + np.nan_to_num(upd_b, nan=-np.inf, posinf=np.inf, neginf=-np.inf)
            log_bnd = np.where(np.isnan(log_bnd), -np.inf, log_bnd)
            if sing.size:
                upd_x = np.log(np.abs(sing - sj))
                if inv_xi != 0.0:
                    upd_x = upd_x - np.log(np.abs(1.0 - sing * inv_xi))
                # +inf marks a used-up pole and keeps it out of the argmin
                log_xi = log_xi + np.nan_to_num(upd_x, nan=np.inf, posinf=np.inf, neginf=-np.inf)
                log_xi = np.where(np.isnan(log_xi), np.inf, log_xi)
    return LejaBagbySequence(nodes, poles, betas)


# -- automatic singularities ----------------------------------------------------


def _poly_roots(coeffs) -> np.ndarray:
    c = np.trim_zeros(np.asarray(coeffs, dtype=complex), "f")
    if c.size <= 1:
        return np.zeros(0, dtype=complex)
    return np.roots(c)


def _poles_of(f: ScalarFunction) -> List[complex]:
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
    """Poles of a rational split operator: union of denominator roots."""
    if not op.is_split:
        raise UnsupportedPoleDetection("pole detection requires the split form")
    poles: List[complex] = []
    for _, f in op.terms:
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
    ``coeffs`` is the identity.
    """

    op: NepOperator
    seq: LejaBagbySequence
    d: int
    mats: SplitSum
    coeffs: np.ndarray
    reached_max_degree: bool = False

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

    def assemble(self, lam: complex, weights: Optional[np.ndarray] = None):
        """R_d(lam) as a sparse matrix."""
        b = self.b_values(lam) if weights is None else weights
        return self.mats.assemble(self.coeffs @ b)

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
    never drops below 2 (required by the linearization recurrences).
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
            M = _bidiagonal_quotient(seq, j + 1)
            for i, (_, f) in enumerate(op.terms):
                F = f.eval_matrix(M, max_dim=max(M.shape[0], 256))
                coeffs[i, j] = beta0 * F[j, 0]
            delta = np.max(np.abs(coeffs[:, j]))
            if j == 0:
                delta0 = max(delta, np.finfo(float).tiny)
            if j >= 2 and delta <= dd_tol * delta0:
                d = j
                reached = False
                break
        return RationalInterpolant(op, seq, d, op.mats, coeffs[:, : d + 1], reached)
    # callback path: explicit divided-difference matrices
    mats = [(beta0 * op.assemble(seq.nodes[0])).tocsr()]
    nrm0 = max(inf_norm(mats[0]), np.finfo(float).tiny)
    for j in range(1, d_max + 1):
        sj = seq.nodes[j]
        b = seq.b_values(sj, j)
        if b[j] == 0:
            raise NepError("interpolation nodes are not pairwise distinct")
        R = SplitSum(mats).assemble(b[:j])
        Dj = ((op.assemble(sj) - R) / b[j]).tocsr()
        mats.append(Dj)
        if j >= 2 and inf_norm(Dj) <= dd_tol * nrm0:
            d = j
            reached = False
            break
    return RationalInterpolant(op, seq, d, SplitSum(mats), np.eye(d + 1, dtype=complex), reached)


# -- shift-and-invert recurrences ------------------------------------------------


class ShiftInvertContext:
    """Implicit application of S = (A - sigma B)^{-1} B and its adjoint.

    Only R_d(sigma) is factorized; everything else is block recurrences over
    the d parts of the vectors.  The same factorization serves the adjoint.
    """

    def __init__(self, ri: RationalInterpolant, sigma: complex, lin_cfg: Optional[LinearSolverConfig] = None):
        if ri.d < 2:
            raise NepError("shift-invert recurrences require degree >= 2")
        self.ri = ri
        self.d = ri.d
        self.sigma = complex(sigma)
        seq = ri.seq
        d = ri.d
        self.b_sigma = seq.b_values(self.sigma, d)
        self.denoms = np.array(
            [seq.nodes[j - 1] - self.sigma for j in range(1, d)], dtype=complex
        )  # denoms[j-1] = sigma_{j-1} - sigma, j = 1..d-1
        if np.any(self.denoms == 0):
            raise NepError("the shift coincides with an interpolation node; move the target")
        self.inv_xi = np.array([ri.seq.inv_pole(j) for j in range(d + 1)], dtype=complex)
        self.pole_factors = 1.0 - self.sigma * self.inv_xi  # index j for (1 - sigma/xi_j)
        self.beta = seq.betas
        Rsig = ri.assemble(self.sigma, weights=ri.b_values_linearized(self.sigma))
        self.solver = make_linear_solver(Rsig, lin_cfg)
        self.n = ri.op.n
        # the solve's right-hand side -(D_0 y^1 + ... + D_{d-2} y^{d-1} + D_d y^d / beta_d)
        # is -sum_k M_k (Y W)[:, k] for the blocks Y = [y^1 .. y^d], where W
        # (d x len(mats)) folds the coefficients of the D_j into block weights;
        # a matrix that no block weighs (D_{d-1} on the callback path) is dropped
        W = np.vstack([ri.coeffs[:, : d - 1].T, ri.coeffs[:, d][None, :] / self.beta[d]])
        used = np.flatnonzero(np.any(W != 0, axis=0))
        self._rhs_mats = [ri.mats.mats[k] for k in used]
        self._rhs_weights = W[:, used]

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
        T = CW.T @ Y.T  # row k is (Y C W)[:, k], contiguous for the matvec
        rhs = -(self._rhs_mats[0] @ T[0])
        for M, t in zip(self._rhs_mats[1:], T[1:]):
            rhs -= M @ t
        return rhs

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
        x = np.asarray(x, dtype=complex).reshape(d, n)
        w = self._blocks(x)
        y0 = self.solver.solve(self._rhs(w.T))
        w[d - 1] = 0.0
        w += self.b_sigma[:d, None] * y0
        return w.reshape(d * n)

    # adjoint recurrences -------------------------------------------------

    def _dd_adjoint_combos(self, z0: np.ndarray) -> List[np.ndarray]:
        """[D_0^* z0, ..., D_d^* z0] with one adjoint matvec per matrix."""
        us = self.ri.mats.adjoint_products(z0)
        out = []
        for j in range(self.d + 1):
            acc = np.zeros(self.n, dtype=complex)
            for u, c in zip(us, self.ri.coeffs[:, j]):
                if c != 0:
                    acc += np.conj(c) * u
            out.append(acc)
        return out

    def adjoint_stage_z(self, x: np.ndarray) -> np.ndarray:
        """z = (A - sigma B)^{-*} x, the left-eigenvector stage of S* x."""
        d, n = self.d, self.n
        x = np.asarray(x, dtype=complex).reshape(d, n)
        y0 = np.conj(self.b_sigma[d - 1]) * x[d - 1]
        for i in range(d - 1):
            y0 = y0 + np.conj(self.b_sigma[i]) * x[i]
        z = np.empty((d, n), dtype=complex)
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
        return z

    def apply_adjoint(self, x: np.ndarray) -> np.ndarray:
        """w = S^* x via the transposed block triangular factors."""
        d, n = self.d, self.n
        z = self.adjoint_stage_z(x)
        dh_last = self._dd_adjoint_combos(z[0])[d]
        w = np.empty((d, n), dtype=complex)
        w[0] = z[1]
        for i in range(1, d - 1):
            w[i] = self.beta[i] * np.conj(self.inv_xi[i]) * z[i] + z[i + 1]
        w[d - 1] = -dh_last / self.beta[d] + self.beta[d - 1] * np.conj(self.inv_xi[d - 1]) * z[d - 1]
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
        G = np.zeros((d, mu + 1), dtype=complex)
        Y = self._blocks(np.asarray(g, dtype=complex))
        y0 = self.solver.solve(self._rhs(U, Y.T))
        G[: d - 1, :mu] = Y[: d - 1]
        G[:, mu] = self.b_sigma[:d]
        return y0, G


# -- Krylov basis engines ------------------------------------------------------


class ToarBasisEngine:
    """Compact representation V_k = (I_d (x) U) G_k of the Krylov basis.

    U (n x mu, orthonormal) is a view of the first mu columns of a
    column-major buffer allocated once with d + ncv + 2 columns, the rank
    that U can reach in exact arithmetic; the buffer grows only if rounding
    ever lets the rank pass it.  An expansion step reads U once to form the
    solve's right-hand side from the coefficient rows (the block recurrence
    runs on the d x mu coefficients, not on n-long vectors), orthogonalizes
    the solution against U and writes at most one new column in place; a
    restart writes the compressed U W back into the same buffer.  G
    (d x mu x k) lives in a preallocated coefficient buffer alike.
    """

    def __init__(self, ctx: ShiftInvertContext, w_blocks: np.ndarray, ncv: int):
        self.ctx = ctx
        d, n = w_blocks.shape
        self.d, self.n = d, n
        W = np.asarray(w_blocks, dtype=complex).T  # n x d
        Q, R = np.linalg.qr(W)
        nrm = np.linalg.norm(R)
        if nrm == 0:
            raise ValueError("zero starting vector")
        self.mu = Q.shape[1]
        self.k = 1  # basis columns held in G
        self._U = np.empty((n, d + ncv + 2), dtype=complex, order="F")
        self._U[:, : self.mu] = Q
        self._G = np.zeros((d, self._U.shape[1], ncv + 2), dtype=complex)
        self._G[:, : self.mu, 0] = (R / nrm).T  # block i of the coefficients is R[:, i]/nrm

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

    def _append_u(self, u: np.ndarray) -> None:
        mu = self.mu
        if mu == self._U.shape[1]:
            U = np.empty((self.n, mu + self.d), dtype=complex, order="F")
            U[:, :mu] = self._U
            self._U = U
            G = np.zeros((self.d, mu + self.d, self._G.shape[2]), dtype=complex)
            G[:, :mu] = self._G
            self._G = G
        self._U[:, mu] = u
        self.mu = mu + 1

    def expand(self, j: int):
        mu = self.mu
        y0, g = self.ctx.toar_expand(self.U, self._G[:, :mu, j])
        h_u, beta_u, u_orth, dep = orthogonalize(self.U, y0)
        # y0 = U h_u + beta_u u: fold its coefficients into those on U and u
        g[:, :mu] += g[:, mu:] * h_u
        if dep:
            g = g[:, :mu]
        else:
            g[:, mu] *= beta_u
            self._append_u(u_orth / beta_u)
        h, beta, g_orth, dep = orthogonalize(self._stacked(j + 1), g.reshape(-1))
        if not dep:
            self._set_column(j + 1, g_orth / beta)
        return h, beta, dep

    def append_random(self, j: int, rng) -> bool:
        d, mu = self.d, self.mu
        for _ in range(3):
            cand = rng.standard_normal(d * mu) + 1j * rng.standard_normal(d * mu)
            h, beta, g_orth, dep = orthogonalize(self._stacked(j + 1), cand)
            if not dep:
                self._set_column(j + 1, g_orth / beta)
                return True
        return False

    def transform(self, Qp: np.ndarray, m: int) -> None:
        p = Qp.shape[1]
        d, mu = self.d, self.mu
        M_cat = np.empty((d, mu, p + 1), dtype=complex)
        M_cat[:, :, :p] = np.einsum("imk,kp->imp", self._G[:, :mu, :m], Qp)
        M_cat[:, :, p] = self._G[:, :mu, m]
        # compress U to the subspace actually used by the kept coefficients
        flat = M_cat.transpose(1, 0, 2).reshape(mu, d * (p + 1))
        W, s, _ = np.linalg.svd(flat, full_matrices=False)
        if s.size and s[0] > 0:
            r = max(1, int(np.sum(s > COMPRESS_RTOL * s[0])))
        else:
            r = 1
        W = W[:, :r]
        self._U[:, :r] = self.U @ W
        self._G[:, :mu, : self.k] = 0.0  # everything outside G stays zero
        self._G[:, :r, : p + 1] = np.einsum("rm,imk->irk", W.conj().T, M_cat)
        self.mu, self.k = r, p + 1

    def ritz_first_block(self, y: np.ndarray, m: int) -> np.ndarray:
        return self.U @ (self._G[0, : self.mu, :m] @ y)

    def ritz_full(self, y: np.ndarray, m: int) -> np.ndarray:
        blocks = [self.U @ (self._G[i, : self.mu, :m] @ y) for i in range(self.d)]
        return np.concatenate(blocks)


def toar_arnoldi(ctx: ShiftInvertContext, w_blocks: np.ndarray, steps: int):
    """Plain compact Arnoldi for a fixed number of steps (no restart).

    Returns (U, G, H) with H of size (m+1) x m where m <= steps is the number
    of completed expansions.
    """
    engine = ToarBasisEngine(ctx, np.asarray(w_blocks, dtype=complex), ncv=steps)
    H = np.zeros((steps + 1, steps), dtype=complex)
    m = 0
    for j in range(steps):
        h, beta, dep = engine.expand(j)
        H[: j + 1, j] = h
        H[j + 1, j] = 0.0 if dep else beta
        m = j + 1
        if dep:
            break
    return engine.U, engine.G, H[: m + 1, :m]


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
    boundary_npts: int = BOUNDARY_POINTS_DEFAULT,
    lin_cfg: Optional[LinearSolverConfig] = None,
) -> EigenSolution:
    """Rational-interpolation solve over a region of the complex plane.

    The target is the single shift of the Krylov iteration.  Accepted pairs
    lie inside the region and meet the backward-error tolerance; the
    two-sided variant additionally attaches left eigenvectors.

    Region rule: while iterating, a Ritz value theta with residual res maps
    to lam = sigma + 1/theta, which is known only to about res/|theta|^2.  It
    counts as inside an ``Interval`` when Re lam lies in [a, b] and
    |Im lam| <= max(1e-8 max(1, |lam|), res/|theta|^2); the wanted filter,
    the restart ordering, the converged count and the returned pairs all
    use this one rule.  Interval eigenvalues are tested (backward error
    <= tol) and returned at Re lam, i.e. exactly real.  Other regions are
    tested on lam as it is.
    """
    if settings.region is None:
        raise NepError("nleigs requires a region")
    two_sided = settings.two_sided
    if two_sided:
        full_basis = True
    notes = []
    sigma = complex(settings.target)

    boundary = settings.region.boundary_points(boundary_npts)
    sing, note = _resolve_singularities(op, singularities, settings)
    if note:
        notes.append(note)
    seq = leja_bagby(boundary, sing, dd_maxdeg, start_hint=sigma)
    ri = divided_differences(op, seq, dd_tol=dd_tol, d_max=dd_maxdeg)
    if ri.reached_max_degree:
        notes.append(
            f"divided differences did not reach tol {dd_tol:g} at degree {ri.d}; proceeding"
        )
    ctx = ShiftInvertContext(ri, sigma, lin_cfg)
    d, n = ri.d, op.n

    w0 = np.ones((d, n), dtype=complex)
    ncv = min(settings.ncv_effective, d * n - 1)
    ncv = max(ncv, min(settings.nev + 2, d * n - 1))
    rng = np.random.default_rng(settings.seed)
    if full_basis:
        engine = FullBasisEngine(ctx.apply, w0, ncv)
    else:
        engine = ToarBasisEngine(ctx, w0, ncv)

    region = settings.region

    real_axis = isinstance(region, Interval)

    def eigenvalue(theta: complex) -> complex:
        lam = sigma + 1.0 / theta
        # interval regions carry real spectra: pairs are tested and returned at
        # Re lam, so they lie inside the region at the strict tolerance
        return complex(lam.real) if real_axis else lam

    lam_key = settings.sort_key()

    def sort_key(thetas):
        with np.errstate(divide="ignore", invalid="ignore"):
            return lam_key(sigma + 1.0 / np.asarray(thetas, dtype=complex))

    def wanted_filter(thetas, res):
        # lam = sigma + 1/theta inherits the first-order error res/|theta|^2
        # from the Ritz residual; an imaginary part below it is rounding
        # noise and must not decide the region test
        out = np.zeros(len(thetas), dtype=bool)
        for i, th in enumerate(thetas):
            if th == 0 or not np.isfinite(th):
                continue
            lam = sigma + 1.0 / th
            imag_tol = max(1e-8 * max(1.0, abs(lam)), res[i] / abs(th) ** 2)
            out[i] = region.contains(lam, pad=0.0, imag_tol=imag_tol)
        return out

    inner_tol = max(1e-14, 0.01 * settings.tol)
    driver = KrylovSchurDriver(engine, ncv, inner_tol, sort_key, wanted_filter, rng)
    max_restarts = settings.max_it_effective

    # (restarts, m, theta) -> backward error: the first two fix the basis and
    # H, so harvest reuses what the last cycle's pair tests computed
    etas = {}

    def pair_eta(theta, y, m):
        x = engine.ritz_first_block(y, m)
        nx = np.linalg.norm(x)
        if nx == 0 or not np.isfinite(nx):
            return x, np.inf
        x = x / nx
        key = (driver.restarts, m, theta)
        if key not in etas:
            etas[key] = backward_error(op, eigenvalue(theta), x)
        return x, etas[key]

    def pair_test(theta, y, m):
        return pair_eta(theta, y, m)[1] <= settings.tol

    driver.pair_test = pair_test

    def harvest():
        # ``ok`` already carries the region rule of the converged count
        pairs = []
        for theta, y, _res, ok in driver.extract():
            if not ok:
                continue
            lam = eigenvalue(theta)
            x, eta = pair_eta(theta, y, driver.m)
            if eta > settings.tol:
                continue
            if any(abs(lam - q.lam) <= 1e-8 * max(1.0, abs(q.lam)) for q in pairs):
                continue
            pairs.append(EigenPair(lam, x, eta, y=None))
        return pairs

    want = settings.nev
    pairs = []
    while True:
        count = driver.run(want, max_restarts)
        pairs = harvest()
        if len(pairs) >= settings.nev:
            break
        if driver.restarts >= max_restarts or driver.exhausted or count < want:
            break
        want += settings.nev - len(pairs)

    stats = {
        "degree": ri.d,
        "outer_iterations": driver.restarts,
        "linear_solves": ctx.solve_count,
        "ritz_history": [(t.copy(), r.copy()) for t, r in driver.ritz_history],
        "basis": "full" if full_basis else "toar",
    }
    if notes:
        stats["notes"] = notes

    if two_sided:
        left_engine = FullBasisEngine(ctx.apply_adjoint, w0, ncv)

        def left_key(omegas):
            return sort_key(np.conj(np.asarray(omegas, dtype=complex)))

        def left_filter(omegas, res):
            return wanted_filter(np.conj(np.asarray(omegas, dtype=complex)), res)

        left_driver = KrylovSchurDriver(left_engine, ncv, inner_tol, left_key, left_filter, rng)
        left_driver.run(len(pairs), max_restarts)
        lefts = []
        for omega, y, _res, ok in left_driver.extract():
            if not ok:
                continue
            lam_left = sigma + 1.0 / np.conj(omega)
            v = left_engine.ritz_full(y, left_driver.m)
            z = ctx.adjoint_stage_z(v)
            yvec = z[0]
            ny = np.linalg.norm(yvec)
            if ny == 0:
                continue
            lefts.append((lam_left, yvec / ny))
        for p in pairs:
            if not lefts:
                break
            dists = [abs(p.lam - ll) for ll, _ in lefts]
            i = int(np.argmin(dists))
            lam_left, yvec = lefts[i]
            if abs(p.lam - lam_left) <= 1e-6 * max(1.0, abs(p.lam)):
                p.y = yvec
                ry = op.apply_adjoint(p.lam, yvec)
                p.eta_left = float(np.linalg.norm(ry) / (op.norm_scale(p.lam) * np.linalg.norm(yvec)))
        stats["left_ritz_history"] = [(t.copy(), r.copy()) for t, r in left_driver.ritz_history]
        stats["linear_solves"] = ctx.solve_count
        missing = [p for p in pairs if p.y is None]
        if missing:
            notes.append(f"{len(missing)} pairs lack a matched left eigenvector")
            stats["notes"] = notes

    if pairs:
        order = np.argsort(lam_key(np.array([p.lam for p in pairs])), kind="stable")
        pairs = [pairs[i] for i in order]
    converged = len(pairs) >= settings.nev
    return EigenSolution(pairs=pairs, stats=stats, converged=converged)

"""Invariant-pair deflation for the single-vector and projection solvers.

Once an eigenpair has converged it is locked into an invariant pair (X, H).
Further eigenpairs are then computed from an extended problem of size n+k,

    [[T(lam), U(lam)], [A(lam), B(lam)]] [x; t] = 0,

whose blocks are never formed explicitly: matrix-vector products, solves
and adjoint solves (through the Schur complement on the small block) and
projections are all performed block-wise.  An iterate [x1; x2] is held as
an ``ExtVector``, built once per iterate with the products A_i x1 and
X^* x1; ``ext_apply`` (M(lam) or M'(lam) on it) and ``ext_bilinear``
(lam -> y^* M(lam) x and y^* M'(lam) x as scalars) read them and make no
sparse product of their own.  RII's eigenvalue update uses one left vector
y = M(sigma)^{-*} [x; t] per outer step: the adjoint elimination reuses the
forward one's T(sigma)^{-1} U(sigma), so it costs one adjoint solve with
T(sigma) and no set-up of its own.  SLP's pencil at sigma uses the
M'(sigma) that ``ExtSolveContext.apply_deriv`` builds once.

What depends on the locked pair alone (A_i X, F_i = f_i(H), the coefficient
stacks of the polynomial minimality blocks A(lam) and B(lam), the norms of
the powers of H) is computed once per lock, after ``InvariantPair.extend``
has fixed the minimality index p; per lam only small solves and matrix
polynomials remain.  The coupling U(lam) = sum_i A_i X phi_i(lam), phi_i(lam)
the top-right block of f_i([[H, I], [0, lam I]]), uses the resolvent identity
phi_i(lam) = (F_i - f_i(lam) I) (H - lam I)^{-1} for lam outside spec(H): one
triangular solve serves every term, a second one the derivative.  Where lam
lies within SPEC_RTOL * max(|lam|, max |H_jj|) of a diagonal entry of H and
the identity would cancel, the blocks come from ``eval_phi`` and
``eval_phi_deriv`` instead; ``ExtSolveContext`` always builds U(sigma) that
way, once per shift.

Scalars follow the data, on one code path, as ``linalg``'s kernels do.  The
operator holds each A_i once, in its own scalars, a scaled identity c I as
c alone, and every product with an A_i, ``AX``, A_i x1 and the
projections, is made by its ``linalg.SplitSum`` (``products``,
``adjoint_products``), with no complex copy of a real A_i.  The identity's
block of ``AX`` is X itself and its product x1 itself, read-only.  A pair
of real X and H keeps ``AX``, ``F`` and the coefficient stacks real, and
``project`` forms X^T x1.  An
``ExtSolveContext`` with a real pair at a non-complex sigma where T(sigma)
and T'(sigma) are real keeps U, T^{-1} U, S and M'(sigma) real.  A complex
vector on real data is served, never cast down.  SLP passes real data while
they stay real; RII and N-Arnoldi pass complex data and complex empty pairs.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dtrtrs, ztrtrs

from .core import NepError, NepOperator
from .functions import ScalarFunction, augmented_block
from .linalg import LinearSolverConfig, SplitSum, basis_times, lu_factor, make_linear_solver

__all__ = [
    "InvariantPair",
    "eval_phi",
    "eval_phi_deriv",
    "ExtVector",
    "ext_apply",
    "ext_bilinear",
    "ExtSolveContext",
    "ProjectionContext",
]

P_CAP = 4
RANK_TOL = 1e-10
SPEC_RTOL = 1e-4


def eval_phi(f: ScalarFunction, H: np.ndarray, lam: complex) -> np.ndarray:
    """Coupling block of f for the pair (H, lam).

    Returns the top-right k-by-k block of f([[H, I], [0, lam*I]]), i.e. the
    divided-difference block that couples H to lam.  For a constant function
    this is zero and for the identity it is the identity.
    """
    return augmented_block(f.eval_matrix, H, lam, 0)


def eval_phi_deriv(f: ScalarFunction, H: np.ndarray, lam: complex) -> np.ndarray:
    """d/dlam of the coupling block, via a second-order block matrix.

    The derivative of the divided-difference block equals the top-right block
    of f applied to the 3k-by-3k matrix [[H, I, 0], [0, lam*I, I],
    [0, 0, lam*I]]; this stays valid when lam is close to an eigenvalue of H,
    where differentiating the closed-form expression would be unstable.
    """
    return augmented_block(f.eval_matrix, H, lam, 1)


class InvariantPair:
    """Locked invariant pair (X, H) with the per-lock data of the extension.

    X has unit columns, H is upper triangular (``extend`` builds it so) and
    p is the minimality index.  Per lock: ``h_diag`` and ``h_diag_max``
    (diag(H) and its largest modulus), ``AX`` (A_i X, n-by-k per split
    term, X itself, read-only, for A_i = I), ``F`` (f_i(H)), ``A_coef``
    ((H^*)^i, i = 0..p, so A(lam) = sum_i lam^i (H^*)^i X^*), ``B_coef``
    (B_j = sum_{i=j+1..p} (H^*)^i X^*X H^(i-j-1), j < p, so B(lam) =
    sum_j lam^j B_j) and ``h_norms`` (max(||H^i||_F, 1), for
    ``minimality_scale``).  ``dtype`` holds the scalars of X and H (one
    type) and of the F_i.
    """

    def __init__(self, X: np.ndarray, H: np.ndarray, p: int, op: Optional[NepOperator] = None):
        dtype = np.result_type(X, H, np.float64)
        self.X = np.asarray(X, dtype=dtype)
        self.H = np.asarray(H, dtype=dtype)
        self.p = int(p)
        k = self.k
        self.h_diag = np.diag(self.H).copy()
        self.h_diag_max = float(np.max(np.abs(self.h_diag))) if k else 0.0
        XtX = self.X.conj().T @ self.X
        powers = [np.eye(k, dtype=dtype)]
        for _ in range(self.p):
            powers.append(powers[-1] @ self.H)
        self.h_norms = [max(np.linalg.norm(P), 1.0) for P in powers]
        self.A_coef = np.array([P.conj().T for P in powers])
        self.B_coef = np.zeros((self.p, k, k), dtype=dtype)
        for j in range(self.p):
            for i in range(j + 1, self.p + 1):
                self.B_coef[j] += self.A_coef[i] @ XtX @ powers[i - j - 1]
        self.AX = self.F = None
        if op is not None and op.is_split and k:
            self.AX = op.mats.products(self.X)
            self.F = [f.eval_matrix(self.H) for f in op.funcs]
        self.dtype = np.result_type(dtype, *(self.F or ()))

    @classmethod
    def empty(cls, n: int, dtype=complex) -> "InvariantPair":
        return cls(np.zeros((n, 0), dtype=dtype), np.zeros((0, 0), dtype=dtype), 0)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def k(self) -> int:
        return self.X.shape[1]

    def eigenpairs(self):
        """Eigenpairs of T recovered from the pair: lam from spec(H), x = X s."""
        if self.k == 0:
            return []
        w, S = np.linalg.eig(self.H)
        out = []
        for i in range(self.k):
            x = self.X @ S[:, i]
            nrm = np.linalg.norm(x)
            if nrm == 0:
                continue
            out.append((w[i], x / nrm))
        return out

    def invariance_residual(self) -> float:
        """Frobenius norm of sum_i (A_i X) F_i (zero for an exact pair)."""
        if self.k == 0:
            return 0.0
        return float(np.linalg.norm(sum(blk @ Fi for blk, Fi in zip(self.AX, self.F))))

    def project(self, v: np.ndarray) -> np.ndarray:
        """X^* v for a vector v, without a conjugated copy of X: X^T v for a real X."""
        if self.X.dtype.kind == "c":
            return (v.conj() @ self.X).conj()
        return basis_times(self.X.T, v)

    def minimality_scale(self, lam: complex) -> float:
        """Norm estimate of the minimality blocks [A(lam), B(lam)].

        These polynomial blocks grow like |lam|^p * ||H||^p; residuals against
        them must be judged relative to this scale.
        """
        if self.k == 0:
            return 1.0
        norms = self.h_norms
        sx = math.sqrt(self.k)
        al = abs(lam)
        scale = sum(al**i * sx * norms[i] for i in range(self.p + 1))
        for i in range(1, self.p + 1):
            qn = sum(al**j * norms[i - j - 1] for j in range(i))
            scale += norms[i] * self.k * qn
        return float(scale)

    def minimality_blocks(self, lam: complex):
        """((sum_i lam^i (H^*)^i, B(lam)), (their lam-derivatives)): k-by-k
        matrices, with A(lam) z = first @ (X^* z), from one powers vector."""
        p, k = self.p, self.k
        powers = lam ** np.arange(p + 1.0)
        dpowers = np.concatenate([[0.0], np.arange(1, p + 1) * powers[:-1]])
        A_coef, B_coef = self.A_coef.reshape(p + 1, k * k), self.B_coef.reshape(p, k * k)
        return tuple(((w @ A_coef).reshape(k, k), (w[:p] @ B_coef).reshape(k, k)) for w in (powers, dpowers))

    def near_spectrum(self, lam: complex) -> bool:
        """Whether lam is too close to spec(H) for the resolvent identity.

        The identity loses about SPEC_RTOL^-1 ulps to cancellation at a
        relative distance SPEC_RTOL from the nearest diagonal entry of H.
        """
        sep = np.min(np.abs(self.h_diag - lam))
        return bool(sep <= SPEC_RTOL * max(abs(lam), self.h_diag_max))

    def coupling(self, op: NepOperator, lam: complex, Z: np.ndarray, c, dc=None):
        """Coupling blocks phi_i(lam) Z and, when dc is given, phi_i'(lam) Z.

        c and dc are the coefficients f_i(lam) and f_i'(lam).  Away from
        spec(H), phi_i(lam) = (F_i - f_i(lam) I) (H - lam I)^{-1}, so one
        triangular solve W = (H - lam I)^{-1} Z serves every term, and a
        second, W' = (H - lam I)^{-1} W, gives
        phi_i'(lam) Z = (F_i - f_i(lam)) W' - f_i'(lam) W.  Near spec(H) the
        blocks come from ``eval_phi``/``eval_phi_deriv``.  Returns the two
        lists (the second None without dc).
        """
        if self.near_spectrum(lam):
            vals = [eval_phi(f, self.H, lam) @ Z for f in op.funcs]
            ders = None if dc is None else [eval_phi_deriv(f, self.H, lam) @ Z for f in op.funcs]
            return vals, ders
        W, W2 = self.resolvents(lam, Z, dc is not None)
        vals = [Fi @ W - ci * W for Fi, ci in zip(self.F, c)]
        if dc is None:
            return vals, None
        ders = [Fi @ W2 - ci * W2 - di * W for Fi, ci, di in zip(self.F, c, dc)]
        return vals, ders

    def resolvents(self, lam: complex, Z: np.ndarray, second: bool = True):
        """(W, W') = ((H - lam I)^{-1} Z, (H - lam I)^{-1} W) by triangular solves
        (W' None without ``second``), for a lam not ``near_spectrum``."""
        # near_spectrum has excluded a zero pivot, for which trtrs returns Z
        M = self.H - lam * np.eye(self.k)
        trtrs = ztrtrs if M.dtype.kind == "c" or Z.dtype.kind == "c" else dtrtrs
        W = trtrs(M, Z)[0]
        return W, trtrs(M, W)[0] if second else None

    def extend(self, op: NepOperator, lam: complex, x: np.ndarray, t: np.ndarray) -> "InvariantPair":
        """Lock one more eigenpair: X <- [X, x], H <- [[H, t], [0, lam]].

        The candidate (x, t) must solve the extended problem at lam; the new
        pair is rejected if no minimality index up to P_CAP gives the stacked
        Krylov matrix full column rank (duplicate eigenvector).
        """
        x = np.asarray(x)
        nrm = np.linalg.norm(x)
        if nrm == 0:
            raise NepError("cannot extend an invariant pair with a zero vector")
        scale = 1.0 / nrm
        t = np.asarray(t) * scale
        Xn = np.hstack([self.X, (x * scale)[:, None]])
        k = self.k
        Hn = np.zeros((k + 1, k + 1), dtype=np.result_type(Xn, self.H, t, lam))
        Hn[:k, :k] = self.H
        Hn[:k, k] = t
        Hn[k, k] = lam
        for p in range(1, P_CAP + 1):
            if _minimal(Xn, Hn, p):
                return InvariantPair(Xn, Hn, p, op=op)
        raise NepError(
            "invariant-pair extension is not minimal up to the index cap "
            f"{P_CAP} (duplicate eigendirection?)"
        )


def _minimal(X: np.ndarray, H: np.ndarray, p: int) -> bool:
    """Whether [X; X H; ...; X H^(p-1)] has full column rank."""
    blocks = []
    Hp = np.eye(H.shape[0], dtype=H.dtype)
    for _ in range(p):
        blocks.append(X @ Hp)
        Hp = Hp @ H
    s = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return False
    return bool(np.sum(s > RANK_TOL * s[0]) == H.shape[0])


class ExtVector:
    """An iterate [x1; x2] of the extended problem with its n-long products:
    ``Az`` (A_i x1, one product per term, in x1's scalars; None in
    the callback form, which allows no locked pair) and ``s`` (X^* x1), made
    once and read by ``ext_apply``, ``ext_bilinear`` and the hunt's lock
    measure."""

    def __init__(self, pair: InvariantPair, op: NepOperator, x1, x2):
        self.pair, self.op = pair, op
        self.x1 = np.asarray(x1)
        self.x2 = np.asarray(x2)
        if not op.is_split and pair.k:
            raise NepError("deflation requires the split form")
        self.Az = op.mats.products(self.x1) if op.is_split else None
        self.s = pair.project(self.x1)


def ext_apply(v: ExtVector, lam: complex, deriv: bool = False):
    """Extended operator (or its lambda-derivative) applied to v.

    A term of weight exactly 0 adds nothing, a zero coupling block costs no
    product.  Far-field iterates may overflow f_i(lam) to inf; the result
    then holds inf or nan, without a warning, and callers test its finiteness.
    """
    pair, op = v.pair, v.op
    if v.Az is None:
        return (op.apply_deriv if deriv else op.apply)(lam, v.x1), np.zeros(0, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        c = op.coefficients(lam)
        dc = op.coefficients_deriv(lam) if deriv else None
        y1 = np.zeros(op.n, dtype=np.result_type(c, dc if deriv else c, v.Az[0], v.x2, pair.dtype))
        for wi, Az in zip(dc if deriv else c, v.Az):
            if wi != 0:
                y1 += wi * Az
        if pair.k == 0:
            return y1, np.zeros(0, dtype=y1.dtype)
        phi, dphi = pair.coupling(op, lam, v.x2, c, dc)
        for blk, u in zip(pair.AX, dphi if deriv else phi):
            if u.any():
                y1 += blk @ u
        Ap, Bp = pair.minimality_blocks(lam)[deriv]
        return y1, Ap @ v.s + Bp @ v.x2


def ext_bilinear(v: ExtVector, y1, y2):
    """lam -> (y^* M(lam) x, y^* M'(lam) x) for fixed y = [y1; y2] and x = v.

    Once per call, v's products reduce the n-long vectors to a_i = y1^* A_i x1
    and the rows r_i = y1^* (A_i X) and sum_i r_i F_i, and the minimality part
    to the coefficients m_j of y2^* (A(lam) X^* x1 + B(lam) x2) = sum_j lam^j m_j.
    As phi_i(lam) x2 = (F_i - f_i(lam) I) W, a call takes W and W' from
    ``InvariantPair.resolvents`` and sums f_i(lam) a_i + r_i F_i W - f_i(lam)
    r_i W + lam^j m_j, or its derivative, in short dot products (``coupling``
    near spec(H)); overflow shows as inf or nan.  The callback form applies
    T(lam) and T'(lam) per call.
    """
    pair, op, x1, x2 = v.pair, v.op, v.x1, v.x2
    y1 = np.asarray(y1, dtype=complex)
    if v.Az is None:
        return lambda lam: (np.vdot(y1, op.apply(lam, x1)), np.vdot(y1, op.apply_deriv(lam, x1)))
    a = np.array([np.vdot(y1, Az) for Az in v.Az])
    if pair.k:
        R = np.array([y1.conj() @ blk for blk in pair.AX])
        rF = sum(r @ Fi for r, Fi in zip(R, pair.F))
        m = (pair.A_coef @ v.s) @ np.conj(y2)
        m[: pair.p] += (pair.B_coef @ x2) @ np.conj(y2)
        dm = np.arange(1, pair.p + 1) * m[1:]  # sum_j lam^j dm_j is the derivative

    def form(lam):
        with np.errstate(over="ignore", invalid="ignore"):
            c, dc = op.coefficients(lam), op.coefficients_deriv(lam)
            if not pair.k:
                return c @ a, dc @ a
            if pair.near_spectrum(lam):
                phis, dphis = pair.coupling(op, lam, x2, c, dc)
                cpl = sum(r @ u for r, u in zip(R, phis)), sum(r @ u for r, u in zip(R, dphis))
            else:
                W, W2 = pair.resolvents(lam, x2)
                RW = R @ W
                cpl = rF @ W - c @ RW, rF @ W2 - c @ (R @ W2) - dc @ RW
            powers = lam ** np.arange(pair.p + 1.0)
            return c @ a + cpl[0] + powers @ m, dc @ a + cpl[1] + powers[:-1] @ dm

    return form


class ExtSolveContext:
    """Factorization data for extended solves at a fixed shift sigma.

    Holds the T(sigma) factorization, the n-by-k block T(sigma)^{-1} U(sigma),
    and the LU of the k-by-k Schur complement
    S(sigma) = B(sigma) - A(sigma) T(sigma)^{-1} U(sigma); forward and
    adjoint solves both run on them.  ``apply_deriv`` applies M'(sigma) from
    T'(sigma) (``SplitSum.collapse``: its one scalar where it is a scaled
    identity, as on the delay problem), the n-by-k U'(sigma) and the small
    derivative blocks, built on its first call and kept.  ``dtype`` is float
    when the context maps real vectors to real vectors (see the module
    docstring).
    """

    def __init__(self, pair: InvariantPair, op: NepOperator, sigma: complex, lin_cfg: Optional[LinearSolverConfig] = None):
        self.pair = pair
        self.op = op
        self.sigma = sigma if pair.dtype.kind == "f" and not isinstance(sigma, complex) else complex(sigma)
        T = op.system(self.sigma, lin_cfg)
        self.solver = make_linear_solver(T, lin_cfg)
        k = pair.k
        self.k = k
        phis = [eval_phi(f, pair.H, self.sigma) for f in op.funcs] if k and op.is_split else []
        real = T.dtype.kind == "f" and pair.dtype.kind == "f" and not np.iscomplexobj(op.coefficients_deriv(self.sigma))
        self.dtype = np.result_type(float if real else complex, *phis)
        self.TinvU = self.S_lu = self.A_sigma = None
        if k:
            if not op.is_split:
                raise NepError("deflation requires the split form")
            U = np.zeros((pair.n, k), dtype=self.dtype)
            for blk, phi in zip(pair.AX, phis):
                U += blk @ phi
            TinvU = np.empty_like(U)
            for j in range(k):
                TinvU[:, j] = self.solver.solve(U[:, j])
            self.TinvU = TinvU
            # S = B(sigma) - A(sigma) T^{-1} U
            (self.A_sigma, B), _ = pair.minimality_blocks(self.sigma)
            S = B - self.A_sigma @ (pair.X.conj().T @ TinvU)
            try:
                self.S_lu = lu_factor(S)
            except np.linalg.LinAlgError as exc:
                raise NepError(f"singular Schur complement at sigma={sigma}") from exc

    @property
    def solve_count(self) -> int:
        return self.solver.solve_count

    @cached_property
    def _deriv(self):
        """T'(sigma) as a one-term ``SplitSum`` (its scalar where T'(sigma) is a scaled identity),
        U'(sigma) = sum_i A_i X phi_i'(sigma) and (A'(sigma), B'(sigma))."""
        op, pair, sigma, k = self.op, self.pair, self.sigma, self.k
        Tp = op.mats.collapse(op.coefficients_deriv(sigma)) if op.is_split else SplitSum([op.assemble_deriv(sigma)])
        if not k:
            return Tp, None, None
        _, dphi = pair.coupling(op, sigma, np.eye(k), op.coefficients(sigma), op.coefficients_deriv(sigma))
        return Tp, sum(blk @ d for blk, d in zip(pair.AX, dphi)), pair.minimality_blocks(sigma)[1]

    def apply_deriv(self, v1: np.ndarray, v2: np.ndarray):
        """M'(sigma) [v1; v2] from the T'(sigma) and U'(sigma) built once; what
        ``ext_apply`` gives at sigma with ``deriv``, with no ``ExtVector``."""
        Tp, Up, dAB = self._deriv
        (y1,) = Tp.products(v1)
        if not y1.flags.writeable:  # T'(sigma) = I: the product is v1 itself
            y1 = y1.copy()
        if self.k == 0:
            return y1, np.zeros(0, dtype=y1.dtype)
        y1 += Up @ v2
        return y1, dAB[0] @ self.pair.project(v1) + dAB[1] @ v2

    def solve(self, b1: np.ndarray, b2: Optional[np.ndarray] = None):
        """Solve the extended system at sigma by block elimination."""
        v = self.solver.solve(b1)
        if self.k == 0:
            return v, np.zeros(0, dtype=v.dtype)
        b2 = np.zeros(self.k, dtype=v.dtype) if b2 is None else np.asarray(b2)
        x2 = self.S_lu.solve(b2 - self.A_sigma @ self.pair.project(v))
        x1 = v - basis_times(self.TinvU, x2)
        return x1, x2

    def solve_adjoint(self, c1: np.ndarray, c2: np.ndarray):
        """Solve M(sigma)^* [y1; y2] = [c1; c2] with one adjoint solve.

        Block elimination on M^* = [[T^*, X A_sigma^*], [U^*, B^*]], as
        U^* T^{-*} = (T^{-1} U)^* needs no solve: y2 = S^{-*} (c2 -
        (T^{-1} U)^* c1) first, then y1 = T^{-*} (c1 - X A_sigma^* y2).
        """
        c1 = np.asarray(c1, dtype=complex)
        if self.k == 0:
            return self.solver.solve(c1, adjoint=True), np.zeros(0, dtype=complex)
        y2 = self.S_lu.solve(np.asarray(c2, dtype=complex) - (c1.conj() @ self.TinvU).conj(), adjoint=True)
        y1 = self.solver.solve(c1 - self.pair.X @ (self.A_sigma.conj().T @ y2), adjoint=True)
        return y1, y2


class ProjectionContext:
    """Incrementally grown projection of the extended operator.

    The orthonormal basis is one column-major (n+k)-by-m array ``V`` whose
    rows split as [V1; V2], so ``linalg.orthogonalize`` reads it in place.
    It starts from the columns of ``V0`` ((n+k)-by-m0, m0 may be 0).  The
    m-by-m matrices B_i = V1^* A_i V1 grow one row/column per added vector,
    together with V1^* (A_i X) and X^* V1.
    """

    def __init__(self, pair: InvariantPair, op: NepOperator, V0: np.ndarray):
        if not op.is_split:
            raise NepError("projection requires the split form")
        self.pair = pair
        self.op = op
        n, k = pair.n, pair.k
        self.V = np.zeros((n + k, 0), dtype=complex, order="F")
        self.B = [np.zeros((0, 0), dtype=complex) for _ in op.funcs]
        self.C = [np.zeros((0, k), dtype=complex) for _ in op.funcs]  # V1^* A_i X
        self.E = np.zeros((k, 0), dtype=complex)  # X^* V1
        for v in np.asarray(V0, dtype=complex).T:
            self.append(v[:n], v[n:])

    @property
    def V1(self) -> np.ndarray:
        return self.V[: self.pair.n]

    @property
    def V2(self) -> np.ndarray:
        return self.V[self.pair.n :]

    @property
    def m(self) -> int:
        return self.V.shape[1]

    def append(self, v1: np.ndarray, v2: np.ndarray) -> None:
        v1 = np.asarray(v1, dtype=complex)
        V1, m = self.V1, self.m
        newB = []
        # grow by one row and column: new column V1_old^* A v1, new row
        # (A^* v1)^* V1_old, so two sparse matvecs per term
        for Av, AHv, B in zip(self.op.mats.products(v1), self.op.mats.adjoint_products(v1), self.B):
            Bn = np.empty((m + 1, m + 1), dtype=complex)
            Bn[:m, :m] = B
            Bn[:m, m] = (Av.conj() @ V1).conj()
            Bn[m, :m] = AHv.conj() @ V1
            Bn[m, m] = np.vdot(v1, Av)
            newB.append(Bn)
        self.B = newB
        if self.pair.k:  # value() reads C only when k > 0
            self.C = [np.vstack([C, (v1.conj() @ blk)[None, :]]) for C, blk in zip(self.C, self.pair.AX)]
        self.E = np.hstack([self.E, self.pair.project(v1)[:, None]])
        V = np.empty((self.V.shape[0], m + 1), dtype=complex, order="F")
        V[:, :m] = self.V
        V[: self.pair.n, m] = v1
        V[self.pair.n :, m] = v2
        self.V = V

    def value(self, lam: complex, deriv: bool = False) -> np.ndarray:
        """Projected extended operator (or derivative) as an m-by-m matrix."""
        pair, op = self.pair, self.op
        m = self.m
        c = op.coefficients(lam)
        coeffs = op.coefficients_deriv(lam) if deriv else c
        M = np.zeros((m, m), dtype=complex)
        for ci, B in zip(coeffs, self.B):
            M += ci * B
        if pair.k == 0:
            return M
        phis, dphis = pair.coupling(op, lam, self.V2, c, coeffs if deriv else None)
        for C, blk in zip(self.C, dphis if deriv else phis):
            M += C @ blk
        Ap, Bp = pair.minimality_blocks(lam)[deriv]
        M += self.V2.conj().T @ (Ap @ self.E + Bp @ self.V2)
        return M

    def recompute_audit(self) -> float:
        """Max deviation of the incremental B_i from V1^* A_i V1 recomputed."""
        worst = 0.0
        for AV, B in zip(self.op.mats.products(self.V1), self.B):
            ref = self.V1.conj().T @ AV
            worst = max(worst, float(np.max(np.abs(ref - B))) if B.size else 0.0)
        return worst

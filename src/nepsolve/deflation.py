"""Invariant-pair deflation for the single-vector and projection solvers.

Once an eigenpair has converged it is locked into an invariant pair (X, H).
Further eigenpairs are then computed from an extended problem of size n+k,

    [[T(lam), U(lam)], [A(lam), B(lam)]] [x; t] = 0,

whose blocks are never formed explicitly: matrix-vector products, linear
solves (through a Schur complement on the small block) and projections are
all performed block-wise with cached quantities A_i X, X^* X and T(sigma)^{-1}
U(sigma).
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from .core import NepError, NepOperator
from .functions import ScalarFunction
from .linalg import LinearSolverConfig, lu_factor, make_linear_solver

__all__ = [
    "InvariantPair",
    "eval_phi",
    "eval_phi_deriv",
    "ext_apply",
    "ExtSolveContext",
    "ext_solve",
    "ProjectionContext",
    "ext_project",
]

P_CAP_DEFAULT = 4
RANK_TOL = 1e-10


def eval_phi(f: ScalarFunction, H: np.ndarray, lam: complex) -> np.ndarray:
    """Coupling block of f for the pair (H, lam).

    Returns the top-right k-by-k block of f([[H, I], [0, lam*I]]), i.e. the
    divided-difference block that couples H to lam.  For a constant function
    this is zero and for the identity it is the identity.
    """
    H = np.asarray(H, dtype=complex)
    k = H.shape[0]
    if k == 0:
        return np.zeros((0, 0), dtype=complex)
    M = np.zeros((2 * k, 2 * k), dtype=complex)
    M[:k, :k] = H
    M[:k, k:] = np.eye(k)
    M[k:, k:] = lam * np.eye(k)
    F = f.eval_matrix(M, max_dim=max(2 * k, 256))
    return F[:k, k:]


def eval_phi_deriv(f: ScalarFunction, H: np.ndarray, lam: complex) -> np.ndarray:
    """d/dlam of the coupling block, via a second-order block matrix.

    The derivative of the divided-difference block equals the top-right block
    of f applied to the 3k-by-3k matrix [[H, I, 0], [0, lam*I, I],
    [0, 0, lam*I]]; this stays valid when lam is close to an eigenvalue of H,
    where differentiating the closed-form expression would be unstable.
    """
    H = np.asarray(H, dtype=complex)
    k = H.shape[0]
    if k == 0:
        return np.zeros((0, 0), dtype=complex)
    eye = np.eye(k)
    M = np.zeros((3 * k, 3 * k), dtype=complex)
    M[:k, :k] = H
    M[:k, k : 2 * k] = eye
    M[k : 2 * k, k : 2 * k] = lam * eye
    M[k : 2 * k, 2 * k :] = eye
    M[2 * k :, 2 * k :] = lam * eye
    F = f.eval_matrix(M, max_dim=max(3 * k, 256))
    return F[:k, 2 * k :]


class InvariantPair:
    """Locked invariant pair (X, H) with cached products.

    X has unit columns, H is the small upper-triangular-ish coefficient
    matrix, and p bounds the minimality index.  The caches A_i X (one block
    per split term) and X^* X are refreshed on extension.
    """

    def __init__(self, X: np.ndarray, H: np.ndarray, p: int, op: Optional[NepOperator] = None):
        self.X = np.asarray(X, dtype=complex)
        self.H = np.asarray(H, dtype=complex)
        self.p = int(p)
        self.XtX = self.X.conj().T @ self.X
        if op is not None and op.is_split and self.k:
            self.AX = [A @ self.X for A, _ in op.terms]
        else:
            self.AX = None

    @classmethod
    def empty(cls, n: int) -> "InvariantPair":
        return cls(np.zeros((n, 0), dtype=complex), np.zeros((0, 0), dtype=complex), 0)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def k(self) -> int:
        return self.X.shape[1]

    def h_powers(self, up_to: int) -> List[np.ndarray]:
        """[I, H, H^2, ..., H^up_to]."""
        k = self.k
        powers = [np.eye(k, dtype=complex)]
        for _ in range(up_to):
            powers.append(powers[-1] @ self.H)
        return powers

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

    def invariance_residual(self, op: NepOperator) -> float:
        """Frobenius norm of sum_i A_i X f_i(H) (zero for an exact pair)."""
        if self.k == 0:
            return 0.0
        acc = np.zeros((self.n, self.k), dtype=complex)
        AX = self.AX if self.AX is not None else [A @ self.X for A, _ in op.terms]
        for blk, (_, f) in zip(AX, op.terms):
            acc += blk @ f.eval_matrix(self.H, max_dim=max(self.k, 256))
        return float(np.linalg.norm(acc))

    def minimality_scale(self, lam: complex) -> float:
        """Norm estimate of the minimality blocks [A(lam), B(lam)].

        These polynomial blocks grow like |lam|^p * ||H||^p; residuals against
        them must be judged relative to this scale.
        """
        if self.k == 0:
            return 1.0
        powers = self.h_powers(self.p)
        norms = [max(np.linalg.norm(P), 1.0) for P in powers]
        sx = math.sqrt(self.k)
        al = abs(lam)
        scale = sum(al**i * sx * norms[i] for i in range(self.p + 1))
        for i in range(1, self.p + 1):
            qn = sum(al**j * norms[i - j - 1] for j in range(i))
            scale += norms[i] * self.k * qn
        return float(scale)

    def minimality_rank_ok(self, p: int) -> bool:
        if self.k == 0:
            return True
        blocks = []
        Hp = np.eye(self.k, dtype=complex)
        for _ in range(p):
            blocks.append(self.X @ Hp)
            Hp = Hp @ self.H
        V = np.vstack(blocks)
        s = np.linalg.svd(V, compute_uv=False)
        if s.size == 0 or s[0] == 0:
            return False
        return bool(np.sum(s > RANK_TOL * s[0]) == self.k)

    def extend(self, op: NepOperator, lam: complex, x: np.ndarray, t: np.ndarray, p_cap: int = P_CAP_DEFAULT) -> "InvariantPair":
        """Lock one more eigenpair: X <- [X, x], H <- [[H, t], [0, lam]].

        The candidate (x, t) must solve the extended problem at lam; the new
        pair is rejected if no minimality index up to p_cap gives the stacked
        Krylov matrix full column rank (duplicate eigenvector).
        """
        x = np.asarray(x, dtype=complex)
        nrm = np.linalg.norm(x)
        if nrm == 0:
            raise NepError("cannot extend an invariant pair with a zero vector")
        scale = 1.0 / nrm
        t = np.asarray(t, dtype=complex) * scale
        Xn = np.hstack([self.X, (x * scale)[:, None]])
        k = self.k
        Hn = np.zeros((k + 1, k + 1), dtype=complex)
        Hn[:k, :k] = self.H
        Hn[:k, k] = t
        Hn[k, k] = lam
        newp = InvariantPair(Xn, Hn, min(k + 1, p_cap), op=op)
        for p in range(1, p_cap + 1):
            if newp.minimality_rank_ok(p):
                newp.p = p
                return newp
        raise NepError(
            "invariant-pair extension is not minimal up to the index cap "
            f"{p_cap} (duplicate eigendirection?)"
        )


def _poly_q(H_powers, i: int, lam: complex, k: int) -> np.ndarray:
    """q_i(lam) = sum_{j=0}^{i-1} lam^j H^{i-j-1}."""
    acc = np.zeros((k, k), dtype=complex)
    for j in range(i):
        acc += (lam**j) * H_powers[i - j - 1]
    return acc


def _poly_q_deriv(H_powers, i: int, lam: complex, k: int) -> np.ndarray:
    acc = np.zeros((k, k), dtype=complex)
    for j in range(1, i):
        acc += (j * lam ** (j - 1)) * H_powers[i - j - 1]
    return acc


def _phi_blocks(pair: InvariantPair, op: NepOperator, lam: complex, deriv: bool):
    evalf = eval_phi_deriv if deriv else eval_phi
    return [evalf(f, pair.H, lam) for _, f in op.terms]


def ext_apply(pair: InvariantPair, op: NepOperator, lam: complex, z1: np.ndarray, z2: np.ndarray, deriv: bool = False):
    """Extended operator (or its lambda-derivative) applied to [z1; z2]."""
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    k = pair.k
    if k == 0:
        y1 = op.apply_deriv(lam, z1) if deriv else op.apply(lam, z1)
        return y1, np.zeros(0, dtype=complex)
    if not op.is_split:
        raise NepError("deflation requires the split form")
    y1 = op.apply_deriv(lam, z1) if deriv else op.apply(lam, z1)
    AX = pair.AX
    phis = _phi_blocks(pair, op, lam, deriv)
    for blk, phi_i in zip(AX, phis):
        y1 = y1 + blk @ (phi_i @ z2)

    Hc = pair.H.conj().T
    s = pair.X.conj().T @ z1
    y2 = np.zeros(k, dtype=complex)
    H_powers = pair.h_powers(pair.p)
    # A(lam) z1 = sum_{i=0..p} lam^i (H^*)^i (X^* z1)
    powH = np.eye(k, dtype=complex)
    for i in range(pair.p + 1):
        coeff = (i * lam ** (i - 1)) if deriv else lam**i
        if i == 0:
            coeff = 0.0 if deriv else 1.0
        y2 += coeff * (powH @ s)
        powH = Hc @ powH
    # B(lam) z2 = sum_{i=1..p} (H^*)^i X^*X q_i(lam) z2
    powH = Hc.copy()
    for i in range(1, pair.p + 1):
        qi = _poly_q_deriv(H_powers, i, lam, k) if deriv else _poly_q(H_powers, i, lam, k)
        y2 += powH @ (pair.XtX @ (qi @ z2))
        powH = Hc @ powH
    return y1, y2


class ExtSolveContext:
    """Factorization data for extended solves at a fixed shift sigma.

    Holds the T(sigma) factorization, the n-by-k blocks U(sigma) and
    T(sigma)^{-1} U(sigma), and the LU of the k-by-k Schur complement
    S(sigma) = B(sigma) - A(sigma) T(sigma)^{-1} U(sigma).
    """

    def __init__(self, pair: InvariantPair, op: NepOperator, sigma: complex, lin_cfg: Optional[LinearSolverConfig] = None):
        self.pair = pair
        self.op = op
        self.sigma = complex(sigma)
        self.solver = make_linear_solver(op.assemble(sigma), lin_cfg)
        k = pair.k
        self.k = k
        if k:
            if not op.is_split:
                raise NepError("deflation requires the split form")
            phis = _phi_blocks(pair, op, sigma, deriv=False)
            U = np.zeros((pair.n, k), dtype=complex)
            for blk, phi_i in zip(pair.AX, phis):
                U += blk @ phi_i
            self.U = U
            TinvU = np.empty_like(U)
            for j in range(k):
                TinvU[:, j] = self.solver.solve(U[:, j])
            self.TinvU = TinvU
            # S = B(sigma) - A(sigma) T^{-1} U
            Hc = pair.H.conj().T
            H_powers = pair.h_powers(pair.p)
            XtTinvU = pair.X.conj().T @ TinvU
            A_TinvU = np.zeros((k, k), dtype=complex)
            powH = np.eye(k, dtype=complex)
            for i in range(pair.p + 1):
                A_TinvU += (self.sigma**i) * (powH @ XtTinvU)
                powH = Hc @ powH
            B = np.zeros((k, k), dtype=complex)
            powH = Hc.copy()
            for i in range(1, pair.p + 1):
                B += powH @ (pair.XtX @ _poly_q(H_powers, i, self.sigma, k))
                powH = Hc @ powH
            S = B - A_TinvU
            try:
                self.S_lu = lu_factor(S)
            except np.linalg.LinAlgError as exc:
                raise NepError(f"singular Schur complement at sigma={sigma}") from exc
        else:
            self.U = None
            self.TinvU = None
            self.S_lu = None

    @property
    def solve_count(self) -> int:
        return self.solver.solve_count

    def _apply_A(self, v: np.ndarray) -> np.ndarray:
        pair = self.pair
        s = pair.X.conj().T @ v
        Hc = pair.H.conj().T
        out = np.zeros(pair.k, dtype=complex)
        powH = np.eye(pair.k, dtype=complex)
        for i in range(pair.p + 1):
            out += (self.sigma**i) * (powH @ s)
            powH = Hc @ powH
        return out

    def solve(self, b1: np.ndarray, b2: Optional[np.ndarray] = None):
        """Solve the extended system at sigma by block elimination."""
        b1 = np.asarray(b1, dtype=complex)
        v = self.solver.solve(b1)
        if self.k == 0:
            return v, np.zeros(0, dtype=complex)
        b2 = np.zeros(self.k, dtype=complex) if b2 is None else np.asarray(b2, dtype=complex)
        x2 = self.S_lu.solve(b2 - self._apply_A(v))
        x1 = v - self.TinvU @ x2
        return x1, x2


def ext_solve(pair: InvariantPair, op: NepOperator, sigma: complex, b1, b2=None, lin_cfg=None):
    """One-shot extended solve; prefer ExtSolveContext for repeated shifts."""
    return ExtSolveContext(pair, op, sigma, lin_cfg).solve(b1, b2)


class ProjectionContext:
    """Incrementally grown projection of the extended operator.

    Maintains the projected blocks for an orthonormal basis stacked as
    [V1; V2]: the m-by-m matrices B_i = V1^* A_i V1 grow one row/column per
    added vector, together with V1^* (A_i X) and X^* V1.
    """

    def __init__(self, pair: InvariantPair, op: NepOperator):
        if not op.is_split:
            raise NepError("projection requires the split form")
        self.pair = pair
        self.op = op
        n, k = pair.n, pair.k
        self.V1 = np.zeros((n, 0), dtype=complex)
        self.V2 = np.zeros((k, 0), dtype=complex)
        self.B = [np.zeros((0, 0), dtype=complex) for _ in op.terms]
        self.C = [np.zeros((0, k), dtype=complex) for _ in op.terms]  # V1^* A_i X
        self.E = np.zeros((k, 0), dtype=complex)  # X^* V1

    @property
    def m(self) -> int:
        return self.V1.shape[1]

    def append(self, v1: np.ndarray, v2: np.ndarray) -> None:
        v1 = np.asarray(v1, dtype=complex)
        v2 = np.asarray(v2, dtype=complex)
        m = self.m
        newB = []
        for (A, _), B in zip(self.op.terms, self.B):
            Av = A @ v1
            col = self.V1.conj().T @ Av
            # grow by one row and column: new row is v1^* A V1_old, new col V1_old^* A v1
            rowv = (v1.conj() @ (A @ self.V1)) if m else np.zeros(0, dtype=complex)
            corner = np.vdot(v1, Av)
            Bn = np.zeros((m + 1, m + 1), dtype=complex)
            Bn[:m, :m] = B
            Bn[:m, m] = col
            Bn[m, :m] = rowv
            Bn[m, m] = corner
            newB.append(Bn)
        self.B = newB
        if self.pair.k:
            self.C = [np.vstack([C, (v1.conj() @ blk)[None, :]]) for C, blk in zip(self.C, self.pair.AX)]
        else:
            self.C = [np.vstack([C, np.zeros((1, 0), dtype=complex)]) for C in self.C]
        self.E = np.hstack([self.E, (self.pair.X.conj().T @ v1)[:, None]])
        self.V1 = np.hstack([self.V1, v1[:, None]])
        self.V2 = np.hstack([self.V2, v2[:, None]])

    def value(self, lam: complex, deriv: bool = False) -> np.ndarray:
        """Projected extended operator (or derivative) as an m-by-m matrix."""
        pair, op = self.pair, self.op
        m, k = self.m, pair.k
        coeffs = op.coefficients_deriv(lam) if deriv else op.coefficients(lam)
        M = np.zeros((m, m), dtype=complex)
        for c, B in zip(coeffs, self.B):
            M += c * B
        if k == 0:
            return M
        phis = _phi_blocks(pair, op, lam, deriv)
        for C, phi_i in zip(self.C, phis):
            M += C @ (phi_i @ self.V2)
        Hc = pair.H.conj().T
        H_powers = pair.h_powers(pair.p)
        V2c = self.V2.conj().T
        powH = np.eye(k, dtype=complex)
        for i in range(pair.p + 1):
            if deriv:
                coeff = 0.0 if i == 0 else i * lam ** (i - 1)
            else:
                coeff = lam**i
            if coeff != 0.0:
                M += coeff * (V2c @ (powH @ self.E))
            powH = Hc @ powH
        powH = Hc.copy()
        for i in range(1, pair.p + 1):
            qi = _poly_q_deriv(H_powers, i, lam, k) if deriv else _poly_q(H_powers, i, lam, k)
            M += V2c @ (powH @ (pair.XtX @ (qi @ self.V2)))
            powH = Hc @ powH
        return M

    def recompute_audit(self) -> float:
        """Max deviation of the incremental B_i from V1^* A_i V1 recomputed."""
        worst = 0.0
        for (A, _), B in zip(self.op.terms, self.B):
            ref = self.V1.conj().T @ (A @ self.V1)
            worst = max(worst, float(np.max(np.abs(ref - B))) if B.size else 0.0)
        return worst


def ext_project(pair: InvariantPair, op: NepOperator, V1: np.ndarray, V2: np.ndarray, lam: complex, deriv: bool = False) -> np.ndarray:
    """Projection of the extended operator onto the stacked basis [V1; V2]."""
    ctx = ProjectionContext(pair, op)
    V1 = np.asarray(V1, dtype=complex)
    V2 = np.asarray(V2, dtype=complex)
    for j in range(V1.shape[1]):
        ctx.append(V1[:, j], V2[:, j] if V2.size else np.zeros(pair.k, dtype=complex))
    return ctx.value(lam, deriv=deriv)

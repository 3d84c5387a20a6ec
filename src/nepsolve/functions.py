"""Scalar analytic function objects with derivative and matrix-function evaluation.

A :class:`ScalarFunction` represents ``g(x) = beta * f(alpha * x)`` where the
base ``f`` is one of a small set of predefined kinds (rational, exp, log,
sqrt, inverse sqrt, phi_k) or a combination of two other functions through
addition, multiplication, division or composition.  Instances are immutable
and evaluation is pure, so they can be shared freely.

Matrix-function evaluation is intended for the small dense matrices that show
up in projected problems, and is capped at a configurable dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.linalg

__all__ = [
    "ScalarFunction",
    "FunctionDomainError",
    "rational",
    "polynomial",
    "constant",
    "exponential",
    "logarithm",
    "square_root",
    "inv_square_root",
    "phi",
    "combine",
    "function_from_descriptor",
    "function_to_descriptor",
]

MATRIX_DIM_CAP = 256

_BASE_KINDS = ("rational", "exp", "log", "sqrt", "invsqrt", "phi")
_COMBINE_OPS = ("add", "mul", "div", "compose")


class FunctionDomainError(ArithmeticError):
    """Evaluation requested at a pole, branch point or other invalid point."""


@dataclass(frozen=True)
class ScalarFunction:
    """Immutable scalar analytic function ``g(x) = beta * f(alpha*x)``.

    ``num``/``den`` hold polynomial coefficients, highest degree first, and
    are only meaningful for the rational kind.  ``phi_index`` selects the
    phi-function for kind ``phi``.  Combine nodes store the operation and the
    two children; for ``compose`` the result is ``right(left(x))``.
    """

    kind: str
    num: Optional[tuple] = None
    den: Optional[tuple] = None
    phi_index: int = 0
    alpha: complex = 1.0 + 0j
    beta: complex = 1.0 + 0j
    op: Optional[str] = None
    left: Optional["ScalarFunction"] = None
    right: Optional["ScalarFunction"] = None

    def __post_init__(self):
        if self.kind == "combine":
            if self.op not in _COMBINE_OPS:
                raise ValueError(f"unknown combine op {self.op!r}")
            if self.left is None or self.right is None:
                raise ValueError("combine requires two child functions")
        elif self.kind == "rational":
            if not self.num:
                raise ValueError("rational function requires numerator coefficients")
            den = self.den if self.den is not None else (1.0 + 0j,)
            if not any(c != 0 for c in den):
                raise ValueError("rational denominator is identically zero")
        elif self.kind == "phi":
            if self.phi_index < 0:
                raise ValueError("phi index must be nonnegative")
        elif self.kind not in _BASE_KINDS:
            raise ValueError(f"unknown function kind {self.kind!r}")

    # -- scalar evaluation -------------------------------------------------

    def __call__(self, x: complex) -> complex:
        x = complex(x)
        # far-field probes may overflow to inf/nan; callers test finiteness
        with np.errstate(over="ignore", invalid="ignore"):
            return complex(self.beta) * self._base_eval(complex(self.alpha) * x)

    def deriv(self, x: complex) -> complex:
        x = complex(x)
        a = complex(self.alpha)
        with np.errstate(over="ignore", invalid="ignore"):
            return complex(self.beta) * a * self._base_deriv(a * x)

    def _base_eval(self, z: complex) -> complex:
        kind = self.kind
        if kind == "rational":
            dv = _polyval(self._den(), z)
            if dv == 0:
                raise FunctionDomainError(f"rational function pole at {z}")
            return _polyval(self.num, z) / dv
        if kind == "exp":
            return np.exp(z)
        if kind == "log":
            if z == 0:
                raise FunctionDomainError("log(0) is undefined")
            return complex(np.log(complex(z)))
        if kind == "sqrt":
            return complex(np.sqrt(complex(z)))
        if kind == "invsqrt":
            if z == 0:
                raise FunctionDomainError("x**(-1/2) is undefined at 0")
            return 1.0 / complex(np.sqrt(complex(z)))
        if kind == "phi":
            return _phi_scalar(self.phi_index, z)
        # combine
        l, r = self.left, self.right
        if self.op == "add":
            return l(z) + r(z)
        if self.op == "mul":
            return l(z) * r(z)
        if self.op == "div":
            rv = r(z)
            if rv == 0:
                raise FunctionDomainError(f"combine division by zero at {z}")
            return l(z) / rv
        return r(l(z))  # compose

    def _base_deriv(self, z: complex) -> complex:
        kind = self.kind
        if kind == "rational":
            p, q, dp, dq = self._rational_coeffs
            qv = _polyval(q, z)
            if qv == 0:
                raise FunctionDomainError(f"rational function pole at {z}")
            pv = _polyval(p, z)
            dpv = _polyval(dp, z)
            dqv = _polyval(dq, z)
            return (dpv * qv - pv * dqv) / (qv * qv)
        if kind == "exp":
            return np.exp(z)
        if kind == "log":
            if z == 0:
                raise FunctionDomainError("log'(0) is undefined")
            return 1.0 / z
        if kind == "sqrt":
            if z == 0:
                raise FunctionDomainError("sqrt'(0) is undefined")
            return 0.5 / complex(np.sqrt(complex(z)))
        if kind == "invsqrt":
            if z == 0:
                raise FunctionDomainError("d/dx x**(-1/2) is undefined at 0")
            return -0.5 * complex(np.sqrt(complex(z))) ** (-3)
        if kind == "phi":
            return _phi_scalar_deriv(self.phi_index, z)
        l, r = self.left, self.right
        if self.op == "add":
            return l.deriv(z) + r.deriv(z)
        if self.op == "mul":
            return l.deriv(z) * r(z) + l(z) * r.deriv(z)
        if self.op == "div":
            rv = r(z)
            if rv == 0:
                raise FunctionDomainError(f"combine division by zero at {z}")
            return (l.deriv(z) * rv - l(z) * r.deriv(z)) / (rv * rv)
        return r.deriv(l(z)) * l.deriv(z)  # compose chain rule

    # -- matrix evaluation -------------------------------------------------

    def eval_matrix(self, H: np.ndarray, max_dim: int = MATRIX_DIM_CAP) -> np.ndarray:
        """Evaluate ``g(H)`` in the matrix-function sense for small dense H."""
        H = np.asarray(H, dtype=complex)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError("matrix argument must be square")
        if H.shape[0] > max_dim:
            raise ValueError(
                f"matrix dimension {H.shape[0]} exceeds the dense cap {max_dim}"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            return complex(self.beta) * self._base_matrix(complex(self.alpha) * H)

    def _base_matrix(self, Z: np.ndarray) -> np.ndarray:
        kind = self.kind
        if kind == "rational":
            P = _polyvalm(self.num, Z)
            den = self._den()
            if len(den) == 1:
                return P / den[0]
            Q = _polyvalm(den, Z)
            try:
                return np.linalg.solve(Q, P)
            except np.linalg.LinAlgError as exc:
                raise FunctionDomainError(
                    "singular denominator polynomial of matrix argument"
                ) from exc
        if kind == "exp":
            return _expm(Z)
        if kind == "log":
            return _logm(Z)
        if kind == "sqrt":
            return _sqrtm(Z)
        if kind == "invsqrt":
            R = _sqrtm(Z)
            try:
                return np.linalg.solve(R, np.eye(Z.shape[0], dtype=complex))
            except np.linalg.LinAlgError as exc:
                raise FunctionDomainError("matrix inverse square root is singular") from exc
        if kind == "phi":
            return _phim(self.phi_index, Z)
        l, r = self.left, self.right
        if self.op == "add":
            return l.eval_matrix(Z, max_dim=max(Z.shape[0], MATRIX_DIM_CAP)) + r.eval_matrix(
                Z, max_dim=max(Z.shape[0], MATRIX_DIM_CAP)
            )
        if self.op == "mul":
            return l.eval_matrix(Z, max_dim=max(Z.shape[0], MATRIX_DIM_CAP)) @ r.eval_matrix(
                Z, max_dim=max(Z.shape[0], MATRIX_DIM_CAP)
            )
        if self.op == "div":
            L = l.eval_matrix(Z, max_dim=max(Z.shape[0], MATRIX_DIM_CAP))
            R = r.eval_matrix(Z, max_dim=max(Z.shape[0], MATRIX_DIM_CAP))
            try:
                # functions of the same matrix commute, so R^{-1} L = L R^{-1}
                return np.linalg.solve(R, L)
            except np.linalg.LinAlgError as exc:
                raise FunctionDomainError("combine division by singular matrix") from exc
        inner = l.eval_matrix(Z, max_dim=max(Z.shape[0], MATRIX_DIM_CAP))
        return r.eval_matrix(inner, max_dim=max(Z.shape[0], MATRIX_DIM_CAP))

    def _den(self):
        return self.den if self.den is not None else (1.0 + 0j,)

    @cached_property
    def _rational_coeffs(self):
        """Numerator, denominator and their derivatives as complex arrays,
        built once per function (the derivative is evaluated far more often)."""
        p, q = np.asarray(self.num, complex), np.asarray(self._den(), complex)
        return p, q, np.polyder(p), np.polyder(q)


# -- constructors ------------------------------------------------------------


def _coeffs(c) -> tuple:
    t = tuple(complex(v) for v in c)
    return t if t else (0j,)


def rational(num, den=None, *, alpha=1.0, beta=1.0) -> ScalarFunction:
    """p(x)/q(x) with coefficients given highest degree first."""
    d = None if den is None else _coeffs(den)
    return ScalarFunction("rational", num=_coeffs(num), den=d, alpha=alpha, beta=beta)


def polynomial(coeffs, *, alpha=1.0, beta=1.0) -> ScalarFunction:
    return rational(coeffs, None, alpha=alpha, beta=beta)


def constant(c) -> ScalarFunction:
    return rational([complex(c)])


def exponential(*, alpha=1.0, beta=1.0) -> ScalarFunction:
    return ScalarFunction("exp", alpha=alpha, beta=beta)


def logarithm(*, alpha=1.0, beta=1.0) -> ScalarFunction:
    return ScalarFunction("log", alpha=alpha, beta=beta)


def square_root(*, alpha=1.0, beta=1.0) -> ScalarFunction:
    return ScalarFunction("sqrt", alpha=alpha, beta=beta)


def inv_square_root(*, alpha=1.0, beta=1.0) -> ScalarFunction:
    return ScalarFunction("invsqrt", alpha=alpha, beta=beta)


def phi(k: int, *, alpha=1.0, beta=1.0) -> ScalarFunction:
    return ScalarFunction("phi", phi_index=int(k), alpha=alpha, beta=beta)


def combine(op: str, left: ScalarFunction, right: ScalarFunction, *, alpha=1.0, beta=1.0) -> ScalarFunction:
    """Combine two functions; for ``compose`` the result is ``right(left(x))``."""
    return ScalarFunction("combine", op=op, left=left, right=right, alpha=alpha, beta=beta)


# -- scalar helpers ----------------------------------------------------------


def _polyval(coeffs, z: complex) -> complex:
    acc = 0j
    for c in np.asarray(coeffs, dtype=complex):
        acc = acc * z + c
    return acc


def _polyvalm(coeffs, Z: np.ndarray) -> np.ndarray:
    n = Z.shape[0]
    acc = np.zeros((n, n), dtype=complex)
    eye = np.eye(n, dtype=complex)
    for c in np.asarray(coeffs, dtype=complex):
        acc = acc @ Z + c * eye
    return acc


_PHI_SERIES_TERMS = 30


def _phi_scalar(k: int, z: complex) -> complex:
    """phi_0 = e^z, phi_k = (phi_{k-1} - 1/(k-1)!)/z, stable near z = 0."""
    if k == 0:
        return np.exp(z)
    if abs(z) < 1.0:
        acc = 0j
        for j in range(_PHI_SERIES_TERMS, -1, -1):
            acc = acc * z + 1.0 / math.factorial(j + k)
        return acc
    val = np.exp(z)
    for j in range(1, k + 1):
        val = (val - 1.0 / math.factorial(j - 1)) / z
    return val


def _phi_scalar_deriv(k: int, z: complex) -> complex:
    if k == 0:
        return np.exp(z)
    if abs(z) < 1.0:
        # d/dz sum_j z^j/(j+k)! = sum_{j>=1} j z^{j-1}/(j+k)!
        acc = 0j
        for j in range(_PHI_SERIES_TERMS, 0, -1):
            acc = acc * z + j / math.factorial(j + k)
        return acc
    return (_phi_scalar(k - 1, z) - k * _phi_scalar(k, z)) / z


# -- matrix helpers ----------------------------------------------------------

# Degree-13 Pade coefficients for the matrix exponential.
_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)


def _expm(A: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring with a degree-13 Pade approximant.

    The argument is scaled until its 1-norm is at most one, which is well
    inside the accuracy region of the degree-13 approximant.
    """
    n = A.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    nrm = np.linalg.norm(A, 1)
    s = 0
    if nrm > 1.0:
        s = int(math.ceil(math.log2(nrm)))
    As = A / (2.0**s)
    b = _PADE13
    eye = np.eye(n, dtype=complex)
    A2 = As @ As
    A4 = A2 @ A2
    A6 = A2 @ A4
    U = As @ (
        A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
        + b[7] * A6
        + b[5] * A4
        + b[3] * A2
        + b[1] * eye
    )
    V = (
        A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
        + b[6] * A6
        + b[4] * A4
        + b[2] * A2
        + b[0] * eye
    )
    F = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        F = F @ F
    return F


def _sqrtm(A: np.ndarray) -> np.ndarray:
    """Principal matrix square root via complex Schur form.

    The triangular factor is handled by the standard recurrence on
    superdiagonals; it fails when an eigenvalue pair gives a zero divisor,
    which happens for singular matrices with nontrivial nilpotent part.
    """
    n = A.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    T, Z = scipy.linalg.schur(A, output="complex")
    R = np.zeros_like(T)
    diag = np.sqrt(np.diag(T).astype(complex))
    np.fill_diagonal(R, diag)
    for j in range(1, n):
        for i in range(j - 1, -1, -1):
            denom = R[i, i] + R[j, j]
            s = T[i, j] - R[i, i + 1 : j] @ R[i + 1 : j, j]
            if denom == 0:
                if s == 0:
                    R[i, j] = 0.0
                    continue
                raise FunctionDomainError(
                    "matrix square root iteration broke down (zero eigenvalue pair)"
                )
            R[i, j] = s / denom
    return Z @ R @ Z.conj().T


def _logm(A: np.ndarray) -> np.ndarray:
    if A.shape[0] == 0:
        return np.zeros((0, 0), dtype=complex)
    w = np.linalg.eigvals(A)
    if np.any(w == 0):
        raise FunctionDomainError("matrix logarithm of a singular matrix")
    L = scipy.linalg.logm(np.asarray(A, dtype=complex))
    L = np.asarray(L, dtype=complex)
    if not np.all(np.isfinite(L)):
        raise FunctionDomainError("matrix logarithm did not converge")
    return L


def _phim(k: int, A: np.ndarray) -> np.ndarray:
    """phi_k(A) as the top-right block of the exponential of an augmented matrix."""
    if k == 0:
        return _expm(A)
    n = A.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    m = (k + 1) * n
    W = np.zeros((m, m), dtype=complex)
    W[:n, :n] = A
    for b in range(k):
        W[b * n : (b + 1) * n, (b + 1) * n : (b + 2) * n] = np.eye(n)
    E = _expm(W)
    return E[:n, k * n :]


# -- manifest descriptor grammar ---------------------------------------------


def _parse_scalar(v) -> complex:
    if isinstance(v, (list, tuple)):
        if len(v) != 2:
            raise ValueError(f"complex value must be [re, im], got {v!r}")
        return complex(float(v[0]), float(v[1]))
    return complex(v)


def function_from_descriptor(obj: dict) -> ScalarFunction:
    """Build a ScalarFunction from its JSON descriptor.

    The descriptor is an object with either a ``combine`` entry
    ``{"op": ..., "left": ..., "right": ...}`` or a ``type`` in
    rational/exp/log/sqrt/invsqrt/phi, plus optional ``num``/``den``
    coefficient arrays (highest degree first), ``k`` for phi, and
    ``alpha``/``beta`` scale factors given as numbers or [re, im] pairs.
    """
    if not isinstance(obj, dict):
        raise ValueError("function descriptor must be a JSON object")
    alpha = _parse_scalar(obj.get("alpha", 1.0))
    beta = _parse_scalar(obj.get("beta", 1.0))
    if "combine" in obj:
        comb = obj["combine"]
        left = function_from_descriptor(comb["left"])
        right = function_from_descriptor(comb["right"])
        return combine(comb["op"], left, right, alpha=alpha, beta=beta)
    kind = obj.get("type")
    if kind == "rational":
        num = [_parse_scalar(c) for c in obj.get("num", [1.0])]
        den = obj.get("den")
        den = None if den is None else [_parse_scalar(c) for c in den]
        return rational(num, den, alpha=alpha, beta=beta)
    if kind == "exp":
        return exponential(alpha=alpha, beta=beta)
    if kind == "log":
        return logarithm(alpha=alpha, beta=beta)
    if kind == "sqrt":
        return square_root(alpha=alpha, beta=beta)
    if kind == "invsqrt":
        return inv_square_root(alpha=alpha, beta=beta)
    if kind == "phi":
        return phi(int(obj.get("k", 0)), alpha=alpha, beta=beta)
    raise ValueError(f"unknown function descriptor type {kind!r}")


def _emit_scalar(c: complex):
    c = complex(c)
    if c.imag == 0:
        return c.real
    return [c.real, c.imag]


def function_to_descriptor(f: ScalarFunction) -> dict:
    out: dict = {}
    if f.alpha != 1:
        out["alpha"] = _emit_scalar(f.alpha)
    if f.beta != 1:
        out["beta"] = _emit_scalar(f.beta)
    if f.kind == "combine":
        out["combine"] = {
            "op": f.op,
            "left": function_to_descriptor(f.left),
            "right": function_to_descriptor(f.right),
        }
        return out
    out["type"] = f.kind
    if f.kind == "rational":
        out["num"] = [_emit_scalar(c) for c in f.num]
        if f.den is not None:
            out["den"] = [_emit_scalar(c) for c in f.den]
    if f.kind == "phi":
        out["k"] = f.phi_index
    return out

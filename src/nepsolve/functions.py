"""Scalar analytic function objects with derivative and matrix-function evaluation.

A :class:`ScalarFunction` represents ``g(x) = beta * f(alpha * x)`` where the
base ``f`` is one of a small set of predefined kinds (rational, exp, log,
sqrt, inverse sqrt, phi_k) or a combination of two other functions through
addition, multiplication, division or composition.  Instances are immutable
and evaluation is pure, so they can be shared freely.

Matrix-function evaluation is intended for the small dense matrices that show
up in projected problems and deflation; the exponential, square root and
logarithm come from SciPy's kernels (``scipy.linalg.expm``, ``sqrtm`` and
``logm``), and phi_k(A) from the exponential of an augmented matrix
(``augmented_block``).
"""

from __future__ import annotations

import math
import warnings
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
    "augmented_block",
    "function_from_descriptor",
    "function_to_descriptor",
]

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
        # far-field probes may overflow to inf/nan; callers test finiteness
        with np.errstate(over="ignore", invalid="ignore"):
            return self._value(x)

    def deriv(self, x: complex) -> complex:
        with np.errstate(over="ignore", invalid="ignore"):
            return self._deriv_value(x)

    def _value(self, x: complex) -> complex:
        """f(x) under the caller's ``np.errstate``."""
        return complex(self.beta) * self._base_eval(complex(self.alpha) * complex(x))

    def _deriv_value(self, x: complex) -> complex:
        """f'(x) under the caller's ``np.errstate``."""
        a = complex(self.alpha)
        return complex(self.beta) * a * self._base_deriv(a * complex(x))

    def _base_eval(self, z: complex) -> complex:
        kind = self.kind
        if kind == "rational":
            dv = _polyval(self._den(), z)
            if dv == 0:
                raise FunctionDomainError(f"rational function pole at {z}")
            # numpy's complex division, whose rounding differs from Python's
            return np.complex128(_polyval(self.num, z)) / dv
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
        l, r = self.left._value, self.right._value
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
            return np.complex128(dpv * qv - pv * dqv) / (qv * qv)
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
        l, r, dl, dr = self.left._value, self.right._value, self.left._deriv_value, self.right._deriv_value
        if self.op == "add":
            return dl(z) + dr(z)
        if self.op == "mul":
            return dl(z) * r(z) + l(z) * dr(z)
        if self.op == "div":
            rv = r(z)
            if rv == 0:
                raise FunctionDomainError(f"combine division by zero at {z}")
            return (dl(z) * rv - l(z) * dr(z)) / (rv * rv)
        return dr(l(z)) * dl(z)  # compose chain rule

    # -- matrix evaluation -------------------------------------------------

    def eval_matrix(self, H: np.ndarray) -> np.ndarray:
        """Evaluate ``g(H)`` in the matrix-function sense for small dense H;
        real for a real H when the complex result has no imaginary part."""
        real = not np.iscomplexobj(H)
        H = np.asarray(H, dtype=complex)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError("matrix argument must be square")
        with np.errstate(over="ignore", invalid="ignore"):
            G = complex(self.beta) * self._base_matrix(complex(self.alpha) * H)
        return G.real if real and not np.any(G.imag) else G

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
            return scipy.linalg.expm(Z)
        if kind == "log":
            return _logm(Z)
        if kind in ("sqrt", "invsqrt"):
            with warnings.catch_warnings():
                # a singular Z may still have a root; a missing one shows as inf/nan
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                R = scipy.linalg.sqrtm(Z)
            if not np.all(np.isfinite(R)):
                raise FunctionDomainError(
                    "matrix square root is not finite (a zero eigenvalue in a "
                    "nontrivial Jordan block has no root)"
                )
            if kind == "sqrt":
                return R
            try:
                return np.linalg.solve(R, np.eye(Z.shape[0], dtype=complex))
            except np.linalg.LinAlgError as exc:
                raise FunctionDomainError("matrix inverse square root is singular") from exc
        if kind == "phi":
            # k zero blocks below Z on the diagonal; phi_0 = exp(Z) itself
            return augmented_block(scipy.linalg.expm, Z, 0.0, self.phi_index - 1)
        l, r = self.left, self.right
        if self.op == "add":
            return l.eval_matrix(Z) + r.eval_matrix(Z)
        if self.op == "mul":
            return l.eval_matrix(Z) @ r.eval_matrix(Z)
        if self.op == "div":
            L = l.eval_matrix(Z)
            R = r.eval_matrix(Z)
            try:
                # functions of the same matrix commute, so R^{-1} L = L R^{-1}
                return np.linalg.solve(R, L)
            except np.linalg.LinAlgError as exc:
                raise FunctionDomainError("combine division by singular matrix") from exc
        return r.eval_matrix(l.eval_matrix(Z))

    def _den(self):
        return self.den if self.den is not None else (1.0 + 0j,)

    @cached_property
    def _rational_coeffs(self):
        """Numerator, denominator and their derivatives as tuples of complex
        numbers, built once per function (the derivative is evaluated more)."""
        p, q = np.asarray(self.num, complex), np.asarray(self._den(), complex)
        return self.num, self._den(), tuple(map(complex, np.polyder(p))), tuple(map(complex, np.polyder(q)))


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


def values_at(fs, x: complex, deriv: bool = False) -> list:
    """``[f(x) for f in fs]``, or ``[f.deriv(x) ...]``, under one ``np.errstate``
    for the lot: bitwise the values of the calls one by one."""
    with np.errstate(over="ignore", invalid="ignore"):
        return [f._deriv_value(x) if deriv else f._value(x) for f in fs]


# -- scalar helpers ----------------------------------------------------------


def _polyval(coeffs, z: complex) -> complex:
    acc = 0j
    for c in coeffs:
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


def augmented_block(fm, H: np.ndarray, lam: complex, order: int) -> np.ndarray:
    """Top-right k-by-k block of ``fm(M)``, M the upper block-bidiagonal matrix
    with diagonal (H, lam*I, ..., lam*I) (order + 1 copies of lam*I) and
    identity superdiagonal blocks; for order = -1, M = H.

    With ``fm`` the matrix function of f this is the divided difference
    f[H, lam, ..., lam]: the deflation couplings take order 0 and 1, and
    phi_k(A) is the block of ``expm`` at lam = 0, order k - 1.
    """
    k = np.shape(H)[0]
    if k == 0:
        return np.zeros((0, 0), dtype=complex)
    m = (order + 2) * k
    M = lam * np.eye(m, dtype=np.result_type(H, lam))
    M[:k, :k] = H
    M[np.arange(m - k), np.arange(k, m)] = 1.0
    return fm(M)[:k, m - k :]


# -- manifest descriptor grammar ---------------------------------------------


def _parse_scalar(v) -> complex:
    """A complex number given as a number or as [re, im]; a list of another
    length is an error.  It reads every complex value of a manifest."""
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

"""Problem representation and solution containers.

A nonlinear eigenproblem T(lambda) x = 0 is represented either in split form,
as a list of (sparse matrix, scalar function) terms whose weighted sum gives
T, or through a pair of user callbacks producing T(lambda) and T'(lambda).
This module also provides search regions of the complex plane, solver
settings, backward-error evaluation and the resolvent built from a two-sided
solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from .linalg import SplitSum, inf_norm

__all__ = [
    "NepError",
    "NepOperator",
    "Interval",
    "Rectangle",
    "Ellipse",
    "Polygon",
    "Settings",
    "EigenPair",
    "EigenSolution",
    "backward_error",
    "apply_resolvent",
]


class NepError(RuntimeError):
    pass


def _as_csr(A):
    if not sp.issparse(A):
        A = sp.csr_matrix(np.asarray(A, dtype=complex))
    return sp.csr_matrix(A.astype(complex))


class NepOperator:
    """T(lambda) in split form or through callbacks.

    Split form keeps the coefficient matrices, as one ``SplitSum``, and the
    scalar functions; assembly, application and derivative evaluation are
    weighted sums over the matrices.  Callback form delegates to
    `t_fn(lam)` / `tprime_fn(lam)`, both returning sparse matrices.
    Instances are immutable and safe to share.
    """

    def __init__(self, *, terms=None, t_fn=None, tprime_fn=None, n=None):
        if (terms is None) == (t_fn is None):
            raise ValueError("provide either split terms or callbacks, not both")
        if terms is not None:
            terms = [(_as_csr(A), f) for A, f in terms]
            if not terms:
                raise ValueError("split form requires at least one term")
            n0 = terms[0][0].shape[0]
            for A, _ in terms:
                if A.shape != (n0, n0):
                    raise ValueError("all split matrices must be square with equal dimension")
            self._terms = terms
            self._sum = SplitSum([A for A, _ in terms])
            self._n = n0
            self._t_fn = None
            self._tprime_fn = None
        else:
            if n is None:
                raise ValueError("callback form requires the problem dimension n")
            self._terms = None
            self._sum = None
            self._n = int(n)
            self._t_fn = t_fn
            self._tprime_fn = tprime_fn

    # -- structure ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def is_split(self) -> bool:
        return self._terms is not None

    @property
    def terms(self):
        if self._terms is None:
            raise NepError("operator is not in split form")
        return self._terms

    @property
    def mats(self) -> SplitSum:
        """The coefficient matrices A_i as one weighted-sum kernel."""
        if self._sum is None:
            raise NepError("operator is not in split form")
        return self._sum

    @property
    def nterms(self) -> int:
        return len(self._terms) if self._terms is not None else 0

    # -- evaluation ----------------------------------------------------------

    def coefficients(self, lam: complex) -> np.ndarray:
        return np.array([f(lam) for _, f in self.terms], dtype=complex)

    def coefficients_deriv(self, lam: complex) -> np.ndarray:
        return np.array([f.deriv(lam) for _, f in self.terms], dtype=complex)

    def assemble(self, lam: complex):
        """T(lambda) as a sparse matrix."""
        if not self.is_split:
            return _as_csr(self._t_fn(lam))
        return self._sum.assemble(self.coefficients(lam))

    def assemble_deriv(self, lam: complex):
        """T'(lambda) as a sparse matrix."""
        if not self.is_split:
            if self._tprime_fn is None:
                raise NepError("callback operator has no derivative callback")
            return _as_csr(self._tprime_fn(lam))
        return self._sum.assemble(self.coefficients_deriv(lam))

    def apply(self, lam: complex, v: np.ndarray) -> np.ndarray:
        """T(lambda) v without assembling T."""
        if not self.is_split:
            return self.assemble(lam) @ v
        return self._sum.apply(self.coefficients(lam), v)

    def apply_deriv(self, lam: complex, v: np.ndarray) -> np.ndarray:
        if not self.is_split:
            return self.assemble_deriv(lam) @ v
        return self._sum.apply(self.coefficients_deriv(lam), v)

    def apply_adjoint(self, lam: complex, v: np.ndarray) -> np.ndarray:
        """T(lambda)^* v."""
        if not self.is_split:
            return self.assemble(lam).conj().T @ v
        return self._sum.apply_adjoint(self.coefficients(lam), v)

    def norm_scale(self, lam: complex) -> float:
        """The residual scaling sum_i |f_i(lambda)| ||A_i||_inf.

        For callback operators this degrades to ||T(lambda)||_inf.
        """
        if self.is_split:
            return self._sum.scale(self.coefficients(lam))
        return inf_norm(self.assemble(lam))


def backward_error(op: NepOperator, lam: complex, x: np.ndarray) -> float:
    """Scaled residual ||T(lambda)x|| / (f(lambda) ||x||).

    In split form the scaling is sum |f_i| ||A_i||_inf; otherwise the
    assembled ||T(lambda)||_inf is used.  Invariant under rescaling of x.
    """
    x = np.asarray(x, dtype=complex)
    nx = np.linalg.norm(x)
    if nx == 0:
        raise ValueError("backward error of the zero vector is undefined")
    scale = op.norm_scale(lam)
    if scale == 0:
        raise NepError("degenerate operator: residual scaling vanished")
    return float(np.linalg.norm(op.apply(lam, x)) / (scale * nx))


# -- regions -------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """Closed interval [a, b] on the real axis (a one-dimensional region)."""

    a: float
    b: float

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError("interval requires a < b")

    def contains(self, z: complex, pad: float = 0.0, imag_tol: float = 0.0) -> bool:
        width = self.b - self.a
        return (
            self.a - pad * width <= z.real <= self.b + pad * width
            and abs(z.imag) <= imag_tol
        )

    def boundary_points(self, m: int) -> np.ndarray:
        if m < 2:
            raise ValueError("need at least two boundary points")
        return np.linspace(self.a, self.b, m).astype(complex)


@dataclass(frozen=True)
class Rectangle:
    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not (self.re_max > self.re_min and self.im_max > self.im_min):
            raise ValueError("degenerate rectangle")

    def contains(self, z: complex, pad: float = 0.0, imag_tol: float = 0.0) -> bool:
        w = self.re_max - self.re_min
        h = self.im_max - self.im_min
        return (
            self.re_min - pad * w <= z.real <= self.re_max + pad * w
            and self.im_min - pad * h <= z.imag <= self.im_max + pad * h
        )

    def boundary_points(self, m: int) -> np.ndarray:
        if m < 2:
            raise ValueError("need at least two boundary points")
        w = self.re_max - self.re_min
        h = self.im_max - self.im_min
        per = 2 * (w + h)
        ts = np.arange(m) / m * per
        pts = np.empty(m, dtype=complex)
        for i, t in enumerate(ts):
            if t < w:
                pts[i] = complex(self.re_min + t, self.im_min)
            elif t < w + h:
                pts[i] = complex(self.re_max, self.im_min + (t - w))
            elif t < 2 * w + h:
                pts[i] = complex(self.re_max - (t - w - h), self.im_max)
            else:
                pts[i] = complex(self.re_min, self.im_max - (t - 2 * w - h))
        return pts


@dataclass(frozen=True)
class Ellipse:
    center: complex
    rx: float
    ry: float

    def __post_init__(self):
        if not (self.rx > 0 and self.ry > 0):
            raise ValueError("degenerate ellipse")

    def contains(self, z: complex, pad: float = 0.0, imag_tol: float = 0.0) -> bool:
        dz = z - self.center
        return (dz.real / (self.rx * (1 + pad))) ** 2 + (dz.imag / (self.ry * (1 + pad))) ** 2 <= 1.0

    def boundary_points(self, m: int) -> np.ndarray:
        if m < 2:
            raise ValueError("need at least two boundary points")
        t = 2 * np.pi * np.arange(m) / m
        return self.center + self.rx * np.cos(t) + 1j * self.ry * np.sin(t)


@dataclass(frozen=True)
class Polygon:
    vertices: tuple

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise ValueError("polygon requires at least three vertices")

    def contains(self, z: complex, pad: float = 0.0, imag_tol: float = 0.0) -> bool:
        # ray casting; pad is ignored for polygons
        v = [complex(p) for p in self.vertices]
        inside = False
        for i in range(len(v)):
            p, q = v[i], v[(i + 1) % len(v)]
            if (p.imag > z.imag) != (q.imag > z.imag):
                xint = p.real + (z.imag - p.imag) * (q.real - p.real) / (q.imag - p.imag)
                if z.real < xint:
                    inside = not inside
        return inside

    def boundary_points(self, m: int) -> np.ndarray:
        if m < 2:
            raise ValueError("need at least two boundary points")
        v = [complex(p) for p in self.vertices]
        segs = [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]
        lengths = np.array([abs(q - p) for p, q in segs])
        cum = np.concatenate([[0.0], np.cumsum(lengths)])
        total = cum[-1]
        ts = np.arange(m) / m * total
        pts = np.empty(m, dtype=complex)
        for i, t in enumerate(ts):
            k = int(np.searchsorted(cum, t, side="right")) - 1
            k = min(k, len(segs) - 1)
            p, q = segs[k]
            frac = (t - cum[k]) / lengths[k]
            pts[i] = p + frac * (q - p)
        return pts


# -- settings and solutions ------------------------------------------------------


def default_ncv(nev: int) -> int:
    return max(2 * nev, nev + 15)


@dataclass
class Settings:
    """Common solver settings; solver-specific options are keyword arguments."""

    nev: int = 1
    ncv: Optional[int] = None
    tol: float = 1e-8
    max_it: Optional[int] = None
    target: complex = 0.0 + 0j
    which: str = "target"  # target | largest-magnitude | largest-real
    problem_type: str = "general"  # general | rational
    two_sided: bool = False
    region: Optional[object] = None
    seed: int = 0

    def __post_init__(self):
        if self.nev < 1:
            raise ValueError("nev must be at least 1")
        if self.ncv is not None and self.ncv < self.nev + 1:
            raise ValueError("ncv must be at least nev + 1")
        if self.which not in ("target", "largest-magnitude", "largest-real"):
            raise ValueError(f"unknown eigenvalue selection {self.which!r}")

    @property
    def ncv_effective(self) -> int:
        return self.ncv if self.ncv is not None else default_ncv(self.nev)

    @property
    def max_it_effective(self) -> int:
        return self.max_it if self.max_it is not None else max(500, 100 * self.nev)

    def sort_key(self):
        """Eigenvalues to sort keys, the wanted ones smallest; non-finite keys sort last."""
        if self.which == "largest-magnitude":
            key = lambda lams: -np.abs(lams)
        elif self.which == "largest-real":
            key = lambda lams: -np.real(lams)
        else:
            target = self.target
            key = lambda lams: np.abs(np.asarray(lams) - target)

        def finite_key(lams):
            k = key(lams)
            return np.where(np.isfinite(k), k, np.inf)

        return finite_key


@dataclass
class EigenPair:
    lam: complex
    x: np.ndarray
    eta: float
    y: Optional[np.ndarray] = None
    eta_left: Optional[float] = None
    eta_poly: Optional[float] = None


@dataclass
class EigenSolution:
    pairs: List[EigenPair] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    converged: bool = True

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([p.lam for p in self.pairs], dtype=complex)

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def has_left(self) -> bool:
        return bool(self.pairs) and all(p.y is not None for p in self.pairs)


def apply_resolvent(sol: EigenSolution, op: NepOperator, z: complex, v: np.ndarray) -> np.ndarray:
    """Singular part of the resolvent applied to v.

    Computes sum_i (z - lam_i)^{-1} x_i (y_i^* v) with each pair rescaled so
    that y_i^* T'(lam_i) x_i = 1.  The holomorphic remainder of the resolvent
    is unknowable from the computed pairs and is not included.
    """
    if not sol.has_left:
        raise NepError("apply_resolvent requires left eigenvectors (two-sided solve)")
    v = np.asarray(v, dtype=complex)
    out = np.zeros_like(v)
    for p in sol.pairs:
        if z == p.lam:
            raise NepError(f"resolvent evaluated at a computed eigenvalue {z}")
        c = np.vdot(p.y, op.apply_deriv(p.lam, p.x))
        if c == 0:
            raise NepError("degenerate eigenpair normalization y^* T'(lam) x = 0")
        out += (p.x / (z - p.lam)) * (np.vdot(p.y, v) / c)
    return out

"""Problem representation and solution containers.

A nonlinear eigenproblem T(lambda) x = 0 is represented either in split form,
as a list of (sparse matrix, scalar function) terms whose weighted sum gives
T, or through a pair of user callbacks producing T(lambda) and T'(lambda).
This module also provides search regions of the complex plane, solver
settings, backward-error evaluation, the resolvent built from a two-sided
solution, and ``finish``: every solver returns through it, so all five share
one dedup, one sort and one convergence rule.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from .functions import _parse_scalar, values_at
from .linalg import SplitSum, inf_norm, sparse_times

__all__ = [
    "NepError",
    "NepOperator",
    "Interval",
    "Rectangle",
    "Ellipse",
    "Polygon",
    "region_to_dict",
    "region_from_dict",
    "Settings",
    "EigenPair",
    "EigenSolution",
    "distinct_pairs",
    "finish",
    "backward_error",
    "apply_resolvent",
]


class NepError(RuntimeError):
    pass


def _as_csr(A):
    """A canonical CSR copy of A (sorted indices, duplicates summed), stored
    real unless some stored entry has an imaginary part."""
    A = sp.csr_matrix(A, copy=True) if sp.issparse(A) else sp.csr_matrix(np.asarray(A))
    A.sum_duplicates()
    if A.dtype.kind == "c" and not A.data.imag.any():
        return sp.csr_matrix((A.data.real.copy(), A.indices, A.indptr), shape=A.shape)
    return A.astype(np.result_type(A.dtype, np.float64), copy=False)


class NepOperator:
    """T(lambda) in split form or through callbacks.

    Split form keeps the coefficient matrices, as one ``SplitSum``, and the
    scalar functions f_i, in their own tuple (``funcs``); assembly,
    application and derivative evaluation are weighted sums over the
    matrices, each A_i held once (``_as_csr``), a scaled identity as its one
    scalar.  Every product with an A_i goes through the ``SplitSum``;
    ``terms`` rebuilds the (A_i, f_i) pairs for outside callers, a scaled
    identity's CSR on each access.  Callback form delegates to
    `t_fn(lam)` / `tprime_fn(lam)`, both returning sparse matrices, taken
    through ``_as_csr`` too.  Instances are immutable and safe to share.
    Scalars follow the data: at a lam that is not complex, real f_i(lam)
    give real coefficients, and real A_i then give a real T(lam) and T'(lam).
    """

    def __init__(self, *, terms=None, t_fn=None, tprime_fn=None, n=None):
        if (terms is None) == (t_fn is None):
            raise ValueError("provide either split terms or callbacks, not both")
        if terms is not None:
            terms = list(terms)
            if not terms:
                raise ValueError("split form requires at least one term")
            mats = [_as_csr(A) for A, _ in terms]
            n0 = mats[0].shape[0]
            for A in mats:
                if A.shape != (n0, n0):
                    raise ValueError("all split matrices must be square with equal dimension")
            self._sum = SplitSum(mats)
            self._funcs = tuple(f for _, f in terms)
            self._n = n0
            self._t_fn = None
            self._tprime_fn = None
        else:
            if n is None:
                raise ValueError("callback form requires the problem dimension n")
            self._sum = None
            self._funcs = ()
            self._n = int(n)
            self._t_fn = t_fn
            self._tprime_fn = tprime_fn

    # -- structure ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def is_split(self) -> bool:
        return self._sum is not None

    @property
    def terms(self):
        """The (A_i, f_i) pairs, the A_i as CSR matrices (``SplitSum.mats``)."""
        return list(zip(self.mats.mats, self._funcs))

    @property
    def funcs(self) -> tuple:
        """The scalar functions f_i."""
        if self._sum is None:
            raise NepError("operator is not in split form")
        return self._funcs

    @property
    def mats(self) -> SplitSum:
        """The coefficient matrices A_i as one weighted-sum kernel."""
        if self._sum is None:
            raise NepError("operator is not in split form")
        return self._sum

    @property
    def nterms(self) -> int:
        return len(self._funcs)

    # -- evaluation ----------------------------------------------------------

    def coefficients(self, lam: complex) -> np.ndarray:
        c = np.array(values_at(self.funcs, lam), dtype=complex)
        return c if isinstance(lam, complex) or c.imag.any() else c.real

    def coefficients_deriv(self, lam: complex) -> np.ndarray:
        dc = np.array(values_at(self.funcs, lam, deriv=True), dtype=complex)
        return dc if isinstance(lam, complex) or dc.imag.any() else dc.real

    def assemble(self, lam: complex):
        """T(lambda) as a sparse matrix."""
        if not self.is_split:
            return _as_csr(self._t_fn(lam))
        return self._sum.assemble(self.coefficients(lam))

    def system(self, lam: complex, cfg=None):
        """T(lambda) as ``linalg.make_linear_solver`` takes it under cfg: in
        split form ``SplitSum.system``, the three diagonals of a tridiagonal
        T(lambda) for a direct solve; the matrix of ``assemble`` otherwise."""
        if not self.is_split:
            return self.assemble(lam)
        return self._sum.system(self.coefficients(lam), cfg)

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
            return sparse_times(self.assemble(lam), v)
        return self._sum.apply(self.coefficients(lam), v)

    def apply_deriv(self, lam: complex, v: np.ndarray) -> np.ndarray:
        if not self.is_split:
            return sparse_times(self.assemble_deriv(lam), v)
        return self._sum.apply(self.coefficients_deriv(lam), v)

    def apply_adjoint(self, lam: complex, v: np.ndarray) -> np.ndarray:
        """T(lambda)^* v."""
        if not self.is_split:
            return sparse_times(self.assemble(lam).conj().T, v)
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
    Real for a real lambda, x and T: it keeps the scalars of its input.
    """
    x = np.asarray(x)
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

    def contains(self, z: complex, imag_tol: float = 0.0) -> bool:
        """a <= Re z <= b and |Im z| <= imag_tol."""
        return self.a <= z.real <= self.b and abs(z.imag) <= imag_tol

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

    def contains(self, z: complex, imag_tol: float = 0.0) -> bool:
        """z in the closed rectangle; ``imag_tol`` is ignored (the region is two-dimensional)."""
        return self.re_min <= z.real <= self.re_max and self.im_min <= z.imag <= self.im_max

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

    def contains(self, z: complex, imag_tol: float = 0.0) -> bool:
        """z in the closed ellipse; ``imag_tol`` is ignored (the region is two-dimensional)."""
        dz = z - self.center
        return (dz.real / self.rx) ** 2 + (dz.imag / self.ry) ** 2 <= 1.0

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

    def contains(self, z: complex, imag_tol: float = 0.0) -> bool:
        """z inside the polygon, by ray casting; ``imag_tol`` is ignored (the region is two-dimensional)."""
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


def region_to_dict(region) -> Optional[dict]:
    """The region as a JSON object in the manifest's vocabulary; ``region_from_dict`` reads it back."""
    if region is None:
        return None
    if isinstance(region, (Interval, Rectangle)):
        return {"kind": "interval" if isinstance(region, Interval) else "rectangle", **asdict(region)}
    if isinstance(region, Ellipse):
        return {"kind": "ellipse", "center": [region.center.real, region.center.imag], "rx": region.rx, "ry": region.ry}
    return {"kind": "polygon", "vertices": [[v.real, v.imag] for v in region.vertices]}


def region_from_dict(obj):
    """The region of a JSON object with a ``kind``; a complex number is [re, im] or a number."""
    kind = obj["kind"]
    if kind == "interval":
        return Interval(float(obj["a"]), float(obj["b"]))
    if kind == "rectangle":
        return Rectangle(*(float(obj[k]) for k in ("re_min", "re_max", "im_min", "im_max")))
    if kind == "ellipse":
        return Ellipse(_parse_scalar(obj["center"]), float(obj["rx"]), float(obj["ry"]))
    if kind == "polygon":
        return Polygon(tuple(_parse_scalar(v) for v in obj["vertices"]))
    raise ValueError(f"unknown region kind {kind!r}")


# -- settings and solutions ------------------------------------------------------


def default_ncv(nev: int) -> int:
    return max(2 * nev, nev + 15)


@dataclass
class Settings:
    """Common solver settings; solver-specific options are keyword arguments.

    Every solver wants the eigenvalues nearest ``target`` (``sort_key``).
    ``tol`` must be finite and positive, ``target`` finite, ``max_it`` (None for
    the default) at least 1 and ``problem_type`` "general" or "rational": these
    arrive from the CLI and from manifests, and a bad one raises ``ValueError``.
    """

    nev: int = 1
    ncv: Optional[int] = None
    tol: float = 1e-8
    max_it: Optional[int] = None
    target: complex = 0.0 + 0j
    problem_type: str = "general"  # general | rational
    two_sided: bool = False
    region: Optional[object] = None
    seed: int = 0

    def __post_init__(self):
        if self.nev < 1:
            raise ValueError("nev must be at least 1")
        if self.ncv is not None and self.ncv < self.nev + 1:
            raise ValueError("ncv must be at least nev + 1")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")
        if not np.isfinite(self.target):
            raise ValueError(f"target must be finite, got {self.target!r}")
        if self.max_it is not None and self.max_it < 1:
            raise ValueError("max_it must be at least 1")
        if self.problem_type not in ("general", "rational"):
            raise ValueError(f"unknown problem type {self.problem_type!r}")

    @property
    def ncv_effective(self) -> int:
        return self.ncv if self.ncv is not None else default_ncv(self.nev)

    @property
    def max_it_effective(self) -> int:
        return self.max_it if self.max_it is not None else max(500, 100 * self.nev)

    def sort_key(self):
        """Eigenvalues to sort keys, their distances to the target; non-finite keys sort last."""
        target = self.target

        def key(lams):
            k = np.abs(np.asarray(lams) - target)
            return np.where(np.isfinite(k), k, np.inf)

        return key


@dataclass
class EigenPair:
    lam: complex  # a float for an interval pair of a real run (NLEIGS, interpol) and SLP's real pairs
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


DEDUP_RTOL = 1e-8


def distinct_pairs(pairs) -> List[EigenPair]:
    """Pairs in the given order, less any within DEDUP_RTOL * max(1, |mu|)
    of an eigenvalue mu kept before it."""
    kept = []
    for p in pairs:
        if not any(abs(p.lam - q.lam) <= DEDUP_RTOL * max(1.0, abs(q.lam)) for q in kept):
            kept.append(p)
    return kept


def finish(settings: Settings, pairs, stats: dict, notes=()) -> EigenSolution:
    """The one way a solver returns its pairs.

    Drops duplicates (``distinct_pairs``), sorts the rest stably by
    ``settings.sort_key()`` and sets ``converged`` exactly when the first
    ``nev`` pairs each have eta <= tol against T, and eta_poly <= tol where
    it is set.  Any ``notes`` (remarks on the solve) go to ``stats["notes"]``,
    with one more where iterative linear solves did not converge
    (``linalg.tally_solves``).
    """
    if stats.get("unconverged_solves"):
        notes = [
            *notes,
            f"{stats['unconverged_solves']} of {stats['linear_solves']} linear solves did not converge "
            f"(worst relative residual {stats['worst_solve_residual']:.1e})",
        ]
    pairs = distinct_pairs(pairs)
    order = np.argsort(settings.sort_key()(np.array([p.lam for p in pairs])), kind="stable")
    pairs = [pairs[i] for i in order]
    head = pairs[: settings.nev]
    converged = len(head) == settings.nev and all(
        p.eta <= settings.tol and (p.eta_poly is None or p.eta_poly <= settings.tol) for p in head
    )
    if notes:
        stats["notes"] = list(notes)
    return EigenSolution(pairs=pairs, stats=stats, converged=converged)


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

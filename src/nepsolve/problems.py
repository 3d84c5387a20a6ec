"""Benchmark problem generators with independent oracles, plus file ingestion.

The two built-in problems are desk-scale instances:

* ``delay``: discretized parabolic PDE with a time delay,
  T(lam) = -lam*I + A + b*exp(-tau*lam)*I with A the scaled 1-D Dirichlet
  Laplacian.  Because the delay matrix is a multiple of the identity, every
  eigenvalue is a root of a scalar equation and an exact oracle is available.
* ``loaded_string``: rational eigenproblem T(lam) = A - lam*B +
  lam/(lam - kappa/m) * C from a string with an elastically attached mass;
  multiplying by (lam - kappa/m) gives a quadratic matrix polynomial whose
  linearization provides the oracle.

External problems enter through Matrix Market files referenced from a JSON
manifest.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import functions as fn
from .core import Ellipse, Interval, NepOperator, Polygon, Rectangle, Settings

__all__ = [
    "gen_delay",
    "gen_loaded_string",
    "DelayOracle",
    "LoadedStringOracle",
    "MatrixMarketError",
    "read_matrix_market",
    "write_matrix_market",
    "load_problem_manifest",
]


# -- delay ---------------------------------------------------------------------


@dataclass
class DelayOracle:
    """Exact eigenvalues of the commuting delay problem.

    A and B = b*I commute, so each Laplacian eigenvalue mu_k spawns NEP
    eigenvalues as roots of -lam + mu_k + b*exp(-tau*lam) = 0; the real branch
    is found by Newton from lam = mu_k + b.
    """

    n: int
    tau: float
    b: float

    def laplacian_eigenvalues(self) -> np.ndarray:
        k = np.arange(1, self.n + 1)
        h1 = self.n + 1
        return -4.0 * h1 * h1 * np.sin(k * np.pi / (2 * h1)) ** 2

    def roots(self) -> np.ndarray:
        """All representable roots, one or two per Laplacian branch.

        Substituting u = lam - mu_k turns the branch equation into
        tau*u*exp(tau*u) = tau*b*exp(-tau*mu_k), so the roots are
        mu_k + W(tau*b*exp(-tau*mu_k))/tau on the two real-ish Lambert-W
        branches; a Newton step polishes each root.  Branches whose argument
        overflows (very deep in the spectrum, far from any desk-scale target)
        are dropped.
        """
        from scipy.special import lambertw

        mu = self.laplacian_eigenvalues().astype(complex)
        if self.tau == 0.0 or self.b == 0.0:
            return mu + self.b
        with np.errstate(over="ignore", invalid="ignore"):
            arg = self.tau * self.b * np.exp(-self.tau * mu)
        roots = []
        for branch in (0, -1):
            with np.errstate(over="ignore", invalid="ignore"):
                lam = mu + lambertw(arg, k=branch) / self.tau
            ok = np.isfinite(lam)
            lamk, muk = lam[ok], mu[ok]
            for _ in range(5):
                e = self.b * np.exp(-self.tau * lamk)
                g = -lamk + muk + e
                gp = -1.0 - self.tau * e
                good = gp != 0
                lamk = np.where(good, lamk - g / np.where(good, gp, 1.0), lamk)
            roots.append(lamk)
            if np.any(np.abs(lamk.imag) > 0):
                roots.append(np.conj(lamk[np.abs(lamk.imag) > 0]))
        out = np.concatenate(roots)
        # drop duplicates (the two branches coincide at a fold point)
        uniq: list = []
        for z in out:
            if not any(abs(z - w) <= 1e-9 * max(1.0, abs(w)) for w in uniq):
                uniq.append(z)
        return np.asarray(uniq, dtype=complex)

    def nearest(self, target: complex, count: int) -> np.ndarray:
        r = self.roots()
        order = np.argsort(np.abs(r - target), kind="stable")
        return r[order[:count]]

    def in_interval(self, a: float, b: float) -> np.ndarray:
        r = self.roots()
        r = r[(r.real >= a) & (r.real <= b)]
        return r[np.argsort(r.real)]


def gen_delay(n: int, tau: float = 0.001, b: float = -2.0, commuting: bool = True):
    """Delay problem and its oracle.

    With ``commuting=False`` the delay matrix gets an extra off-diagonal part;
    no oracle is available in that case (stress-test variant only).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    h1 = float(n + 1)
    main = np.full(n, -2.0)
    off = np.ones(n - 1)
    A = (h1 * h1) * sp.diags([off, main, off], [-1, 0, 1], format="csr")
    if commuting:
        B = b * sp.identity(n, format="csr")
        oracle = DelayOracle(n, tau, b)
    else:
        B = b * sp.identity(n, format="csr") + 0.1 * abs(b) * sp.diags(
            [np.ones(n - 1)], [1], format="csr"
        )
        oracle = None
    eye = sp.identity(n, format="csr")
    terms = [
        (A, fn.constant(1.0)),
        (eye, fn.polynomial([-1.0, 0.0])),
        (B, fn.exponential(alpha=-tau)),
    ]
    op = NepOperator(terms=terms)
    return op, oracle


# -- loaded string ---------------------------------------------------------------


@dataclass
class LoadedStringOracle:
    """Eigenvalues of the rational string problem via a quadratic pencil.

    (lam - pole) T(lam) = -B lam^2 + (A + pole*B + C) lam - pole*A is a
    quadratic matrix polynomial; its companion linearization yields all
    eigenvalues, and the pole itself appears as a spurious root of
    multiplicity n-1 which is discarded.  The sparse A, B and C are
    densified only here, when the eigenvalues are asked for.
    """

    A: sp.spmatrix
    B: sp.spmatrix
    C: sp.spmatrix
    pole: float

    def all_eigenvalues(self) -> np.ndarray:
        n = self.A.shape[0]
        A, B, C = (M.toarray() for M in (self.A, self.B, self.C))
        Q0 = -self.pole * A
        Q1 = A + self.pole * B + C
        Q2 = -B
        P = np.zeros((2 * n, 2 * n), dtype=complex)
        Q = np.eye(2 * n, dtype=complex)
        P[:n, n:] = np.eye(n)
        P[n:, :n] = -Q0
        P[n:, n:] = -Q1
        Q[n:, n:] = Q2
        w = scipy.linalg.eig(P, Q, right=False)
        w = w[np.isfinite(w)]
        keep = np.abs(w - self.pole) > 1e-8 * max(1.0, abs(self.pole))
        return np.sort_complex(w[keep])

    def in_interval(self, a: float, b: float, imag_tol: float = 1e-8) -> np.ndarray:
        w = self.all_eigenvalues()
        w = w[(np.abs(w.imag) <= imag_tol) & (w.real >= a) & (w.real <= b)]
        return w[np.argsort(w.real)]


def gen_loaded_string(n: int, kappa: float = 1.0, mass: float = 1.0):
    """Loaded-string problem and its oracle; single pole at kappa/mass."""
    if n < 2:
        raise ValueError("need n >= 2")
    pole = kappa / mass
    main = np.full(n, 2.0)
    main[-1] = 1.0
    off = np.full(n - 1, -1.0)
    A = float(n) * sp.diags([off, main, off], [-1, 0, 1], format="csr")
    mainb = np.full(n, 4.0)
    mainb[-1] = 2.0
    offb = np.ones(n - 1)
    B = (1.0 / (6.0 * n)) * sp.diags([offb, mainb, offb], [-1, 0, 1], format="csr")
    C = sp.csr_matrix(
        (np.array([kappa], dtype=complex), (np.array([n - 1]), np.array([n - 1]))),
        shape=(n, n),
    )
    terms = [
        (A, fn.constant(1.0)),
        (B, fn.polynomial([-1.0, 0.0])),
        (C, fn.rational([1.0, 0.0], [1.0, -pole])),
    ]
    op = NepOperator(terms=terms)
    oracle = LoadedStringOracle(A, B, C, pole)
    return op, oracle


# -- matrix market ----------------------------------------------------------------


class MatrixMarketError(ValueError):
    pass


def read_matrix_market(path) -> sp.csr_matrix:
    """Read a Matrix Market file (coordinate or array) into complex CSR.

    Supports real/complex/integer/pattern fields and general/symmetric/
    hermitian/skew-symmetric storage; symmetric storage is expanded to the
    full pattern.  Parse failures report the offending line number.
    """
    with open(path, "r") as handle:
        lines = handle.readlines()
    if not lines:
        raise MatrixMarketError(f"{path}: empty file")
    header = lines[0].strip().split()
    if len(header) < 5 or header[0] != "%%MatrixMarket" or header[1].lower() != "matrix":
        raise MatrixMarketError(f"{path}:1: malformed MatrixMarket header")
    layout, field, symmetry = (tok.lower() for tok in header[2:5])
    if layout not in ("coordinate", "array"):
        raise MatrixMarketError(f"{path}:1: unsupported layout {layout!r}")
    if field not in ("real", "complex", "integer", "pattern"):
        raise MatrixMarketError(f"{path}:1: unsupported field {field!r}")
    if symmetry not in ("general", "symmetric", "hermitian", "skew-symmetric"):
        raise MatrixMarketError(f"{path}:1: unsupported symmetry {symmetry!r}")
    if layout == "array" and field == "pattern":
        raise MatrixMarketError(f"{path}:1: pattern field is invalid for array layout")

    lineno = 1
    idx = 1
    while idx < len(lines) and lines[idx].lstrip().startswith("%"):
        idx += 1
    if idx >= len(lines):
        raise MatrixMarketError(f"{path}:{len(lines)}: missing size line")
    lineno = idx + 1
    size_tok = lines[idx].split()
    try:
        if layout == "coordinate":
            nrows, ncols, nnz = (int(t) for t in size_tok)
        else:
            nrows, ncols = (int(t) for t in size_tok[:2])
            nnz = nrows * ncols
    except (ValueError, IndexError) as exc:
        raise MatrixMarketError(f"{path}:{lineno}: malformed size line") from exc

    rows, cols, vals = [], [], []

    def push(i, j, v):
        rows.append(i)
        cols.append(j)
        vals.append(v)
        if symmetry != "general" and i != j:
            if symmetry == "symmetric":
                mirrored = v
            elif symmetry == "hermitian":
                mirrored = np.conj(v)
            else:
                mirrored = -v
            rows.append(j)
            cols.append(i)
            vals.append(mirrored)

    data_lines = lines[idx + 1 :]
    if layout == "coordinate":
        count = 0
        for off, raw in enumerate(data_lines):
            lineno = idx + 2 + off
            toks = raw.split()
            if not toks:
                continue
            count += 1
            try:
                i, j = int(toks[0]) - 1, int(toks[1]) - 1
                if field == "pattern":
                    v = 1.0 + 0j
                elif field == "complex":
                    v = complex(float(toks[2]), float(toks[3]))
                else:
                    v = complex(float(toks[2]))
            except (ValueError, IndexError) as exc:
                raise MatrixMarketError(f"{path}:{lineno}: malformed entry") from exc
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise MatrixMarketError(f"{path}:{lineno}: index out of range")
            push(i, j, v)
        if count != nnz:
            raise MatrixMarketError(f"{path}: expected {nnz} entries, found {count}")
    else:
        flat = []
        for off, raw in enumerate(data_lines):
            lineno = idx + 2 + off
            toks = raw.split()
            if not toks:
                continue
            try:
                if field == "complex":
                    flat.append(complex(float(toks[0]), float(toks[1])))
                else:
                    flat.append(complex(float(toks[0])))
            except (ValueError, IndexError) as exc:
                raise MatrixMarketError(f"{path}:{lineno}: malformed entry") from exc
        expected = nrows * ncols if symmetry == "general" else nrows * (nrows + 1) // 2
        if len(flat) != expected:
            raise MatrixMarketError(f"{path}: expected {expected} array values, found {len(flat)}")
        pos = 0
        for j in range(ncols):
            i0 = 0 if symmetry == "general" else j
            for i in range(i0, nrows):
                push(i, j, flat[pos])
                pos += 1

    M = sp.coo_matrix((np.asarray(vals, dtype=complex), (rows, cols)), shape=(nrows, ncols))
    out = M.tocsr()
    out.sum_duplicates()
    out.sort_indices()
    return out


def write_matrix_market(path, A, field: str = "complex") -> None:
    """Write a sparse matrix in coordinate general format."""
    A = sp.coo_matrix(A)
    with open(path, "w") as handle:
        handle.write(f"%%MatrixMarket matrix coordinate {field} general\n")
        handle.write(f"{A.shape[0]} {A.shape[1]} {A.nnz}\n")
        for i, j, v in zip(A.row, A.col, A.data):
            v = complex(v)
            if field == "complex":
                handle.write(f"{i + 1} {j + 1} {v.real:.17g} {v.imag:.17g}\n")
            else:
                handle.write(f"{i + 1} {j + 1} {v.real:.17g}\n")


# -- manifests ---------------------------------------------------------------------


def _region_from_manifest(obj):
    kind = obj["kind"]
    if kind == "interval":
        return Interval(float(obj["a"]), float(obj["b"]))
    if kind == "rectangle":
        return Rectangle(float(obj["re_min"]), float(obj["re_max"]), float(obj["im_min"]), float(obj["im_max"]))
    if kind == "ellipse":
        c = obj["center"]
        center = complex(c[0], c[1]) if isinstance(c, (list, tuple)) else complex(c)
        return Ellipse(center, float(obj["rx"]), float(obj["ry"]))
    if kind == "polygon":
        verts = tuple(complex(v[0], v[1]) for v in obj["vertices"])
        return Polygon(verts)
    raise ValueError(f"unknown region kind {kind!r}")


def load_problem_manifest(path):
    """Load a problem manifest: matrices, functions and default settings.

    The manifest is a JSON object with ``matrices`` (list of Matrix Market
    paths, relative to the manifest), ``functions`` (list of scalar-function
    descriptors, one per matrix) and optional ``settings`` with
    nev/tol/target/region defaults.
    """
    with open(path, "r") as handle:
        doc = json.load(handle)
    base = os.path.dirname(os.path.abspath(path))
    mats = doc.get("matrices", [])
    funs = doc.get("functions", [])
    if len(mats) != len(funs) or not mats:
        raise ValueError("manifest must pair each matrix with exactly one function")
    terms = []
    dim = None
    for mpath, fdesc in zip(mats, funs):
        full = mpath if os.path.isabs(mpath) else os.path.join(base, mpath)
        A = read_matrix_market(full)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"{mpath}: split matrices must be square")
        if dim is None:
            dim = A.shape[0]
        elif A.shape[0] != dim:
            raise ValueError(f"{mpath}: dimension {A.shape[0]} does not match {dim}")
        terms.append((A, fn.function_from_descriptor(fdesc)))
    op = NepOperator(terms=terms)

    sdoc = doc.get("settings", {})
    kwargs = {}
    if "nev" in sdoc:
        kwargs["nev"] = int(sdoc["nev"])
    if "ncv" in sdoc:
        kwargs["ncv"] = int(sdoc["ncv"])
    if "tol" in sdoc:
        kwargs["tol"] = float(sdoc["tol"])
    if "max_it" in sdoc:
        kwargs["max_it"] = int(sdoc["max_it"])
    if "target" in sdoc:
        t = sdoc["target"]
        kwargs["target"] = complex(t[0], t[1]) if isinstance(t, (list, tuple)) else complex(t)
    if "problem_type" in sdoc:
        kwargs["problem_type"] = sdoc["problem_type"]
    if "region" in sdoc:
        kwargs["region"] = _region_from_manifest(sdoc["region"])
    settings = Settings(**kwargs)
    return op, settings

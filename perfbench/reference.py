"""Reference eigenvalues and residuals computed apart from nepsolve.

Nothing here imports nepsolve.  The matrices of both benchmark problems are
rebuilt from their defining stencils, so a fault in the program's generators
or oracles cannot hide a fault in its solvers.

* Delay: T(lam) = -lam I + A + b exp(-tau lam) I with A = (n+1)^2
  tridiag(1, -2, 1).  A's eigenvalues are mu_k = -4 (n+1)^2
  sin^2(k pi / (2 (n+1))), with eigenvectors sin(k pi i / (n+1)); each mu_k
  gives the roots lam = mu_k + W_j(tau b exp(-tau mu_k)) / tau of
  -lam + mu_k + b exp(-tau lam) = 0 on the Lambert-W branches j.
* Loaded string: T(lam) = A - lam B + lam / (lam - kappa/m) C with
  C = kappa e_n e_n^T rank one.  With (alpha_i, v_i) the B-orthonormal
  eigenpairs of the pencil (A, B), det T(lam) = 0 away from the alpha_i
  exactly when 1 + kappa lam / (lam - kappa/m) sum_i v_i(n)^2 / (alpha_i -
  lam) = 0.  That secular function is increasing between consecutive
  alpha_i, so each interval holds one root, found by bracketing.
"""

from __future__ import annotations

import math

import numpy as np

# Roots of the delay problem that come from Laplacian modes deeper than this,
# or from Lambert-W branches other than -1, 0 and 1, have |lam| of thousands
# at tau = 1e-3 (|Im lam| >= pi/tau or Re lam <= log(tau |b|)/tau); the
# benchmark's targets and regions lie within a few hundred of the origin.
DELAY_MODES = 64
DELAY_BRANCHES = (0, -1, 1)


class DelayProblem:
    """The delay problem's matrices, applied by stencil, and its roots."""

    def __init__(self, n: int, tau: float, b: float):
        self.n, self.tau, self.b = n, tau, b
        self.h2 = float(n + 1) ** 2

    def _laplacian(self, x: np.ndarray) -> np.ndarray:
        y = -2.0 * x
        y[1:] += x[:-1]
        y[:-1] += x[1:]
        return self.h2 * y

    def apply(self, lam: complex, x: np.ndarray) -> np.ndarray:
        return self._laplacian(x) + (-lam + self.b * np.exp(-self.tau * lam)) * x

    def apply_adjoint(self, lam: complex, y: np.ndarray) -> np.ndarray:
        return self._laplacian(y) + np.conj(-lam + self.b * np.exp(-self.tau * lam)) * y

    def scale(self, lam: complex) -> float:
        """sum_i |f_i(lam)| ||A_i||_inf, the backward-error scaling."""
        return 4.0 * self.h2 + abs(lam) + abs(self.b) * abs(np.exp(-self.tau * lam))

    def mode_vector(self, k: int) -> np.ndarray:
        """Eigenvector of A (and of T at every root of mode k)."""
        i = np.arange(1, self.n + 1)
        return np.sin(k * math.pi * i / (self.n + 1)).astype(complex)

    def roots(self):
        """[(lam, mode)] for the modes and branches that can lie near a target."""
        from scipy.special import lambertw  # here, so the solve worker never loads it

        tau, b = self.tau, self.b
        k = np.arange(1, min(self.n, DELAY_MODES) + 1)
        mu = -4.0 * self.h2 * np.sin(k * math.pi / (2 * (self.n + 1))) ** 2
        arg = tau * b * np.exp(-tau * mu)
        out = []
        for branch in DELAY_BRANCHES:
            lam = mu + lambertw(arg, k=branch) / tau
            for _ in range(3):  # Newton polish on -lam + mu + b exp(-tau lam)
                e = b * np.exp(-tau * lam)
                lam = lam - (-lam + mu + e) / (-1.0 - tau * e)
            for z, mode in zip(lam, k):
                for w in (z, np.conj(z)):
                    if not any(abs(w - q) <= 1e-12 * max(1.0, abs(q)) for q, _ in out):
                        out.append((complex(w), int(mode)))
        return out


class LoadedStringProblem:
    """The loaded-string problem's matrices, applied by stencil, and its roots."""

    def __init__(self, n: int, kappa: float, mass: float):
        self.n, self.kappa, self.pole = n, kappa, kappa / mass

    def _a(self, x: np.ndarray) -> np.ndarray:
        y = 2.0 * x
        y[-1] = x[-1]
        y[1:] -= x[:-1]
        y[:-1] -= x[1:]
        return self.n * y

    def _b(self, x: np.ndarray) -> np.ndarray:
        y = 4.0 * x
        y[-1] = 2.0 * x[-1]
        y[1:] += x[:-1]
        y[:-1] += x[1:]
        return y / (6.0 * self.n)

    def _g(self, lam: complex) -> complex:
        return lam / (lam - self.pole)

    def apply(self, lam: complex, x: np.ndarray) -> np.ndarray:
        y = self._a(x) - lam * self._b(x)
        y[-1] += self._g(lam) * self.kappa * x[-1]
        return y

    def apply_adjoint(self, lam: complex, y: np.ndarray) -> np.ndarray:
        z = self._a(y) - np.conj(lam) * self._b(y)
        z[-1] += np.conj(self._g(lam)) * self.kappa * y[-1]
        return z

    def scale(self, lam: complex) -> float:
        # ||A||_inf = 4n, ||B||_inf = 1/n, ||C||_inf = kappa
        return 4.0 * self.n + abs(lam) / self.n + abs(self._g(lam)) * self.kappa

    def roots(self, upto: float):
        """Every eigenvalue below ``upto``."""
        import scipy.linalg
        from scipy.optimize import brentq  # here, so the solve worker never loads it

        n = self.n
        a = np.zeros((n, n))
        b = np.zeros((n, n))
        idx = np.arange(n)
        a[idx, idx], b[idx, idx] = 2.0 * n, 4.0 / (6.0 * n)
        a[n - 1, n - 1], b[n - 1, n - 1] = float(n), 2.0 / (6.0 * n)
        a[idx[1:], idx[:-1]] = a[idx[:-1], idx[1:]] = -float(n)
        b[idx[1:], idx[:-1]] = b[idx[:-1], idx[1:]] = 1.0 / (6.0 * n)
        alpha, V = scipy.linalg.eigh(a, b)
        w = V[n - 1] ** 2
        kappa, pole = self.kappa, self.pole

        def h(lam):
            # (lam - pole) times the secular function: increasing between poles
            return (lam - pole) + kappa * lam * np.sum(w / (alpha - lam))

        out = []
        edges = [-math.inf, *alpha]
        for i in range(n):
            lo, hi = edges[i], edges[i + 1]
            if lo >= upto:
                return out
            if math.isinf(lo):
                width = max(1.0, abs(hi))
                lo_b = hi - width
                while h(lo_b) > 0:
                    lo_b -= width
                    width *= 2.0
            else:
                width = hi - lo
                lo_b = _inside(h, lo, width, +1)
            hi_b = _inside(h, hi, width, -1)
            out.append(brentq(h, lo_b, hi_b, xtol=1e-15, rtol=4 * np.finfo(float).eps, maxiter=500))
        raise ValueError(f"eigenvalues up to {upto} reach past the pencil's spectrum")


def _inside(h, pole: float, width: float, side: int) -> float:
    """A point on ``side`` (+1 right, -1 left) of ``pole`` where h has the sign of -side."""
    step = width * 1e-3
    for _ in range(200):
        z = pole + side * step
        if side * h(z) < 0:
            return z
        step /= 4.0
    raise ArithmeticError(f"no sign change of the secular function next to {pole}")

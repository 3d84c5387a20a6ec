"""Pass/fail checks of one solve against the references of ``reference``.

A solve passes when it returns nev converged pairs, each eigenvalue matches
a distinct reference eigenvalue, each pair's backward error recomputed from
the benchmark's own matrices is at most tol, optionally the matched set is
exactly the nev reference eigenvalues nearest the target (inside the region),
and, for two-sided solves, every left vector meets tol as well.

Eigenvalue match: |lam - ref| <= 1e-6 |ref| + 1000 u scale(ref), with u the
unit roundoff and scale the backward-error scaling sum_i |f_i| ||A_i||_inf.
The second term is the eigenvalue error that a backward error of 1000 u
causes to first order when |T'| is about 1, as on the delay problem.  It is
needed there: at n = 200000, u scale = 1.8e-5, which is 1.5e-6 of the
eigenvalue -11.89, so 1e-6 alone is finer than rounding allows.  On the
loaded string it is below 1e-9 and the 1e-6 term decides.
"""

from __future__ import annotations

import numpy as np

MATCH_RTOL = 1e-6
ROUNDOFF_ALLOWANCE = 1000.0
EPS = float(np.finfo(float).eps) / 2  # unit roundoff
REAL_TOL = 1e-8  # |Im z| <= REAL_TOL max(1, |z|) counts as real for intervals


def in_interval(z: complex, interval) -> bool:
    if interval is None:
        return True
    a, b = interval
    return a <= z.real <= b and abs(z.imag) <= REAL_TOL * max(1.0, abs(z))


def nearest(refs, target: complex, count: int, interval=None):
    """The ``count`` reference eigenvalues nearest ``target`` inside ``interval``."""
    inside = [z for z in refs if in_interval(z, interval)]
    return sorted(inside, key=lambda z: abs(z - target))[:count]


def match(lam: complex, refs, model):
    """The reference eigenvalue that ``lam`` matches, or None."""
    best = min(refs, key=lambda z: abs(z - lam))
    radius = MATCH_RTOL * abs(best) + ROUNDOFF_ALLOWANCE * EPS * model.scale(best)
    return best if abs(lam - best) <= radius else None


def backward_error(model, lam: complex, x: np.ndarray, adjoint: bool = False) -> float:
    r = model.apply_adjoint(lam, x) if adjoint else model.apply(lam, x)
    return float(np.linalg.norm(r) / (model.scale(lam) * np.linalg.norm(x)))


def check_solution(sol, model, refs, *, nev: int, tol: float, target: complex,
                   interval=None, nearest_set: bool = False, left: bool = False):
    """Reasons the solve fails its checks; an empty list means it passes."""
    fails = []
    if not sol.converged:
        fails.append("converged=False")
    if len(sol.pairs) != nev:
        fails.append(f"{len(sol.pairs)} pairs returned, nev={nev}")
    matched = []
    for p in sol.pairs:
        ref = match(p.lam, refs, model)
        if ref is None:
            fails.append(f"lam={p.lam:.10g} matches no reference eigenvalue")
        elif ref in matched:
            fails.append(f"lam={p.lam:.10g} repeats reference {ref:.10g}")
        else:
            matched.append(ref)
        eta = backward_error(model, p.lam, p.x)
        if not eta <= tol:
            fails.append(f"lam={p.lam:.10g} backward error {eta:.3e} > tol {tol:g}")
        if left:
            if p.y is None:
                fails.append(f"lam={p.lam:.10g} has no left vector")
            else:
                eta_l = backward_error(model, p.lam, p.y, adjoint=True)
                if not eta_l <= tol:
                    fails.append(f"lam={p.lam:.10g} left backward error {eta_l:.3e} > tol {tol:g}")
    if nearest_set:
        want = nearest(refs, target, nev, interval)
        missing = [z for z in want if z not in matched]
        if missing:
            fails.append("missing nearest eigenvalues " + ", ".join(f"{z:.10g}" for z in missing))
    return fails


def nearest_returned(sol, model, refs, *, nev: int, target: complex, interval=None) -> int:
    """How many of the nev reference eigenvalues nearest the target were returned."""
    got = [match(p.lam, refs, model) for p in sol.pairs]
    return sum(1 for z in nearest(refs, target, nev, interval) if z in got)

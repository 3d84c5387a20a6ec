"""Single-vector Newton-type solvers: successive linear problems and
residual inverse iteration.

Both methods compute one eigenpair at a time.  Several eigenpairs are
obtained by locking converged pairs into an invariant pair and running the
same iteration on the deflated (extended) problem, so previously found
eigenvalues cannot be recomputed.

SLP, RII and the nonlinear Arnoldi solver share one lock rule (``_Hunt``).
An iterate whose lock measure eta is below tol is polished on; the best
iterate seen is locked when eta <= 1e-14 (``LOCK_FLOOR``), after two steps in
a row (``STALL_PERSIST``) that gain less than 5% (``STALL_FACTOR``), or after
80 polish steps (``POLISH_MAX``).  A duplicate (within 1e3 * tol relative of
an eigenvalue already locked) or a non-minimal extension is not locked: the
search restarts from a seeded random vector.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from .core import EigenPair, EigenSolution, NepError, NepOperator, Settings, backward_error
from .deflation import ExtSolveContext, InvariantPair, ext_apply, ext_apply_both
from .linalg import LinearSolverConfig, gen_eig_smallest, lu_factor

__all__ = ["slp_solve", "rii_solve", "rii_scalar_newton"]

SQRT_EPS = math.sqrt(np.finfo(float).eps)
LOCK_FLOOR = 1e-14
POLISH_MAX = 80
STALL_FACTOR = 1.05
STALL_PERSIST = 2
STAGNATION_WINDOW = 30


def _is_duplicate(pair, lam, tol) -> bool:
    if pair.k == 0:
        return False
    locked = np.diag(pair.H)
    return bool(np.min(np.abs(locked - lam)) <= 1e3 * tol * max(abs(lam), 1.0))


def _shift_is_safe(pair, sigma) -> bool:
    """Shifts too close to a locked eigenvalue make T(sigma) ill-conditioned."""
    if pair.k == 0:
        return True
    locked = np.diag(pair.H)
    return bool(np.min(np.abs(locked - sigma)) > 5e-2 * (1.0 + abs(sigma)))


def _candidate_vector(pair: InvariantPair, lam: complex, x1, x2):
    """Eigenvector of T recovered from an extended candidate (x1, x2)."""
    if pair.k == 0:
        return x1
    M = lam * np.eye(pair.k, dtype=complex) - pair.H
    try:
        w = np.linalg.solve(M, x2)
    except np.linalg.LinAlgError:
        return None
    return x1 + pair.X @ w


def _hunt_eta(op: NepOperator, pair: InvariantPair, lam: complex, x1, x2, r1, r2):
    """Lock-quality measure for a hunt iterate with extended residual (r1, r2).

    Combines the invariance residual of the would-be extension (the first
    block of the extended residual), the minimality residual and the plain
    backward error of the recovered eigenvector.  The minimality residual is
    scaled by ``minimality_scale``: its entries grow like |lam|^(2p).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        nx = math.hypot(np.linalg.norm(x1), np.linalg.norm(x2))
        scale = op.norm_scale(lam)
        if scale == 0 or nx == 0:
            raise NepError("degenerate scaling in extended residual")
        eta1 = np.linalg.norm(r1) / (scale * nx)
    with np.errstate(over="ignore", invalid="ignore"):
        eta2 = 0.0
        if pair.k:
            eta2 = np.linalg.norm(r2) / (pair.minimality_scale(lam) * nx)
        xhat = _candidate_vector(pair, lam, x1, x2)
        if xhat is None:
            return np.inf
        nxh = np.linalg.norm(xhat)
        if nxh == 0 or not np.isfinite(nxh):
            return np.inf
        eta_t = np.linalg.norm(op.apply(lam, xhat)) / (scale * nxh)
    return max(eta1, eta2, eta_t)


def _extension_tail(pair: InvariantPair, op: NepOperator, lam: complex, x: np.ndarray) -> np.ndarray:
    """Solve the small minimality block for t when only x is available."""
    k = pair.k
    if k == 0:
        return np.zeros(0, dtype=complex)
    Ap, B = pair.minimality_blocks(lam)
    Ax = Ap @ pair.project(x)
    try:
        return -lu_factor(B).solve(Ax)
    except np.linalg.LinAlgError:
        t, *_ = np.linalg.lstsq(B, -Ax, rcond=None)
        return t


def _finish(op, pair, settings, stats, converged) -> EigenSolution:
    pairs = []
    for lam, x in pair.eigenpairs():
        pairs.append(EigenPair(lam, x, backward_error(op, lam, x)))
    key = settings.sort_key()
    if pairs:
        order = np.argsort(key(np.array([p.lam for p in pairs])), kind="stable")
        pairs = [pairs[i] for i in order]
    return EigenSolution(pairs=pairs, stats=stats, converged=converged)


def _random_unit(rng, m: int) -> np.ndarray:
    """Seeded random complex unit vector of length m: a restart of the search."""
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return v / np.linalg.norm(v)


def _runaway(lam, xt, target) -> bool:
    """The iterate left the representable domain or ran off from the target."""
    return (
        not np.isfinite(lam)
        or abs(lam - target) > 1e6 * (1.0 + abs(target))
        or not np.all(np.isfinite(xt))
    )


class _Hunt:
    """Polish-then-lock state of the search for one eigenpair.

    Locking right at tol lets the deflated operator inherit an
    O(eta * ||T||) perturbation that degrades every later eigenpair, so an
    iterate with eta < tol is polished towards the residual floor and the
    best iterate seen is locked (see the module docstring for the rule).
    """

    def __init__(self, tol: float):
        self.tol = tol
        self.reset()

    def reset(self) -> None:
        self.best = None
        self.prev_eta = None
        self.polish_steps = 0
        self.stall_count = 0

    def record(self, eta: float, lam: complex, xt: np.ndarray, deflated: bool = True) -> bool:
        """Record an iterate (xt = [x; t], ``deflated`` if t belongs to the
        extended problem); True when the best iterate is to be locked now."""
        if self.best is None or eta < self.best[0]:
            self.best = (eta, lam, xt.copy(), deflated)
        if eta < self.tol:
            if self.prev_eta is not None and eta > self.prev_eta / STALL_FACTOR:
                self.stall_count += 1
            else:
                self.stall_count = 0
            if eta <= LOCK_FLOOR or self.stall_count >= STALL_PERSIST or self.polish_steps >= POLISH_MAX:
                return True
            self.polish_steps += 1
        self.prev_eta = eta
        return False

    def lock(self, op: NepOperator, pair: InvariantPair) -> Optional[InvariantPair]:
        """Extend the pair with the best iterate and reset the hunt.

        Returns None for a duplicate of a locked eigenvalue or a non-minimal
        extension; the caller then restarts the search.
        """
        _eta, lam, xt, deflated = self.best
        self.reset()
        if _is_duplicate(pair, lam, self.tol):
            return None
        x1, x2 = xt[: op.n], xt[op.n :]
        try:
            if not (deflated and len(x2) == pair.k):
                x2 = _extension_tail(pair, op, lam, x1)
            return pair.extend(op, lam, x1, x2)
        except NepError:
            return None


def slp_solve(
    op: NepOperator,
    settings: Settings,
    *,
    deflation_threshold: float = 0.0,
    inner_tol: Optional[float] = None,
    lin_cfg: Optional[LinearSolverConfig] = None,
) -> EigenSolution:
    """Successive linear problems.

    Starting from the target, each step solves the linear pencil
    T(lam) z = mu T'(lam) z for its smallest-magnitude eigenvalue and applies
    the correction lam <- lam - mu, warm-starting the inner Arnoldi iteration
    with the current eigenvector.  T(lam) is factorized at every step.
    """
    n = op.n
    tol = settings.tol
    if inner_tol is None:
        inner_tol = min(1e-9, tol / 10)
    pair = InvariantPair.empty(n)
    stats = {"outer_iterations": 0, "linear_solves": 0}
    budget = settings.max_it_effective
    empty = InvariantPair.empty(n)
    rng = np.random.default_rng(settings.seed)
    hunt = _Hunt(tol)

    while pair.k < settings.nev and stats["outer_iterations"] < budget:
        lam = complex(settings.target)
        m = n + pair.k
        xt = np.ones(m, dtype=complex) / math.sqrt(m)
        deflated = True
        while stats["outer_iterations"] < budget:
            stats["outer_iterations"] += 1
            cur = pair if deflated else empty
            x1, x2 = xt[:n], xt[n:]
            r1, r2 = ext_apply(cur, op, lam, x1, x2)
            eta = _hunt_eta(op, cur, lam, x1, x2, r1, r2)
            if hunt.record(eta, lam, xt, deflated):
                extended = hunt.lock(op, pair)
                if extended is not None:
                    pair = extended
                    break
                lam = complex(settings.target)
                xt = _random_unit(rng, n + pair.k)
                continue
            if deflated and deflation_threshold > 0 and 0 < eta < deflation_threshold:
                deflated = False
                xt = xt[:n] / np.linalg.norm(xt[:n])
                hunt.prev_eta = None
                continue
            try:
                ctx = ExtSolveContext(cur, op, lam, lin_cfg)
            except np.linalg.LinAlgError as exc:
                raise NepError(f"T is singular at the iterate {lam}") from exc
            mm = n + cur.k

            def solve_ext(v):
                a, b = ctx.solve(v[:n], v[n:])
                return np.concatenate([a, b])

            def apply_deriv(v):
                a, b = ext_apply(cur, op, lam, v[:n], v[n:], deriv=True)
                return np.concatenate([a, b])

            step_tol = max(1e-13, min(inner_tol, 1e-2 * eta))
            try:
                (mu, xt_new), *_ = gen_eig_smallest(
                    solve_ext, apply_deriv, 1, v0=xt[:mm], tol=step_tol
                )
            except np.linalg.LinAlgError as exc:
                raise NepError("inner eigensolver failed in SLP") from exc
            stats["linear_solves"] += ctx.solve_count
            lam = lam - mu
            xt = xt_new
            if _runaway(lam, xt, settings.target):
                lam = complex(settings.target)
                xt = _random_unit(rng, n + cur.k)
                hunt.prev_eta = None
    return _finish(op, pair, settings, stats, converged=pair.k >= settings.nev)


def rii_scalar_newton(
    op: NepOperator,
    pair: InvariantPair,
    sigma: complex,
    lam_start: complex,
    x: np.ndarray,
    hermitian: bool = False,
    max_inner: int = 10,
    ctx: Optional[ExtSolveContext] = None,
    lin_cfg: Optional[LinearSolverConfig] = None,
) -> complex:
    """Newton iteration for the scalar equation x^* T(sigma)^{-1} T(z) x = 0.

    With ``hermitian`` the cheaper x^* T(z) x = 0 is used instead.  Stops when
    the correction satisfies |mu| < sqrt(eps) * |lam| or after ``max_inner``
    steps, returning the last iterate.
    """
    n = op.n
    x = np.asarray(x, dtype=complex)
    x1, x2 = x[:n], x[n:]
    if not hermitian and ctx is None:
        ctx = ExtSolveContext(pair, op, sigma, lin_cfg)
    lam = complex(lam_start)
    for _ in range(max_inner):
        try:
            (u1, u2), (d1, d2) = ext_apply_both(pair, op, lam, x1, x2)
        except (OverflowError, FloatingPointError):
            return lam
        if not (np.all(np.isfinite(u1)) and np.all(np.isfinite(d1))):
            return lam
        if hermitian:
            num = np.vdot(x1, u1) + np.vdot(x2, u2)
            den = np.vdot(x1, d1) + np.vdot(x2, d2)
        else:
            s1, s2 = ctx.solve(u1, u2)
            t1, t2 = ctx.solve(d1, d2)
            num = np.vdot(x1, s1) + np.vdot(x2, s2)
            den = np.vdot(x1, t1) + np.vdot(x2, t2)
        if den == 0 or not np.isfinite(den) or not np.isfinite(num):
            return lam
        mu = num / den
        if not np.isfinite(mu):
            return lam
        # damp absurd far-field steps (exponential terms explode out there)
        cap = 10.0 * (1.0 + abs(lam))
        if abs(mu) > cap:
            mu = mu * (cap / abs(mu))
        lam = lam - mu
        if abs(mu) < SQRT_EPS * max(abs(lam), np.finfo(float).tiny):
            break
    return lam


def rii_solve(
    op: NepOperator,
    settings: Settings,
    *,
    hermitian: bool = False,
    lag: int = 0,
    const_correction_tol: bool = False,
    deflation_threshold: float = 0.0,
    max_inner: int = 10,
    lin_cfg: Optional[LinearSolverConfig] = None,
) -> EigenSolution:
    """Residual inverse iteration with a fixed (optionally lagged) shift.

    Per outer step: a scalar Newton iteration updates the eigenvalue, the
    residual r = T(lam) x is formed, and the eigenvector is corrected by
    x <- x - T(sigma)^{-1} r.  ``lag`` refreshes sigma (and the factorization)
    every ``lag`` iterations; 0 keeps it fixed.  With an iterative linear
    solver the correction tolerance is halved every outer iteration unless
    ``const_correction_tol`` is set.
    """
    if lag < 0:
        raise ValueError("lag must be nonnegative")
    n = op.n
    tol = settings.tol
    pair = InvariantPair.empty(n)
    empty = InvariantPair.empty(n)
    stats = {"outer_iterations": 0, "linear_solves": 0}
    budget = settings.max_it_effective
    rng = np.random.default_rng(settings.seed)
    hunt = _Hunt(tol)
    base_cfg = lin_cfg or LinearSolverConfig()

    def shift_to(shift, cur, cfg):
        """Refactor at ``shift``, or again at sigma if T(shift) is singular;
        the old context's solves are counted."""
        nonlocal ctx, sigma
        stats["linear_solves"] += ctx.solve_count
        try:
            ctx = ExtSolveContext(cur, op, shift, cfg)
            sigma = shift
        except np.linalg.LinAlgError:
            ctx = ExtSolveContext(cur, op, sigma, cfg)

    while pair.k < settings.nev and stats["outer_iterations"] < budget:
        sigma = complex(settings.target)
        corr_tol = base_cfg.tol
        ctx = ExtSolveContext(pair, op, sigma, base_cfg)
        deflated = True
        lam = sigma
        m = n + pair.k
        xt = np.ones(m, dtype=complex) / math.sqrt(m)
        it_for_pair = 0
        since_progress = 0
        hunt_floor = np.inf
        while stats["outer_iterations"] < budget:
            stats["outer_iterations"] += 1
            it_for_pair += 1
            cur = pair if deflated else empty
            # shift refresh happens before the eigenvalue update: the
            # correction solve then uses T(lam_k)^{-1} T(lam_{k+1}) x, which
            # is the exact Newton-like iteration (updating afterwards would
            # make the correction equal to x itself)
            if (
                lag > 0
                and it_for_pair > 1
                and (it_for_pair - 1) % lag == 0
                and lam != sigma
                and 1e-2 > hunt_floor > math.sqrt(tol)
                and _shift_is_safe(pair, lam)
                and abs(lam - settings.target) < 1e6 * (1.0 + abs(settings.target))
            ):
                shift_to(lam, cur, base_cfg)
            x1, x2 = xt[:n], xt[n:]
            lam = rii_scalar_newton(
                op, cur, sigma, lam, xt, hermitian=hermitian, max_inner=max_inner, ctx=None if hermitian else ctx
            )
            runaway = _runaway(lam, xt, settings.target)
            if not runaway:
                r1, r2 = ext_apply(cur, op, lam, x1, x2)
                eta = _hunt_eta(op, cur, lam, x1, x2, r1, r2)
                runaway = not np.isfinite(eta)
            if runaway:
                # the iteration left the representable domain; restart the hunt
                lam = sigma
                xt = _random_unit(rng, n + cur.k)
                hunt.prev_eta = None
                continue
            lock_now = hunt.record(eta, lam, xt, deflated)
            if eta < 0.99 * hunt_floor:
                hunt_floor = eta
                since_progress = 0
            else:
                since_progress += 1
            if since_progress > STAGNATION_WINDOW and eta > tol:
                # stagnation at a non-eigenpair fixed point: relocate the
                # shift to the stagnation value (a one-off refresh) and
                # restart from a fresh vector
                if (
                    _shift_is_safe(pair, lam)
                    and abs(lam - settings.target) < 1e8 * (1.0 + abs(settings.target))
                ):
                    shift_to(lam, cur, base_cfg)
                lam = sigma
                xt = _random_unit(rng, n + cur.k)
                hunt.reset()
                since_progress, hunt_floor = 0, np.inf
                continue
            if lock_now:
                extended = hunt.lock(op, pair)
                if extended is not None:
                    pair = extended
                    break
                lam = sigma
                xt = _random_unit(rng, n + cur.k)
                continue
            if deflated and deflation_threshold > 0 and 0 < eta < deflation_threshold:
                # switch to the undeflated operator; recenter the shift at the
                # current estimate so the plain iteration stays in this
                # eigenvalue's basin instead of drifting back to a locked one
                deflated = False
                xt = x1 / np.linalg.norm(x1)
                hunt.prev_eta = None
                shift_to(lam, empty, base_cfg)
                continue
            if base_cfg.mode != "direct" and not const_correction_tol:
                # exponentially decreasing, floored at the practical limit of
                # double-precision iterative solves
                corr_tol = max(corr_tol / 2, 1e-12)
                shift_to(sigma, cur, dataclasses.replace(base_cfg, tol=corr_tol))
            v1, v2 = ctx.solve(r1, r2)
            xt = np.concatenate([x1 - v1, x2 - v2])
            with np.errstate(over="ignore", invalid="ignore"):
                nrm = np.linalg.norm(xt)
            if nrm == 0 or not np.isfinite(nrm):
                lam = sigma
                xt = _random_unit(rng, n + cur.k)
                hunt.prev_eta = None
                continue
            xt = xt / nrm
        stats["linear_solves"] += ctx.solve_count
    return _finish(op, pair, settings, stats, converged=pair.k >= settings.nev)

"""Single-vector Newton-type solvers: successive linear problems and
residual inverse iteration.

Both methods compute one eigenpair at a time.  Several eigenpairs are
obtained by locking converged pairs into an invariant pair and running the
same iteration on the deflated (extended) problem, so previously found
eigenvalues cannot be recomputed.

SLP, RII and the nonlinear Arnoldi solver share one lock rule (``_Hunt``).
An iterate whose lock measure eta is below tol is polished on (RII at a
shift moved to the iterate's eigenvalue once the polish starts); the best
iterate seen is locked when eta <= 1e-14 (``LOCK_FLOOR``), after two steps in
a row (``STALL_PERSIST``) that gain less than 5% (``STALL_FACTOR``), or after
80 polish steps (``POLISH_MAX``).  Eigenvalues within 1e3 * tol relative are
taken as one: an iterate below tol further than that from the best one
starts the hunt over.  A duplicate of an eigenvalue already locked or a
non-minimal extension is not locked: the search restarts from a seeded
random vector.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from .core import EigenPair, EigenSolution, NepError, NepOperator, Settings, backward_error, finish
from .deflation import ExtSolveContext, ExtVector, InvariantPair, ext_apply, ext_bilinear
from .linalg import LinearSolverConfig, gen_eig_smallest, lu_factor, random_vector

__all__ = ["slp_solve", "rii_solve", "rii_scalar_newton"]

SQRT_EPS = math.sqrt(np.finfo(float).eps)
LOCK_FLOOR = 1e-14
POLISH_MAX = 80
STALL_FACTOR = 1.05
STALL_PERSIST = 2
STAGNATION_WINDOW = 30


def _same_eigenvalue(mu, lam, tol):
    """mu (a scalar or an array) within 1e3 * tol relative of lam."""
    return np.abs(mu - lam) <= 1e3 * tol * max(abs(lam), 1.0)


def _is_duplicate(pair, lam, tol) -> bool:
    return pair.k > 0 and bool(np.any(_same_eigenvalue(np.diag(pair.H), lam, tol)))


def _shift_is_safe(pair, sigma) -> bool:
    """Shifts too close to a locked eigenvalue make T(sigma) ill-conditioned."""
    if pair.k == 0:
        return True
    locked = np.diag(pair.H)
    return bool(np.min(np.abs(locked - sigma)) > 5e-2 * (1.0 + abs(sigma)))


def _recovered_residual(v: ExtVector, lam: complex, r1: np.ndarray):
    """(x, T(lam) x) for x = x1 + X w, w = (lam I - H)^{-1} x2, the eigenvector
    recovered from v, given r1, the first block of M(lam) v.  As phi_i(lam) x2 =
    -(F_i - f_i(lam) I) w, T(lam) x = r1 + sum_i (A_i X)(F_i w), with no sparse
    product.  Raises LinAlgError for a singular lam I - H."""
    pair = v.pair
    w = np.linalg.solve(lam * np.eye(pair.k, dtype=pair.H.dtype) - pair.H, v.x2)
    return v.x1 + pair.X @ w, r1 + sum(blk @ (Fi @ w) for blk, Fi in zip(pair.AX, pair.F))


def _hunt_eta(v: ExtVector, lam: complex):
    """(eta, r1, r2): lock measure of a hunt iterate v, (r1, r2) = M(lam) v.

    eta is the largest of the invariance residual of the would-be extension
    (r1), the minimality residual (r2, scaled by ``minimality_scale``: its
    entries grow like |lam|^(2p)) and the backward error of the recovered
    eigenvector (``_recovered_residual``).  Overflow makes it non-finite,
    without a warning.
    """
    pair, op = v.pair, v.op
    r1, r2 = ext_apply(v, lam)
    with np.errstate(over="ignore", invalid="ignore"):
        nx = math.hypot(np.linalg.norm(v.x1), np.linalg.norm(v.x2))
        scale = op.norm_scale(lam)
        if scale == 0 or nx == 0:
            raise NepError("degenerate scaling in extended residual")
        eta1 = np.linalg.norm(r1) / (scale * nx)
        if not pair.k:
            return eta1, r1, r2
        eta2 = np.linalg.norm(r2) / (pair.minimality_scale(lam) * nx)
        try:
            xhat, Tx = _recovered_residual(v, lam, r1)
        except np.linalg.LinAlgError:
            return np.inf, r1, r2
        nxh = np.linalg.norm(xhat)
        if nxh == 0 or not np.isfinite(nxh):
            return np.inf, r1, r2
        eta_t = np.linalg.norm(Tx) / (scale * nxh)
    return max(eta1, eta2, eta_t), r1, r2


def _extension_tail(pair: InvariantPair, lam: complex, x: np.ndarray) -> np.ndarray:
    """Solve the small minimality block for t when only x is available."""
    k = pair.k
    if k == 0:
        return np.zeros(0, dtype=pair.dtype)
    (Ap, B), _ = pair.minimality_blocks(lam)
    Ax = Ap @ pair.project(x)
    try:
        return -lu_factor(B).solve(Ax)
    except np.linalg.LinAlgError:
        t, *_ = np.linalg.lstsq(B, -Ax, rcond=None)
        return t


def _finish(op, pair, settings, stats) -> EigenSolution:
    pairs = [EigenPair(lam, x, backward_error(op, lam, x)) for lam, x in pair.eigenpairs()]
    return finish(settings, pairs, stats)


def _random_unit(rng, m: int, dtype=complex) -> np.ndarray:
    """Seeded random unit vector of length m and ``dtype``: a restart of the search."""
    v = random_vector(rng, m, dtype)
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
        if eta < self.tol and self.best is not None and not _same_eigenvalue(self.best[1], lam, self.tol):
            # converging to another eigenvalue: never lock the one it left
            self.reset()
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
                x2 = _extension_tail(pair, lam, x1)
            return pair.extend(op, lam, x1, x2)
        except NepError:
            return None


def slp_solve(
    op: NepOperator,
    settings: Settings,
    *,
    deflation_threshold: float = 0.0,
    lin_cfg: Optional[LinearSolverConfig] = None,
) -> EigenSolution:
    """Successive linear problems.

    Starting from the target, each step solves the linear pencil
    T(lam) z = mu T'(lam) z for its smallest-magnitude eigenvalue and applies
    the correction lam <- lam - mu, warm-starting the inner Arnoldi iteration
    with the current eigenvector.  Per step, T(lam) is factorized and T'(lam)
    with its deflation blocks is built once (``ExtSolveContext.apply_deriv``).
    It runs in real arithmetic while every A_i, the target and f_i(lam) at
    each iterate are real; a non-real iterate, Ritz value or locked
    eigenvalue makes the rest complex (``stats["scalars"]``).
    """
    n = op.n
    tol = settings.tol
    inner_tol = min(1e-9, tol / 10)
    target = complex(settings.target)
    # the scalars of the iterates: once complex, they stay so
    dtype = np.dtype(float if op.is_split and op.mats.dtype.kind == "f" and not target.imag else complex)
    stats = {"outer_iterations": 0, "linear_solves": 0}
    budget = settings.max_it_effective
    pair = empty = InvariantPair.empty(n, dtype)
    rng = np.random.default_rng(settings.seed)
    hunt = _Hunt(tol)

    while pair.k < settings.nev and stats["outer_iterations"] < budget:
        dtype = np.result_type(dtype, pair.dtype)
        lam = target.real if dtype.kind == "f" else target
        m = n + pair.k
        xt = np.ones(m, dtype=dtype) / math.sqrt(m)
        deflated = True
        while stats["outer_iterations"] < budget:
            stats["outer_iterations"] += 1
            cur = pair if deflated else empty
            eta = _hunt_eta(ExtVector(cur, op, xt[:n], xt[n:]), lam)[0]
            if hunt.record(eta, lam, xt, deflated):
                extended = hunt.lock(op, pair)
                if extended is not None:
                    pair = extended
                    break
                lam = target.real if dtype.kind == "f" else target
                xt = _random_unit(rng, n + pair.k, dtype)
                continue
            if deflated and deflation_threshold > 0 and 0 < eta < deflation_threshold:
                deflated = False
                xt = xt[:n] / np.linalg.norm(xt[:n])
                hunt.prev_eta = None
                continue
            ctx = None  # the last step's factorization is freed before the next one
            try:
                ctx = ExtSolveContext(cur, op, lam, lin_cfg)
            except np.linalg.LinAlgError as exc:
                raise NepError(f"T is singular at the iterate {lam}") from exc
            mm = n + cur.k

            def apply_deriv(v):
                return ctx.apply_deriv(v[:n], v[n:])

            def solve_ext(b):
                return np.concatenate(ctx.solve(*b))

            step_tol = max(1e-13, min(inner_tol, 1e-2 * eta))
            try:
                (mu, xt_new), *_ = gen_eig_smallest(
                    solve_ext, apply_deriv, 1, v0=xt[:mm].astype(np.result_type(dtype, ctx.dtype), copy=False), tol=step_tol
                )
            except np.linalg.LinAlgError as exc:
                raise NepError("inner eigensolver failed in SLP") from exc
            stats["linear_solves"] += ctx.solve_count
            lam = lam - mu
            xt = xt_new
            dtype = xt.dtype
            if _runaway(lam, xt, settings.target):
                lam = target.real if dtype.kind == "f" else target
                xt = _random_unit(rng, n + cur.k, dtype)
                hunt.prev_eta = None
    stats["scalars"] = "real" if np.result_type(dtype, pair.dtype).kind == "f" else "complex"
    return _finish(op, pair, settings, stats)


def rii_scalar_newton(
    v: ExtVector,
    sigma: complex,
    lam_start: complex,
    hermitian: bool = False,
    max_inner: int = 10,
    ctx: Optional[ExtSolveContext] = None,
) -> complex:
    """Newton iteration for Neumaier's x^* M(sigma)^{-1} M(z) x = 0, M the
    extended (deflated) operator of v's pair and x = v.

    Once per call: the left vector y = M(sigma)^{-*} x (one adjoint solve
    with ``ctx``) and its reduction by ``ext_bilinear`` on v's products.
    Each step then takes the scalars y^* M(z) x and y^* M'(z) x in
    O(nterms k^2), with no n-long vector and no sparse product.  With
    ``hermitian``, y = x and no solve is made.  Stops when the correction
    satisfies |mu| < sqrt(eps) * |lam| or after ``max_inner`` steps,
    returning the last iterate.
    """
    if not hermitian and ctx is None:
        ctx = ExtSolveContext(v.pair, v.op, sigma)
    y1, y2 = (v.x1, v.x2) if hermitian else ctx.solve_adjoint(v.x1, v.x2)
    form = ext_bilinear(v, y1, y2)
    lam = complex(lam_start)
    for _ in range(max_inner):
        try:
            num, den = form(lam)
        except (OverflowError, FloatingPointError):
            return lam
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
    """Residual inverse iteration, its shift refreshed for each pair's polish.

    Per outer step: a scalar Newton iteration updates the eigenvalue on the
    fixed left vector T(sigma)^{-*} x (``rii_scalar_newton``), the residual
    r = T(lam) x is formed, and the eigenvector is corrected by
    x <- x - T(sigma)^{-1} r: two solves with T(sigma), one of them adjoint
    (T is the extended operator once pairs are locked).  The correction
    converges linearly, faster as |lam - sigma| falls, so sigma (and the
    factorization) moves to lam once per pair, at the first step after an
    eta below tol, unless lam is close to a locked eigenvalue.  ``lag`` also
    refreshes sigma every ``lag`` iterations while the pair's best eta lies
    in (sqrt(tol), 1e-2); 0 keeps it fixed there.  With an iterative linear
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
        polish_shift = True  # the one refresh of this pair's polish is still to come
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
            elif polish_shift and hunt_floor < tol and lam != sigma and _shift_is_safe(pair, lam):
                polish_shift = False
                shift_to(lam, cur, base_cfg)
            v = ExtVector(cur, op, xt[:n], xt[n:])
            lam = rii_scalar_newton(v, sigma, lam, hermitian=hermitian, max_inner=max_inner, ctx=None if hermitian else ctx)
            runaway = _runaway(lam, xt, settings.target)
            if not runaway:
                eta, r1, r2 = _hunt_eta(v, lam)
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
                xt = v.x1 / np.linalg.norm(v.x1)
                hunt.prev_eta = None
                shift_to(lam, empty, base_cfg)
                continue
            if base_cfg.mode != "direct" and not const_correction_tol:
                # exponentially decreasing, floored at the practical limit of
                # double-precision iterative solves
                corr_tol = max(corr_tol / 2, 1e-12)
                shift_to(sigma, cur, dataclasses.replace(base_cfg, tol=corr_tol))
            c1, c2 = ctx.solve(r1, r2)
            xt = np.concatenate([v.x1 - c1, v.x2 - c2])
            with np.errstate(over="ignore", invalid="ignore"):
                nrm = np.linalg.norm(xt)
            if nrm == 0 or not np.isfinite(nrm):
                lam = sigma
                xt = _random_unit(rng, n + cur.k)
                hunt.prev_eta = None
                continue
            xt = xt / nrm
        stats["linear_solves"] += ctx.solve_count
    return _finish(op, pair, settings, stats)

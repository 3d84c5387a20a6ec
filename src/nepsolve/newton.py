"""Single-vector solvers on one search loop: successive linear problems
(SLP), residual inverse iteration (RII) and, in ``narnoldi``, nonlinear
Arnoldi.

Each finds one eigenpair at a time, locks it into the invariant pair
(X, H) and searches on for the next on the deflated problem M, whose
iterates [x; t] have length n + k, so a locked eigenvalue is not found
again (Effenberger, SIMAX 2013).

``_Search.run`` is the loop of all three: per outer step the solver's
``iterate`` gives the eigenvalue and vector, the loop measures their lock
measure eta (``_hunt_eta``) and locks, restarts or goes on undeflated, and
the solver's ``advance`` makes the next iterate.  An iterate whose eta is
below tol is polished on (SLP by one Newton step per outer step in place of
its Krylov-Schur pencil solve, RII at a shift moved to its eigenvalue once
the polish starts); the best iterate seen is locked when eta <= 1e-14
(``LOCK_FLOOR``), after two steps in a row (``STALL_PERSIST``) that gain
less than 5% (``STALL_FACTOR``), or after 80 polish steps (``POLISH_MAX``).
Eigenvalues within 1e3 * tol relative are taken as one: an iterate below
tol further than that from the best one starts the hunt over.

The search restarts from a seeded random vector after a refused lock (a
duplicate of a locked eigenvalue or a non-minimal extension), a runaway
iterate, a non-finite eta or a step the solver gives up on.  Below
``deflation_threshold`` an iterate goes on undeflated, on T itself, and its
x is locked with t = 0: an eigenvector of T extends (X, H) invariantly so.
All three report ``outer_iterations``, ``linear_solves``, ``restarts`` and
``scalars``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from .core import EigenPair, EigenSolution, NepError, NepOperator, Settings, backward_error, finish
from .deflation import ExtSolveContext, ExtVector, InvariantPair, ext_apply, ext_bilinear
from .linalg import LinearSolverConfig, gen_eig_smallest, random_vector

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


class _Search:
    """The search for one eigenpair after another (see the module docstring).

    Holds the locked ``pair``, the iterate (``lam``, ``xt`` = [x; t]), the
    solve context ``ctx``, the ``stats`` and the hunt: an iterate with
    eta < tol is polished towards the residual floor, as a lock at tol would
    leave the deflated operator an O(eta * ||T||) error that degrades every
    later eigenpair.  A solver overrides ``advance`` and the hooks it needs.
    """

    def __init__(self, op: NepOperator, settings: Settings, dtype=complex, deflation_threshold=0.0, lin_cfg=None):
        self.op, self.settings, self.n, self.tol = op, settings, op.n, settings.tol
        self.lin_cfg = lin_cfg or LinearSolverConfig()
        self.target = complex(settings.target)
        self.deflation_threshold = deflation_threshold
        self.dtype = np.dtype(dtype)  # the scalars of the iterates: once complex, they stay so
        self.pair = self.empty = InvariantPair.empty(op.n, self.dtype)
        self.deflated = True
        self.rng = np.random.default_rng(settings.seed)
        self.stats = {"outer_iterations": 0, "linear_solves": 0, "restarts": 0}
        self.ctx = None
        self.reset()

    @property
    def cur(self) -> InvariantPair:
        """The pair the iterates extend: none once undeflated."""
        return self.pair if self.deflated else self.empty

    def vector(self) -> ExtVector:
        return ExtVector(self.cur, self.op, self.xt[: self.n], self.xt[self.n :])

    def use(self, ctx: Optional[ExtSolveContext]) -> None:
        """Make ctx the solve context, counting the solves of the one it replaces."""
        if self.ctx is not None:
            self.stats["linear_solves"] += self.ctx.solve_count
        self.ctx = ctx

    def reset(self) -> None:
        self.best = None
        self.prev_eta = None
        self.polish_steps = 0
        self.stall_count = 0

    def record(self, eta: float, lam: complex, xt: np.ndarray) -> bool:
        """Record an iterate; True when the best iterate is to be locked now."""
        if eta < self.tol and self.best is not None and not _same_eigenvalue(self.best[1], lam, self.tol):
            # converging to another eigenvalue: never lock the one it left
            self.reset()
        if self.best is None or eta < self.best[0]:
            self.best = (eta, lam, xt.copy())
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

    def lock(self) -> bool:
        """Extend the pair with the best iterate and reset the hunt; False for
        a duplicate of a locked eigenvalue or a non-minimal extension."""
        _eta, lam, xt = self.best
        self.reset()
        if self.pair.k and np.any(_same_eigenvalue(self.pair.h_diag, lam, self.tol)):
            return False  # a duplicate of a locked eigenvalue
        x, t = xt[: self.n], xt[self.n :]
        if len(t) != self.pair.k:  # an eigenvector of T, from the undeflated search
            t = np.zeros(self.pair.k, dtype=xt.dtype)
        try:
            self.pair = self.pair.extend(self.op, lam, x, t)
        except NepError:
            return False
        return True

    def restart(self, reset: bool = False) -> None:
        """Go on from a seeded random vector, and the hunt over with ``reset``."""
        self.stats["restarts"] += 1
        self.lam = self.home()
        self.xt = _random_unit(self.rng, self.n + self.cur.k, self.dtype)
        if reset:
            self.reset()
        self.prev_eta = None
        self.restarted()

    def run(self) -> EigenSolution:
        n, nev, stats = self.n, self.settings.nev, self.stats
        budget = self.settings.max_it_effective
        while self.pair.k < nev and stats["outer_iterations"] < budget:
            self.dtype = np.result_type(self.dtype, self.pair.dtype)
            self.deflated = True
            m = n + self.pair.k
            self.xt = np.ones(m, dtype=self.dtype) / math.sqrt(m)
            self.begin()
            self.lam = self.home()
            while stats["outer_iterations"] < budget:
                stats["outer_iterations"] += 1
                eta, r1, r2 = self.measure()
                if not np.isfinite(eta):
                    self.restart()
                    continue
                lock_now = self.record(eta, self.lam, self.xt)
                if self.stalled(eta):
                    self.restart(reset=True)
                elif lock_now:
                    if self.lock():
                        break
                    self.restart()
                elif self.deflated and 0 < eta < self.deflation_threshold:
                    self.deflated = False
                    self.xt = self.xt[:n] / np.linalg.norm(self.xt[:n])
                    self.prev_eta = None
                    self.undeflate()
                elif not self.advance(eta, r1, r2):
                    self.restart()
        self.use(None)
        stats["scalars"] = "real" if np.result_type(self.dtype, self.pair.dtype).kind == "f" else "complex"
        return _finish(self.op, self.pair, self.settings, stats)

    def measure(self):
        """This step's (eta, r1, r2), (r1, r2) = M(lam) [x; t], eta = inf to
        restart.  The iterate's ``ExtVector`` is freed on return, before
        SLP's next factorization."""
        v = self.iterate()
        if v is None or _runaway(self.lam, self.xt, self.settings.target):
            return np.inf, None, None
        return _hunt_eta(v, self.lam)

    def begin(self) -> None:
        """Set up the search for the next pair, from ``xt``."""

    def home(self) -> complex:
        """The eigenvalue a search starts from."""
        return self.target.real if self.dtype.kind == "f" else self.target

    def iterate(self) -> Optional[ExtVector]:
        """The iterate of this step (None to restart)."""
        return self.vector()

    def stalled(self, eta: float) -> bool:
        """True to restart the search and its hunt."""
        return False

    def undeflate(self) -> None:
        """The search has just gone on undeflated."""

    def restarted(self) -> None:
        """The search has just restarted from ``xt``."""

    def advance(self, eta: float, r1, r2) -> bool:
        """Make the next iterate from this one's residual; False to restart."""
        raise NotImplementedError


def _newton_step(solve_ext, apply_deriv, xt):
    """(mu, u / ||u||), u = M(lam)^{-1} M'(lam) xt and mu = xt^H xt / xt^H u:
    one step of nonlinear inverse iteration (Ruhe, SIAM J. Numer. Anal. 1973)
    with one solve; None when xt^H u is zero or not finite, or u is not finite."""
    try:
        u = solve_ext(apply_deriv(xt))
    except np.linalg.LinAlgError:  # the linear solvers refuse a non-finite solution
        return None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mu = np.vdot(xt, xt) / np.vdot(xt, u)
        nrm = np.linalg.norm(u)
    if not (np.isfinite(mu) and np.isfinite(nrm)):
        return None
    return mu, u / nrm


class _SLP(_Search):
    def advance(self, eta, r1, r2):
        n, lam = self.n, self.lam
        self.use(None)  # the last step's factorization is freed before the next one
        try:
            ctx = ExtSolveContext(self.cur, self.op, lam, self.lin_cfg)
        except np.linalg.LinAlgError as exc:
            raise NepError(f"T is singular at the iterate {lam}") from exc
        self.use(ctx)

        def apply_deriv(z):
            return ctx.apply_deriv(z[:n], z[n:])

        def solve_ext(b):
            return np.concatenate(ctx.solve(*b))

        v0 = self.xt.astype(np.result_type(self.dtype, ctx.dtype), copy=False)
        step = _newton_step(solve_ext, apply_deriv, v0) if eta < self.tol else None
        if step is None:
            step_tol = max(1e-13, min(1e-9, self.tol / 10, 1e-2 * eta))
            try:
                step = gen_eig_smallest(solve_ext, apply_deriv, v0=v0, tol=step_tol)
            except np.linalg.LinAlgError as exc:
                raise NepError("inner eigensolver failed in SLP") from exc
        mu, xt = step
        self.lam, self.xt, self.dtype = lam - mu, xt, xt.dtype
        return not _runaway(self.lam, xt, self.settings.target)


def slp_solve(
    op: NepOperator,
    settings: Settings,
    *,
    deflation_threshold: float = 0.0,
    lin_cfg: Optional[LinearSolverConfig] = None,
) -> EigenSolution:
    """Successive linear problems.

    Starting from the target, each hunt step (eta >= tol) solves the linear
    pencil T(lam) z = mu T'(lam) z for its smallest-magnitude eigenvalue by
    Krylov-Schur, warm-started with the current eigenvector, and applies the
    correction lam <- lam - mu.  Each polish step (eta < tol) takes one
    Newton step in its place, with one solve (``_newton_step``): mu is then
    about lam - lam*, far below every other eigenvalue of the pencil.  A
    degenerate Newton step takes the pencil step.  Per step, T(lam) is
    factorized and T'(lam) with its deflation blocks is built once
    (``ExtSolveContext.apply_deriv``).
    It runs in real arithmetic while every A_i, the target and f_i(lam) at
    each iterate are real; a non-real iterate, Ritz value or locked
    eigenvalue makes the rest complex (``stats["scalars"]``).
    """
    real = op.is_split and op.mats.dtype.kind == "f" and not complex(settings.target).imag
    return _SLP(op, settings, float if real else complex, deflation_threshold, lin_cfg).run()


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


class _RII(_Search):
    def __init__(self, op, settings, hermitian, lag, deflation_threshold, lin_cfg):
        super().__init__(op, settings, complex, deflation_threshold, lin_cfg)
        self.hermitian, self.lag = hermitian, lag

    def begin(self):
        self.sigma = self.target
        self.corr_tol = self.lin_cfg.tol
        self.use(ExtSolveContext(self.pair, self.op, self.sigma, self.lin_cfg))
        self.steps = 0
        self.since_progress, self.hunt_floor = 0, np.inf
        self.polish_shift = True  # the one refresh of this pair's polish is still to come

    def home(self):
        return self.sigma

    def shift_to(self, shift, cfg=None):
        """Refactor at ``shift``, or again at sigma if T(shift) is singular."""
        cfg = cfg or self.lin_cfg
        try:
            self.use(ExtSolveContext(self.cur, self.op, shift, cfg))
            self.sigma = shift
        except np.linalg.LinAlgError:
            self.use(ExtSolveContext(self.cur, self.op, self.sigma, cfg))

    def iterate(self):
        self.steps += 1
        lam, target = self.lam, self.target
        # the shift moves before the eigenvalue update: the correction solve
        # then uses T(lam_k)^{-1} T(lam_{k+1}) x, which is the exact
        # Newton-like iteration (updating afterwards would make the
        # correction equal to x itself)
        if (
            self.lag > 0
            and self.steps > 1
            and (self.steps - 1) % self.lag == 0
            and lam != self.sigma
            and 1e-2 > self.hunt_floor > math.sqrt(self.tol)
            and _shift_is_safe(self.pair, lam)
            and abs(lam - target) < 1e6 * (1.0 + abs(target))
        ):
            self.shift_to(lam)
        elif self.polish_shift and self.hunt_floor < self.tol and lam != self.sigma and _shift_is_safe(self.pair, lam):
            self.polish_shift = False
            self.shift_to(lam)
        v = self.vector()
        ctx = None if self.hermitian else self.ctx
        self.lam = rii_scalar_newton(v, self.sigma, lam, hermitian=self.hermitian, ctx=ctx)
        return v

    def stalled(self, eta):
        if eta < 0.99 * self.hunt_floor:
            self.hunt_floor, self.since_progress = eta, 0
            return False
        self.since_progress += 1
        if self.since_progress <= STAGNATION_WINDOW or eta <= self.tol:
            return False
        # stagnation at a non-eigenpair fixed point: relocate the shift to the
        # stagnation value (a one-off refresh) and restart from a fresh vector
        if _shift_is_safe(self.pair, self.lam) and abs(self.lam - self.target) < 1e8 * (1.0 + abs(self.target)):
            self.shift_to(self.lam)
        self.since_progress, self.hunt_floor = 0, np.inf
        return True

    def undeflate(self):
        # recentre the shift at the current estimate, so the plain iteration
        # stays in this eigenvalue's basin instead of drifting back to a locked one
        self.shift_to(self.lam)

    def advance(self, eta, r1, r2):
        if self.lin_cfg.mode != "direct":
            # exponentially decreasing, floored at the practical limit of
            # double-precision iterative solves
            self.corr_tol = max(self.corr_tol / 2, 1e-12)
            self.shift_to(self.sigma, dataclasses.replace(self.lin_cfg, tol=self.corr_tol))
        xt = self.xt - np.concatenate(self.ctx.solve(r1, r2))
        with np.errstate(over="ignore", invalid="ignore"):
            nrm = np.linalg.norm(xt)
        if nrm == 0 or not np.isfinite(nrm):
            return False
        self.xt = xt / nrm
        return True


def rii_solve(
    op: NepOperator,
    settings: Settings,
    *,
    hermitian: bool = False,
    lag: int = 0,
    deflation_threshold: float = 0.0,
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
    in (sqrt(tol), 1e-2); 0 keeps it fixed there.  The scalar Newton
    iteration takes at most 10 steps per outer step.  With an iterative
    linear solver the correction tolerance is halved every outer iteration,
    down to 1e-12.
    """
    if lag < 0:
        raise ValueError("lag must be nonnegative")
    return _RII(op, settings, hermitian, lag, deflation_threshold, lin_cfg).run()

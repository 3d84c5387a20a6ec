import numpy as np
import pytest
import scipy.sparse as sp

from nepsolve import functions as fn
from nepsolve.core import NepOperator, Settings, backward_error
from nepsolve.deflation import InvariantPair
from nepsolve.linalg import LinearSolverConfig
from nepsolve.narnoldi import narnoldi_solve
from nepsolve.newton import LOCK_FLOOR, POLISH_MAX, _Hunt, rii_scalar_newton, rii_solve, slp_solve
from nepsolve.problems import gen_delay, gen_loaded_string
from test_nleigs import run_at_blas_threads


def scalar_exp_minus_two():
    one = sp.identity(1, format="csr")
    return NepOperator(terms=[(one, fn.exponential()), (one, fn.constant(-2.0))])


def diag_linear(diag):
    n = len(diag)
    A = sp.diags([np.asarray(diag, dtype=complex)], [0], format="csr")
    eye = sp.identity(n, format="csr")
    return NepOperator(terms=[(A, fn.constant(1.0)), (eye, fn.polynomial([-1.0, 0.0]))])


def test_slp_scalar_exponential_root():
    sol = slp_solve(scalar_exp_minus_two(), Settings(nev=1, tol=1e-12, target=0.0))
    assert sol.converged
    assert sol.eigenvalues[0] == pytest.approx(np.log(2.0), rel=1e-10)


def test_slp_two_by_two_with_deflation():
    sol = slp_solve(diag_linear([1.0, 3.0]), Settings(nev=2, tol=1e-10, target=0.8))
    assert sol.converged
    assert np.allclose(np.sort(sol.eigenvalues.real), [1.0, 3.0], atol=1e-9)


def test_slp_linear_problem_converges_immediately():
    # for T = A - lam I the Taylor remainder vanishes: at most two outer
    # iterations per eigenvalue (correction step + convergence pass)
    sol = slp_solve(diag_linear([2.0, 5.0, 9.0]), Settings(nev=1, tol=1e-10, target=1.5))
    assert sol.converged
    assert sol.stats["outer_iterations"] <= 2
    assert sol.eigenvalues[0] == pytest.approx(2.0, abs=1e-10)


def test_rii_scalar_exponential_root():
    sol = rii_solve(scalar_exp_minus_two(), Settings(nev=1, tol=1e-12, target=0.0))
    assert sol.converged
    assert sol.eigenvalues[0] == pytest.approx(np.log(2.0), rel=1e-10)


def test_scalar_newton_exponential():
    op = scalar_exp_minus_two()
    pair = InvariantPair.empty(1)
    lam = rii_scalar_newton(op, pair, 0.0, 0.0, np.ones(1, dtype=complex), max_inner=50)
    assert lam == pytest.approx(np.log(2.0), rel=1e-8)


def test_scalar_newton_linear_one_step():
    a = 3.7
    op = diag_linear([a])
    pair = InvariantPair.empty(1)
    lam = rii_scalar_newton(op, pair, 0.5, 0.5, np.ones(1, dtype=complex), max_inner=3)
    assert lam == pytest.approx(a, rel=1e-12)


def test_scalar_newton_hermitian_variants_agree():
    # Hermitian 4x4 problem: A - lam I + 0.3*exp(lam/4) D with all pieces Hermitian
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    A = Q @ np.diag([1.0, 2.0, 4.0, 8.0]) @ Q.T
    D = np.diag([0.1, 0.2, 0.3, 0.4])
    op = NepOperator(
        terms=[
            (sp.csr_matrix(A.astype(complex)), fn.constant(1.0)),
            (sp.identity(4, format="csr"), fn.polynomial([-1.0, 0.0])),
            (sp.csr_matrix(D.astype(complex)), fn.exponential(alpha=0.25, beta=0.3)),
        ]
    )
    pair = InvariantPair.empty(4)
    # both scalar equations share their root at an eigenpair, so start from
    # an eigenvector of the problem
    ref = slp_solve(op, Settings(nev=1, tol=1e-12, target=1.2))
    x = ref.pairs[0].x
    sigma = 1.2
    lam_h = rii_scalar_newton(op, pair, sigma, sigma, x, hermitian=True, max_inner=60)
    lam_n = rii_scalar_newton(op, pair, sigma, sigma, x, hermitian=False, max_inner=60)
    assert abs(lam_h - lam_n) <= np.sqrt(np.finfo(float).eps) * max(1.0, abs(lam_h)) * 10


def test_rii_cross_solver_agreement_small_delay():
    op, oracle = gen_delay(60, tau=0.001, b=-2.0)
    s = Settings(nev=3, tol=1e-8, target=1.0)
    sol_slp = slp_solve(op, s)
    sol_rii = rii_solve(op, s)
    assert sol_slp.converged and sol_rii.converged
    a = np.sort(sol_slp.eigenvalues.real)
    b = np.sort(sol_rii.eigenvalues.real)
    assert np.allclose(a, b, rtol=1e-6)


def test_rii_lag_variants_same_eigenvalues_different_counts():
    op, _ = gen_loaded_string(60)
    s = Settings(nev=3, tol=1e-9, target=10.0, problem_type="rational")
    sol0 = rii_solve(op, s, lag=0)
    sol1 = rii_solve(op, s, lag=1)
    assert sol0.converged and sol1.converged
    assert np.allclose(
        np.sort(sol0.eigenvalues.real), np.sort(sol1.eigenvalues.real), rtol=1e-7
    )
    assert sol0.stats["outer_iterations"] != sol1.stats["outer_iterations"]


def test_rii_hermitian_variant_on_loaded_string():
    op, oracle = gen_loaded_string(60)
    ev = oracle.all_eigenvalues()
    s = Settings(nev=3, tol=1e-9, target=10.0)
    sol = rii_solve(op, s, hermitian=True)
    assert sol.converged
    for lam in sol.eigenvalues:
        assert np.min(np.abs(ev - lam)) <= 1e-7 * abs(lam)


def test_returned_pairs_satisfy_tolerance_and_are_distinct():
    op, _ = gen_delay(100, tau=0.001, b=-2.0)
    s = Settings(nev=4, tol=1e-8, target=1.0)
    for solver in (slp_solve, rii_solve):
        sol = solver(op, s)
        assert sol.converged
        lams = sol.eigenvalues
        for p in sol.pairs:
            # recheck eta from scratch
            assert backward_error(op, p.lam, p.x) <= s.tol
        for i in range(len(lams)):
            for j in range(i + 1, len(lams)):
                assert abs(lams[i] - lams[j]) > 1e3 * s.tol * abs(lams[i])


def test_deflation_threshold_switch_still_converges():
    op, oracle = gen_delay(40, tau=0.001, b=-2.0)
    s = Settings(nev=2, tol=1e-10, target=1.0)
    sol = rii_solve(op, s, deflation_threshold=1e-4)
    assert sol.converged
    roots = oracle.roots()
    for lam in sol.eigenvalues:
        assert np.min(np.abs(roots - lam)) <= 1e-7 * abs(lam)
    sol2 = slp_solve(op, s, deflation_threshold=1e-4)
    assert sol2.converged


def test_iterative_inner_solver_path():
    from nepsolve.linalg import LinearSolverConfig

    # mildly scaled variant so the iterative correction solves stay cheap
    op, _ = gen_delay(16, tau=0.01, b=-1.0)
    s = Settings(nev=1, tol=1e-7, target=1.0)
    cfg = LinearSolverConfig(mode="gmres", tol=1e-9, maxit=2000)
    sol = rii_solve(op, s, lin_cfg=cfg)
    assert sol.converged
    assert sol.pairs[0].eta <= 1e-7
    sol2 = rii_solve(op, s, lin_cfg=cfg, const_correction_tol=True)
    assert sol2.converged


@pytest.mark.parametrize("threads", ["1", "2"])
def test_rii_loaded_string_steps_at_blas_threads(threads):
    # the settings of the benchmark's rii-string workload at n=200, where RII
    # takes 682 outer iterations at 1 and at 2 BLAS threads
    script = (
        "import numpy as np\n"
        "from nepsolve.core import Settings\n"
        "from nepsolve.newton import rii_solve\n"
        "from nepsolve.problems import gen_loaded_string\n"
        "op, oracle = gen_loaded_string(200)\n"
        "sol = rii_solve(op, Settings(nev=9, tol=1e-8, target=10.0, seed=0))\n"
        "ref = oracle.all_eigenvalues()\n"
        "err = max(np.min(np.abs(ref - lam)) / abs(lam) for lam in sol.eigenvalues)\n"
        "print(sol.converged, len(sol.eigenvalues), sol.stats['outer_iterations'], err)\n"
    )
    converged, count, outer, err = run_at_blas_threads(threads, script).split()
    assert converged == "True" and count == "9"
    assert float(err) <= 1e-8
    assert abs(int(outer) - 682) <= 0.02 * 682


def _gmres_case():
    op, _ = gen_delay(16, tau=0.01, b=-1.0)
    cfg = LinearSolverConfig(mode="gmres", tol=1e-9, maxit=2000)
    return rii_solve(op, Settings(nev=1, tol=1e-7, target=1.0), lin_cfg=cfg)


def _delay(n, solver, settings, **kw):
    op, _ = gen_delay(n, tau=0.001, b=-2.0)
    return solver(op, settings, **kw)


def _string(solver, **kw):
    op, _ = gen_loaded_string(60)
    s = Settings(nev=3, tol=1e-9, target=10.0, problem_type="rational")
    return solver(op, s, **kw)


STEP_CASES = {
    "slp-delay100": (lambda: _delay(100, slp_solve, Settings(nev=4, tol=1e-8, target=1.0)), (13, 127)),
    "rii-delay100": (lambda: _delay(100, rii_solve, Settings(nev=4, tol=1e-8, target=1.0)), (172, 1268)),
    "rii-delay40-threshold": (
        lambda: _delay(40, rii_solve, Settings(nev=2, tol=1e-10, target=1.0), deflation_threshold=1e-4),
        (49, 789),
    ),
    "slp-delay40-threshold": (
        lambda: _delay(40, slp_solve, Settings(nev=2, tol=1e-10, target=1.0), deflation_threshold=1e-4),
        (8, 54),
    ),
    "rii-string-lag1": (lambda: _string(rii_solve, lag=1), (23, 182)),
    "rii-string-hermitian": (lambda: _string(rii_solve, hermitian=True), (179, 179)),
    "rii-gmres": (_gmres_case, (16, 61)),
    "narnoldi-delay80": (lambda: _delay(80, narnoldi_solve, Settings(nev=3, tol=1e-8, target=1.0)), (22, 22, 1)),
    "narnoldi-delay60-restarts": (
        lambda: _delay(60, narnoldi_solve, Settings(nev=2, ncv=4, tol=1e-8, target=1.0, max_it=400)),
        (16, 15, 4),
    ),
}


@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_solvers_keep_their_step_counts(case):
    # SLP, RII and N-Arnoldi share one polish-and-lock rule; these counts pin
    # the steps it takes (the same at 1 and 2 BLAS threads)
    solve, expected = STEP_CASES[case]
    sol = solve()
    assert sol.converged
    keys = ("outer_iterations", "linear_solves", "restarts")[: len(expected)]
    assert tuple(sol.stats[k] for k in keys) == expected


def _unit(n, i, tail=0):
    v = np.zeros(n + tail, dtype=complex)
    v[i] = 1.0
    return v


def test_hunt_locks_at_the_residual_floor_at_once():
    hunt = _Hunt(1e-8)
    assert hunt.record(LOCK_FLOOR, 1.0, _unit(3, 0))


def test_hunt_locks_after_two_steps_that_gain_less_than_five_percent():
    hunt = _Hunt(1e-8)
    # a 5% gain or more resets the stall count
    etas = [1e-10, 0.99e-10, 0.5e-10, 0.49e-10, 0.5e-10]
    assert [hunt.record(eta, 1.0, _unit(3, 0)) for eta in etas] == [False] * 4 + [True]


def test_hunt_stops_polishing_at_polish_max():
    hunt = _Hunt(1e-8)
    # every step gains 10%, so only the polish budget ends the search
    locks = [hunt.record(1e-9 / 1.1**i, 1.0, _unit(3, 0)) for i in range(POLISH_MAX + 1)]
    assert locks == [False] * POLISH_MAX + [True]


@pytest.mark.parametrize("factor", [1.0, 2.0])
def test_hunt_never_locks_at_or_above_tol(factor):
    hunt = _Hunt(1e-8)
    assert not any(hunt.record(factor * 1e-8, 1.0, _unit(3, 0)) for _ in range(3 * POLISH_MAX))


def test_hunt_locks_the_iterate_with_the_smallest_eta():
    op = diag_linear([1.0, 2.5, 4.0])
    hunt = _Hunt(1e-8)
    steps = [(5e-9, 2.5 + 1e-9, 1), (1e-9, 2.5, 1), (2e-9, 4.0, 2), (3e-9, 1.0, 0)]
    assert [hunt.record(eta, lam, _unit(3, i)) for eta, lam, i in steps] == [False] * 3 + [True]
    pair = hunt.lock(op, InvariantPair.empty(3))
    assert pair.k == 1 and pair.H[0, 0] == 2.5
    assert np.array_equal(pair.X[:, 0], _unit(3, 1))
    assert hunt.best is None and hunt.polish_steps == 0


def test_hunt_lock_rejects_duplicates_and_non_minimal_extensions():
    op = diag_linear([1.0, 2.5, 4.0])
    pair = InvariantPair.empty(3).extend(op, 2.5, _unit(3, 1), np.zeros(0))
    hunt = _Hunt(1e-8)
    # within 1e3 * tol relative of the locked eigenvalue 2.5
    hunt.record(0.0, 2.5 * (1 + 1e-7), _unit(3, 0, tail=1))
    assert hunt.lock(op, pair) is None
    # X = [e2, e2] with t = 2.5 - lam makes X H^j = 2.5^j X: not minimal
    lam = 2.5 + 1e-3
    xt = _unit(3, 1, tail=1)
    xt[3] = 2.5 - lam
    hunt.record(0.0, lam, xt)
    assert hunt.lock(op, pair) is None
    hunt.record(0.0, 1.0, _unit(3, 0, tail=1))
    assert hunt.lock(op, pair).k == 2

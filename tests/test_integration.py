"""Cross-cutting integration paths: callback operators end to end, complex
spectra inside an ellipse region, iterative linear solvers through the
command line, and every solver's reported solve count, unconverged
iterative solves included."""

import ast
import functools

import numpy as np
import pytest
import scipy.sparse as sp

from nepsolve import functions as fn
from nepsolve import linalg
from nepsolve.cli import run
from nepsolve.core import Ellipse, Interval, NepOperator, Settings, backward_error
from nepsolve.interpol import interpol_solve
from nepsolve.narnoldi import narnoldi_solve
from nepsolve.newton import rii_solve, slp_solve
from nepsolve.nleigs import nleigs_solve
from nepsolve.problems import gen_delay, gen_loaded_string
from blas_threads import other_blas_threads, run_at_blas_threads


def callback_delay(n, tau=0.001, b=-2.0):
    split, oracle = gen_delay(n, tau, b)
    op = NepOperator(
        t_fn=lambda lam: split.assemble(lam),
        tprime_fn=lambda lam: split.assemble_deriv(lam),
        n=n,
    )
    return op, oracle


def test_slp_on_callback_operator():
    op, oracle = callback_delay(60)
    sol = slp_solve(op, Settings(nev=1, tol=1e-9, target=1.0))
    assert sol.converged
    lam = sol.eigenvalues[0]
    assert np.min(np.abs(oracle.roots() - lam)) <= 1e-7 * abs(lam)
    assert backward_error(op, lam, sol.pairs[0].x) <= 1e-9


def test_nleigs_on_callback_operator():
    # exercises the explicit divided-difference route and the callback
    # backward-error scaling through a whole solve
    op, oracle = callback_delay(120)
    s = Settings(nev=3, tol=1e-7, target=1.0, region=Interval(-100.0, 50.0))
    sol = nleigs_solve(op, s, singularities="none")
    assert len(sol.pairs) == 3
    roots = oracle.roots()
    for p in sol.pairs:
        assert p.eta <= s.tol
        assert np.min(np.abs(roots - p.lam)) <= 1e-6 * abs(p.lam)


def complex_rational_problem(n=80, c=0.4, pole=2.0 + 1.5j, seed=0):
    """Diagonal rational problem with an exact quadratic oracle per mode.

    T(lam) = diag(a_k) - lam I + c * lam/(lam - pole) * I; each mode's
    eigenvalues solve (a_k - lam)(lam - pole) + c lam = 0.
    """
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.5, 1.5, n) + 1j * rng.uniform(-1.0, 1.0, n)
    A = sp.diags([a], [0], format="csr")
    eye = sp.identity(n, format="csr")
    terms = [
        (A, fn.constant(1.0)),
        (eye, fn.polynomial([-1.0, 0.0])),
        (eye, fn.rational([c, 0.0], [1.0, -pole])),
    ]
    op = NepOperator(terms=terms)
    roots = []
    for ak in a:
        # (a_k - lam)(lam - pole) + c lam = 0
        coeffs = [-1.0, ak + pole + c, -ak * pole]
        roots.extend(np.roots(coeffs))
    return op, np.asarray(roots)


def test_nleigs_complex_spectrum_in_ellipse():
    op, roots = complex_rational_problem()
    region = Ellipse(0.0 + 0.0j, 2.2, 1.6)
    inside = [z for z in roots if region.contains(z)]
    assert len(inside) >= 6
    s = Settings(
        nev=6, tol=1e-9, target=0.0, problem_type="rational", region=region
    )
    sol = nleigs_solve(op, s)
    assert sol.converged
    assert sol.stats["degree"] <= 4  # rational type (2, 1): exact interpolant
    for p in sol.pairs:
        assert p.eta <= s.tol
        assert region.contains(p.lam, imag_tol=1e-8)
        assert np.min(np.abs(roots - p.lam)) <= 1e-8 * max(1.0, abs(p.lam))


def test_nleigs_two_sided_complex_spectrum():
    op, roots = complex_rational_problem(n=40, seed=3)
    region = Ellipse(0.0 + 0.0j, 2.2, 1.6)
    s = Settings(
        nev=4, tol=1e-9, target=0.0, problem_type="rational",
        region=region, two_sided=True,
    )
    sol = nleigs_solve(op, s)
    assert sol.converged and sol.has_left
    for p in sol.pairs:
        num = np.linalg.norm(op.apply_adjoint(p.lam, p.y))
        eta_left = num / (op.norm_scale(p.lam) * np.linalg.norm(p.y))
        assert eta_left <= 10 * s.tol


def test_cli_bicgstab_linsolver():
    report, code = run(
        [
            "run", "--problem", "delay", "--n", "60", "--solver", "rii",
            "--nev", "1", "--target", "1,0", "--tol", "1e-6",
            "--linsolver", "bicgstab", "--output", "json",
        ]
    )
    assert code == 0
    assert report["converged"]


def test_narnoldi_monotone_subspace_growth():
    from nepsolve.deflation import InvariantPair, ProjectionContext

    op, _ = gen_delay(30)
    pair = InvariantPair.empty(30)
    ctx = ProjectionContext(pair, op, np.zeros((30, 0)))
    rng = np.random.default_rng(5)
    sizes = []
    V = np.linalg.qr(rng.standard_normal((30, 6)) + 1j * rng.standard_normal((30, 6)))[0]
    for j in range(6):
        ctx.append(V[:, j], np.zeros(0))
        sizes.append(ctx.m)
    assert sizes == [1, 2, 3, 4, 5, 6]


DELAY_REGION = Interval(-260.0, 50.0)
COUNT_CASES = {
    "slp": lambda: slp_solve(gen_delay(100)[0], Settings(nev=2, tol=1e-8, target=1.0)),
    "rii": lambda: rii_solve(gen_delay(100)[0], Settings(nev=2, tol=1e-8, target=1.0)),
    "narnoldi": lambda: narnoldi_solve(gen_delay(200)[0], Settings(nev=3, tol=1e-8, target=1.0)),
    # interpol and NLEIGS sum the solves of every shift of their loop
    # (nleigs.shift_invert_pairs); a loop of two shifts is counted in
    # test_nleigs.py::test_nleigs_shift_that_adds_no_pair_ends_the_loop
    "interpol": lambda: interpol_solve(
        gen_delay(100)[0], Settings(nev=3, tol=1e-8, target=1.0, region=DELAY_REGION), degree=20
    ),
    "nleigs": lambda: nleigs_solve(gen_delay(200)[0], Settings(nev=3, tol=1e-8, target=1.0, region=DELAY_REGION)),
    "nleigs-two-sided": lambda: nleigs_solve(
        gen_loaded_string(100)[0],
        Settings(nev=3, tol=1e-8, target=10.0, region=Interval(4.0, 800.0), problem_type="rational", two_sided=True),
    ),
}


@pytest.mark.parametrize("case", sorted(COUNT_CASES))
def test_linear_solves_counts_every_direct_solve(case, monkeypatch):
    calls = []
    solve = linalg._DirectSolver.solve

    def counted(self, b, adjoint=False):
        calls.append(adjoint)
        return solve(self, b, adjoint=adjoint)

    monkeypatch.setattr(linalg._DirectSolver, "solve", counted)
    sol = COUNT_CASES[case]()
    assert sol.converged
    assert sol.stats["linear_solves"] == len(calls) > 0


UNCONVERGED_CASES = {
    "slp": lambda cfg: slp_solve(gen_delay(40)[0], Settings(nev=2, tol=1e-6, target=1.0, max_it=10), lin_cfg=cfg),
    "rii": lambda cfg: rii_solve(gen_delay(40)[0], Settings(nev=2, tol=1e-6, target=1.0, max_it=10), lin_cfg=cfg),
    "narnoldi": lambda cfg: narnoldi_solve(
        gen_delay(40)[0], Settings(nev=2, tol=1e-6, target=1.0, max_it=10), lin_cfg=cfg
    ),
    "interpol": lambda cfg: interpol_solve(
        gen_delay(40)[0], Settings(nev=2, tol=1e-6, target=1.0, region=DELAY_REGION, max_it=3), degree=10, lin_cfg=cfg
    ),
    "nleigs-two-sided": lambda cfg: nleigs_solve(
        gen_loaded_string(40)[0],
        Settings(nev=2, tol=1e-8, target=10.0, region=Interval(4.0, 800.0), problem_type="rational",
                 two_sided=True, max_it=3),
        lin_cfg=cfg,
    ),
}


@pytest.mark.parametrize("case", sorted(UNCONVERGED_CASES))
def test_unconverged_iterative_solves_are_counted_and_noted(case, monkeypatch):
    # BiCGStab stopped after 3 iterations leaves solves unconverged: the stats
    # count them beside linear_solves with their worst relative residual, and
    # a note says so
    results = []
    iterative_solve = linalg.iterative_solve

    def recorded(cfg, A, b):
        results.append((iterative_solve(cfg, A, b), np.linalg.norm(b)))
        return results[-1][0]

    monkeypatch.setattr(linalg, "iterative_solve", recorded)
    sol = UNCONVERGED_CASES[case](linalg.LinearSolverConfig(mode="bicgstab", maxit=3))
    failed = [res.residual_norm / nrm for res, nrm in results if not res.converged]
    assert failed and sol.stats["linear_solves"] == len(results)
    assert sol.stats["unconverged_solves"] == len(failed)
    assert sol.stats["worst_solve_residual"] == max(failed)
    note = f"{len(failed)} of {len(results)} linear solves did not converge (worst relative residual {max(failed):.1e})"
    assert note in sol.stats["notes"]


def test_nleigs_two_sided_matches_left_vectors_by_backward_error():
    # on the callback form the right eigenvalue -160.2488 and its left Ritz
    # value differ by about 6e-6 relative, more than a fixed distance rule
    # allowed, although the left vector meets tol at the right eigenvalue
    op, _ = callback_delay(400)
    s = Settings(nev=5, tol=1e-6, target=1.0, region=Interval(-260.0, 50.0), two_sided=True)
    sol = nleigs_solve(op, s, singularities="none")
    assert sol.converged and len(sol.pairs) == 5
    assert sol.has_left
    for p in sol.pairs:
        eta_left = np.linalg.norm(op.apply_adjoint(p.lam, p.y)) / (
            op.norm_scale(p.lam) * np.linalg.norm(p.y)
        )
        assert p.eta_left <= s.tol and eta_left <= s.tol
    assert not any("left eigenvector" in note for note in sol.stats.get("notes", []))


TWO_SIDED_CASES = {
    "loaded_string200": lambda: (gen_loaded_string(200)[0], Settings(**STRING_SETTINGS), "auto"),
    "callback_delay400": lambda: (
        callback_delay(400)[0],
        Settings(nev=5, tol=1e-6, target=1.0, region=Interval(-260.0, 50.0)),
        "none",
    ),
}


@pytest.mark.parametrize("case", sorted(TWO_SIDED_CASES))
def test_two_sided_right_pairs_are_those_of_the_full_basis_solve(case, monkeypatch):
    # the left vectors are computed after the right run, which the two-sided
    # variant leaves as the one-sided full-basis run: same eigenvalues, right
    # vectors, restarts and solves, bitwise; the left vectors use adjoint
    # solves only
    import dataclasses

    calls = []
    solve = linalg._DirectSolver.solve

    def counted(self, b, adjoint=False):
        calls.append(adjoint)
        return solve(self, b, adjoint=adjoint)

    monkeypatch.setattr(linalg._DirectSolver, "solve", counted)
    op, s, sing = TWO_SIDED_CASES[case]()
    one = nleigs_solve(op, s, singularities=sing, full_basis=True)
    assert calls.count(False) == len(calls) == one.stats["linear_solves"]
    calls.clear()
    two = nleigs_solve(op, dataclasses.replace(s, two_sided=True), singularities=sing)
    assert calls.count(False) == one.stats["linear_solves"]
    assert two.stats["linear_solves"] == len(calls)
    assert two.stats["outer_iterations"] == one.stats["outer_iterations"]
    assert two.converged and one.converged and two.has_left
    assert [repr(p.lam) for p in two.pairs] == [repr(p.lam) for p in one.pairs]
    assert [p.eta for p in two.pairs] == [p.eta for p in one.pairs]
    for a, b in zip(two.pairs, one.pairs):
        assert a.x.dtype == b.x.dtype and a.x.tobytes() == b.x.tobytes()
        assert a.eta_left <= s.tol


STRING_SETTINGS = dict(nev=9, tol=1e-8, target=10.0, region=Interval(4.0, 800.0), problem_type="rational")
KRYLOV_STEP_CASES = {
    "interpol-delay300": (
        lambda: interpol_solve(
            gen_delay(300, tau=0.001, b=-2.0)[0],
            Settings(nev=3, ncv=32, tol=1e-6, target=1.0, region=Interval(-100.0, 50.0)),
            degree=20,
        ),
        (0, 32, 3, True),
    ),
    "interpol-string200": (
        lambda: interpol_solve(gen_loaded_string(200)[0], Settings(**STRING_SETTINGS), degree=10),
        (11, 118, 9, False),
    ),
    "nleigs2-string200": (
        lambda: nleigs_solve(gen_loaded_string(200)[0], Settings(two_sided=True, **STRING_SETTINGS)),
        (1, 41, 9, True),
    ),
}


@functools.cache
def _krylov_case(case):
    """The solve of one KRYLOV_STEP_CASES pin, made once per process."""
    return KRYLOV_STEP_CASES[case][0]()


def _krylov_steps(case):
    sol = _krylov_case(case)
    return (sol.stats["outer_iterations"], sol.stats["linear_solves"], len(sol.pairs), sol.converged)


def _krylov_eigenvalues(case):
    """The pin's eigenvalues to the last bit."""
    return [repr(complex(z)) for z in _krylov_case(case).eigenvalues]


@pytest.mark.parametrize("case", sorted(KRYLOV_STEP_CASES))
def test_krylov_solvers_keep_their_step_counts(case):
    # interpol and two-sided NLEIGS share one Ritz-to-eigenpair rule
    # (nleigs._krylov_schur_pairs) and one shift loop; these counts pin the steps
    # they take: restarts, solves, pairs and converged
    assert _krylov_steps(case) == KRYLOV_STEP_CASES[case][1]


def test_two_sided_nleigs_pin_takes_the_target_as_its_one_shift():
    # its run at the target finds all nine pairs, so the shift loop adds no
    # shift and the pinned solve count is that of the one run
    sol = _krylov_case("nleigs2-string200")
    assert sol.stats["shifts"] == [STRING_SETTINGS["target"]]
    assert sol.stats["linear_solves"] == KRYLOV_STEP_CASES["nleigs2-string200"][1][1] == 41


@functools.cache
def _krylov_at_other_blas_threads():
    """Every pin's counts and eigenvalues, from one fresh interpreter at the other BLAS thread count."""
    script = (
        "import test_integration as t\n"
        "for case in sorted(t.KRYLOV_STEP_CASES):\n"
        "    print(repr((case, t._krylov_steps(case), t._krylov_eigenvalues(case))))\n"
    )
    lines = run_at_blas_threads(other_blas_threads(), script).splitlines()
    return {case: (steps, lams) for case, steps, lams in map(ast.literal_eval, lines)}


@pytest.mark.parametrize("case", sorted(KRYLOV_STEP_CASES))
def test_krylov_step_counts_do_not_depend_on_blas_threads(case):
    assert _krylov_at_other_blas_threads()[case][0] == _krylov_steps(case)


@pytest.mark.parametrize("case", sorted(KRYLOV_STEP_CASES))
def test_krylov_eigenvalues_do_not_depend_on_blas_threads(case):
    assert _krylov_at_other_blas_threads()[case][1] == _krylov_eigenvalues(case)


def _noncanonical(M, duplicates):
    """The canonical CSR matrix M with each row's entries stored in
    descending column order and, with ``duplicates``, each entry stored as
    two halves (which sum back to it exactly)."""
    rows = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
    order = np.lexsort((-M.indices, rows))
    data, indices, indptr = M.data[order], M.indices[order], M.indptr
    if duplicates:
        data, indices, indptr = np.repeat(data / 2, 2), np.repeat(indices, 2), 2 * indptr
    return sp.csr_matrix((data, indices, indptr), shape=M.shape)


NONCANONICAL_CASES = {
    "slp": (slp_solve, dict(target=1.0, max_it=100), {}),
    "rii": (rii_solve, dict(target=1.0), {}),
    "narnoldi": (narnoldi_solve, dict(target=1.0), {}),
    "nleigs": (nleigs_solve, dict(target=1.0, region=Interval(-200.0, 50.0)), {}),
    "interpol": (interpol_solve, dict(target=1.0, region=Interval(-100.0, 0.0)), {"degree": 6}),
}


@pytest.mark.parametrize("duplicates", [False, True], ids=["unsorted", "duplicates"])
@pytest.mark.parametrize("case", sorted(NONCANONICAL_CASES))
def test_solvers_do_not_depend_on_the_storage_of_the_matrices(case, duplicates):
    # a symmetric permutation of the delay problem, given once in canonical
    # CSR and once with unsorted indices or duplicate entries; real copies
    # of the A_i that shared a non-canonical matrix's index arrays became
    # other matrices once SciPy sorted those arrays in place, and SLP and
    # NLEIGS then returned wrong eigenvalues or none
    solver, kw, opts = NONCANONICAL_CASES[case]
    settings = Settings(nev=3, tol=1e-8, **kw)
    op, oracle = gen_delay(50, tau=0.001, b=-2.0)
    P = sp.identity(50, format="csr")[np.random.default_rng(0).permutation(50)]
    terms = [((P @ A @ P.T).tocsr(), f) for A, f in op.terms]
    for A, _ in terms:
        A.sort_indices()
    posed = [(_noncanonical(A, duplicates), f) for A, f in terms]
    assert not all(A.has_canonical_format for A, _ in posed)
    ref = solver(NepOperator(terms=terms), settings, **opts)
    sol = solver(NepOperator(terms=posed), settings, **opts)
    assert ref.converged and sol.converged
    np.testing.assert_allclose(np.sort(ref.eigenvalues.real)[-3:], np.sort(oracle.nearest(1.0, 3).real), rtol=1e-6)
    np.testing.assert_array_equal(sol.eigenvalues, ref.eigenvalues)

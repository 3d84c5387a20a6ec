"""Cross-cutting integration paths: callback operators end to end, complex
spectra inside an ellipse region, iterative linear solvers through the
command line, and every solver's reported solve count."""

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
    ctx = ProjectionContext(pair, op)
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
    # n (degree + 1) = 2100 is past DENSE_PENCIL_CAP: the Krylov path
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
    assert "pencil" not in sol.stats  # interpol took its Krylov path
    assert sol.stats["linear_solves"] == len(calls) > 0

import functools

import numpy as np
import pytest
import scipy.sparse as sp

from nepsolve import functions as fn
from nepsolve.cli import run
from nepsolve.core import Interval, NepError, NepOperator, Settings
from nepsolve.interpol import cheb_coeffs, cheb_nodes, interpol_solve
from nepsolve.problems import gen_delay, gen_loaded_string
from test_integration import callback_delay


def test_cheb_nodes_examples():
    assert np.allclose(cheb_nodes(0), [0.0])
    assert np.allclose(cheb_nodes(1), [np.sqrt(2) / 2, -np.sqrt(2) / 2])
    assert np.allclose(cheb_nodes(2), [np.cos(np.pi / 6), 0.0, np.cos(5 * np.pi / 6)], atol=1e-15)


def cheb_matrices(poly):
    """The coefficient matrices C_0..C_d of a ChebPoly, dense."""
    return [poly.mats.assemble(c).toarray() for c in poly.coeffs.T]


def test_cheb_coeffs_constant_operator():
    M = np.array([[2.0, 1.0], [0.0, -1.0]])
    op = NepOperator(terms=[(sp.csr_matrix(M), fn.constant(1.0))])
    C = cheb_matrices(cheb_coeffs(op, Interval(-1.0, 1.0), 6))
    assert np.allclose(C[0], 2 * M, atol=1e-13)
    for Ck in C[1:]:
        assert np.max(np.abs(Ck)) <= 1e-13


def test_cheb_coeffs_linear_operator():
    M = np.array([[1.0, 0.5], [0.5, 2.0]])
    op = NepOperator(terms=[(sp.csr_matrix(M), fn.polynomial([1.0, 0.0]))])
    C = cheb_matrices(cheb_coeffs(op, Interval(-1.0, 1.0), 5))
    assert np.allclose(C[1], M, atol=1e-13)
    assert np.max(np.abs(C[0])) <= 1e-13
    for Ck in C[2:]:
        assert np.max(np.abs(Ck)) <= 1e-13


def test_interpolation_conditions_hold_at_nodes():
    op, _ = gen_delay(15, tau=0.05, b=-2.0)
    iv = Interval(-20.0, 10.0)
    d = 12
    poly = cheb_coeffs(op, iv, d)
    nodes = cheb_nodes(d)
    mapped = 0.5 * (iv.b - iv.a) * nodes + 0.5 * (iv.b + iv.a)
    for lam in mapped:
        T = op.assemble(complex(lam)).toarray()
        P = poly.eval(complex(lam)).toarray()
        assert np.max(np.abs(T - P)) <= 1e-10 * max(1.0, np.max(np.abs(T)))


def test_delay_interpolation_error_decays_tenfold():
    op, _ = gen_delay(40, tau=0.2, b=-2.0)
    iv = Interval(-100.0, 50.0)
    rng = np.random.default_rng(0)
    lams = rng.uniform(iv.a, iv.b, 50)

    def sup_err(d):
        poly = cheb_coeffs(op, iv, d)
        return max(abs(op.assemble(complex(l)) - poly.eval(complex(l))).max() for l in lams)

    e10, e20 = sup_err(10), sup_err(20)
    assert e10 / e20 >= 10.0


@functools.cache
def _solve_linear_problem_exact():
    A = sp.diags([[1.0, 2.0, 3.0]], [0], format="csr")
    eye = sp.identity(3, format="csr")
    op = NepOperator(terms=[(A, fn.constant(1.0)), (eye, fn.polynomial([-1.0, 0.0]))])
    s = Settings(nev=3, tol=1e-10, target=2.0, region=Interval(0.0, 4.0))
    sol = interpol_solve(op, s, degree=3)
    assert sol.converged
    assert np.allclose(np.sort(sol.eigenvalues.real), [1.0, 2.0, 3.0], atol=1e-9)
    return sol


def test_interpol_solve_linear_problem_exact():
    _solve_linear_problem_exact()


@pytest.mark.parametrize("n", [136, 200])
def test_interpol_degree_too_low_is_not_converged(n):
    # degree 10 solves the interpolant to tol, but not T itself: the largest
    # eta against T is about 1e-5 on the loaded string at these sizes
    op, _ = gen_loaded_string(n)
    s = Settings(nev=9, tol=1e-8, target=10.0, region=Interval(4.0, 800.0), problem_type="rational")
    sol = interpol_solve(op, s, degree=10)
    assert len(sol.pairs) == 9
    assert all(p.eta_poly <= s.tol for p in sol.pairs)
    assert max(p.eta for p in sol.pairs) > 100 * s.tol
    assert not sol.converged
    assert "interpolation degree" in sol.stats["notes"][0]
    report, code = run(
        ["run", "--problem", "loaded_string", "--n", str(n), "--solver", "interpol", "--degree", "10"]
    )
    assert code == 1
    assert not report["converged"]
    assert report["n_converged"] == 9
    assert "interpolation degree" in report["notes"][0]


def test_interpol_requires_interval_region():
    op, _ = gen_delay(10)
    s = Settings(nev=1, region=None)
    with pytest.raises(NepError):
        interpol_solve(op, s)


def test_interpol_delay_desk_matches_oracle():
    # the split form, and the callback form, whose interpolant keeps the
    # divided-difference matrices themselves
    for make in (gen_delay, callback_delay):
        op, oracle = make(300, tau=0.001, b=-2.0)
        s = Settings(nev=3, ncv=32, tol=1e-6, target=1.0, region=Interval(-100.0, 50.0))
        sol = interpol_solve(op, s, degree=20)
        assert sol.converged, make
        assert len(sol.pairs) >= 3
        roots = oracle.roots()
        for p in sol.pairs:
            assert np.min(np.abs(roots - p.lam)) <= 1e-6 * abs(p.lam)
            assert p.eta <= 1e-6
            assert type(p.lam) is float and p.x.dtype == np.float64  # a real pair of a real run


@pytest.mark.parametrize("degree", [10, 20, 30, 40, 60])
@pytest.mark.parametrize("n, a, nev", [(1000, -260.0, 5), (2000, -100.0, 3)], ids=["n1000", "n2000"])
def test_interpol_keeps_every_pair_as_the_degree_rises(n, a, nev, degree):
    # the divided differences stop at rounding size, so a higher degree adds
    # no spurious eigenvalues; with every Chebyshev coefficient kept, n=1000
    # returned 3 of 5 pairs at degrees 25-40 and 2 at 60, and n=2000 at
    # degree 20 returned -90.912 for -91.017 with converged=True
    op, oracle = gen_delay(n, tau=0.001, b=-2.0)
    s = Settings(nev=nev, ncv=32, tol=1e-6, target=1.0, region=Interval(a, 50.0))
    sol = interpol_solve(op, s, degree=degree)
    assert sol.converged and len(sol.pairs) == nev
    roots = oracle.roots()
    for p in sol.pairs:
        assert np.min(np.abs(roots - p.lam)) <= 1e-6 * abs(p.lam)


@functools.cache
def _solve_loaded_string_desk():
    # spec benchmark shape: interval [4, 800], degree 30, nine pairs at sigma=10;
    # with this discretization the interpolation error at the pole-nearest
    # eigenvalues floors around 2e-6, so the acceptance threshold is 1e-5
    op, oracle = gen_loaded_string(40)
    s = Settings(nev=9, tol=1e-6, target=10.0, region=Interval(4.0, 800.0))
    sol = interpol_solve(op, s, degree=30)
    assert len(sol.pairs) == 9
    ev = oracle.all_eigenvalues()
    for p in sol.pairs:
        assert p.eta_poly <= s.tol
        assert p.eta <= 1e-5
        assert np.min(np.abs(ev - p.lam)) <= 1e-3 * abs(p.lam)
        assert type(p.lam) is float and p.x.dtype == np.float64
    return sol


def test_interpol_loaded_string_desk():
    # the run at 10 finds the five eigenvalues up to 203.99; the four behind the
    # degree-30 polynomial's ring of spurious eigenvalues at |lam - 10| ~ 300
    # come from a second shift at the midpoint of the gap (203.99, 800)
    shifts = _solve_loaded_string_desk().stats["shifts"]
    assert len(shifts) == 2 and shifts[0] == 10.0
    assert shifts[1] == pytest.approx(0.5 * (203.992 + 800.0), rel=1e-5)


@pytest.mark.parametrize(
    "case",
    [pytest.param(_solve_linear_problem_exact, id="linear"), pytest.param(_solve_loaded_string_desk, id="string")],
)
def test_interpol_krylov_path_solves_the_dense_path_cases(case):
    # the cases that a dense eigensolve of the whole linearization used to
    # serve, on the one Krylov path left; each case checks its own pairs
    case()


def test_accepted_pairs_lie_in_expanded_interval():
    op, _ = gen_delay(120, tau=0.001, b=-2.0)
    iv = Interval(-100.0, 50.0)
    s = Settings(nev=3, tol=1e-6, target=1.0, region=iv)
    sol = interpol_solve(op, s, degree=16)
    width = iv.b - iv.a
    for lam in sol.eigenvalues:
        assert iv.a - 0.01 * width <= lam.real <= iv.b + 0.01 * width
        assert abs(lam.imag) <= 1e-8 * max(1.0, abs(lam))

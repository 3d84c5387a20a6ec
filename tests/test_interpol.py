import numpy as np
import pytest
import scipy.sparse as sp

from nepsolve import functions as fn
from nepsolve import interpol
from nepsolve.cli import run
from nepsolve.core import Interval, NepError, NepOperator, Settings
from nepsolve.linalg import SplitSum
from nepsolve.interpol import (
    ChebPoly,
    ColleaguePencil,
    cheb_coeffs,
    cheb_nodes,
    interpol_solve,
)
from nepsolve.problems import gen_delay, gen_loaded_string


def test_cheb_nodes_examples():
    assert np.allclose(cheb_nodes(0), [0.0])
    assert np.allclose(cheb_nodes(1), [np.sqrt(2) / 2, -np.sqrt(2) / 2])
    assert np.allclose(cheb_nodes(2), [np.cos(np.pi / 6), 0.0, np.cos(5 * np.pi / 6)], atol=1e-15)


def scalar_poly(coeffs, interval=(-1.0, 1.0)):
    """1x1 ChebPoly with given Chebyshev coefficients c_0..c_d."""
    # account for the C_0/2 convention: store 2*c_0
    weights = np.array([[2 * coeffs[0], *coeffs[1:]]], dtype=complex)
    return ChebPoly(Interval(*interval), SplitSum([sp.identity(1, format="csr")]), weights)


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


def test_colleague_pencil_tau2_roots():
    p = scalar_poly([0.0, 0.0, 1.0])  # tau_2
    A, B = ColleaguePencil(p).build_dense()
    w = np.linalg.eigvals(np.linalg.solve(B, A))
    assert np.allclose(np.sort(w.real), [-np.sqrt(2) / 2, np.sqrt(2) / 2], atol=1e-12)


def test_colleague_pencil_tau1_root():
    p = scalar_poly([0.0, 1.0])  # tau_1 -> degree 1 pencil
    A, B = ColleaguePencil(p).build_dense()
    w = np.linalg.eigvals(np.linalg.solve(B, A))
    assert np.allclose(w, [0.0], atol=1e-14)


def test_colleague_pencil_random_degree4_vs_companion_oracle():
    rng = np.random.default_rng(1)
    for _ in range(5):
        c = rng.standard_normal(5)
        c[-1] += 3.0 * np.sign(c[-1]) if c[-1] != 0 else 3.0
        p = scalar_poly(list(c))
        A, B = ColleaguePencil(p).build_dense()
        w = np.sort_complex(np.linalg.eigvals(np.linalg.solve(B, A)))
        # oracle: convert the Chebyshev combination to monomial coefficients
        # and take companion-matrix roots
        mono = np.polynomial.chebyshev.cheb2poly(np.concatenate([[c[0]], c[1:]]))
        roots = np.sort_complex(np.roots(mono[::-1]))
        assert np.max(np.abs(w - roots)) <= 1e-8 * max(1.0, np.max(np.abs(roots)))


@pytest.mark.parametrize("d", [1, 4])
def test_toar_expand_matches_dense(d):
    # S (I_d (x) U) g = (I_d (x) [U, y0]) G against the dense S = (A - ts B)^{-1} B
    rng = np.random.default_rng(2)
    n = 3
    mats = [sp.csr_matrix(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) for _ in range(d + 1)]
    pencil = ColleaguePencil(ChebPoly(Interval(-1.0, 1.0), SplitSum(mats), np.eye(d + 1)))
    A, B = pencil.build_dense()
    ts = 0.17 - 0.05j
    pencil.factor(ts)
    S = np.linalg.solve(A - ts * B, B)
    for mu in (1, 2, 2, 3):
        U = np.linalg.qr(rng.standard_normal((n, mu)) + 1j * rng.standard_normal((n, mu)))[0]
        g = rng.standard_normal((d, mu)) + 1j * rng.standard_normal((d, mu))
        y0, G = pencil.toar_expand(U, g)
        assert G.shape == (d, mu + 1)
        want = S @ np.concatenate([U @ gk for gk in g])
        got = np.concatenate([np.column_stack([U, y0]) @ Gk for Gk in G])
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


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


@pytest.mark.parametrize("n", [136, 200])  # dense pencil path, Krylov path
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
    op, oracle = gen_delay(300, tau=0.001, b=-2.0)
    s = Settings(nev=3, ncv=32, tol=1e-6, target=1.0, region=Interval(-100.0, 50.0))
    sol = interpol_solve(op, s, degree=20)
    assert sol.converged
    assert len(sol.pairs) >= 3
    roots = oracle.roots()
    for p in sol.pairs:
        assert np.min(np.abs(roots - p.lam)) <= 1e-6 * abs(p.lam)
        assert p.eta <= 1e-6


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
    return sol


def test_interpol_loaded_string_desk():
    assert _solve_loaded_string_desk().stats.get("pencil") == "dense"


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(_solve_linear_problem_exact, id="linear"),
        pytest.param(
            _solve_loaded_string_desk,
            id="string",
            marks=pytest.mark.xfail(
                strict=True,
                reason="CHANGES.md FOUND: interpol's Krylov path fails the dense path's string case "
                "(4 of 9 pairs); ROADMAP item 7 mends it",
            ),
        ),
    ],
)
def test_interpol_krylov_path_solves_the_dense_path_cases(case, monkeypatch):
    monkeypatch.setattr(interpol, "DENSE_PENCIL_CAP", 0)
    assert case().stats.get("pencil") != "dense"


def test_accepted_pairs_lie_in_expanded_interval():
    op, _ = gen_delay(120, tau=0.001, b=-2.0)
    iv = Interval(-100.0, 50.0)
    s = Settings(nev=3, tol=1e-6, target=1.0, region=iv)
    sol = interpol_solve(op, s, degree=16)
    width = iv.b - iv.a
    for lam in sol.eigenvalues:
        assert iv.a - 0.01 * width <= lam.real <= iv.b + 0.01 * width
        assert abs(lam.imag) <= 1e-8 * max(1.0, abs(lam))

import numpy as np
import pytest
import scipy.sparse as sp

from nepsolve import functions as fn
from nepsolve.core import (
    EigenPair,
    EigenSolution,
    Ellipse,
    Interval,
    NepError,
    NepOperator,
    Polygon,
    Rectangle,
    Settings,
    apply_resolvent,
    backward_error,
)
from nepsolve.linalg import inf_norm
from nepsolve.problems import gen_delay, gen_loaded_string


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_split_op(rng, n=10, ell=3):
    terms = []
    makers = [
        lambda: fn.polynomial([rng.standard_normal(), rng.standard_normal()]),
        lambda: fn.exponential(alpha=0.2 * rng.standard_normal()),
        lambda: fn.rational([1.0, rng.standard_normal()], [1.0, 4.0 + rng.random()]),
    ]
    for i in range(ell):
        A = sp.csr_matrix(rand_complex(rng, n, n))
        terms.append((A, makers[i % 3]()))
    return NepOperator(terms=terms)


# -- assembly -------------------------------------------------------------------


def test_delay_assembly_at_zero():
    # at lambda = 0 the operator reduces to A + B
    op, _ = gen_delay(12, tau=0.001, b=-2.0)
    (A, _), (_, _), (B, _) = op.terms
    T0 = op.assemble(0.0).toarray()
    assert np.allclose(T0, A.toarray() + B.toarray(), atol=1e-14)


def test_single_constant_term():
    A = sp.csr_matrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
    op = NepOperator(terms=[(A, fn.constant(1.0))])
    for lam in (0.0, 3.0, -1.0 + 2.0j):
        assert np.allclose(op.assemble(lam).toarray(), A.toarray())


def test_assembly_matches_densified_sum():
    rng = np.random.default_rng(0)
    op = random_split_op(rng)
    lam = 0.3 - 0.7j
    ref = sum(f(lam) * A.toarray() for A, f in op.terms)
    assert np.allclose(op.assemble(lam).toarray(), ref, atol=1e-13)


def test_apply_examples_and_oracle():
    rng = np.random.default_rng(1)
    op = random_split_op(rng)
    lam = 1.2 + 0.1j
    assert np.allclose(op.apply(lam, np.zeros(10)), 0.0)
    v = rand_complex(rng, 10)
    ref = op.assemble(lam) @ v
    got = op.apply(lam, v)
    assert np.linalg.norm(got - ref) <= 1e-14 * max(1.0, np.linalg.norm(ref)) * 10

    eye = sp.identity(3, format="csr")
    op2 = NepOperator(terms=[(eye, fn.polynomial([1.0, 0.0]))])
    w = np.array([1.0, 2.0, 3.0], dtype=complex)
    assert np.allclose(op2.apply(2.5, w), 2.5 * w)


@pytest.mark.parametrize("problem", ["delay", "loaded_string"])
def test_split_sums_equal_the_per_term_loops_bitwise(problem):
    # the loops the operator ran before its sums moved into one kernel
    op = gen_delay(40)[0] if problem == "delay" else gen_loaded_string(40)[0]
    rng = np.random.default_rng(4)
    v = rand_complex(rng, op.n)
    for lam in (0.5, -160.25 + 0.0j, 7.3 + 2.1j):
        apply_ref = np.zeros(op.n, dtype=complex)
        adjoint_ref = np.zeros(op.n, dtype=complex)
        for A, f in op.terms:
            apply_ref += f(lam) * (A @ v)
            adjoint_ref += np.conj(f(lam)) * (A.conj().T.tocsr() @ v)
        scale_ref = float(sum(abs(f(lam)) * inf_norm(A) for A, f in op.terms))
        assert np.array_equal(op.apply(lam, v), apply_ref)
        assert np.array_equal(op.apply_adjoint(lam, v), adjoint_ref)
        assert op.norm_scale(lam) == scale_ref


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(2)
    op = random_split_op(rng)
    h = 1e-6
    for lam in (0.4, -0.8 + 0.3j):
        D = op.assemble_deriv(lam).toarray()
        FD = (op.assemble(lam + h).toarray() - op.assemble(lam - h).toarray()) / (2 * h)
        assert np.max(np.abs(D - FD)) <= 1e-6 * max(1.0, np.max(np.abs(D)))


def test_callback_operator():
    A = np.diag([1.0, 2.0]).astype(complex)
    op = NepOperator(
        t_fn=lambda lam: sp.csr_matrix(A - lam * np.eye(2)),
        tprime_fn=lambda lam: sp.csr_matrix(-np.eye(2, dtype=complex)),
        n=2,
    )
    assert np.allclose(op.assemble(0.5).toarray(), A - 0.5 * np.eye(2))
    assert np.allclose(op.assemble_deriv(9.0).toarray(), -np.eye(2))
    assert not op.is_split


# -- backward error ----------------------------------------------------------------


def test_backward_error_exact_pair():
    A = sp.csr_matrix(np.diag([1.0, 3.0]))
    eye = sp.identity(2, format="csr")
    op = NepOperator(terms=[(A, fn.constant(1.0)), (eye, fn.polynomial([-1.0, 0.0]))])
    x = np.array([1.0, 0.0], dtype=complex)
    assert backward_error(op, 1.0, x) <= 1e-15


def test_backward_error_single_term_matches_callback_form():
    # with one constant-coefficient term the split and callback scalings agree
    rng = np.random.default_rng(3)
    A = sp.csr_matrix(rand_complex(rng, 6, 6))
    op_split = NepOperator(terms=[(A, fn.constant(1.0))])
    op_cb = NepOperator(t_fn=lambda lam: A, tprime_fn=lambda lam: 0 * A, n=6)
    x = rand_complex(rng, 6)
    assert backward_error(op_split, 0.7, x) == pytest.approx(backward_error(op_cb, 0.7, x), rel=1e-13)


def test_backward_error_identity_and_scaling_invariance():
    rng = np.random.default_rng(4)
    op = random_split_op(rng)
    x = rand_complex(rng, 10)
    lam = 0.9 - 0.2j
    eta = backward_error(op, lam, x)
    # eta * f(lam) * ||x|| equals the residual norm
    resid = np.linalg.norm(op.apply(lam, x))
    assert eta * op.norm_scale(lam) * np.linalg.norm(x) == pytest.approx(resid, rel=1e-13)
    for c in (2.0, -0.5j, 1e-7 + 3.0j):
        assert backward_error(op, lam, c * x) == pytest.approx(eta, rel=1e-12)


def test_backward_error_zero_vector_rejected():
    rng = np.random.default_rng(5)
    op = random_split_op(rng)
    with pytest.raises(ValueError):
        backward_error(op, 0.0, np.zeros(10))


# -- regions -----------------------------------------------------------------------


def test_region_contains_examples():
    assert Interval(4.0, 800.0).contains(10.0)
    assert Rectangle(-1.0, 20.0, -2.0, 0.0).contains(5.3 - 0.25j)
    e = Ellipse(1.0 + 1.0j, 2.0, 1.0)
    assert e.contains(e.center)
    assert not Interval(4.0, 800.0).contains(3.0)
    assert not Interval(4.0, 800.0).contains(10.0 + 1.0j)


def test_interval_boundary_is_the_interval():
    pts = Interval(-1.0, 1.0).boundary_points(11)
    assert np.allclose(pts.real, np.linspace(-1, 1, 11))
    assert np.allclose(pts.imag, 0.0)


def test_ellipse_boundary_satisfies_equation():
    e = Ellipse(0.5 - 0.25j, 2.0, 0.7)
    pts = e.boundary_points(257)
    dz = pts - e.center
    vals = (dz.real / e.rx) ** 2 + (dz.imag / e.ry) ** 2
    assert np.max(np.abs(vals - 1.0)) <= 1e-12


def test_rectangle_and_polygon_boundaries():
    r = Rectangle(0.0, 2.0, 0.0, 1.0)
    pts = r.boundary_points(600)
    for z in pts:
        on_edge = (
            min(abs(z.real - 0), abs(z.real - 2)) <= 1e-12 and 0 <= z.imag <= 1
        ) or (min(abs(z.imag - 0), abs(z.imag - 1)) <= 1e-12 and 0 <= z.real <= 2)
        assert on_edge
    p = Polygon((0.0, 2.0, 1.0 + 2.0j))
    bpts = p.boundary_points(30)
    assert len(bpts) == 30
    assert p.contains(1.0 + 0.5j)
    assert not p.contains(5.0)


def test_degenerate_regions_rejected():
    with pytest.raises(ValueError):
        Rectangle(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Ellipse(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, 2.0)
    Interval(2.0, 3.0)  # fine


# -- settings ------------------------------------------------------------------------


def test_settings_defaults_and_validation():
    s = Settings(nev=5)
    assert s.ncv_effective == max(10, 20)
    s2 = Settings(nev=9)
    assert s2.ncv_effective == 24
    assert s2.tol == 1e-8
    with pytest.raises(ValueError):
        Settings(nev=0)
    with pytest.raises(ValueError):
        Settings(nev=5, ncv=5)
    with pytest.raises(ValueError):
        Settings(which="weird")


# -- resolvent ------------------------------------------------------------------------


def test_resolvent_scalar_example():
    a = 2.5
    one = sp.identity(1, format="csr")
    op = NepOperator(terms=[(one, fn.constant(a)), (one, fn.polynomial([-1.0, 0.0]))])
    sol = EigenSolution(
        pairs=[EigenPair(a + 0j, np.array([1.0 + 0j]), 0.0, y=np.array([1.0 + 0j]))]
    )
    for z in (0.3, 1.0 + 1.0j):
        v = np.array([0.7 - 0.2j])
        out = apply_resolvent(sol, op, z, v)
        assert out[0] == pytest.approx(v[0] / (a - z), rel=1e-14)
    assert np.allclose(apply_resolvent(sol, op, 0.1, np.zeros(1)), 0.0)


def test_resolvent_requires_left_vectors_and_rejects_poles():
    op, _ = gen_delay(4)
    sol = EigenSolution(pairs=[EigenPair(1.0, np.ones(4), 0.1)])
    with pytest.raises(NepError):
        apply_resolvent(sol, op, 0.0, np.ones(4))
    one = sp.identity(1, format="csr")
    op2 = NepOperator(terms=[(one, fn.constant(2.0)), (one, fn.polynomial([-1.0, 0.0]))])
    sol2 = EigenSolution(pairs=[EigenPair(2.0 + 0j, np.ones(1), 0.0, y=np.ones(1))])
    with pytest.raises(NepError):
        apply_resolvent(sol2, op2, 2.0 + 0j, np.ones(1))


def test_resolvent_full_linear_spectrum_matches_inverse():
    rng = np.random.default_rng(6)
    n = 8
    A = rand_complex(rng, n, n)
    eye = sp.identity(n, format="csr")
    op = NepOperator(terms=[(sp.csr_matrix(A), fn.constant(1.0)), (eye, fn.polynomial([-1.0, 0.0]))])
    w, V = np.linalg.eig(A)
    wl, U = np.linalg.eig(A.conj().T)
    pairs = []
    for i in range(n):
        j = int(np.argmin(np.abs(np.conj(wl) - w[i])))
        pairs.append(
            EigenPair(w[i], V[:, i] / np.linalg.norm(V[:, i]), 0.0, y=U[:, j] / np.linalg.norm(U[:, j]))
        )
    sol = EigenSolution(pairs=pairs)
    for _ in range(10):
        z = complex(rng.standard_normal() * 2, rng.standard_normal() * 2)
        if np.min(np.abs(w - z)) < 0.3:
            continue
        v = rand_complex(rng, n)
        ref = np.linalg.solve(A - z * np.eye(n), -v) * -1.0
        got = apply_resolvent(sol, op, z, v)
        assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)


def test_which_selection_orderings():
    lams = np.array([1.0, -5.0, 3.0 + 4.5j])
    key_t = Settings(nev=1, target=0.9).sort_key()
    assert np.argmin(key_t(lams)) == 0
    key_m = Settings(nev=1, which="largest-magnitude").sort_key()
    assert np.argmin(key_m(lams)) == 2
    key_r = Settings(nev=1, which="largest-real").sort_key()
    assert np.argmin(key_r(lams)) == 2

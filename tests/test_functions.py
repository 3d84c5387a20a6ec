import math
import zlib

import numpy as np
import pytest

from nepsolve import functions as fn
from nepsolve.functions import FunctionDomainError


def random_points(rng, count, radius=2.0, avoid_negative_axis=False):
    pts = rng.uniform(-radius, radius, count) + 1j * rng.uniform(-radius, radius, count)
    if avoid_negative_axis:
        pts = pts[np.abs(pts.imag) > 1e-3]
        pts = pts[np.abs(pts) > 1e-2]
    return pts


ALL_KINDS = [
    ("rational", lambda: fn.rational([1.0, -2.0, 0.5], [1.0, 3.0])),
    ("exp", lambda: fn.exponential(alpha=0.7, beta=1.3)),
    ("log", lambda: fn.logarithm()),
    ("sqrt", lambda: fn.square_root()),
    ("invsqrt", lambda: fn.inv_square_root()),
    ("phi1", lambda: fn.phi(1)),
    ("phi3", lambda: fn.phi(3)),
    ("combine", lambda: fn.combine("mul", fn.exponential(), fn.polynomial([1.0, 1.0]))),
]


def test_eval_examples():
    f1 = fn.rational([-1.0, 0.0])          # coefficients highest-degree first
    assert f1(5.0) == -5.0
    f3 = fn.exponential(alpha=-0.001)
    assert f3(0.0) == 1.0
    assert fn.phi(1)(0.0) == pytest.approx(1.0, abs=1e-15)
    assert fn.square_root()(4.0) == pytest.approx(2.0)


def test_deriv_examples():
    assert fn.exponential(alpha=-0.001).deriv(0.0) == pytest.approx(-0.001)
    f1 = fn.rational([-1.0, 0.0])
    for x in (0.3, -2.0, 1j):
        assert f1.deriv(x) == pytest.approx(-1.0)
    assert fn.square_root().deriv(4.0) == pytest.approx(0.25)


def test_scaling_semantics():
    g = fn.exponential(alpha=-0.5, beta=2.0)
    x = 0.7 + 0.2j
    assert g(x) == pytest.approx(2.0 * np.exp(-0.5 * x), rel=1e-14)
    r = fn.rational([1.0, 0.0], alpha=3.0, beta=-1.0)
    assert r(2.0) == pytest.approx(-6.0)


def test_phi_recurrence_definition():
    # phi_k(x) = (phi_{k-1}(x) - 1/(k-1)!) / x away from the origin
    x = 1.7 - 0.3j
    for k in range(1, 5):
        lhs = fn.phi(k)(x)
        rhs = (fn.phi(k - 1)(x) - 1.0 / math.factorial(k - 1)) / x
        assert lhs == pytest.approx(rhs, rel=1e-12)
    # analytic limit at 0
    for k in range(5):
        assert fn.phi(k)(0.0) == pytest.approx(1.0 / math.factorial(k), rel=1e-13)


@pytest.mark.parametrize("name,make", ALL_KINDS)
def test_derivative_finite_difference(name, make):
    f = make()
    rng = np.random.default_rng(zlib.adler32(name.encode()))
    pts = random_points(rng, 100, avoid_negative_axis=name in ("log", "sqrt", "invsqrt"))
    h = 1e-5
    for x in pts:
        if name == "rational" and abs(x + 3.0) < 0.2:
            continue
        d = f.deriv(x)
        fd = (f(x + h) - f(x - h)) / (2 * h)
        scale = max(1.0, abs(d))
        assert abs(d - fd) <= 200 * h * h * scale, (name, x)


def test_combine_pointwise_identities():
    f = fn.exponential()
    g = fn.polynomial([1.0, 2.0])
    x = 0.37 - 0.81j
    assert fn.combine("add", f, g)(x) == f(x) + g(x)
    assert fn.combine("mul", f, g)(x) == f(x) * g(x)
    assert fn.combine("div", f, g)(x) == f(x) / g(x)
    assert fn.combine("compose", g, f)(x) == f(g(x))  # right after left


def test_pole_and_domain_errors():
    r = fn.rational([1.0], [1.0, -1.0])
    with pytest.raises(FunctionDomainError):
        r(1.0)
    with pytest.raises(FunctionDomainError):
        fn.logarithm()(0.0)
    with pytest.raises(FunctionDomainError):
        fn.inv_square_root()(0.0)
    with pytest.raises(ValueError):
        fn.rational([1.0], [0.0])  # zero denominator polynomial
    with pytest.raises(ValueError):
        fn.ScalarFunction("nosuch")


def test_matrix_examples():
    H = np.diag([0.0, np.log(2.0)])
    E = fn.exponential().eval_matrix(H)
    assert np.allclose(E, np.diag([1.0, 2.0]), atol=1e-14)

    J = np.array([[2.0, 1.0], [0.0, 2.0]])
    sq = fn.polynomial([1.0, 0.0, 0.0]).eval_matrix(J)
    assert np.allclose(sq, [[4.0, 4.0], [0.0, 4.0]], atol=1e-12)


def test_matrix_jordan_block_derivative_rule():
    # f([[a,1],[0,a]]) = [[f(a), f'(a)], [0, f(a)]] exactly for these kinds
    for make in (lambda: fn.exponential(), lambda: fn.polynomial([1.0, -1.0, 2.0])):
        f = make()
        a = 1.3
        J = np.array([[a, 1.0], [0.0, a]])
        F = f.eval_matrix(J)
        assert abs(F[0, 0] - f(a)) <= 1e-12 * max(1, abs(f(a)))
        assert abs(F[0, 1] - f.deriv(a)) <= 1e-12 * max(1, abs(f.deriv(a)))


@pytest.mark.parametrize("name,make", ALL_KINDS)
def test_matrix_vs_eigendecomposition_oracle(name, make):
    f = make()
    rng = np.random.default_rng(1000 + zlib.adler32(name.encode()) % 1000)
    for _ in range(20):
        # random diagonalizable matrix with spectrum in a safe half plane
        V = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        if abs(np.linalg.det(V)) < 1e-6:
            continue
        lams = rng.uniform(0.5, 3.0, 6) + 1j * rng.uniform(-1.0, 1.0, 6)
        H = V @ np.diag(lams) @ np.linalg.inv(V)
        F = f.eval_matrix(H)
        ref = V @ np.diag([f(l) for l in lams]) @ np.linalg.inv(V)
        rel = np.linalg.norm(F - ref) / max(np.linalg.norm(ref), 1e-30)
        assert rel <= 1e-9, (name, rel)


def test_matrix_diagonal_matches_scalar():
    lams = np.array([0.5, 1.5, 2.5, 3.0])
    H = np.diag(lams)
    for name, make in ALL_KINDS:
        f = make()
        F = f.eval_matrix(H)
        ref = np.diag([f(l) for l in lams])
        assert np.allclose(F, ref, rtol=1e-11, atol=1e-13), name


def test_matrix_commutes_with_argument():
    rng = np.random.default_rng(5)
    H = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    H = H + 5.0 * np.eye(8)   # keep the spectrum away from branch cuts
    for name, make in ALL_KINDS:
        f = make()
        F = f.eval_matrix(H)
        lhs = np.linalg.norm(F @ H - H @ F)
        assert lhs <= 1e-12 * np.linalg.norm(H) * np.linalg.norm(F), name


def test_matrix_dimension_cap():
    H = np.eye(300)
    with pytest.raises(ValueError):
        fn.exponential().eval_matrix(H)
    # a larger explicit cap is allowed
    out = fn.exponential().eval_matrix(H, max_dim=512)
    assert out.shape == (300, 300)


def test_descriptor_round_trip():
    fns = [
        fn.rational([1.0, -2.0], [1.0, 0.5], alpha=2.0, beta=1.0 + 1.0j),
        fn.phi(2, beta=0.5),
        fn.combine("div", fn.exponential(alpha=-0.3), fn.polynomial([1.0, 1.0])),
    ]
    for f in fns:
        doc = fn.function_to_descriptor(f)
        g = fn.function_from_descriptor(doc)
        for x in (0.3, 1.0 - 0.5j, -2.0 + 1.0j):
            assert g(x) == pytest.approx(f(x), rel=1e-14)


def test_descriptor_errors():
    with pytest.raises(ValueError):
        fn.function_from_descriptor({"type": "bogus"})
    with pytest.raises(ValueError):
        fn.function_from_descriptor({"type": "rational", "alpha": [1, 2, 3]})


def test_matrix_sqrt_breakdown_on_nilpotent():
    # zero eigenvalue with a nontrivial Jordan block has no square root
    J = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(FunctionDomainError):
        fn.square_root().eval_matrix(J)


def test_rational_derivative_coefficients_are_cached():
    f = fn.rational([2.0, -1.0, 3.0], [1.0, 0.5])
    g = fn.rational([2.0, -1.0, 3.0], [1.0, 0.5])
    z = 0.7 - 0.2j
    # quotient rule with freshly built coefficients
    p, q = np.array([2.0, -1.0, 3.0], complex), np.array([1.0, 0.5], complex)
    pv, qv = np.polyval(p, z), np.polyval(q, z)
    ref = (np.polyval(np.polyder(p), z) * qv - pv * np.polyval(np.polyder(q), z)) / (qv * qv)
    assert f.deriv(z) == pytest.approx(ref, rel=1e-14)
    assert f._rational_coeffs is f._rational_coeffs
    # the cache leaves value semantics alone
    assert f == g and hash(f) == hash(g)
    assert f.deriv(z) == g.deriv(z)

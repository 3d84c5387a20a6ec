import numpy as np
import pytest
import scipy.sparse as sp

from nepsolve import functions as fn
from nepsolve.core import NepError, NepOperator, backward_error
from nepsolve.deflation import (
    ExtSolveContext,
    ExtVector,
    InvariantPair,
    ProjectionContext,
    eval_phi,
    eval_phi_deriv,
    ext_apply,
    ext_bilinear,
)
from nepsolve.linalg import LinearSolverConfig
from nepsolve.problems import gen_delay, gen_loaded_string


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def linear_problem(rng, n):
    """T(lam) = A - lam I with A random diagonalizable."""
    A = rand_complex(rng, n, n)
    op = NepOperator(
        terms=[
            (sp.csr_matrix(A), fn.constant(1.0)),
            (sp.identity(n, format="csr"), fn.polynomial([-1.0, 0.0])),
        ]
    )
    return op, A


def invariant_pair_from_linear(op, A, k):
    """Exactly invariant pair from k eigenpairs of the linear problem."""
    w, V = np.linalg.eig(A)
    X = np.zeros((A.shape[0], 0), dtype=complex)
    pair = InvariantPair.empty(A.shape[0])
    for i in range(k):
        x = V[:, i] / np.linalg.norm(V[:, i])
        pair = pair.extend(op, w[i], x, np.zeros(pair.k, dtype=complex))
    return pair, w[:k]


def delay_invariant_pair(n, k, tau=0.001, b=-2.0):
    """Exact pair for the commuting delay problem (shared eigenvectors)."""
    op, oracle = gen_delay(n, tau, b)
    roots = oracle.nearest(1.0, k)
    j = np.arange(1, n + 1)
    mu = oracle.laplacian_eigenvalues()
    pair = InvariantPair.empty(n)
    for lam in roots:
        idx = int(np.argmin(np.abs(-lam + mu + b * np.exp(-tau * lam))))
        x = np.sin((idx + 1) * np.pi * j / (n + 1)).astype(complex)
        pair = pair.extend(op, lam, x / np.linalg.norm(x), np.zeros(pair.k, dtype=complex))
    return op, pair, roots


def string_invariant_pair(n, k, target=10.0):
    """Exact pair of the k loaded-string eigenpairs nearest the target, with
    eigenvectors from the null space of T (real, distinct eigenvalues)."""
    op, oracle = gen_loaded_string(n)
    w = oracle.all_eigenvalues()
    pair = InvariantPair.empty(n)
    for lam in w[np.argsort(np.abs(w - target))[:k]]:
        x = np.linalg.svd(op.assemble(lam).toarray())[2][-1].conj()
        pair = pair.extend(op, lam, x, np.zeros(pair.k, dtype=complex))
    return op, pair


def dense_extended_matrix(pair, op, lam, deriv=False):
    """Dense [[T, U], [A, B]] oracle built entry by entry from the blocks."""
    n, k = pair.n, pair.k
    m = n + k
    M = np.zeros((m, m), dtype=complex)
    eyes = np.eye(m)
    for j in range(m):
        y1, y2 = ext_apply(ExtVector(pair, op, eyes[:n, j], eyes[n:, j]), lam, deriv=deriv)
        M[:n, j] = y1
        M[n:, j] = y2
    return M


def dense_extended_matrix_explicit(pair, op, lam):
    """Independent dense construction of the extended operator blocks."""
    n, k = pair.n, pair.k
    X, H = pair.X, pair.H
    T = op.assemble(lam).toarray()
    U = np.zeros((n, k), dtype=complex)
    for (Ai, f) in op.terms:
        U += (Ai @ X) @ eval_phi(f, H, lam)
    A_blk = np.zeros((k, n), dtype=complex)
    for i in range(pair.p + 1):
        A_blk += (lam**i) * np.linalg.matrix_power(H, i).conj().T @ X.conj().T
    B_blk = np.zeros((k, k), dtype=complex)
    for i in range(1, pair.p + 1):
        qi = sum(lam**j * np.linalg.matrix_power(H, i - j - 1) for j in range(i))
        B_blk += np.linalg.matrix_power(H, i).conj().T @ X.conj().T @ X @ qi
    M = np.zeros((n + k, n + k), dtype=complex)
    M[:n, :n] = T
    M[:n, n:] = U
    M[n:, :n] = A_blk
    M[n:, n:] = B_blk
    return M


# -- phi blocks ---------------------------------------------------------------------


def test_phi_constant_and_identity():
    H = np.array([[1.0, 0.5], [0.0, 2.0]], dtype=complex)
    assert np.allclose(eval_phi(fn.constant(3.0), H, 0.7), 0.0)
    assert np.allclose(eval_phi(fn.polynomial([1.0, 0.0]), H, 0.7), np.eye(2))


def test_phi_closed_form_identity():
    # phi_f(lam) = (f(lam) I - f(H)) (lam I - H)^{-1} for lam outside spec(H)
    rng = np.random.default_rng(0)
    H = rand_complex(rng, 3, 3)
    f = fn.exponential()
    lam = 2.7 - 0.4j
    phi = eval_phi(f, H, lam)
    ref = (f(lam) * np.eye(3) - f.eval_matrix(H)) @ np.linalg.inv(lam * np.eye(3) - H)
    assert np.allclose(phi, ref, atol=1e-10)


def test_phi_derivative_matches_finite_differences():
    rng = np.random.default_rng(1)
    H = rand_complex(rng, 3, 3)
    for f in (fn.exponential(), fn.rational([1.0, 0.0], [1.0, 5.0])):
        lam = 0.9 + 0.3j
        h = 1e-6
        d = eval_phi_deriv(f, H, lam)
        fd = (eval_phi(f, H, lam + h) - eval_phi(f, H, lam - h)) / (2 * h)
        assert np.max(np.abs(d - fd)) <= 1e-6 * max(1.0, np.max(np.abs(d)))


def test_u_block_closed_form_agreement_on_invariant_pairs():
    # the contour-integral U and T(lam) X (lam I - H)^{-1} agree only when the
    # pair is invariant; verified here on exactly invariant pairs
    rng = np.random.default_rng(2)
    op, A = linear_problem(rng, 8)
    pair, _ = invariant_pair_from_linear(op, A, 3)
    for lam in (0.3 + 0.9j, 2.0, -1.5 - 0.5j):
        if np.min(np.abs(np.linalg.eigvals(pair.H) - lam)) < 0.2:
            continue
        U_phi = np.zeros((8, 3), dtype=complex)
        for (Ai, f) in op.terms:
            U_phi += (Ai @ pair.X) @ eval_phi(f, pair.H, lam)
        T = op.assemble(lam).toarray()
        U_short = T @ pair.X @ np.linalg.inv(lam * np.eye(3) - pair.H)
        assert np.max(np.abs(U_phi - U_short)) <= 1e-9 * max(1.0, np.max(np.abs(U_short)))


def test_u_block_exp_agreement_on_delay_pair():
    op, pair, _ = delay_invariant_pair(12, 3)
    lam = 0.5 + 0.2j
    k = pair.k
    U_phi = np.zeros((12, k), dtype=complex)
    for (Ai, f) in op.terms:
        U_phi += (Ai @ pair.X) @ eval_phi(f, pair.H, lam)
    T = op.assemble(lam).toarray()
    U_short = T @ pair.X @ np.linalg.inv(lam * np.eye(k) - pair.H)
    assert np.max(np.abs(U_phi - U_short)) <= 1e-9 * max(1.0, np.max(np.abs(U_short)))


# -- extended apply -------------------------------------------------------------------


def test_ext_apply_empty_pair_reduces_to_plain():
    rng = np.random.default_rng(3)
    op, _ = linear_problem(rng, 6)
    pair = InvariantPair.empty(6)
    z = rand_complex(rng, 6)
    y1, y2 = ext_apply(ExtVector(pair, op, z, np.zeros(0)), 0.4)
    assert np.allclose(y1, op.apply(0.4, z))
    assert y2.size == 0


def test_ext_apply_zero_vector():
    rng = np.random.default_rng(4)
    op, A = linear_problem(rng, 6)
    pair, _ = invariant_pair_from_linear(op, A, 2)
    y1, y2 = ext_apply(ExtVector(pair, op, np.zeros(6), np.zeros(2)), 1.1)
    assert np.allclose(y1, 0) and np.allclose(y2, 0)


def test_ext_apply_matches_dense_oracle():
    rng = np.random.default_rng(5)
    op, A = linear_problem(rng, 6)
    pair, _ = invariant_pair_from_linear(op, A, 1)
    lam = 0.8 - 0.1j
    M = dense_extended_matrix(pair, op, lam)
    Mref = dense_extended_matrix_explicit(pair, op, lam)
    assert np.max(np.abs(M - Mref)) <= 1e-12 * max(1.0, np.max(np.abs(Mref)))


def test_ext_apply_deriv_matches_finite_difference():
    op, pair, _ = delay_invariant_pair(10, 2)
    rng = np.random.default_rng(6)
    z1, z2 = rand_complex(rng, 10), rand_complex(rng, 2)
    lam = 0.4 + 0.05j
    h = 1e-6
    v = ExtVector(pair, op, z1, z2)
    d1, d2 = ext_apply(v, lam, deriv=True)
    a1, a2 = ext_apply(v, lam + h)
    b1, b2 = ext_apply(v, lam - h)
    assert np.linalg.norm(d1 - (a1 - b1) / (2 * h)) <= 1e-4 * max(1.0, np.linalg.norm(d1))
    assert np.linalg.norm(d2 - (a2 - b2) / (2 * h)) <= 1e-4 * max(1.0, np.linalg.norm(d2))


# -- extended solve -------------------------------------------------------------------


def test_ext_solve_empty_pair_is_plain_solve():
    rng = np.random.default_rng(7)
    op, A = linear_problem(rng, 6)
    pair = InvariantPair.empty(6)
    b = rand_complex(rng, 6)
    x1, x2 = ExtSolveContext(pair, op, 0.3).solve(b)
    assert np.linalg.norm(op.assemble(0.3) @ x1 - b) <= 1e-10 * np.linalg.norm(b)
    assert x2.size == 0


def test_ext_solve_round_trip():
    op, pair, _ = delay_invariant_pair(12, 3)
    rng = np.random.default_rng(8)
    sigma = 0.6 + 0.1j
    ctx = ExtSolveContext(pair, op, sigma)
    b1, b2 = rand_complex(rng, 12), rand_complex(rng, 3)
    x1, x2 = ctx.solve(b1, b2)
    y1, y2 = ext_apply(ExtVector(pair, op, x1, x2), sigma)
    err = np.linalg.norm(np.concatenate([y1 - b1, y2 - b2]))
    assert err <= 1e-10 * np.linalg.norm(np.concatenate([b1, b2]))


def test_ext_solve_zero_rhs():
    op, pair, _ = delay_invariant_pair(10, 2)
    x1, x2 = ExtSolveContext(pair, op, 0.5).solve(np.zeros(10), np.zeros(2))
    assert np.allclose(x1, 0) and np.allclose(x2, 0)


def test_ext_solve_matches_dense_inverse():
    rng = np.random.default_rng(9)
    op, A = linear_problem(rng, 8)
    pair, _ = invariant_pair_from_linear(op, A, 3)
    sigma = 0.2 + 0.4j
    M = dense_extended_matrix(pair, op, sigma)
    b = rand_complex(rng, 11)
    ref = np.linalg.solve(M, b)
    x1, x2 = ExtSolveContext(pair, op, sigma).solve(b[:8], b[8:])
    got = np.concatenate([x1, x2])
    assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("mode", ["direct", "gmres"])
@pytest.mark.parametrize("k", [0, 1, 3])
@pytest.mark.parametrize("problem", ["delay", "string"])
def test_adjoint_ext_solve_matches_dense_oracle(problem, k, mode):
    if problem == "delay":
        op, pair, _ = delay_invariant_pair(16, k)
        sigma = 0.6 + 0.1j
    else:
        op, pair = string_invariant_pair(16, k)
        sigma = 12.0 + 0.5j
    n = op.n
    M = dense_extended_matrix_explicit(pair, op, sigma)
    ctx = ExtSolveContext(pair, op, sigma, LinearSolverConfig(mode=mode, tol=1e-12))
    c = rand_complex(np.random.default_rng(31), n + k)
    y1, y2 = ctx.solve_adjoint(c[:n], c[n:])
    assert y1.shape == (n,) and y2.shape == (k,)
    y = np.concatenate([y1, y2])
    assert np.linalg.norm(M.conj().T @ y - c) <= 1e-10 * np.linalg.norm(M) * np.linalg.norm(y)


# -- extended projection -----------------------------------------------------------------


def test_ext_project_empty_pair():
    rng = np.random.default_rng(10)
    op, A = linear_problem(rng, 8)
    pair = InvariantPair.empty(8)
    V1, _ = np.linalg.qr(rand_complex(rng, 8, 3))
    M = ProjectionContext(pair, op, V1).value(0.7)
    ref = V1.conj().T @ op.assemble(0.7).toarray() @ V1
    assert np.allclose(M, ref, atol=1e-12)


def test_ext_project_single_vector_is_rayleigh_quotient():
    rng = np.random.default_rng(11)
    op, A = linear_problem(rng, 8)
    pair, _ = invariant_pair_from_linear(op, A, 2)
    v = rand_complex(rng, 8)
    v /= np.linalg.norm(v)
    M = ProjectionContext(pair, op, np.concatenate([v, np.zeros(2)])[:, None]).value(0.9)
    ref = np.vdot(v, op.assemble(0.9) @ v)
    assert M.shape == (1, 1)
    assert M[0, 0] == pytest.approx(ref, rel=1e-12)


def test_ext_project_matches_dense_oracle():
    rng = np.random.default_rng(12)
    op, A = linear_problem(rng, 8)
    pair, _ = invariant_pair_from_linear(op, A, 2)
    Vfull, _ = np.linalg.qr(rand_complex(rng, 10, 4))
    V1, V2 = Vfull[:8], Vfull[8:]
    lam = 1.3 - 0.2j
    M = ProjectionContext(pair, op, Vfull).value(lam)
    Mdense = dense_extended_matrix(pair, op, lam)
    ref = Vfull.conj().T @ Mdense @ Vfull
    assert np.max(np.abs(M - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_projection_context_incremental_audit():
    rng = np.random.default_rng(13)
    op, A = linear_problem(rng, 8)
    pair, _ = invariant_pair_from_linear(op, A, 1)
    ctx = ProjectionContext(pair, op, np.zeros((9, 0)))
    Vfull, _ = np.linalg.qr(rand_complex(rng, 9, 5))
    for j in range(5):
        ctx.append(Vfull[:8, j], Vfull[8:, j])
        assert ctx.recompute_audit() <= 1e-12


# -- extension -------------------------------------------------------------------------


def test_extend_from_empty():
    rng = np.random.default_rng(14)
    op, A = linear_problem(rng, 6)
    w, V = np.linalg.eig(A)
    pair = InvariantPair.empty(6)
    pair = pair.extend(op, w[0], V[:, 0], np.zeros(0))
    assert pair.k == 1
    assert pair.p == 1
    assert pair.H[0, 0] == w[0]
    assert np.linalg.norm(pair.X[:, 0]) == pytest.approx(1.0)


def test_extend_spectrum_collects_eigenvalues():
    rng = np.random.default_rng(15)
    op, A = linear_problem(rng, 6)
    pair, used = invariant_pair_from_linear(op, A, 2)
    got = np.sort_complex(np.linalg.eigvals(pair.H))
    assert np.allclose(got, np.sort_complex(used), atol=1e-10)


def test_extend_duplicate_eigenvector_fails_rank_test():
    rng = np.random.default_rng(16)
    op, A = linear_problem(rng, 6)
    w, V = np.linalg.eig(A)
    pair = InvariantPair.empty(6)
    x = V[:, 0] / np.linalg.norm(V[:, 0])
    pair = pair.extend(op, w[0], x, np.zeros(0))
    with pytest.raises(NepError):
        pair.extend(op, w[0], x, np.zeros(1))


def test_locked_pair_eigenpairs_have_small_residual():
    op, pair, roots = delay_invariant_pair(20, 3)
    assert pair.invariance_residual() <= 1e-9 * op.norm_scale(roots[0])
    for lam, x in pair.eigenpairs():
        assert backward_error(op, lam, x) <= 1e-10


# -- per-lock data and the resolvent identity ---------------------------------------


def three_term_problem(rng, n):
    """Random split operator with a rational, an exponential and a polynomial term."""
    terms = [
        (sp.csr_matrix(rand_complex(rng, n, n)), fn.rational([1.0, 0.0], [1.0, -5.0])),
        (sp.csr_matrix(rand_complex(rng, n, n)), fn.exponential(alpha=-0.3)),
        (sp.csr_matrix(rand_complex(rng, n, n)), fn.polynomial([0.5, -1.0, 2.0])),
    ]
    return NepOperator(terms=terms)


def nonnormal_pair(rng, op, k, p):
    """Pair with unit random X and a non-normal upper-triangular H, built directly."""
    X = rand_complex(rng, op.n, k)
    X /= np.linalg.norm(X, axis=0)
    H = np.triu(rand_complex(rng, k, k), 1) * 3.0 + np.diag([0.5, -1.0 + 1.0j, 2.0, 3.5 - 0.5j][:k])
    return InvariantPair(X, H, p, op=op)


def block_oracle(f_matrix, H, lam, order):
    """Top-right block of f applied to [[H, I], [0, lam I]] (order 1: the 3k-by-3k
    matrix whose top-right block is the lam-derivative), evaluated by f_matrix."""
    k = H.shape[0]
    m = (order + 2) * k
    M = np.zeros((m, m), dtype=complex)
    M[:k, :k] = H
    for b in range(1, order + 2):
        M[b * k : (b + 1) * k, b * k : (b + 1) * k] = lam * np.eye(k)
        M[(b - 1) * k : b * k, b * k : (b + 1) * k] = np.eye(k)
    return f_matrix(M)[:k, -k:]


def dense_matrix_functions():
    """The three term functions of three_term_problem, evaluated without nepsolve."""
    import scipy.linalg

    def rational(M):
        return np.linalg.solve(M - 5.0 * np.eye(len(M)), M)

    def exponential(M):
        return scipy.linalg.expm(-0.3 * M)

    def polynomial(M):
        return 0.5 * M @ M - M + 2.0 * np.eye(len(M))

    return [rational, exponential, polynomial]


def test_coupling_identity_matches_phi_blocks_on_a_nonnormal_pair():
    rng = np.random.default_rng(20)
    op = three_term_problem(rng, 7)
    pair = nonnormal_pair(rng, op, 4, 2)
    Z = rand_complex(rng, 4, 3)
    assert np.linalg.cond(pair.H) > 10
    for lam in (0.9 + 0.2j, -2.5, 1.7 - 1.1j, 6.0 + 3.0j):
        assert not pair.near_spectrum(lam)
        vals, ders = pair.coupling(op, lam, Z, op.coefficients(lam), op.coefficients_deriv(lam))
        for (_, f), v, d in zip(op.terms, vals, ders):
            ref = eval_phi(f, pair.H, lam) @ Z
            dref = eval_phi_deriv(f, pair.H, lam) @ Z
            assert np.max(np.abs(v - ref)) <= 1e-11 * max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(d - dref)) <= 1e-11 * max(1.0, np.max(np.abs(dref)))


@pytest.mark.parametrize("offset", [0.0, 1e-12])
def test_coupling_falls_back_at_the_spectrum_of_h(offset):
    rng = np.random.default_rng(21)
    op = three_term_problem(rng, 7)
    pair = nonnormal_pair(rng, op, 4, 2)
    z2 = rand_complex(rng, 4)
    for j in range(4):
        lam = pair.H[j, j] * (1.0 + offset)
        assert pair.near_spectrum(lam)
        vals, ders = pair.coupling(op, lam, z2, op.coefficients(lam), op.coefficients_deriv(lam))
        for f_matrix, v, d in zip(dense_matrix_functions(), vals, ders):
            ref = block_oracle(f_matrix, pair.H, lam, 0) @ z2
            dref = block_oracle(f_matrix, pair.H, lam, 1) @ z2
            assert np.all(np.isfinite(v)) and np.all(np.isfinite(d))
            assert np.max(np.abs(v - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(d - dref)) <= 1e-10 * max(1.0, np.max(np.abs(dref)))
        y1, y2 = ext_apply(ExtVector(pair, op, rand_complex(rng, 7), z2), lam)
        assert np.all(np.isfinite(y1)) and np.all(np.isfinite(y2))


def bilinear_reference(pair, op, lam, y1, y2, x1, x2):
    """(y^* M(lam) x, y^* M'(lam) x) from two full extended products."""
    v = ExtVector(pair, op, x1, x2)
    (u1, u2), (d1, d2) = (ext_apply(v, lam, deriv=d) for d in (False, True))
    return np.vdot(y1, u1) + np.vdot(y2, u2), np.vdot(y1, d1) + np.vdot(y2, d2)


def assert_bilinear_matches(pair, op, lam, y1, y2, x1, x2):
    got = ext_bilinear(ExtVector(pair, op, x1, x2), y1, y2)(lam)
    want = bilinear_reference(pair, op, lam, y1, y2, x1, x2)
    # the reference sums n-long products, the reduction k-vectors; both round
    # apart from the exact value by eps times the sum of the terms' moduli
    nxy = np.linalg.norm(np.concatenate([y1, y2])) * np.linalg.norm(np.concatenate([x1, x2]))
    for g, w, size in zip(got, want, (op.norm_scale(lam), op.mats.scale(op.coefficients_deriv(lam)))):
        assert abs(g - w) <= 1e-12 * max(size, pair.minimality_scale(lam), 1.0) * nxy, (g, w)


@pytest.mark.parametrize("problem", ["delay", "string"])
@pytest.mark.parametrize("k", [0, 1, 3])
def test_ext_bilinear_equals_ext_apply(problem, k):
    rng = np.random.default_rng(30 + k)
    if problem == "delay":
        op, pair, _ = delay_invariant_pair(40, k)
        far = (3.0 + 1.0j, -20.0)
    else:
        op, pair = string_invariant_pair(40, k)
        far = (12.0 + 0.5j, 300.0)
    n = op.n
    x1, y1 = rand_complex(rng, n), rand_complex(rng, n)
    x2, y2 = rand_complex(rng, k), rand_complex(rng, k)
    near = [pair.H[j, j] * (1.0 + 1e-9) for j in range(k)]
    for lam in list(far) + near:
        assert k == 0 or pair.near_spectrum(lam) == (lam in near)
        assert_bilinear_matches(pair, op, lam, y1, y2, x1, x2)
    # the form RII builds with hermitian=True: y = x
    for lam in far:
        assert_bilinear_matches(pair, op, lam, x1, x2, x1, x2)


def test_ext_bilinear_callback_form():
    rng = np.random.default_rng(33)
    op_split, _ = gen_delay(30, 0.001, -2.0)
    op = NepOperator(
        t_fn=lambda lam: op_split.assemble(lam),
        tprime_fn=lambda lam: op_split.assemble_deriv(lam),
        n=30,
    )
    x1, y1 = rand_complex(rng, 30), rand_complex(rng, 30)
    pair = InvariantPair.empty(30)
    for lam in (0.5, -3.0 + 2.0j):
        num, den = ext_bilinear(ExtVector(pair, op, x1, np.zeros(0)), y1, np.zeros(0))(lam)
        assert num == np.vdot(y1, op.apply(lam, x1)) and den == np.vdot(y1, op.apply_deriv(lam, x1))
    with pytest.raises(NepError):
        ext_bilinear(ExtVector(delay_invariant_pair(30, 1)[1], op, x1, np.ones(1)), y1, np.ones(1))


def test_ext_bilinear_matches_ext_apply_and_finite_differences():
    rng = np.random.default_rng(22)
    op = three_term_problem(rng, 7)
    pair = nonnormal_pair(rng, op, 3, 2)
    z1, z2 = rand_complex(rng, 7), rand_complex(rng, 3)
    y1, y2 = rand_complex(rng, 7), rand_complex(rng, 3)
    form = ext_bilinear(ExtVector(pair, op, z1, z2), y1, y2)
    h = 1e-6
    for lam in (0.8 - 0.3j, 4.0 + 1.0j):
        num, den = form(lam)
        want_num, want_den = bilinear_reference(pair, op, lam, y1, y2, z1, z2)
        assert abs(num - want_num) <= 1e-12 * max(1.0, abs(want_num))
        assert abs(den - want_den) <= 1e-12 * max(1.0, abs(want_den))
        fd = (form(lam + h)[0] - form(lam - h)[0]) / (2 * h)
        assert abs(den - fd) <= 1e-6 * max(1.0, abs(den))
    empty = InvariantPair.empty(7)
    num, den = ext_bilinear(ExtVector(empty, op, z1, np.zeros(0)), y1, np.zeros(0))(0.6)
    assert np.isclose(num, np.vdot(y1, op.apply(0.6, z1))) and np.isclose(den, np.vdot(y1, op.apply_deriv(0.6, z1)))


@pytest.mark.parametrize("problem", ["delay", "string"])
@pytest.mark.parametrize("k", [0, 1, 3])
def test_context_apply_deriv_equals_ext_apply_at_its_shift(problem, k):
    rng = np.random.default_rng(40 + k)
    if problem == "delay":
        op, pair, _ = delay_invariant_pair(40, k)
        sigma = 2.0 + 0.5j
    else:
        op, pair = string_invariant_pair(40, k)
        sigma = 12.0 + 0.5j
    ctx = ExtSolveContext(pair, op, sigma)
    for _ in range(2):
        v1, v2 = rand_complex(rng, op.n), rand_complex(rng, k)
        got = ctx.apply_deriv(v1, v2)
        want = ext_apply(ExtVector(pair, op, v1, v2), sigma, deriv=True)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.linalg.norm(g - w) <= 1e-13 * max(1.0, np.linalg.norm(w))
    # the terms of weight 0 in T'(sigma) leave no explicit zeros behind
    (Tp,) = ctx._deriv[0].mats
    assert Tp.nnz == np.count_nonzero(Tp.toarray())


@pytest.mark.parametrize("p", [1, 2, 3])
def test_minimality_blocks_match_explicit_construction(p):
    rng = np.random.default_rng(23)
    op = three_term_problem(rng, 7)
    pair = nonnormal_pair(rng, op, 3, p)
    n = 7
    for lam in (0.7 + 0.4j, -1.9):
        Mref = dense_extended_matrix_explicit(pair, op, lam)
        (Ap, Bp), (dA, dB) = pair.minimality_blocks(lam)
        A_ref, B_ref = Mref[n:, :n], Mref[n:, n:]
        assert np.max(np.abs(Ap @ pair.X.conj().T - A_ref)) <= 1e-12 * max(1.0, np.max(np.abs(A_ref)))
        assert np.max(np.abs(Bp - B_ref)) <= 1e-12 * max(1.0, np.max(np.abs(B_ref)))
        M = dense_extended_matrix(pair, op, lam)
        assert np.max(np.abs(M - Mref)) <= 1e-11 * max(1.0, np.max(np.abs(Mref)))
        h = 1e-6
        (Aa, Ba), _ = pair.minimality_blocks(lam + h)
        (Ab, Bb), _ = pair.minimality_blocks(lam - h)
        assert np.max(np.abs(dA - (Aa - Ab) / (2 * h))) <= 1e-6 * max(1.0, np.max(np.abs(dA)))
        assert np.max(np.abs(dB - (Ba - Bb) / (2 * h))) <= 1e-6 * max(1.0, np.max(np.abs(dB)))


def real_delay_pair(n, k):
    """``delay_invariant_pair`` with real X and H: the operator, the real pair and its complex twin."""
    op, pair, _ = delay_invariant_pair(n, k)
    assert not np.any(pair.X.imag) and not np.any(pair.H.imag)
    return op, InvariantPair(pair.X.real, pair.H.real, pair.p, op=op), pair


@pytest.mark.parametrize("k", [1, 3])
def test_real_and_complex_contexts_agree_on_a_real_pair(k):
    op, real_pair, complex_pair = real_delay_pair(40, k)
    assert real_pair.dtype == float and all(blk.dtype == float for blk in real_pair.AX + real_pair.F)
    real = ExtSolveContext(real_pair, op, -20.0)
    cplx = ExtSolveContext(complex_pair, op, -20.0 + 0j)
    assert real.dtype == float and cplx.dtype == complex
    rng = np.random.default_rng(70 + k)
    v1, v2 = rng.standard_normal(40), rng.standard_normal(k)
    for name in ("solve", "apply_deriv"):
        got, want = getattr(real, name)(v1, v2), getattr(cplx, name)(v1, v2)
        for g, w in zip(got, want):
            assert g.dtype == float
            assert np.linalg.norm(g - w) <= 1e-13 * np.linalg.norm(np.concatenate(want)), name


def test_a_real_context_serves_a_complex_right_hand_side():
    op, pair, _ = real_delay_pair(40, 3)
    ctx = ExtSolveContext(pair, op, -20.0)
    rng = np.random.default_rng(73)
    b1, b2 = rand_complex(rng, 40), rand_complex(rng, 3)
    x1, x2 = ctx.solve(b1, b2)
    assert x1.dtype == complex and x2.dtype == complex
    r1, r2 = ext_apply(ExtVector(pair, op, x1, x2), -20.0)
    assert np.linalg.norm(np.concatenate([r1 - b1, r2 - b2])) <= 1e-12 * np.linalg.norm(np.concatenate([b1, b2]))
    # the real and imaginary parts solve apart, in real arithmetic
    re, im = ctx.solve(b1.real, b2.real), ctx.solve(b1.imag, b2.imag)
    for got, a, b in zip((x1, x2), re, im):
        assert np.linalg.norm(got - (a + 1j * b)) <= 1e-13 * np.linalg.norm(got)
    d1, d2 = ctx.apply_deriv(x1, x2)
    w1, w2 = ext_apply(ExtVector(pair, op, x1, x2), -20.0, deriv=True)
    assert d1.dtype == complex
    assert np.linalg.norm(np.concatenate([d1 - w1, d2 - w2])) <= 1e-12 * np.linalg.norm(np.concatenate([w1, w2]))

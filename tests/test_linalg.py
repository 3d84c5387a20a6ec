import numpy as np
import pytest
import scipy.sparse as sp

from nepsolve.linalg import (
    COPY_RTOL,
    FullBasisEngine,
    IterativeResult,
    KrylovSchurDriver,
    LinearSolverConfig,
    SingularMatrixError,
    SplitSum,
    gen_eig_smallest,
    inf_norm,
    iterative_solve,
    lu_factor,
    make_linear_solver,
    orthogonalize,
)
from nepsolve.linalg import _retained


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# -- dense LU ------------------------------------------------------------------


def test_lu_identity():
    b = np.arange(5.0) + 1j
    f = lu_factor(np.eye(5))
    assert np.allclose(f.solve(b), b)


def test_lu_diagonal():
    f = lu_factor(np.diag([2.0, 4.0]))
    assert np.allclose(f.solve(np.array([2.0, 4.0])), [1.0, 1.0])


def test_lu_random_roundtrip():
    rng = np.random.default_rng(0)
    A = rand_complex(rng, 50, 50)
    b = rand_complex(rng, 50)
    x = lu_factor(A).solve(b)
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-12


def test_lu_singular_reports_pivot():
    A = np.zeros((3, 3))
    with pytest.raises(SingularMatrixError):
        lu_factor(A)


def test_lu_adjoint_solve():
    rng = np.random.default_rng(1)
    A = rand_complex(rng, 20, 20)
    b = rand_complex(rng, 20)
    x = lu_factor(A).solve(b, adjoint=True)
    assert np.linalg.norm(A.conj().T @ x - b) <= 1e-11 * np.linalg.norm(b)


# -- generalized smallest --------------------------------------------------------


def test_gen_eig_smallest_diag():
    A = np.diag([1.0, 2.0, 3.0])
    out = gen_eig_smallest(A, np.eye(3), 1)
    mu, x = out[0]
    assert mu == pytest.approx(1.0, rel=1e-10)
    assert abs(abs(x[0]) - 1.0) <= 1e-8


def test_gen_eig_smallest_vs_dense_oracle():
    rng = np.random.default_rng(4)
    A = rand_complex(rng, 15, 15) + 4 * np.eye(15)
    B = rand_complex(rng, 15, 15)
    mu, x = gen_eig_smallest(A, B, 1, tol=1e-12)[0]
    ref = np.linalg.eigvals(np.linalg.solve(A, B))
    ref_mu = 1.0 / ref[np.argmax(np.abs(ref))]
    assert abs(mu - ref_mu) <= 1e-9 * abs(ref_mu)


def test_gen_eig_smallest_b_equals_a():
    rng = np.random.default_rng(5)
    A = rand_complex(rng, 8, 8) + 3 * np.eye(8)
    mu, _ = gen_eig_smallest(A, A, 1)[0]
    assert mu == pytest.approx(1.0, rel=1e-8)


# -- orthogonalization -----------------------------------------------------------


def test_orthogonalize_in_span():
    rng = np.random.default_rng(6)
    V, _ = np.linalg.qr(rand_complex(rng, 30, 5))
    w = V @ rand_complex(rng, 5)
    h, beta, w_orth, dep = orthogonalize(V, w)
    assert dep
    assert beta <= 1e-12 * np.linalg.norm(w)


def test_orthogonalize_orthogonal_vector():
    V = np.eye(6)[:, :3].astype(complex)
    w = np.array([0, 0, 0, 1.0, 2.0, 0], dtype=complex)
    h, beta, w_orth, dep = orthogonalize(V, w)
    assert not dep
    assert np.allclose(h, 0)
    assert np.allclose(w_orth, w)


def test_orthogonalize_reconstruction_and_residual_property():
    rng = np.random.default_rng(7)
    for _ in range(100):
        V, _ = np.linalg.qr(rand_complex(rng, 50, 10))
        w = rand_complex(rng, 50)
        h, beta, w_orth, dep = orthogonalize(V, w)
        assert np.linalg.norm(V @ h + w_orth - w) <= 1e-13 * np.linalg.norm(w)
        assert np.linalg.norm(V.conj().T @ w_orth) <= 1e-12 * np.linalg.norm(w)


# -- iterative solvers -------------------------------------------------------------


def laplacian(n):
    return sp.diags([np.ones(n - 1), -2 * np.ones(n), np.ones(n - 1)], [-1, 0, 1], format="csr") * -1.0


def test_iterative_identity():
    cfg = LinearSolverConfig(mode="gmres", tol=1e-12)
    b = np.arange(1.0, 6.0).astype(complex)
    res = iterative_solve(cfg, sp.identity(5, format="csr", dtype=complex), b)
    assert res.converged
    assert res.iterations <= 1
    assert np.allclose(res.x, b)


@pytest.mark.parametrize("mode", ["gmres", "bicgstab"])
def test_iterative_spd_laplacian(mode):
    n = 100
    A = laplacian(n).astype(complex)
    rng = np.random.default_rng(8)
    b = rand_complex(rng, n)
    cfg = LinearSolverConfig(mode=mode, tol=1e-10, maxit=4000)
    res = iterative_solve(cfg, A, b)
    assert res.converged
    assert np.linalg.norm(A @ res.x - b) <= 1e-10 * np.linalg.norm(b) * (1 + 1e-6)


def test_iterative_zero_rhs():
    cfg = LinearSolverConfig(mode="gmres")
    res = iterative_solve(cfg, sp.identity(4, format="csr", dtype=complex), np.zeros(4))
    assert res.converged
    assert np.allclose(res.x, 0)
    assert res.iterations == 0


def test_iterative_nonconvergence_is_data():
    # maxit too small: must report, not raise
    n = 200
    A = laplacian(n).astype(complex)
    rng = np.random.default_rng(9)
    cfg = LinearSolverConfig(mode="gmres", tol=1e-14, maxit=1, restart=2)
    res = iterative_solve(cfg, A, rand_complex(rng, n))
    assert isinstance(res, IterativeResult)
    assert not res.converged
    assert not res.breakdown


def test_direct_solver_sparse_and_counting():
    rng = np.random.default_rng(10)
    A = laplacian(40).astype(complex) + sp.identity(40) * 0.3
    solver = make_linear_solver(A, LinearSolverConfig(mode="direct"))
    b = rand_complex(rng, 40)
    x = solver.solve(b)
    assert np.linalg.norm(A @ x - b) <= 1e-11 * np.linalg.norm(b)
    y = solver.solve(b, adjoint=True)
    assert np.linalg.norm(A.conj().T @ y - b) <= 1e-11 * np.linalg.norm(b)
    assert solver.solve_count == 2


# -- norms -----------------------------------------------------------------------------


def test_inf_norm_sparse_and_dense():
    A = np.array([[1.0, -2.0], [0.5, 0.0]])
    assert inf_norm(sp.csr_matrix(A)) == 3.0
    assert inf_norm(A) == 3.0
    assert inf_norm(sp.csr_matrix((0, 0))) == 0.0


# -- split-form sums -------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_split_sum_matches_dense_sums(seed):
    rng = np.random.default_rng(seed)
    n, ell = 15, 4
    mats = []
    for _ in range(ell):
        mask = rng.random((n, n)) < 0.3
        mats.append(sp.csr_matrix(np.where(mask, rand_complex(rng, n, n), 0.0)))
    dense = [M.toarray() for M in mats]
    kernel = SplitSum(mats)
    v = rand_complex(rng, n)
    for w in (rand_complex(rng, ell), rng.standard_normal(ell)):
        ref = sum(wi * D for wi, D in zip(w, dense))
        scale = np.linalg.norm(ref)
        assert sp.issparse(kernel.assemble(w))
        assert np.linalg.norm(kernel.assemble(w).toarray() - ref) <= 1e-14 * scale
        assert np.linalg.norm(kernel.apply(w, v) - ref @ v) <= 1e-13 * scale * np.linalg.norm(v)
        got = kernel.apply_adjoint(w, v)
        assert np.linalg.norm(got - ref.conj().T @ v) <= 1e-13 * scale * np.linalg.norm(v)
        expected = sum(abs(wi) * np.abs(D).sum(axis=1).max() for wi, D in zip(w, dense))
        assert kernel.scale(w) == pytest.approx(expected, rel=1e-14)
    for u, D in zip(kernel.adjoint_products(v), dense):
        assert np.linalg.norm(u - D.conj().T @ v) <= 1e-13 * np.linalg.norm(D) * np.linalg.norm(v)


# -- krylov-schur --------------------------------------------------------------------


def test_krylov_schur_dominant_eigenpair():
    rng = np.random.default_rng(12)
    n = 60
    A = rand_complex(rng, n, n)
    A = A / np.linalg.norm(A, 2) + np.diag([5.0] + [0.0] * (n - 1))
    engine = FullBasisEngine(lambda v: A @ v, np.ones((1, n)), 12)
    driver = KrylovSchurDriver(engine, 12, 1e-12, lambda t: -np.abs(t))
    assert driver.run(1, 60) >= 1
    theta, _y, _res, ok = driver.extract()[0]
    ref = np.linalg.eigvals(A)
    dom = ref[np.argmax(np.abs(ref))]
    assert ok
    assert abs(theta - dom) <= 1e-9 * abs(dom)


def test_krylov_schur_invariant_subspace_breakdown():
    # identity: first vector is already invariant
    n = 10
    engine = FullBasisEngine(lambda v: v.copy(), np.ones((1, n)), 5)
    driver = KrylovSchurDriver(engine, 5, 1e-12, lambda t: -np.abs(t))
    driver.run(1, 60)
    theta, _y, _res, ok = driver.extract()[0]
    assert ok
    assert theta == pytest.approx(1.0, rel=1e-12)


def test_retained_counts_unwanted_copies_as_converged():
    # theta 0-1 are wanted (0 converged), 2-4 unwanted copies of one value
    # (only 2 converged, 3 within COPY_RTOL of it), 5-6 unwanted unconverged
    theta = np.array(
        [3.0, 2.0, -1.0, -1.0 - 0.5 * COPY_RTOL, -1.0 - 3 * COPY_RTOL, 0.5, 0.2]
    )
    wanted = np.array([True, True, False, False, False, False, False])
    conv = np.array([True, False, True, False, False, False, False])
    order = np.arange(len(theta))
    # the copy counts as converged junk: not a candidate, kept after them
    assert _retained(order, theta, conv, wanted, 3, 5) == [0, 1, 4, 2, 3]
    assert _retained(order, theta, conv, wanted, 2, 3) == [0, 1, 2]
    # without a converged unwanted value there is nothing to be a copy of
    conv[2] = False
    assert _retained(order, theta, conv, wanted, 5, 5) == [0, 1, 2, 3, 4]
    assert not conv[3]  # the caller's verdicts are not changed


def test_driver_tests_each_ritz_pair_once_per_h():
    rng = np.random.default_rng(15)
    n = 80
    A = np.diag(np.linspace(1.0, 2.0, n)) + 0.01 * rand_complex(rng, n, n)
    engine = FullBasisEngine(lambda v: A @ v, np.ones((1, n)), 10)
    driver = KrylovSchurDriver(engine, 10, 1e-14, lambda t: -np.abs(t))
    seen = []

    def pair_test(theta, _y, m):
        seen.append((driver.restarts, m, theta))
        return False

    driver.pair_test = pair_test
    driver.run(2, 3)
    ran = len(seen)
    assert ran > 0 and len(set(seen)) == ran
    driver.extract()
    driver.run(2, 3)  # no restart is left, so H does not change
    assert len(seen) == ran


def test_gen_eig_smallest_waits_for_the_dominant_pair():
    # v0 is almost an eigenvector for 0.5, so that Ritz value converges in the
    # first pass while the dominant one (1.0, next to a cluster in [-0.8, 0.8])
    # needs restarts; the returned pair must be the converged dominant one
    rng = np.random.default_rng(14)
    n = 200
    Q, _ = np.linalg.qr(rand_complex(rng, n, n))
    w = np.concatenate([[1.0, 0.5], np.linspace(-0.8, 0.8, n - 2)])
    S = (Q * w) @ Q.conj().T
    v0 = Q[:, 1] + 1e-12 * rand_complex(rng, n)
    tol = 1e-9
    (mu, x), = gen_eig_smallest(lambda v: S @ v, lambda v: v, 1, v0=v0, tol=tol)
    theta = 1.0 / mu
    assert abs(theta - 1.0) <= 1e-6
    assert np.linalg.norm(S @ x - theta * x) <= tol * abs(theta) * np.linalg.norm(x)


def test_residual_property_random_trials():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(3, 16))
        A = rand_complex(rng, n, n)
        b = rand_complex(rng, n)
        try:
            x = lu_factor(A).solve(b)
        except SingularMatrixError:
            continue
        assert np.linalg.norm(A @ x - b) <= 1e-10 * max(1.0, np.linalg.norm(A) * np.linalg.norm(x))

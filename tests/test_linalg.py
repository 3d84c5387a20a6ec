import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nepsolve.core import Interval, Settings
from nepsolve.linalg import (
    COPY_RTOL,
    GMRES_RESTART,
    FullBasisEngine,
    IterativeResult,
    KrylovSchurDriver,
    LinearSolverConfig,
    SingularMatrixError,
    SplitSum,
    Tridiagonal,
    compress_columns,
    gen_eig_smallest,
    inf_norm,
    iterative_solve,
    lu_factor,
    make_linear_solver,
    orthogonalize,
    sparse_times,
)
from nepsolve.linalg import _ordered_schur, _range_basis, _restart_size, _retained
from nepsolve.nleigs import ShiftInvertContext, ToarBasisEngine, divided_differences, leja_bagby
from nepsolve.problems import gen_delay, gen_loaded_string
from blas_threads import run_at_blas_threads


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


def test_lu_solves_a_block_of_right_hand_sides():
    rng = np.random.default_rng(2)
    A = rand_complex(rng, 12, 12)
    B = rand_complex(rng, 12, 3)
    f = lu_factor(A)
    assert np.linalg.norm(A @ f.solve(B) - B) <= 1e-11 * np.linalg.norm(B)
    assert np.linalg.norm(A.conj().T @ f.solve(B, adjoint=True) - B) <= 1e-11 * np.linalg.norm(B)


def test_lu_solve_is_bitwise_the_same_at_one_and_two_blas_threads():
    # the small Schur-complement solves of the deflated solvers: their last
    # bits decide the iteration counts of RII and N-Arnoldi
    script = (
        "import numpy as np\n"
        "from nepsolve.linalg import lu_factor\n"
        "rng = np.random.default_rng(3)\n"
        "for k in (1, 3, 5, 20):\n"
        "    A = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))\n"
        "    b = rng.standard_normal(k) + 1j * rng.standard_normal(k)\n"
        "    f = lu_factor(A)\n"
        "    print(*[repr(v) for v in np.concatenate([f.solve(b), f.solve(b, adjoint=True)])])\n"
    )
    assert run_at_blas_threads("1", script) == run_at_blas_threads("2", script)


# -- generalized smallest --------------------------------------------------------


def _pencil_smallest(A, B, rng, **kw):
    """gen_eig_smallest on dense A and B, from a random start vector."""
    return gen_eig_smallest(lu_factor(A).solve, lambda v: B @ v, rand_complex(rng, A.shape[0]), **kw)


def test_gen_eig_smallest_diag():
    A = np.diag([1.0, 2.0, 3.0])
    mu, x = _pencil_smallest(A, np.eye(3), np.random.default_rng(3))
    assert mu == pytest.approx(1.0, rel=1e-10)
    assert abs(abs(x[0]) - 1.0) <= 1e-8


def test_gen_eig_smallest_vs_dense_oracle():
    rng = np.random.default_rng(4)
    A = rand_complex(rng, 15, 15) + 4 * np.eye(15)
    B = rand_complex(rng, 15, 15)
    mu, x = _pencil_smallest(A, B, rng, tol=1e-12)
    ref = np.linalg.eigvals(np.linalg.solve(A, B))
    ref_mu = 1.0 / ref[np.argmax(np.abs(ref))]
    assert abs(mu - ref_mu) <= 1e-9 * abs(ref_mu)


def test_gen_eig_smallest_b_equals_a():
    rng = np.random.default_rng(5)
    A = rand_complex(rng, 8, 8) + 3 * np.eye(8)
    mu, _ = _pencil_smallest(A, A, rng)
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


def test_orthogonalize_leaves_its_arguments_unchanged():
    rng = np.random.default_rng(16)
    V = np.asfortranarray(np.linalg.qr(rand_complex(rng, 40, 6))[0])
    w = rand_complex(rng, 40)
    V0, w0 = V.copy(), w.copy()
    _h, _beta, w_orth, _dep = orthogonalize(V, w)
    assert np.array_equal(V, V0) and np.array_equal(w, w0)
    assert not np.shares_memory(w_orth, w)


def test_orthogonalize_is_independent_of_the_basis_layout():
    rng = np.random.default_rng(17)
    V = np.linalg.qr(rand_complex(rng, 60, 8))[0]
    w = rand_complex(rng, 60)
    h_c, beta_c, w_c, _ = orthogonalize(np.ascontiguousarray(V), w)
    h_f, beta_f, w_f, _ = orthogonalize(np.asfortranarray(V), w)
    assert np.array_equal(h_c, h_f) and beta_c == beta_f and np.array_equal(w_c, w_f)


def test_orthogonalize_keeps_orthogonality_under_cancellation():
    # w lies in span(V) up to a relative 1e-10: one Gram-Schmidt sweep would
    # leave w_orth with components along V of order u / 1e-10
    rng = np.random.default_rng(18)
    n, k = 300, 12
    V = np.asfortranarray(np.linalg.qr(rand_complex(rng, n, k))[0])
    r = rand_complex(rng, n)
    w = V @ rand_complex(rng, k)
    w = w + 1e-10 * np.linalg.norm(w) * r / np.linalg.norm(r)
    h, beta, w_orth, dep = orthogonalize(V, w)
    assert not dep
    assert 1e-11 <= beta / np.linalg.norm(w) <= 1e-9
    Q = np.column_stack([V, w_orth / beta])
    assert np.linalg.norm(np.eye(k + 1) - Q.conj().T @ Q) <= 1e-13


def test_basis_engines_keep_column_major_bases():
    # orthogonalize reads a basis in place only when it is column-major, and
    # both engines pass it leading-column slices of their buffers
    rng = np.random.default_rng(19)
    n, ncv = 40, 6
    A = np.diag(np.linspace(1.0, 2.0, n)) + 0.01 * rand_complex(rng, n, n)
    engine = FullBasisEngine(lambda v: A @ v, np.ones((2, n // 2)), ncv)
    driver = KrylovSchurDriver(engine, ncv, 1e-14, lambda t: -np.abs(t))
    driver.run(ncv, 2)
    assert driver.restarts == 2
    assert engine.V.flags.f_contiguous and engine.V[:, : driver.m].flags.f_contiguous

    op, _ = gen_delay(n, tau=0.001, b=-2.0)
    seq = leja_bagby(Interval(-60.0, 10.0).boundary_points(100), [], 4, start_hint=1.0)
    ri = divided_differences(op, seq, dd_tol=0.0, d_max=4)
    toar = ToarBasisEngine(ShiftInvertContext(ri, 1.0), np.ones((ri.d, n)), ncv)
    driver = KrylovSchurDriver(toar, ncv, 1e-14, lambda t: -np.abs(t))
    driver.run(ncv, 2)
    assert driver.restarts == 2
    assert toar.U.flags.f_contiguous


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
    cfg = LinearSolverConfig(mode="gmres", tol=1e-14, maxit=1)
    res = iterative_solve(cfg, A, rand_complex(rng, n))
    assert isinstance(res, IterativeResult)
    assert not res.converged
    assert not res.breakdown


@pytest.mark.parametrize("maxit", [10, 100])
def test_gmres_stops_within_maxit_inner_iterations(maxit):
    # T at one of its eigenvalues, nearly singular: GMRES never converges
    # there.  scipy counts maxiter in restart cycles of min(GMRES_RESTART, n) = 16
    # steps, so passing maxit as the cycle count made 160 and 1,600 steps
    op, _ = gen_delay(16, tau=0.01, b=-1.0)
    cfg = LinearSolverConfig(mode="gmres", tol=1e-9, maxit=maxit)
    res = iterative_solve(cfg, op.assemble(-10.9573504673), np.ones(16))
    assert not res.converged
    assert maxit <= res.iterations <= maxit + min(GMRES_RESTART, 16) - 1


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


@pytest.fixture
def splu_calls(monkeypatch):
    """Count the factorizations that go to SuperLU."""
    calls = []
    splu = spla.splu

    def counted(A, *args, **kwargs):
        calls.append(A.shape)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counted)
    return calls


def backward_error(A, x, b):
    return np.linalg.norm(A @ x - b) / (inf_norm(A) * np.linalg.norm(x) + np.linalg.norm(b))


@pytest.mark.parametrize(
    "gen",
    [
        lambda: gen_delay(500)[0],
        lambda: gen_delay(500, commuting=False)[0],
        lambda: gen_loaded_string(500)[0],
    ],
    ids=["delay", "delay-noncommuting", "loaded-string"],
)
def test_tridiagonal_solves_match_superlu(gen, splu_calls):
    rng = np.random.default_rng(11)
    A = gen().assemble(3.7 + 2.1j)
    solver = make_linear_solver(A)
    assert splu_calls == []
    lu = spla.splu(sp.csc_matrix(A))
    b = rand_complex(rng, A.shape[0])
    for adjoint, M, trans in ((False, A, "N"), (True, A.conj().T, "H")):
        x = solver.solve(b, adjoint=adjoint)
        ref = lu.solve(b, trans=trans)
        assert backward_error(M, x, b) <= 1e-13
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    assert solver.solve_count == 2


def test_tridiagonal_solver_solves_a_block_of_right_hand_sides(splu_calls):
    rng = np.random.default_rng(12)
    A = laplacian(30).astype(complex) + 0.5j * sp.identity(30)
    B = rand_complex(rng, 30, 3)
    solver = make_linear_solver(A)
    assert splu_calls == []
    assert backward_error(A, solver.solve(B), B) <= 1e-13
    assert backward_error(A.conj().T, solver.solve(B, adjoint=True), B) <= 1e-13


def test_wider_bands_go_to_superlu(splu_calls):
    rng = np.random.default_rng(13)
    n = 30
    penta = sp.diags([1.0, -1.0, 6.0, -1.0, 1.0], [-2, -1, 0, 1, 2], shape=(n, n), format="csr")
    # a tridiagonal matrix with one explicitly stored zero at |i - j| = 2
    tri = laplacian(n).tocoo()
    stored = sp.csr_matrix(
        (np.append(tri.data, 0.0), (np.append(tri.row, 0), np.append(tri.col, 2))), shape=(n, n)
    )
    assert stored.nnz == tri.nnz + 1
    b = rand_complex(rng, n)
    for A in (penta, stored):
        solver = make_linear_solver(A)
        assert backward_error(A, solver.solve(b), b) <= 1e-13
        assert backward_error(A.conj().T, solver.solve(b, adjoint=True), b) <= 1e-13
        assert solver.solve_count == 2
    assert len(splu_calls) == 2


@pytest.mark.parametrize("n", [1, 2])
def test_tiny_tridiagonal_matrices_go_to_superlu(n, splu_calls):
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]])[:n, :n])
    b = np.arange(1.0, n + 1)
    x = make_linear_solver(A).solve(b)
    assert np.linalg.norm(A @ x - b) <= 1e-14 * np.linalg.norm(b)
    assert splu_calls == [(n, n)]


def test_singular_tridiagonal_matrix_raises_at_construction(splu_calls):
    A = sp.csr_matrix(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(SingularMatrixError):
        make_linear_solver(A)
    assert splu_calls == []


def test_tridiagonal_solve_with_non_finite_result_raises(splu_calls):
    A = sp.diags([1e-300, 1e-300, 1e-300], [-1, 0, 1], shape=(3, 3), format="csr")
    solver = make_linear_solver(A)
    assert splu_calls == []
    b = np.array([0.0, 1e300, 0.0])
    for adjoint in (False, True):
        with pytest.raises(SingularMatrixError):
            solver.solve(b, adjoint=adjoint)
    assert solver.solve_count == 2


class SpySolve:
    """Records the right-hand sides that reach a factor's own solve."""

    def __init__(self, solve):
        self.solve, self.calls = solve, []

    def __call__(self, *args, **kwargs):
        b = args[-1] if len(args) > 1 else args[0]
        self.calls.append((b.shape, b.dtype))
        return self.solve(*args, **kwargs)


class SpyLU:
    def __init__(self, lu):
        self.solve = SpySolve(lu.solve)


def direct_route(kind, n=12):
    off = np.linspace(-1.0, -0.5, n - 1)
    main = np.linspace(3.0, 4.0, n)
    if kind == "real-tridiagonal":
        return sp.diags([off, main, 0.7 * off], [-1, 0, 1], format="csr")
    if kind == "real-superlu":
        return sp.diags([0.3, off, main, 0.7 * off, -0.2], [-2, -1, 0, 1, 2], shape=(n, n), format="csr")
    return sp.diags([off, main + 0.5j, 0.7j * off], [-1, 0, 1], format="csr")


@pytest.mark.parametrize("kind", ["real-tridiagonal", "real-superlu", "complex"])
def test_direct_solver_routes_match_dense_solves(kind, splu_calls, monkeypatch):
    # a real matrix is factored in real arithmetic; a complex right-hand side
    # reaches the real factor as its real and imaginary parts, two columns
    import nepsolve.linalg as linalg_mod

    rng = np.random.default_rng(20)
    A = direct_route(kind)
    n = A.shape[0]
    real = kind != "complex"
    spy = SpySolve(linalg_mod.dgttrs if real else linalg_mod.zgttrs)
    monkeypatch.setattr(linalg_mod, "dgttrs" if real else "zgttrs", spy)
    solver = make_linear_solver(A)
    assert solver.dtype == (np.float64 if real else np.complex128)
    assert len(splu_calls) == (kind == "real-superlu")
    if solver._lu is not None:
        solver._lu = spy = SpyLU(solver._lu)
        spy = spy.solve
    dense = A.toarray()
    cases = [rng.standard_normal(n), rand_complex(rng, n), rand_complex(rng, n, 3)]
    for b in cases:
        for adjoint in (False, True):
            x = solver.solve(b, adjoint=adjoint)
            ref = np.linalg.solve(dense.conj().T if adjoint else dense, b)
            assert x.shape == b.shape
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
    width = [1, 1, 2, 2, 6, 6] if real else [1, 1, 1, 1, 3, 3]
    if real:
        assert [dtype for _, dtype in spy.calls] == [np.float64] * 6
    shapes = [shape[1] if len(shape) > 1 else 1 for shape, _ in spy.calls]
    assert shapes == width
    assert solver.solve_count == 6


def test_real_tridiagonal_route_raises_on_singular_and_non_finite(splu_calls):
    singular = sp.csr_matrix(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(SingularMatrixError):
        make_linear_solver(singular)
    tiny = sp.diags([1e-300, 1e-300, 1e-300], [-1, 0, 1], shape=(3, 3), format="csr")
    solver = make_linear_solver(tiny)
    assert solver.dtype == np.float64
    for b in (np.array([0.0, 1e300, 0.0]), np.array([0.0, 1e300j, 0.0])):
        for adjoint in (False, True):
            with pytest.raises(SingularMatrixError):
                solver.solve(b, adjoint=adjoint)
    assert splu_calls == []


def test_tridiagonal_solve_is_bitwise_the_same_at_one_and_two_blas_threads():
    # zgttrs calls no BLAS, so a solve at n = 20000 is thread-independent
    script = (
        "import hashlib\n"
        "import numpy as np\n"
        "from nepsolve.linalg import make_linear_solver\n"
        "from nepsolve.problems import gen_delay\n"
        "op, _ = gen_delay(20000)\n"
        "solver = make_linear_solver(op.assemble(-40.0 + 3.0j))\n"
        "b = np.random.default_rng(14).standard_normal(20000) + 0j\n"
        "for adjoint in (False, True):\n"
        "    print(hashlib.sha256(solver.solve(b, adjoint=adjoint).tobytes()).hexdigest())\n"
    )
    assert run_at_blas_threads("1", script) == run_at_blas_threads("2", script)


# -- norms -----------------------------------------------------------------------------


def test_inf_norm_sparse_and_dense():
    A = np.array([[1.0, -2.0], [0.5, 0.0]])
    assert inf_norm(sp.csr_matrix(A)) == 3.0
    assert inf_norm(A) == 3.0
    assert inf_norm(sp.csr_matrix((0, 0))) == 0.0


# -- split-form sums -------------------------------------------------------------


def scipy_sum(mats, w):
    """sum_i w_i M_i by scipy's scalar products and sparse additions, in the
    order of the matrices: the sum that ``SplitSum.assemble`` reproduces."""
    acc = w[0] * mats[0]
    for wi, M in zip(w[1:], mats[1:]):
        acc = acc + wi * M
    return sp.csr_matrix(acc)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_split_sum_matches_dense_sums(seed):
    rng = np.random.default_rng(seed)
    n, ell = 15, 4
    mats = []
    for i in range(ell):
        mask = rng.random((n, n)) < 0.3
        entries = rand_complex(rng, n, n)
        # every other matrix real: a real M_i meets complex w and v
        mats.append(sp.csr_matrix(np.where(mask, entries if i % 2 else entries.real, 0.0)))
    dense = [M.toarray() for M in mats]
    kernel = SplitSum(mats)
    assert kernel.dtype == complex and SplitSum(mats[::2]).dtype == float
    v = rand_complex(rng, n)
    for w in (rand_complex(rng, ell), rng.standard_normal(ell), np.array([0.0, 1.5, 0.0, -2.0])):
        ref = sum(wi * D for wi, D in zip(w, dense))
        scale = np.linalg.norm(ref)
        assert sp.issparse(kernel.assemble(w))
        assert np.linalg.norm(kernel.assemble(w).toarray() - ref) <= 1e-14 * scale
        assert np.array_equal(kernel.assemble(w).toarray(), scipy_sum(mats, w).toarray())
        assert np.linalg.norm(kernel.apply(w, v) - ref @ v) <= 1e-13 * scale * np.linalg.norm(v)
        got = kernel.apply_adjoint(w, v)
        assert np.linalg.norm(got - ref.conj().T @ v) <= 1e-13 * scale * np.linalg.norm(v)
        expected = sum(abs(wi) * np.abs(D).sum(axis=1).max() for wi, D in zip(w, dense))
        assert kernel.scale(w) == pytest.approx(expected, rel=1e-14)
    for u, D in zip(kernel.adjoint_products(v), dense):
        assert np.linalg.norm(u - D.conj().T @ v) <= 1e-13 * np.linalg.norm(D) * np.linalg.norm(v)


PATTERNS = ("identical", "nested", "disjoint", "random", "tridiagonal", "diagonal")


@st.composite
def split_sums(draw):
    """Canonical CSR matrices whose patterns are the same as, inside or
    outside a base pattern, random, tridiagonal or diagonal, some with an
    empty row, real or complex; and real or complex weights, some exactly 0."""
    n, ell = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    cells = st.lists(st.booleans(), min_size=n * n, max_size=n * n)
    value = st.floats(-4.0, 4.0, allow_subnormal=False).filter(bool)
    values = st.lists(value, min_size=n * n, max_size=n * n)
    base = np.reshape(draw(cells), (n, n))
    band = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    mats = []
    for _ in range(ell):
        mask = np.reshape(draw(cells), (n, n))
        kind = draw(st.sampled_from(PATTERNS))
        mask = {"identical": base, "nested": base & mask, "disjoint": ~base & mask, "random": mask,
                "tridiagonal": band <= 1, "diagonal": band == 0}[kind].copy()
        if draw(st.booleans()):
            mask[draw(st.integers(0, n - 1))] = False
        entries = np.reshape(draw(values), (n, n))
        if draw(st.booleans()):
            entries = entries + 1j * np.reshape(draw(values), (n, n))
        mats.append(sp.csr_matrix(np.where(mask, entries, 0.0)))
    weight = st.one_of(st.just(0.0), value, st.builds(complex, value, value))
    return mats, np.array(draw(st.lists(weight, min_size=ell, max_size=ell)))


def factor_signature(A):
    """The route of A's direct solver with what its factor depends on: the
    tridiagonal factor's arrays, or SuperLU's column order and fill."""
    try:
        solver = make_linear_solver(A)
    except SingularMatrixError:
        return "singular"
    if solver._lu is None:
        return ("tridiagonal", *(np.asarray(a).tobytes() for a in solver._tri))
    return ("superlu", tuple(solver._lu.perm_c), solver._lu.L.nnz + solver._lu.U.nnz)


def cancelling_sum():
    """Two terms whose sum cancels the entry (1, 4) and keeps (0, 3): SuperLU
    on both sides, with its column order moved by a stored zero."""
    n = 6
    A = np.diag(np.arange(2.0, 2.0 + n)) + np.diag(np.full(n - 1, -1.0), 1) + np.diag(np.full(n - 1, -0.5), -1)
    A[0, 3], A[3, 0], A[1, 4], A[5, 2] = 0.3, 0.2, 0.7, -0.4
    C = np.zeros((n, n))
    C[1, 4], C[2, 2], C[5, 1] = -0.7, 0.1, 0.25
    return [sp.csr_matrix(A), sp.csr_matrix(C)], np.array([1.0, 1.0])


@settings(max_examples=150, deadline=None)
@given(split_sums())
@example(cancelling_sum())
def test_split_sum_assembles_scipys_sum_on_the_pattern_of_its_nonzero_weights(case):
    from nepsolve.linalg import _bandwidth

    mats, w = case
    got, ref = SplitSum(mats).assemble(w), scipy_sum(mats, w)
    assert np.array_equal(got.toarray(), ref.toarray())
    union = sum((abs(M) for M, wi in zip(mats, w) if wi != 0), sp.csr_matrix(got.shape)).tocsr()
    assert got.has_canonical_format
    assert np.array_equal(got.indptr, union.indptr) and np.array_equal(got.indices, union.indices)
    # scipy's sum drops the entries that cancel; where none does, both store
    # the same entries and take the same route
    if got.nnz == ref.nnz == np.count_nonzero(got.data):
        assert _bandwidth(got) == _bandwidth(ref)
    tridiagonal = [A.shape[0] >= 3 and _bandwidth(A) <= 1 for A in (got, ref)]
    assert isinstance(SplitSum(mats).system(w), Tridiagonal) == tridiagonal[0]  # the pattern's route
    # SuperLU gets the same entries (exact zeros dropped): same order, same fill
    if tridiagonal[0] == tridiagonal[1] and np.count_nonzero(ref.data) == ref.nnz:
        assert factor_signature(got) == factor_signature(ref)


def test_assembled_matrices_cannot_change_the_cached_pattern():
    # every matrix SplitSum assembles shares the pattern's index arrays, so an
    # in-place edit of one must raise, not silently change later sums
    op, _ = gen_delay(50)
    w = op.coefficients(0.7 + 0.2j)
    ref = scipy_sum(op.mats.mats, w).toarray()
    A = op.assemble(0.7 + 0.2j)
    edits = [A.eliminate_zeros, lambda: A.indices.__setitem__(0, 1), lambda: A.indptr.__setitem__(1, 0)]
    for edit in edits:
        with pytest.raises(ValueError):
            edit()
    A.data[:] = 7.0  # the data are the matrix's own
    assert np.array_equal(op.assemble(0.7 + 0.2j).toarray(), ref)
    with pytest.raises(ValueError, match="canonical"):
        SplitSum([sp.csr_matrix(([1.0, 2.0], [1, 0], [0, 2, 2]), shape=(2, 2))]).assemble([1.0])


def test_delay_derivative_stays_diagonal():
    # d/dlam of the constant term is 0: T'(sigma) holds the two diagonal terms only
    op, _ = gen_delay(1000)
    assert op.assemble_deriv(1.3).nnz == 1000 and op.assemble_deriv(-20.0 + 3.0j).nnz == 1000


def band_sum(case):
    """(mats, w) of a split sum on the ``?gttrf`` route."""
    rng = np.random.default_rng(31)
    n = 3 if case == "n3" else 9
    off = lambda: rng.standard_normal(n - 1)  # noqa: E731
    tri = sp.diags([off(), 4.0 + rng.standard_normal(n), off()], [-1, 0, 1], format="csr")
    eye = sp.identity(n, format="csr")
    lower = sp.diags([off()], [-1], shape=(n, n), format="csr")
    if case == "identity-only":
        return [tri, eye, 2.0 * eye], np.array([0.0, 1.5, -0.25])
    if case == "stored-zero":
        stored = tri.copy()
        stored.data[4] = 0.0  # the entry (1, 2)
        return [stored, lower, eye], np.array([1.0, 0.5, 2.0])
    if case == "partial-band":
        return [eye, lower], np.array([3.0, -1.0])
    if case == "complex-weights":
        return [tri, lower, eye], np.array([1.0 + 0.5j, -0.3j, 2.0])
    return [tri, eye], np.array([1.0, -0.5])  # full band, n = 9 or 3


@pytest.mark.parametrize("case", ["full-band", "identity-only", "stored-zero", "partial-band", "complex-weights", "n3"])
def test_tridiagonal_split_sums_solve_bitwise_as_their_assembled_matrix(case, splu_calls):
    mats, w = band_sum(case)
    ss = SplitSum(mats)
    T, A = ss.system(w), ss.assemble(w)
    assert isinstance(T, Tridiagonal) and T.dtype == A.dtype and T.shape == A.shape
    assert all(np.array_equal(T[i], A.diagonal(k)) for i, k in enumerate((-1, 0, 1)))
    rng = np.random.default_rng(32)
    got, ref = make_linear_solver(T), make_linear_solver(A)
    for b in (rng.standard_normal(A.shape[0]), rand_complex(rng, A.shape[0]), rand_complex(rng, A.shape[0], 2)):
        for adjoint in (False, True):
            assert np.array_equal(got.solve(b, adjoint=adjoint), ref.solve(b, adjoint=adjoint))
    assert all(np.array_equal(a, r) for a, r in zip(got._tri, ref._tri))
    assert splu_calls == []


@pytest.mark.parametrize("case", ["n2", "pentadiagonal"])
def test_other_split_sums_still_reach_superlu(case, splu_calls):
    if case == "n2":
        mats = [sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]])), sp.identity(2, format="csr")]
    else:
        mats = [laplacian(9), sp.diags([0.2, 0.1], [-2, 2], shape=(9, 9), format="csr")]
    ss = SplitSum(mats)
    A = ss.system([1.0, 0.5])
    assert sp.issparse(A) and A.format == "csr"
    b = np.arange(1.0, A.shape[0] + 1)
    solver = make_linear_solver(A)
    assert np.array_equal(solver.solve(b), make_linear_solver(ss.assemble([1.0, 0.5])).solve(b))
    assert len(splu_calls) == 2


@pytest.mark.parametrize("mode", ["gmres", "bicgstab"])
def test_iterative_modes_receive_the_csr_sum(mode):
    mats, w = band_sum("full-band")
    ss = SplitSum(mats)
    cfg = LinearSolverConfig(mode=mode)
    A, ref = ss.system(w, cfg), ss.assemble(w)
    assert sp.issparse(A) and A.format == "csr"
    assert all(np.array_equal(getattr(A, k), getattr(ref, k)) for k in ("data", "indices", "indptr"))
    assert make_linear_solver(A, cfg).A is A


def scan_case(problem):
    if problem == "delay":
        return gen_delay(200, tau=0.001, b=-2.0)[0], Settings(nev=3, tol=1e-6, target=1.0, region=Interval(-260.0, 50.0))
    settings = Settings(nev=3, tol=1e-8, target=10.0, region=Interval(4.0, 800.0), problem_type="rational")
    return gen_loaded_string(100)[0], settings


@pytest.mark.parametrize("problem", ["delay", "string"])
@pytest.mark.parametrize("solver", ["nleigs", "slp", "interpol"])
def test_split_sums_are_factored_without_a_bandwidth_scan(solver, problem, monkeypatch):
    # each support's route is decided once, with its pattern
    import nepsolve.linalg as linalg_mod
    from nepsolve.interpol import interpol_solve
    from nepsolve.newton import slp_solve
    from nepsolve.nleigs import nleigs_solve

    def scan(A):
        raise AssertionError("a split sum was scanned for its bandwidth")

    monkeypatch.setattr(linalg_mod, "_bandwidth", scan)
    op, settings = scan_case(problem)
    solve = {"nleigs": nleigs_solve, "slp": slp_solve, "interpol": interpol_solve}[solver]
    assert solve(op, settings).stats["linear_solves"] > 0


@pytest.mark.parametrize("problem", ["delay", "string"])
def test_a_callback_operators_matrices_are_scanned(problem, monkeypatch):
    # a T(sigma) that arrives as CSR has no pattern to read its route from
    import nepsolve.linalg as linalg_mod
    from nepsolve.core import NepOperator
    from nepsolve.newton import slp_solve

    scans = []
    scan = linalg_mod._bandwidth
    monkeypatch.setattr(linalg_mod, "_bandwidth", lambda A: scans.append(A.shape) or scan(A))
    op, settings = scan_case(problem)
    callback = NepOperator(t_fn=op.assemble, tprime_fn=op.assemble_deriv, n=op.n)
    assert slp_solve(callback, Settings(nev=1, tol=1e-6, target=settings.target)).stats["linear_solves"] > 0
    assert scans and set(scans) == {(op.n, op.n)}


def test_threads_sharing_an_operator_assemble_the_same_sums():
    # the first sums of each support race to build its pattern; a build is
    # idempotent, so whichever is kept, every sum is scipy's
    import sys
    import threading

    op, _ = gen_delay(300)
    lams = [0.3, 0.3 + 0.4j, -7.0, 2.0 - 1.0j]
    want = [scipy_sum(op.mats.mats, op.coefficients(lam)).toarray() for lam in lams]
    want += [scipy_sum(op.mats.mats, op.coefficients_deriv(lam)).toarray() for lam in lams]
    bad = []

    def work():
        for _ in range(20):
            got = [op.assemble(lam) for lam in lams] + [op.assemble_deriv(lam) for lam in lams]
            bad.extend(i for i, (g, w) in enumerate(zip(got, want)) if not np.array_equal(g.toarray(), w))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and bad == []
    assert len(op.mats._patterns) == 2


class CountingDict(dict):
    """A dict that counts the items set into it."""

    sets = 0

    def __setitem__(self, key, value):
        self.sets += 1
        super().__setitem__(key, value)


@pytest.mark.parametrize("solver", ["slp", "nleigs", "rii"])
def test_each_support_builds_its_pattern_once(solver):
    from nepsolve.newton import rii_solve, slp_solve
    from nepsolve.nleigs import nleigs_solve

    op, _ = gen_delay(200, tau=0.001, b=-2.0)
    op.mats._patterns = patterns = CountingDict()
    settings = Settings(nev=3, tol=1e-6, target=1.0, region=Interval(-260.0, 50.0))
    solve = {"slp": slp_solve, "nleigs": nleigs_solve, "rii": rii_solve}[solver]
    for _ in range(3):
        assert solve(op, settings).converged
    assert 1 <= patterns.sets == len(patterns)


def test_slp_steps_make_no_scipy_sparse_sums_or_scalar_products(monkeypatch):
    import scipy.sparse._data as sp_data
    import scipy.sparse._sparsetools as sparsetools

    from nepsolve.newton import slp_solve

    calls = []

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    op, _ = gen_delay(2000, tau=0.001, b=-2.0)
    settings = Settings(nev=2, tol=1e-6, target=1.0)
    assert slp_solve(op, settings).converged  # builds the patterns
    counted(sparsetools, "csr_plus_csr")
    counted(sp_data._data_matrix, "_mul_scalar")
    sol = slp_solve(op, settings)
    assert sol.converged and sol.stats["outer_iterations"] > 1
    assert calls == []


def test_adjoint_products_are_bitwise_the_conjugate_transpose_products_and_keep_no_copy():
    rng = np.random.default_rng(6)
    M = sp.random(2000, 2000, density=2e-3, random_state=7, format="csr")
    complex_mat = (M + 1j * sp.random(2000, 2000, density=2e-3, random_state=8, format="csr")).tocsr()
    complex_mat.sum_duplicates()
    for kernel in (gen_delay(2000)[0].mats, gen_loaded_string(2000)[0].mats, SplitSum([M, complex_mat])):
        matrix_bytes = sum(A.data.nbytes + A.indices.nbytes + A.indptr.nbytes for A in kernel.mats)
        for v in (rand_complex(rng, 2000), rng.standard_normal(2000)):
            tracemalloc.start()
            got = kernel.adjoint_products(v)
            kept = tracemalloc.get_traced_memory()[0] - sum(u.nbytes for u in got)
            tracemalloc.stop()
            assert kept < 0.05 * matrix_bytes
            for u, A in zip(got, kernel.mats):
                assert np.array_equal(u, sparse_times(A.conj().T.tocsr(), v))


def test_sparse_times_equals_the_complex_product_bitwise():
    # a complex vector or block on a real matrix: the product of the complex
    # copy of the matrix, made without that copy
    rng = np.random.default_rng(3)
    M = sp.random(30, 30, density=0.2, random_state=5, format="csr")
    V = np.asfortranarray(rand_complex(rng, 30, 4))
    for v in (V[:, 1], V, V[:, 1:3], rand_complex(rng, 30, 3)):
        got = sparse_times(M, v)
        assert got.dtype == complex and np.array_equal(got, M.astype(complex) @ v)
    assert sparse_times(M, V.real).dtype == float
    assert np.array_equal(sparse_times(1j * M, V), (1j * M) @ V)


def test_real_lu_serves_a_complex_right_hand_side():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((6, 6))
    b = rand_complex(rng, 6)
    f = lu_factor(A)
    assert f.lu.dtype == float and f.solve(b.real).dtype == float
    for adjoint in (False, True):
        x = f.solve(b, adjoint=adjoint)
        assert x.dtype == complex
        assert np.linalg.norm((A.T if adjoint else A) @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_iterative_solve_of_a_real_system_is_real():
    # GMRES on a real matrix: a real right-hand side is solved in real
    # arithmetic, a complex one in complex arithmetic
    rng = np.random.default_rng(5)
    A = sp.csr_matrix(sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(20, 20)))
    solver = make_linear_solver(A, LinearSolverConfig(mode="gmres", tol=1e-12))
    b = rand_complex(rng, 20)
    x = solver.solve(b.real)
    assert x.dtype == float and np.linalg.norm(A @ x - b.real) <= 1e-10 * np.linalg.norm(b.real)
    z = solver.solve(b, adjoint=True)
    assert z.dtype == complex and np.linalg.norm(A.T @ z - b) <= 1e-10 * np.linalg.norm(b)


def test_gen_eig_smallest_returns_a_real_pair_from_a_real_start():
    A = np.diag([1.0, 2.0, 3.0, 4.0]) + np.diag([0.5, 0.5, 0.5], 1)
    mu, x = gen_eig_smallest(lu_factor(A).solve, lambda v: v, v0=np.ones(4))
    assert isinstance(mu, float) and x.dtype == float
    assert mu == pytest.approx(1.0, rel=1e-10)
    assert np.linalg.norm(A @ x - mu * x) <= 1e-9


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


def test_retained_keeps_a_known_pole_copy_as_junk():
    # theta 2 is a copy of a known pole image whose residual sits just over
    # tol (unconverged): it takes no candidate slot and is kept as junk
    image = -1.0 / 9.0
    theta = np.array([3.0, 2.0, image * (1 + 0.5 * COPY_RTOL), 0.5, 0.2])
    wanted = np.array([True, True, False, False, False])
    conv = np.array([True, False, False, False, False])
    order = np.arange(len(theta))
    assert _retained(order, theta, conv, wanted, 3, 4) == [0, 1, 2]
    assert _retained(order, theta, conv, wanted, 3, 4, [image]) == [0, 1, 3, 2]
    # a value farther than COPY_RTOL from the image is no copy of it
    theta[2] = image * (1 + 3 * COPY_RTOL)
    assert _retained(order, theta, conv, wanted, 3, 4, [image]) == [0, 1, 2]


def _closed(eigs, pick):
    """pick with the conjugate of every picked complex eigenvalue added."""
    closed = pick.copy()
    for i in np.flatnonzero(pick & (eigs.imag != 0)):
        closed |= eigs == eigs[i].conjugate()
    return closed


@settings(max_examples=80, deadline=None)
@given(m=st.integers(2, 20), seed=st.integers(0, 2**32 - 1), share=st.floats(0.0, 1.0))
def test_real_ordered_schur_moves_a_conjugation_closed_wanted_set_to_the_front(m, seed, share):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((m, m))
    eigs = np.linalg.eigvals(M)
    pick = rng.random(m) < share
    T, Q, sdim = _ordered_schur(M, eigs[pick])
    assert T.dtype == Q.dtype == np.float64
    nrm = np.linalg.norm(M)
    assert np.linalg.norm(Q.T @ Q - np.eye(m)) <= 1e-12 * m
    assert np.linalg.norm(M @ Q - Q @ T) <= 1e-12 * nrm
    expected = np.sort_complex(eigs[_closed(eigs, pick)])
    assert sdim == len(expected)
    if 0 < sdim < m:
        assert T[sdim, sdim - 1] == 0  # no 2 x 2 block straddles the cut
    lead = np.sort_complex(np.linalg.eigvals(T[:sdim, :sdim])) if sdim else expected
    assert np.allclose(lead, expected, rtol=0.0, atol=1e-8 * nrm)


def test_restart_size_never_splits_a_conjugate_pair():
    # a real Schur form whose 2 x 2 block sits where the cut would fall
    tail = np.array([[1.0, 0.4, 0.2], [0.0, 2.0, -3.0], [0.0, 3.0, 2.0]])
    head = np.array([[2.0, -3.0, 0.1], [3.0, 2.0, 0.3], [0.0, 0.0, 1.0]])
    assert _restart_size(tail, 3, 3) == 1  # m - 1 would split rows 1 and 2
    assert _restart_size(tail, 1, 3) == 1
    assert _restart_size(head, 0, 3) == 2  # 1 would split rows 0 and 1
    assert _restart_size(head, 2, 3) == 2
    triangular = np.triu(np.arange(1.0, 10.0).reshape(3, 3)) + 0j
    assert [_restart_size(triangular, s, 3) for s in range(5)] == [1, 1, 2, 2, 2]


def test_real_driver_keeps_conjugate_pairs_and_its_expansion_count():
    # a real operator whose dominant eigenvalues are the pair 3 +- 1j: every
    # restart reorders a real Schur form, keeps both or neither of each pair
    # and expands back to ncv (or ncv + 1 where a pair added a vector), so
    # that each cycle makes the expansions a complex H would make
    import nepsolve.linalg as linalg_mod

    rng = np.random.default_rng(21)
    n, ncv = 80, 12
    D = np.diag(np.linspace(0.0, 2.0, n))
    D[:2, :2] = [[3.0, -1.0], [1.0, 3.0]]
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = Q @ D @ Q.T
    cuts = []

    def recorded(T, sdim, m):
        k = _restart_size(T, sdim, m)
        cuts.append((m, T[k, k - 1] if k < m else 0.0))
        return k

    engine = FullBasisEngine(lambda v: A @ v, np.ones((1, n)), ncv, dtype=float)
    driver = KrylovSchurDriver(engine, ncv, 1e-12, lambda t: -np.abs(t))
    assert driver.H.dtype == np.float64
    linalg_mod._restart_size = recorded
    try:
        driver.run(2, 40)
    finally:
        linalg_mod._restart_size = _restart_size
    assert engine.V.dtype == np.float64 and driver.restarts == len(cuts) > 0
    assert all(split == 0 for _, split in cuts)
    assert all(m in (ncv, ncv + 1) for m, _ in cuts)
    found = driver.extract()[:2]
    assert all(ok for *_, ok in found)
    assert np.allclose(np.sort_complex([t for t, *_ in found]), [3.0 - 1.0j, 3.0 + 1.0j], atol=1e-10)
    for theta, y, _res, _ok in found:
        x = engine.ritz_full(y, driver.m)
        assert np.linalg.norm(A @ x - theta * x) <= 1e-10 * np.linalg.norm(x)
    # a real Ritz value of the real H is read out with its real vector
    kinds = {(type(theta), y.dtype.type) for theta, y, _res, _ok in driver.extract()}
    assert kinds == {(np.float64, np.float64), (np.complex128, np.complex128)}


@pytest.mark.parametrize("rows", [1, 2, 63, 64, 65, 129, 300])
@pytest.mark.parametrize("m, r", [(1, 1), (5, 1), (6, 4), (10, 10)])
def test_compress_columns_matches_the_unblocked_product(rows, m, r, monkeypatch):
    import nepsolve.linalg as linalg_mod

    monkeypatch.setattr(linalg_mod, "COMPRESS_ROWS", 32)
    rng = np.random.default_rng(rows * 100 + m * 10 + r)
    B = np.asfortranarray(rand_complex(rng, rows, m + 2))
    W = rand_complex(rng, m, r)
    expected = B[:, :m] @ W
    rest = B[:, r:].copy()
    buffer = B
    compress_columns(B, W)
    assert B is buffer
    assert np.array_equal(B[:, :r], expected)
    assert np.array_equal(B[:, r:], rest)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_range_basis_spans_the_dominant_left_singular_space(complex_):
    rng = np.random.default_rng(21)
    draw = rand_complex if complex_ else (lambda rng, *shape: rng.standard_normal(shape))
    A = draw(rng, 12, 5) @ draw(rng, 5, 40)  # rank 5
    W = _range_basis(A)
    assert W.shape == (12, 5) and W.dtype == A.dtype
    assert np.linalg.norm(W.conj().T @ W - np.eye(5)) <= 1e-13
    U = np.linalg.svd(A)[0][:, :5]
    assert np.linalg.norm(U - W @ (W.conj().T @ U)) <= 1e-12


def test_complex_range_basis_is_bitwise_the_same_at_one_and_two_blas_threads():
    # the compression of the compact basis; numpy's complex SVD of this
    # matrix rounds differently at 1 and 2 BLAS threads
    script = (
        "import numpy as np\n"
        "from nepsolve.linalg import _range_basis\n"
        "rng = np.random.default_rng(22)\n"
        "print(_range_basis(rng.standard_normal((29, 500)) + 1j * rng.standard_normal((29, 500))).tobytes().hex())\n"
    )
    assert run_at_blas_threads("1", script) == run_at_blas_threads("2", script)


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
    mu, x = gen_eig_smallest(lambda v: S @ v, lambda v: v, v0=v0, tol=tol)
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

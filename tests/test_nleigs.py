import numpy as np
import pytest
import scipy.sparse as sp

from nepsolve import functions as fn
from nepsolve.core import Ellipse, Interval, NepError, NepOperator, Rectangle, Settings, backward_error
from nepsolve.linalg import FullBasisEngine, KrylovSchurDriver, SingularMatrixError
from nepsolve.nleigs import (
    LejaBagbySequence,
    RationalInterpolant,
    ShiftInvertContext,
    ToarBasisEngine,
    UnsupportedPoleDetection,
    auto_singularities,
    divided_differences,
    leja_bagby,
    next_shift,
    nleigs_solve,
    shift_invert_context,
)
from nepsolve.problems import gen_delay, gen_loaded_string
from blas_threads import run_at_blas_threads


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def toar_fill(ctx, w0, steps):
    """``(U, G, H)`` of one Krylov-Schur fill of ``steps`` TOAR expansions, no restart.

    At a breakdown the driver appends a random vector with H[j+1, j] = 0.
    """
    engine = ToarBasisEngine(ctx, w0, ncv=steps)
    driver = KrylovSchurDriver(engine, steps, 1e-14, lambda t: -np.abs(t))
    driver.run(steps + 1, max_restarts=0)
    return engine.U, engine.G, driver.H[: driver.m + 1, : driver.m]


# -- Leja-Bagby ------------------------------------------------------------------


def test_leja_bagby_endpoint_extremum():
    boundary = np.linspace(-1.0, 1.0, 201)
    seq = leja_bagby(boundary, [], 5, start_hint=1.0)
    assert seq.nodes[0] == 1.0
    assert seq.nodes[1] == -1.0
    assert np.all(np.isinf(seq.poles))


def test_leja_bagby_greedy_conditions_audit():
    # nodes maximize and poles minimize |s_j| over the two discretizations
    rng = np.random.default_rng(0)
    boundary = Ellipse(2.0 + 1.0j, 3.0, 1.0).boundary_points(400)
    sing = np.linspace(-4.0, -1.0, 37) + 0.0j
    d = 6
    seq = leja_bagby(boundary, sing, d, start_hint=2.0 + 1.0j)

    def s_j(j, z):
        num = np.prod([z - seq.nodes[k] for k in range(j + 1)])
        den = np.prod([1.0 - z * seq.inv_pole(k) for k in range(1, j + 1)])
        with np.errstate(divide="ignore", invalid="ignore"):
            return num / den

    for j in range(d):
        vals_b = np.abs([s_j(j, z) for z in boundary])
        assert np.abs(s_j(j, seq.nodes[j + 1])) >= vals_b.max() * (1 - 1e-12)
        vals_x = np.abs([s_j(j, z) for z in sing])
        picked = np.abs(s_j(j, seq.poles[j + 1]))
        assert picked <= vals_x.min() * (1 + 1e-12)


def test_leja_bagby_basis_normalization():
    boundary = np.linspace(4.0, 800.0, 500)
    seq = leja_bagby(boundary, [1.0], 8, start_hint=10.0)
    for j in range(1, 9):
        vals = np.abs([seq.b_values(z, j)[j] for z in boundary])
        assert vals.max() == pytest.approx(1.0, abs=1e-10)


def test_leja_bagby_single_pole_used_once():
    boundary = np.linspace(4.0, 800.0, 300)
    seq = leja_bagby(boundary, [1.0], 6, start_hint=10.0)
    finite = seq.poles[np.isfinite(seq.poles)]
    assert len(finite) == 1
    assert finite[0] == 1.0


LEJA_CASES = {
    "interval": (lambda: gen_delay(100)[0], Interval(-260.0, 50.0), 1.0, []),
    "rectangle": (lambda: gen_delay(100)[0], Rectangle(-60.0, 10.0, -5.0, 5.0), -5.0, []),
    "ellipse": (lambda: gen_delay(100)[0], Ellipse(-20.0, 45.0, 10.0), -20.0, []),
    "string-pole": (lambda: gen_loaded_string(100)[0], Interval(4.0, 800.0), 10.0, [1.0]),
}


@pytest.mark.parametrize("case", sorted(LEJA_CASES))
def test_nleigs_keeps_the_greedy_sequence_up_to_its_degree(case, monkeypatch):
    # the nodes are chosen while the divided differences run, and the
    # interpolant keeps what b_0 .. b_d read: bitwise the first entries of
    # the whole greedy sequence
    from nepsolve import nleigs as nleigs_mod

    make, region, target, sing = LEJA_CASES[case]
    interpolants = []
    dd = nleigs_mod.divided_differences

    def recorded(*args, **kwargs):
        interpolants.append(dd(*args, **kwargs))
        return interpolants[-1]

    monkeypatch.setattr(nleigs_mod, "divided_differences", recorded)
    nleigs_solve(make(), Settings(nev=2, tol=1e-6, target=target, region=region), singularities=sing)
    (ri,) = interpolants
    ref = leja_bagby(region.boundary_points(nleigs_mod.BOUNDARY_POINTS), sing, 30, start_hint=target)
    d = ri.d
    assert 2 <= d < 30
    assert np.array_equal(ri.seq.nodes, ref.nodes[:d])
    assert np.array_equal(ri.seq.poles, ref.poles[: d + 1]) and np.array_equal(ri.seq.betas, ref.betas[: d + 1])


def test_two_sided_nleigs_picks_nodes_only_up_to_its_degree(monkeypatch):
    from nepsolve import nleigs as nleigs_mod

    steps = []
    step = nleigs_mod._GreedySequence._step
    monkeypatch.setattr(nleigs_mod._GreedySequence, "_step", lambda self: steps.append(1) or step(self))
    s = Settings(nev=9, tol=1e-8, target=10.0, region=Interval(4.0, 800.0), problem_type="rational", two_sided=True)
    sol = nleigs_solve(gen_loaded_string(200)[0], s)
    assert sol.converged and sol.has_left
    # the start node and one greedy step per degree: degree + 1 nodes, not 31
    assert len(steps) + 1 == sol.stats["degree"] + 1 < nleigs_mod.DD_MAXDEG_DEFAULT + 1


# -- automatic singularities ---------------------------------------------------------


def test_auto_singularities_examples():
    eye = sp.identity(2, format="csr")
    op1 = NepOperator(terms=[(eye, fn.rational([1.0, 0.0], [1.0, -1.0]))])
    assert np.allclose(auto_singularities(op1), [1.0])

    op2 = NepOperator(terms=[(eye, fn.polynomial([1.0, 2.0, 3.0]))])
    assert auto_singularities(op2).size == 0

    prod = fn.combine(
        "mul", fn.rational([1.0], [1.0, -2.0]), fn.rational([1.0], [1.0, 3.0])
    )
    op3 = NepOperator(terms=[(eye, prod)])
    got = np.sort_complex(auto_singularities(op3))
    assert np.allclose(got, [-3.0, 2.0])


def test_auto_singularities_unsupported_term():
    eye = sp.identity(2, format="csr")
    op = NepOperator(terms=[(eye, fn.square_root())])
    with pytest.raises(UnsupportedPoleDetection):
        auto_singularities(op)


def test_auto_singularities_entire_terms_have_no_poles():
    eye = sp.identity(2, format="csr")
    entire = [
        fn.exponential(alpha=-0.5),
        fn.phi(2),
        fn.combine("add", fn.exponential(), fn.phi(1)),
        fn.combine("mul", fn.phi(0), fn.polynomial([1.0, 2.0])),
    ]
    for f in entire:
        assert auto_singularities(NepOperator(terms=[(eye, f)])).size == 0
    mixed = fn.combine("add", fn.exponential(), fn.rational([1.0], [1.0, -2.0]))
    assert np.allclose(auto_singularities(NepOperator(terms=[(eye, mixed)])), [2.0])


def test_nleigs_on_the_delay_problem_carries_no_pole_note():
    op, _ = gen_delay(100)
    sol = nleigs_solve(op, Settings(nev=2, tol=1e-8, target=1.0, region=Interval(-260.0, 50.0)))
    assert sol.converged and "notes" not in sol.stats


def test_auto_singularities_loaded_string():
    op, _ = gen_loaded_string(10, kappa=1.0, mass=1.0)
    assert np.allclose(auto_singularities(op), [1.0])


# -- divided differences ----------------------------------------------------------------


def test_divided_differences_constant_function():
    eye = sp.identity(3, format="csr")
    op = NepOperator(terms=[(eye, fn.constant(1.0))])
    boundary = np.linspace(-1, 1, 101)
    seq = leja_bagby(boundary, [], 8, start_hint=0.0)
    ri = divided_differences(op, seq, dd_tol=1e-13, d_max=8)
    coeffs = ri.coeffs[0]
    assert coeffs[0] == pytest.approx(seq.betas[0])
    assert np.max(np.abs(coeffs[1:])) <= 1e-13


def test_divided_differences_linear_function_scalar_recurrence():
    # oracle: evaluate the scalar dd's by the direct interpolation recurrence
    eye = sp.identity(2, format="csr")
    op = NepOperator(terms=[(eye, fn.polynomial([1.0, 0.0]))])
    boundary = np.linspace(-2, 3, 151)
    seq = leja_bagby(boundary, [], 6, start_hint=0.0)
    ri = divided_differences(op, seq, dd_tol=1e-13, d_max=6)
    f = lambda z: z
    ref = []
    for j in range(ri.d + 1):
        b = seq.b_values(seq.nodes[j], j)
        r = sum(bk * dk for bk, dk in zip(b[:j], ref))
        ref.append((f(seq.nodes[j]) - r) / b[j])
    assert np.allclose(ri.coeffs[0], ref, atol=1e-10)
    assert ri.coeffs[0][0] == pytest.approx(seq.betas[0] * seq.nodes[0])
    assert ri.coeffs[0][1] == pytest.approx(seq.betas[0] * seq.betas[1])
    # R_1 reproduces the identity function exactly
    for z in (0.3, -1.5, 2.4):
        bv = seq.b_values(z, ri.d)
        val = np.dot(bv, ri.coeffs[0])
        assert val == pytest.approx(z, rel=1e-12)


def test_divided_differences_loaded_string_exactness():
    op, _ = gen_loaded_string(30)
    boundary = np.linspace(4.0, 800.0, 800)
    seq = leja_bagby(boundary, [1.0], 30, start_hint=10.0)
    ri = divided_differences(op, seq, dd_tol=1e-11, d_max=30)
    assert ri.d <= 4
    rng = np.random.default_rng(1)
    for lam in rng.uniform(4.0, 800.0, 20):
        R = ri.assemble(complex(lam)).toarray()
        T = op.assemble(complex(lam)).toarray()
        from nepsolve.linalg import inf_norm

        assert inf_norm(R - T) <= 1e-10 * inf_norm(T)


def test_divided_differences_callback_path():
    # callback forms use the explicit matrix recurrence; compare to split path
    op, _ = gen_delay(10, tau=0.05, b=-1.5)
    op_cb = NepOperator(
        t_fn=lambda lam: op.assemble(lam),
        tprime_fn=lambda lam: op.assemble_deriv(lam),
        n=10,
    )
    boundary = np.linspace(-30.0, 10.0, 300)
    seq = leja_bagby(boundary, [], 20, start_hint=0.0)
    ri_split = divided_differences(op, seq, dd_tol=1e-12, d_max=20)
    ri_cb = divided_differences(op_cb, seq, dd_tol=1e-12, d_max=20)
    for lam in (-5.0, 2.0, -20.0 + 1.0j):
        A = ri_split.assemble(lam).toarray()
        B = ri_cb.assemble(lam).toarray()
        assert np.max(np.abs(A - B)) <= 1e-8 * max(1.0, np.max(np.abs(A)))


def test_interpolation_conditions_at_nodes():
    op, _ = gen_delay(8, tau=0.1, b=-2.0)
    boundary = np.linspace(-20.0, 10.0, 200)
    seq = leja_bagby(boundary, [], 15, start_hint=0.0)
    ri = divided_differences(op, seq, dd_tol=1e-14, d_max=15)
    for j in range(ri.d + 1):
        lam = seq.nodes[j]
        R = ri.assemble(lam).toarray()
        T = op.assemble(lam).toarray()
        assert np.max(np.abs(R - T)) <= 1e-8 * max(1.0, np.max(np.abs(T)))


# -- shift-invert kernels ------------------------------------------------------------------


def random_interpolant(rng, n=6, d=3, with_poles=True, callback=False):
    """Random small rational interpolant for kernel checks against dense pencils.

    ``callback`` hides the split form, so the interpolant keeps explicit
    divided-difference matrices.
    """
    terms = [
        (sp.csr_matrix(rand_complex(rng, n, n)), fn.constant(1.0)),
        (sp.identity(n, format="csr"), fn.polynomial([-1.0, 0.0])),
        (sp.csr_matrix(rand_complex(rng, n, n) * 0.3), fn.exponential(alpha=0.2)),
    ]
    op = NepOperator(terms=terms)
    if callback:
        op = NepOperator(t_fn=op.assemble, tprime_fn=op.assemble_deriv, n=n)
    boundary = Ellipse(0.0, 2.0, 1.0).boundary_points(200)
    sing = [4.0 + 0.5j, -5.0] if with_poles else []
    seq = leja_bagby(boundary, sing, d, start_hint=0.5)
    ri = divided_differences(op, seq, dd_tol=0.0, d_max=d)  # force full degree
    assert ri.d == d
    return op, ri


def dense_linearization(ri):
    """Explicit companion-type pencil built from the divided differences."""
    d = ri.d
    n = ri.op.n
    seq = ri.seq
    D = [ri.dd_dense(j) for j in range(d + 1)]
    A = np.zeros((d * n, d * n), dtype=complex)
    B = np.zeros((d * n, d * n), dtype=complex)
    eye = np.eye(n)
    for j in range(d - 1):
        A[:n, j * n : (j + 1) * n] = D[j]
    A[:n, (d - 1) * n :] = D[d - 1] - (seq.nodes[d - 1] / seq.betas[d]) * D[d]
    for j in range(1, d):
        A[j * n : (j + 1) * n, (j - 1) * n : j * n] = seq.nodes[j - 1] * eye
        A[j * n : (j + 1) * n, j * n : (j + 1) * n] = seq.betas[j] * eye
    B[:n, (d - 1) * n :] = -D[d] / seq.betas[d]
    for j in range(1, d):
        B[j * n : (j + 1) * n, (j - 1) * n : j * n] = eye
        B[j * n : (j + 1) * n, j * n : (j + 1) * n] = seq.betas[j] * seq.inv_pole(j) * eye
    return A, B


def test_shift_invert_zero_vector():
    rng = np.random.default_rng(2)
    op, ri = random_interpolant(rng)
    ctx = ShiftInvertContext(ri, 0.3 + 0.1j)
    out = ctx.apply(np.zeros(3 * 6, dtype=complex))
    assert np.allclose(out, 0.0)
    out2 = ctx.apply_adjoint(np.zeros(3 * 6, dtype=complex))
    assert np.allclose(out2, 0.0)


def test_shift_invert_matches_dense_oracle():
    rng = np.random.default_rng(3)
    op, ri = random_interpolant(rng, n=6, d=3)
    sigma = 0.4 - 0.2j
    A, B = dense_linearization(ri)
    S = np.linalg.solve(A - sigma * B, B)
    ctx = ShiftInvertContext(ri, sigma)
    for _ in range(5):
        x = rand_complex(rng, 18)
        got = ctx.apply(x)
        ref = S @ x
        assert np.linalg.norm(got - ref) <= 1e-10 * max(1.0, np.linalg.norm(ref))


def test_shift_invert_spectral_mapping():
    rng = np.random.default_rng(4)
    op, ri = random_interpolant(rng, n=5, d=3)
    sigma = 0.2 + 0.3j
    A, B = dense_linearization(ri)
    w, V = np.linalg.eig(np.linalg.solve(A - sigma * B, B))
    i = int(np.argmax(np.abs(w)))
    ctx = ShiftInvertContext(ri, sigma)
    y = V[:, i]
    out = ctx.apply(y)
    assert np.linalg.norm(out - w[i] * y) <= 1e-8 * np.linalg.norm(y) * abs(w[i])


def test_contexts_on_one_interpolant_match_contexts_on_fresh_ones_bitwise():
    # the shift-independent data built once per interpolant serve a real and
    # a complex shift alike, as if each context had built them itself
    op, _ = gen_loaded_string(40)
    boundary = Interval(4.0, 800.0).boundary_points(200)

    def interpolant():
        return divided_differences(op, leja_bagby(boundary, auto_singularities(op), 30, start_hint=10.0))

    shared = interpolant()
    rng = np.random.default_rng(40)
    for sigma, real in ((10.0, True), (7.0 + 2.0j, False), (12.5, True), (-3.0 + 1.0j, False)):
        ctx, ref = ShiftInvertContext(shared, sigma), ShiftInvertContext(interpolant(), sigma)
        assert ctx.real == ref.real == real
        for name in ("b_sigma", "denoms", "pole_factors", "inv_xi", "_coeffs", "_rhs_weights"):
            got, want = getattr(ctx, name), getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert [M is R for M, R in zip(ctx._rhs_sum.mats, ref._rhs_sum.mats)] == [True] * len(ref._rhs_sum.mats)
        for x in (rng.standard_normal(ctx.d * ctx.n), rand_complex(rng, ctx.d * ctx.n)):
            assert np.array_equal(ctx.apply(x), ref.apply(x))
            (z, dh), (z_ref, dh_ref) = ctx.adjoint_stage_z(x), ref.adjoint_stage_z(x)
            assert np.array_equal(z, z_ref) and all(np.array_equal(a, b) for a, b in zip(dh, dh_ref))
    assert set(shared._shift_data) == {True, False}


def test_shift_invert_adjoint_matches_dense():
    rng = np.random.default_rng(5)
    op, ri = random_interpolant(rng, n=5, d=4)
    sigma = -0.3 + 0.25j
    A, B = dense_linearization(ri)
    S = np.linalg.solve(A - sigma * B, B)
    ctx = ShiftInvertContext(ri, sigma)
    for _ in range(5):
        x = rand_complex(rng, 20)
        got = ctx.apply_adjoint(x)
        ref = S.conj().T @ x
        assert np.linalg.norm(got - ref) <= 1e-10 * max(1.0, np.linalg.norm(ref))


def test_shift_invert_adjoint_inner_product_identity():
    rng = np.random.default_rng(6)
    op, ri = random_interpolant(rng, n=6, d=3)
    ctx = ShiftInvertContext(ri, 0.1 + 0.1j)
    for _ in range(10):
        x, y = rand_complex(rng, 18), rand_complex(rng, 18)
        lhs = np.vdot(y, ctx.apply(x))
        rhs = np.vdot(ctx.apply_adjoint(y), x)
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


def test_kernel_invariants_randomized_trials():
    # dense oracle + adjoint identity + Arnoldi relation, many small instances
    rng = np.random.default_rng(7)
    for trial in range(100):
        n = int(rng.integers(3, 9))
        d = int(rng.integers(2, 5))
        op, ri = random_interpolant(rng, n=n, d=d, with_poles=bool(rng.integers(2)))
        sigma = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        A, B = dense_linearization(ri)
        try:
            S = np.linalg.solve(A - sigma * B, B)
        except np.linalg.LinAlgError:
            continue
        ctx = ShiftInvertContext(ri, sigma)
        x = rand_complex(rng, d * n)
        assert np.linalg.norm(ctx.apply(x) - S @ x) <= 1e-8 * max(1.0, np.linalg.norm(S @ x))
        y = rand_complex(rng, d * n)
        lhs = np.vdot(y, ctx.apply(x))
        rhs = np.vdot(ctx.apply_adjoint(y), x)
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs), abs(rhs))


# -- TOAR ------------------------------------------------------------------------------------


def test_toar_expand_reconstruction_oracle():
    rng = np.random.default_rng(8)
    op, ri = random_interpolant(rng, n=6, d=3)
    sigma = 0.3 + 0.2j
    ctx = ShiftInvertContext(ri, sigma)
    w0 = rand_complex(rng, 3, 6)
    engine = ToarBasisEngine(ctx, w0, ncv=6)
    U0, g0 = engine.U.copy(), engine.G[:, :, 0].copy()
    vec0 = np.concatenate([U0 @ g0[i] for i in range(3)])
    # S (I (x) U0) g0 = (I (x) [U0, y0]) G1
    y0, G1 = ctx.toar_expand(U0, g0)
    U1 = np.column_stack([U0, y0])
    vec1 = np.concatenate([U1 @ G1[i] for i in range(3)])
    ref = ctx.apply(vec0)
    assert np.linalg.norm(vec1 - ref) <= 1e-10 * max(1.0, np.linalg.norm(ref))
    # the engine's step orthonormalizes the new direction into U
    engine.expand(0)
    assert engine.mu == U0.shape[1] + 1
    assert np.linalg.norm(engine.U.conj().T @ engine.U - np.eye(engine.mu)) <= 1e-10


def test_toar_first_step_matches_full_basis():
    rng = np.random.default_rng(9)
    op, ri = random_interpolant(rng, n=5, d=3)
    ctx = ShiftInvertContext(ri, 0.1)
    w0 = rand_complex(rng, 3, 5)
    # full-basis Arnoldi first step
    v0 = w0.reshape(-1) / np.linalg.norm(w0)
    w = ctx.apply(v0)
    from nepsolve.linalg import orthogonalize

    h_full, beta_full, _, _ = orthogonalize(v0[:, None], w)
    engine = ToarBasisEngine(ctx, w0, ncv=5)
    h_toar, beta_toar, dep = engine.expand(0)
    assert not dep
    assert abs(h_full[0] - h_toar[0]) <= 1e-10 * max(1.0, abs(h_full[0]))
    assert abs(beta_full - beta_toar) <= 1e-10 * max(1.0, beta_full)


def test_toar_arnoldi_relation_and_orthonormality():
    rng = np.random.default_rng(10)
    for trial in range(100):
        n = int(rng.integers(3, 9))
        d = int(rng.integers(2, 5))
        op, ri = random_interpolant(rng, n=n, d=d, with_poles=bool(rng.integers(2)))
        sigma = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        try:
            ctx = ShiftInvertContext(ri, sigma)
        except (NepError, np.linalg.LinAlgError):
            continue
        steps = min(4, d * n - 1)
        w0 = rand_complex(rng, d, n)
        U, G, H = toar_fill(ctx, w0, steps)
        m = H.shape[1]
        # orthonormality of U and of the stacked coefficients
        assert np.linalg.norm(U.conj().T @ U - np.eye(U.shape[1])) <= 1e-10
        Gs = G.reshape(d * U.shape[1], G.shape[2])
        assert np.linalg.norm(Gs.conj().T @ Gs - np.eye(Gs.shape[1])) <= 1e-10
        if m == 0:
            continue
        # Arnoldi relation in the reconstructed basis: S V_m = V_{m+1} H
        V = np.vstack([U @ G[i] for i in range(d)])
        A, B = dense_linearization(ri)
        S = np.linalg.solve(A - sigma * B, B)
        lhs = S @ V[:, :m]
        rhs = V @ H
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(1.0, np.linalg.norm(B))


def test_callback_interpolant_apply_and_toar_match_dense():
    # explicit divided-difference matrices: one right-hand-side column and one
    # matvec per matrix in place of the folded term weights
    rng = np.random.default_rng(11)
    d, n = 4, 6
    op, ri = random_interpolant(rng, n=n, d=d, callback=True)
    assert len(ri.mats.mats) == d + 1
    assert np.array_equal(ri.coeffs, np.eye(d + 1))
    sigma = 0.2 - 0.1j
    A, B = dense_linearization(ri)
    S = np.linalg.solve(A - sigma * B, B)
    ctx = ShiftInvertContext(ri, sigma)
    # D_{d-1} has no block weight: d sparse products per step, not d + 1
    assert len(ctx._rhs_sum.mats) == d
    for _ in range(3):
        x = rand_complex(rng, d * n)
        assert np.linalg.norm(ctx.apply(x) - S @ x) <= 1e-10 * max(1.0, np.linalg.norm(S @ x))
    U, G, H = toar_fill(ctx, rand_complex(rng, d, n), 6)
    assert H.shape == (7, 6)
    V = np.vstack([U @ G[i] for i in range(d)])
    assert np.linalg.norm(S @ V[:, :6] - V @ H) <= 1e-8 * max(1.0, np.linalg.norm(B))


def check_compact_basis(engine, H, S):
    """U and (I (x) U) G orthonormal, and S V_m = V_{m+1} H_m."""
    U, G = engine.U, engine.G
    m = H.shape[1]
    assert G.shape == (engine.d, U.shape[1], m + 1)
    assert np.linalg.norm(U.conj().T @ U - np.eye(U.shape[1])) <= 1e-10
    V = np.vstack([U @ G[i] for i in range(engine.d)])
    assert np.linalg.norm(V.conj().T @ V - np.eye(m + 1)) <= 1e-10
    assert np.linalg.norm(S @ V[:, :m] - V @ H) <= 1e-8 * max(1.0, np.linalg.norm(S))


def test_toar_restarts_keep_the_compact_basis():
    rng = np.random.default_rng(12)
    d, n, ncv = 3, 20, 8
    op, ri = random_interpolant(rng, n=n, d=d)
    sigma = 0.1 + 0.2j
    A, B = dense_linearization(ri)
    S = np.linalg.solve(A - sigma * B, B)
    engine = ToarBasisEngine(ShiftInvertContext(ri, sigma), rand_complex(rng, d, n), ncv)
    driver = KrylovSchurDriver(engine, ncv, 1e-14, lambda t: -np.abs(t))
    driver.run(ncv, 3)  # more pairs than can converge: stops after 3 restarts
    assert driver.restarts == 3
    check_compact_basis(engine, driver.H[: driver.m + 1, : driver.m], S)


def test_toar_basis_grows_past_a_full_buffer():
    # the buffer holds the rank of U that exact arithmetic allows; should
    # rounding ever let the rank pass it, the buffer grows rather than fails
    rng = np.random.default_rng(13)
    d, n, steps = 3, 12, 6
    op, ri = random_interpolant(rng, n=n, d=d)
    sigma = -0.2 + 0.1j
    A, B = dense_linearization(ri)
    S = np.linalg.solve(A - sigma * B, B)
    engine = ToarBasisEngine(ShiftInvertContext(ri, sigma), rand_complex(rng, d, n), steps)
    mu = engine.mu
    engine._U = engine._U[:, :mu].copy(order="F")
    engine._G = engine._G[:, :mu].copy()
    H = np.zeros((steps + 1, steps), dtype=complex)
    for j in range(steps):
        h, beta, dep = engine.expand(j)
        assert not dep
        H[: j + 1, j], H[j + 1, j] = h, beta
    assert engine.mu == mu + steps
    check_compact_basis(engine, H, S)


def _start_blocks(kind, rng, d, n):
    if kind == "equal":
        return np.ones((d, n)), 1
    if kind == "random":
        return rand_complex(rng, d, n), d
    a, b = rand_complex(rng, 2, n)
    return np.array([(k + 1) * a - (2 * k - 1) * b for k in range(d)]), 2


@pytest.mark.parametrize("kind", ["equal", "random", "two"])
def test_toar_start_holds_the_rank_of_the_start_blocks(kind):
    # the start blocks are folded into U one at a time, so U gets the rank
    # of the blocks, not d columns of which all but the rank are noise
    rng = np.random.default_rng(14)
    d, n = 4, 30
    op, ri = random_interpolant(rng, n=n, d=d)
    w0, rank = _start_blocks(kind, rng, d, n)
    engine = ToarBasisEngine(ShiftInvertContext(ri, 0.2 + 0.1j), w0, ncv=5)
    assert engine.mu == rank
    U, g0 = engine.U, engine.G[:, :, 0]
    assert np.linalg.norm(U.conj().T @ U - np.eye(rank)) <= 1e-14
    v0 = np.concatenate([U @ g0[i] for i in range(d)])
    assert np.linalg.norm(v0 - w0.reshape(-1) / np.linalg.norm(w0)) <= 1e-14


def test_toar_start_rejects_zero_blocks():
    rng = np.random.default_rng(15)
    op, ri = random_interpolant(rng, n=6, d=3)
    with pytest.raises(ValueError):
        ToarBasisEngine(ShiftInvertContext(ri, 0.1), np.zeros((3, 6)), ncv=4)


@pytest.mark.parametrize("basis", ["toar", "full"])
def test_restart_compresses_the_basis_in_place(basis, monkeypatch):
    # both engines' restarts overwrite their own buffer, block by block, with
    # the same numbers as the out-of-place product B[:, :m] @ W
    import nepsolve.linalg as linalg_mod

    monkeypatch.setattr(linalg_mod, "COMPRESS_ROWS", 64)
    rng = np.random.default_rng(16)
    d, n, ncv = 3, 301, 8
    op, ri = random_interpolant(rng, n=n, d=d)
    ctx = ShiftInvertContext(ri, 0.1 + 0.2j)
    if basis == "toar":
        engine = ToarBasisEngine(ctx, rand_complex(rng, d, n), ncv)
        buffer = engine._U
    else:
        engine = FullBasisEngine(ctx.apply, rand_complex(rng, d, n), ncv)
        buffer = engine.V
    calls = []
    compress = linalg_mod.compress_columns

    def checked(B, W):
        m, r = W.shape
        expected = B[:, :m].copy(order="F") @ W
        compress(B, W)
        calls.append((np.shares_memory(B, buffer), np.array_equal(B[:, :r], expected)))

    monkeypatch.setattr(linalg_mod, "compress_columns", checked)
    driver = KrylovSchurDriver(engine, ncv, 1e-14, lambda t: -np.abs(t))
    driver.run(ncv, 2)
    assert driver.restarts == 2
    assert calls == [(True, True)] * 2
    assert (engine._U if basis == "toar" else engine.V) is buffer


# -- full solver -------------------------------------------------------------------------------


def test_nleigs_requires_region():
    op, _ = gen_delay(10)
    with pytest.raises(NepError):
        nleigs_solve(op, Settings(nev=1, region=None))


def test_nleigs_delay_desk():
    op, oracle = gen_delay(400, tau=0.001, b=-2.0)
    s = Settings(nev=5, tol=1e-6, target=1.0, region=Interval(-260.0, 50.0))
    sol = nleigs_solve(op, s)
    assert sol.converged
    assert len(sol.pairs) >= 5
    roots = oracle.roots()
    for p in sol.pairs:
        assert p.eta <= s.tol
        assert np.min(np.abs(roots - p.lam)) <= 1e-6 * abs(p.lam)
        assert s.region.contains(p.lam, imag_tol=1e-8 * max(1.0, abs(p.lam)))


def test_shift_on_an_interpolation_node_moves_once():
    rng = np.random.default_rng(4)
    op, ri = random_interpolant(rng, n=5, d=3)
    node = ri.seq.nodes[0]
    with pytest.raises(SingularMatrixError):
        ShiftInvertContext(ri, node)
    assert shift_invert_context(ri, node).sigma == node + 1e-4 * max(1.0, abs(node))
    assert shift_invert_context(ri, 0.3 + 0.1j).sigma == 0.3 + 0.1j


def _diag3():
    """T(lam) = diag(1, 2, 3) - lam I."""
    A = sp.diags([1.0, 2.0, 3.0], format="csr")
    return NepOperator(terms=[(A, fn.constant(1.0)), (sp.identity(3, format="csr"), fn.polynomial([-1.0, 0.0]))])


DIAG3_SETTINGS = Settings(nev=3, tol=1e-10, target=2.0, region=Interval(0.0, 4.0))


def test_nleigs_moves_a_target_where_t_is_singular():
    # T is singular at the target 2, so R_d is too, and the shift moves once,
    # to 2.0002
    sol = nleigs_solve(_diag3(), DIAG3_SETTINGS)
    assert sol.converged
    np.testing.assert_allclose(np.sort(sol.eigenvalues.real), [1.0, 2.0, 3.0], atol=1e-9)


def test_nleigs_left_vector_where_r_d_is_singular_at_the_eigenvalue(monkeypatch):
    # the run returns the eigenvalue 2.0 exactly, where R_d is exactly
    # singular: that pair's context moves to 2.0002, where one step gains
    # only about 1e-4, and its left vector takes more than one step; the
    # pairs at 1 and 3 are returned a few ulps off, where R_d is nearly
    # singular, and take one
    import dataclasses

    import nepsolve.nleigs as nleigs_mod

    contexts = []
    ctx_cls = nleigs_mod.ShiftInvertContext

    def recorded(*args):
        contexts.append(ctx_cls(*args))
        return contexts[-1]

    monkeypatch.setattr(nleigs_mod, "ShiftInvertContext", recorded)
    op = _diag3()
    s = dataclasses.replace(DIAG3_SETTINGS, two_sided=True)
    sol = nleigs_solve(op, s)
    assert sol.converged and sol.has_left and "notes" not in sol.stats
    # the right run's context, then one per pair
    right, *per_pair = contexts
    assert right.sigma == 2.0002 and len(per_pair) == 3
    assert 2.0 in [p.lam for p in sol.pairs]
    moved = [c for c in per_pair if c.sigma == 2.0002]
    others = [c for c in per_pair if c.sigma != 2.0002]
    assert len(moved) == 1 and moved[0].solve_count > 1
    assert sorted(c.sigma.real for c in others) == sorted(p.lam for p in sol.pairs if p.lam != 2.0)
    assert [c.solve_count for c in others] == [1, 1]
    assert sol.stats["linear_solves"] == sum(c.solve_count for c in contexts)
    for p in sol.pairs:
        eta_left = np.linalg.norm(op.apply_adjoint(p.lam, p.y)) / (op.norm_scale(p.lam) * np.linalg.norm(p.y))
        assert p.eta_left <= s.tol and eta_left <= s.tol


def test_nleigs_left_vector_that_never_meets_tol_is_noted(monkeypatch):
    # with no inverse-iteration step allowed no pair gets a left vector:
    # each keeps y None, the solve says so, and the right pairs still count
    import dataclasses

    import nepsolve.nleigs as nleigs_mod

    s = dataclasses.replace(DIAG3_SETTINGS, two_sided=True)
    ref = nleigs_solve(_diag3(), s)
    monkeypatch.setattr(nleigs_mod, "LEFT_STEPS", 0)
    sol = nleigs_solve(_diag3(), s)
    assert all(p.y is None and p.eta_left is None for p in sol.pairs)
    assert not sol.has_left
    assert sol.stats["notes"] == ["3 pairs lack a matched left eigenvector"]
    assert sol.converged and ref.converged and ref.has_left
    assert [p.lam for p in sol.pairs] == [p.lam for p in ref.pairs]


def test_nleigs_moves_a_target_on_a_boundary_grid_point():
    # the 1000 boundary points of [-999, 0] are the integers, and the first
    # Leja node is the one nearest the target: -9 itself, so the shift moves
    # off the node
    op, oracle = gen_delay(300, tau=0.001, b=-2.0)
    sol = nleigs_solve(op, Settings(nev=3, tol=1e-8, target=-9.0, region=Interval(-999.0, 0.0)))
    assert sol.converged
    np.testing.assert_allclose(
        np.sort_complex(sol.eigenvalues), np.sort_complex(oracle.nearest(-9.0, 3)), rtol=1e-6
    )


def test_nleigs_region_filter_discards_outside():
    # with the narrower benchmark interval only three eigenvalues qualify
    op, oracle = gen_delay(200, tau=0.001, b=-2.0)
    s = Settings(nev=5, tol=1e-6, target=1.0, region=Interval(-100.0, 50.0))
    sol = nleigs_solve(op, s)
    assert len(sol.pairs) == 3
    roots = oracle.roots()
    for p in sol.pairs:
        assert np.min(np.abs(roots - p.lam)) <= 1e-6 * abs(p.lam)
        assert -100.0 <= p.lam.real <= 50.0


def _shift_and_inverse(n=100):
    """T(lam) = A - lam I + lam^{-1} I with A = n tridiag(-1, 2, -1): a pole at 0."""
    A = n * sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1], format="csr")
    eye = sp.identity(n, format="csr")
    terms = [(A, fn.constant(1.0)), (eye, fn.polynomial([-1.0, 0.0])), (eye, fn.rational([1.0], [1.0, 0.0]))]
    return NepOperator(terms=terms)


@pytest.mark.xfail(
    strict=True,
    reason="CHANGES.md FOUND: a singularity at exactly 0 makes _GreedySequence._step divide by the "
    "pole (ROADMAP item 20)",
)
def test_nleigs_detects_a_pole_at_zero():
    # SLP returns 16.1912, 18.7189 and 21.4237 on this problem
    s = Settings(nev=3, tol=1e-8, target=20.0, region=Interval(5.0, 200.0))
    sol = nleigs_solve(_shift_and_inverse(), s, singularities="auto")
    assert sol.converged
    np.testing.assert_allclose(np.sort(sol.eigenvalues.real), [16.191154, 18.718902, 21.423674], rtol=1e-6)


# -- the shift loop ----------------------------------------------------------------------------


def test_next_shift_is_the_midpoint_of_the_widest_gap():
    iv = Interval(0.0, 10.0)
    assert next_shift(iv, [], []) == 5.0
    # a and b are covered: of the gaps (0, 1) and (1, 10) the second is wider
    assert next_shift(iv, [1.0], []) == 5.5
    assert next_shift(iv, [9.0], []) == 4.5
    # eigenvalues and earlier shifts are covered, by their real parts
    assert next_shift(iv, [1.0], [6.0, 7.0]) == 3.5
    assert next_shift(iv, [1.0 + 0j, 3.5], [6.0, 7.0 + 1e-9j]) == 8.5
    # a point outside [a, b] covers nothing inside it
    assert next_shift(iv, [8.0], [-3.0, 12.0]) == 4.0


def test_next_shift_leaves_a_2d_region_at_one_shift():
    assert next_shift(Ellipse(0.0, 2.0, 1.0), [0.0], []) is None
    assert next_shift(Rectangle(-1.0, 1.0, -1.0, 1.0), [0.0], [0.5]) is None


def test_nleigs_2d_region_stops_after_one_shift():
    # the ellipse holds two eigenvalues, -11.89 and -41.56: with nev 4 the
    # run at the target finds both and no second shift follows
    op, oracle = gen_delay(200)
    sol = nleigs_solve(op, Settings(nev=4, tol=1e-8, target=1.0, region=Ellipse(-20.0, 35.0, 5.0)))
    assert sol.stats["shifts"] == [1.0]
    assert len(sol.pairs) == 2 and not sol.converged
    np.testing.assert_allclose(sorted(p.lam.real for p in sol.pairs), sorted(oracle.nearest(-20.0, 2).real), rtol=1e-8)


def test_nleigs_shift_that_adds_no_pair_ends_the_loop(monkeypatch):
    # [-50, 50] holds two eigenvalues; the run at 1 finds both, the run at
    # 25.5, the midpoint of the widest gap (1, 50), finds no new one, and the
    # loop ends there, short of nev shifts; restarts and solves add up over
    # both runs
    import nepsolve.linalg as linalg_mod

    solves, drivers = [], []
    solve, driver_cls = linalg_mod._DirectSolver.solve, linalg_mod.KrylovSchurDriver

    def counted(self, b, adjoint=False):
        solves.append(adjoint)
        return solve(self, b, adjoint=adjoint)

    def recorded(engine, *args):
        drivers.append(driver_cls(engine, *args))
        return drivers[-1]

    monkeypatch.setattr(linalg_mod._DirectSolver, "solve", counted)
    monkeypatch.setattr(linalg_mod, "KrylovSchurDriver", recorded)
    op, _ = gen_delay(200)
    sol = nleigs_solve(op, Settings(nev=4, tol=1e-8, target=1.0, region=Interval(-50.0, 50.0)))
    assert sol.stats["shifts"] == [1.0, 25.5]
    assert len(sol.pairs) == 2 and not sol.converged
    assert len(drivers) == 2
    assert sol.stats["outer_iterations"] == sum(d.restarts for d in drivers)
    assert sol.stats["linear_solves"] == len(solves)


def test_nleigs_loaded_string_desk():
    op, oracle = gen_loaded_string(150)
    s = Settings(nev=9, tol=1e-8, target=10.0, problem_type="rational", region=Interval(4.0, 800.0))
    sol = nleigs_solve(op, s)
    assert sol.converged
    assert len(sol.pairs) == 9
    assert sol.stats["degree"] <= 4
    ev = oracle.all_eigenvalues()
    for p in sol.pairs:
        assert p.eta <= s.tol
        assert np.min(np.abs(ev - p.lam)) <= 1e-6 * abs(p.lam)


def test_nleigs_toar_and_full_basis_agree():
    op, _ = gen_loaded_string(120)
    s = Settings(nev=6, tol=1e-9, target=10.0, problem_type="rational", region=Interval(4.0, 800.0))
    sol_t = nleigs_solve(op, s, full_basis=False)
    sol_f = nleigs_solve(op, s, full_basis=True)
    a = np.sort(sol_t.eigenvalues.real)
    b = np.sort(sol_f.eigenvalues.real)
    assert len(a) == len(b)
    assert np.max(np.abs(a - b) / np.maximum(np.abs(a), 1.0)) <= 1e-10
    ha = sol_t.stats["ritz_history"]
    hb = sol_f.stats["ritz_history"]
    for (ta, ra), (tb, rb) in zip(ha, hb):
        k = min(6, len(ta), len(tb))
        stable = (ra[:k] <= 1e-8 * np.maximum(np.abs(ta[:k]), 1e-300)) & (
            rb[:k] <= 1e-8 * np.maximum(np.abs(tb[:k]), 1e-300)
        )
        if np.any(stable):
            scale = max(1.0, np.max(np.abs(ta[:k][stable])))
            assert np.max(np.abs(ta[:k][stable] - tb[:k][stable])) <= 1e-10 * scale


BASIS_CASES = {
    "delay": (
        lambda n: gen_delay(n, tau=0.001, b=-2.0)[0],
        Settings(nev=5, tol=1e-6, target=1.0, region=Interval(-260.0, 50.0)),
    ),
    "loaded_string": (
        lambda n: gen_loaded_string(n)[0],
        Settings(nev=9, tol=1e-8, target=10.0, problem_type="rational", region=Interval(4.0, 800.0)),
    ),
}


@pytest.mark.parametrize("n", [200, 400, 700, 1000])
@pytest.mark.parametrize("problem", sorted(BASIS_CASES))
def test_nleigs_toar_and_full_basis_take_the_same_steps(problem, n):
    # both bases span the same Krylov subspace, so they must restart and
    # solve alike; on delay n=200 an unconverged Ritz value near -160.25 used
    # to pass or fail the interval test on the rounding noise in its
    # imaginary part, which differed between the two bases; on the string,
    # copies of the pole at 1 with residuals near the inner tolerance used
    # to decide how many vectors a restart kept
    make, s = BASIS_CASES[problem]
    op = make(n)
    sol_t = nleigs_solve(op, s, full_basis=False)
    sol_f = nleigs_solve(op, s, full_basis=True)
    assert sol_t.stats["outer_iterations"] == sol_f.stats["outer_iterations"]
    assert sol_t.stats["linear_solves"] == sol_f.stats["linear_solves"]
    lt = np.sort(sol_t.eigenvalues.real)
    lf = np.sort(sol_f.eigenvalues.real)
    assert len(lt) == len(lf) >= s.nev
    assert np.allclose(lt, lf, rtol=s.tol, atol=s.tol)
    for p in sol_t.pairs + sol_f.pairs:
        assert p.eta <= s.tol
        assert abs(p.lam.imag) <= 1e-8 * max(1.0, abs(p.lam))


@pytest.mark.parametrize("run", ["toar", "full", "two-sided"])
@pytest.mark.parametrize("problem", sorted(BASIS_CASES))
def test_nleigs_runs_a_real_interpolant_in_real_arithmetic(problem, run, monkeypatch):
    # real A_i and f_i, a real target and an Interval: the interpolant is
    # real, and so are the factor, the basis and H, and each returned pair, a
    # float eigenvalue with real right and left vectors
    import dataclasses

    import nepsolve.linalg as linalg_mod

    drivers = []
    driver_cls = linalg_mod.KrylovSchurDriver

    def recorded(engine, *args):
        drivers.append(driver_cls(engine, *args))
        return drivers[-1]

    # ShiftInvertRun builds the driver; a two-sided solve runs no second one
    monkeypatch.setattr(linalg_mod, "KrylovSchurDriver", recorded)
    make, s = BASIS_CASES[problem]
    s = dataclasses.replace(s, two_sided=run == "two-sided")
    sol = nleigs_solve(make(200), s, full_basis=run == "full")
    assert sol.converged and sol.stats["scalars"] == "real"
    assert len(drivers) == 1
    assert all(d.H.dtype == d.engine.dtype == np.float64 for d in drivers)
    assert all(type(p.lam) is float and p.x.dtype == np.float64 for p in sol.pairs)
    assert all(p.y.dtype == np.float64 if s.two_sided else p.y is None for p in sol.pairs)


def _complex_callback_delay(n):
    # explicit D_j with an imaginary part: the callback path keeps them
    op, _ = gen_delay(n, tau=0.001, b=-2.0)
    shift = 1e-12j * sp.identity(n, format="csr")
    return NepOperator(t_fn=lambda lam: op.assemble(lam) + shift, tprime_fn=op.assemble_deriv, n=n)


def test_nleigs_reports_complex_scalars_where_the_interpolant_is_complex():
    from test_integration import complex_rational_problem

    delay = BASIS_CASES["delay"][1]
    ellipse = Ellipse(0.0 + 0.0j, 2.2, 1.6)
    rational = dict(tol=1e-9, target=0.0, problem_type="rational", region=ellipse)
    cases = [
        (gen_delay(200, tau=0.001, b=-2.0)[0], Settings(nev=3, tol=1e-6, target=1.0 + 0.5j, region=delay.region)),
        (complex_rational_problem()[0], Settings(nev=6, **rational)),
        (complex_rational_problem(n=40, seed=3)[0], Settings(nev=4, two_sided=True, **rational)),
        (_complex_callback_delay(100), Settings(nev=2, tol=1e-6, target=1.0, region=delay.region)),
    ]
    for op, s in cases:
        sol = nleigs_solve(op, s)
        assert sol.stats["scalars"] == "complex"
        assert sol.converged
        # interval eigenvalues are returned real, at Re lam; the vectors stay complex
        assert all(isinstance(p.lam, float if s.region is delay.region else complex) for p in sol.pairs)
        assert all(np.iscomplexobj(p.x) and (p.y is None or np.iscomplexobj(p.y)) for p in sol.pairs)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_acceptance_4_independent_of_blas_threads(threads):
    script = (
        "from test_acceptance import test_criterion_4_toar_full_basis_equivalence as t\n"
        "t()\n"
    )
    assert "ACCEPTANCE 4: PASS" in run_at_blas_threads(threads, script)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_nleigs_delay_toar_steps_at_blas_threads(threads):
    # the settings of the benchmark's nleigs-delay workload at smaller n:
    # one restart and 30 solves in real arithmetic, whatever the thread
    # count; OpenBLAS threads gemv only above a size threshold, so n=20000
    # runs the orthogonalization threaded at 2 threads
    script = (
        "from nepsolve.core import Interval, Settings\n"
        "from nepsolve.nleigs import nleigs_solve\n"
        "from nepsolve.problems import gen_delay\n"
        "s = Settings(nev=5, tol=1e-6, target=1.0, region=Interval(-260.0, 50.0))\n"
        "for n in (5000, 20000):\n"
        "    sol = nleigs_solve(gen_delay(n, tau=0.001, b=-2.0)[0], s)\n"
        "    print(sol.converged, sol.stats['outer_iterations'], sol.stats['linear_solves'],\n"
        "          sol.stats['scalars'], len(sol.pairs))\n"
    )
    lines = run_at_blas_threads(threads, script).splitlines()
    assert [line.split() for line in lines] == [["True", "1", "30", "real", "5"]] * 2


def test_nleigs_string_steps_do_not_depend_on_blas_threads():
    # the string's pole copies count as junk whatever their residual, so the
    # last bit of a BLAS product no longer decides how many vectors the
    # restart keeps
    script = (
        "from test_nleigs import BASIS_CASES\n"
        "from nepsolve.nleigs import nleigs_solve\n"
        "make, s = BASIS_CASES['loaded_string']\n"
        "for n in (400, 700):\n"
        "    op = make(n)\n"
        "    for full in (False, True):\n"
        "        st = nleigs_solve(op, s, full_basis=full).stats\n"
        "        print(n, full, st['outer_iterations'], st['linear_solves'])\n"
    )
    runs = [run_at_blas_threads(t, script).splitlines() for t in ("1", "2")]
    assert runs[0] == runs[1]
    assert [line.split()[2:] for line in runs[0]] == [["1", "32"]] * 4


def test_nleigs_two_sided_steps_do_not_depend_on_blas_threads():
    # the settings of the benchmark's nleigs2-string workload
    script = (
        "from nepsolve.core import Interval, Settings\n"
        "from nepsolve.nleigs import nleigs_solve\n"
        "from nepsolve.problems import gen_loaded_string\n"
        "op, _ = gen_loaded_string(1000)\n"
        "s = Settings(nev=9, tol=1e-8, target=10.0, problem_type='rational',\n"
        "             region=Interval(4.0, 800.0), two_sided=True)\n"
        "sol = nleigs_solve(op, s)\n"
        "print(sol.converged, sol.stats['linear_solves'], len(sol.pairs),\n"
        "      sum(p.y is not None for p in sol.pairs))\n"
    )
    runs = [run_at_blas_threads(t, script).split() for t in ("1", "2")]
    assert runs[0] == runs[1] == ["True", "41", "9", "9"]


def test_nleigs_backward_error_once_per_pair(monkeypatch):
    # the pair tests of the last cycle serve the harvest: no Ritz pair's
    # backward error is evaluated twice
    import nepsolve.nleigs as nleigs_mod

    lams = []

    def counting(op, lam, x):
        lams.append(lam)
        return backward_error(op, lam, x)

    monkeypatch.setattr(nleigs_mod, "backward_error", counting)
    op, _ = gen_delay(1000, tau=0.001, b=-2.0)
    s = Settings(nev=5, tol=1e-6, target=1.0, region=Interval(-260.0, 50.0))
    sol = nleigs_solve(op, s)
    assert len(sol.pairs) == 5
    assert len(set(lams)) == len(lams)
    assert {p.lam for p in sol.pairs} <= set(lams)


def test_nleigs_two_sided_left_residuals():
    op, _ = gen_loaded_string(100)
    s = Settings(
        nev=5, tol=1e-8, target=10.0, problem_type="rational",
        region=Interval(4.0, 800.0), two_sided=True,
    )
    sol = nleigs_solve(op, s)
    assert sol.converged
    assert sol.has_left
    for p in sol.pairs:
        assert p.eta_left is not None
        assert p.eta_left <= 10 * s.tol


def test_nleigs_singularity_list_and_none():
    op, oracle = gen_loaded_string(80)
    s = Settings(nev=3, tol=1e-8, target=10.0, region=Interval(4.0, 800.0))
    sol_list = nleigs_solve(op, s, singularities=[1.0])
    assert sol_list.converged and sol_list.stats["degree"] <= 4
    # pure polynomial interpolation needs a much higher degree for the pole
    sol_none = nleigs_solve(op, s, singularities="none", dd_maxdeg=40)
    ev = oracle.all_eigenvalues()
    for p in sol_list.pairs:
        assert np.min(np.abs(ev - p.lam)) <= 1e-6 * abs(p.lam)
    for p in sol_none.pairs:
        assert np.min(np.abs(ev - p.lam)) <= 1e-5 * abs(p.lam)

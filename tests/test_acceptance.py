"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines while the suite executes.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sp

from nepsolve import functions as fn
from nepsolve.core import (
    Ellipse,
    Interval,
    NepOperator,
    Settings,
    apply_resolvent,
    backward_error,
)
from nepsolve.deflation import ExtSolveContext, ExtVector, InvariantPair, ProjectionContext, ext_apply
from nepsolve.interpol import cheb_coeffs, interpol_solve
from nepsolve.linalg import KrylovSchurDriver, orthogonalize
from nepsolve.narnoldi import narnoldi_solve
from nepsolve.newton import rii_solve, slp_solve
from nepsolve.nleigs import (
    ShiftInvertContext,
    ToarBasisEngine,
    divided_differences,
    leja_bagby,
    nleigs_solve,
)
from nepsolve.problems import gen_delay, gen_loaded_string


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {label}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {label}")


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def match_errors(lams, reference):
    return [np.min(np.abs(reference - lam)) / abs(lam) for lam in lams]


def test_criterion_1_delay_cross_solver_agreement():
    with criterion(1, "delay cross-solver agreement (n=1000, nev=5, tol=1e-6)"):
        t0 = time.perf_counter()
        op, oracle = gen_delay(1000, tau=0.001, b=-2.0)
        roots = oracle.roots()
        base = dict(nev=5, tol=1e-6, target=1.0)
        # the two interpolation solvers need a region holding five eigenvalues
        region = Interval(-260.0, 50.0)
        runs = [
            ("slp", lambda: slp_solve(op, Settings(**base))),
            ("rii", lambda: rii_solve(op, Settings(**base))),
            ("narnoldi", lambda: narnoldi_solve(op, Settings(**base))),
            (
                "interpol",
                lambda: interpol_solve(op, Settings(ncv=32, region=region, **base), degree=20),
            ),
            ("nleigs", lambda: nleigs_solve(op, Settings(region=region, **base))),
        ]
        for name, solver in runs:
            sol = solver()
            assert len(sol.pairs) >= 5, (name, len(sol.pairs))
            pairs = sol.pairs[:5]
            for p in pairs:
                assert p.eta <= 1e-6, (name, p.lam, p.eta)
                assert backward_error(op, p.lam, p.x) <= 1e-6
            errs = match_errors([p.lam for p in pairs], roots)
            assert max(errs) <= 1e-6, (name, max(errs))
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"


def test_criterion_2_loaded_string_four_solvers():
    with criterion(2, "loaded_string agreement (n=200, nev=9, tol=1e-8)"):
        t0 = time.perf_counter()
        op, oracle = gen_loaded_string(200, kappa=1.0, mass=1.0)
        ev = oracle.all_eigenvalues()
        base = dict(nev=9, tol=1e-8, target=10.0, problem_type="rational")
        region = Interval(4.0, 800.0)
        runs = [
            ("nleigs", lambda: nleigs_solve(op, Settings(region=region, **base))),
            ("narnoldi", lambda: narnoldi_solve(op, Settings(**base))),
            ("rii", lambda: rii_solve(op, Settings(**base))),
            ("slp", lambda: slp_solve(op, Settings(**base))),
        ]
        for name, solver in runs:
            sol = solver()
            assert len(sol.pairs) >= 9, (name, len(sol.pairs))
            for p in sol.pairs:
                assert p.eta <= 1e-8, (name, p.lam, p.eta)
            errs = match_errors([p.lam for p in sol.pairs], ev)
            assert max(errs) <= 1e-6, (name, max(errs))
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"


def test_criterion_3_rational_exactness():
    with criterion(3, "rational exactness: degree <= 4 and R_d == T on [4,800]"):
        op, _ = gen_loaded_string(200)
        boundary = Interval(4.0, 800.0).boundary_points(1000)
        seq = leja_bagby(boundary, [1.0], 30, start_hint=10.0)
        ri = divided_differences(op, seq, dd_tol=1e-11, d_max=30)
        assert ri.d <= 4, ri.d
        rng = np.random.default_rng(0)
        from nepsolve.linalg import inf_norm

        for lam in rng.uniform(4.0, 800.0, 20):
            R = ri.assemble(complex(lam))
            T = op.assemble(complex(lam))
            assert inf_norm(R - T) <= 1e-10 * inf_norm(T)


def test_criterion_4_toar_full_basis_equivalence():
    with criterion(4, "TOAR vs full basis: Ritz values per cycle to 1e-10"):
        cases = [
            (
                gen_delay(400, tau=0.001, b=-2.0)[0],
                Settings(nev=5, tol=1e-6, target=1.0, region=Interval(-260.0, 50.0)),
            ),
            (
                gen_loaded_string(150)[0],
                Settings(
                    nev=9, tol=1e-8, target=10.0, problem_type="rational",
                    region=Interval(4.0, 800.0),
                ),
            ),
        ]
        for op, settings in cases:
            sol_t = nleigs_solve(op, settings, full_basis=False)
            sol_f = nleigs_solve(op, settings, full_basis=True)
            ht = sol_t.stats["ritz_history"]
            hf = sol_f.stats["ritz_history"]
            assert len(ht) >= 1 and len(hf) >= 1
            compared = 0
            for (ta, ra), (tb, rb) in zip(ht, hf):
                k = min(settings.nev, len(ta), len(tb))
                # compare Ritz values that are settled in both variants; an
                # unconverged straggler inside a cluster amplifies rounding
                # differences arbitrarily and says nothing about equivalence
                stable = (ra[:k] <= 1e-8 * np.maximum(np.abs(ta[:k]), 1e-300)) & (
                    rb[:k] <= 1e-8 * np.maximum(np.abs(tb[:k]), 1e-300)
                )
                if not np.any(stable):
                    continue
                scale = max(1.0, np.max(np.abs(ta[:k][stable])))
                assert np.max(np.abs(ta[:k][stable] - tb[:k][stable])) <= 1e-10 * scale
                compared += int(np.sum(stable))
            assert compared >= settings.nev
            # matched eigenvalues agree within the solve tolerance and the
            # final residuals are of the same order
            lt = np.sort(sol_t.eigenvalues.real)
            lf = np.sort(sol_f.eigenvalues.real)
            k = min(len(lt), len(lf))
            assert k >= settings.nev
            assert np.allclose(lt[:k], lf[:k], rtol=settings.tol, atol=settings.tol)
            # both variants meet the tolerance; their residual floors may
            # differ by the compression truncation, so "same order" is judged
            # above an absolute floor well below the tolerance
            et = max(p.eta for p in sol_t.pairs)
            ef = max(p.eta for p in sol_f.pairs)
            floor = 1e-4 * settings.tol
            assert et <= max(100 * ef, floor) and ef <= max(100 * et, floor)


def test_criterion_5_two_sided_and_resolvent():
    with criterion(5, "two-sided NLEIGS left residuals and Keldysh resolvent"):
        op, _ = gen_loaded_string(100)
        s = Settings(
            nev=5, tol=1e-8, target=10.0, problem_type="rational",
            region=Interval(4.0, 800.0), two_sided=True,
        )
        sol = nleigs_solve(op, s)
        assert sol.converged and sol.has_left
        for p in sol.pairs:
            num = np.linalg.norm(op.apply_adjoint(p.lam, p.y))
            eta_left = num / (op.norm_scale(p.lam) * np.linalg.norm(p.y))
            assert eta_left <= 10 * s.tol, (p.lam, eta_left)

        # resolvent check: linear diagonalizable 8x8 with the full spectrum
        rng = np.random.default_rng(7)
        A = rng.standard_normal((8, 8)) + 0.3 * np.eye(8)
        op2 = NepOperator(
            terms=[
                (sp.csr_matrix(A.astype(complex)), fn.constant(1.0)),
                (sp.identity(8, format="csr"), fn.polynomial([-1.0, 0.0])),
            ]
        )
        evs = np.linalg.eigvals(A)
        center = complex(evs.mean().real, 0.0)
        reg = Ellipse(
            center,
            float(np.abs(evs.real - center.real).max() * 1.4 + 1.0),
            float(np.abs(evs.imag).max() * 1.6 + 1.0),
        )
        s2 = Settings(
            nev=8, ncv=16, tol=1e-10, target=center + 0.1j, region=reg, two_sided=True
        )
        sol2 = nleigs_solve(op2, s2)
        assert len(sol2.pairs) == 8 and sol2.has_left
        for _ in range(10):
            z = complex(rng.standard_normal() * 2, rng.standard_normal() * 2)
            if np.min(np.abs(evs - z)) < 0.2:
                continue
            v = rand_complex(rng, 8)
            ref = np.linalg.solve(A - z * np.eye(8), v)
            got = apply_resolvent(sol2, op2, z, v)
            assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)


def test_criterion_6_deflation_suite():
    with criterion(6, "deflation: distinct pairs and dense extended-operator oracles"):
        op, _ = gen_delay(300, tau=0.001, b=-2.0)
        s = Settings(nev=5, tol=1e-8, target=1.0)
        for solver in (slp_solve, rii_solve):
            sol = solver(op, s)
            assert len(sol.pairs) == 5
            lams = sol.eigenvalues
            for i in range(5):
                for j in range(i + 1, 5):
                    assert abs(lams[i] - lams[j]) > 1e3 * s.tol * abs(lams[i])

        # dense extended-operator oracles on small exactly-invariant pairs
        rng = np.random.default_rng(3)
        for n, k in ((8, 1), (10, 2), (12, 3)):
            A = rand_complex(rng, n, n)
            opl = NepOperator(
                terms=[
                    (sp.csr_matrix(A), fn.constant(1.0)),
                    (sp.identity(n, format="csr"), fn.polynomial([-1.0, 0.0])),
                ]
            )
            w, V = np.linalg.eig(A)
            pair = InvariantPair.empty(n)
            for i in range(k):
                pair = pair.extend(opl, w[i], V[:, i] / np.linalg.norm(V[:, i]), np.zeros(pair.k))
            lam = complex(rng.uniform(2, 3), rng.uniform(0.5, 1.0))
            # dense extended matrix assembled column by column through apply
            m = n + k
            M = np.zeros((m, m), dtype=complex)
            eye = np.eye(m)
            for j in range(m):
                y1, y2 = ext_apply(ExtVector(pair, opl, eye[:n, j], eye[n:, j]), lam)
                M[:n, j] = y1
                M[n:, j] = y2
            z = rand_complex(rng, m)
            y1, y2 = ext_apply(ExtVector(pair, opl, z[:n], z[n:]), lam)
            assert np.linalg.norm(np.concatenate([y1, y2]) - M @ z) <= 1e-10 * np.linalg.norm(M @ z)
            # solve against the dense inverse
            b = rand_complex(rng, m)
            x1, x2 = ExtSolveContext(pair, opl, lam).solve(b[:n], b[n:])
            ref = np.linalg.solve(M, b)
            assert np.linalg.norm(np.concatenate([x1, x2]) - ref) <= 1e-10 * np.linalg.norm(ref)
            # projection against the dense matrix
            Vb, _ = np.linalg.qr(rand_complex(rng, m, 3))
            P = ProjectionContext(pair, opl, Vb).value(lam)
            refP = Vb.conj().T @ M @ Vb
            assert np.max(np.abs(P - refP)) <= 1e-10 * max(1.0, np.max(np.abs(refP)))


def test_criterion_7_matrix_function_suite():
    with criterion(7, "matrix functions vs eigendecomposition oracle (100/kind)"):
        kinds = [
            fn.rational([1.0, -0.5, 0.25], [1.0, 4.0]),
            fn.exponential(),
            fn.logarithm(),
            fn.square_root(),
            fn.inv_square_root(),
            fn.phi(1),
            fn.phi(2),
        ]
        rng = np.random.default_rng(11)
        for f in kinds:
            for _ in range(100):
                V = rand_complex(rng, 6, 6)
                if abs(np.linalg.det(V)) < 1e-8:
                    continue
                lams = rng.uniform(0.5, 3.0, 6) + 1j * rng.uniform(-0.8, 0.8, 6)
                H = V @ np.diag(lams) @ np.linalg.inv(V)
                F = f.eval_matrix(H)
                ref = V @ np.diag([f(l) for l in lams]) @ np.linalg.inv(V)
                rel = np.linalg.norm(F - ref) / max(np.linalg.norm(ref), 1e-30)
                assert rel <= 1e-10, (f.kind, rel)
        # Jordan-block identity: top-right entry is exactly f'(a)
        for f in (fn.exponential(), fn.polynomial([2.0, -1.0, 0.5])):
            a = 0.8
            J = np.array([[a, 1.0], [0.0, a]])
            F = f.eval_matrix(J)
            assert abs(F[0, 1] - f.deriv(a)) <= 1e-12
            assert abs(F[0, 0] - f(a)) <= 1e-12


def test_criterion_8_chebyshev_convergence():
    with criterion(8, "Chebyshev interpolation error decays >= 10x per 10 degrees"):
        # the benchmark tau=0.001 is interpolated to the roundoff floor below
        # degree 10, so the decay is exhibited on a slower variant
        op, _ = gen_delay(60, tau=0.2, b=-2.0)
        iv = Interval(-100.0, 50.0)
        rng = np.random.default_rng(13)
        lams = rng.uniform(iv.a, iv.b, 50)

        def sup_err(d):
            poly = cheb_coeffs(op, iv, d)
            return max(
                abs(op.assemble(complex(l)) - poly.eval(complex(l))).max() for l in lams
            )

        e10, e20, e30 = sup_err(10), sup_err(20), sup_err(30)
        assert e20 <= e10 / 10.0
        assert e30 <= e20 / 10.0


def test_criterion_9_kernel_invariants():
    with criterion(9, "shift-invert kernels, adjoint identity, Arnoldi relation"):
        rng = np.random.default_rng(17)
        trials = ok_arnoldi = 0
        while trials < 100:
            n = int(rng.integers(3, 9))
            d = int(rng.integers(2, 5))
            terms = [
                (sp.csr_matrix(rand_complex(rng, n, n)), fn.constant(1.0)),
                (sp.identity(n, format="csr"), fn.polynomial([-1.0, 0.0])),
            ]
            op = NepOperator(terms=terms)
            boundary = Ellipse(0.0, 2.0, 1.0).boundary_points(120)
            sing = [4.0 + 0.5j, -5.0] if rng.integers(2) else []
            seq = leja_bagby(boundary, sing, d, start_hint=0.5)
            ri = divided_differences(op, seq, dd_tol=0.0, d_max=d)
            d = ri.d  # exact problems stop below the requested degree
            sigma = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))

            # dense pencil reference
            D = [ri.dd_dense(j) for j in range(d + 1)]
            eye = np.eye(n)
            A = np.zeros((d * n, d * n), dtype=complex)
            B = np.zeros((d * n, d * n), dtype=complex)
            for j in range(d - 1):
                A[:n, j * n : (j + 1) * n] = D[j]
            A[:n, (d - 1) * n :] = D[d - 1] - (seq.nodes[d - 1] / seq.betas[d]) * D[d]
            for j in range(1, d):
                A[j * n : (j + 1) * n, (j - 1) * n : j * n] = seq.nodes[j - 1] * eye
                A[j * n : (j + 1) * n, j * n : (j + 1) * n] = seq.betas[j] * eye
            B[:n, (d - 1) * n :] = -D[d] / seq.betas[d]
            for j in range(1, d):
                B[j * n : (j + 1) * n, (j - 1) * n : j * n] = eye
                B[j * n : (j + 1) * n, j * n : (j + 1) * n] = (
                    seq.betas[j] * seq.inv_pole(j) * eye
                )
            try:
                S = np.linalg.solve(A - sigma * B, B)
                ctx = ShiftInvertContext(ri, sigma)
            except Exception:
                continue
            trials += 1
            x = rand_complex(rng, d * n)
            assert np.linalg.norm(ctx.apply(x) - S @ x) <= 1e-8 * max(1.0, np.linalg.norm(S @ x))
            y = rand_complex(rng, d * n)
            lhs = np.vdot(y, ctx.apply(x))
            rhs = np.vdot(ctx.apply_adjoint(y), x)
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs), abs(rhs))

            steps = min(4, d * n - 1)
            # one Krylov-Schur fill of the TOAR basis, no restart
            engine = ToarBasisEngine(ctx, rand_complex(rng, d, n), ncv=steps)
            driver = KrylovSchurDriver(engine, steps, 1e-14, lambda t: -np.abs(t))
            driver.run(steps + 1, max_restarts=0)
            U, G, H = engine.U, engine.G, driver.H[: driver.m + 1, : driver.m]
            assert np.linalg.norm(U.conj().T @ U - np.eye(U.shape[1])) <= 1e-10
            Gs = G.reshape(d * U.shape[1], G.shape[2])
            assert np.linalg.norm(Gs.conj().T @ Gs - np.eye(Gs.shape[1])) <= 1e-10
            m = H.shape[1]
            if m:
                V = np.vstack([U @ G[i] for i in range(d)])
                if V.shape[1] < H.shape[0]:
                    # breakdown step: the (zero-coupled) next vector is absent
                    V = np.pad(V, ((0, 0), (0, H.shape[0] - V.shape[1])))
                resid = np.linalg.norm(
                    B @ V[:, :m] - (A - sigma * B) @ (V @ H)
                )
                assert resid <= 1e-8 * np.linalg.norm(B) * max(1.0, np.linalg.norm(V @ H))
                ok_arnoldi += 1
        assert ok_arnoldi >= 90

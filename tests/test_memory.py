"""Memory of the split form: each A_i is held once, in its own scalars and in
the least storage (a scaled identity as its scalar), NLEIGS's, interpol's
and SLP's traced peaks stay under measured bounds, NLEIGS's basis is freed
when the solve returns and SLP's queue of start pairs is released."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from nepsolve.core import Interval, Settings
from nepsolve.deflation import InvariantPair
from nepsolve import newton, nleigs
from nepsolve.interpol import interpol_solve
from nepsolve.nleigs import nleigs_solve
from nepsolve.problems import gen_delay, gen_loaded_string

# tracemalloc peak of the solve below: 7.97 MiB with real A_i held once and
# one start vector broadcast to the d blocks; 9.80 MiB when the operator
# kept complex A_i with real copies beside them and d start rows
NLEIGS_PEAK_BOUND_MIB = 9.0
# tracemalloc peak of interpol's solve below: 9.7 MiB on NLEIGS's real
# compact basis at the degree the divided differences decide (8 of 20); a
# complex basis at the full degree took 20.6 MiB
INTERPOL_PEAK_BOUND_MIB = 12.0
# tracemalloc peak of one more shift_invert_context on an interpolant of the
# delay problem at n = 20000, once the sum's pattern is built: 1.15 MiB with
# R_d(sigma) factored from strided views of its summed entries; 1.83 MiB when
# each factorization built a CSR matrix and scanned its indices for the band
SHIFT_PEAK_BOUND_MIB = 1.4
# tracemalloc peak of SLP's solve below: 6.97-6.98 MiB over seeds 0-2, in the
# last pair's pencil pass (12 basis vectors of length n + 4 beside the
# deflation blocks), when the queue is empty; the start vectors the first
# pass queues (at most nev - 1, three here: 0.46 MiB) are held only by the
# steps between, which peak at 4.1 MiB or less; SLP with a pencil pass for
# every pair and no queue peaked at 6.96-6.98 MiB
SLP_PEAK_BOUND_MIB = 7.5


@pytest.mark.parametrize("make", [gen_delay, gen_loaded_string], ids=["delay", "loaded_string"])
def test_generated_matrices_are_held_once_real_and_canonical(make):
    # a scaled identity is held as its one scalar, with no index arrays; every
    # other A_i as its canonical real CSR
    op, _ = make(50)
    held = op.mats._held
    scalars = [h for h in held if not sp.issparse(h)]
    assert [float(c[0]) for c in scalars] == ([1.0, -2.0] if make is gen_delay else [])
    assert all(type(c) is np.ndarray and c.shape == (1,) and c.dtype == np.float64 for c in scalars)
    for M in (h for h in held if sp.issparse(h)):
        assert M.dtype == np.float64 and M.has_canonical_format
    assert [M is h for M, h in zip(op.mats.mats, held)] == [sp.issparse(h) for h in held]
    # the identity term's block of a locked pair is X itself, read-only
    X = np.linalg.qr(np.random.default_rng(1).standard_normal((50, 2)))[0]
    pair = InvariantPair(X, np.diag([0.5, 2.0]), 1, op=op)
    for c, blk in zip(held, pair.AX):
        aliased = not sp.issparse(c) and c[0] == 1.0
        assert np.shares_memory(blk, pair.X) == aliased and blk.flags.writeable != aliased


def test_nleigs_peak_memory_on_the_delay_problem():
    op, _ = gen_delay(20000, tau=0.001, b=-2.0)
    settings = Settings(nev=5, tol=1e-6, target=1.0, region=Interval(-260.0, 50.0))
    tracemalloc.start()
    try:
        sol = nleigs_solve(op, settings)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.converged and sol.stats["scalars"] == "real"
    assert peak <= NLEIGS_PEAK_BOUND_MIB * 2**20
    # the pattern cache, built in the solve above, holds no position map: the
    # tridiagonal term's pattern is the union, and the scaled identities add
    # into its diagonal slots, every third entry of the tridiagonal pattern,
    # or into the one value of a sum over them alone, which has no pattern
    for support, plan in op.mats._patterns.items():
        for k, pos in zip(support, plan.positions):
            if sp.issparse(op.mats._held[k]):
                assert pos is None
            else:
                assert pos == (slice(None) if plan.indices is None else slice(0, 3 * op.n - 2, 3))


def test_shift_invert_context_peak_memory_on_the_delay_problem():
    op, _ = gen_delay(20000, tau=0.001, b=-2.0)
    boundary = Interval(-260.0, 50.0).boundary_points(nleigs.BOUNDARY_POINTS)
    ri = nleigs.divided_differences(op, nleigs.leja_bagby(boundary, [], nleigs.DD_MAXDEG_DEFAULT, 1.0))
    nleigs.shift_invert_context(ri, 1.0)  # builds the pattern of R_d's support
    tracemalloc.start()
    try:
        ctx = nleigs.shift_invert_context(ri, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ctx.real and ctx.solve_count == 0
    assert peak <= SHIFT_PEAK_BOUND_MIB * 2**20


def test_interpol_peak_memory_on_the_delay_problem():
    op, _ = gen_delay(20000, tau=0.001, b=-2.0)
    settings = Settings(nev=5, ncv=32, tol=1e-6, target=1.0, region=Interval(-260.0, 50.0))
    tracemalloc.start()
    try:
        sol = interpol_solve(op, settings, degree=20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.converged and sol.stats["scalars"] == "real"
    assert peak <= INTERPOL_PEAK_BOUND_MIB * 2**20


def test_nleigs_frees_its_basis_on_return(monkeypatch):
    # no reference cycle holds the basis engine: it goes with the last
    # reference, without the cyclic garbage collector
    engines = []
    init = nleigs.ToarBasisEngine.__init__

    def recorded(self, *args, **kwargs):
        engines.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(nleigs.ToarBasisEngine, "__init__", recorded)
    op, _ = gen_delay(20000, tau=0.001, b=-2.0)
    gc.disable()
    try:
        sol = nleigs_solve(op, Settings(nev=5, tol=1e-6, target=1.0, region=Interval(-260.0, 50.0)))
        alive = [ref() is not None for ref in engines]
    finally:
        gc.enable()
    assert sol.converged and alive == [False]


def test_slp_peak_memory_on_the_delay_problem(monkeypatch):
    searches = []
    run = newton._SLP.run
    monkeypatch.setattr(newton._SLP, "run", lambda self: searches.append(self) or run(self))
    op, _ = gen_delay(20000, tau=0.001, b=-2.0)
    tracemalloc.start()
    try:
        sol = newton.slp_solve(op, Settings(nev=5, tol=1e-6, target=1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.converged and sol.stats["scalars"] == "real"
    assert peak <= SLP_PEAK_BOUND_MIB * 2**20
    assert [search.queue for search in searches] == [[]]

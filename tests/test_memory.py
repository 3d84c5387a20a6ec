"""Memory of the split form: each A_i is held once, canonical and in its own
scalars, NLEIGS's and interpol's traced peaks stay under measured bounds and
NLEIGS's basis is freed when the solve returns."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from nepsolve.core import Interval, Settings
from nepsolve import nleigs
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


@pytest.mark.parametrize("make", [gen_delay, gen_loaded_string], ids=["delay", "loaded_string"])
def test_generated_matrices_are_held_once_real_and_canonical(make):
    op, _ = make(50)
    assert all(M is A for M, (A, _) in zip(op.mats.mats, op.terms))
    for M in op.mats.mats:
        assert M.dtype == np.float64 and M.has_canonical_format


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
    # the pattern cache, built in the solve above, maps into the union only
    # the entries of a matrix whose pattern is not the union: the identities
    maps = {}
    for support, plan in op.mats._patterns.items():
        for k, pos in zip(support, plan.positions):
            assert (pos is None) == (op.mats.mats[k].nnz == plan.indices.size)
            maps.update({} if pos is None else {id(pos): pos.size})
    assert 0 < sum(maps.values()) <= 2 * op.n


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

"""Tests of the benchmark's own checks, tracer and quick mode.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
from reference import DelayProblem, LoadedStringProblem  # noqa: E402
from tracing import FUNCTIONS, Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
INTERVAL = (-260.0, 50.0)


def test_references_agree_with_the_program_oracles():
    from nepsolve.problems import gen_delay, gen_loaded_string

    _, oracle = gen_loaded_string(200)
    ev = oracle.all_eigenvalues()
    ev = np.sort(ev[(np.abs(ev.imag) < 1e-8) & (ev.real < 3200)].real)
    mine = np.sort(LoadedStringProblem(200, 1.0, 1.0).roots(3200.0))
    assert len(mine) == len(ev)
    assert np.max(np.abs(mine - ev) / np.abs(ev)) < 1e-9

    _, oracle = gen_delay(1000)
    refs = [z for z, _ in DelayProblem(1000, 0.001, -2.0).roots()]
    got = checks.nearest(refs, 1.0, 8)
    for z, w in zip(got, oracle.nearest(1.0, 8)):
        assert abs(z - w) <= 1e-10 * abs(w)


@pytest.fixture
def delay():
    """An exact solution of the delay problem at n=1000, built from its modes."""
    model = DelayProblem(1000, 0.001, -2.0)
    roots = model.roots()
    refs = [z for z, _ in roots]
    mode = dict(roots)
    want = checks.nearest(refs, 1.0, 6)  # the first five lie in INTERVAL, the sixth does not

    def pair(z, k=None):
        return SimpleNamespace(lam=z, x=model.mode_vector(k or mode[z]), y=None)

    sol = SimpleNamespace(pairs=[pair(z) for z in want[:5]], converged=True)
    return model, refs, sol, want, pair


def check(model, refs, sol, **kw):
    kw = {"interval": INTERVAL, **kw}
    return checks.check_solution(sol, model, refs, nev=5, tol=1e-6, target=1.0, nearest_set=True, **kw)


def test_an_exact_solution_passes(delay):
    model, refs, sol, _, _ = delay
    assert check(model, refs, sol) == []
    assert checks.nearest_returned(sol, model, refs, nev=5, target=1.0, interval=INTERVAL) == 5


def test_a_perturbed_eigenvalue_fails(delay):
    model, refs, sol, want, pair = delay
    sol.pairs[0] = pair(want[0] * (1 + 1e-4), k=1)
    fails = check(model, refs, sol)
    assert any("matches no reference" in f for f in fails), fails


def test_a_wrong_eigenvector_fails(delay):
    model, refs, sol, want, pair = delay
    sol.pairs[2] = pair(want[2], k=7)
    fails = check(model, refs, sol)
    assert any("backward error" in f for f in fails), fails


def test_a_skipped_nearest_eigenvalue_fails(delay):
    model, refs, sol, want, pair = delay
    sol.pairs[4] = pair(want[5])  # a true eigenpair, but the sixth nearest
    fails = check(model, refs, sol, interval=None)
    assert len(fails) == 1 and "missing nearest" in fails[0], fails
    assert checks.nearest_returned(sol, model, refs, nev=5, target=1.0) == 4


def test_a_repeated_eigenvalue_fails(delay):
    model, refs, sol, want, pair = delay
    sol.pairs[4] = pair(want[3])
    assert any("repeats" in f for f in check(model, refs, sol))


def test_left_vectors_are_checked(delay):
    model, refs, sol, _, _ = delay
    for p in sol.pairs:
        p.y = np.conj(p.x)
    assert check(model, refs, sol, left=True) == []
    sol.pairs[1].y = sol.pairs[0].x
    assert any("left backward error" in f for f in check(model, refs, sol, left=True))


def test_the_tracer_rebinds_every_import_and_restores_it():
    import nepsolve  # noqa: F401  (loads every module the tracer patches)

    originals = {name: getattr(sys.modules[mod], name) for mod, name, _ in FUNCTIONS}
    tracer = Tracer()
    tracer.install()
    try:
        for mod in [m for k, m in sys.modules.items() if k.startswith("nepsolve")]:
            for value in vars(mod).values():
                assert not any(value is f for f in originals.values()), mod.__name__
    finally:
        tracer.uninstall()
    for mod, name, _ in FUNCTIONS:
        assert getattr(sys.modules[mod], name) is originals[name]


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.01", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_mode_runs_every_workload(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2, proc.stderr
    spec = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if trace:
        assert out["metrics"]["check.solve_count_gap"]["value"] == 0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench(BENCH["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

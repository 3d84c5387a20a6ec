"""The benchmark's workloads: problem, size, solver and settings.

The settings follow tests/test_acceptance.py and the CLI's problem defaults.
This module imports neither numpy nor nepsolve at load time, so the set-up
probe can read a workload before it starts its clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str  # "delay" or "string"
    n: int
    quick_n: int  # size for --quick, which runs the same code paths in seconds
    solver: str  # "nleigs", "slp" or "rii"
    nev: int
    tol: float
    target: float
    interval: Optional[Tuple[float, float]] = None
    two_sided: bool = False
    nearest_set: bool = True  # the solve must return the nev eigenvalues nearest the target
    solver_seed: Optional[int] = None  # Settings.seed; None passes --seed through


DELAY = dict(tau=0.001, b=-2.0)
STRING = dict(kappa=1.0, mass=1.0)

# Why each workload is there is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in [
        Workload("nleigs-delay", "delay", 200000, 1000, "nleigs", nev=5, tol=1e-6, target=1.0,
                 interval=(-260.0, 50.0)),
        Workload("slp-delay", "delay", 100000, 1000, "slp", nev=5, tol=1e-6, target=1.0),
        # RII returns a farther eigenvalue in place of a nearer one here, so
        # only check.nearest_returned tracks the nearest set; and its work and
        # result depend on Settings.seed (half of the seeds 0-9 exhaust its
        # iteration budget), so it keeps the seed 0 whatever --seed says.
        # README.md has the figures.
        Workload("rii-string", "string", 1000, 200, "rii", nev=9, tol=1e-8, target=10.0,
                 nearest_set=False, solver_seed=0),
        Workload("nleigs2-string", "string", 1000, 200, "nleigs", nev=9, tol=1e-8, target=10.0,
                 interval=(4.0, 800.0), two_sided=True),
    ]
}

# String eigenvalues are computed up to four times the region's upper end,
# far past the nine nearest the target 10 (the ninth is at 557)
STRING_REFERENCE_UPTO = 3200.0


def generate(wl: Workload, n: int):
    """The problem's NepOperator, built by the program's own generator."""
    from nepsolve import gen_delay, gen_loaded_string

    if wl.problem == "delay":
        op, _ = gen_delay(n, **DELAY)
    else:
        op, _ = gen_loaded_string(n, **STRING)
    return op


def solve(wl: Workload, op, seed: int):
    """One call to the workload's public solver function."""
    from nepsolve import Interval, Settings, nleigs_solve, rii_solve, slp_solve

    settings = Settings(
        nev=wl.nev,
        tol=wl.tol,
        target=wl.target,
        region=Interval(*wl.interval) if wl.interval else None,
        problem_type="rational" if wl.problem == "string" else "general",
        two_sided=wl.two_sided,
        seed=seed if wl.solver_seed is None else wl.solver_seed,
    )
    if wl.solver == "nleigs":
        return nleigs_solve(op, settings)
    if wl.solver == "slp":
        return slp_solve(op, settings)
    return rii_solve(op, settings)


def model(wl: Workload, n: int):
    """The benchmark's own matrices of the problem (see reference.py)."""
    from reference import DelayProblem, LoadedStringProblem

    if wl.problem == "delay":
        return DelayProblem(n, **DELAY)
    return LoadedStringProblem(n, **STRING)


def reference_eigenvalues(wl: Workload, n: int):
    """Reference eigenvalues near the workload's target, computed apart from nepsolve."""
    m = model(wl, n)
    if wl.problem == "delay":
        return [z for z, _ in m.roots()]
    return [complex(z) for z in m.roots(STRING_REFERENCE_UPTO)]

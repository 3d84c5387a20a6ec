"""Spans around nepsolve's public calls, recorded from outside the package.

``Tracer.install`` replaces the named functions and methods with wrappers
that record a span (name, parent, start, end) per call; nothing inside
``src/nepsolve`` is edited.  A function imported by value (``from .linalg
import orthogonalize``) is a separate binding in every importing module, so
each binding of the same object in every loaded nepsolve module is replaced,
or that module's calls would go unseen.  ``uninstall`` puts the originals
back.

Spans are kept in memory; ``layer_metrics`` turns the spans of one solve
into the per-layer metrics.  A layer's time counts only its outermost spans,
so a layer that calls itself is not counted twice; a self time is a span's
duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

from workloads import WORKLOADS

# (module, attribute, span name): module-level functions, wrapped in every
# nepsolve module that holds them
FUNCTIONS = [
    ("nepsolve.problems", "gen_delay", "generate"),
    ("nepsolve.problems", "gen_loaded_string", "generate"),
    ("nepsolve.linalg", "orthogonalize", "orth"),
    ("nepsolve.linalg", "gen_eig_smallest", "krylov_schur"),
    ("nepsolve.nleigs", "leja_bagby", "interp"),
    ("nepsolve.nleigs", "divided_differences", "interp"),
    ("nepsolve.nleigs", "auto_singularities", "interp"),
    ("nepsolve.deflation", "ext_apply", "ext_apply"),
    ("nepsolve.deflation", "eval_phi", "phi"),
    ("nepsolve.deflation", "eval_phi_deriv", "phi"),
    ("nepsolve.newton", "rii_scalar_newton", "scalar_newton"),
    ("nepsolve.core", "backward_error", "backward_error"),
]

# (module, class, method, span name)
METHODS = [
    ("nepsolve.nleigs", "ToarBasisEngine", "expand", "expand"),
    ("nepsolve.linalg", "FullBasisEngine", "expand", "expand"),
    ("nepsolve.nleigs", "ToarBasisEngine", "transform", "transform"),
    ("nepsolve.linalg", "FullBasisEngine", "transform", "transform"),
    ("nepsolve.nleigs", "ShiftInvertContext", "apply_adjoint", "adjoint"),
    ("nepsolve.nleigs", "ShiftInvertContext", "adjoint_stage_z", "adjoint"),
    ("nepsolve.deflation", "ExtSolveContext", "__init__", "ext_ctx"),
    ("nepsolve.functions", "ScalarFunction", "eval_matrix", "eval_matrix"),
]

ALL_WORKLOADS = tuple(WORKLOADS)

# per-layer metric -> the workloads whose solve_s it should move; the traced
# run requires a nonzero value there, or a wrapper has silently seen nothing
MEANT_FOR = {
    "problems.generate_s": ALL_WORKLOADS,
    "linalg.factor_calls": ("slp-delay",),
    "linalg.factor_s": ("slp-delay",),
    "linalg.solve_calls": ALL_WORKLOADS,
    "linalg.solve_s": ALL_WORKLOADS,
    "linalg.solve_share": ALL_WORKLOADS,
    "linalg.orth_calls": ("nleigs-delay", "slp-delay"),
    "linalg.orth_s": ("nleigs-delay", "slp-delay"),
    "linalg.krylov_schur_s": ("slp-delay",),
    "linalg.driver_s": ("nleigs-delay", "nleigs2-string"),
    "linalg.driver_restarts": ("nleigs-delay", "nleigs2-string"),
    "nleigs.interp_s": ("nleigs2-string",),
    "nleigs.degree": ("nleigs2-string",),
    "nleigs.expand_s": ("nleigs-delay",),
    "nleigs.transform_s": ("nleigs-delay",),
    "nleigs.adjoint_s": ("nleigs2-string",),
    "deflation.ext_apply_calls": ("rii-string", "slp-delay"),
    "deflation.ext_apply_s": ("rii-string", "slp-delay"),
    "deflation.phi_calls": ("rii-string", "slp-delay"),
    "deflation.phi_s": ("rii-string", "slp-delay"),
    "deflation.ext_ctx_s": ("rii-string", "slp-delay"),
    "functions.eval_matrix_calls": ("rii-string",),
    "functions.eval_matrix_s": ("rii-string",),
    "newton.scalar_newton_s": ("rii-string",),
    "core.backward_error_calls": ("nleigs2-string",),
    "core.backward_error_s": ("nleigs2-string",),
    "core.backward_error_per_pair": ("nleigs2-string",),
    "solver.outer_iterations": ALL_WORKLOADS,
    "solver.linear_solves": ALL_WORKLOADS,
    "check.nearest_returned": ALL_WORKLOADS,
}

# (metric, span name) pairs reported as the outermost spans' call count and time
CALLS = [
    ("linalg.factor", "factor"),
    ("linalg.solve", "solve"),
    ("linalg.orth", "orth"),
    ("deflation.ext_apply", "ext_apply"),
    ("deflation.phi", "phi"),
    ("functions.eval_matrix", "eval_matrix"),
    ("core.backward_error", "backward_error"),
]
TIMES = [
    ("linalg.krylov_schur_s", "krylov_schur"),
    ("linalg.driver_s", "driver"),
    ("nleigs.interp_s", "interp"),
    ("nleigs.transform_s", "transform"),
    ("nleigs.adjoint_s", "adjoint"),
    ("newton.scalar_newton_s", "scalar_newton"),
]


class Tracer:
    """In-memory spans from wrappers installed around nepsolve's calls."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.driver_restarts = 0
        self._stack = []
        self._undo = []

    def clear(self) -> None:
        self.spans = []
        self.driver_restarts = 0

    def wrap(self, name: str, fn):
        """``fn`` with each call recorded as a span named ``name``."""
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, perf_counter(), 0.0]
            stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        import nepsolve.linalg as linalg

        modules = [m for k, m in sys.modules.items() if k == "nepsolve" or k.startswith("nepsolve.")]
        for mod, attr, name in FUNCTIONS:
            fn = getattr(sys.modules[mod], attr)
            self._rebind(modules, fn, self.wrap(name, fn))
        self._rebind(modules, linalg.make_linear_solver, self._factor(linalg.make_linear_solver))
        for mod, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[mod], cls_name)
            self._set(cls, attr, self.wrap(name, vars(cls)[attr]))
        driver = linalg.KrylovSchurDriver
        self._set(driver, "run", self.wrap("driver", self._count_restarts(vars(driver)["run"])))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _rebind(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _factor(self, make_linear_solver):
        """make_linear_solver as a 'factor' span; its solver's solve as 'solve' spans."""
        factor = self.wrap("factor", make_linear_solver)

        @functools.wraps(make_linear_solver)
        def traced(*args, **kwargs):
            solver = factor(*args, **kwargs)
            solver.solve = self.wrap("solve", solver.solve)
            return solver

        return traced

    def _count_restarts(self, run):
        @functools.wraps(run)
        def counted(driver, *args, **kwargs):
            before = driver.restarts
            try:
                return run(driver, *args, **kwargs)
            finally:
                self.driver_restarts += driver.restarts - before

        return counted


def layer_metrics(spans, restarts: int, pairs: int) -> dict:
    """Per-layer metrics of one solve whose root span is spans[0]; ``pairs`` it returned."""
    outer = _outermost(spans)
    children = [0.0] * len(spans)
    for name, parent, t0, t1 in spans:
        if parent >= 0:
            children[parent] += t1 - t0

    def total(name):
        return sum(s[3] - s[2] for s, o in zip(spans, outer) if o and s[0] == name)

    def calls(name):
        return sum(1 for s, o in zip(spans, outer) if o and s[0] == name)

    out = {}
    for metric, name in CALLS:
        out[metric + "_calls"] = calls(name)
        out[metric + "_s"] = total(name)
    for metric, name in TIMES:
        out[metric] = total(name)
    out["linalg.driver_restarts"] = restarts
    out["nleigs.expand_s"] = sum(
        s[3] - s[2] - children[i] for i, s in enumerate(spans) if s[0] == "expand"
    )
    factor_children = [0.0] * len(spans)
    for name, parent, t0, t1 in spans:
        if name == "factor" and parent >= 0:
            factor_children[parent] += t1 - t0
    out["deflation.ext_ctx_s"] = sum(
        s[3] - s[2] - factor_children[i] for i, s in enumerate(spans) if s[0] == "ext_ctx" and outer[i]
    )
    out["linalg.solve_share"] = (out["linalg.factor_s"] + out["linalg.solve_s"]) / (spans[0][3] - spans[0][2])
    out["core.backward_error_per_pair"] = out["core.backward_error_calls"] / max(1, pairs)
    out["trace.spans"] = len(spans)
    return out


def _outermost(spans):
    """For each span, whether no ancestor carries the same name."""
    outer = []
    for name, parent, _t0, _t1 in spans:
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        outer.append(p < 0)
    return outer

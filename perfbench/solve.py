"""Worker process of the benchmark: builds the problem and runs the solves.

Reads its configuration as JSON on stdin (see run.py), runs one untimed
warm-up solve, then a closed loop of solves (the next starts when the
previous returns) until at least ``seconds`` of solve time and
``min_solves`` solves are done, checks every solve, and prints one JSON
object.  The solves run in this process alone, so its peak resident memory
is theirs.  With ``trace`` the loop is split: untraced solves first, then
traced ones, which gives the tracing overhead.

The set-up starts (setup_probe.py) run between the solves, spread evenly
over the measuring window, so that both metrics sample the same stretch of
the machine's speed, which drifts by tens of percent over seconds.  This
process has imported nepsolve before the first start, so no timed start
compiles bytecode.
"""

from __future__ import annotations

import ctypes
import gc
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np
import scipy

import checks
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, generate, model, solve

MIN_SOLVES = 3  # a median of at least three solves per run
MIN_TRACED = 2
GENERATE_REPEATS = 3
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
PROBE_TIMEOUT_S = 60


def blas_threads():
    """Thread counts reported by each loaded OpenBLAS library."""
    out = {}
    site = os.path.dirname(os.path.dirname(np.__file__))
    for lib in sorted(glob.glob(os.path.join(site, "*.libs", "libscipy_openblas*.so"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(lib)] = fn()
    return out


def peak_rss_mb():
    """This process's peak resident memory.

    VmHWM, not ru_maxrss: ru_maxrss survives execve, so a worker would report
    the peak of the benchmark process that started it if that were larger.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads": blas_threads(),
    }


class Run:
    def __init__(self, cfg):
        self.wl = WORKLOADS[cfg["workload"]]
        self.n = cfg["n"]
        self.seed = cfg["seed"]
        self.model = model(self.wl, self.n)
        self.refs = [complex(re, im) for re, im in cfg["refs"]]
        self.op = generate(self.wl, self.n)

    def record(self, sol, seconds):
        wl = self.wl
        fails = checks.check_solution(
            sol, self.model, self.refs, nev=wl.nev, tol=wl.tol, target=wl.target,
            interval=wl.interval, nearest_set=wl.nearest_set, left=wl.two_sided,
        )
        return {
            "solve_s": seconds,
            "fails": fails,
            "eigenvalues": [[z.real, z.imag] for z in sol.eigenvalues],
            "outer_iterations": sol.stats.get("outer_iterations"),
            "linear_solves": sol.stats.get("linear_solves"),
            "degree": sol.stats.get("degree", 0),
            "pairs": len(sol.pairs),
            "nearest_returned": checks.nearest_returned(
                sol, self.model, self.refs, nev=wl.nev, target=wl.target, interval=wl.interval
            ),
        }

    def setup_start(self):
        """Seconds of one fresh interpreter's set-up (see setup_probe.py)."""
        out = subprocess.run(
            [sys.executable, PROBE, self.wl.name, str(self.n)], capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S, check=True,
        )
        return float(out.stdout)

    def loop(self, seconds, min_solves, tracer=None, starts=0):
        """(records of the timed solves, ``starts`` set-up times taken between them)."""
        records, setup, measured = [], [], 0.0
        call = solve if tracer is None else tracer.wrap("solver", solve)
        begin = perf_counter()
        while len(records) < min_solves or measured < seconds:
            while len(setup) < starts and perf_counter() - begin >= len(setup) * seconds / starts:
                setup.append(self.setup_start())
            gc.collect()
            if tracer is not None:
                tracer.clear()
            t0 = perf_counter()
            sol = call(self.wl, self.op, self.seed)
            elapsed = perf_counter() - t0
            measured += elapsed
            rec = self.record(sol, elapsed)
            if tracer is not None:
                rec["layers"] = layer_metrics(tracer.spans, tracer.driver_restarts, rec["pairs"])
            records.append(rec)
            del sol
        while len(setup) < starts:
            setup.append(self.setup_start())
        return records, setup


def main():
    cfg = json.load(sys.stdin)
    run = Run(cfg)
    gc.collect()
    t0 = perf_counter()
    warm = run.record(solve(run.wl, run.op, run.seed), perf_counter() - t0)
    out = {"environment": environment(), "warmup": warm}
    if not cfg["trace"]:
        out["solves"], out["setup_s"] = run.loop(
            cfg["seconds"], 1 if cfg["quick"] else MIN_SOLVES, starts=cfg["setup_starts"]
        )
    else:
        out["solves"], _ = run.loop(cfg["seconds"] / 2, 1)
        tracer = Tracer()
        tracer.install()
        try:
            gen = []
            for _ in range(GENERATE_REPEATS):
                tracer.clear()
                generate(run.wl, run.n)
                gen.append(sum(s[3] - s[2] for s in tracer.spans if s[0] == "generate" and s[1] < 0))
            out["generate_s"] = statistics.median(gen)
            out["traced"], _ = run.loop(cfg["seconds"] / 2, 1 if cfg["quick"] else MIN_TRACED, tracer)
            with open(cfg["spans_path"], "w") as fh:
                fh.write("id,name,parent,start_s,end_s\n")
                base = tracer.spans[0][2]
                for i, (name, parent, s0, s1) in enumerate(tracer.spans):
                    fh.write(f"{i},{name},{parent},{s0 - base:.9f},{s1 - base:.9f}\n")
        finally:
            tracer.uninstall()
    out["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out))


if __name__ == "__main__":
    main()

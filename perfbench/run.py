"""Checked time-to-solution of nepsolve's solvers, end to end and per layer.

    python3 perfbench/run.py --workload nleigs-delay --seed 1 --seconds 10 --trace 0

Run from the repository root.  Every process it starts is pinned to one
BLAS/OpenMP thread before numpy loads.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Full records go to perfbench/results/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_STARTS = 5  # fresh-interpreter starts per run, for the median setup_s
WORKER_TIMEOUT_S = 170


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="small n: the same code paths in seconds")
    return p.parse_args(argv)


def run_worker(cfg, env):
    """solve.py's result; the worker is killed and waited for if it overruns."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "solve.py")], input=json.dumps(cfg), capture_output=True,
        text=True, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"solve.py exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def median_of(records, key):
    return statistics.median(r[key] for r in records)


def layer_report(workload, res):
    """Per-layer metrics (medians over the traced solves) and self-check problems."""
    from tracing import MEANT_FOR

    traced, untraced = res["traced"], res["solves"]
    names = sorted(traced[0]["layers"])
    metrics = {k: statistics.median(r["layers"][k] for r in traced) for k in names}
    solves = untraced + traced
    metrics["problems.generate_s"] = res["generate_s"]
    metrics["nleigs.degree"] = median_of(solves, "degree")
    metrics["solver.outer_iterations"] = median_of(solves, "outer_iterations")
    metrics["solver.linear_solves"] = median_of(solves, "linear_solves")
    metrics["check.nearest_returned"] = min(r["nearest_returned"] for r in solves)
    metrics["check.solve_count_gap"] = statistics.median(
        r["layers"]["linalg.solve_calls"] - r["linear_solves"] for r in traced
    )
    plain, with_trace = median_of(untraced, "solve_s"), median_of(traced, "solve_s")
    metrics["trace.overhead_s"] = with_trace - plain
    metrics["trace.overhead_share"] = (with_trace - plain) / plain
    problems = [
        f"{name} is 0 on {workload}, the workload it is meant for"
        for name, meant in MEANT_FOR.items() if workload in meant and not metrics[name]
    ]
    if metrics["check.solve_count_gap"]:
        print(f"perfbench: linalg.solve_calls - solver.linear_solves = "
              f"{metrics['check.solve_count_gap']} on {workload}", file=sys.stderr)
    return metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nepsolve" / "__init__.py").is_file():
        print(f"perfbench: no nepsolve sources in {SRC}", file=sys.stderr)
        return 2
    os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads, here and in the worker
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}

    from workloads import WORKLOADS, reference_eigenvalues

    wl = WORKLOADS[args.workload]
    n = wl.quick_n if args.quick else wl.n
    refs = reference_eigenvalues(wl, n)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{wl.name}{'-quick' if args.quick else ''}-seed{args.seed}-trace{args.trace}"
    cfg = {
        "workload": wl.name, "n": n, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick, "refs": [[z.real, z.imag] for z in refs],
        "setup_starts": 1 if args.quick else SETUP_STARTS,
        "spans_path": str(RESULTS / f"{stem}-spans.csv"),
    }
    res = run_worker(cfg, env)

    solves = [res["warmup"], *res["solves"], *res.get("traced", [])]
    failed = sum(1 for r in solves if r["fails"])
    problems = []
    if args.trace:
        metrics, problems = layer_report(wl.name, res)
    else:
        metrics = {
            "solve_s": median_of(res["solves"], "solve_s"),
            "setup_s": statistics.median(res["setup_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    result = {
        "correct": not problems,
        "attempted": len(solves),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump({"config": {k: v for k, v in cfg.items() if k != "refs"},
                   "problems": problems, "result": result, **res}, fh, indent=1)
    for r in solves:
        for reason in r["fails"]:
            print(f"perfbench: failed check: {reason}", file=sys.stderr)
    for p in problems:
        print(f"perfbench: trace self-check: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

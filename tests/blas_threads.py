"""Run a test script in a fresh interpreter at a given BLAS thread count."""

import os
import subprocess
import sys
from pathlib import Path


def run_at_blas_threads(threads, script):
    # the BLAS thread count is read when numpy is imported, so each setting
    # runs in a fresh interpreter
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root / "tests")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def other_blas_threads():
    """A BLAS thread count this process does not run at: "2" at 1 thread, else
    "1" (OpenBLAS runs at the core count unless the environment sets one)."""
    current = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or str(os.cpu_count())
    return "2" if current == "1" else "1"

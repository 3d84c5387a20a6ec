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

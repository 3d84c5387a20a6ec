"""Command-line driver: pick a problem and a solver, print a report.

Table output mirrors the usual eigensolver report (one line per pair plus
counters); JSON output is machine readable, embeds the fully resolved
configuration, and is bit-identical across runs with the same seed and flags
(wall-clock timings are therefore excluded unless explicitly requested).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from .core import (
    Ellipse,
    EigenSolution,
    Interval,
    NepError,
    Rectangle,
    Settings,
    backward_error,
)
from .interpol import interpol_solve
from .linalg import LinearSolverConfig
from .narnoldi import narnoldi_solve
from .newton import rii_solve, slp_solve
from .nleigs import nleigs_solve
from .problems import gen_delay, gen_loaded_string, load_problem_manifest

__all__ = ["main", "run", "build_parser", "validate_report", "REPORT_SCHEMA_VERSION"]

REPORT_SCHEMA_VERSION = 1

USAGE_ERROR = 2


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise argparse.ArgumentTypeError(f"expected RE or RE,IM, got {text!r}")


def _parse_region(text: str):
    kind, _, rest = text.partition(":")
    vals = [float(v) for v in rest.split(",")] if rest else []
    if kind == "interval" and len(vals) == 2:
        return Interval(vals[0], vals[1])
    if kind == "rect" and len(vals) == 4:
        return Rectangle(vals[0], vals[1], vals[2], vals[3])
    if kind == "ellipse" and len(vals) == 4:
        return Ellipse(complex(vals[0], vals[1]), vals[2], vals[3])
    raise argparse.ArgumentTypeError(
        f"bad region {text!r}; use interval:a,b | rect:a,b,c,d | ellipse:cx,cy,rx,ry"
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nepsolve",
        description="Solve a sparse nonlinear eigenvalue problem T(lambda) x = 0.",
    )
    sub = p.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="run a solver on a problem")
    g = run_p.add_argument_group("problem")
    g.add_argument("--problem", default="delay", help="delay | loaded_string | manifest:PATH")
    g.add_argument("--n", type=int, default=1000, help="generated problem dimension")
    g.add_argument("--tau", type=float, default=0.001, help="delay parameter")
    g.add_argument("--b", type=float, default=-2.0, help="delay coefficient")
    g.add_argument("--kappa", type=float, default=1.0, help="loaded_string stiffness")
    g.add_argument("--mass", type=float, default=1.0, help="loaded_string mass")
    s = run_p.add_argument_group("solver")
    s.add_argument("--solver", default="nleigs", choices=["slp", "rii", "narnoldi", "interpol", "nleigs"])
    s.add_argument("--nev", type=int, default=None)
    s.add_argument("--ncv", type=int, default=None)
    s.add_argument("--tol", type=float, default=None)
    s.add_argument("--max-it", type=int, default=None)
    s.add_argument("--target", type=_parse_complex, default=None, metavar="RE[,IM]")
    s.add_argument("--region", type=_parse_region, default=None)
    s.add_argument("--two-sided", action="store_true")
    s.add_argument("--full-basis", action="store_true")
    s.add_argument("--hermitian", action="store_true", help="RII: use the Hermitian scalar equation")
    s.add_argument("--lag", type=int, default=0, help="RII: shift update period (0 = fixed)")
    s.add_argument("--deflation-threshold", type=float, default=0.0)
    s.add_argument("--degree", type=int, default=20, help="interpolation degree")
    s.add_argument("--dd-tol", type=float, default=1e-11)
    s.add_argument("--dd-maxdeg", type=int, default=30)
    s.add_argument("--singularities", default="auto", help="auto | none | z1[,z2,...]")
    s.add_argument("--linsolver", default="direct", choices=["direct", "gmres", "bicgstab"])
    o = run_p.add_argument_group("output")
    o.add_argument("--output", default="table", choices=["table", "json"])
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--include-timings", action="store_true",
                   help="add wall-clock timings to JSON output (breaks bit-level determinism)")
    return p


def _singularities_arg(text: str):
    if text in ("auto", "none"):
        return text
    vals = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if "/" in tok:
            raise argparse.ArgumentTypeError(f"bad singularity {tok!r}")
        if "j" in tok or "J" in tok:
            vals.append(complex(tok))
        else:
            vals.append(complex(float(tok)))
    if not vals:
        raise argparse.ArgumentTypeError("empty singularity list")
    return vals


class UsageError(Exception):
    pass


def _build_problem(args):
    spec = args.problem
    if spec == "delay":
        op, _ = gen_delay(args.n, args.tau, args.b)
        defaults = Settings(nev=5, tol=1e-6, target=1.0, region=Interval(-100.0, 50.0))
        return op, defaults
    if spec == "loaded_string":
        op, _ = gen_loaded_string(args.n, args.kappa, args.mass)
        defaults = Settings(
            nev=9, tol=1e-8, target=10.0, region=Interval(4.0, 800.0), problem_type="rational"
        )
        return op, defaults
    if spec.startswith("manifest:"):
        return load_problem_manifest(spec[len("manifest:") :])
    raise UsageError(f"unknown problem {spec!r}")


def run(argv) -> tuple[dict, int]:
    """Execute one solver run; returns (report, exit_code)."""
    parser = build_parser()
    if argv and argv[0] != "run":
        argv = ["run", *argv]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:
            raise
        raise UsageError("argument parsing failed") from exc
    if args.command != "run":
        raise UsageError("missing command")
    if args.two_sided and args.solver != "nleigs":
        raise UsageError("--two-sided is only supported by the nleigs solver")
    if args.full_basis and args.solver != "nleigs":
        raise UsageError("--full-basis is only supported by the nleigs solver")
    try:
        sing = _singularities_arg(args.singularities)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(str(exc)) from exc

    op, defaults = _build_problem(args)
    overrides = {
        name: value
        for name in ("nev", "ncv", "tol", "max_it", "target", "region")
        if (value := getattr(args, name)) is not None
    }
    # replace() reruns Settings' checks on the user's values
    settings = dataclasses.replace(
        defaults, **overrides, two_sided=args.two_sided, seed=args.seed
    )

    lin_cfg = LinearSolverConfig(mode=args.linsolver)

    t0 = time.perf_counter()
    try:
        if args.solver == "slp":
            sol = slp_solve(op, settings, deflation_threshold=args.deflation_threshold, lin_cfg=lin_cfg)
        elif args.solver == "rii":
            sol = rii_solve(
                op,
                settings,
                hermitian=args.hermitian,
                lag=args.lag,
                deflation_threshold=args.deflation_threshold,
                lin_cfg=lin_cfg,
            )
        elif args.solver == "narnoldi":
            sol = narnoldi_solve(op, settings, lin_cfg=lin_cfg)
        elif args.solver == "interpol":
            sol = interpol_solve(op, settings, degree=args.degree, lin_cfg=lin_cfg)
        else:
            sol = nleigs_solve(
                op,
                settings,
                dd_tol=args.dd_tol,
                dd_maxdeg=args.dd_maxdeg,
                singularities=sing,
                full_basis=args.full_basis,
                lin_cfg=lin_cfg,
            )
    except NepError as exc:
        report = {"schema_version": REPORT_SCHEMA_VERSION, "error": str(exc)}
        return report, 1
    elapsed = time.perf_counter() - t0

    report = _build_report(args, settings, op, sol, elapsed)
    exit_code = 0 if (sol.converged and len(sol.pairs) >= settings.nev) else 1
    return report, exit_code


def _region_descr(region):
    if region is None:
        return None
    if isinstance(region, Interval):
        return {"kind": "interval", "a": region.a, "b": region.b}
    if isinstance(region, Rectangle):
        return {
            "kind": "rect",
            "re_min": region.re_min,
            "re_max": region.re_max,
            "im_min": region.im_min,
            "im_max": region.im_max,
        }
    if isinstance(region, Ellipse):
        return {
            "kind": "ellipse",
            "center": [region.center.real, region.center.imag],
            "rx": region.rx,
            "ry": region.ry,
        }
    return {"kind": "polygon"}


def _build_report(args, settings, op, sol: EigenSolution, elapsed: float) -> dict:
    pairs = []
    for p in sol.pairs:
        eta_check = backward_error(op, p.lam, p.x)
        entry = {
            "lambda_re": p.lam.real,
            "lambda_im": p.lam.imag,
            "eta": p.eta,
            "eta_recomputed": eta_check,
        }
        if p.eta_left is not None:
            entry["eta_left"] = p.eta_left
        if p.eta_poly is not None:
            entry["eta_interp"] = p.eta_poly
        pairs.append(entry)
    counters = {
        "outer_iterations": int(sol.stats.get("outer_iterations", 0)),
        "linear_solves": int(sol.stats.get("linear_solves", 0)),
    }
    for extra in ("degree", "restarts", "basis"):
        if extra in sol.stats:
            counters[extra] = sol.stats[extra]
    config = {
        "problem": args.problem,
        "n": op.n,
        "solver": args.solver,
        "nev": settings.nev,
        "ncv": settings.ncv_effective,
        "tol": settings.tol,
        "max_it": settings.max_it_effective,
        "target": [settings.target.real, settings.target.imag],
        "region": _region_descr(settings.region),
        "two_sided": settings.two_sided,
        "linsolver": args.linsolver,
        "seed": args.seed,
    }
    if args.solver == "interpol":
        config["degree"] = args.degree
    if args.solver == "nleigs":
        config["dd_tol"] = args.dd_tol
        config["dd_maxdeg"] = args.dd_maxdeg
        config["singularities"] = args.singularities
        config["full_basis"] = bool(args.full_basis or args.two_sided)
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "solver": args.solver,
        "config": config,
        "converged": bool(sol.converged and len(sol.pairs) >= settings.nev),
        "n_converged": len(sol.pairs),
        "pairs": pairs,
        "counters": counters,
        "timings": {"total_seconds": elapsed} if args.include_timings else None,
    }
    if "notes" in sol.stats:
        report["notes"] = sol.stats["notes"]
    return report


def validate_report(doc: dict) -> None:
    """Structural check of a JSON report; raises ValueError on violations."""
    if doc.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise ValueError("missing or unsupported schema_version")
    if "error" in doc:
        return
    for key in ("solver", "config", "converged", "n_converged", "pairs", "counters"):
        if key not in doc:
            raise ValueError(f"report is missing {key!r}")
    if not isinstance(doc["pairs"], list):
        raise ValueError("pairs must be a list")
    for entry in doc["pairs"]:
        for key in ("lambda_re", "lambda_im", "eta"):
            if not isinstance(entry.get(key), (int, float)):
                raise ValueError(f"pair entry missing numeric {key!r}")
    for key in ("outer_iterations", "linear_solves"):
        if not isinstance(doc["counters"].get(key), int):
            raise ValueError(f"counters missing integer {key!r}")


def _print_table(report: dict) -> None:
    print(f"solver: {report['solver']}   converged pairs: {report['n_converged']}")
    print(f"{'#':>3}  {'Re(lambda)':>22}  {'Im(lambda)':>22}  {'eta':>10}")
    print("-" * 64)
    for i, p in enumerate(report["pairs"]):
        print(f"{i:>3}  {p['lambda_re']:>+22.14e}  {p['lambda_im']:>+22.14e}  {p['eta']:>10.2e}")
    print("-" * 64)
    c = report["counters"]
    line = f"iterations: {c['outer_iterations']}   linear solves: {c['linear_solves']}"
    if "degree" in c:
        line += f"   degree: {c['degree']}"
    print(line)
    if report.get("timings"):
        print(f"total time: {report['timings']['total_seconds']:.3f} s")
    for note in report.get("notes", []):
        print(f"note: {note}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        report, code = run(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if _wants_json(argv):
        print(json.dumps(report, indent=2, sort_keys=True))
    elif "error" in report:
        print(f"error: {report['error']}", file=sys.stderr)
    else:
        _print_table(report)
    return code


def _wants_json(argv) -> bool:
    for i, tok in enumerate(argv):
        if tok == "--output" and i + 1 < len(argv) and argv[i + 1] == "json":
            return True
        if tok == "--output=json":
            return True
    return False


if __name__ == "__main__":
    sys.exit(main())

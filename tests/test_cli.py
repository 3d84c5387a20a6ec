import inspect
import json

import numpy as np
import pytest
import scipy.sparse as sp

from nepsolve.cli import REPORT_SCHEMA_VERSION, SOLVER_FLAGS, SOLVERS, UsageError, main, run, validate_report
from nepsolve.problems import gen_delay, write_matrix_market


DELAY_ARGS = [
    "run",
    "--problem", "delay",
    "--n", "120",
    "--tau", "0.001",
    "--b", "-2.0",
    "--solver", "slp",
    "--nev", "3",
    "--target", "1,0",
    "--tol", "1e-8",
    "--output", "json",
]


def test_run_delay_slp_exit_zero():
    report, code = run(DELAY_ARGS)
    assert code == 0
    assert report["converged"]
    assert report["n_converged"] >= 3
    validate_report(report)


def test_exit_code_nonzero_when_not_all_converge():
    # only three eigenvalues exist inside [-100, 50]; asking nleigs for five
    # must be reported as an incomplete solve
    args = [
        "run", "--problem", "delay", "--n", "100", "--solver", "nleigs",
        "--nev", "5", "--target", "1,0", "--region", "interval:-100,50",
        "--tol", "1e-6", "--max-it", "40",
    ]
    report, code = run(args)
    assert code == 1
    assert not report["converged"]
    assert report["n_converged"] == 3


def test_two_sided_run_reports_left_residuals_and_every_solve(monkeypatch):
    # the report's solve count includes each pair's adjoint solves, counted
    # as tests/test_integration.py counts direct solves
    from nepsolve import linalg

    calls = []
    solve = linalg._DirectSolver.solve

    def counted(self, b, adjoint=False):
        calls.append(adjoint)
        return solve(self, b, adjoint=adjoint)

    monkeypatch.setattr(linalg._DirectSolver, "solve", counted)
    report, code = run(["run", "--problem", "loaded_string", "--n", "200", "--two-sided", "--output", "json"])
    validate_report(report)
    assert code == 0 and report["config"]["two_sided"]
    tol = report["config"]["tol"]
    assert len(report["pairs"]) == report["config"]["nev"]
    assert all(p["eta_left"] <= tol for p in report["pairs"])
    assert report["counters"]["linear_solves"] == len(calls)
    assert calls.count(True) >= len(report["pairs"])


def test_two_sided_rejected_outside_nleigs():
    with pytest.raises(UsageError):
        run(["run", "--solver", "interpol", "--two-sided", "--n", "20"])
    assert main(["run", "--solver", "interpol", "--two-sided", "--n", "20"]) == 2


@pytest.mark.parametrize(
    "solver, flag",
    [
        ("slp", ["--lag", "2"]),
        ("narnoldi", ["--hermitian"]),
        ("narnoldi", ["--deflation-threshold", "1e-5"]),
        ("nleigs", ["--degree", "10"]),
        ("rii", ["--dd-tol", "1e-9"]),
        ("interpol", ["--dd-maxdeg", "10"]),
        ("slp", ["--singularities", "none"]),
        ("rii", ["--full-basis"]),
    ],
)
def test_flag_of_another_solver_is_usage_error(capsys, solver, flag):
    # a solver-specific flag given to a solver that does not read it was
    # silently ignored; it is rejected before any problem is built
    assert main(["run", "--solver", solver, *flag, "--output", "json"]) == 2
    assert "only supported by" in capsys.readouterr().err


def test_narnoldi_default_delay_returns_the_five_nearest():
    # the default delay problem (n=1000, nev 5, target 1); N-Arnoldi once
    # returned -358.16 among them and still exited 0
    report, code = run(["run", "--solver", "narnoldi", "--output", "json"])
    assert code == 0
    got = np.sort_complex([complex(p["lambda_re"], p["lambda_im"]) for p in report["pairs"]])
    _, oracle = gen_delay(1000, 0.001, -2.0)
    np.testing.assert_allclose(got, np.sort_complex(oracle.nearest(1.0, 5)), rtol=1e-6)


def test_unknown_problem_is_usage_error():
    assert main(["run", "--problem", "nosuch"]) == 2


def test_json_determinism_bit_identical(capsys):
    args = DELAY_ARGS + ["--seed", "7"]
    assert main(list(args)) == 0
    out1 = capsys.readouterr().out
    assert main(list(args)) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    doc = json.loads(out1)
    validate_report(doc)
    assert doc["timings"] is None


def test_json_report_contents_and_eta_recompute():
    report, code = run(DELAY_ARGS)
    assert code == 0
    assert report["schema_version"] == REPORT_SCHEMA_VERSION
    for entry in report["pairs"]:
        assert abs(entry["eta"] - entry["eta_recomputed"]) <= 1e-14
    cfg = report["config"]
    assert cfg["solver"] == "slp"
    assert cfg["nev"] == 3
    assert cfg["target"] == [1.0, 0.0]
    assert report["counters"]["scalars"] == "real"
    assert "shifts" not in report["counters"]  # SLP has no shift loop


@pytest.mark.parametrize(
    "solver, extra, shifts",
    [("nleigs", ["--n", "80"], 1), ("interpol", ["--n", "40", "--degree", "30", "--tol", "1e-6"], 2)],
)
def test_shift_loop_solvers_report_their_shift_count(solver, extra, shifts):
    # the loaded string's nine pairs: NLEIGS finds them at the target, and
    # interpol at degree 30 needs a second shift for the four beyond 300
    report, _ = run(["run", "--problem", "loaded_string", "--solver", solver, "--output", "json", *extra])
    validate_report(report)
    assert report["n_converged"] == 9
    assert report["counters"]["shifts"] == shifts


def test_table_output(capsys):
    args = [("table" if a == "json" else a) for a in DELAY_ARGS]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "Re(lambda)" in out
    assert "linear solves" in out


@pytest.mark.parametrize("flag", [["--outp", "json"], ["--outp=json"], ["--output=json"]])
def test_json_output_follows_the_parsed_flag(capsys, flag):
    # argparse accepts an unambiguous prefix of a long option; the output
    # format is the parsed value, however the flag was spelled
    assert main(DELAY_ARGS[:-2] + flag) == 0
    validate_report(json.loads(capsys.readouterr().out))


def test_include_timings_flag():
    report, code = run(DELAY_ARGS + ["--include-timings"])
    assert code == 0
    assert report["timings"] is not None
    assert report["timings"]["total_seconds"] > 0


def test_region_and_solver_flags_loaded_string():
    args = [
        "run", "--problem", "loaded_string", "--n", "80", "--solver", "nleigs",
        "--nev", "4", "--target", "10", "--region", "interval:4,800",
        "--tol", "1e-8", "--singularities", "auto", "--output", "json",
    ]
    report, code = run(args)
    assert code == 0
    assert report["counters"]["degree"] <= 4
    assert report["counters"]["scalars"] == "real"


@pytest.mark.parametrize(
    "region, kind",
    [("rect:-100,50,-1,1", "rectangle"), ("ellipse:-25,0.5,75,2", "ellipse")],
)
def test_rect_and_ellipse_regions_reach_the_solver(region, kind):
    args = ["run", "--problem", "delay", "--n", "50", "--solver", "nleigs", "--nev", "2", "--region", region]
    report, code = run(args)
    assert code == 0
    assert report["config"]["region"]["kind"] == kind
    assert report["counters"]["scalars"] == "complex"


@pytest.mark.parametrize("region", ["rect:-100,50,-1", "ellipse:0,0,1", "rect:a,b,c,d", "disk:0,0,1"])
def test_malformed_region_is_usage_error(capsys, region):
    assert main(["run", "--problem", "delay", "--n", "50", "--region", region]) == 2
    assert capsys.readouterr().out == ""


def test_explicit_singularity_list():
    args = [
        "run", "--problem", "loaded_string", "--n", "60", "--solver", "nleigs",
        "--nev", "2", "--target", "10", "--region", "interval:4,800",
        "--singularities", "1.0",
    ]
    report, code = run(args)
    assert code == 0


def _delay_manifest(tmp_path, field="complex"):
    """A manifest of the delay problem at n=30, its matrices written with ``field``."""
    op, _ = gen_delay(30, 0.001, -2.0)
    names = []
    for i, (A, _) in enumerate(op.terms):
        name = f"t{i}.mtx"
        write_matrix_market(tmp_path / name, A, field=field)
        names.append(name)
    doc = {
        "name": "delay30",
        "matrices": names,
        "functions": [
            {"type": "rational", "num": [1.0]},
            {"type": "rational", "num": [-1.0, 0.0]},
            {"type": "exp", "alpha": -0.001},
        ],
        "settings": {"nev": 2, "tol": 1e-8, "target": [1.0, 0.0]},
    }
    mpath = tmp_path / "delay30.json"
    mpath.write_text(json.dumps(doc))
    return mpath


def test_manifest_problem(tmp_path):
    mpath = _delay_manifest(tmp_path)
    report, code = run(["run", "--problem", f"manifest:{mpath}", "--solver", "rii"])
    assert code == 0
    assert report["n_converged"] == 2


@pytest.mark.parametrize("solver", ["rii", "narnoldi"])
def test_singular_target_is_a_solver_error(tmp_path, capsys, solver):
    # T(lam) = diag(1, 2, 3) - lam I is singular at the target 2; the solvers
    # raise SingularMatrixError, a ValueError, which is still no usage error
    names = []
    for i, A in enumerate([sp.diags([1.0, 2.0, 3.0]), sp.identity(3)]):
        names.append(f"t{i}.mtx")
        write_matrix_market(tmp_path / names[-1], sp.csr_matrix(A), field="real")
    doc = {
        "matrices": names,
        "functions": [{"type": "rational", "num": [1.0]}, {"type": "rational", "num": [-1.0, 0.0]}],
        "settings": {"nev": 3, "tol": 1e-10, "target": [2.0, 0.0]},
    }
    mpath = tmp_path / "diag3.json"
    mpath.write_text(json.dumps(doc))
    assert main(["run", "--problem", f"manifest:{mpath}", "--solver", solver, "--output", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    validate_report(report)
    assert "singular" in report["error"]


@pytest.mark.parametrize("solver, extra", [("slp", []), ("nleigs", ["--region", "interval:-100,50"])])
def test_real_matrix_market_problem_runs_in_real_arithmetic(tmp_path, solver, extra):
    # real .mtx input stays real from the reader through the operator
    mpath = _delay_manifest(tmp_path, field="real")
    report, code = run(["run", "--problem", f"manifest:{mpath}", "--solver", solver, "--output", "json", *extra])
    assert code == 0 and report["n_converged"] == 2
    assert report["counters"]["scalars"] == "real"


def test_validate_report_rejects_malformed():
    with pytest.raises(ValueError):
        validate_report({})
    with pytest.raises(ValueError):
        validate_report({"schema_version": REPORT_SCHEMA_VERSION, "solver": "slp"})


@pytest.mark.parametrize(
    "extra",
    [
        ["--solver", "slp", "--nev", "0"],
        ["--solver", "rii", "--nev", "-3"],
        ["--solver", "narnoldi", "--nev", "3", "--ncv", "3"],
    ],
)
def test_invalid_nev_or_ncv_is_usage_error(capsys, extra):
    # the user's values go through the same checks as Settings(...)
    assert main(["run", "--n", "50", "--output", "json", *extra]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "extra",
    [
        ["--solver", "rii", "--tol", "-1"],
        ["--solver", "slp", "--tol", "nan"],
        ["--solver", "nleigs", "--max-it", "0"],
        ["--solver", "interpol", "--degree", "1"],
        ["--solver", "slp", "--target", "nan"],
        ["--solver", "narnoldi", "--target", "1,inf"],
    ],
)
def test_out_of_range_tol_or_max_it_is_usage_error(capsys, extra):
    assert main(["run", "--problem", "delay", "--n", "50", "--output", "json", *extra]) == 2
    assert capsys.readouterr().out == ""


def test_every_solver_option_is_a_cli_flag():
    # an option that no flag sets has no caller; two_sided is a Settings field
    for name, solver in SOLVERS.items():
        params = inspect.signature(solver).parameters.values()
        options = {p.name for p in params if p.kind is p.KEYWORD_ONLY} - {"lin_cfg"}
        flags = {dest for dest, solvers in SOLVER_FLAGS.items() if name in solvers} - {"two_sided"}
        assert options == flags, name

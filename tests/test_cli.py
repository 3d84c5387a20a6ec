import json

import numpy as np
import pytest

from nepsolve.cli import REPORT_SCHEMA_VERSION, UsageError, main, run, validate_report
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


def test_two_sided_rejected_outside_nleigs():
    with pytest.raises(UsageError):
        run(["run", "--solver", "interpol", "--two-sided", "--n", "20"])
    assert main(["run", "--solver", "interpol", "--two-sided", "--n", "20"]) == 2


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


def test_table_output(capsys):
    args = [("table" if a == "json" else a) for a in DELAY_ARGS]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "Re(lambda)" in out
    assert "linear solves" in out


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


def test_explicit_singularity_list():
    args = [
        "run", "--problem", "loaded_string", "--n", "60", "--solver", "nleigs",
        "--nev", "2", "--target", "10", "--region", "interval:4,800",
        "--singularities", "1.0",
    ]
    report, code = run(args)
    assert code == 0


def test_manifest_problem(tmp_path):
    op, _ = gen_delay(30, 0.001, -2.0)
    names = []
    for i, (A, _) in enumerate(op.terms):
        name = f"t{i}.mtx"
        write_matrix_market(tmp_path / name, A)
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
    report, code = run(["run", "--problem", f"manifest:{mpath}", "--solver", "rii"])
    assert code == 0
    assert report["n_converged"] == 2


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

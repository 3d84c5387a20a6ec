import json
import os

import numpy as np
import pytest
import scipy.sparse as sp

from nepsolve.core import Interval, backward_error, region_from_dict
from nepsolve.newton import slp_solve
from nepsolve.core import Settings
from nepsolve.problems import (
    MatrixMarketError,
    gen_delay,
    gen_loaded_string,
    load_problem_manifest,
    read_matrix_market,
    write_matrix_market,
)


# -- delay --------------------------------------------------------------------


def test_delay_split_structure():
    op, _ = gen_delay(10, tau=0.25, b=-2.0)
    assert op.nterms == 3
    # one constant, one -lambda, one exp(-tau*lambda) term
    vals = sorted(abs(f(1.0)) for _, f in op.terms)
    assert vals == pytest.approx(sorted([1.0, 1.0, np.exp(-0.25)]))
    (A, fA), (I, fI), (B, fB) = op.terms
    assert fA(3.3) == 1.0
    assert fI(3.3) == -3.3
    assert fB(2.0) == pytest.approx(np.exp(-0.5))


def test_delay_tau_zero_is_linear():
    op, oracle = gen_delay(10, tau=0.0, b=0.0)
    mu = oracle.laplacian_eigenvalues()
    roots = oracle.roots()
    assert np.allclose(np.sort(roots.real), np.sort(mu), rtol=1e-14)


def test_delay_oracle_self_consistency():
    n = 30
    op, oracle = gen_delay(n, tau=0.001, b=-2.0)
    roots = oracle.nearest(1.0, 4)
    j = np.arange(1, n + 1)
    for lam in roots:
        # identify the Laplacian branch and use its eigenvector
        mu = oracle.laplacian_eigenvalues()
        k = int(np.argmin(np.abs(-lam + mu - 2 * np.exp(-0.001 * lam))))
        x = np.sin((k + 1) * np.pi * j / (n + 1)).astype(complex)
        eta = backward_error(op, lam, x / np.linalg.norm(x))
        assert eta <= 1e-10


def test_delay_small_solver_matches_oracle():
    op, oracle = gen_delay(10, tau=0.001, b=-2.0)
    roots = oracle.roots()
    sol = slp_solve(op, Settings(nev=3, tol=1e-10, target=1.0))
    assert sol.converged
    for lam in sol.eigenvalues:
        assert np.min(np.abs(roots - lam)) <= 1e-8 * abs(lam)


def test_delay_noncommuting_variant_has_no_oracle():
    op, oracle = gen_delay(8, commuting=False)
    assert oracle is None
    assert op.nterms == 3


# -- loaded string ------------------------------------------------------------------


def test_loaded_string_construction_invariants():
    op, oracle = gen_loaded_string(25, kappa=1.0, mass=1.0)
    A, B, C = (t[0].toarray() for t in op.terms)
    assert np.allclose(A, A.T)
    assert np.allclose(B, B.T)
    assert np.all(np.linalg.eigvalsh(A.real) > 0)
    assert np.all(np.linalg.eigvalsh(B.real) > 0)
    assert np.linalg.matrix_rank(C) == 1
    assert oracle.pole == 1.0


def test_loaded_string_nine_eigenvalues_in_interval():
    _, oracle = gen_loaded_string(60)
    inside = oracle.in_interval(4.0, 800.0)
    assert len(inside) == 9


def test_loaded_string_oracle_self_consistency():
    op, oracle = gen_loaded_string(40)
    lams = oracle.in_interval(4.0, 800.0)[:4]
    for lam in lams:
        T = op.assemble(complex(lam)).toarray()
        _, _, Vh = np.linalg.svd(T)
        x = Vh[-1].conj()
        assert backward_error(op, complex(lam), x) <= 1e-10


def test_loaded_string_oracle_eigenvalues_at_n200():
    _, oracle = gen_loaded_string(200)
    assert len(oracle.all_eigenvalues()) == 201
    ref = [4.48206235749, 24.2199192367, 63.6984738855, 122.936773027, 201.946019246,
           300.744871805, 419.357438165, 557.812877694, 716.14530393]
    assert np.allclose(oracle.in_interval(4.0, 800.0), ref, rtol=1e-10, atol=0.0)


def test_loaded_string_generation_stays_sparse_at_large_n():
    # the oracle keeps the sparse matrices; a dense copy at this size would
    # need 298 GiB
    op, oracle = gen_loaded_string(200000)
    assert op.n == 200000
    assert all(sp.issparse(M) for M in (oracle.A, oracle.B, oracle.C))


def test_loaded_string_pole_scales_with_parameters():
    op, oracle = gen_loaded_string(10, kappa=3.0, mass=2.0)
    assert oracle.pole == pytest.approx(1.5)
    f3 = op.terms[2][1]
    with pytest.raises(Exception):
        f3(1.5)  # pole of the rational coefficient


# -- matrix market --------------------------------------------------------------------


def test_mm_single_entry(tmp_path):
    p = tmp_path / "one.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 5.0\n")
    A = read_matrix_market(p)
    assert A.shape == (1, 1) and A.dtype == np.float64
    assert A[0, 0] == 5.0


def test_mm_symmetric_expansion(tmp_path):
    p = tmp_path / "sym.mtx"
    p.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 4\n1 1 2.0\n2 1 -1.0\n3 2 -1.0\n3 3 2.0\n"
    )
    A = read_matrix_market(p).toarray()
    assert np.allclose(A, A.T)
    assert A[0, 1] == -1.0 and A[1, 0] == -1.0


def test_mm_hermitian_expansion(tmp_path):
    p = tmp_path / "herm.mtx"
    p.write_text(
        "%%MatrixMarket matrix coordinate complex hermitian\n"
        "2 2 2\n1 1 1.0 0.0\n2 1 2.0 3.0\n"
    )
    A = read_matrix_market(p)
    assert A.dtype == np.complex128
    A = A.toarray()
    assert A[1, 0] == 2.0 + 3.0j
    assert A[0, 1] == 2.0 - 3.0j


def test_mm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    A = sp.random(15, 15, density=0.2, random_state=3).astype(complex)
    A = A + 1j * sp.random(15, 15, density=0.1, random_state=4)
    p = tmp_path / "rt.mtx"
    write_matrix_market(p, A)
    B = read_matrix_market(p)
    assert np.allclose(A.toarray(), B.toarray(), atol=1e-15)


@pytest.mark.parametrize(
    "field, values",
    [("real", [1.0 + 2.0j, 3.0j]), ("integer", [1.5, -2.7]), ("pattern", [1.0, 2.0])],
)
def test_mm_write_rejects_a_field_that_cannot_hold_the_entries(tmp_path, field, values):
    # written as they were, these read back as 1 and 0, as 1 and -2, and as 1 and 1
    A = sp.csr_matrix((values, ([0, 1], [0, 1])), shape=(2, 2))
    p = tmp_path / "a.mtx"
    with pytest.raises(ValueError, match=field):
        write_matrix_market(p, A, field=field)
    held = {"integer": np.round(A.real), "pattern": A != 0}.get(field, A.real)  # entries the field can hold
    write_matrix_market(p, held, field=field)
    assert np.array_equal(read_matrix_market(p).toarray(), held.toarray())


def test_mm_array_layout(tmp_path):
    p = tmp_path / "arr.mtx"
    p.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0\n4.0\n")
    A = read_matrix_market(p).toarray()
    assert np.allclose(A, [[1.0, 3.0], [2.0, 4.0]])


def test_mm_parse_errors_report_line_numbers(tmp_path):
    p = tmp_path / "bad.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n9 1 1.0\n")
    with pytest.raises(MatrixMarketError) as exc:
        read_matrix_market(p)
    assert ":4:" in str(exc.value)

    p2 = tmp_path / "bad2.mtx"
    p2.write_text("%%NotMatrixMarket\n")
    with pytest.raises(MatrixMarketError):
        read_matrix_market(p2)

    p3 = tmp_path / "bad3.mtx"
    p3.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 1.0\n")
    with pytest.raises(MatrixMarketError) as exc3:
        read_matrix_market(p3)
    assert ":3:" in str(exc3.value)


# -- manifests ------------------------------------------------------------------------


def write_delay_manifest(tmp_path, n=8, tau=0.001, b=-2.0):
    op, _ = gen_delay(n, tau, b)
    names = []
    for i, (A, _) in enumerate(op.terms):
        name = f"m{i}.mtx"
        write_matrix_market(tmp_path / name, A)
        names.append(name)
    doc = {
        "name": "delay-desk",
        "matrices": names,
        "functions": [
            {"type": "rational", "num": [1.0]},
            {"type": "rational", "num": [-1.0, 0.0]},
            {"type": "exp", "alpha": -tau},
        ],
        "pattern": "subset",
        "settings": {
            "nev": 5,
            "tol": 1e-6,
            "target": [1.0, 0.0],
            "region": {"kind": "interval", "a": -100.0, "b": 50.0},
        },
    }
    path = tmp_path / "delay.json"
    path.write_text(json.dumps(doc))
    return op, path


def test_manifest_reproduces_generator(tmp_path):
    op_ref, path = write_delay_manifest(tmp_path)
    op, settings = load_problem_manifest(path)
    assert op.nterms == 3
    assert settings.nev == 5
    assert settings.tol == 1e-6
    assert settings.target == 1.0
    assert isinstance(settings.region, Interval)
    for lam in (0.0, 1.0, -3.3 + 0.1j):
        assert np.allclose(
            op.assemble(lam).toarray(), op_ref.assemble(lam).toarray(), atol=1e-12
        )


REGIONS = {
    "interval": {"kind": "interval", "a": -100.0, "b": 50.0},
    "rectangle": {"kind": "rectangle", "re_min": -100.0, "re_max": 50.0, "im_min": -1.0, "im_max": 1.0},
    "ellipse": {"kind": "ellipse", "center": [-25.0, 0.5], "rx": 75.0, "ry": 2.0},
    "polygon": {"kind": "polygon", "vertices": [[-100.0, -1.0], [50.0, -1.0], [50.0, 1.0], [-100.0, 2.0]]},
}


@pytest.mark.parametrize("kind", sorted(REGIONS))
def test_report_region_loads_back_as_a_manifest_region(tmp_path, kind):
    # the report's config.region, given back as a manifest's region, is the
    # region the run was posed on
    from nepsolve.cli import run

    _, path = write_delay_manifest(tmp_path)
    doc = json.loads(path.read_text())
    doc["settings"]["region"] = REGIONS[kind]
    path.write_text(json.dumps(doc))
    posed = load_problem_manifest(path)[1].region
    report, _ = run(["run", "--problem", f"manifest:{path}", "--solver", "slp", "--nev", "1"])
    assert report["config"]["region"] == REGIONS[kind]
    doc["settings"]["region"] = report["config"]["region"]
    path.write_text(json.dumps(doc))
    assert load_problem_manifest(path)[1].region == posed


def test_manifest_target_with_three_entries_is_rejected(tmp_path):
    _, path = write_delay_manifest(tmp_path)
    doc = json.loads(path.read_text())
    doc["settings"]["target"] = [1.0, 2.0, 3.0]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"\[re, im\]"):
        load_problem_manifest(path)


@pytest.mark.parametrize("target", [float("nan"), [1.0, float("inf")]], ids=["nan", "1,inf"])
def test_manifest_target_that_is_not_finite_is_rejected(tmp_path, target):
    _, path = write_delay_manifest(tmp_path)
    doc = json.loads(path.read_text())
    doc["settings"]["target"] = target
    path.write_text(json.dumps(doc))  # as NaN and Infinity, which json reads back
    with pytest.raises(ValueError, match="target"):
        load_problem_manifest(path)


def test_manifest_ncv_max_it_and_problem_type_reach_settings(tmp_path):
    _, path = write_delay_manifest(tmp_path)
    doc = json.loads(path.read_text())
    doc["settings"].update(ncv=24, max_it=7, problem_type="rational")
    path.write_text(json.dumps(doc))
    s = load_problem_manifest(path)[1]
    assert (s.ncv, s.max_it, s.problem_type) == (24, 7, "rational")


def test_ellipse_center_with_three_entries_is_rejected():
    with pytest.raises(ValueError, match=r"\[re, im\]"):
        region_from_dict({"kind": "ellipse", "center": [1.0, 2.0, 3.0], "rx": 1.0, "ry": 1.0})


def test_manifest_missing_file(tmp_path):
    doc = {"matrices": ["nope.mtx"], "functions": [{"type": "exp"}]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FileNotFoundError):
        load_problem_manifest(path)


def test_manifest_count_mismatch(tmp_path):
    write_matrix_market(tmp_path / "a.mtx", sp.identity(3, format="csr"))
    doc = {"matrices": ["a.mtx"], "functions": []}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_problem_manifest(path)


def test_manifest_dimension_mismatch(tmp_path):
    write_matrix_market(tmp_path / "a.mtx", sp.identity(3, format="csr"))
    write_matrix_market(tmp_path / "b.mtx", sp.identity(4, format="csr"))
    doc = {
        "matrices": ["a.mtx", "b.mtx"],
        "functions": [{"type": "exp"}, {"type": "exp"}],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_problem_manifest(path)

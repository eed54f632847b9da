import json
import subprocess
import sys
import warnings
from importlib import resources

import numpy as np
import pytest

import lieext as lx
from lieext.cli import main, run
from lieext.documents import parse_document, serialize_algebra
from lieext.errors import DocumentError, UnresolvedReferenceError

FIXTURES = resources.files("lieext") / "fixtures"


def run_cli(args, stdin_text=None):
    proc = subprocess.run(
        [sys.executable, "-m", "lieext.cli", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
    )
    return proc


def load_fixture(name):
    return (FIXTURES / name).read_text()


class TestParseDocument:
    def test_heis3_fixture_parses_and_validates(self):
        doc = parse_document(load_fixture("heis3_validate.json"))
        assert doc.task == "validate"
        assert doc.algebra.dim == 3
        report, code = run(doc)
        assert code == 0
        assert report["results"]["valid"] is True

    def test_sparse_antisymmetric_completion(self):
        doc = parse_document(
            json.dumps(
                {
                    "task": "validate",
                    "algebra": {"dim": 3, "structure_constants": [[0, 1, 2, 1.0]]},
                }
            )
        )
        c = doc.algebra.structure_constants
        assert c[0, 1, 2] == 1.0 and c[1, 0, 2] == -1.0

    def test_sparse_requires_lower_index_first(self):
        with pytest.raises(DocumentError):
            parse_document(
                json.dumps(
                    {
                        "task": "validate",
                        "algebra": {"dim": 3, "structure_constants": [[1, 0, 2, 1.0]]},
                    }
                )
            )

    def test_bad_json_reports_position(self):
        with pytest.raises(DocumentError) as err:
            parse_document("{not json")
        assert "line" in str(err.value)

    def test_unresolved_path_reference(self):
        raw = json.loads(load_fixture("torus_gamma.json"))
        raw["pair"] = ["p1", "nope"]
        with pytest.raises(UnresolvedReferenceError):
            parse_document(raw)

    def test_shape_mismatch_distinct_error(self):
        raw = {
            "task": "validate",
            "algebra": {"dim": 2, "structure_constants_dense": [[[0.0]]]},
        }
        with pytest.raises(DocumentError):
            parse_document(raw)

    def test_missing_required_section(self):
        with pytest.raises(DocumentError):
            parse_document(json.dumps({"task": "extend", "algebra": {"dim": 2}}))

    def test_unknown_task(self):
        with pytest.raises(DocumentError):
            parse_document(json.dumps({"task": "frobnicate"}))

    def test_group_action_expressions(self):
        rate = 2.0 * np.pi
        doc = {
            "task": "validate",
            "group": {"kind": "translation", "dim": 1},
            "module": {
                "coeff_dim": 2,
                "rho": [[[0.0, -rate], [rate, 0.0]]],
                "group_action": {
                    "exprs": [
                        "cos(2*pi*g1)*a1 - sin(2*pi*g1)*a2",
                        "sin(2*pi*g1)*a1 + cos(2*pi*g1)*a2",
                    ]
                },
            },
        }
        report, code = run(parse_document(json.dumps(doc)))
        assert code == 0 and report["results"]["valid"] is True
        doc["module"]["rho"] = [[[0.0, -1.0], [1.0, 0.0]]]  # wrong rate
        report, _ = run(parse_document(json.dumps(doc)))
        assert any(
            v["identity"] == "action_compatibility"
            for v in report["results"]["violations"]
        )

    def test_matrix_group_needs_algebra_section(self):
        raw = {
            "task": "validate",
            "group": {"kind": "matrix", "basis": [[[0.0]]], "structure_constants": []},
        }
        with pytest.raises(DocumentError):
            parse_document(raw)

    def test_group_algebra_dim_cross_check(self):
        raw = {
            "task": "validate",
            "group": {"kind": "torus", "dim": 2},
            "algebra": {"dim": 3},
        }
        with pytest.raises(DocumentError):
            parse_document(raw)


def _edited(fixture, edit):
    raw = json.loads(load_fixture(fixture))
    edit(raw)
    return raw


def _set(*keys, value):
    def edit(raw):
        target = raw
        for key in keys[:-1]:
            target = target.setdefault(key, {}) if isinstance(key, str) else target[key]
        target[keys[-1]] = value
    return edit


MALFORMED = {
    "torus_dim_string": ("torus_integrable.json", _set("group", "dim", value="x")),
    "torus_dim_negative": ("torus_integrable.json", _set("group", "dim", value=-1)),
    "torus_dim_zero": ("torus_integrable.json", _set("group", "dim", value=0)),
    "translation_dim_string": ("r2_d2.json", _set("group", "dim", value="x")),
    "patch_divide_by_zero": (
        "torus_integrable.json",
        _set("cycles", 0, "patches", 0, "coords", 0, value="t/0"),
    ),
    "quad_order_string": ("torus_integrable.json", _set("options", "quad_order", value="x")),
    "quad_order_zero": ("torus_integrable.json", _set("options", "quad_order", value=0)),
    "quad_order_on_cohomology": ("sl2_cohomology.json", _set("options", "quad_order", value="x")),
    "degrees_string": ("sl2_cohomology.json", _set("options", "degrees", value=["x"])),
    "degrees_not_list": ("sl2_cohomology.json", _set("options", "degrees", value=2)),
    "degree_string": ("sl2_cohomology.json", _set("options", value={"degree": "x"})),
    "tol_string": ("heis3_validate.json", _set("options", "tol", value="x")),
    "tol_alg_list": ("extend_heis3.json", _set("options", "tol_alg", value=[1e-9])),
    "tol_lat_string": ("torus_integrable.json", _set("options", "tol_lat", value="x")),
    "equiv_tol_null": ("equivalence_r2.json", _set("options", "equiv_tol", value=None)),
    "fd_step_string": ("r2_d2.json", _set("options", "fd_step", value="x")),
    "fd_step_zero": ("r2_d2.json", _set("options", "fd_step", value=0)),
    "fd_step_underflow": ("r2_d2.json", _set("options", "fd_step", value=1e-300)),
    "tol_negative": ("torus_integrable.json", _set("options", "tol", value=-1)),
    "tol_infinite": ("torus_not_integrable.json", _set("options", "tol", value=float("inf"))),
    "tol_nan": ("torus_integrable.json", _set("options", "tol", value=float("nan"))),
    "tol_alg_negative": ("extend_heis3.json", _set("options", "tol_alg", value=-1e-9)),
    "tol_lat_zero": ("torus_integrable.json", _set("options", "tol_lat", value=0)),
    "equiv_tol_infinite": ("equivalence_r2.json", _set("options", "equiv_tol", value=float("inf"))),
    "options_not_object": ("heis3_validate.json", _set("options", value="x")),
    "quad_order_fraction": ("torus_integrable.json", _set("options", "quad_order", value=2.7)),
    "quad_order_bool": ("torus_integrable.json", _set("options", "quad_order", value=True)),
    "degree_fraction": ("sl2_cohomology.json", _set("options", value={"degree": 2.5})),
    "degrees_bool": ("sl2_cohomology.json", _set("options", "degrees", value=[True])),
    "tol_bool": ("torus_integrable.json", _set("options", "tol", value=True)),
    "patch_exp_overflow": (
        "torus_integrable.json",
        _set("cycles", 0, "patches", 0, "coords", 0, value="exp(1000)"),
    ),
    "patch_number_out_of_range": (
        "torus_integrable.json",
        _set("cycles", 0, "patches", 0, "coords", 1, value="s + 1e400"),
    ),
    "patch_coords_length": (
        "torus_integrable.json",
        _set("cycles", 0, "patches", 0, "coords", value=["t"]),
    ),
    "patch_matrix_shape": (
        "su2_sphere_period.json",
        _set("cycles", 0, "patches", 0, "matrix", value=[["1", "0"], ["0", "1"]]),
    ),
    "lattice_generators_nan": (
        "torus_integrable.json",
        _set("lattice", "generators", value=[[float("nan")]]),
    ),
    "cocycle_degree_string": ("torus_integrable.json", _set("cocycle", "degree", value="x")),
    "cycles_not_list": ("torus_integrable.json", _set("cycles", value=3)),
    "pair_entry_not_string": ("torus_gamma.json", _set("pair", 0, value=["p1"])),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_exits_2(case, tmp_path, capsys):
    fixture, edit = MALFORMED[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_edited(fixture, edit)))
    code = main([str(path)])  # an escaping exception fails the test
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("input error: ")
    assert captured.out == ""


def test_lattice_error_has_one_prefix(tmp_path, capsys):
    path = tmp_path / "doc.json"
    raw = _edited("torus_integrable.json", _set("lattice", "generators", value=[1, 2]))
    path.write_text(json.dumps(raw))
    assert main([str(path)]) == 2
    assert capsys.readouterr().err == (
        "input error: lattice: generators must be r x m, got shape (2,)\n"
    )


def test_small_scale_lattice_is_accepted():
    raw = _edited("torus_integrable.json", _set("lattice", "generators", value=[[1e-7]]))
    raw["cocycle"]["components"][0]["value"] = [1e-7]
    report, code = run(parse_document(raw))
    assert code == 0
    assert report["results"]["overall"] == "integrable"


def test_small_lattice_is_tested_in_period_units():
    # the period 0.9999999987 is 1.3e-9 from the lattice point 10^7 * 1e-7
    raw = _edited("torus_integrable.json", _set("lattice", "generators", value=[[1e-7]]))
    report, code = run(parse_document(raw))
    assert code == 0
    (gen,) = report["results"]["generators"]
    assert report["results"]["overall"] == "integrable"
    assert gen["verdict"] == "member" and gen["coefficients"] == [10_000_000]
    assert gen["residual"] < 1e-8


@pytest.mark.parametrize("step, code", [(1e-300, 2), (1e154, 3)])
def test_d2_step_out_of_range_exits_with_a_message(step, code, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_edited("r2_d2.json", _set("options", "fd_step", value=step))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "step" in captured.err and "Traceback" not in captured.err


def _strict_json(text):
    """json.loads that refuses NaN and Infinity, as a strict parser does."""
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


def _equivalence_of(value1, value2):
    raw = json.loads(load_fixture("equivalence_r2.json"))
    raw["cocycle"]["components"][0]["value"] = [value1]
    raw["cocycle2"]["components"] = [{"indices": [0, 1], "value": [value2]}]
    return raw


def _gamma_of_big_cocycle():
    raw = json.loads(load_fixture("torus_gamma.json"))
    raw["cocycle"]["components"][0]["value"] = [1.7e308]
    raw["paths"] = {"p1": {"coords": ["3*t", "0"]}, "p2": {"coords": ["0", "3*t"]}}
    return raw


@pytest.mark.parametrize(
    "raw, field",
    [
        (_equivalence_of(1.7e308, -1.7e308), "results['residual']"),
        (_gamma_of_big_cocycle(), "results['value'][0]"),
    ],
    ids=["equivalence_residual", "gamma_value"],
)
def test_non_finite_result_is_rejected(raw, field, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(raw))
    assert main([str(path), "--output", "machine"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"computation rejected: {field} is not finite\n"


def test_equivalence_near_the_top_of_the_double_range(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_equivalence_of(1e308, -5e307)))
    assert main([str(path), "--output", "machine"]) == 0
    captured = capsys.readouterr()
    results = _strict_json(captured.out)["results"]
    assert results == {"equivalent": False, "residual": 1.5e308}
    assert captured.err == ""


@pytest.mark.parametrize(
    "entry", json.loads((FIXTURES / "index.json").read_text()), ids=lambda e: e["file"]
)
def test_fixture_machine_report_is_strict_json(entry, capsys):
    code = main([str(FIXTURES / entry["file"]), "--output", "machine"])
    assert code == entry["expected_exit"]
    out = capsys.readouterr().out
    if out:
        assert _strict_json(out)["task"] == entry["task"]


class TestRoundTrip:
    def test_extension_serialization_reparses_identically(self):
        doc = parse_document(load_fixture("extend_heis3.json"))
        report, _ = run(doc)
        ext_doc = {
            "task": "validate",
            "algebra": report["results"]["extension"]["algebra"],
        }
        reparsed = parse_document(json.dumps(ext_doc))
        expected = lx.heisenberg3_algebra().structure_constants
        assert np.array_equal(reparsed.algebra.structure_constants, expected)

    def test_serialize_algebra_round_trip(self, sl2):
        doc = {"task": "validate", "algebra": serialize_algebra(sl2)}
        back = parse_document(json.dumps(doc)).algebra
        assert np.array_equal(back.structure_constants, sl2.structure_constants)


class TestFixtures:
    @pytest.mark.parametrize(
        "entry", json.loads((FIXTURES / "index.json").read_text()), ids=lambda e: e["file"]
    )
    def test_fixture_exit_codes(self, entry):
        proc = run_cli([str(FIXTURES / entry["file"])])
        assert proc.returncode == entry["expected_exit"], proc.stderr or proc.stdout

    def test_fixture_listing(self):
        proc = run_cli(["--fixtures"])
        assert proc.returncode == 0
        assert "torus_integrable.json" in proc.stdout


class TestCliBehavior:
    def test_stdin_input(self):
        proc = run_cli(["-", "--output", "machine"], stdin_text=load_fixture("heis3_validate.json"))
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["results"]["valid"] is True

    def test_machine_reports_deterministic_apart_from_timing(self):
        args = [str(FIXTURES / "torus_integrable.json"), "--output", "machine"]
        r1, r2 = (json.loads(run_cli(args).stdout) for _ in range(2))
        r1.pop("timing_seconds"), r2.pop("timing_seconds")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_task_override_flag(self):
        proc = run_cli(
            [str(FIXTURES / "sl2_cohomology.json"), "--task", "validate", "--output", "machine"]
        )
        report = json.loads(proc.stdout)
        assert report["task"] == "validate"
        assert report["results"]["valid"] is True

    def test_quad_order_flag_changes_report(self):
        args = [str(FIXTURES / "torus_integrable.json"), "--output", "machine"]
        full = json.loads(run_cli(args).stdout)
        coarse = json.loads(run_cli(args + ["--quad-order", "4"]).stdout)
        assert full["results"]["quad_order"] == 16
        assert coarse["results"]["quad_order"] == 4

    def test_error_estimate_covers_difference_floor(self):
        # the period is 1.3e-9 from 1, below the ~3e-9 central-difference floor
        raw = _edited("torus_integrable.json", _set("options", "tol", value=1e-10))
        report, code = run(parse_document(raw))
        assert code == 0
        assert report["results"]["overall"] == "integrable"

    def test_task_override_on_non_object_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text("[1]")
        assert main([str(path), "--task", "validate"]) == 2
        assert capsys.readouterr().err.startswith("input error: ")

    def test_import_leaves_scipy_unloaded(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, lieext.cli; print('scipy' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert proc.stdout.strip() == "False", proc.stderr

    def test_missing_file_is_input_error(self):
        proc = run_cli(["/nonexistent/problem.json"])
        assert proc.returncode == 2

    def test_invalid_json_is_input_error(self):
        proc = run_cli(["-"], stdin_text="{broken")
        assert proc.returncode == 2

    def test_gamma_report_values(self):
        proc = run_cli([str(FIXTURES / "torus_gamma.json"), "--output", "machine"])
        report = json.loads(proc.stdout)
        assert report["results"]["value"][0] == pytest.approx(0.5, abs=1e-8)

    def test_d2_report_matches_analytic(self):
        proc = run_cli([str(FIXTURES / "r2_d2.json"), "--output", "machine"])
        report = json.loads(proc.stdout)
        comps = {tuple(c["indices"]): c["value"] for c in report["results"]["derived_cochain"]}
        assert comps[(0, 1)][0] == pytest.approx(1.0, abs=1e-8)

    def test_cohomology_report_betti(self):
        proc = run_cli([str(FIXTURES / "sl2_cohomology.json"), "--output", "machine"])
        report = json.loads(proc.stdout)
        betti = {sl["degree"]: sl["betti"] for sl in report["results"]["slices"]}
        assert betti[1] == 0 and betti[2] == 0

    def test_equivalence_report(self):
        proc = run_cli([str(FIXTURES / "equivalence_r2.json"), "--output", "machine"])
        report = json.loads(proc.stdout)
        assert report["results"]["equivalent"] is False
        assert report["results"]["residual"] == pytest.approx(1.0)

    def test_pi1_report(self):
        proc = run_cli([str(FIXTURES / "pi1_torus.json"), "--output", "machine"])
        report = json.loads(proc.stdout)
        com = np.array(report["results"]["commutators"])
        assert com[0, 1, 0] == pytest.approx(1.0, abs=1e-7)
        assert report["results"]["commutator_in_lattice"][0][1] == "member"

    def test_main_entry_point_in_process(self, capsys):
        code = main([str(FIXTURES / "heis3_validate.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "valid" in out

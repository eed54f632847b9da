import json
import subprocess
import sys
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
    "options_not_object": ("heis3_validate.json", _set("options", value="x")),
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

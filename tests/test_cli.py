import contextlib
import hashlib
import inspect
import io
import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import lieext as lx
from lieext.cli import _LABELS, main, run
from lieext.documents import parse_document, serialize_algebra
from lieext.errors import DocumentError, UnresolvedReferenceError

from conftest import change_of_basis

FIXTURES = resources.files("lieext") / "fixtures"
# the environment of a subprocess, which imports the lieext imported here
# whether or not it is installed
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(lx.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


def run_cli(args, stdin_text=None):
    proc = subprocess.run(
        [sys.executable, "-m", "lieext.cli", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
    )
    return proc


def load_fixture(name):
    return (FIXTURES / name).read_text()


def machine_report(args, capsys):
    """main run in this process with machine output: the report it prints."""
    main([*args, "--output", "machine"])
    return json.loads(capsys.readouterr().out)


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
        # any algebra section beside a group is refused, of any dimension
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


def _each(*edits):
    def edit(raw):
        for one in edits:
            one(raw)
    return edit


DOUBLING = {"coeff_dim": 1, "group_action": {"exprs": ["2*a1"]}}
TWO_PI = 2.0 * np.pi
# R^2 rotated by the first coordinate of T^2: a group action with derivative
# rho, but no rotation fixes Z^2, so R^2 / Z^2 is no module of the group
ROTATION = _each(
    _set("module", value={
        "coeff_dim": 2,
        "rho": [[[0.0, -TWO_PI], [TWO_PI, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "group_action": {"exprs": ["cos(2*pi*g1)*a1 - sin(2*pi*g1)*a2",
                                   "sin(2*pi*g1)*a1 + cos(2*pi*g1)*a2"]},
    }),
    _set("cocycle", "components", value=[{"indices": [0, 1], "value": [1.0, 0.0]}]),
    _set("lattice", value={"generators": [[1.0, 0.0], [0.0, 1.0]]}),
)

# coefficients and windings are read as exact doubles, |n| <= 2**53
BEYOND_2_53 = {"1e400": 10**400, "minus_1e400": -10**400, "2_70": 2**70}

MALFORMED = {
    "torus_dim_string": ("torus_integrable.json", _set("group", "dim", value="x")),
    "torus_dim_negative": ("torus_integrable.json", _set("group", "dim", value=-1)),
    "torus_dim_zero": ("torus_integrable.json", _set("group", "dim", value=0)),
    "translation_dim_string": ("r2_d2.json", _set("group", "dim", value="x")),
    "unknown_group_kind": ("torus_integrable.json", _set("group", "kind", value="sphere")),
    "patch_divide_by_zero": (
        "torus_integrable.json",
        _set("cycles", 0, "patches", 0, "coords", 0, value="t/0"),
    ),
    "quad_order_string": ("torus_integrable.json", _set("options", "quad_order", value="x")),
    "quad_order_zero": ("torus_integrable.json", _set("options", "quad_order", value=0)),
    "quad_order_on_cohomology": ("sl2_cohomology.json", _set("options", "quad_order", value="x")),
    "degrees_string": ("sl2_cohomology.json", _set("options", "degrees", value=["x"])),
    "degrees_not_list": ("sl2_cohomology.json", _set("options", "degrees", value=2)),
    "degree_string": ("sl2_cohomology.json", _set("options", value={"degrees": "x"})),
    "tol_string": ("heis3_validate.json", _set("options", "tol", value="x")),
    "tol_alg_list": ("extend_heis3.json", _set("options", "tol", value=[1e-9])),
    "tol_lat_string": ("torus_integrable.json", _set("options", "tol", value="x")),
    "equiv_tol_null": ("equivalence_r2.json", _set("options", "tol", value=None)),
    "fd_step_string": ("r2_d2.json", _set("options", "fd_step", value="x")),
    "fd_step_zero": ("r2_d2.json", _set("options", "fd_step", value=0)),
    "fd_step_underflow": ("r2_d2.json", _set("options", "fd_step", value=1e-300)),
    "tol_negative": ("torus_integrable.json", _set("options", "tol", value=-1)),
    "tol_infinite": ("torus_not_integrable.json", _set("options", "tol", value=float("inf"))),
    "tol_nan": ("torus_integrable.json", _set("options", "tol", value=float("nan"))),
    "tol_alg_negative": ("extend_heis3.json", _set("options", "tol", value=-1e-9)),
    "tol_lat_zero": ("torus_integrable.json", _set("options", "tol", value=0)),
    "equiv_tol_infinite": ("equivalence_r2.json", _set("options", "tol", value=float("inf"))),
    "options_not_object": ("heis3_validate.json", _set("options", value="x")),
    "quad_order_fraction": ("torus_integrable.json", _set("options", "quad_order", value=2.7)),
    "quad_order_bool": ("torus_integrable.json", _set("options", "quad_order", value=True)),
    "degree_fraction": ("sl2_cohomology.json", _set("options", value={"degrees": [2.5]})),
    "degrees_bool": ("sl2_cohomology.json", _set("options", "degrees", value=[True])),
    "degrees_empty": ("sl2_cohomology.json", _set("options", "degrees", value=[])),
    "degrees_twice": ("sl2_cohomology.json", _set("options", "degrees", value=[2, 2])),
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
    # repeated entries that fail are named at the first occurrence in
    # row-major order, whichever of their texts sorts first
    "matrix_repeated_entry_divide_by_zero": (
        "su2_sphere_period.json",
        _each(*(_set("cycles", 0, "patches", 0, "matrix", i, i, value=text)
                for i, text in enumerate(["t/0", "s/0", "t/0", "s/0"]))),
    ),
    "matrix_repeated_unknown_variable": (
        "su2_sphere_period.json",
        _each(*(_set("cycles", 0, "patches", 0, "matrix", i, i, value=text)
                for i, text in [(1, "q*t"), (2, "p"), (3, "q*t")])),
    ),
    # a text read in an earlier section is checked against the variables of each
    "repeated_text_unknown_in_a_later_section": (
        "r2_d2.json",
        _each(_set("cycles", value=[{"name": "c", "patches": [{"coords": ["t", "s"]}]}]),
              _set("cochain_expr", value=["s"])),
    ),
    "lattice_generators_nan": (
        "torus_integrable.json",
        _set("lattice", "generators", value=[[float("nan")]]),
    ),
    "cocycle_degree_string": ("torus_integrable.json", _set("cocycle", "degree", value="x")),
    # a cocycle of another degree is refused before its index table is built
    "cocycle_degree_8": (
        "heis3_validate.json",
        _each(_set("algebra", value={"dim": 24}),
              _set("cocycle", value={"degree": 8, "components": []})),
    ),
    "cycles_not_list": ("torus_integrable.json", _set("cycles", value=3)),
    # no generators is no answer: T^2 has H_2 = Z
    "cycles_empty": ("torus_integrable.json", _set("cycles", value=[])),
    # a generator whose patches all have coefficient 0 is the zero chain
    "cycle_zero_chain": (
        "torus_not_integrable.json", _set("cycles", 0, "patches", 0, "coefficient", value=0)
    ),
    # a winding is a straight loop in a torus's angle coordinates
    "winding_on_heisenberg": (
        "pi1_torus.json",
        _each(_set("group", value={"kind": "heisenberg"}),
              _set("loops", value=[{"name": "l0", "winding": [1, 0, 0]}])),
    ),
    # the torus is the built-in one: not R^2, whose chart is additive too, nor a
    # matrix group with its name and basis
    "winding_on_translation": (
        "pi1_torus.json",
        _each(_set("group", value={"kind": "translation", "dim": 2}),
              _set("loops", value=[{"name": "l0", "winding": [1, 0]}])),
    ),
    "winding_on_matrix_group_named_torus": (
        "pi1_torus.json",
        _each(_set("group", value={"kind": "matrix", "name": "T^1", "algebra": {"dim": 1},
                                   "basis": [[[0.0, -TWO_PI], [TWO_PI, 0.0]]]}),
              _set("cocycle", "components", value=[]),
              _set("loops", value=[{"name": "l0", "winding": [1]}])),
    ),
    "cocycle_value_for_coeff_dim_0": ("extend_heis3.json", _set("module", "coeff_dim", value=0)),
    **{
        f"coefficient_{name}": (
            "torus_integrable.json", _set("cycles", 0, "patches", 0, "coefficient", value=value)
        )
        for name, value in BEYOND_2_53.items()
    },
    "winding_1e400": ("pi1_torus.json", _set("loops", 0, "winding", value=[10**400, 0])),
    "pair_entry_not_string": ("torus_gamma.json", _set("pair", 0, value=["p1"])),
    # the option aliases are gone: a task reads one tolerance, 'tol'
    "tol_alg_alias": ("extend_heis3.json", _set("options", value={"tol_alg": 1e-9})),
    "tol_lat_alias": ("torus_integrable.json", _set("options", value={"tol_lat": 1e-6})),
    "equiv_tol_alias": ("equivalence_r2.json", _set("options", value={"equiv_tol": 1e-9})),
    "degree_alias": ("sl2_cohomology.json", _set("options", value={"degree": 1})),
    "degree_and_degrees": (
        "sl2_cohomology.json", _set("options", value={"degree": 1, "degrees": [3]})
    ),
    "quad_order_misspelt": ("torus_integrable.json", _set("options", value={"quad_ordr": 4})),
    "quad_order_numeric_string": (
        "torus_integrable.json", _set("options", "quad_order", value="8")
    ),
    "quad_order_too_large": (
        "torus_integrable.json", _set("options", "quad_order", value=10_000_000)
    ),
    "tol_numeric_string": ("torus_integrable.json", _set("options", "tol", value="1e-3")),
    # a number is a JSON number: never a boolean or a string
    "winding_bools": ("pi1_torus.json", _set("loops", 0, "winding", value=[True, False])),
    "cocycle_indices_bools": (
        "torus_integrable.json", _set("cocycle", "components", 0, "indices", value=[False, True])
    ),
    "patch_coefficient_bool": (
        "torus_integrable.json", _set("cycles", 0, "patches", 0, "coefficient", value=True)
    ),
    "sparse_index_bool": (
        "heis3_validate.json", _set("algebra", "structure_constants", value=[[False, 1, 2, 1.0]])
    ),
    "sparse_value_string": (
        "heis3_validate.json", _set("algebra", "structure_constants", value=[[0, 1, 2, "1.0"]])
    ),
    "lattice_generators_string": (
        "torus_integrable.json", _set("lattice", "generators", value=[["1"]])
    ),
    "lattice_more_generators_than_dimensions": (
        "torus_integrable.json", _set("lattice", "generators", value=[[1.0], [2.0]])
    ),
    "labels_count": ("heis3_validate.json", _set("algebra", "labels", value=["x", "y"])),
    "rho_string": (
        "sl2_cohomology.json", _set("module", "rho", value=[[["1"]], [[0.0]], [[0.0]]])
    ),
    # the form twists by the group action; a rho without one would be dropped
    "rho_without_group_action_gamma": (
        "torus_gamma.json", _set("module", value={"coeff_dim": 1, "rho": [[[1.0]], [[0.0]]]})
    ),
    "rho_without_group_action_integrability": (
        "torus_integrable.json",
        _set("module", value={"coeff_dim": 1, "rho": [[[0.0]], [[1.0]]]}),
    ),
    "rho_with_trivial_group_action_pi1": (
        "pi1_torus.json",
        _set("module", value={"coeff_dim": 1, "rho": [[[1.0]], [[0.0]]],
                              "group_action": "trivial"}),
    ),
    # every expression's variables are checked when the document is parsed,
    # also where the task never evaluates it
    "unknown_variable_unpaired_path": (
        "torus_gamma.json", _set("paths", "extra", value={"coords": ["t + q", "0"]})
    ),
    "unknown_variable_zero_coefficient_patch": (
        "torus_integrable.json",
        _set("cycles", 0, "patches", value=[
            {"coords": ["t", "s"]}, {"coords": ["t", "s + q"], "coefficient": 0}]),
    ),
    "unknown_variable_group_action_on_cohomology": (
        "torus_integrable.json",
        _each(_set("task", value="cohomology"),
              _set("module", value={"coeff_dim": 1, "group_action": {"exprs": ["a1 + q"]}})),
    ),
    "unknown_variable_matrix_entry": (
        "su2_sphere_period.json", _set("cycles", 0, "patches", 0, "matrix", 1, 1, value="q")
    ),
    "unknown_variable_cochain_expr": ("r2_d2.json", _set("cochain_expr", value=["x1 * s"])),
    # a d2 expression that cannot be evaluated is an input error like any other
    "cochain_expr_divide_by_zero": ("r2_d2.json", _set("cochain_expr", value=["x1/y2"])),
    # a simplex patch is evaluated on both sides of the diagonal
    "simplex_patch_undefined_off_the_triangle": (
        "torus_integrable.json",
        _set("cycles", 0, "patches", value=[
            {"domain": "simplex", "coords": ["t", "s + exp(1000*(s-t)) - exp(1000*(s-t))"]},
            {"domain": "simplex", "coords": ["s", "t"], "coefficient": -1}]),
    ),
    "sparse_and_dense_structure_constants": (
        "sl2_cohomology.json",
        _set("algebra", "structure_constants_dense", value=np.zeros((3, 3, 3)).tolist()),
    ),
    # sizes are bounded before anything of that size is built
    "algebra_dim_too_large": ("heis3_validate.json", _set("algebra", value={"dim": 1_000_000})),
    "torus_dim_too_large": ("torus_integrable.json", _set("group", "dim", value=10**12)),
    "translation_dim_too_large": ("r2_d2.json", _set("group", "dim", value=10**6)),
    "coeff_dim_too_large": ("extend_heis3.json", _set("module", "coeff_dim", value=10**6)),
    "cohomology_degree_too_large": (
        "sl2_cohomology.json",
        _each(_set("algebra", value={"dim": 24}), _set("module", "coeff_dim", value=24),
              _set("options", "degrees", value=[12])),
    ),
    "extension_too_large": (
        "extend_heis3.json",
        _each(_set("algebra", value={"dim": 24}), _set("module", "coeff_dim", value=24),
              _set("cocycle", "components", value=[])),
    ),
    # an entry or a name stated twice is refused, not overwritten
    "sparse_entry_twice": (
        "heis3_validate.json",
        _set("algebra", "structure_constants", value=[[0, 1, 2, 1.0], [0, 1, 2, -1.0]]),
    ),
    "cocycle_indices_twice": (
        "extend_heis3.json",
        _set("cocycle", "components", value=[
            {"indices": [0, 1], "value": [1.0]}, {"indices": [0, 1], "value": [3.0]}]),
    ),
    "cocycle2_indices_twice": (
        "equivalence_r2.json",
        _set("cocycle2", "components", value=[
            {"indices": [0, 1], "value": [1.0]}, {"indices": [0, 1], "value": [1.0]}]),
    ),
    "cycle_name_twice": (
        "torus_integrable.json",
        _set("cycles", value=[
            {"name": "fundamental", "patches": [{"coords": ["t", "s"]}]},
            {"name": "fundamental", "patches": [{"coords": ["s", "t"]}]}]),
    ),
    "loop_name_twice": (
        "pi1_torus.json",
        _set("loops", value=[{"name": "m", "winding": [1, 0]}, {"name": "m", "winding": [0, 1]}]),
    ),
    # a group action must fix every vector at the identity: 2*a1 has the
    # derivative rho = 0 but doubles each value of the form
    "group_action_doubles_gamma": ("torus_gamma.json", _set("module", value=DOUBLING)),
    "group_action_doubles_pi1": ("pi1_torus.json", _set("module", value=DOUBLING)),
    "group_action_doubles_integrability": ("torus_integrable.json", _set("module", value=DOUBLING)),
    "lattice_rotated_gamma": ("torus_gamma.json", ROTATION),
    "lattice_rotated_pi1": ("pi1_torus.json", ROTATION),
    "lattice_rotated_integrability": ("torus_integrable.json", ROTATION),
    # the Heisenberg group in 3 x 3 matrices, valid but for its name, in
    # place of the algebra section
    "matrix_group_name_list": ("heis3_validate.json", _each(lambda raw: raw.pop("algebra"), _set(
        "group", value={
            "kind": "matrix", "name": [1, 2],
            "algebra": {"dim": 3, "structure_constants": [[0, 1, 2, 1.0]]},
            "basis": [[[0, 1, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
                      [[0, 0, 1], [0, 0, 0], [0, 0, 0]]]}))),
}

# The entry an error names, where it matters which one it is.
MALFORMED_MESSAGES = {
    "matrix_group_name_list": "group.name must be a string, got [1, 2]",
    "unknown_group_kind": (
        "unknown group kind 'sphere' (expected torus, translation, su2, sl2, heisenberg, or matrix)\n"
    ),
    "unknown_variable_unpaired_path": (
        "paths['extra'].coords[0]: unknown variable 'q'; the variables here are t"
    ),
    "unknown_variable_zero_coefficient_patch": (
        "cycles['fundamental'].patches[1].coords[1]: unknown variable 'q'; "
        "the variables here are t, s"
    ),
    "unknown_variable_group_action_on_cohomology": (
        "module.group_action.exprs[0]: unknown variable 'q'; the variables here are g1, g2, a1"
    ),
    "unknown_variable_matrix_entry": "patches[0].matrix[1][1]: unknown variable 'q'",
    "matrix_repeated_entry_divide_by_zero": (
        "cycles['equatorial-sphere'].patches[0].matrix[0][0]: cannot evaluate 't/0'"
    ),
    "matrix_repeated_unknown_variable": (
        "cycles['equatorial-sphere'].patches[0].matrix[1][1]: unknown variable 'q'"
    ),
    "repeated_text_unknown_in_a_later_section": (
        "cochain_expr[0]: unknown variable 's'; the variables here are x1, x2, y1, y2"
    ),
    "unknown_variable_cochain_expr": (
        "cochain_expr[0]: unknown variable 's'; the variables here are x1, x2, y1, y2"
    ),
    "patch_divide_by_zero": "cycles['fundamental'].patches[0].coords[0]: cannot evaluate 't/0'",
    "cochain_expr_divide_by_zero": "cochain_expr[0]: cannot evaluate 'x1/y2'",
    "cocycle_degree_8": (
        "cocycle: degree (tasks read 2-cocycles only) must be an integer equal to 2"
    ),
    "simplex_patch_undefined_off_the_triangle": (
        "a simplex patch is integrated on the whole unit square, on both sides of the "
        "diagonal, and must be defined there: cycles['fundamental'].patches[0].coords[1]: "
        "cannot evaluate"
    ),
    "cohomology_degree_too_large": "entries, more than",
    "sparse_and_dense_structure_constants": (
        "algebra: give either structure_constants or structure_constants_dense, not both"
    ),
    "extension_too_large": "d_2 would hold",
    "sparse_entry_twice": "algebra: sparse entry (0, 1, 2) given twice",
    "cocycle_indices_twice": "cocycle: indices [0, 1] given twice",
    "cocycle2_indices_twice": "cocycle2: indices [0, 1] given twice",
    "cycle_name_twice": "cycles: name 'fundamental' given twice",
    "loop_name_twice": "loops: name 'm' given twice",
    "cycles_empty": "task 'check-integrability' requires a 'cycles' section",
    "cycle_zero_chain": "cycles['fundamental'] has no patch with a non-zero coefficient",
    "winding_on_heisenberg": "loops['l0']: winding needs a torus group, not Heisenberg(3)",
    "winding_on_matrix_group_named_torus": "loops['l0']: winding needs a torus group, not T^1\n",
    "winding_on_translation": "loops['l0']: winding needs a torus group, not R^2\n",
    "lattice_more_generators_than_dimensions": (
        "input error: lattice: 2 generators in R^1 cannot be independent\n"
    ),
    "labels_count": "input error: algebra: 2 labels for dimension 3\n",
    "cocycle_value_for_coeff_dim_0": "cocycle: value for (0, 1): got shape (1,), expected (0,)",
    **{
        f"coefficient_{name}": "cycles['fundamental'].patches[0]: coefficient must be an "
        f"integer in [-9007199254740992, 9007199254740992], got {value}\n"
        for name, value in BEYOND_2_53.items()
    },
    "winding_1e400": "loops['m']: winding must be an integer in "
    f"[-9007199254740992, 9007199254740992], got {10**400}\n",
    "degrees_empty": "option 'degrees' must list distinct degrees, at least one, got []",
    "degrees_twice": "option 'degrees' must list distinct degrees, at least one, got [2, 2]",
    **{
        f"group_action_doubles_{task}": "module.group_action is not a group action with "
        "derivative module.rho: action_identity at (0,): residual 1.000e+00"
        for task in ("gamma", "pi1", "integrability")
    },
    **{
        f"lattice_rotated_{task}": "lattice generator 0 is not fixed by the group: "
        "|module.rho[0] gamma_0| / |gamma_0| = 1.571e+00 in units of max|module.rho[0]|"
        for task in ("gamma", "pi1", "integrability")
    },
}


def test_validate_lists_a_lattice_the_group_moves():
    raw = _edited("torus_integrable.json", _each(ROTATION, _set("task", value="validate")))
    report, code = run(parse_document(raw))
    assert code == 0 and report["results"]["valid"] is False
    assert [(v["identity"], v["indices"]) for v in report["results"]["violations"]] == [
        ("lattice_fixed", [0, 0]), ("lattice_fixed", [0, 1])
    ]


def _shear(eps):
    """R^2 moved by eps E_01 along the first coordinate of T^2, with the lattice Z (0, 1): the
    shear moves (0, 1) by eps, so R^2 / Z (0, 1) is no module of the group at any eps != 0."""
    return _each(
        _set("module", value={
            "coeff_dim": 2,
            "rho": [[[0.0, eps], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            "group_action": {"exprs": [f"a1 + {eps!r}*g1*a2", "a2"]},
        }),
        _set("cocycle", "components", value=[{"indices": [0, 1], "value": [1.0, 0.0]}]),
        _set("lattice", value={"generators": [[0.0, 1.0]]}),
    )


@pytest.mark.parametrize("eps", [1e-10, 1e-12])
def test_validate_reads_a_lattice_moved_at_any_scale_of_rho(eps):
    raw = _edited("torus_integrable.json", _each(_shear(eps), _set("task", value="validate")))
    report, code = run(parse_document(raw))
    violations = report["results"]["violations"]
    assert code == 0 and [(v["identity"], v["indices"]) for v in violations] == [("lattice_fixed", [0, 0])]
    assert 1.0 <= violations[0]["residual"] < 2.0  # eps in units of its own power of two


@pytest.mark.parametrize("eps", [1e-10, 1e-12])
def test_check_integrability_refuses_a_lattice_moved_at_any_scale_of_rho(eps, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_edited("torus_integrable.json", _shear(eps))))
    assert main([str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and re.fullmatch(
        r"input error: lattice generator 0 is not fixed by the group: \|module\.rho\[0\] gamma_0\| "
        r"/ \|gamma_0\| = 1\.\d{3}e\+00 in units of max\|module\.rho\[0\]\|\n", captured.err)


def test_validate_accepts_a_fast_rotation_about_a_lattice_vector(tmp_path, capsys):
    # rho = 2 pi 10^8 J (+) 0 in a random orthonormal frame q fixes gamma = q_3 up to the rounding
    # of rho, about 1e-16 in units of max|rho_0|
    q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))
    rho = 2.0 * np.pi * 1e8 * q @ np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]) @ q.T
    doc = {"task": "validate", "algebra": {"dim": 1}, "module": {"coeff_dim": 3, "rho": [rho.tolist()]},
           "lattice": {"generators": [q[:, 2].tolist()]}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([str(path), "--output", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["results"] == {"valid": True, "violations": []}


def test_validate_reads_a_small_rho_i_beside_a_large_one(tmp_path, capsys):
    # rho_0 = 2 pi 10^8 E_00 fixes gamma = e_2 and rho_1 = 1e-3 E_12 moves it by 1e-3: each rho_i
    # is read in its own units, so rho_0's size cannot hide rho_1's move
    rho = np.zeros((2, 3, 3))
    rho[0, 0, 0], rho[1, 1, 2] = 2.0 * np.pi * 1e8, 1e-3
    doc = {"task": "validate", "algebra": {"dim": 2}, "module": {"coeff_dim": 3, "rho": rho.tolist()},
           "lattice": {"generators": [[0.0, 0.0, 1.0]]}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([str(path), "--output", "machine"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["valid"] is False
    assert [(v["identity"], v["indices"], v["residual"]) for v in results["violations"]] == [
        ("lattice_fixed", [1, 0], 1e-3 * 2**10)
    ]


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_exits_2(case, tmp_path, capsys):
    fixture, edit = MALFORMED[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_edited(fixture, edit)))
    code = main([str(path)])  # an escaping exception fails the test
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("input error: ")
    assert MALFORMED_MESSAGES.get(case, "") in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("degrees, quoted", [
    ("x" * 2**20, "option 'degrees' must be a list, got 'xxx"),
    (json.loads("[" * 900 + "0" + "]" * 900), "option 'degrees' must be an integer >= 0, got [[[["),
], ids=["1MB_string", "900_deep_list"])
def test_a_quoted_value_is_cut_short(degrees, quoted, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_edited("sl2_cohomology.json", _set("options", "degrees", value=degrees))))
    assert main([str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: " + quoted) and captured.err.endswith("…\n")
    assert len(captured.err.encode()) < 1024 and captured.out == ""


MEGABYTE = "x" * 2**20


@pytest.mark.parametrize("fixture, edit, code, quoted", [
    ("pi1_torus.json", _each(
        _set("group", value={"kind": "matrix", "name": MEGABYTE, "algebra": {"dim": 1},
                             "basis": [[[0.0, -TWO_PI], [TWO_PI, 0.0]]]}),
        _set("cocycle", "components", value=[]),
        _set("loops", value=[{"name": "l0", "winding": [1]}])), 2, "needs a torus group, not xxx"),
    ("pi1_torus.json", _set("loops", value=[{"name": MEGABYTE, "coords": ["0.5*t", "0"]}]), 3,
     "loop 'xxx"),
    ("torus_integrable.json", _set("cycles", value=[
        {"name": MEGABYTE, "patches": [{"coords": ["t", "0.5*s"]}]}]), 3, "'xxx"),
    ("torus_gamma.json", _set("paths", "p1", "coords", 0, value=MEGABYTE), 2, "unknown variable 'xxx"),
    ("extend_heis3.json", _set("cocycle", "components", value=[
        {"indices": [0, 2 + k], "value": [1.0]} for k in range(60_000)]), 2, "component indices [(0, 2)"),
    ("extend_heis3.json", _set("cocycle", "components", 0, "indices", value=list(range(200_000))), 2,
     "indices (0, 1, 2"),
    ("torus_integrable.json", _set("cycles", 0, "patches", 0, "domain", value=MEGABYTE), 2,
     "unknown patch domain 'xxx"),
], ids=["matrix_group_name", "loop_name", "cycle_name", "unknown_variable", "cocycle_indices",
        "one_component_indices", "patch_domain"])
def test_a_long_name_or_text_is_cut_short(fixture, edit, code, quoted, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_edited(fixture, edit)))
    assert main([str(path)]) == code
    captured = capsys.readouterr()
    assert quoted in captured.err and "…" in captured.err
    assert len(captured.err.encode()) < 1024


@pytest.mark.parametrize(
    "options, code, overall",
    [({"tol": 1e-6}, 0, "integrable"), ({"tol_lat": 1e-6}, 2, None), ("x", 2, None)],
    ids=["tol", "tol_lat", "options_not_object"],
)
def test_tol_flag_overrides_the_document(options, code, overall, tmp_path, capsys):
    # the period 1.000005 is indeterminate at tol 1e-6 and a member at 1e-3
    path = tmp_path / "doc.json"
    raw = _edited("torus_indeterminate.json", _set("options", value=options))
    path.write_text(json.dumps(raw))
    assert main([str(path), "--tol", "1e-3", "--output", "machine"]) == code
    captured = capsys.readouterr()
    if overall is None:
        assert captured.err.startswith("input error: ") and captured.out == ""
    else:
        assert json.loads(captured.out)["results"]["overall"] == overall


WAVY = {
    "task": "check-integrability",
    "group": {"kind": "torus", "dim": 2},
    "cocycle": {"degree": 2, "components": [{"indices": [0, 1], "value": [0.5]}]},
    "lattice": {"generators": [[1.0]]},
    "cycles": [{"name": "wavy", "patches": [
        {"coords": ["t + 0.2*sin(2*pi*s)", "s + 0.2*sin(2*pi*t)"]}]}],
}


def test_indeterminate_warning_names_its_cause(tmp_path, capsys):
    # the wavy square's period at order 2 is 0.454 with estimate 0.744: the
    # estimate, not the ambiguity band [tol, 10 tol), makes it indeterminate
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(WAVY))
    assert main([str(path), "--quad-order", "2"]) == 4
    out = capsys.readouterr().out
    assert "verdict: indeterminate" in out
    assert "ambiguity band" not in out
    assert (
        "warning: generator 'wavy': quadrature error estimate 7.44e-01 reaches half "
        "the shortest lattice vector (5.00e-01), so the lattice test cannot decide; "
        "try a higher quad_order\n"
    ) in out
    # a period in the band keeps the band warning
    assert main([str(FIXTURES / "torus_indeterminate.json")]) == 4
    out = capsys.readouterr().out
    assert "warning: some period sits in the ambiguity band of the lattice test\n" in out
    assert "half the shortest lattice vector" not in out


def test_an_estimate_above_tol_warns_that_it_inflated_the_tolerance(tmp_path, capsys):
    # the wavy square's period at order 4 is 0.4999991 with estimate 4.57e-02,
    # above tol 1e-6 and below half the spacing: not_member, and a note
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(WAVY))
    report = machine_report([str(path), "--quad-order", "4"], capsys)
    assert report["results"]["overall"] == "not_integrable"
    assert report["warnings"] == [
        "generator 'wavy': quadrature error estimate 4.57e-02 inflated the tolerance"]
    assert "warnings" not in report["results"]


@pytest.mark.parametrize("fixture, tol", [("torus_not_integrable.json", 0.6),
                                          ("torus_integrable.json", 0.5)])
def test_a_tolerance_at_half_the_spacing_is_indeterminate(fixture, tol, capsys):
    # the period 0.4999999999980 (or 1 - 4e-12) lies within tol of both 0 and 1
    assert main([str(FIXTURES / fixture), "--tol", str(tol), "--output", "machine"]) == 4
    report = json.loads(capsys.readouterr().out)
    (gen,) = report["results"]["generators"]
    assert report["results"]["overall"] == gen["verdict"] == "indeterminate"
    assert report["warnings"] == [
        f"generator 'fundamental': tolerance {gen['tolerance_used']:.2e} reaches half the "
        "shortest lattice vector (5.00e-01), so the lattice test cannot decide; try a lower tol"]


def test_a_period_far_off_the_lattice_stays_not_member_at_half_the_spacing(tmp_path, capsys):
    # the period (0.5, 50) lies 50 from the nearest point of the lattice
    # Z x 100 Z, beyond the band of tol 0.6, though 0.6 exceeds half its spacing
    raw = _edited("torus_not_integrable.json", _each(
        _set("module", value={"coeff_dim": 2}), _set("lattice", "generators", value=[[1, 0], [0, 100]]),
        _set("cocycle", "components", value=[{"indices": [0, 1], "value": [0.5, 50]}])))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(raw))
    assert main([str(path), "--tol", "0.6", "--output", "machine"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["overall"] == "not_integrable"
    assert report["results"]["generators"][0]["verdict"] == "not_member"
    assert report["warnings"] == []


def test_a_period_half_a_step_off_a_small_lattice_is_indeterminate(tmp_path, capsys):
    # the period 5e-8 sits half way between 0 and 1e-7; the default tol 1e-6
    # is ten steps wide
    raw = _edited("torus_integrable.json", _set("lattice", "generators", value=[[1e-7]]))
    raw["cocycle"]["components"][0]["value"] = [0.5e-7]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(raw))
    assert main([str(path), "--output", "machine"]) == 4
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["overall"] == "indeterminate"
    assert report["warnings"] == [
        "generator 'fundamental': tolerance 1.00e-06 reaches half the shortest lattice "
        "vector (5.00e-08), so the lattice test cannot decide; try a lower tol"]


@pytest.mark.parametrize("shear", [0, 1000])
def test_a_sheared_lattice_basis_gives_the_same_verdict(shear, tmp_path, capsys):
    # (0.5, 0.3) is the first generator less `shear` times the second, whatever
    # the shear; generators with a ratio of singular values about 5e-7 (shear
    # 1000) are independent on their reduced basis
    raw = _edited("torus_integrable.json", _each(
        _set("module", value={"coeff_dim": 2}), _set("lattice", "generators", value=[[0.5, 0.3 + shear], [0, 1]]),
        _set("cocycle", "components", value=[{"indices": [0, 1], "value": [0.5, 0.3]}])))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(raw))
    assert machine_report([str(path)], capsys)["results"]["overall"] == "integrable"


def test_pi1_commutators_at_a_tolerance_of_half_the_spacing_are_indeterminate(capsys):
    report = machine_report([str(FIXTURES / "pi1_torus.json"), "--tol", "0.6"], capsys)
    assert report["results"]["commutator_in_lattice"] == [["indeterminate"] * 2] * 2
    report = machine_report([str(FIXTURES / "pi1_torus.json")], capsys)
    assert report["results"]["commutator_in_lattice"] == [["member"] * 2] * 2


def test_pi1_exits_4_and_explains_each_indeterminate_commutator(tmp_path, capsys):
    # at tol 0.6 every commutator, each loop's with itself included
    assert main([str(FIXTURES / "pi1_torus.json"), "--tol", "0.6", "--output", "machine"]) == 4
    report = json.loads(capsys.readouterr().out)
    assert "warnings" not in report["results"]
    assert report["warnings"] == [
        f"commutator of loops {a!r} and {b!r}: tolerance 6.00e-01 reaches half the shortest lattice "
        "vector (5.00e-01), so the lattice test cannot decide; try a lower tol" for a in "mn" for b in "mn"]
    # the commutator 1 lies 5e-6 from the lattice 1.000005 Z, in the band at the default tol
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_edited("pi1_torus.json", _set("lattice", "generators", value=[[1.000005]]))))
    assert main([str(path), "--output", "machine"]) == 4
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["commutator_in_lattice"] == [["member", "indeterminate"], ["indeterminate", "member"]]
    assert report["warnings"] == [f"commutator of loops {a!r} and {b!r} sits in the ambiguity band of the "
                                  "lattice test" for a, b in ("mn", "nm")]


def test_each_runner_takes_the_options_its_task_lists():
    # the CLI passes each runner the options its task reads: the document's
    # value, else the default in TASKS
    for name, task in lx.documents.TASKS.items():
        assert list(inspect.signature(task.run).parameters)[1:] == list(task.options), name


def test_rho_needs_the_group_action(tmp_path, capsys):
    # gamma of p = (t, 0), q = (0, t) under the action exp(g1) is 1.0; a
    # form that dropped the rho for want of an action would give 0.5
    raw = {
        "task": "gamma",
        "group": {"kind": "translation", "dim": 2},
        "module": {"coeff_dim": 1, "rho": [[[1]], [[0]]]},
        "cocycle": {"degree": 2, "components": [{"indices": [0, 1], "value": [1]}]},
        "paths": {"p": {"coords": ["t", "0"]}, "q": {"coords": ["0", "t"]}},
        "pair": ["p", "q"],
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(raw))
    assert main([str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "module.group_action" in captured.err
    raw["module"]["group_action"] = {"exprs": ["exp(g1)*a1"]}
    report, code = run(parse_document(raw))
    assert code == 0
    assert report["results"]["value"] == [pytest.approx(1.0, abs=1e-8)]


def test_validate_warns_of_rho_without_group_action():
    raw = {
        "task": "validate",
        "group": {"kind": "translation", "dim": 2},
        "module": {"coeff_dim": 1, "rho": [[[1]], [[0]]]},
    }
    report, code = run(parse_document(raw))
    assert code == 0 and report["results"]["valid"] is True
    assert report["warnings"] == [
        "module.rho is non-zero but module.group_action is missing: gamma, "
        "check-integrability and pi1 will refuse this document"
    ]
    # an algebra alone carries no form: rho is all the module it needs
    del raw["group"]
    raw["algebra"] = {"dim": 2}
    report, _ = run(parse_document(raw))
    assert report["warnings"] == []


def test_a_cocycle_into_coeff_dim_0_has_empty_values():
    raw = _edited("extend_heis3.json", _each(_set("module", "coeff_dim", value=0),
                                              _set("cocycle", "components", 0, "value", value=[])))
    report, code = run(parse_document(raw))
    assert code == 0 and report["results"]["extension"]["coeff_dim"] == 0


EMPTY_COEFFS = _each(_set("module", value={"coeff_dim": 0}),
                     _set("cocycle", "components", value=[]),
                     _set("lattice", "generators", value=[]))


@pytest.mark.parametrize("fixture, edit, expected", [
    ("torus_integrable.json", EMPTY_COEFFS, {"overall": "integrable", "generators": [
        {"generator": "fundamental", "period": [], "verdict": "member", "coefficients": [],
         "residual": 0.0, "error_estimate": 0.0, "tolerance_used": 1e-06}]}),
    ("pi1_torus.json", _each(EMPTY_COEFFS, _set("loops", value=[{"name": "m", "winding": [1, 0]}])),
     {"commutator_in_lattice": [["member"]]}),
], ids=["check-integrability", "pi1"])
def test_an_empty_lattice_over_coeff_dim_0_is_read(fixture, edit, expected):
    report, code = run(parse_document(_edited(fixture, edit)))
    assert code == 0 and {key: report["results"][key] for key in expected} == expected


def test_validate_reports_an_action_that_moves_the_identity():
    raw = _edited("torus_gamma.json", _set("module", value=DOUBLING))
    report, code = run(parse_document({**raw, "task": "validate"}))
    assert code == 0 and report["results"]["violations"] == [
        {"identity": "action_identity", "indices": [0], "residual": 1.0}
    ]


# the basis matrices of sl2, whose algebra section breaks Jacobi at (0, 1, 2)
# and the commutators of basis elements 0, 2 and 1, 2
BROKEN_SL2 = {"kind": "matrix", "basis": [[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, -1]]],
              "algebra": {"dim": 3, "structure_constants": [[0, 1, 2, 1.0], [0, 2, 0, 1.0],
                                                            [1, 2, 1, 1.0]]}}
GROUP_ISSUES = [{"identity": "jacobi", "indices": [0, 1, 2, 2], "residual": 2.0},
                {"identity": "basis_commutator", "indices": [0, 2], "residual": 3.0},
                {"identity": "basis_commutator", "indices": [1, 2], "residual": 1.0}]


# A group document's algebra is the group's; an algebra section beside the
# group is refused, whatever it holds.
TWO_ALGEBRAS = (2, "", "input error: give an algebra section or a group section, not both; "
                "a matrix group gives its algebra in group.algebra\n")


def cli_outcome(raw, tmp_path, capsys):
    """The exit code, stdout and stderr of the CLI on the document raw."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(raw))
    code = main([str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sl2_group_documents(tmp_path, capsys):
    # SL(2,R) validates as a document group; having no chart, it takes no coords
    code, out, err = cli_outcome({"task": "validate", "group": {"kind": "sl2"}}, tmp_path, capsys)
    assert (code, err) == (0, "") and "valid: true" in out
    raw = _edited("torus_integrable.json", _set("group", value={"kind": "sl2"}))
    raw["cycles"][0]["patches"][0]["coords"] = ["t", "s", "0"]
    assert cli_outcome(raw, tmp_path, capsys) == (
        2, "", "input error: cycles['fundamental'].patches[0]: coordinates need a group with a chart\n")


@pytest.mark.parametrize("algebra, expected", [
    # no algebra section: the document's algebra is the group's
    (None, GROUP_ISSUES),
    # an algebra section of its own, which breaks Jacobi elsewhere, is refused
    ({"dim": 3, "structure_constants": [[0, 1, 1, 1.0], [1, 2, 0, 1.0]]}, None),
], ids=["group-algebra", "own-algebra"])
def test_validate_lists_each_algebra_violation_once(algebra, expected, tmp_path, capsys):
    raw = {"task": "validate", "group": BROKEN_SL2}
    if algebra is not None:
        assert cli_outcome({**raw, "algebra": algebra}, tmp_path, capsys) == TWO_ALGEBRAS
        return
    report, code = run(parse_document(raw))
    assert code == 0 and report["results"]["violations"] == expected


@pytest.mark.parametrize("group", [{"kind": "heisenberg"}, {"kind": "torus", "dim": 24}],
                         ids=["heisenberg", "T24"])
def test_validate_checks_the_algebra_once(group, monkeypatch):
    calls, original = [], lx.validate_algebra

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("lieext") and getattr(module, "validate_algebra", None) is original:
            monkeypatch.setattr(module, "validate_algebra", counted)
    report, code = run(parse_document({"task": "validate", "group": group}))
    assert code == 0 and report["results"] == {"violations": [], "valid": True}
    assert len(calls) == 1


def test_validate_reports_an_algebra_section_that_is_not_the_groups(tmp_path, capsys):
    # an abelian section for the Heisenberg group, whose [e0, e1] is e2
    raw = {"task": "validate", "group": {"kind": "heisenberg"}, "algebra": {"dim": 3}}
    assert cli_outcome(raw, tmp_path, capsys) == TWO_ALGEBRAS


@pytest.mark.parametrize("section", [True, False], ids=["with-section", "without-section"])
def test_validate_checks_rho_on_the_groups_algebra(section, tmp_path, capsys):
    # rho = (0, 0, 1) on R^1 is a representation of abelian R^3, not of the
    # Heisenberg algebra: rho([e0, e1]) = rho(e2) = 1, [rho(e0), rho(e1)] = 0
    raw = {"task": "validate", "group": {"kind": "heisenberg"},
           "module": {"coeff_dim": 1, "rho": [[[0]], [[0]], [[1]]]}}
    if section:
        assert cli_outcome({**raw, "algebra": {"dim": 3}}, tmp_path, capsys) == TWO_ALGEBRAS
        return
    report, code = run(parse_document(raw))
    assert code == 0 and report["results"] == {"valid": False, "violations": [
        {"identity": "homomorphism", "indices": [0, 1], "residual": 1.0}]}


# entry [0][0] of p1 is cos(t), which leaves the torus: at t = 1 the
# first block's columns have norm 0.84 and 1
OFF_TORUS = {"matrix": [["cos(t)", "0", "0", "0"], ["0", "1", "0", "0"],
                        ["0", "0", "1", "0"], ["0", "0", "0", "1"]]}


def test_validate_reports_a_path_that_leaves_the_group():
    raw = _edited("torus_gamma.json", _set("paths", "p1", value=OFF_TORUS))
    report, code = run(parse_document({**raw, "task": "validate"}))
    assert code == 0 and report["results"]["valid"] is False
    [violation] = report["results"]["violations"]
    # the largest residual, |cos(t)^2 - 1|, is at the end neighbour t = 1 + h
    assert violation["identity"] == "path[p1].in_group"
    assert violation["residual"] == pytest.approx(np.sin(1.0 + 1e-5) ** 2, rel=1e-12)


def test_gamma_names_the_path_that_leaves_the_group(tmp_path, capsys):
    # named as pi1 names a loop: the first of its samples off T^2, t = 1/32
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_edited("torus_gamma.json", _set("paths", "p1", value=OFF_TORUS))))
    assert main([str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "computation rejected: paths['p1'] leaves the group at t = 0.03125: matrix is not in T^2 "
        "(residual 9.762e-04)\n"
    )


def test_gamma_warns_of_a_path_that_does_not_start_at_the_identity(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_edited("torus_gamma.json",
                                       _set("paths", "p1", value={"coords": ["t + 0.25", "0"]}))))
    assert main([str(path), "--output", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["warnings"] == ["path 'p1': based_at_identity"]


def test_gamma_checks_each_paths_samples_once(monkeypatch, capsys):
    shapes = []
    outside = lx.MatrixGroup.outside

    def counted(self, g):
        shapes.append(np.shape(g))
        return outside(self, g)

    monkeypatch.setattr(lx.MatrixGroup, "outside", counted)
    assert main([str(FIXTURES / "torus_gamma.json")]) == 0
    assert [shape for shape in shapes if shape[0] == len(lx.groups.PATH_SAMPLES)] == [(37, 4, 4)] * 2


def test_pi1_names_the_loop_that_leaves_the_group(tmp_path, capsys):
    # closed and based at the identity, but off T^2 in between (at t = 1/2
    # the first column has norm 1.1); the first of the 33 samples off it is t = 1/32
    bad = {"name": "bad", "matrix": [
        ["cos(2*pi*t) + 0.1*sin(pi*t)", "-sin(2*pi*t)", "0", "0"],
        ["sin(2*pi*t)", "cos(2*pi*t)", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]}
    raw = _edited("pi1_torus.json", lambda raw: raw["loops"].append(bad))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(raw))
    assert main([str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "computation rejected: loops['bad'] leaves the group at t = 0.03125: matrix is not in T^2 "
        "(residual 1.932e-02)\n"
    )


T2_HALF = {"group": {"kind": "torus", "dim": 2}, "lattice": {"generators": [[1.0]]},
           "cocycle": {"degree": 2, "components": [{"indices": [0, 1], "value": [0.5]}]}}


@pytest.mark.parametrize("section, message", [
    # two tiles of T^2 with a gap of 1e-6 turns between them: on T^2 that is
    # 2 pi 1e-6 in a rotation's entries
    ({"task": "check-integrability", "cycles": [{"name": "tiles", "patches": [
        {"domain": "square", "coords": ["0.5*t", "s"]},
        {"domain": "square", "coords": ["0.500001 + 0.499999*t", "s"]}]}]},
     r"'tiles' has 2 uncancelled boundary edge\(s\), the closest two 6\.283e-06 apart "
     r"\(tolerance 1\.000e-09\); it is not a 2-cycle"),
    # a square 1e-6 turns wide, whose edges are not constant
    ({"task": "check-integrability", "cycles": [{"name": "square", "patches": [
        {"domain": "square", "coords": ["0.000001*t", "0.000001*s"]}]}]},
     r"'square' has 4 uncancelled boundary edge\(s\), the closest two 6\.283e-06 apart "
     r"\(tolerance 1\.000e-09\); it is not a 2-cycle"),
    # a loop that ends 1e-6 turns past a turn
    ({"task": "pi1", "loops": [{"name": "l", "coords": ["t + 0.000001*t", "0"]}]},
     r"loop 'l' does not close at the identity: its ends are 6\.283e-06 apart and its start "
     r"0\.000e\+00 away \(tolerance 1\.000e-09\)"),
    # 10^7 turns: 2 pi 10^7 rounds by more than the tolerance
    ({"task": "pi1", "loops": [{"name": "w", "winding": [10000000, 0]}, {"name": "u", "winding": [0, 1]}]},
     r"loop 'w' does not close at the identity: its ends are \d\.\d{3}e-09 apart and its start "
     r"0\.000e\+00 away \(tolerance 1\.000e-09\)"),
], ids=["tiles-apart", "small-square", "loop-past-a-turn", "winding-1e7"])
def test_an_open_chain_or_loop_is_refused_with_its_gap(section, message, tmp_path, capsys):
    # the edges and the loop's ends miss by more than 1e-9 x max(1, |entry|)
    code, out, err = cli_outcome({**T2_HALF, **section}, tmp_path, capsys)
    assert (code, out) == (3, "") and re.fullmatch(f"computation rejected: {message}\n", err)


@pytest.mark.parametrize("raw, message", [
    # [e0, e1] = e1 and [e1, e2] = e0 break Jacobi
    ({"task": "cohomology", "algebra": {"dim": 3, "structure_constants": [[0, 1, 1, 1.0],
                                                                          [1, 2, 0, 1.0]]},
      "module": {"coeff_dim": 1}, "options": {"degrees": [0, 1, 2, 3]}},
     "d_2 d_1 is not zero (relative residual 1.000e+00 "),
    # rho(h), rho(e), rho(f) = 1, 1, 0 is no representation of sl2: [rho(h), rho(e)] != 2 rho(e)
    (_edited("sl2_cohomology.json", _set("module", "rho", value=[[[1]], [[1]], [[0]]])),
     "d_1 d_0 is not zero (relative residual 5.000e-01 "),
    # the same algebra as in jacobi: equivalence takes d_1 and d_2 from the same complex
    ({"task": "equivalence", "algebra": {"dim": 3, "structure_constants": [[0, 1, 1, 1.0],
                                                                           [1, 2, 0, 1.0]]},
      "module": {"coeff_dim": 1},
      "cocycle": {"components": [{"indices": [0, 1], "value": 1.0}]},
      "cocycle2": {"components": []}},
     "d_2 d_1 is not zero (relative residual 1.000e+00 "),
    # and so does extend, before it builds g (+)_omega a
    ({"task": "extend", "algebra": {"dim": 3, "structure_constants": [[0, 1, 1, 1.0],
                                                                      [1, 2, 0, 1.0]]},
      "module": {"coeff_dim": 1},
      "cocycle": {"components": [{"indices": [0, 1], "value": 1.0}]}},
     "d_2 d_1 is not zero (relative residual 1.000e+00 "),
], ids=["jacobi", "representation", "equivalence", "extend"])
def test_cohomology_of_a_non_complex_is_rejected(raw, message, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(raw))
    assert main([str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"computation rejected: {message}")


# On the Heisenberg algebra, with omega(e_1, e_2) = (0, 1) its only value,
# d(omega)(e_0, e_1, e_2) = rho(e_0) omega(e_1, e_2) = (1, 0)
E01, ZERO = [[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]
NOT_A_COCYCLE = {
    "group": {"kind": "heisenberg"},
    "module": {"coeff_dim": 2, "rho": [E01, ZERO, ZERO],
               "group_action": {"exprs": ["a1 + g1*a2", "a2"]}},
    "cocycle": {"degree": 2, "components": [{"indices": [1, 2], "value": [0.0, 1.0]}]},
    "lattice": {"generators": [[1.0, 0.0]]},
    "paths": {"p": {"coords": ["t", "0", "0"]}, "q": {"coords": ["0", "t", "0"]}},
    "pair": ["p", "q"],
    "loops": [{"name": "m", "coords": ["sin(2*pi*t)", "0", "0"]}],
    "cycles": [{"name": "c", "patches": [{"coords": ["t", "s", "0"]}]}],
}


@pytest.mark.parametrize("task", ["gamma", "pi1", "check-integrability"])
def test_integrating_a_non_cocycle_is_rejected(task, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**NOT_A_COCYCLE, "task": task}))
    assert main([str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "computation rejected: omega is not a cocycle: relative residual max |d(omega)| = "
        "1.000e+00, not below tol 1.000e-09\n"
    )


def _unit(i, j, n=4):
    """E_ij, the n x n matrix unit, as a list."""
    return np.outer(np.eye(n)[i], np.eye(n)[j]).tolist()


def _unipotent(*entries):
    """The 4 x 4 identity with the expressions of entries, (i, j, text) each, as a matrix map."""
    rows = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    for i, j, text in entries:
        rows[i][j] = text
    return {"matrix": rows}


# heis (+) R in 4 x 4 matrices: [e0, e1] = e2, and e3 is central.  omega(e2, e3)
# = 1 is a cocycle of the abelian R^4 but not of this algebra:
# d(omega)(e0, e1, e3) = -omega([e0, e1], e3) = -1.
HEIS_R = {"kind": "matrix", "basis": [_unit(0, 1), _unit(1, 2), _unit(0, 2), _unit(0, 3)],
          "algebra": {"dim": 4, "structure_constants": [[0, 1, 2, 1.0]]}}
OMEGA_23 = {"components": [{"indices": [2, 3], "value": 1.0}]}
HEIS_R_NOT_A_COCYCLE = {
    "group": HEIS_R, "cocycle": OMEGA_23, "lattice": {"generators": [[1.0]]},
    "paths": {"p": _unipotent((0, 2, "t")), "q": _unipotent((0, 3, "t"))}, "pair": ["p", "q"],
    "loops": [{"name": "m", **_unipotent((0, 3, "sin(2*pi*t)"))}],
    "cycles": [{"name": "c", "patches": [_unipotent((0, 2, "t"), (0, 3, "s"))]}],
}


@pytest.mark.parametrize("task, edit, name", [
    ("extend", {}, "omega"),
    ("equivalence", {"cocycle2": {"components": []}}, "omega1"),
    ("equivalence", {"cocycle": {"components": []}, "cocycle2": OMEGA_23}, "omega2"),
    ("gamma", {}, "omega"),
    ("pi1", {}, "omega"),
    ("check-integrability", {}, "omega"),
], ids=["extend", "equivalence-cocycle", "equivalence-cocycle2", "gamma", "pi1",
        "check-integrability"])
def test_every_task_refuses_a_non_cocycle_in_one_shape(task, edit, name, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**HEIS_R_NOT_A_COCYCLE, **edit, "task": task}))
    assert main([str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"computation rejected: {name} is not a cocycle: relative residual max |d({name})| = "
        "1.000e+00, not below tol 1.000e-09\n"
    )


@pytest.mark.parametrize("tol, code", [(0.5, 3), (2.0, 0)])
def test_extend_tests_its_cocycle_at_its_tol(tol, code, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**HEIS_R_NOT_A_COCYCLE, "task": "extend", "options": {"tol": tol}}))
    assert main([str(path)]) == code
    assert capsys.readouterr().err == ("" if code == 0 else (
        "computation rejected: omega is not a cocycle: relative residual max |d(omega)| = "
        f"1.000e+00, not below tol {tol:.3e}\n"))


# The algebra side's tolerances are relative: an answer does not depend on the
# scale of the algebra or of the cocycle, shown at two scales each.
HEIS3 = {"dim": 3, "structure_constants": [[0, 1, 2, 1.0]]}
HEIS5 = {"dim": 5, "structure_constants": [[0, 2, 4, 1.0], [1, 3, 4, 1.0]]}


def _not_lie(eps):
    """[e0, e1] = eps e1 and [e1, e2] = eps e0, which break Jacobi at any eps."""
    return {"dim": 3, "structure_constants": [[0, 1, 1, eps], [1, 2, 0, eps]]}


def _cocycle(indices, value):
    return {"components": [{"indices": indices, "value": value}]}


def machine_outcome(raw, tmp_path, capsys):
    """The exit code, the results (None without a report) and stderr of the
    CLI on the document raw, with machine output."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(raw))
    code = main([str(path), "--output", "machine"])
    captured = capsys.readouterr()
    return code, json.loads(captured.out)["results"] if captured.out else None, captured.err


@pytest.mark.parametrize("eps", [1e-8, 1e-12])
def test_a_class_that_is_not_zero_is_not_equivalent_to_zero_at_any_scale(eps, tmp_path, capsys):
    # e^0 ^ e^2 is a cocycle of heis3 outside the image of d_1, which e^0 ^ e^1 spans
    raw = {"task": "equivalence", "algebra": HEIS3, "cocycle": _cocycle([0, 2], eps),
           "cocycle2": {"components": []}}
    code, results, _ = machine_outcome(raw, tmp_path, capsys)
    assert (code, results["equivalent"]) == (0, False)
    assert results["residual"] == pytest.approx(eps, rel=1e-12)  # in omega's units


@pytest.mark.parametrize("eps", [1e-9, 1e-12])
def test_extend_refuses_a_non_cocycle_at_any_scale(eps, tmp_path, capsys):
    # on heis5, |d(e^2 ^ e^4)(e1, e2, e3)| = |(e^2 ^ e^4)([e1, e3], e2)| = eps, the largest
    # entry, which is eps / 2^(floor(log2 eps)) in units of the power of two at eps
    raw = {"task": "extend", "algebra": HEIS5, "cocycle": _cocycle([2, 4], eps)}
    code, results, err = machine_outcome(raw, tmp_path, capsys)
    relative = eps / 2.0 ** (np.frexp(eps)[1] - 1)
    assert (code, results) == (3, None) and err == (
        "computation rejected: omega is not a cocycle: relative residual max |d(omega)| = "
        f"{relative:.3e}, not below tol 1.000e-09\n")


@pytest.mark.parametrize("eps", [1e-3, 1e-5])
def test_a_bracket_that_breaks_jacobi_is_refused_at_any_scale(eps, tmp_path, capsys):
    code, results, _ = machine_outcome({"task": "validate", "algebra": _not_lie(eps)}, tmp_path, capsys)
    assert code == 0 and results["valid"] is False
    assert [v["identity"] for v in results["violations"]] == ["jacobi"]
    raw = {"task": "cohomology", "algebra": _not_lie(eps), "options": {"degrees": [0, 1, 2, 3]}}
    code, results, err = machine_outcome(raw, tmp_path, capsys)
    assert (code, results) == (3, None) and err.startswith("computation rejected: d_2 d_1 is not zero")


def _scaled(raw, factor):
    """raw with c, rho and each cocycle times factor: the change of basis
    e_i -> factor e_i with the coefficients' basis f_a -> factor f_a, under
    which every cocycle takes the factor too."""
    out = json.loads(json.dumps(raw))
    out["algebra"]["structure_constants"] = [[i, j, k, v * factor]
                                             for i, j, k, v in raw["algebra"]["structure_constants"]]
    if "rho" in raw.get("module", {}):
        out["module"]["rho"] = (np.array(raw["module"]["rho"]) * factor).tolist()
    for name in ("cocycle", "cocycle2"):
        for component in out.get(name, {}).get("components", []):
            component["value"] = (np.array(component["value"]) * factor).tolist()
    return out


def _random_basis_sl2(rng):
    """sl2's structure constants in a random basis, as document rows: Jacobi holds up to rounding."""
    c = change_of_basis(lx.sl2_algebra(), rng.normal(size=(3, 3)) + 2 * np.eye(3)).structure_constants
    return {"dim": 3, "structure_constants": [[i, j, k, float(c[i, j, k])]
                                              for i in range(3) for j in range(i + 1, 3) for k in range(3)]}


def _scale_documents():
    rng = np.random.default_rng(52)
    sl2 = _random_basis_sl2(rng)
    values = lambda n, m: [{"indices": list(ij), "value": rng.normal(size=m).tolist()}
                           for ij in itertools.combinations(range(n), 2)]
    bad_rho = rng.normal(size=(3, 2, 2)).tolist()  # no representation of sl2
    return {
        "validate": {"task": "validate", "algebra": _not_lie(1.3), "module": {"coeff_dim": 2, "rho": bad_rho}},
        "validate-module": {"task": "validate", "algebra": sl2, "module": {"coeff_dim": 2, "rho": bad_rho}},
        "extend": {"task": "extend", "algebra": sl2, "module": {"coeff_dim": 2},
                   "cocycle": {"components": values(3, 2)}},
        "extend-refused": {"task": "extend", "algebra": HEIS5, "cocycle": _cocycle([2, 4], 0.3)},
        "equivalent": {"task": "equivalence", "algebra": sl2, "cocycle": {"components": values(3, 1)},
                       "cocycle2": {"components": values(3, 1)}},
        "not-equivalent": {"task": "equivalence", "algebra": HEIS3, "cocycle": {"components": values(3, 1)},
                           "cocycle2": {"components": values(3, 1)}},
    }


@pytest.mark.parametrize("power", [37, -37, 600, -600])
@pytest.mark.parametrize("name", list(_scale_documents()))
def test_validate_extend_and_equivalence_do_not_see_a_power_of_two(name, power, tmp_path, capsys):
    # every verdict, refusal and relative residual keeps each bit; what is in the
    # input's units, the extension and the equivalence residual, takes the factor
    raw = _scale_documents()[name]
    code, results, err = machine_outcome(raw, tmp_path, capsys)
    assert code == (3 if name == "extend-refused" else 0)
    scaled = machine_outcome(_scaled(raw, 2.0**power), tmp_path, capsys)
    if scaled[1] is not None and "extension" in scaled[1]:
        for row in scaled[1]["extension"]["algebra"]["structure_constants"]:
            row[3] /= 2.0**power
    if scaled[1] is not None and "residual" in scaled[1]:
        scaled[1]["residual"] /= 2.0**power
    assert scaled == (code, results, err)


def test_gamma_tests_omega_on_the_group_algebra_not_the_section(tmp_path, capsys):
    # an abelian section of the right dimension cannot stand in for HEIS_R's
    # algebra, on which omega is no cocycle: the document is refused
    raw = {**HEIS_R_NOT_A_COCYCLE, "task": "gamma", "algebra": {"dim": 4}}
    assert cli_outcome(raw, tmp_path, capsys) == TWO_ALGEBRAS


def test_integrating_on_t4_ignores_a_section_omega_is_no_cocycle_of(tmp_path, capsys):
    # omega(e2, e3) = 0.5 is a cocycle of R^4, the algebra of T^4, and not of
    # heis (+) R; a heis (+) R section beside T^4 is refused, and without it
    # the period over the (2, 3) coordinate torus is decided
    raw = {"task": "check-integrability", "group": {"kind": "torus", "dim": 4},
           "lattice": {"generators": [[1.0]]},
           "cocycle": {"components": [{"indices": [2, 3], "value": 0.5}]},
           "cycles": [{"name": "c", "patches": [{"coords": ["0", "0", "t", "s"]}]}]}
    assert cli_outcome({**raw, "algebra": HEIS_R["algebra"]}, tmp_path, capsys) == TWO_ALGEBRAS
    report, code = run(parse_document(raw))
    [generator] = report["results"]["generators"]
    assert code == 0 and report["results"]["overall"] == "not_integrable"
    assert generator["period"] == pytest.approx([0.5], abs=1e-8)


# T^2 at angles (t, s), its constant entries given as JSON numbers
TORUS_MATRIX = {"matrix": [["cos(2*pi*t)", "-sin(2*pi*t)", 0, 0],
                           ["sin(2*pi*t)", "cos(2*pi*t)", 0, 0],
                           [0, 0, "cos(2*pi*s)", "-sin(2*pi*s)"],
                           [0, 0, "sin(2*pi*s)", "cos(2*pi*s)"]]}


@pytest.mark.parametrize("fixture, edit", [
    # loops along the coordinate axes are the windings (1, 0) and (0, 1)
    ("pi1_torus.json", _set("loops", value=[{"name": "m", "coords": ["t", "0"]},
                                            {"name": "n", "coords": ["0", "t"]}])),
    ("torus_integrable.json", _set("cycles", 0, "patches", value=[TORUS_MATRIX])),
])
def test_other_spellings_of_a_fixture_give_its_results(fixture, edit):
    expected, _ = run(parse_document(load_fixture(fixture)))
    report, code = run(parse_document(_edited(fixture, edit)))
    assert code == 0
    if fixture == "pi1_torus.json":
        assert report["results"] == expected["results"]
        return
    # the matrix spelling takes its partials as differences of matrices, whose
    # chart curvature leaves a ~1e-9 floor; the coords fixture takes them in
    # the chart, without it: the same verdicts, periods apart by that floor
    assert report["results"]["overall"] == expected["results"]["overall"]
    for got, want in zip(report["results"]["generators"], expected["results"]["generators"], strict=True):
        assert (got["verdict"], got["coefficients"]) == (want["verdict"], want["coefficients"])
        assert np.max(np.abs(np.subtract(got["period"], want["period"]))) <= got["error_estimate"]


@pytest.mark.parametrize("order", [8, 16, 24])
def test_coords_torus_reads_its_period_to_rounding(order):
    # differenced in the chart, the fundamental torus has no difference floor
    raw = _edited("torus_integrable.json", _set("options", "quad_order", value=order))
    report, code = run(parse_document(raw))
    [generator] = report["results"]["generators"]
    assert code == 0 and generator["period"] == pytest.approx([1.0], abs=1e-11)
    assert generator["error_estimate"] < 1e-10


@pytest.mark.parametrize("fixture, group", [("torus_integrable.json", "T^2"),
                                            ("su2_sphere_period.json", "SU(2)")])
def test_check_integrability_names_the_patch_that_leaves_the_group(fixture, group, tmp_path, capsys):
    raw = _edited(fixture, _set("cycles", value=[{"name": "fundamental", "patches": [OFF_TORUS]}]))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(raw))
    assert main([str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    # the first node of the order-16 rule, t = s = 0.0053, where 1 - cos(t)^2 = 2.8e-5
    assert captured.err == (
        "computation rejected: cycles['fundamental'].patches[0] leaves the group at (t, s) = "
        f"(0.00529953, 0.00529953): matrix is not in {group} (residual 2.808e-05)\n"
    )


def test_check_integrability_names_the_patch_whose_tangents_leave_the_algebra(tmp_path, capsys):
    # a matrix group has no membership test: the patch's tangents fail to
    # decompose in the algebra span instead
    group = {"kind": "matrix", "algebra": {"dim": 2}, "basis": lx.torus_group(2).basis.tolist()}
    raw = _edited("torus_integrable.json", _set("group", value=group))
    raw["cycles"] = [{"name": "fundamental", "patches": [OFF_TORUS]}]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(raw))
    assert main([str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "computation rejected: cycles['fundamental'].patches[0]: matrix is 5.300e-03 away "
        "from the algebra span (tolerance 1.0e-06 x 1)\n"
    )


def test_a_simplex_patch_that_leaves_the_group_on_its_triangle_is_named(tmp_path, capsys):
    raw = _edited("su2_sphere_period.json",
                  _set("cycles", 0, "patches", value=[{"domain": "simplex", **OFF_TORUS}]))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(raw))
    assert main([str(path)]) == 3
    captured = capsys.readouterr()
    # t = s is on the triangle; a node with s > t alone would be an input error
    assert captured.out == "" and captured.err == (
        "computation rejected: cycles['equatorial-sphere'].patches[0] leaves the group at "
        "(t, s) = (0.00529953, 0.00529953): matrix is not in SU(2) (residual 2.808e-05)\n"
    )


@pytest.mark.parametrize(
    "fixture, flag, warning",
    [
        ("torus_gamma.json", ["--tol", "1e-3"], "option 'tol' has no effect on task 'gamma'"),
        (
            "sl2_cohomology.json",
            ["--quad-order", "8"],
            "option 'quad_order' has no effect on task 'cohomology'",
        ),
    ],
    ids=["tol_on_gamma", "quad_order_on_cohomology"],
)
def test_unread_option_warns(fixture, flag, warning, capsys):
    reports = []
    for flags in ([], flag):
        assert main([str(FIXTURES / fixture), "--output", "machine", *flags]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    plain, flagged = reports
    assert flagged["warnings"] == [warning] + plain["warnings"]
    assert flagged["results"] == plain["results"]


def test_flags_are_part_of_the_inputs_digest(capsys):
    # each override, even of a value the document already holds, is appended
    # to the document's bytes as canonical JSON before they are hashed
    fixture = FIXTURES / "torus_integrable.json"
    digests = []
    for flags in ([], ["--quad-order", "16"], ["--tol", "1e-6"], ["--fd-step", "0.001"],
                  ["--task", "check-integrability"], ["--quad-order", "16", "--task", "validate"]):
        assert main([str(fixture), "--output", "machine", *flags]) == 0
        digests.append(json.loads(capsys.readouterr().out)["inputs_digest"])
    assert len(set(digests)) == len(digests)
    data = fixture.read_bytes()
    tails = [b"", b'{"quad_order":16}', b'{"tol":1e-06}', b'{"fd_step":0.001}',
             b'{"task":"check-integrability"}', b'{"quad_order":16,"task":"validate"}']
    assert digests == ["sha256:" + hashlib.sha256(data + tail).hexdigest() for tail in tails]


@pytest.mark.parametrize(
    "entry", [e for e in json.loads((FIXTURES / "index.json").read_text()) if e["expected_exit"] in (0, 4)],
    ids=lambda e: e["file"],
)
def test_inputs_digest_is_the_sha256_of_the_document_bytes(entry):
    # what `sha256sum problem.json` prints, so anyone can reproduce it
    data = (FIXTURES / entry["file"]).read_bytes()
    report = fixture_report(entry["file"])["report"]
    assert report["inputs_digest"] == "sha256:" + hashlib.sha256(data).hexdigest()


def test_a_crlf_document_is_digested_as_its_own_bytes(tmp_path, capsys):
    # the bytes as read, not the newline-translated text: reformatting a
    # document changes its digest and nothing else
    fixture = FIXTURES / "sl2_cohomology.json"
    data = fixture.read_bytes().replace(b"\n", b"\r\n")
    assert data != fixture.read_bytes()
    path = tmp_path / "crlf.json"
    path.write_bytes(data)
    lf, crlf = (machine_report([str(p)], capsys) for p in (fixture, path))
    assert crlf.pop("inputs_digest") == "sha256:" + hashlib.sha256(data).hexdigest()
    assert lf.pop("inputs_digest") == "sha256:" + hashlib.sha256(fixture.read_bytes()).hexdigest()
    lf.pop("timing_seconds"), crlf.pop("timing_seconds")
    assert crlf == lf


def _bytes_stdin(data):
    """A stdin whose buffer holds data, as a process's stdin does."""
    return io.TextIOWrapper(io.BytesIO(data))


def test_stdin_and_a_file_of_the_same_bytes_get_the_same_digest(monkeypatch, capsys):
    fixture = FIXTURES / "torus_gamma.json"
    from_file = machine_report([str(fixture), "--tol", "1e-7"], capsys)
    monkeypatch.setattr(sys, "stdin", _bytes_stdin(fixture.read_bytes()))
    from_stdin = machine_report(["-", "--tol", "1e-7"], capsys)
    assert from_stdin["inputs_digest"] == from_file["inputs_digest"]


NOT_UTF8 = b'{"task": "validate", "algebra": {"dim": 1}, "note": "caf\xe9"}'


@pytest.mark.parametrize("data, message", [
    (NOT_UTF8, f"document is not UTF-8: invalid continuation byte at byte {NOT_UTF8.index(0xE9)}"),
    (b"\xff" + load_fixture("heis3_validate.json").encode(),
     "document is not UTF-8: invalid start byte at byte 0"),
    (b"[" * 200_000 + b"]" * 200_000, "document is not valid JSON: nested too deeply"),
    (b'{"task": "validate", "algebra": {"dim": 1}, "unread": ' + b"[" * 5000 + b"]" * 5000 + b"}",
     "document is not valid JSON: nested too deeply"),
    (b'{"task": "validate", "algebra": {"dim": 1}, "x": 1' + b"0" * 5000 + b"}",
     f"document is not valid JSON: an integer has more than {sys.get_int_max_str_digits()} digits"),
], ids=["latin1_byte", "leading_ff", "deep_array", "deep_unread_key", "5001_digit_integer"])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_undecodable_document_exits_2_with_a_message(data, message, source, tmp_path,
                                                     monkeypatch, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin", _bytes_stdin(data))
    assert main([str(path) if source == "file" else "-", "--output", "machine"]) == 2
    assert capsys.readouterr() == ("", f"input error: {message}\n")


def test_lattice_error_has_one_prefix(tmp_path, capsys):
    path = tmp_path / "doc.json"
    raw = _edited("torus_integrable.json", _set("lattice", "generators", value=[1, 2]))
    path.write_text(json.dumps(raw))
    assert main([str(path)]) == 2
    assert capsys.readouterr().err == (
        "input error: lattice: generators must be r x m, got shape (2,)\n"
    )


def test_a_lattice_in_another_space_than_the_module_is_refused(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_edited("torus_integrable.json",
                                       _set("lattice", "generators", value=[[1.0, 0.0]]))))
    assert main([str(path)]) == 2
    assert capsys.readouterr().err == (
        "input error: lattice: generators live in R^2 but the coefficient space is R^1\n")


def test_small_scale_lattice_is_accepted():
    raw = _edited("torus_integrable.json", _set("lattice", "generators", value=[[1e-7]]))
    raw["cocycle"]["components"][0]["value"] = [1e-7]
    raw["options"] = {"tol": 1e-9}  # below half the lattice spacing, 5e-8
    report, code = run(parse_document(raw))
    assert code == 0
    assert report["results"]["overall"] == "integrable"


def test_small_lattice_is_tested_in_period_units():
    # the period 0.9999999987 is 1.3e-9 from the lattice point 10^7 * 1e-7
    raw = _edited("torus_integrable.json", _set("lattice", "generators", value=[[1e-7]]))
    raw["options"] = {"tol": 1e-9}  # below half the lattice spacing, 5e-8
    report, code = run(parse_document(raw))
    assert code == 0
    (gen,) = report["results"]["generators"]
    assert report["results"]["overall"] == "integrable"
    assert gen["verdict"] == "member" and gen["coefficients"] == [10_000_000]
    assert gen["residual"] < 1e-8


def test_d2_warns_of_a_cochain_that_is_not_normalized(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_edited("r2_d2.json", _set("cochain_expr", value=["x1*y2 + 1"]))))
    assert main([str(path), "--output", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["warnings"] == [
        "cochain is not normalized: |f| reaches 1.00e+00 with an identity argument"]


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


def fixture_report(name):
    """A shipped fixture's exit code and machine report, the report without
    its timing field (None when the run prints none)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(FIXTURES / name), "--output", "machine"])
    report = _strict_json(out.getvalue()) if out.getvalue() else None
    if report is not None:
        del report["timing_seconds"]
    return {"exit": code, "report": report}


# Every fixture's report as fixture_report gives it; rewrite the file with
# `PYTHONPATH=src python tests/test_cli.py` when a change to a report is meant.
PINNED_REPORTS_PATH = Path(__file__).with_name("fixture_reports.json")
PINNED_REPORTS = json.loads(PINNED_REPORTS_PATH.read_text()) if PINNED_REPORTS_PATH.exists() else {}


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
@pytest.mark.parametrize("output", ["text", "machine"])
def test_non_finite_result_is_rejected(raw, field, output, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(raw))
    assert main([str(path), "--output", output]) == 3
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
def test_fixture_machine_report_is_strict_json(entry):
    got = fixture_report(entry["file"])
    assert got["exit"] == entry["expected_exit"]
    if got["report"] is not None:
        assert got["report"]["task"] == entry["task"]
        assert not [w for w in got["report"]["warnings"] if w.startswith("option ")]
    assert got == PINNED_REPORTS[entry["file"]]


REPR_TOKENS = re.compile(r"\b(True|False|None)\b|[\[,] *'|' *[\],]")


@pytest.mark.parametrize(
    "entry",
    [e for e in json.loads((FIXTURES / "index.json").read_text()) if e["expected_exit"] in (0, 4)],
    ids=lambda e: e["file"],
)
def test_text_report_shows_every_results_field(entry, capsys):
    path = str(FIXTURES / entry["file"])
    code = main([path, "--output", "machine"])
    results = json.loads(capsys.readouterr().out)["results"]
    assert main([path]) == code
    out = capsys.readouterr().out
    lines = out.splitlines()
    for key in results:
        assert any(line.startswith(f"{_LABELS.get(key, key)}:") for line in lines), key
    assert not REPR_TOKENS.search(out), out


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
    def test_fixture_exit_codes(self, entry, capsys):
        code = main([str(FIXTURES / entry["file"])])
        captured = capsys.readouterr()
        assert code == entry["expected_exit"], captured.err or captured.out

    def test_exit_code_crosses_the_process_boundary(self):
        proc = run_cli([str(FIXTURES / "torus_indeterminate.json")])
        assert proc.returncode == 4, proc.stderr or proc.stdout

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

    def test_stdin_input_in_process(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", _bytes_stdin((FIXTURES / "heis3_validate.json").read_bytes()))
        assert machine_report(["-"], capsys)["results"]["valid"] is True

    def test_fixture_listing_in_process(self, capsys):
        assert main(["--fixtures"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("shipped example documents:\n")
        assert "  torus_integrable.json  task=check-integrability  expected_exit=0  " in out
        assert f"    path: {FIXTURES / 'torus_integrable.json'}\n" in out

    def test_unreadable_document_names_the_path(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main([str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: cannot read {missing}: ")

    def test_machine_reports_deterministic_apart_from_timing(self):
        args = [str(FIXTURES / "torus_integrable.json"), "--output", "machine"]
        r1, r2 = (json.loads(run_cli(args).stdout) for _ in range(2))
        r1.pop("timing_seconds"), r2.pop("timing_seconds")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_task_override_flag(self, capsys):
        report = machine_report([str(FIXTURES / "sl2_cohomology.json"), "--task", "validate"],
                                capsys)
        assert report["task"] == "validate"
        assert report["results"]["valid"] is True

    def test_flags_do_not_carry_over_to_the_next_call(self, capsys):
        cohomology = str(FIXTURES / "sl2_cohomology.json")
        torus = str(FIXTURES / "torus_integrable.json")
        assert machine_report([cohomology, "--task", "validate"], capsys)["task"] == "validate"
        assert machine_report([cohomology], capsys)["task"] == "cohomology"
        assert machine_report([torus, "--quad-order", "4"], capsys)["results"]["quad_order"] == 4
        assert machine_report([torus], capsys)["results"]["quad_order"] == 16

    def test_quad_order_flag_changes_report(self, capsys):
        args = [str(FIXTURES / "torus_integrable.json")]
        full = machine_report(args, capsys)
        coarse = machine_report(args + ["--quad-order", "4"], capsys)
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

    def test_import_leaves_scipy_unloaded(self, tmp_path):
        # nor do building SL(2,R), whose maps are closed forms, and validating it
        path = tmp_path / "sl2.json"
        path.write_text(json.dumps({"task": "validate", "group": {"kind": "sl2"}}))
        script = """if True:
            import contextlib, io, sys, lieext, lieext.cli
            print('scipy' in sys.modules)
            lieext.sl2_group()
            with contextlib.redirect_stdout(io.StringIO()):
                code = lieext.cli.main([sys.argv[1]])
            print(code, 'scipy' in sys.modules)
        """
        proc = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True, text=True,
                              env=SUBPROCESS_ENV)
        assert proc.stdout.split() == ["False", "0", "False"], proc.stderr

    def test_path_identities_and_fixtures_leave_numpy_ma_unloaded(self):
        # a plain np.unique takes numpy's hash path, which imports numpy.ma
        # and raises peak memory by about a megabyte; every unique here must
        # ask for an index or an inverse
        script = """if True:
            import contextlib, io, sys
            from importlib import resources
            import numpy as np
            import lieext as lx
            from lieext.cli import main
            torus = lx.torus_group(2)
            form = lx.EquivariantForm(lx.cochain_from_pairs(2, 1, {(0, 1): 1.0}), torus)
            g1, g1p, g2, g2p = (
                lx.coordinate_path(torus, lambda t, w=w, a=a: np.array(w) * t + a * np.sin(2 * np.pi * t))
                for w, a in (([1, 0], 0.05), ([1, 0], -0.03), ([0, 1], 0.04), ([0, 1], 0.02))
            )
            lx.path_cocycle_coboundary(form, g1, g2, g1p, 8)
            lx.representative_independence_residuals(form, g1, g1p, g2, g2p, 8)
            fixtures = resources.files("lieext") / "fixtures"
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [main([str(fixtures / name)]) for name in ("sl2_cohomology.json", "torus_integrable.json")]
            print(codes, "numpy.ma" in sys.modules)
        """
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=SUBPROCESS_ENV)
        assert proc.stdout.strip() == "[0, 0] False", proc.stderr

    def test_missing_file_is_input_error(self):
        proc = run_cli(["/nonexistent/problem.json"])
        assert proc.returncode == 2

    def test_invalid_json_is_input_error(self):
        proc = run_cli(["-"], stdin_text="{broken")
        assert proc.returncode == 2

    def test_gamma_report_values(self, capsys):
        report = machine_report([str(FIXTURES / "torus_gamma.json")], capsys)
        assert report["results"]["value"][0] == pytest.approx(0.5, abs=1e-8)

    def test_d2_report_matches_analytic(self, capsys):
        report = machine_report([str(FIXTURES / "r2_d2.json")], capsys)
        comps = {tuple(c["indices"]): c["value"] for c in report["results"]["derived_cochain"]}
        assert comps[(0, 1)][0] == pytest.approx(1.0, abs=1e-8)

    def test_cohomology_report_betti(self, capsys):
        report = machine_report([str(FIXTURES / "sl2_cohomology.json")], capsys)
        betti = {sl["degree"]: sl["betti"] for sl in report["results"]["slices"]}
        assert betti[1] == 0 and betti[2] == 0

    def test_equivalence_report(self, capsys):
        report = machine_report([str(FIXTURES / "equivalence_r2.json")], capsys)
        assert report["results"]["equivalent"] is False
        assert report["results"]["residual"] == pytest.approx(1.0)

    def test_equivalence_report_witness(self, tmp_path, capsys):
        # on heis3, [e0, e1] = e2, the cocycles differ by 1.75 e0^e1, which is d_1 of a multiple of e2*
        tol = 1e-9
        raw = {"task": "equivalence", "algebra": {"dim": 3, "structure_constants": [[0, 1, 2, 1.0]]},
               "cocycle": {"components": [{"indices": [0, 1], "value": 1.5}, {"indices": [0, 2], "value": 0.5}]},
               "cocycle2": {"components": [{"indices": [0, 1], "value": -0.25},
                                           {"indices": [0, 2], "value": 0.5}]},
               "options": {"tol": tol}}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(raw))
        results = machine_report([str(path)], capsys)["results"]
        assert results["equivalent"] is True
        doc = parse_document(raw)
        witness = lx.cochain_from_pairs(3, 1, {tuple(c["indices"]): c["value"] for c in results["witness"]}, 1)
        image = lx.apply_d(doc.algebra, doc.module, witness).to_vector()
        assert np.max(np.abs(image - (doc.cocycle.to_vector() - doc.cocycle2.to_vector()))) <= tol

    def test_pi1_report(self, capsys):
        report = machine_report([str(FIXTURES / "pi1_torus.json")], capsys)
        com = np.array(report["results"]["commutators"])
        assert com[0, 1, 0] == pytest.approx(1.0, abs=1e-7)
        assert report["results"]["commutator_in_lattice"][0][1] == "member"

    def test_main_entry_point_in_process(self, capsys):
        code = main([str(FIXTURES / "heis3_validate.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "valid" in out


if __name__ == "__main__":
    index = json.loads((FIXTURES / "index.json").read_text())
    pinned = {entry["file"]: fixture_report(entry["file"]) for entry in index}
    lines = [f"{json.dumps(name)}: {json.dumps(pinned[name], sort_keys=True)}" for name in sorted(pinned)]
    PINNED_REPORTS_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")

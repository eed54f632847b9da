"""The document readers of sparse structure constants and cocycle components.

Each fault is pinned to its exact message and exit code 2, one fault per
document, and for two faults in one section the entry that is named.  A
property test checks that valid sections read bit for bit as the entry by
entry definition: c[i, j, k] = v and c[j, i, k] = -v, and each component at
its lexicographic row.  Each expression map parses its texts into its own
node table, each distinct text once, and no two parses share a compiled
expression or a node table; each distinct subexpression of a map is
evaluated once per call.  The sections after the group or algebra and the
module are the keys of SECTIONS, read in its order: of two broken sections
the one it lists first is reported.
"""

import gc
import itertools
import json
import threading
import tracemalloc
import weakref
from dataclasses import fields
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lieext import expressions
from lieext.cli import main
from lieext.documents import SECTIONS, TASKS, ProblemDocument, parse_document
from lieext.errors import DocumentError

INF = float("inf")
HUGE = 10**30
ROW = [0, 1, 2, 1.0]
BAD_ROWS = "algebra: sparse structure constants are [i, j, k, value] rows"
BAD_INDEX = "algebra: sparse index must be an integer >= 0, got "
BAD_VALUES = "algebra: sparse values: expected finite numbers, not booleans or strings"


def _order(row):
    return f"algebra: sparse row {row} needs i < j < dim and k < dim"


# structure_constants of a dim-3 algebra -> the message
SPARSE = {
    "row_not_a_list": ([ROW, "x"], BAD_ROWS),
    "row_of_three": ([[0, 1, 2]], BAD_ROWS),
    "row_of_five": ([[0, 1, 2, 1.0, 0]], BAD_ROWS),
    "rows_not_a_list": ("x", "algebra.structure_constants must be a list, got 'x'"),
    "index_bool": ([[0, True, 2, 1.0]], BAD_INDEX + "True"),
    "index_float": ([[0, 1.0, 2, 1.0]], BAD_INDEX + "1.0"),
    "index_negative": ([[0, 1, -1, 1.0]], BAD_INDEX + "-1"),
    "index_huge": ([[0, HUGE, 2, 1.0]], _order([0, HUGE, 2, 1.0])),
    "index_huge_negative": ([[-HUGE, 1, 2, 1.0]], BAD_INDEX + str(-HUGE)),
    "index_string": ([["0", 1, 2, 1.0]], BAD_INDEX + "'0'"),
    "index_nested": ([[[0], 1, 2, 1.0]], BAD_INDEX + "[0]"),
    "index_null": ([[0, 1, None, 1.0]], BAD_INDEX + "None"),
    "i_above_j": ([[1, 0, 2, 1.0]], _order([1, 0, 2, 1.0])),
    "i_equals_j": ([[1, 1, 2, 1.0]], _order([1, 1, 2, 1.0])),
    "j_at_dim": ([[0, 3, 2, 1.0]], _order([0, 3, 2, 1.0])),
    "k_at_dim": ([[0, 1, 3, 1.0]], _order([0, 1, 3, 1.0])),
    "entry_twice": (
        [ROW, [0, 2, 1, 1.0], [0, 1, 2, -1.0]], "algebra: sparse entry (0, 1, 2) given twice"
    ),
    "value_string": ([[0, 1, 2, "1.0"]], BAD_VALUES),
    "value_bool": ([[0, 1, 2, True]], BAD_VALUES),
    "value_null": ([[0, 1, 2, None]], BAD_VALUES),
    "value_infinite": ([[0, 1, 2, INF]], BAD_VALUES),
    "value_nan": ([[0, 1, 2, float("nan")]], BAD_VALUES),
    "value_beyond_float": ([[0, 1, 2, 10**400]], BAD_VALUES),
    "value_list": ([[0, 1, 2, [1.0]]], "algebra: sparse values: got shape (1, 1), expected (1,)"),
    "value_lists": (
        [[0, 1, 2, [1.0]], [0, 2, 1, [2.0]]],
        "algebra: sparse values: got shape (2, 1), expected (2,)",
    ),
    # two faults: the values are read before any index
    "bad_value_after_bad_index": ([[1, 0, 2, 1.0], [0, 1, 2, "x"]], BAD_VALUES),
    "bad_index_after_bad_order": (
        [ROW, [2, 1, 0, 1.0], [0, 1, True, 1.0]], _order([2, 1, 0, 1.0])
    ),
    "bad_order_after_bad_index": ([ROW, [0, 1.5, 0, 1.0], [2, 1, 0, 1.0]], BAD_INDEX + "1.5"),
    "bad_range_before_twice": ([[0, 1, 5, 1.0], ROW, ROW], _order([0, 1, 5, 1.0])),
    "twice_before_bad_index": (
        [ROW, ROW, [0, "x", 2, 1.0]], "algebra: sparse entry (0, 1, 2) given twice"
    ),
    "huge_before_bad_type": (
        [[0, HUGE, 2, 1.0], [0, 1, False, 1.0]], _order([0, HUGE, 2, 1.0])
    ),
}


def _comp(indices, value=(1.0, 2.0)):
    return {"indices": indices, "value": list(value) if isinstance(value, tuple) else value}


COMP = _comp([0, 1])
NOT_OBJECTS = "cocycle: components are objects with 'indices' and 'value'"
BAD_INDEX_C = "cocycle: index must be an integer >= 0, got "
BAD_VALUE_C = "cocycle: value for (0, 1): expected finite numbers, not booleans or strings"


def _range(keys):
    return (f"cocycle: component indices {keys} are not strictly increasing "
            "degree-2 tuples in range(3)")


# components of a 2-cocycle on a dim-3 algebra with values in R^2 -> the message
COMPONENTS = {
    "components_not_a_list": ("x", "cocycle.components must be a list, got 'x'"),
    "components_an_object": (
        COMP, "cocycle.components must be a list, got {'indices': [0, 1], 'value': [1.0, 2.0]}"
    ),
    "component_not_an_object": ([COMP, "x"], NOT_OBJECTS),
    "component_a_list": ([[0, 1]], NOT_OBJECTS),
    "component_without_indices": ([{"value": [1.0, 2.0]}], NOT_OBJECTS),
    "component_without_value": ([{"indices": [0, 1]}], NOT_OBJECTS),
    "indices_string": ([_comp("01")], "cocycle: indices must be a list, got '01'"),
    "indices_nested": ([_comp([[0], 1])], BAD_INDEX_C + "[0]"),
    "indices_of_one": ([_comp([0])], "cocycle: indices (0,) must be 2 integers"),
    "indices_of_three": ([_comp([0, 1, 2])], "cocycle: indices (0, 1, 2) must be 2 integers"),
    "indices_empty": ([_comp([])], "cocycle: indices () must be 2 integers"),
    "indices_decreasing": ([_comp([1, 0])], "cocycle: indices (1, 0) must be strictly increasing"),
    "indices_repeated": ([_comp([1, 1])], "cocycle: indices (1, 1) must be strictly increasing"),
    "index_bool": ([_comp([False, 1])], BAD_INDEX_C + "False"),
    "index_float": ([_comp([0, 1.0])], BAD_INDEX_C + "1.0"),
    "index_negative": ([_comp([-1, 1])], BAD_INDEX_C + "-1"),
    "index_huge": ([_comp([0, HUGE])], _range([(0, HUGE)])),
    "indices_twice": (
        [COMP, _comp([0, 2]), _comp([0, 1], (3.0, 4.0))], "cocycle: indices [0, 1] given twice"
    ),
    "indices_out_of_range": (
        [_comp([1, 5]), COMP, _comp([0, 3])], _range([(0, 3), (1, 5)])
    ),
    "huge_indices_out_of_range": (
        [_comp([0, HUGE]), _comp([0, HUGE + 1])], _range([(0, HUGE), (0, HUGE + 1)])
    ),
    "huge_indices_twice": (
        [_comp([0, HUGE]), _comp([0, HUGE])], f"cocycle: indices [0, {HUGE}] given twice"
    ),
    "value_string": ([_comp([0, 1], ["x", 1.0])], BAD_VALUE_C),
    "value_bool": ([_comp([0, 1], [True, 1.0])], BAD_VALUE_C),
    "value_infinite": ([_comp([0, 1], [INF, 1.0])], BAD_VALUE_C),
    "value_beyond_float": ([_comp([0, 1], [10**400, 1.0])], BAD_VALUE_C),
    "value_null": ([_comp([0, 1], None)], BAD_VALUE_C),
    "value_short": (
        [_comp([0, 1], [1.0])], "cocycle: value for (0, 1): got shape (1,), expected (2,)"
    ),
    "value_scalar": (
        [_comp([0, 1], 1.0)], "cocycle: value for (0, 1): got shape (1,), expected (2,)"
    ),
    "value_nested": (
        [_comp([0, 1], [[1.0, 2.0]])], "cocycle: value for (0, 1): got shape (1, 2), expected (2,)"
    ),
    # two faults: the first faulty entry is named; indices out of range are
    # named after every entry has been read
    "bad_value_after_bad_index": (
        [_comp([1, 0]), _comp([0, 2], ["x", 1.0])],
        "cocycle: indices (1, 0) must be strictly increasing",
    ),
    "bad_index_after_bad_value": ([_comp([0, 1], ["x", 1.0]), _comp([2, 1])], BAD_VALUE_C),
    "twice_with_bad_value": ([COMP, _comp([0, 1], ["x", 1.0])], "cocycle: indices [0, 1] given twice"),
    "out_of_range_before_bad_index": ([_comp([0, 7]), _comp([1, True])], BAD_INDEX_C + "True"),
    "bad_structure_after_bad_order": (
        [COMP, _comp([2, 1]), "x"], "cocycle: indices (2, 1) must be strictly increasing"
    ),
}


def _algebra_document(rows):
    return {"task": "validate", "algebra": {"dim": 3, "structure_constants": rows}}


def _cocycle_document(components, coeff_dim=2):
    return {"task": "extend", "algebra": {"dim": 3}, "module": {"coeff_dim": coeff_dim},
            "cocycle": {"degree": 2, "components": components}}


def _exits_2_with(raw, message, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(raw))
    assert main([str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"input error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("case", sorted(SPARSE))
def test_sparse_row_fault(case, tmp_path, capsys):
    rows, message = SPARSE[case]
    _exits_2_with(_algebra_document(rows), message, tmp_path, capsys)


@pytest.mark.parametrize("case", sorted(COMPONENTS))
def test_component_fault(case, tmp_path, capsys):
    components, message = COMPONENTS[case]
    _exits_2_with(_cocycle_document(components), message, tmp_path, capsys)


def test_second_cocycle_is_named_as_such(tmp_path, capsys):
    raw = _cocycle_document([COMP])
    raw.update(task="equivalence", cocycle2={"components": [COMP, _comp([0, 2], [1.0])]})
    _exits_2_with(raw, "cocycle2: value for (0, 2): got shape (1,), expected (2,)",
                  tmp_path, capsys)


def test_one_number_values_and_lists_mix_when_coeff_dim_is_1():
    doc = parse_document(_cocycle_document(
        [{"indices": [1, 2], "value": 3}, {"indices": [0, 2], "value": [2.5]}], coeff_dim=1
    ))
    assert doc.cocycle.values.tolist() == [[0.0], [2.5], [3.0]]


@pytest.mark.parametrize("dim", [0, 1, 3])
def test_empty_sections_read_as_zero(dim):
    doc = parse_document({"task": "extend", "algebra": {"dim": dim, "structure_constants": []},
                          "cocycle": {"components": []}})
    assert doc.algebra.structure_constants.shape == (dim,) * 3
    assert not doc.algebra.structure_constants.any() and not doc.cocycle.values.any()


DIM = 5
PAIRS = list(itertools.combinations(range(DIM), 2))
finite = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10**6, 10**6)


@settings(max_examples=200, deadline=None)
@given(
    triples=st.lists(st.tuples(st.sampled_from(PAIRS), st.integers(0, DIM - 1), finite),
                     unique_by=lambda t: t[:2], max_size=30),
    components=st.lists(st.tuples(st.sampled_from(PAIRS), st.lists(finite, min_size=2,
                                                                    max_size=2)),
                        unique_by=lambda t: t[0], max_size=len(PAIRS)),
)
def test_valid_sections_read_as_each_entry_says(triples, components):
    raw = {
        "task": "extend",
        "algebra": {"dim": DIM,
                    "structure_constants": [[i, j, k, v] for (i, j), k, v in triples]},
        "module": {"coeff_dim": 2},
        "cocycle": {"components": [{"indices": list(ij), "value": v} for ij, v in components]},
    }
    doc = parse_document(json.loads(json.dumps(raw)))
    c = np.zeros((DIM, DIM, DIM))
    for (i, j), k, v in triples:
        c[i, j, k], c[j, i, k] = v, -float(v)
    rows = np.zeros((len(PAIRS), 2))
    for ij, v in components:
        rows[PAIRS.index(ij)] = v
    assert doc.algebra.structure_constants.tobytes() == c.tobytes()
    assert doc.cocycle.values.tobytes() == rows.tobytes()


def _su2_sphere():
    return json.loads((resources.files("lieext") / "fixtures" / "su2_sphere_period.json").read_text())


def test_each_distinct_text_is_compiled_and_evaluated_once(monkeypatch):
    # the sphere's 4 x 4 matrix has 16 entries but only 7 distinct texts, and
    # their 10 sin and cos calls take only 4 distinct arguments
    parse, compiled, calls = expressions.parse_expression, [], []

    def counted_parse(text, table=None):
        compiled.append(text)
        return parse(text, table)

    def counted(fn):
        return lambda x: calls.append(fn.__name__) or fn(x)

    monkeypatch.setattr(expressions, "parse_expression", counted_parse)
    for name in ("sin", "cos"):
        monkeypatch.setitem(expressions._PENDING, name, (0, counted(expressions.FUNCTIONS[name])))
    raw = _su2_sphere()
    matrix = raw["cycles"][0]["patches"][0]["matrix"]
    doc = parse_document(raw)
    assert sorted(compiled) == sorted({text for row in matrix for text in row})
    assert len(compiled) == 7
    [patch] = doc.cycles[0][1].patches
    t, s = np.linspace(0.0, 1.0, 5), np.linspace(1.0, 0.0, 5)
    alone = {text: parse(text)({"t": t, "s": s}) for text in list(compiled)}
    assert len(calls) == 10  # each text evaluated on its own
    calls.clear()
    mats = patch(t, s)
    assert sorted(calls) == ["cos", "cos", "sin", "sin"]  # each distinct call once
    # every position holds its own entry's value, bit for bit
    for (i, j), text in np.ndenumerate(np.array(matrix)):
        assert mats[:, i, j].tobytes() == np.broadcast_to(alone[text], t.shape).tobytes()


def test_each_map_parses_the_texts_it_shares_into_its_own_table(monkeypatch):
    # two patches of one cycle share two texts, in other orders and with
    # other neighbours: each patch parses its distinct texts once, into its
    # own table, and every position keeps the bits its text gives alone
    parse, made = expressions.parse_expression, []

    def recorded(text, table=None):
        expr = parse(text, table)
        made.append(expr)
        return expr

    monkeypatch.setattr(expressions, "parse_expression", recorded)
    coords = [["sin(pi*t) + s", "t*s", "sin(pi*t) + s"], ["exp(-t)*s", "sin(pi*t) + s", "t*s"]]
    raw = {"task": "check-integrability", "group": {"kind": "torus", "dim": 3},
           "cocycle": {"degree": 2, "components": [{"indices": [0, 1], "value": [1.0]}]},
           "lattice": {"generators": [[1.0]]},
           "cycles": [{"name": "c", "patches": [{"domain": "square", "coords": c} for c in coords]}]}
    patches = parse_document(raw).cycles[0][1].patches
    first, second = made[:2], made[2:]
    assert [e.source for e in first] == ["sin(pi*t) + s", "t*s"]
    assert [e.source for e in second] == ["exp(-t)*s", "sin(pi*t) + s", "t*s"]
    assert len({id(e.table) for e in first}) == len({id(e.table) for e in second}) == 1
    assert first[0].table is not second[0].table
    assert [e.source for e in first[0].table.entries] == coords[0]
    t, s = np.linspace(0.0, 1.0, 5), np.linspace(1.0, 0.0, 5)
    for patch, texts in zip(patches, coords):
        values = patch.eval(t, s)
        for k, text in enumerate(texts):
            alone = np.broadcast_to(parse(text)({"t": t, "s": s}), t.shape)
            assert values[:, k].tobytes() == alone.tobytes(), text


def test_documents_share_no_compiled_expression(monkeypatch):
    # two parses of one document, one after the other and then in two
    # threads at once: each compiles every distinct text of the document itself
    parse, made = expressions.parse_expression, []

    def recorded(text, table=None):
        expr = parse(text, table)
        made.append((threading.get_ident(), expr))
        return expr

    monkeypatch.setattr(expressions, "parse_expression", recorded)
    raw = _su2_sphere()
    texts = {entry for row in raw["cycles"][0]["patches"][0]["matrix"] for entry in row}

    def alone():
        start = len(made)
        parse_document(raw)
        return [expr for _, expr in made[start:]]

    meet, done = threading.Barrier(2), []

    def together():
        meet.wait(timeout=30)
        parse_document(raw)
        done.append(True)

    threads = [threading.Thread(target=together) for _ in range(2)]
    parses = [alone(), alone()]
    start = len(made)
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert done == [True, True] and not any(thread.is_alive() for thread in threads)
    parses += [[expr for ident, expr in made[start:] if ident == thread.ident] for thread in threads]
    for first, second in (parses[:2], parses[2:]):
        assert {e.source for e in first} == {e.source for e in second} == texts
        assert not set(map(id, first)) & set(map(id, second))
        assert not {id(e.table) for e in first} & {id(e.table) for e in second}


def test_a_dropped_document_frees_its_tables_without_the_cycle_collector(monkeypatch):
    # a table keeps its entries' texts, variables and roots, not the
    # Expressions that point at it, so reference counting alone frees it
    parse, tables = expressions.parse_expression, []

    def recorded(text, table=None):
        expr = parse(text, table)
        tables.append(weakref.ref(expr.table))
        return expr

    monkeypatch.setattr(expressions, "parse_expression", recorded)
    index = json.loads((resources.files("lieext") / "fixtures" / "index.json").read_text())
    raws = [json.loads((resources.files("lieext") / "fixtures" / e["file"]).read_text())
            for e in index if e["expected_exit"] != 2]
    enabled = gc.isenabled()
    gc.disable()
    try:
        docs = [parse_document(raw) for raw in raws]
        assert tables and all(ref() is not None for ref in tables)
        del docs
        assert [ref() for ref in tables] == [None] * len(tables)
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("upper, lower", [
    ("1/(t - 0.5)", "s*(1/(t - 0.5))"),
    ("s*(1/(t - 0.5))", "1/(t - 0.5)"),  # [1][0] is the failing node itself
])
def test_a_shared_failing_node_names_the_first_entry_that_needs_it(upper, lower, tmp_path, capsys):
    # [0][1] and [1][0] share one node 1/(t - 0.5), which fails at t = 0.5 on
    # the closure check's edge samples; the error names [0][1], and its text
    raw = {"task": "check-integrability", "group": {"kind": "sl2"},
           "cocycle": {"degree": 2, "components": [{"indices": [0, 1], "value": [1.0]}]},
           "lattice": {"generators": [[1.0]]},
           "cycles": [{"name": "c", "patches": [
               {"domain": "square", "matrix": [["1", upper], [lower, "1"]]}]}]}
    _exits_2_with(raw, f"cycles['c'].patches[0].matrix[0][1]: cannot evaluate {upper!r}: "
                  "divide by zero encountered in divide", tmp_path, capsys)


def test_a_map_drops_each_value_after_its_last_reader():
    # a great sphere as left multiplication by a unit quaternion, as the
    # benchmark spells it: 16 entries over 7 texts, whose four components
    # share sin and cos of pi*t and 2*pi*s.  At 20480 points the output and
    # at most 7 arrays of the points' size live at once: a value is dropped
    # after its last reader, and a root no node reads once it is written.
    frame = [[0.5, 0.5, 0.5, 0.5], [0.5, -0.5, 0.5, -0.5], [0.5, 0.5, -0.5, -0.5]]
    w, x, y, z = (f"({e3}*cos(pi*t) + sin(pi*t)*({e1}*cos(2*pi*s) + {e2}*sin(2*pi*s)))"
                  for e1, e2, e3 in zip(*frame))
    raw = _su2_sphere()
    raw["cycles"][0]["patches"][0]["matrix"] = [
        [w, f"-{x}", f"-{y}", f"-{z}"], [x, w, f"-{z}", y], [y, z, w, f"-{x}"], [z, f"-{y}", x, w]]
    [patch] = parse_document(raw).cycles[0][1].patches
    t, s = np.linspace(0.0, 1.0, 20480), np.linspace(1.0, 0.0, 20480)
    patch.eval(t, s)
    tracemalloc.start()
    try:
        out = patch.eval(t, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 7.5 * t.nbytes


def test_a_json_number_in_a_matrix_keeps_its_bits():
    # a number entry is compiled from its float's repr: -0.0 keeps its sign,
    # and the smallest subnormal and the largest float come back exactly
    raw = _su2_sphere()
    matrix = raw["cycles"][0]["patches"][0]["matrix"]
    numbers = {(0, 0): -0.0, (1, 1): 0, (2, 2): 5e-324, (3, 3): -1.7976931348623157e308}
    for (i, j), value in numbers.items():
        matrix[i][j] = value
    [patch] = parse_document(raw).cycles[0][1].patches
    mats = patch.eval(np.linspace(0.0, 1.0, 3), np.linspace(1.0, 0.0, 3))
    for (i, j), value in numbers.items():
        assert mats[:, i, j].tobytes() == np.full(3, float(value)).tobytes()


# A document with every section, each valid, on T^2; and each section broken,
# with the message it is reported by
EVERY_SECTION = {
    "task": "validate",
    "group": {"kind": "torus", "dim": 2},
    "lattice": {"generators": [[1.0]]},
    "cocycle": {"degree": 2, "components": [{"indices": [0, 1], "value": [1.0]}]},
    "cocycle2": {"degree": 2, "components": []},
    "paths": {"p1": {"coords": ["t", "0"]}, "p2": {"coords": ["0", "t"]}},
    "loops": [{"name": "m", "winding": [1, 0]}, {"name": "n", "coords": ["0", "t"]}],
    "cycles": [{"name": "fundamental", "patches": [{"domain": "square", "coords": ["t", "s"]}]}],
    "pair": ["p1", "p2"],
    "cochain_expr": ["x1*y2"],
}
BROKEN = {
    "lattice": "lattice section must be an object",
    "cocycle": "cocycle section must be an object",
    "cocycle2": "cocycle2 section must be an object",
    "paths": "paths section must map names to paths",
    "loops": "loops must be a list, got 'x'",
    "cycles": "cycles must be a list, got 'x'",
    "pair": "pair must be a list of two path names",
    "cochain_expr": "cochain_expr must be a non-empty list of expression strings",
}


def test_the_sections_are_the_document_fields_in_their_reading_order():
    assert list(SECTIONS) == ["lattice", "cocycle", "cocycle2", "paths", "loops", "cycles", "pair",
                              "cochain_expr"]
    read = {"group", "algebra", "module", *SECTIONS}
    assert read == {f.name for f in fields(ProblemDocument)} - {"task", "options"}
    assert {section for task in TASKS.values() for section in task.needs} <= read
    assert set(BROKEN) == set(SECTIONS) and set(EVERY_SECTION) == {"task", "group", *SECTIONS}
    doc = parse_document(EVERY_SECTION)
    assert all(getattr(doc, section) for section in SECTIONS)


@pytest.mark.parametrize("first, second", list(itertools.combinations(SECTIONS, 2)))
def test_of_two_broken_sections_the_first_in_sections_is_reported(first, second):
    # the later section comes first in the document: the table's order decides
    raw = {"task": "validate", "group": EVERY_SECTION["group"], second: "x", first: "x"}
    raw.update((k, v) for k, v in EVERY_SECTION.items() if k not in raw)
    with pytest.raises(DocumentError) as exc:
        parse_document(raw)
    assert str(exc.value) == BROKEN[first]

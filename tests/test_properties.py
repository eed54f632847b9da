"""Property test of the error contract: a document either runs or fails
with a LieExtError, whatever value sits at any place in it.

Documents are the shipped fixtures, plus one on a "matrix" group (no
fixture has one), with one node (a leaf or a whole section) replaced by a
random JSON value or by a random string from the expression grammar.
Integers are kept small so a substituted dimension or quadrature order
stays cheap.
"""

import json
from importlib import resources

from hypothesis import HealthCheck, given, settings, strategies as st

from lieext.cli import run
from lieext.documents import parse_document
from lieext.errors import LieExtError

FIXTURES = resources.files("lieext") / "fixtures"
DOCUMENTS = {
    entry["file"]: json.loads((FIXTURES / entry["file"]).read_text())
    for entry in json.loads((FIXTURES / "index.json").read_text())
}
DOCUMENTS["affine"] = {
    "task": "gamma",
    "group": {
        "kind": "matrix",
        "basis": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]],
        "algebra": {"dim": 2, "structure_constants": [[0, 1, 1, 1.0]]},
    },
    "cocycle": {"degree": 2, "components": [{"indices": [0, 1], "value": [0.7]}]},
    "paths": {
        "p": {"matrix": [["exp(t)", "0"], ["0", "1"]]},
        "q": {"matrix": [["1", "sin(t)"], ["0", "1"]]},
    },
    "pair": ["p", "q"],
    "lattice": {"generators": [[1.0]]},
    "options": {"quad_order": 4},
}


def _places(node, prefix=()):
    """Every key path below the root of a JSON value."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _places(child, prefix + (key,))


ATOMS = ["t", "s", "g1", "g2", "a1", "x1", "y2", "q", "pi", "0", "1", "2.5", "1e400", "1000"]
TOKENS = ATOMS + ["+", "-", "*", "/", "(", ")", "sin", "cos", "exp", "^", ","]


def _call(args):
    fn, arg = args
    return f"{fn}({arg})"


expression_text = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=8).map(" ".join),
    st.recursive(
        st.sampled_from(ATOMS),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(" ".join),
            st.tuples(st.sampled_from(["sin", "cos", "exp", "-"]), inner).map(_call),
        ),
        max_leaves=6,
    ),
)
json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 12),
        st.floats(-1e3, 1e3),
        st.sampled_from([0.0, 1e-300, 1e300, float("inf"), float("nan")]),
        expression_text,
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["dim", "coords", "matrix", "value", "x"]), inner, max_size=3),
    ),
    max_leaves=8,
)


@st.composite
def edited_documents(draw):
    raw = json.loads(json.dumps(DOCUMENTS[draw(st.sampled_from(sorted(DOCUMENTS)))]))
    place = draw(st.sampled_from(list(_places(raw))))
    target = raw
    for key in place[:-1]:
        target = target[key]
    target[place[-1]] = draw(json_values)
    return raw


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(edited_documents())
def test_any_edited_document_runs_or_raises_lieext_error(raw):
    try:
        report, code = run(parse_document(raw))
    except LieExtError:
        return
    assert code in (0, 4)
    json.dumps(report, allow_nan=True)

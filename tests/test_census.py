"""tests/census.py stays runnable: a small census counts every document it
draws, per family, and its report totals them."""

from collections import Counter

import numpy as np
import pytest

import census

OUTCOMES = ("right", "wrong", "exit 4", "other")
ORDERLESS = ("sl2h-scaled", "cocycle-scale", "algebra-scale")


def test_a_small_census_counts_every_document_of_every_family():
    counts = census.census(20261020, 2)
    per_family = Counter()
    for (family, order, outcome), n in counts.items():
        assert outcome in OUTCOMES
        assert order in census.ORDERS or (family in ORDERLESS and order is None)
        per_family[family] += n
    # two step squares, the two incomplete cycle sets, two block boundaries,
    # two great spheres, two rescaled algebras, which have no order, two
    # tiled step squares, two lattices in a changed basis, and two rescaled
    # cocycles and two rescaled algebras, which have no order either, and a
    # shifted tiling and an open loop
    assert per_family == {"t2-step": 2, "h2-incomplete": 2, "heis-narrow": 2, "su2-narrow": 2,
                          "sl2h-scaled": 2, "t2-tiling": 2, "lattice-basis": 2,
                          "cocycle-scale": 2, "algebra-scale": 2, "open-gap": 2}
    header, *rows, total = census.report(counts).splitlines()
    assert header.split()[2:] == ["right", "wrong", "exit", "4", "other"]
    assert {row.split()[0] for row in rows} == set(per_family)
    assert total.split()[0] == "total" and sum(map(int, total.split()[1:])) == 20


@pytest.mark.parametrize("family", [census.sl2h_scaled_family, census.cocycle_scale_family,
                                    census.algebra_scale_family],
                         ids=ORDERLESS)
def test_no_rescaled_algebra_or_cocycle_is_answered_wrong(family, tmp_path):
    # each family's count of confident wrong answers is 0, and every document
    # is answered: a rescaling of a basis or of a cocycle changes no answer
    for _, doc, answer in family(np.random.default_rng(20261020), 20):
        assert census.run(tmp_path / "doc.json", doc)[1] == answer


def test_no_lattice_basis_document_is_answered_wrong(tmp_path):
    # the family's count of confident wrong answers is 0; below the guard
    # before the reduction (condition number 1e14) every document is answered
    for _, doc, answer in census.lattice_basis_family(np.random.default_rng(20261020), 30):
        code, got = census.run(tmp_path / "doc.json", doc)
        if np.linalg.cond(doc["lattice"]["generators"]) < 1e13:
            assert (code, got) == (0, answer)
        else:
            assert code != 0 or got == answer


def test_no_open_chain_or_loop_is_answered(tmp_path):
    # a tiling with one tile shifted, or a loop short of a turn, by 1e-8 to
    # 1e-4 turns is refused (exit 3) as not closed: none is answered
    docs = list(census.open_gap_family(np.random.default_rng(20261020), 30))
    assert {doc["task"] for _, doc, _ in docs} == {"check-integrability", "pi1"}
    for _, doc, answer in docs:
        assert census.run(tmp_path / "doc.json", doc) == (3, None) and answer == "refuses"


def test_the_edge_pairing_reads_the_degree_of_a_square_and_of_its_flip():
    # the step square's degree is its edge translations' determinant, 1 + h;
    # the square read at (s, t), with coefficient -1, is the same 2-chain
    rng = np.random.default_rng(0)
    for _ in range(20):
        h, w, c, _, _ = census.step_draw(rng)
        patch = lambda t, s: (t + h / (1.0 + np.exp(-(t - c) / w)), s)
        for square, weight in ((patch, 1), (lambda t, s: patch(s, t), -1)):
            corners = [square(t, s) for t, s in ((0, 0), (1, 0), (1, 1), (0, 1))]
            edges = [(a, b, weight) for a, b in zip(corners, corners[1:] + corners[:1])]
            assert census.paired_degree(edges) == census.step_degree(h, c, w) == 1 + h

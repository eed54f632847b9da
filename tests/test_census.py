"""tests/census.py stays runnable: a small census counts every document it
draws, per family, and its report totals them."""

from collections import Counter

import census

OUTCOMES = ("right", "wrong", "exit 4", "other")


def test_a_small_census_counts_every_document_of_every_family():
    counts = census.census(20261020, 2)
    per_family = Counter()
    for (family, order, outcome), n in counts.items():
        assert outcome in OUTCOMES
        assert order in census.ORDERS or (family, order) == ("sl2h-scaled", None)
        per_family[family] += n
    # two step squares, the two incomplete cycle sets, two block boundaries,
    # two great spheres and two rescaled algebras, which have no order
    assert per_family == {"t2-step": 2, "h2-incomplete": 2, "heis-narrow": 2, "su2-narrow": 2,
                          "sl2h-scaled": 2}
    header, *rows, total = census.report(counts).splitlines()
    assert header.split()[2:] == ["right", "wrong", "exit", "4", "other"]
    assert {row.split()[0] for row in rows} == set(per_family)
    assert total.split()[0] == "total" and sum(map(int, total.split()[1:])) == 10

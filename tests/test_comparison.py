"""The paper's comparison: on the 130-dataset study, the mean |Gini error| of
each family and method of ``fit --method both`` against the lower bound's.
A fresh run of ``tests/golden/comparison.py`` gives the committed table, and
the findings below hold on it.  The fresh run takes about 3 s."""

import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
ROWS = [f"{family}/{method}" for family in ("gb2", "b2", "sm", "dagum", "lognormal", "fisk", "weibull")
        for method in ("nls", "gmm")]


@pytest.fixture(scope="module")
def fresh():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(GOLDEN))
        import comparison
    return comparison.comparison()


def committed():
    return json.loads((GOLDEN / "comparison.json").read_text())


def test_fresh_run_gives_the_committed_table(fresh):
    want = committed()
    assert {g: {p: sorted(rows) for p, rows in parts.items()} for g, parts in fresh.items()} == {
        g: {p: sorted(rows) for p, rows in parts.items()} for g, parts in want.items()}
    for grouping, parts in want.items():
        for part, rows in parts.items():
            for row, value in rows.items():
                assert fresh[grouping][part][row] == pytest.approx(value, rel=0, abs=5e-5), (
                    grouping, part, row)


def beats_lower_bound(errors):
    return sorted(row for row in ROWS if errors[row] < errors["lower_bound"])


@pytest.mark.parametrize("source", ["fresh", "committed"])
def test_findings(fresh, source):
    table = fresh if source == "fresh" else committed()
    # on the truths, every row beats the lower bound at both groupings
    for grouping in ("n10000-g10", "n2000-g5"):
        assert beats_lower_bound(table[grouping]["truths"]) == sorted(ROWS), grouping
    # on the presets at 5 groups, every row but dagum GMM
    assert beats_lower_bound(table["n2000-g5"]["presets"]) == sorted(set(ROWS) - {"dagum/gmm"})
    # on the presets at 10 groups, only gb2, lognormal and fisk, with either method
    assert beats_lower_bound(table["n10000-g10"]["presets"]) == sorted(
        f"{family}/{method}" for family in ("gb2", "lognormal", "fisk") for method in ("nls", "gmm"))

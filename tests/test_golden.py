"""The golden corpus: a fresh ``fit --method both`` of each input in
``tests/golden`` gives the committed rows, and a fresh ``report`` of each
committed fit file gives the committed report.  ``tests/golden/make.py``
regenerates them; a change that moves them regenerates them in the same
commit and names the rows it moved."""

import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest

from gb2fit import distributions as d, estimate
from gb2fit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
NAMES = sorted(p.name[:-len(".fit.jsonl")] for p in GOLDEN.glob("*.fit.jsonl"))
EXACT = ("id", "family", "method", "note", "error", "gini_method", "converged")
# The relative tolerance of every number compared.  Library versions move
# results at rounding level and the fits amplify it: with every Lorenz value
# scaled by 1 + k 2^-52 (k = -16, -2, 1, 4 or 8), or the difference step by
# 0.5, 0.9, 1.001, 1.5 or 2, the largest moves over this corpus were 1.5e-6
# for a Gini, 4.4e-6 for an Atkinson index, 2.0e-5 for L(u), 1.9e-11 for the
# RSS of a converged NLS row and 3.1e-5 for the params of a converged row
# off the box (gb2 on 5 groups: 3 shapes from 4 shares).
REL_TOL = 1e-4
# A report is computed from the committed fit rows, so only the summation
# order of a library moves its numbers.
REPORT_REL_TOL = 1e-12


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _close(got, want, where):
    np.testing.assert_allclose(got, want, rtol=REL_TOL, atol=0.0, err_msg=str(where))


def _off_the_box(spec):
    return bool(np.all(np.abs(np.log(d.shapes_of(spec))) < estimate._LOG_SHAPE_BOUND - 1e-9))


def compare(got_rows, want_rows, u_of):
    """Assert that fit rows match the golden rows; ``u_of`` maps each
    dataset id to its u."""
    assert [(r["id"], r["family"], r["method"]) for r in got_rows] == [
        (r["id"], r["family"], r["method"]) for r in want_rows]
    for got, want in zip(got_rows, want_rows):
        where = (want["id"], want["family"], want["method"])
        assert set(got) == set(want), where
        for key in EXACT:
            assert got.get(key) == want.get(key), (where, key)
        if want["gini"] is not None:
            _close(got["gini"], want["gini"], (where, "gini"))
        if want.get("params") is None:
            continue
        assert [e for e, v in got["atkinson"].items() if v is None] == [
            e for e, v in want["atkinson"].items() if v is None], (where, "atkinson")
        for e, v in want["atkinson"].items():
            if v is not None:
                _close(got["atkinson"][e], v, (where, "atkinson", e))
        # GMM minimizes its whitened objective, so its RSS moves first-order
        # along a ridge (by 2.0e-3 under the changes above), and the path to
        # the iteration cap decides an unconverged row's RSS (1.8e-4 moves)
        if want["method"] == "nls" and want["converged"]:
            _close(got["rss"], want["rss"], (where, "rss"))
        spec_got, spec_want = (d.FamilySpec(r["family"], r["params"]) for r in (got, want))
        u = u_of[want["id"]]
        _close(d.lorenz(spec_got, u), d.lorenz(spec_want, u), (where, "L(u)"))
        # a fit on the box or unconverged sits on a ridge, where params are not identified
        if want["converged"] and _off_the_box(spec_want):
            _close(got["params"], want["params"], (where, "params"))


def _golden(name):
    u_of = {r["id"]: np.array(r["u"]) for r in read_jsonl(GOLDEN / f"{name}.jsonl")}
    return read_jsonl(GOLDEN / f"{name}.fit.jsonl"), u_of


@pytest.mark.parametrize("name", NAMES)
def test_fit_matches_golden(tmp_path, name):
    out = tmp_path / "fit.jsonl"
    main(["fit", "--method", "both", "--input", str(GOLDEN / f"{name}.jsonl"), "--output", str(out)])
    want, u_of = _golden(name)
    compare(read_jsonl(out), want, u_of)


def compare_report(got, want, where=()):
    """Assert that a report matches the golden one: the same keys in the same
    order, equal bins, counts and model lists, and floats within REPORT_REL_TOL."""
    if isinstance(want, float):
        assert isinstance(got, float), where
        np.testing.assert_allclose(got, want, rtol=REPORT_REL_TOL, atol=0.0, err_msg=str(where))
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key, value in want.items():
            compare_report(got[key], value, (*where, key))
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            compare_report(g, w, (*where, i))
    else:  # an int, a string or None
        assert type(got) is type(want) and got == want, where


@pytest.mark.parametrize("name", NAMES)
def test_report_matches_golden(tmp_path, name):
    out = tmp_path / "report.json"
    main(["report", "--input", str(GOLDEN / f"{name}.fit.jsonl"), "--output", str(out)])
    with open(GOLDEN / f"{name}.report.json") as fh:
        want = json.load(fh)
    with open(out) as fh:
        compare_report(json.load(fh), want)


@pytest.mark.parametrize("change", [
    lambda r: r["gini_errors"]["lower_bound"]["abs_bins"].insert(0, 0),  # the bins
    lambda r: r["gini_errors"]["fisk/nls"]["rel_bins"].sort(),  # a count moved between bins
    lambda r: r["gini_errors"]["sm/nls"].update(n=2),
    lambda r: r["dominance"]["nls_aic"]["models"].reverse(),  # the model order
    lambda r: r["gini_errors"]["sm/nls"].update(  # a float moved by ten tolerances
        mean_abs_error=r["gini_errors"]["sm/nls"]["mean_abs_error"] * (1.0 + 10.0 * REPORT_REL_TOL)),
    lambda r: r["gini_errors"].pop("fisk/gmm"),  # a missing section
])
def test_changed_report_fails(change):
    with open(GOLDEN / "presets-seed3-n2000-g5.report.json") as fh:
        want = json.load(fh)
    moved = copy.deepcopy(want)
    change(moved)
    assert moved != want
    compare_report(want, want)
    with pytest.raises(AssertionError):
        compare_report(moved, want)


def test_corpus():
    assert NAMES == ["dagum-seed3", "edges", "gb2-seed3", "lognormal-seed6",
                     "presets-seed3-n10000-g10", "presets-seed3-n2000-g5", "sm-seed3"]
    assert sorted(p.name[:-len(".report.json")] for p in GOLDEN.glob("*.report.json")) == NAMES
    rows, _ = _golden("edges")
    assert [r["note"] for r in rows if r["family"] == "lower_bound" and "note" in r] == [
        "shares are not convex: group 2's mean share 0.35 is below group 1's 0.4"]
    # a fallback note names its cause and quotes no number (a digit not inside a name like gb2)
    notes = [r["note"] for name in NAMES for r in _golden(name)[0] if r.get("note", "").startswith(
        "second stage fell back to NLS: ")]
    assert len(notes) > 100 and not any(re.search(r"(?<![a-z])\d", note) for note in notes)


def _mutated(change):
    want, u_of = _golden("presets-seed3-n2000-g5")
    moved = copy.deepcopy(want)
    change(moved)
    return want, moved, u_of


@pytest.mark.parametrize("factor", [10.0, -10.0])
def test_gini_moved_by_ten_tolerances_fails(factor):
    def move(rows):
        rows[7]["gini"] *= 1.0 + factor * REL_TOL

    want, moved, u_of = _mutated(move)
    compare(want, want, u_of)
    with pytest.raises(AssertionError, match="gini"):
        compare(want, moved, u_of)


@pytest.mark.parametrize("change", [
    lambda rows: rows[5].update(note="second stage ran"),  # a note changed
    lambda rows: rows[10].update(note=rows[10]["note"].replace("positive definite", "finite")),  # another cause
    lambda rows: rows[0].update(note="a new key"),  # an added key
    lambda rows: rows[1].update(converged=False),
    lambda rows: rows.reverse(),  # row order
])
def test_changed_field_fails(change):
    want, moved, u_of = _mutated(change)
    assert moved != want
    with pytest.raises(AssertionError):
        compare(want, moved, u_of)

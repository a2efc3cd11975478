"""End-to-end command-line tests via main(argv)."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import gb2fit
from gb2fit import cli, distributions as d, estimate
from gb2fit.cli import main
from gb2fit.distributions import FamilySpec
from gb2fit.exceptions import DomainError, NonConvergenceError, ValidationError
from gb2fit.grouped import GroupedDataset, slope_drop
from gb2fit.io import write_grouped_jsonl
from gb2fit.measures import atkinson_closed, weighted_atkinson


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_dataset(path, spec, J=10, mean=None, gini=None, id="gen"):
    u = np.arange(1, J + 1) / J
    ds = GroupedDataset(id=id, u=u, s=d.lorenz(spec, u), mean=mean, survey_gini=gini)
    write_grouped_jsonl([ds], path)
    return ds


class TestFit:
    def test_equality_dataset(self, tmp_path):
        inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        u = np.arange(1, 6) / 5
        write_grouped_jsonl([GroupedDataset(id="eq", u=u, s=u.copy())], inp)
        code = main(
            ["fit", "--input", str(inp), "--output", str(out),
             "--families", "fisk,weibull", "--mc-n", "2000"]
        )
        assert code == 0
        rows = read_jsonl(out)
        lb = next(r for r in rows if r["family"] == "lower_bound")
        assert lb["gini"] == 0.0
        for r in rows:
            if r["family"] in ("fisk", "weibull"):
                assert r["gini"] < 0.01

    def test_zero_noise_lognormal_report(self, tmp_path):
        inp, out = tmp_path / "in.jsonl", tmp_path / "out.csv"
        write_dataset(inp, FamilySpec("lognormal", (0.0, 0.8)), id="ln")
        code = main(
            ["fit", "--input", str(inp), "--output", str(out),
             "--families", "ln", "--format", "csv", "--mc-n", "2000"]
        )
        assert code == 0
        import csv

        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        ln_row = next(r for r in rows if r["family"] == "lognormal")
        sigma = float(ln_row["params"].split()[1])
        assert abs(sigma - 0.8) < 1e-4

    def test_gmm_without_mean_has_unit_scale(self, tmp_path):
        # the shares fix the shapes and Omega is scale-free: a record without
        # a mean fits GMM too, and both rows report the scale b = 1
        inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_dataset(inp, FamilySpec("weibull", (1.4, 1.0)), id="nomean")
        code = main(
            ["fit", "--input", str(inp), "--output", str(out),
             "--families", "weibull", "--method", "both", "--mc-n", "2000"]
        )
        assert code == 0
        rows = read_jsonl(out)
        for method in ("nls", "gmm"):
            row = next(r for r in rows if r.get("method") == method)
            assert row["error"] is None and row["gini"] is not None
            assert row["params"][1] == 1.0

    def test_both_reports_closer_method(self, tmp_path):
        inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        spec = FamilySpec("weibull", (1.4, 1.0))
        write_dataset(
            inp, spec, mean=d.moment(spec, 1.0),
            gini=d.gini_closed(spec).value, id="wb",
        )
        code = main(
            ["fit", "--input", str(inp), "--output", str(out),
             "--families", "weibull", "--method", "both", "--mc-n", "2000"]
        )
        assert code == 0
        rows = read_jsonl(out)
        methods = {r["method"] for r in rows if r["family"] == "weibull"}
        assert methods == {"nls", "gmm"}
        assert all(
            r.get("closer_method") in ("nls", "gmm")
            for r in rows
            if r["family"] == "weibull"
        )

    def test_invalid_record_isolated(self, tmp_path):
        inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        good = json.dumps({"id": "ok", "u": [0.5, 1.0], "s": [0.3, 1.0]})
        bad = json.dumps({"id": "bad", "u": [0.5, 1.0], "s": [0.9, 1.0]})
        inp.write_text(good + "\n" + bad + "\n")
        code = main(
            ["fit", "--input", str(inp), "--output", str(out),
             "--families", "fisk", "--mc-n", "2000"]
        )
        assert code == 1
        rows = read_jsonl(out)
        assert any(r.get("error") and "invalid record" in r["error"] for r in rows)
        assert any(r.get("family") == "fisk" and not r.get("error") for r in rows)

    def test_bad_numbers_become_invalid_record_rows(self, tmp_path):
        spec = FamilySpec("fisk", (2.5, 1.0))
        valid = tmp_path / "valid.jsonl"
        write_dataset(valid, spec, mean=d.moment(spec, 1.0), id="ok")
        good = valid.read_text().strip()
        bad = [
            '{"id": "str-mean", "u": [0.5, 1.0], "s": [0.3, 1.0], "mean": "x"}',
            '{"id": "nan-mean", "u": [0.5, 1.0], "s": [0.3, 1.0], "mean": NaN}',
            '{"id": "inf-mean", "u": [0.5, 1.0], "s": [0.3, 1.0], "mean": Infinity}',
            '{"id": "nan-share", "u": [0.5, 1.0], "s": [NaN, 1.0], "mean": 1.0}',
        ]
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text("\n".join([bad[0], bad[1], good, bad[2], bad[3]]) + "\n")

        def run(inp, out):
            return main(
                ["fit", "--input", str(inp), "--output", str(out),
                 "--families", "fisk", "--method", "both", "--mc-n", "2000"]
            )

        assert run(valid, tmp_path / "valid_out.jsonl") == 0
        assert run(mixed, tmp_path / "mixed_out.jsonl") == 1
        rows = read_jsonl(tmp_path / "mixed_out.jsonl")
        errors = [r for r in rows if r.get("error")]
        assert sorted(r["id"] for r in errors) == ["record-0", "record-1", "record-3", "record-4"]
        assert all(r["error"].startswith("invalid record: ") for r in errors)
        assert [r for r in rows if not r.get("error")] == read_jsonl(tmp_path / "valid_out.jsonl")

    @pytest.mark.parametrize(
        "exc",
        [
            DomainError, NonConvergenceError, np.linalg.LinAlgError, FloatingPointError,
            OverflowError, ValueError, ZeroDivisionError,
        ],
    )
    def test_fit_exception_isolated(self, tmp_path, monkeypatch, exc):
        inp = tmp_path / "in.jsonl"
        write_dataset(inp, FamilySpec("lognormal", (0.0, 0.8)), id="ln")

        def run(out):
            return main(
                ["fit", "--input", str(inp), "--output", str(out),
                 "--families", "fisk,ln", "--mc-n", "2000"]
            )

        clean = tmp_path / "clean.jsonl"
        assert run(clean) == 0
        real_nls_fit = cli.nls_fit

        def failing_nls_fit(family, ds, *args, **kwargs):
            if family == "fisk":
                raise exc("injected failure")
            return real_nls_fit(family, ds, *args, **kwargs)

        monkeypatch.setattr(cli, "nls_fit", failing_nls_fit)
        out = tmp_path / "out.jsonl"
        assert run(out) == 1
        rows, clean_rows = read_jsonl(out), read_jsonl(clean)
        assert len(rows) == len(clean_rows)
        (bad,) = [r for r in rows if r.get("error")]
        assert (bad["family"], bad["method"], bad["error"]) == ("fisk", "nls", "injected failure")
        assert [r for r in rows if r is not bad] == [
            r for r in clean_rows if r["family"] != "fisk"
        ]

    def test_exception_without_message_names_its_class(self, tmp_path, monkeypatch):
        inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_dataset(inp, FamilySpec("fisk", (2.5, 1.0)), id="f")

        def failing_nls_fit(family, ds, *args, **kwargs):
            raise ZeroDivisionError

        monkeypatch.setattr(cli, "nls_fit", failing_nls_fit)
        assert main(["fit", "--input", str(inp), "--output", str(out), "--families", "fisk"]) == 1
        (bad,) = [r for r in read_jsonl(out) if r["family"] == "fisk"]
        assert bad["error"] == "ZeroDivisionError"

    def test_non_object_lines_become_invalid_record_rows(self, tmp_path):
        spec = FamilySpec("fisk", (2.5, 1.0))
        valid = tmp_path / "valid.jsonl"
        write_dataset(valid, spec, mean=d.moment(spec, 1.0), id="ok")
        bad = ["[1, 2]", '"x"', "3", "null"]
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text("\n".join([bad[0], bad[1], valid.read_text().strip(), bad[2], bad[3]]) + "\n")

        def run(inp, out):
            return main(
                ["fit", "--input", str(inp), "--output", str(out),
                 "--families", "fisk", "--method", "both", "--mc-n", "2000"]
            )

        assert run(valid, tmp_path / "valid_out.jsonl") == 0
        assert run(mixed, tmp_path / "mixed_out.jsonl") == 1
        rows = read_jsonl(tmp_path / "mixed_out.jsonl")
        errors = [r for r in rows if r.get("error")]
        assert sorted(r["id"] for r in errors) == ["record-0", "record-1", "record-3", "record-4"]
        assert all(r["error"].startswith("invalid record: ") for r in errors)
        assert [r for r in rows if not r.get("error")] == read_jsonl(tmp_path / "valid_out.jsonl")

    @pytest.mark.parametrize("name, text", [
        ("in.jsonl", '{"id": "bad", "u": {"a": 1}, "s": [0.5, 1.0]}\n'
                     '{"id": "ok", "u": [0.5, 1.0], "s": [0.3, 1.0]}\n'),
        ("in.csv", "id,share1,share2\nbad,0.3\nok,0.3,0.7\n"),
    ])
    def test_wrong_typed_record_is_one_invalid_record_row(self, tmp_path, name, text):
        inp, out = tmp_path / name, tmp_path / "out.jsonl"
        inp.write_text(text)
        code = main(["fit", "--input", str(inp), "--output", str(out), "--families", "fisk"])
        assert code == 1
        rows = read_jsonl(out)
        assert [r["id"] for r in rows if r.get("error")] == ["record-0"]
        assert rows[0]["error"].startswith("invalid record: ")
        assert [r["id"] for r in rows if r.get("family") == "fisk"] == ["ok"]

    @pytest.mark.parametrize("text, line, message", [
        # an extra cell, once filed under the key None, crashed the batch
        ("id,share1,share2\na,0.4,0.6\nb,0.3,0.7,9\nc,0.2,0.8\n", 3, "cell count 4 differs from the header's 3"),
        # a row short of its gini cell read as a record without a survey Gini
        ("id,share1,share2,mean,gini\na,0.4,0.6,5,0.1\nb,0.3,0.7,5\nc,0.2,0.8,5,0.3\n", 3,
         "cell count 4 differs from the header's 5"),
        ("id,share1,share2\na,0.4,0.6\nb,x,0.7\nc,0.2,0.8\n", 3, "share1 'x' is not a number"),
    ])
    def test_bad_csv_row_is_one_invalid_record_row_that_names_its_line(self, tmp_path, text, line, message):
        inp, out = tmp_path / "in.csv", tmp_path / "out.jsonl"
        inp.write_text(text)
        assert main(["fit", "--input", str(inp), "--output", str(out), "--families", "fisk"]) == 1
        rows = read_jsonl(out)
        assert [(r["id"], r["error"]) for r in rows if r["error"]] == [
            ("record-1", f"invalid record: line {line}: {message}")]
        assert [(r["id"], r["family"]) for r in rows if not r["error"]] == [
            ("a", "lower_bound"), ("a", "fisk"), ("c", "lower_bound"), ("c", "fisk")]

    def test_fallback_gmm_row_repeats_nls_row(self, tmp_path):
        sim, out = tmp_path / "sim.jsonl", tmp_path / "out.jsonl"
        assert main(["simulate", "--output", str(sim), "--preset", "5", "--seed", "3"]) == 0
        assert main(["fit", "--input", str(sim), "--output", str(out), "--method", "both"]) == 0
        rows = [r for r in read_jsonl(out) if r["method"] in ("nls", "gmm")]
        assert len(rows) == 2 * len(d.FAMILIES)
        for nls, gmm in zip(rows[::2], rows[1::2]):
            assert (nls["method"], gmm["method"]) == ("nls", "gmm")
            assert gmm["note"].startswith("second stage fell back to NLS: ")
            family = nls["family"]
            assert np.array_equal(
                d.shapes_of(FamilySpec(family, tuple(gmm["params"]))),
                d.shapes_of(FamilySpec(family, tuple(nls["params"]))),
            )
            assert gmm["gini"] == nls["gini"] and gmm["atkinson"] == nls["atkinson"]
            same = set(nls) - {"method", "params", "note"}
            assert {k: gmm[k] for k in same} == {k: nls[k] for k in same}

    @pytest.mark.parametrize("groups", ["10", "5"])
    def test_each_fitted_spec_is_measured_once(self, tmp_path, monkeypatch, groups):
        # a fallback GMM row carries its NLS row's spec, and that spec's Gini
        # and Atkinson values, computed once; at 10 groups every GMM row falls back
        sim, out = tmp_path / "sim.jsonl", tmp_path / "out.jsonl"
        assert main(["simulate", "--output", str(sim), "--seed", "3", "--groups", groups]) == 0
        calls, gini_closed = [], d.gini_closed
        monkeypatch.setattr(d, "gini_closed", lambda spec: calls.append(spec) or gini_closed(spec))
        assert main(["fit", "--input", str(sim), "--output", str(out), "--method", "both"]) == 0
        rows = [r for r in read_jsonl(out) if r["method"] in ("nls", "gmm")]
        ran = [gmm["note"] == "" for gmm in rows[1::2]]
        assert len(rows) == 6 * 2 * len(d.FAMILIES) and (groups == "5") == any(ran)
        assert len(calls) == 6 * len(d.FAMILIES) + sum(ran)
        for nls, gmm, second_stage in zip(rows[::2], rows[1::2], ran):
            if not second_stage:
                assert [gmm[k] for k in ("gini", "gini_method", "atkinson")] == [
                    nls[k] for k in ("gini", "gini_method", "atkinson")]

    def test_fallback_note_names_the_missing_second_moment(self, tmp_path):
        # the note names the family, not its fitted params
        sim, out = tmp_path / "sim.jsonl", tmp_path / "out.jsonl"
        assert main(["simulate", "--output", str(sim), "--preset", "1", "--seed", "3"]) == 0
        assert main(["fit", "--input", str(sim), "--output", str(out), "--method", "both",
                     "--families", "dagum,fisk"]) == 0
        rows = [r for r in read_jsonl(out) if r["method"] in ("nls", "gmm")]
        assert [r["family"] for r in rows[1::2]] == ["dagum", "fisk"]
        for nls, gmm in zip(rows[::2], rows[1::2]):
            assert gmm["method"] == "gmm"
            reason = f"the fitted {nls['family']} has no second moment"
            assert gmm["note"] == "second stage fell back to NLS: " + reason

    def test_gmm_rows_equal_those_of_both(self, tmp_path):
        # one first stage for --method nls, gmm and both: each method's rows
        # are those of both; some second stages run on this dataset, and the
        # others fall back
        sim = tmp_path / "sim.jsonl"
        assert main(["simulate", "--output", str(sim), "--preset", "5", "--seed", "3",
                     "--n", "2000", "--groups", "5"]) == 0
        rows = {}
        for method in ("nls", "gmm", "both"):
            out = tmp_path / f"{method}.jsonl"
            assert main(["fit", "--input", str(sim), "--output", str(out), "--method", method]) == 0
            rows[method] = [{k: v for k, v in r.items() if k != "closer_method"} for r in read_jsonl(out)]
        for method in ("nls", "gmm"):
            assert rows[method] == [r for r in rows["both"] if r["method"] in (method, "lower_bound")]
        notes = [r["note"] for r in rows["gmm"] if r["method"] == "gmm"]
        assert len(notes) == len(d.FAMILIES) and "" in notes and any(notes)

    def test_failed_nls_fits_once_per_family(self, tmp_path, monkeypatch):
        # two groups are too few for gb2 and b2; the GMM row repeats the NLS
        # error without fitting NLS again
        inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        u = np.array([0.5, 1.0])
        write_grouped_jsonl([GroupedDataset(id="j2", u=u, s=u ** 2, mean=2.0)], inp)
        calls = []
        real_nls_fit = estimate.nls_fit

        def counting_nls_fit(family, ds, *args, **kwargs):
            calls.append(family)
            return real_nls_fit(family, ds, *args, **kwargs)

        monkeypatch.setattr(cli, "nls_fit", counting_nls_fit)
        monkeypatch.setattr(estimate, "nls_fit", counting_nls_fit)
        assert main(["fit", "--input", str(inp), "--output", str(out),
                     "--families", "gb2,b2", "--method", "both"]) == 1
        assert calls == ["gb2", "b2"]
        rows = [r for r in read_jsonl(out) if r["method"] in ("nls", "gmm")]
        assert [(r["family"], r["method"]) for r in rows] == [
            ("gb2", "nls"), ("gb2", "gmm"), ("b2", "nls"), ("b2", "gmm")]
        for nls, gmm in zip(rows[::2], rows[1::2]):
            assert nls["error"].startswith(f"{nls['family']} needs at least")
            assert gmm["error"] == nls["error"]
        # --method gmm fits the failing first stage once per family too
        calls.clear()
        gmm_out = tmp_path / "gmm.jsonl"
        assert main(["fit", "--input", str(inp), "--output", str(gmm_out),
                     "--families", "gb2,b2", "--method", "gmm"]) == 1
        assert calls == ["gb2", "b2"]
        rows = [r for r in read_jsonl(gmm_out) if r["method"] == "gmm"]
        assert [(r["family"], r["error"]) for r in rows] == [
            (nls["family"], nls["error"]) for nls in read_jsonl(out) if nls["method"] == "nls"]

    def test_unconverged_fit_is_a_row_without_scores(self, tmp_path):
        # the gb2 NLS run ends unconverged on this record; its row keeps the
        # fit with converged false and no AIC or BIC, and fit exits 0
        sim, out = tmp_path / "sim.jsonl", tmp_path / "out.jsonl"
        assert main(["simulate", "--output", str(sim), "--family", "lognormal",
                     "--params", "0,1.2", "--seed", "6"]) == 0
        assert main(["fit", "--input", str(sim), "--output", str(out), "--method", "both"]) == 0
        rows = read_jsonl(out)
        assert all(r["error"] is None for r in rows)
        (gb2,) = [r for r in rows if (r["family"], r["method"]) == ("gb2", "nls")]
        assert gb2["converged"] is False and gb2["aic"] is None and gb2["bic"] is None
        assert len(gb2["params"]) == 4 and 0.0 < gb2["gini"] < 1.0 and gb2["atkinson"]["1"] > 0.0
        assert all(r["aic"] is not None for r in rows if r.get("converged"))

    def test_non_convex_shares_are_noted(self, tmp_path):
        # group mean shares 0.4, 0.35, ...: no Lorenz curve has them; the
        # record is still fitted, and its lower_bound row says why to doubt it
        import csv

        inp, out = tmp_path / "nc.jsonl", tmp_path / "out.jsonl"
        inp.write_text('{"id": "nc", "u": [0.2, 0.4, 0.6, 0.8, 1.0], "s": [0.08, 0.15, 0.30, 0.52, 1.0]}\n')
        assert main(["fit", "--input", str(inp), "--output", str(out), "--method", "both"]) == 0
        rows = read_jsonl(out)
        note = "shares are not convex: group 2's mean share 0.35 is below group 1's 0.4"
        assert rows[0]["family"] == "lower_bound" and rows[0]["note"] == note
        assert len(rows) == 15 and all(r["error"] is None for r in rows)
        # the CSV output keeps the note, in the column after error
        out = tmp_path / "out.csv"
        assert main(["fit", "--input", str(inp), "--output", str(out), "--format", "csv"]) == 0
        with open(out, newline="") as fh:
            header, *csv_rows = csv.reader(fh)
        assert header[header.index("error") + 1] == "note"
        assert csv_rows[0][header.index("note")] == note

    @pytest.mark.parametrize("argv", [["--n", "10000", "--groups", "10"], ["--n", "2000", "--groups", "5"]])
    def test_simulated_shares_have_no_convexity_note(self, tmp_path, argv):
        sim, out = tmp_path / "sim.jsonl", tmp_path / "out.jsonl"
        for seed in ("3", "4", "5"):
            assert main(["simulate", "--output", str(sim), "--seed", seed, *argv]) == 0
            assert main(["fit", "--input", str(sim), "--output", str(out), "--families", "fisk"]) == 0
            lower = [r for r in read_jsonl(out) if r["family"] == "lower_bound"]
            assert len(lower) == 6 and not any("note" in r for r in lower)

    def test_grouped_equal_incomes_have_no_convexity_note(self, tmp_path):
        # s = u up to the rounding of the group sums
        micro, grouped, out = tmp_path / "m.csv", tmp_path / "g.jsonl", tmp_path / "out.jsonl"
        micro.write_text("income\n" + "3.7\n" * 10001)
        assert main(["group", "--input", str(micro), "--output", str(grouped), "--groups", "10"]) == 0
        assert main(["fit", "--input", str(grouped), "--output", str(out), "--families", "fisk"]) == 0
        (lower,) = [r for r in read_jsonl(out) if r["family"] == "lower_bound"]
        assert "note" not in lower

    def test_families_fit_alone_as_in_one_run(self, tmp_path):
        # the families share Levenberg-Marquardt runs, and each ends as alone
        sim, every = tmp_path / "sim.jsonl", tmp_path / "every.jsonl"
        assert main(["simulate", "--output", str(sim), "--preset", "5", "--seed", "3",
                     "--n", "2000", "--groups", "5"]) == 0
        assert main(["fit", "--input", str(sim), "--output", str(every), "--method", "both"]) == 0
        rows = read_jsonl(every)
        for family in d.FAMILIES:
            alone = tmp_path / f"{family}.jsonl"
            assert main(["fit", "--input", str(sim), "--output", str(alone), "--method", "both",
                         "--families", family]) == 0
            assert read_jsonl(alone) == [r for r in rows if r["family"] in ("lower_bound", family)]

    def test_failing_family_keeps_its_own_error_row(self, tmp_path, monkeypatch):
        # sm's residuals raise on their third call, inside the batched run
        # of the two-shape families: sm gets error rows, the families that do
        # not nest sm keep their rows, and gb2 still fits
        sim, clean, out = tmp_path / "sim.jsonl", tmp_path / "clean.jsonl", tmp_path / "out.jsonl"
        assert main(["simulate", "--output", str(sim), "--preset", "5", "--seed", "3",
                     "--n", "2000", "--groups", "5"]) == 0
        assert main(["fit", "--input", str(sim), "--output", str(clean), "--method", "both"]) == 0
        factory = estimate._residual_factory

        def failing_factory(family, *args, **kwargs):
            residuals, calls = factory(family, *args, **kwargs), []

            def failing(x):
                calls.append(len(x))
                if family == "sm" and len(calls) >= 3:
                    raise RuntimeError("injected failure")
                return residuals(x)

            return failing

        monkeypatch.setattr(estimate, "_residual_factory", failing_factory)
        assert main(["fit", "--input", str(sim), "--output", str(out), "--method", "both"]) == 1
        rows, clean_rows = read_jsonl(out), read_jsonl(clean)
        bad = [r for r in rows if r["error"]]
        assert [(r["family"], r["method"], r["error"]) for r in bad] == [
            ("sm", "nls", "injected failure"), ("sm", "gmm", "injected failure")]
        assert [r for r in rows if r["family"] not in ("sm", "gb2")] == [
            r for r in clean_rows if r["family"] not in ("sm", "gb2")]
        assert [(r["method"], r["error"]) for r in rows if r["family"] == "gb2"] == [
            ("nls", None), ("gmm", None)]

    def test_one_levenberg_marquardt_run_per_shape_count(self, tmp_path, monkeypatch):
        # lognormal + fisk + weibull, then b2 + sm + dagum from their
        # optima, then gb2 from the two-shape optima
        from gb2fit.synth import MIXTURE_PRESETS, GroupingPolicy, microdata_to_grouped, sample_mixture

        inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        m = sample_mixture(MIXTURE_PRESETS[0], 10_000, seed=20180828)
        write_grouped_jsonl([microdata_to_grouped(m, GroupingPolicy(n_groups=10), id="preset-1")], inp)
        runs, real = [], estimate._levenberg_marquardt

        def counting(residuals, x0s):
            runs.append(x0s.shape[1])
            return real(residuals, x0s)

        monkeypatch.setattr(estimate, "_levenberg_marquardt", counting)
        assert main(["fit", "--input", str(inp), "--output", str(out), "--method", "nls"]) == 0
        assert runs == [1, 2, 3]

    def test_zero_epsilon_writes_positive_zero(self, tmp_path):
        inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_dataset(inp, FamilySpec("fisk", (2.5, 1.0)), id="f")
        assert main(["fit", "--input", str(inp), "--output", str(out),
                     "--families", "fisk", "--epsilon", "0,2"]) == 0
        (row,) = [line for line in out.read_text().splitlines() if '"fisk"' in line]
        assert '"atkinson": {"0": 0.0, "2": ' in row

    @pytest.mark.parametrize("epsilon", ["-0", "-0,0", "0,-0"])
    def test_negative_zero_epsilon_is_zero(self, tmp_path, epsilon):
        inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_dataset(inp, FamilySpec("fisk", (2.5, 1.0)), id="f")
        assert main(["fit", "--input", str(inp), "--output", str(out),
                     "--families", "fisk", f"--epsilon={epsilon}"]) == 0
        (row,) = [line for line in out.read_text().splitlines() if '"fisk"' in line]
        assert '"atkinson": {"0": 0.0}' in row

    def test_repeated_family_is_fitted_once(self, tmp_path):
        # ln is lognormal's alias: four names, two families
        inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_dataset(inp, FamilySpec("fisk", (2.5, 1.0)), id="f")
        assert main(["fit", "--input", str(inp), "--output", str(out), "--method", "both",
                     "--families", "fisk,fisk,ln,lognormal"]) == 0
        assert [(r["family"], r["method"]) for r in read_jsonl(out)] == [
            ("lower_bound", "lower_bound"), ("fisk", "nls"), ("fisk", "gmm"),
            ("lognormal", "nls"), ("lognormal", "gmm")]

    def test_close_aversions_keep_their_own_values(self, tmp_path):
        # both round to 0.123457 at six digits; the repeat is dropped
        inp, out, out_csv = tmp_path / "in.jsonl", tmp_path / "out.jsonl", tmp_path / "out.csv"
        write_dataset(inp, FamilySpec("fisk", (2.5, 1.0)), id="f")
        argv = ["fit", "--input", str(inp), "--families", "fisk", "--method", "nls",
                "--epsilon", "0.1234567,0.5,0.1234568,0.1234567"]
        assert main([*argv, "--output", str(out)]) == 0
        assert main([*argv, "--output", str(out_csv), "--format", "csv"]) == 0
        (row,) = [r for r in read_jsonl(out) if r["family"] == "fisk"]
        spec = FamilySpec("fisk", tuple(row["params"]))
        assert row["atkinson"] == {
            "0.1234567": atkinson_closed(spec, 0.1234567), "0.5": atkinson_closed(spec, 0.5),
            "0.1234568": atkinson_closed(spec, 0.1234568)}
        assert row["atkinson"]["0.1234567"] != row["atkinson"]["0.1234568"]
        import csv
        with open(out_csv) as fh:
            (csv_row,) = [r for r in csv.DictReader(fh) if r["family"] == "fisk"]
        assert [c for c in csv_row if c.startswith("atkinson_")] == [
            "atkinson_0.1234567", "atkinson_0.5", "atkinson_0.1234568"]
        for e, v in row["atkinson"].items():
            assert float(csv_row[f"atkinson_{e}"]) == v

    @pytest.mark.parametrize("epsilon", ["-0.5", "nan,inf", "0.5,inf", "1,-1"])
    def test_bad_epsilon_is_usage_error(self, tmp_path, epsilon):
        inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_dataset(inp, FamilySpec("fisk", (2.5, 1.0)), id="f")
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--input", str(inp), "--output", str(out),
                  "--families", "fisk", f"--epsilon={epsilon}"])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_usage_error(self, tmp_path, capsys, workers):
        inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_dataset(inp, FamilySpec("fisk", (2.5, 1.0)), id="f")
        assert main(["fit", "--input", str(inp), "--output", str(out),
                     "--families", "fisk", f"--workers={workers}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--workers" in err
        assert not out.exists()

    def test_missing_input_exit_2(self, tmp_path):
        code = main(
            ["fit", "--input", str(tmp_path / "nope.jsonl"),
             "--output", str(tmp_path / "out.jsonl")]
        )
        assert code == 2


# all income in the top group: Weibull fits at a = 0.00251, where log E[X] at
# unit scale is 1994, so no positive finite scale matches the mean
OVERFLOW = {"id": "overflow", "u": [0.5, 1.0], "s": [0.0, 1.0], "mean": 1.0, "gini": 0.08}
SCALE_ERROR = "no positive finite scale of the fitted weibull matches the record's mean 1"


@st.composite
def fuzz_records(draw, sort=True):
    """Nonnegative group incomes, with zeros, ties and a dominant top group,
    as shares: sorted, or without ``sort`` one group's income above the
    next one's, so that the shares are not convex; an optional mean and
    survey Gini."""
    J = draw(st.sampled_from([2, 3, 4, 5, 10]))
    incomes = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 1e3), min_size=J, max_size=J))
    if draw(st.booleans()):
        incomes[-1] = draw(st.floats(1e6, 1e12))
    incomes = sorted(incomes)
    if not sort:
        j = draw(st.integers(1, J - 1))
        incomes[j - 1] = incomes[j] + draw(st.floats(1.0, 1e3))
    cum = np.cumsum(incomes)
    assume(cum[-1] > 0.0)
    record = {"id": "fuzz", "u": (np.arange(1, J + 1) / J).tolist(), "s": (cum / cum[-1]).tolist()}
    if draw(st.booleans()):
        record["mean"] = 10.0 ** draw(st.floats(-300.0, 300.0))
    if draw(st.booleans()):
        record["gini"] = draw(st.floats(0.0, 0.99))
    return record


MALFORMED = ['{"id": "bad", "u": [0.5, 0.5], "s": [0.3, 1.0]}', "not json"]


def _fit_between_malformed(records, tmp):
    """Fit the records, each after a malformed line and the last before one,
    and each alone: one error row per malformed line, and each record's rows
    are those of its run alone, raise no warning, hold only group-count and
    scale errors and a Gini in [0, 1], and note shares that are not convex."""
    datasets = []
    for record in records:
        try:
            datasets.append(GroupedDataset(id=record["id"], u=record["u"], s=record["s"],
                                           mean=record.get("mean"), survey_gini=record.get("gini")))
        except ValidationError:
            assume(False)
    lines = [line for i, record in enumerate(records) for line in (MALFORMED[i % 2], json.dumps(record))]
    lines.append(MALFORMED[len(records) % 2])
    batch = tmp / "batch.jsonl"
    batch.write_text("\n".join(lines) + "\n")
    inputs = [batch]
    for record in records:
        inputs.append(tmp / f"{record['id']}.jsonl")
        inputs[-1].write_text(json.dumps(record) + "\n")
    rows = {}
    for path in inputs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            main(["fit", "--method", "both", "--input", str(path), "--output", str(tmp / "out.jsonl")])
        rows[path] = read_jsonl(tmp / "out.jsonl")
    bad = [r for r in rows[batch] if r["id"] not in {ds.id for ds in datasets}]
    assert [(r["id"], r["error"].startswith("invalid record: ")) for r in bad] == [
        (f"record-{2 * i}", True) for i in range(len(records) + 1)]
    for ds, alone in zip(datasets, inputs[1:]):
        fitted = [r for r in rows[batch] if r["id"] == ds.id]
        assert len(fitted) == 15 and fitted == rows[alone]
        for r in fitted:
            assert r["error"] is None or re.fullmatch(
                r"\w+ needs at least \d groups, dataset has \d+|no positive finite scale of the "
                r"fitted \w+ matches the record's mean \S+", r["error"]), r
            assert r["error"] or 0.0 <= r["gini"] <= 1.0, r
        convex = slope_drop(ds)[0] <= cli._SLOPE_ROUNDING
        assert (fitted[0].get("note") or "").startswith("shares are not convex: ") != convex, fitted[0]


class TestFitFuzz:
    """Random records fitted between malformed lines: the batch contract
    holds and every row is a fit, a group-count error or a scale error."""

    def test_no_finite_scale_is_the_weibull_rows_error(self, tmp_path):
        inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        inp.write_text(json.dumps(OVERFLOW) + "\n")
        assert main(["fit", "--method", "both", "--families", "weibull,fisk",
                     "--input", str(inp), "--output", str(out)]) == 1
        errors = {(r["family"], r["method"]): r["error"] for r in read_jsonl(out)}
        assert errors == {("lower_bound", "lower_bound"): None, ("fisk", "nls"): None, ("fisk", "gmm"): None,
                          ("weibull", "nls"): SCALE_ERROR, ("weibull", "gmm"): SCALE_ERROR}

    @settings(max_examples=50, deadline=None, database=None, derandomize=True)
    @given(record=fuzz_records())
    @example(record=OVERFLOW)
    def test_fit_rows(self, record, tmp_path_factory):
        _fit_between_malformed([record], tmp_path_factory.mktemp("fuzz"))

    @settings(max_examples=15, deadline=None, database=None, derandomize=True)
    @given(records=st.lists(fuzz_records(sort=False), min_size=2, max_size=3))
    def test_fit_files(self, records, tmp_path_factory):
        # unsorted incomes give shares that are not convex, which are still fitted
        records = [{**record, "id": f"fuzz-{i}"} for i, record in enumerate(records)]
        _fit_between_malformed(records, tmp_path_factory.mktemp("fuzz"))


# a blank cell and cells that are not numbers
NOT_NUMBERS = ["", " ", "x", "1e", "--1"]
# the prefixes of the CSV columns that need a number in every row
NUMBER_COLUMNS = ("share", "income", "weight", "household_size")


@st.composite
def bad_csv_record(draw, header):
    """The cells of a record that is not one: its cell count differs from the
    header's, or a cell of a column that needs a number is blank or not one."""
    n = draw(st.integers(1, len(header) + 3))
    cells = draw(st.lists(st.sampled_from(["1", "0.5", *NOT_NUMBERS]), min_size=n, max_size=n))
    if n == len(header):
        j = draw(st.sampled_from([j for j, c in enumerate(header) if c.startswith(NUMBER_COLUMNS)]))
        cells[j] = draw(st.sampled_from(NOT_NUMBERS))
    assume(",".join(cells))  # a blank line is no record
    return cells


def _csv_record_error(header, cells):
    """The message of a bad record drawn by ``bad_csv_record``."""
    if len(cells) != len(header):
        return f"cell count {len(cells)} differs from the header's {len(header)}"
    return next(f"{c} {v!r} is not a number" for c, v in zip(header, cells)
                if v in NOT_NUMBERS and c.startswith(NUMBER_COLUMNS))


@st.composite
def share_tables(draw):
    """A share table's header and records, bad records among valid ones,
    and the index of each bad record."""
    J = draw(st.integers(2, 4))
    header = ["id", *(f"share{j}" for j in range(1, J + 1))]
    header += draw(st.sampled_from([[], ["mean"], ["mean", "gini"]]))
    kinds = draw(st.lists(st.booleans(), min_size=1, max_size=6))  # True: a bad record
    records = []
    for i, bad in enumerate(kinds):
        if bad:
            records.append(draw(bad_csv_record(header)))
            continue
        incomes = sorted(draw(st.lists(st.integers(1, 9), min_size=J, max_size=J)))
        records.append([f"v{i}", *(repr(x / sum(incomes)) for x in incomes), "5", "0.3"][:len(header)])
    return header, records, [i for i, bad in enumerate(kinds) if bad]


@st.composite
def microdata_files(draw):
    """A microdata file's header and records, one of them bad, and the bad
    record's index."""
    header = draw(st.sampled_from([["income"], ["income", "weight"], ["income", "weight", "household_size"]]))
    records = [[str(draw(st.integers(1, 9))) for _ in header] for _ in range(draw(st.integers(2, 6)))]
    i = draw(st.integers(0, len(records)))
    records.insert(i, draw(bad_csv_record(header)))
    return header, records, i


def _run_quietly(argv):
    """main(argv)'s exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestCsvFuzz:
    """CSV inputs with bad records among valid ones: a share table's bad
    record is one error row that names its line, and a microdata file's is
    an input error that names its line."""

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(table=share_tables())
    def test_share_table_rows(self, table, tmp_path_factory):
        header, records, bad = table
        tmp = tmp_path_factory.mktemp("fuzz")
        for name, rows in (("batch", records), ("valid", [r for i, r in enumerate(records) if i not in bad])):
            (tmp / f"{name}.csv").write_text("\n".join(",".join(cells) for cells in [header, *rows]) + "\n")
            code, err = _run_quietly(["fit", "--families", "fisk", "--input", str(tmp / f"{name}.csv"),
                                      "--output", str(tmp / f"{name}.jsonl")])
            assert err == "" and code == int(bool(bad) and name == "batch")
        rows = read_jsonl(tmp / "batch.jsonl")
        assert [(r["id"], r["error"]) for r in rows if r["error"]] == [
            (f"record-{i}", f"invalid record: line {i + 2}: {_csv_record_error(header, records[i])}") for i in bad]
        assert [r for r in rows if not r["error"]] == read_jsonl(tmp / "valid.jsonl")

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(table=microdata_files())
    def test_microdata_bad_record(self, table, tmp_path_factory):
        header, records, i = table
        tmp = tmp_path_factory.mktemp("fuzz")
        micro, out = tmp / "m.csv", tmp / "out.json"
        micro.write_text("\n".join(",".join(cells) for cells in [header, *records]) + "\n")
        code, err = _run_quietly(["measures", "--input", str(micro), "--output", str(out)])
        assert (code, err) == (2, f"error: {micro} line {i + 2}: {_csv_record_error(header, records[i])}\n")
        assert not out.exists()


class TestSimulate:
    def test_too_few_draws_for_the_groups_names_the_empty_group(self, tmp_path, capsys):
        out = tmp_path / "sim.jsonl"
        assert main(["simulate", "--family", "fisk", "--params", "2,1", "--n", "3",
                     "--groups", "5", "--output", str(out)]) == 2
        assert capsys.readouterr().err == "error: grouping 3 records into 5 groups leaves group 1 empty\n"
        assert not out.exists()

    def test_default_six_presets(self, tmp_path):
        out = tmp_path / "sim.jsonl"
        code = main(["simulate", "--output", str(out), "--n", "2000"])
        assert code == 0
        rows = read_jsonl(out)
        assert len(rows) == 6
        assert all(len(r["s"]) == 10 for r in rows)

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert main(
                ["simulate", "--output", str(out), "--preset", "1",
                 "--n", "2000", "--seed", "7"]
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_family_source_and_microdata_out(self, tmp_path):
        out, micro = tmp_path / "sim.jsonl", tmp_path / "m.csv"
        code = main(
            ["simulate", "--output", str(out), "--family", "sm",
             "--params", "2,1,1.5", "--n", "3000", "--groups", "5",
             "--microdata-out", str(micro)]
        )
        assert code == 0
        rows = read_jsonl(out)
        assert len(rows) == 1 and len(rows[0]["u"]) == 5
        assert micro.exists()
        from gb2fit.io import read_microdata_csv

        m, _ = read_microdata_csv(micro)
        assert len(m.values) == 3000

    @pytest.mark.parametrize("mixture", ["1,2", "1,2,0.5,3,1,9"])
    def test_mixture_needs_five_numbers(self, tmp_path, mixture):
        out = tmp_path / "s.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--output", str(out), f"--mixture={mixture}"])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--family", "sm", "--params", "1"], ["--n", "0"]])
    def test_bad_source_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "s.jsonl"
        assert main(["simulate", "--output", str(out)] + argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("mixture, message", [
        ("1,1,0.5,-100,1", "mu=-100.0, sigma=1.0"),  # no normal mass above 0
        ("1,1,0.5,-9,1", "mu=-9.0, sigma=1.0"),
        ("1,1,0.5,inf,1", "finite"),
        ("1,1,0.5,5,nan", "finite"),
        ("1,1,0.5,1e308,1", "finite"),  # the incomes' total overflows
        ("1,1,0.5,5,1e308", "finite"),
        ("1e-300,1,0.5,5,1", "positive"),  # Weibull draws underflow to 0
    ])
    def test_mixture_that_cannot_be_sampled_is_input_error(self, tmp_path, capsys, mixture, message):
        out = tmp_path / "s.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--output", str(out), f"--mixture={mixture}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("family, params", [
        ("lognormal", "800,1"), ("lognormal", "0,500"),  # exp overflows, or underflows to 0
        ("weibull", "0.001,1"), ("fisk", "1.01,1e308"),  # power or product overflows
    ])
    def test_family_that_overflows_is_input_error(self, tmp_path, capsys, family, params):
        out = tmp_path / "s.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--output", str(out), "--family", family,
                         "--params", params]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--n", "500", "--params", "1,2"],  # --params without --family
        ["--preset", "2", "--family", "fisk", "--params", "2,1"],
        ["--preset", "2", "--mixture", "1,1,0.5,5,1"],
        ["--mixture", "1,1,0.5,5,1", "--family", "fisk", "--params", "2,1"],
        ["--family", "sm,b2", "--params", "2,1,1.5"],
        ["--family", "fisk,fisk", "--params", "2,1"],
        ["--family", "pareto", "--params", "2,1"],
    ], ids=["params-without-family", "preset-and-family", "preset-and-mixture",
            "mixture-and-family", "two-families", "one-family-twice", "unknown-family"])
    def test_conflicting_or_unused_source_options_are_usage_errors(self, tmp_path, capsys, argv):
        out = tmp_path / "s.jsonl"
        try:
            code = main(["simulate", "--output", str(out)] + argv)
        except SystemExit as exc:  # argparse rejects the option
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if "error: " in line]) == 1, err
        assert "Traceback" not in err
        assert not out.exists()

    def test_microdata_out_needs_single_source(self, tmp_path, capsys):
        out, micro = tmp_path / "s.jsonl", tmp_path / "m.csv"
        code = main(
            ["simulate", "--output", str(out),
             "--n", "1000", "--microdata-out", str(micro)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists() and not micro.exists()


class TestGroupAndMeasures:
    def test_group_round_trip(self, tmp_path):
        micro, out = tmp_path / "m.csv", tmp_path / "g.jsonl"
        micro.write_text("income,weight\n" + "\n".join(f"{i}.0,1.0" for i in range(1, 101)))
        code = main(["group", "--input", str(micro), "--output", str(out), "--groups", "5"])
        assert code == 0
        rows = read_jsonl(out)
        assert len(rows) == 1 and len(rows[0]["u"]) == 5
        assert rows[0]["gini"] > 0.0

    def test_group_leaving_a_group_empty_names_it(self, tmp_path, capsys):
        micro, out = tmp_path / "m.csv", tmp_path / "g.jsonl"
        micro.write_text("income\n1.0\n2.0\n")
        assert main(["group", "--input", str(micro), "--output", str(out), "--groups", "5"]) == 2
        assert capsys.readouterr().err == "error: grouping 2 records into 5 groups leaves group 1 empty\n"
        assert not out.exists()

    def test_group_one_group_is_usage_error(self, tmp_path, capsys):
        micro, out = tmp_path / "m.csv", tmp_path / "g.jsonl"
        micro.write_text("income\n1.0\n2.0\n")
        assert main(["group", "--input", str(micro), "--output", str(out), "--groups", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_equivalise_without_a_household_size_column_is_input_error(self, tmp_path, capsys):
        micro, out = tmp_path / "m.csv", tmp_path / "g.jsonl"
        micro.write_text("income,weight\n10,1\n20,1\n30,1\n40,1\n")
        assert main(["group", "--input", str(micro), "--output", str(out), "--groups", "2", "--equivalise"]) == 2
        assert capsys.readouterr().err == "error: household sizes required for equivalisation\n"
        assert not out.exists()

    def test_household_sizes_count_only_under_equivalise(self, tmp_path):
        micro = tmp_path / "m.csv"
        micro.write_text("income,household_size\n4,4\n4,4\n9,9\n9,9\n")
        means = []
        for flags in ([], ["--equivalise"]):
            out = tmp_path / "g.jsonl"
            assert main(["group", "--input", str(micro), "--output", str(out), "--groups", "2", *flags]) == 0
            means.append(read_jsonl(out)[0]["mean"])
        assert means == [6.5, pytest.approx(35.0 / 13.0)]

    @pytest.mark.parametrize("command", ["measures", "group"])
    @pytest.mark.parametrize("text, cells", [
        ("income\n1,000\n20\n30\n", "cell count 2 differs from the header's 1"),  # a thousands separator
        ("income,weight\n1,000,2\n20,1\n30,1\n", "cell count 3 differs from the header's 2"),
    ])
    def test_extra_cells_are_input_error(self, tmp_path, capsys, command, text, cells):
        micro, out = tmp_path / "m.csv", tmp_path / "out"
        micro.write_text(text)
        assert main([command, "--input", str(micro), "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {micro} line 2: {cells}\n"
        assert not out.exists()

    @pytest.mark.parametrize("size", ["nan", "inf"])
    def test_equivalise_non_finite_household_size_is_input_error(self, tmp_path, capsys, size):
        micro, out = tmp_path / "m.csv", tmp_path / "g.jsonl"
        micro.write_text("income,weight,household_size\n10,1,1\n20,1,1\n"
                         f"30,1,{size}\n40,1,1\n50,1,1\n60,1,1\n")
        assert main(["group", "--input", str(micro), "--output", str(out),
                     "--groups", "2", "--equivalise"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["measures", "group"])
    def test_empty_income_cell_is_input_error(self, tmp_path, capsys, command):
        micro, out = tmp_path / "m.csv", tmp_path / "out"
        micro.write_text("income,weight\n5,1\n,1\n")
        assert main([command, "--input", str(micro), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "line 3" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["measures", "group"])
    @pytest.mark.parametrize("cells", ["20,", "20"])  # a blank weight cell, a short row
    def test_blank_or_missing_weight_is_input_error(self, tmp_path, capsys, command, cells):
        micro, out = tmp_path / "m.csv", tmp_path / "out"
        micro.write_text(f"income,weight\n10,5\n{cells}\n30,5\n40,5\n")
        assert main([command, "--input", str(micro), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {micro} line 3: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["measures", "group"])
    @pytest.mark.parametrize("cells", ["1e308,1\n1e308,1\n5,1", "5,1\nnan,1", "5,inf"])
    def test_non_finite_total_is_input_error(self, tmp_path, capsys, command, cells):
        micro, out = tmp_path / "m.csv", tmp_path / "out"
        micro.write_text(f"income,weight\n{cells}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--input", str(micro), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["measures", "group"])
    def test_missing_income_column_is_input_error(self, tmp_path, capsys, command):
        micro, out = tmp_path / "m.csv", tmp_path / "out"
        micro.write_text("weight\n1\n")
        assert main([command, "--input", str(micro), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "income" in err and str(micro) in err
        assert not out.exists()

    def test_measures_stdout_json(self, tmp_path, capsys):
        micro = tmp_path / "m.csv"
        micro.write_text("income\n1\n2\n3\n4\n")
        code = main(["measures", "--input", str(micro)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"gini", "atkinson", "mean"}
        assert out["mean"] == pytest.approx(2.5)

    @pytest.mark.parametrize("epsilon", ["-1", "nan", "inf", "0.5,-0.5"])
    def test_measures_bad_epsilon_is_usage_error(self, tmp_path, capsys, epsilon):
        micro = tmp_path / "m.csv"
        micro.write_text("income\n1\n2\n3\n4\n")
        with pytest.raises(SystemExit) as exc:
            main(["measures", "--input", str(micro), f"--epsilon={epsilon}"])
        assert exc.value.code == 2
        assert "--epsilon" in capsys.readouterr().err

    def test_measures_zero_epsilon_accepted(self, tmp_path, capsys):
        micro = tmp_path / "m.csv"
        micro.write_text("income\n1\n2\n3\n4\n")
        assert main(["measures", "--input", str(micro), "--epsilon", "0,2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out["atkinson"]) == {"0", "2"}

    def test_measures_negative_zero_epsilon_is_zero(self, tmp_path, capsys):
        micro = tmp_path / "m.csv"
        micro.write_text("income\n1\n2\n3\n4\n")
        assert main(["measures", "--input", str(micro), "--epsilon=-0"]) == 0
        assert json.loads(capsys.readouterr().out)["atkinson"] == {"0": 0.0}

    def test_measures_close_aversions_keep_their_own_values(self, tmp_path, capsys):
        micro = tmp_path / "m.csv"
        micro.write_text("income\n1\n2\n3\n4\n")
        assert main(["measures", "--input", str(micro), "--epsilon", "0.1234567,1,0.1234568,1"]) == 0
        atkinson = json.loads(capsys.readouterr().out)["atkinson"]
        values = np.array([1.0, 2.0, 3.0, 4.0])
        assert atkinson == {"0.1234567": weighted_atkinson(values, 0.1234567),
                            "1": weighted_atkinson(values, 1.0),
                            "0.1234568": weighted_atkinson(values, 0.1234568)}
        assert atkinson["0.1234567"] != atkinson["0.1234568"]

    def test_measures_equal_incomes(self, tmp_path):
        micro, out = tmp_path / "m.csv", tmp_path / "meas.json"
        micro.write_text("income\n5\n5\n5\n")
        code = main(["measures", "--input", str(micro), "--output", str(out)])
        assert code == 0
        res = json.loads(out.read_text())
        assert res["gini"] == 0.0


class TestReport:
    def run_fit(self, tmp_path, n_datasets=3):
        inp, fit_out = tmp_path / "in.jsonl", tmp_path / "fit.jsonl"
        datasets = []
        rng = np.random.default_rng(0)
        for i in range(n_datasets):
            sigma = rng.uniform(0.6, 1.0)
            spec = FamilySpec("lognormal", (0.0, sigma))
            u = np.arange(1, 11) / 10
            datasets.append(
                GroupedDataset(
                    id=f"d{i}", u=u, s=d.lorenz(spec, u),
                    survey_gini=d.gini_closed(spec).value,
                )
            )
        write_grouped_jsonl(datasets, inp)
        assert main(
            ["fit", "--input", str(inp), "--output", str(fit_out),
             "--families", "ln,fisk,weibull", "--mc-n", "2000"]
        ) == 0
        return fit_out

    def test_report_json(self, tmp_path):
        fit_out = self.run_fit(tmp_path)
        rep = tmp_path / "rep.json"
        code = main(["report", "--input", str(fit_out), "--output", str(rep)])
        assert code == 0
        data = json.loads(rep.read_text())
        assert "gini_errors" in data and "dominance" in data
        errs = data["gini_errors"]
        assert "lower_bound" in errs and "lognormal/nls" in errs
        # lognormal truth: the lognormal fit must dominate on mean error
        assert errs["lognormal/nls"]["mean_abs_error"] <= errs["fisk/nls"]["mean_abs_error"]
        # bins partition each method's corpus
        for block in errs.values():
            assert sum(block["abs_bins"]) == block["n"]
        dom = data["dominance"]["nls_aic"]
        mat = np.array([[np.nan if v is None else v for v in row] for row in dom["matrix"]])
        assert np.all(np.diag(mat) == 1.0)
        i_ln = dom["models"].index("lognormal")
        assert all(mat[i_ln, j] == 1.0 for j in range(len(dom["models"])) if j != i_ln)

    def test_report_csv(self, tmp_path):
        fit_out = self.run_fit(tmp_path, n_datasets=2)
        rep = tmp_path / "rep.csv"
        code = main(["report", "--input", str(fit_out), "--output", str(rep), "--format", "csv"])
        assert code == 0
        text = rep.read_text()
        assert "gini_errors" in text and "dominance" in text

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_repeated_rows_count_once(self, tmp_path, fmt):
        # the last row of an (id, family, method) cell wins in the Gini errors
        # as in the dominance tables, so a file read twice reports the same
        fit_out = self.run_fit(tmp_path)
        twice = tmp_path / "twice.jsonl"
        twice.write_text(fit_out.read_text() * 2)
        reps = [tmp_path / f"rep-{name}.{fmt}" for name in ("once", "twice")]
        for inp, rep in zip((fit_out, twice), reps):
            assert main(["report", "--input", str(inp), "--output", str(rep), "--format", fmt]) == 0
        assert reps[0].read_bytes() == reps[1].read_bytes()

    def test_zero_survey_gini_is_scored(self, tmp_path):
        # equal shares have survey Gini 0: their errors count with the other record's
        inp, fit_out, rep = tmp_path / "in.jsonl", tmp_path / "fit.jsonl", tmp_path / "rep.json"
        u = np.arange(1, 11) / 10
        write_grouped_jsonl([
            GroupedDataset(id="eq", u=u, s=u.copy(), survey_gini=0.0),
            GroupedDataset(id="fisk", u=u, s=d.lorenz(FamilySpec("fisk", (2.5, 1.0)), u),
                           survey_gini=0.3),
        ], inp)
        assert main(["fit", "--input", str(inp), "--output", str(fit_out),
                     "--method", "both", "--families", "fisk"]) == 0
        assert main(["report", "--input", str(fit_out), "--output", str(rep)]) == 0
        errs = json.loads(rep.read_text())["gini_errors"]
        assert sorted(errs) == ["fisk/gmm", "fisk/nls", "lower_bound"]
        assert [block["n"] for block in errs.values()] == [2, 2, 2]

    def test_row_without_scores_is_read(self, tmp_path):
        # an unconverged fit's row has no AIC or BIC: its Gini is scored, and
        # it stays out of the dominance tables
        fit_out, rep = tmp_path / "fit.jsonl", tmp_path / "rep.json"
        rows = [{"id": "d", "family": "fisk", "method": "nls", "converged": True, "gini": 0.3,
                 "survey_gini": 0.31, "rss": 1e-6, "aic": -50.0, "bic": -49.0, "k": 1,
                 "n_moments": 9, "error": None},
                {"id": "d", "family": "gb2", "method": "nls", "converged": False, "gini": 0.32,
                 "survey_gini": 0.31, "rss": 1e-7, "aic": None, "bic": None, "k": 3,
                 "n_moments": 9, "error": None}]
        fit_out.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert main(["report", "--input", str(fit_out), "--output", str(rep)]) == 0
        data = json.loads(rep.read_text())
        assert data["gini_errors"]["gb2/nls"]["n"] == 1
        assert data["dominance"]["nls_bic"]["models"] == ["fisk"]

    def test_malformed_line_is_input_error(self, tmp_path, capsys):
        inp, rep = tmp_path / "fit.jsonl", tmp_path / "rep.json"
        inp.write_text('{"id": 1\n')
        assert main(["report", "--input", str(inp), "--output", str(rep)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "line 1" in err
        assert not rep.exists()

    @pytest.mark.parametrize("lines, line_no", [
        ('[1]\n', 1),  # not an object
        ('{"gini": 0.3, "survey_gini": 0.31, "method": "nls"}\n', 1),  # no family
        ('\n{"family": "lower_bound", "gini": 0.3}\n{"gini": 0.3, "survey_gini": 0.3}\n', 3),
    ], ids=["list", "no-family", "third-line"])
    def test_line_that_is_not_a_fit_row_is_input_error(self, tmp_path, capsys, lines, line_no):
        inp, rep = tmp_path / "fit.jsonl", tmp_path / "rep.json"
        inp.write_text(lines)
        assert main(["report", "--input", str(inp), "--output", str(rep)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"line {line_no}" in err
        assert not rep.exists()

    @pytest.mark.parametrize("line, name", [
        ('{"id": "d", "family": "fisk", "method": ["nls"], "gini": 0.3, "survey_gini": 0.31}', "method"),
        ('{"id": "d", "family": "fisk", "method": "nls", "gini": "x", "survey_gini": 0.31}', "gini"),
    ], ids=["method-list", "gini-text"])
    def test_wrong_typed_field_is_input_error(self, tmp_path, capsys, line, name):
        inp, rep = tmp_path / "fit.jsonl", tmp_path / "rep.json"
        inp.write_text('{"family": "lower_bound", "gini": 0.3}\n' + line + "\n")
        assert main(["report", "--input", str(inp), "--output", str(rep)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(inp) in err and "line 2" in err and name in err
        assert not rep.exists()

    SCORED = {"id": "d", "family": "fisk", "method": "nls", "gini": 0.3, "survey_gini": 0.31,
              "rss": 1e-5, "aic": -90.0, "bic": -89.0, "k": 2, "n_moments": 9}

    @pytest.mark.parametrize("name", ["id", "rss", "bic", "k", "n_moments"])
    def test_scored_row_without_field_is_input_error(self, tmp_path, capsys, name):
        # rss, k and n_moments are not read, but a scored row needs them
        row = {k: v for k, v in self.SCORED.items() if k != name}
        inp, rep = tmp_path / "fit.jsonl", tmp_path / "rep.json"
        inp.write_text(json.dumps(self.SCORED) + "\n" + json.dumps(row) + "\n")
        assert main(["report", "--input", str(inp), "--output", str(rep)]) == 2
        assert capsys.readouterr().err == f"error: {inp} line 2: fit row has no '{name}' field\n"
        assert not rep.exists()

    @pytest.mark.parametrize("name, value", [
        ("survey_gini", math.nan), ("survey_gini", -0.2), ("survey_gini", 1.5),
        ("gini", math.nan), ("gini", math.inf), ("gini", -0.01),
        ("aic", math.nan), ("aic", -math.inf), ("bic", math.inf),
    ])
    def test_value_out_of_range_is_input_error(self, tmp_path, capsys, name, value):
        inp, rep = tmp_path / "fit.jsonl", tmp_path / "rep.json"
        inp.write_text(json.dumps(self.SCORED) + "\n" + json.dumps({**self.SCORED, name: value}) + "\n")
        assert main(["report", "--input", str(inp), "--output", str(rep)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {inp} line 2: fit row field '{name}' ") and "finite" in err
        assert not rep.exists()

    def test_missing_field_is_reported_before_a_value_out_of_range(self, tmp_path, capsys):
        inp, rep = tmp_path / "fit.jsonl", tmp_path / "rep.json"
        no_rss = {k: v for k, v in self.SCORED.items() if k != "rss"}
        inp.write_text(json.dumps({**self.SCORED, "survey_gini": math.nan}) + "\n"
                       + json.dumps(no_rss) + "\n")
        assert main(["report", "--input", str(inp), "--output", str(rep)]) == 2
        assert capsys.readouterr().err == f"error: {inp} line 2: fit row has no 'rss' field\n"

    def test_gini_at_the_ends_of_the_unit_interval(self, tmp_path):
        inp, rep = tmp_path / "fit.jsonl", tmp_path / "rep.json"
        inp.write_text(json.dumps({**self.SCORED, "gini": 0.0}) + "\n"
                       + json.dumps({**self.SCORED, "id": "e", "gini": 1, "survey_gini": 1.0}) + "\n")
        assert main(["report", "--input", str(inp), "--output", str(rep)]) == 0
        assert json.loads(rep.read_text())["gini_errors"]["fisk/nls"]["n"] == 2

    def test_empty_input(self, tmp_path):
        inp, rep = tmp_path / "empty.jsonl", tmp_path / "rep.json"
        inp.write_text("")
        code = main(["report", "--input", str(inp), "--output", str(rep)])
        assert code == 0
        data = json.loads(rep.read_text())
        assert data == {"gini_errors": {}, "dominance": {}}


class TestParser:
    def test_built_once_per_process(self, tmp_path):
        inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_dataset(inp, FamilySpec("fisk", (2.5, 1.0)), id="f")
        parser = cli.build_parser()
        assert main(["fit", "--input", str(inp), "--output", str(out), "--families", "fisk"]) == 0
        assert cli.build_parser() is parser

    def test_consecutive_calls_write_what_each_writes_alone(self, tmp_path):
        # the shared parser's default lists carry nothing from one call to the next
        inp = tmp_path / "in.jsonl"
        write_dataset(inp, FamilySpec("fisk", (2.5, 1.0)), id="f")
        runs = [
            ["--families", "fisk,ln", "--epsilon", "0.5,2", "--method", "both"],
            [],  # every default
            ["--families", "sm", "--epsilon", "1", "--method", "gmm", "--format", "csv"],
            ["--families", "weibull,fisk", "--method", "nls"],
            [],
        ]
        for i, opts in enumerate(runs):
            assert main(["fit", "--input", str(inp), "--output", str(tmp_path / f"shared-{i}"), *opts]) == 0
        for i, opts in enumerate(runs):
            cli.build_parser.cache_clear()  # a parser of its own, as in a fresh process
            alone = tmp_path / f"alone-{i}"
            assert main(["fit", "--input", str(inp), "--output", str(alone), *opts]) == 0
            assert alone.read_bytes() == (tmp_path / f"shared-{i}").read_bytes(), opts

    @pytest.mark.parametrize("argv, option, value", [
        (["fit", "--families", "fisk,"], "--families", "fisk,"),
        (["fit", "--families", "fisk, ,ln"], "--families", "fisk, ,ln"),
        (["fit", "--epsilon", "0.5,"], "--epsilon", "0.5,"),
        (["fit", "--epsilon", ","], "--epsilon", ","),
        (["measures", "--epsilon", ",1"], "--epsilon", ",1"),
        (["simulate", "--family", "fisk", "--params", "2,1,"], "--params", "2,1,"),
        (["simulate", "--mixture", "1,1,0.5,5,1,"], "--mixture", "1,1,0.5,5,1,"),
    ], ids=["families", "families-space", "epsilon", "epsilon-comma", "measures-epsilon",
            "params", "mixture"])
    def test_blank_list_entry_is_usage_error(self, tmp_path, capsys, argv, option, value):
        out = tmp_path / "out.jsonl"
        inp = [] if argv[0] == "simulate" else ["--input", str(tmp_path / "in.jsonl")]
        with pytest.raises(SystemExit) as exc:
            main([*argv, *inp, "--output", str(out)])
        assert exc.value.code == 2
        assert f"error: argument {option}: blank entry in {value!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("families", ["", "  "])
    def test_empty_families_is_usage_error(self, tmp_path, capsys, families):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--input", "in.jsonl", "--output", "out.jsonl", f"--families={families}"])
        assert exc.value.code == 2
        assert f"error: argument --families: expected a family: {families!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["", "  "])
    def test_empty_epsilon_means_no_atkinson_values(self, tmp_path, epsilon):
        inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_dataset(inp, FamilySpec("fisk", (2.5, 1.0)), id="f")
        assert main(["fit", "--input", str(inp), "--output", str(out),
                     "--families", "fisk", f"--epsilon={epsilon}"]) == 0
        (row,) = [line for line in out.read_text().splitlines() if '"fisk"' in line]
        assert '"atkinson": {}' in row

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.sampled_from(["--families", "--epsilon", "--params", "--mixture", "--family"]),
           st.lists(st.sampled_from([",", " ", "0", ".", "5", "fisk", "ln", "x"]), max_size=8))
    def test_list_options_parse_or_exit_2(self, option, tokens):
        # a random value of a comma-list option gives a list with no blank entry, or
        # exit 2; a value with a blank entry always exits 2
        value = "".join(tokens)
        blank = value.strip() and not all(t.strip() for t in value.split(","))
        argv = (["fit", "--input", "in"] if option in ("--families", "--epsilon")
                else ["simulate"]) + ["--output", "out", f"{option}={value}"]
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                args = cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            assert exc.code == 2
            return
        assert not blank, value
        parsed = getattr(args, option[2:])
        if option == "--family":
            assert parsed in d.FAMILIES
            return
        assert isinstance(parsed, list)
        if option == "--families":
            assert parsed and all(f in d.FAMILIES for f in parsed)
        else:
            assert all(isinstance(v, float) for v in parsed)


class TestDeterminismAndOrdering:
    def test_fit_order_insensitive(self, tmp_path):
        u = np.arange(1, 11) / 10
        ds1 = GroupedDataset(id="a", u=u, s=d.lorenz(FamilySpec("fisk", (2.0, 1.0)), u))
        ds2 = GroupedDataset(id="b", u=u, s=d.lorenz(FamilySpec("fisk", (3.0, 1.0)), u))
        outs = []
        for name, order in (("fwd", [ds1, ds2]), ("rev", [ds2, ds1])):
            inp, out = tmp_path / f"{name}.jsonl", tmp_path / f"{name}_out.jsonl"
            write_grouped_jsonl(order, inp)
            assert main(
                ["fit", "--input", str(inp), "--output", str(out),
                 "--families", "fisk", "--mc-n", "2000"]
            ) == 0
            rows = {r["id"]: r for r in read_jsonl(out) if r["family"] == "fisk"}
            outs.append(rows)
        assert outs[0]["a"] == outs[1]["a"]
        assert outs[0]["b"] == outs[1]["b"]

    def test_workers_match_sequential(self, tmp_path):
        u = np.arange(1, 11) / 10
        datasets = [
            GroupedDataset(id=f"d{i}", u=u, s=d.lorenz(FamilySpec("fisk", (2.0 + i, 1.0)), u))
            for i in range(2)
        ]
        inp = tmp_path / "in.jsonl"
        write_grouped_jsonl(datasets, inp)
        seq, par = tmp_path / "seq.jsonl", tmp_path / "par.jsonl"
        for out, workers in ((seq, "1"), (par, "2")):
            assert main(
                ["fit", "--input", str(inp), "--output", str(out),
                 "--families", "fisk", "--mc-n", "2000", "--workers", workers]
            ) == 0
        assert seq.read_bytes() == par.read_bytes()

    @pytest.mark.parametrize("records,pool", [(2, 2), (1, None)])
    def test_pool_is_capped_at_the_records(self, tmp_path, monkeypatch, records, pool):
        # the pool forks all its workers at once: --workers 4 forks no more
        # workers than there are records, and one record fits in process
        made = []

        class Pool:  # records max_workers and maps in process
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
        u = np.arange(1, 11) / 10
        inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_grouped_jsonl([GroupedDataset(id=f"d{i}", u=u, s=d.lorenz(FamilySpec("fisk", (2.0 + i, 1.0)), u))
                             for i in range(records)], inp)
        assert main(["fit", "--input", str(inp), "--output", str(out), "--families", "fisk",
                     "--workers", "4"]) == 0
        assert made == ([] if pool is None else [pool])
        assert len(read_jsonl(out)) == 2 * records


class TestImportFootprint:
    def test_fit_leaves_scipy_optimize_unimported(self, tmp_path):
        # a fresh interpreter, so that no import made by another test counts
        script = """
import sys
import gb2fit.cli
assert "scipy.optimize" not in sys.modules
sim, fit = sys.argv[1:]
assert gb2fit.cli.main(["simulate", "--preset", "1", "--n", "2000", "--groups", "5",
                        "--output", sim]) == 0
assert gb2fit.cli.main(["fit", "--input", sim, "--output", fit, "--method", "both"]) == 0
assert "scipy.optimize" not in sys.modules
"""
        src = str(Path(gb2fit.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "s.jsonl"), str(tmp_path / "f.jsonl")],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert len(read_jsonl(tmp_path / "f.jsonl")) == 15

    def test_fit_and_gini_load_no_scipy_linalg(self, tmp_path):
        # against the scipy.linalg modules that scipy.special loads on its own;
        # the input's 5-group GMM rows run second stages, and the gb2 Gini
        # (P = 1.13, q + Q = 2.67) runs both Gauss-Jacobi branches
        script = """
import json, sys
import scipy.special
def linalg():
    return {m for m in sys.modules if m == "scipy.linalg" or m.startswith("scipy.linalg.")}
loaded = linalg()
import gb2fit.cli
from gb2fit import distributions as d
assert gb2fit.cli.main(["fit", "--input", sys.argv[1], "--output", sys.argv[2],
                        "--method", "both"]) == 0
assert d.gini_closed(d.FamilySpec("gb2", (3.0, 1.0, 0.8, 1.5))).method == "quadrature"
print(json.dumps(sorted(linalg() - loaded)))
"""
        golden = Path(__file__).resolve().parent / "golden" / "presets-seed3-n2000-g5.jsonl"
        out = tmp_path / "f.jsonl"
        src = str(Path(gb2fit.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        result = subprocess.run([sys.executable, "-c", script, str(golden), str(out)],
                                capture_output=True, text=True, env=env, timeout=300)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) == []  # after fit's summary line
        assert any(r["method"] == "gmm" and r["error"] is None and r["note"] == ""
                   for r in read_jsonl(out))

    def test_each_module_loads_only_the_layers_it_imports(self):
        # the package re-exports nothing, so a module loads only its own imports
        src = str(Path(gb2fit.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}

        def loaded(module):
            script = (f"import json, sys, {module}\n"
                      "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'gb2fit')))")
            result = subprocess.run([sys.executable, "-c", script],
                                    capture_output=True, text=True, env=env, timeout=300)
            assert result.returncode == 0, result.stderr
            return json.loads(result.stdout)

        assert loaded("gb2fit") == ["gb2fit"]
        assert loaded("gb2fit.distributions") == [
            "gb2fit", "gb2fit.distributions", "gb2fit.exceptions", "gb2fit.specfun"]
        assert loaded("gb2fit.cli") == [
            "gb2fit", "gb2fit.cli", "gb2fit.distributions", "gb2fit.estimate",
            "gb2fit.exceptions", "gb2fit.grouped", "gb2fit.io", "gb2fit.measures",
            "gb2fit.select", "gb2fit.specfun", "gb2fit.synth"]

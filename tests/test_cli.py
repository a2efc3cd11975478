"""End-to-end command-line tests via main(argv)."""

import json

import numpy as np
import pytest

from gb2fit import cli, distributions as d
from gb2fit.cli import main
from gb2fit.distributions import FamilySpec
from gb2fit.exceptions import DomainError, NonConvergenceError
from gb2fit.grouped import GroupedDataset
from gb2fit.io import write_grouped_jsonl


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
        write_dataset(inp, FamilySpec.lognormal(0.0, 0.8), id="ln")
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

    def test_gmm_missing_mean_isolated(self, tmp_path):
        inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_dataset(inp, FamilySpec.weibull(1.4, 1.0), id="nomean")
        code = main(
            ["fit", "--input", str(inp), "--output", str(out),
             "--families", "weibull", "--method", "both", "--mc-n", "2000"]
        )
        assert code == 1  # the GMM row failed
        rows = read_jsonl(out)
        nls = next(r for r in rows if r.get("method") == "nls")
        gmm = next(r for r in rows if r.get("method") == "gmm")
        assert nls["error"] is None and nls["gini"] is not None
        assert "mean required" in gmm["error"]

    def test_both_reports_closer_method(self, tmp_path):
        inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        spec = FamilySpec.weibull(1.4, 1.0)
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

    @pytest.mark.parametrize(
        "exc", [DomainError, NonConvergenceError, np.linalg.LinAlgError, FloatingPointError]
    )
    def test_fit_exception_isolated(self, tmp_path, monkeypatch, exc):
        inp = tmp_path / "in.jsonl"
        write_dataset(inp, FamilySpec.lognormal(0.0, 0.8), id="ln")

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

    def test_missing_input_exit_2(self, tmp_path):
        code = main(
            ["fit", "--input", str(tmp_path / "nope.jsonl"),
             "--output", str(tmp_path / "out.jsonl")]
        )
        assert code == 2


class TestSimulate:
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

    def test_microdata_out_needs_single_source(self, tmp_path):
        code = main(
            ["simulate", "--output", str(tmp_path / "s.jsonl"),
             "--n", "1000", "--microdata-out", str(tmp_path / "m.csv")]
        )
        assert code == 2


class TestGroupAndMeasures:
    def test_group_round_trip(self, tmp_path):
        micro, out = tmp_path / "m.csv", tmp_path / "g.jsonl"
        micro.write_text("income,weight\n" + "\n".join(f"{i}.0,1.0" for i in range(1, 101)))
        code = main(["group", "--input", str(micro), "--output", str(out), "--groups", "5"])
        assert code == 0
        rows = read_jsonl(out)
        assert len(rows) == 1 and len(rows[0]["u"]) == 5
        assert rows[0]["gini"] > 0.0

    def test_measures_stdout_json(self, tmp_path, capsys):
        micro = tmp_path / "m.csv"
        micro.write_text("income\n1\n2\n3\n4\n")
        code = main(["measures", "--input", str(micro)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"gini", "atkinson", "mean"}
        assert out["mean"] == pytest.approx(2.5)

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
            spec = FamilySpec.lognormal(0.0, sigma)
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

    def test_empty_input(self, tmp_path):
        inp, rep = tmp_path / "empty.jsonl", tmp_path / "rep.json"
        inp.write_text("")
        code = main(["report", "--input", str(inp), "--output", str(rep)])
        assert code == 0
        data = json.loads(rep.read_text())
        assert data == {"gini_errors": {}, "dominance": {}}


class TestDeterminismAndOrdering:
    def test_fit_order_insensitive(self, tmp_path):
        u = np.arange(1, 11) / 10
        ds1 = GroupedDataset(id="a", u=u, s=d.lorenz(FamilySpec.fisk(2.0, 1.0), u))
        ds2 = GroupedDataset(id="b", u=u, s=d.lorenz(FamilySpec.fisk(3.0, 1.0), u))
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
            GroupedDataset(id=f"d{i}", u=u, s=d.lorenz(FamilySpec.fisk(2.0 + i, 1.0), u))
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

"""File-format round trips for grouped datasets and microdata."""

import json
from pathlib import Path

import numpy as np
import pytest

from gb2fit import io as gio
from gb2fit.exceptions import ValidationError
from gb2fit.grouped import GroupedDataset
from gb2fit.measures import Microdata


def make_ds(id="d1"):
    return GroupedDataset(
        id=id,
        u=np.array([0.5, 1.0]),
        s=np.array([0.3, 1.0]),
        mean=2.5,
        survey_gini=0.2,
    )


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        gio.write_grouped_jsonl([make_ds("a"), make_ds("b")], path)
        back = [ds for _, ds, _ in gio.iter_grouped(path)]
        assert [d.id for d in back] == ["a", "b"]
        assert np.array_equal(back[0].u, [0.5, 1.0])
        assert back[0].mean == 2.5 and back[0].survey_gini == 0.2

    def test_bad_record_isolated(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        path.write_text(
            '{"id": "ok", "u": [0.5, 1.0], "s": [0.3, 1.0]}\n'
            '{"id": "bad", "u": [0.5, 1.0], "s": [0.9, 1.0]}\n'
        )
        rows = list(gio.iter_grouped(path))
        assert rows[0][2] is None and rows[0][1].id == "ok"
        assert rows[1][1] is None and "s_j <= u_j" in rows[1][2]

    @pytest.mark.parametrize("line", ["[1, 2]", '"x"', "3", "null", "true"])
    def test_non_object_line_is_one_bad_record(self, tmp_path, line):
        path = tmp_path / "ds.jsonl"
        path.write_text(line + '\n{"id": "ok", "u": [0.5, 1.0], "s": [0.3, 1.0]}\n')
        rows = list(gio.iter_grouped(path))
        assert [(i, d) for i, d, _ in rows][0] == (0, None)
        assert "JSON object" in rows[0][2]
        assert rows[1][1].id == "ok" and rows[1][2] is None

    def test_mapping_for_a_vector_is_one_bad_record(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        path.write_text('{"id": "bad", "u": {"a": 1}, "s": [0.3, 1.0]}\n'
                        '{"id": "ok", "u": [0.5, 1.0], "s": [0.3, 1.0]}\n')
        rows = list(gio.iter_grouped(path))
        assert rows[0][:2] == (0, None) and rows[0][2]
        assert rows[1][1].id == "ok" and rows[1][2] is None

    def test_readme_record_example(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("Grouped datasets, JSON lines")[1].split("```json")[1]
        record = json.loads(block.split("```")[0])
        path = tmp_path / "ds.jsonl"
        path.write_text(json.dumps(record) + "\n")
        ((_, ds, _),) = gio.iter_grouped(path)
        assert ds.id == "cz88" and ds.mean == 12.5
        assert ds.survey_gini == 0.35

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        path.write_text('\n{"id": "ok", "u": [0.5, 1.0], "s": [0.3, 1.0]}\n\n')
        assert len(list(gio.iter_grouped(path))) == 1


class TestCsv:
    def test_share_columns(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text(
            "id,share1,share2,share3,share4,share5,mean,gini\n"
            "q1,0.05,0.1,0.15,0.3,0.4,12.5,0.35\n"
            "q2,0.2,0.2,0.2,0.2,0.2,,\n"
        )
        back = [ds for _, ds, _ in gio.iter_grouped(path)]
        assert back[0].id == "q1"
        assert np.allclose(back[0].s, np.cumsum([0.05, 0.1, 0.15, 0.3, 0.4]))
        assert np.allclose(back[0].u, [0.2, 0.4, 0.6, 0.8, 1.0])
        assert back[0].mean == 12.5 and back[0].survey_gini == 0.35
        assert back[1].mean is None and back[1].survey_gini is None

    def test_published_shares_in_percent_and_rounded(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text(
            "id,share1,share2,share3,share4,share5\n"
            "pct,5,10,15,30,40\n"
            "rounded,0.051,0.1,0.15,0.3,0.4\n"
            "off,0.06,0.1,0.15,0.3,0.4\n"
        )
        rows = list(gio.iter_grouped(path))
        assert np.allclose(rows[0][1].s, np.cumsum([0.05, 0.1, 0.15, 0.3, 0.4]), rtol=0, atol=1e-15)
        assert np.allclose(rows[1][1].s, np.cumsum([0.051, 0.1, 0.15, 0.3, 0.4]) / 1.001,
                           rtol=0, atol=1e-15)
        assert rows[0][2] is None and rows[1][2] is None
        assert rows[2][:2] == (2, None) and "shares sum to 1.01" in rows[2][2]

    def test_row_short_of_a_share_cell_is_one_bad_record(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("id,share1,share2,share3\nshort,0.2,0.3\nok,0.2,0.3,0.5\n")
        rows = list(gio.iter_grouped(path))
        assert rows[0][:2] == (0, None) and rows[0][2]
        assert rows[1][1].id == "ok" and rows[1][2] is None

    def test_missing_share_columns(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("id,foo\nd1,1.0\n")
        rows = list(gio.iter_grouped(path))
        assert rows[0][1] is None and "share1" in rows[0][2]


class TestMicrodataCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        m = Microdata(values=np.array([1.5, 2.25]), weights=np.array([1.0, 3.0]))
        gio.write_microdata_csv(m, path)
        back, sizes = gio.read_microdata_csv(path)
        assert np.array_equal(back.values, m.values)
        assert np.array_equal(back.weights, m.weights)
        assert sizes is None

    def test_household_size_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("income,weight,household_size\n10,1,4\n20,2,1\n")
        m, sizes = gio.read_microdata_csv(path)
        assert np.array_equal(sizes, [4.0, 1.0])
        assert np.array_equal(m.values, [10.0, 20.0])

    def test_household_size_for_only_some_records(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("income,weight,household_size\n10,1,4\n20,2,\n")
        with pytest.raises(ValidationError, match="household_size present for only some records"):
            gio.read_microdata_csv(path)

    def test_default_weight(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("income\n5\n6\n")
        m, _ = gio.read_microdata_csv(path)
        assert np.array_equal(m.weights, [1.0, 1.0])

    def test_empty_income_cell_names_its_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("income,weight\n5,1\n,1\n")
        with pytest.raises(ValidationError, match="line 3"):
            gio.read_microdata_csv(path)

    def test_missing_income_column_names_file_and_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("weight\n1\n")
        with pytest.raises(ValidationError, match="income") as exc:
            gio.read_microdata_csv(path)
        assert str(path) in str(exc.value)

"""The paper's comparison on the 130-dataset study of ``study.py``: for each
grouping and each part of the study, the presets (ids ``preset-*``) and the
single-family truths, the mean |Gini error| against each record's sample
Gini of the lower bound and of each family and method of ``fit --method
both``, as ``report`` computes it.  ``tests/test_comparison.py`` compares a
fresh run with the committed ``comparison.json`` and pins its findings.

Run from the repository root:

    PYTHONPATH=src python tests/golden/comparison.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import study  # beside this script
from gb2fit.cli import main

HERE = Path(__file__).resolve().parent


def _run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0, argv


def comparison():
    """{grouping: {"presets" | "truths": {row: mean |Gini error|}}}."""
    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        study.make(tmp)
        for grouping in study.GROUPINGS:
            fit = tmp / f"fit-{grouping}.jsonl"
            _run("fit", "--method", "both", "--input", str(tmp / f"study-{grouping}.jsonl"),
                 "--output", str(fit))
            parts = {"presets": [], "truths": []}
            for line in fit.read_text().splitlines():
                preset = json.loads(line)["id"].startswith("preset-")
                parts["presets" if preset else "truths"].append(line + "\n")
            table[grouping] = {}
            for part, lines in parts.items():
                part_fit, report = tmp / f"{part}.fit.jsonl", tmp / f"{part}.report.json"
                part_fit.write_text("".join(lines))
                _run("report", "--input", str(part_fit), "--output", str(report))
                errors = json.loads(report.read_text())["gini_errors"]
                table[grouping][part] = {row: e["mean_abs_error"] for row, e in errors.items()}
    return table


if __name__ == "__main__":
    with open(HERE / "comparison.json", "w") as fh:
        json.dump(comparison(), fh, indent=2)
        fh.write("\n")

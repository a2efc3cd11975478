"""Regenerate the golden corpus: each input here, its ``fit --method
both`` output and the ``report`` of that output, which
``tests/test_golden.py`` compares a fresh fit and a fresh report with.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make.py

A change that moves the output regenerates the files in the same commit
and names the rows it moved.
"""

import json
from pathlib import Path

from gb2fit.cli import main

HERE = Path(__file__).resolve().parent

# simulate options of each simulated input
SIMULATED = {
    "presets-seed3-n10000-g10": ["--seed", "3"],
    "presets-seed3-n2000-g5": ["--seed", "3", "--n", "2000", "--groups", "5"],
    # gb2 NLS ends unconverged at the iteration cap on this record
    "lognormal-seed6": ["--family", "lognormal", "--params", "0,1.2", "--seed", "6"],
    # heavy tails: the mean exists but the second moment does not
    "sm-seed3": ["--family", "sm", "--params", "1.5,1,0.8", "--seed", "3"],
    "dagum-seed3": ["--family", "dagum", "--params", "1.6,1,0.7", "--seed", "3"],
    "gb2-seed3": ["--family", "gb2", "--params", "1.2,1,2,1", "--seed", "3"],
}
EDGES = [
    # no mean: GMM runs at unit scale
    {"id": "nomean", "u": [0.2, 0.4, 0.6, 0.8, 1.0], "s": [0.05, 0.15, 0.3, 0.52, 1.0]},
    # the moments overflow, so every GMM cell falls back to NLS
    {"id": "huge", "u": [0.2, 0.4, 0.6, 0.8, 1.0], "s": [0.05, 0.15, 0.3, 0.52, 1.0], "mean": 1e200},
    # group 2's mean share is below group 1's: no Lorenz curve has these shares
    {"id": "nc", "u": [0.2, 0.4, 0.6, 0.8, 1.0], "s": [0.08, 0.15, 0.30, 0.52, 1.0]},
    # equal shares and a survey Gini of 0: the limit of equal incomes, which
    # every family fits on the edge of the shape box
    {"id": "equal", "u": [0.2, 0.4, 0.6, 0.8, 1.0], "s": [0.2, 0.4, 0.6, 0.8, 1.0], "gini": 0.0},
]


def make():
    for name, argv in SIMULATED.items():
        main(["simulate", "--output", str(HERE / f"{name}.jsonl"), *argv])
    with open(HERE / "edges.jsonl", "w") as fh:
        fh.writelines(json.dumps(record) + "\n" for record in EDGES)
    for name in [*SIMULATED, "edges"]:
        main(["fit", "--method", "both", "--input", str(HERE / f"{name}.jsonl"),
              "--output", str(HERE / f"{name}.fit.jsonl")])
        main(["report", "--input", str(HERE / f"{name}.fit.jsonl"),
              "--output", str(HERE / f"{name}.report.json")])


if __name__ == "__main__":
    make()

"""Write the inputs of the 130-dataset study that a solver change is
checked on: the six mixture presets at seeds 3-7 and seven single-family
truths at seeds 3-7, each simulated at n = 10,000 in 10 groups and at
n = 2,000 in 5 groups.  Each grouping goes to one file, in a fixed order,
so two runs write the same bytes.

Run from the repository root:

    PYTHONPATH=src python tests/golden/study.py OUTDIR

and fit each file on both sides of a change, for example

    PYTHONPATH=src python -m gb2fit.cli fit --method both \\
        --input OUTDIR/study-n10000-g10.jsonl --output fit-g10.jsonl
"""

import contextlib
import io
import sys
from pathlib import Path

from gb2fit.cli import main

SEEDS = range(3, 8)
GROUPINGS = {"n10000-g10": ["--n", "10000", "--groups", "10"], "n2000-g5": ["--n", "2000", "--groups", "5"]}
TRUTHS = {
    "sm": "1.5,1,0.8",
    "dagum": "1.6,1,0.7",
    "gb2": "1.2,1,2,1",
    "lognormal": "0,1.2",
    "b2": "1,2.5,3",
    "fisk": "2.5,1",
    "weibull": "1.4,1",
}


def sources():
    """The simulate options of each source: the presets of a seed, or a truth."""
    for seed in SEEDS:
        yield ["--seed", str(seed)]
    for family, params in TRUTHS.items():
        for seed in SEEDS:
            yield ["--family", family, "--params", params, "--seed", str(seed)]


def make(outdir):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    part = outdir / "study.part.jsonl"
    for name, grouping in GROUPINGS.items():
        with open(outdir / f"study-{name}.jsonl", "w") as out:
            for argv in sources():
                with contextlib.redirect_stdout(io.StringIO()):
                    main(["simulate", "--output", str(part), *grouping, *argv])
                out.write(part.read_text())
    part.unlink()


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: study.py OUTDIR")
    make(sys.argv[1])

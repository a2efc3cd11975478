"""File formats: JSON-lines grouped datasets, CSV share tables and
microdata CSV."""

import csv
import json
from pathlib import Path

import numpy as np

from .exceptions import ValidationError
from .grouped import GroupedDataset, from_shares
from .measures import Microdata

__all__ = [
    "iter_grouped",
    "write_grouped_jsonl",
    "read_microdata_csv",
    "write_microdata_csv",
]


def _grouped_from_json(obj):
    if not isinstance(obj, dict):
        raise ValidationError(f"record must be a JSON object, got {type(obj).__name__}")
    return GroupedDataset(
        id=str(obj.get("id", "dataset")),
        u=np.asarray(obj["u"], dtype=float),
        s=np.asarray(obj["s"], dtype=float),
        mean=obj.get("mean"),
        survey_gini=obj.get("gini"),
    )


def _grouped_from_csv_row(row):
    share_cols = sorted(
        (c for c in row if c.startswith("share") and c[5:].isdigit()),
        key=lambda c: int(c[5:]),
    )
    if not share_cols:
        raise ValidationError("no share1..shareJ columns found")
    shares = [float(row[c]) for c in share_cols]
    mean = float(row["mean"]) if row.get("mean") not in (None, "") else None
    gini = float(row["gini"]) if row.get("gini") not in (None, "") else None
    return from_shares(
        shares, id=str(row.get("id", "dataset")), mean=mean, survey_gini=gini
    )


def iter_grouped(path):
    """Yield (index, dataset, error) per record; a bad record yields
    (index, None, message) and never aborts the batch."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        with open(path, newline="") as fh:
            for i, row in enumerate(csv.DictReader(fh)):
                try:
                    yield i, _grouped_from_csv_row(row), None
                except (ValidationError, ValueError, KeyError, TypeError) as exc:
                    yield i, None, str(exc)
        return
    with open(path) as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                yield i, _grouped_from_json(json.loads(line)), None
            except (ValidationError, ValueError, KeyError, TypeError) as exc:
                yield i, None, str(exc)


def write_grouped_jsonl(datasets, path):
    with open(path, "w") as fh:
        for d in datasets:
            obj = {"id": d.id, "u": list(map(float, d.u)), "s": list(map(float, d.s))}
            if d.mean is not None:
                obj["mean"] = float(d.mean)
            if d.survey_gini is not None:
                obj["gini"] = float(d.survey_gini)
            fh.write(json.dumps(obj) + "\n")


def read_microdata_csv(path):
    """Microdata CSV with columns income[, weight][, household_size]: a
    weight column needs a number in every row; without one each weight is 1."""
    incomes, weights, sizes = [], [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        columns = reader.fieldnames or ()
        if "income" not in columns:
            raise ValidationError(f"{path}: no income column")
        for row in reader:
            try:
                incomes.append(float(row["income"]))
                weights.append(float(row["weight"]) if "weight" in columns else 1.0)
                if row.get("household_size") not in (None, ""):
                    sizes.append(float(row["household_size"]))
            except (ValueError, TypeError) as exc:  # an empty or short cell
                raise ValidationError(f"{path} line {reader.line_num}: {exc}") from None
    m = Microdata(values=np.asarray(incomes), weights=np.asarray(weights))
    household_sizes = np.asarray(sizes) if sizes else None
    if household_sizes is not None and len(household_sizes) != len(incomes):
        raise ValidationError("household_size present for only some records")
    return m, household_sizes


def write_microdata_csv(m, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["income", "weight"])
        for x, w in zip(m.values, m.weights):
            writer.writerow([repr(float(x)), repr(float(w))])

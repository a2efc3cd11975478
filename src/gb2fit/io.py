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


def _csv_row(header, cells):
    """A CSV record's cells by column: it needs one cell per header column."""
    if len(cells) != len(header):
        raise ValidationError(f"cell count {len(cells)} differs from the header's {len(header)}")
    return dict(zip(header, cells))


def _number(row, column):
    try:
        return float(row[column])
    except ValueError:
        raise ValidationError(f"{column} {row[column]!r} is not a number") from None


def _grouped_from_csv_row(row):
    share_cols = sorted(
        (c for c in row if c.startswith("share") and c[5:].isdecimal()),
        key=lambda c: int(c[5:]),
    )
    if not share_cols:
        raise ValidationError("no share1..shareJ columns found")
    shares = [_number(row, c) for c in share_cols]
    mean = _number(row, "mean") if row.get("mean") else None  # a blank cell is no value
    gini = _number(row, "gini") if row.get("gini") else None
    return from_shares(
        shares, id=str(row.get("id", "dataset")), mean=mean, survey_gini=gini
    )


def iter_grouped(path):
    """Yield (index, dataset, error) per record; a bad record yields
    (index, None, message) and never aborts the batch.  A CSV record's
    message names its line."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            for i, cells in enumerate(filter(None, reader)):  # a blank line is no record
                try:
                    yield i, _grouped_from_csv_row(_csv_row(header, cells)), None
                except ValidationError as exc:
                    yield i, None, f"line {reader.line_num}: {exc}"
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
    """Microdata CSV with columns income[, weight][, household_size]: each
    column needs a number in every row; without a weight column each weight
    is 1.  A bad record is an error that names its line."""
    incomes, weights, sizes = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if "income" not in header:
            raise ValidationError(f"{path}: no income column")
        for cells in filter(None, reader):  # a blank line is no record
            try:
                row = _csv_row(header, cells)
                incomes.append(_number(row, "income"))
                weights.append(_number(row, "weight") if "weight" in row else 1.0)
                if "household_size" in row:
                    sizes.append(_number(row, "household_size"))
            except ValidationError as exc:
                raise ValidationError(f"{path} line {reader.line_num}: {exc}") from None
    m = Microdata(values=np.asarray(incomes), weights=np.asarray(weights))
    return m, np.asarray(sizes) if "household_size" in header else None


def write_microdata_csv(m, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["income", "weight"])
        for x, w in zip(m.values, m.weights):
            writer.writerow([repr(float(x)), repr(float(w))])

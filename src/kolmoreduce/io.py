"""Distribution tables on disk: CSV (`value,probability` per line, header
optional) and JSON (`{"values": [...], "probs": [...]}`).

CSV is parsed by numpy in one pass; a file numpy rejects is parsed again
line by line, which decides what is accepted and names the offending line.
Writers emit 17 significant digits, so a write/read round trip reproduces
every float exactly, and they go through a temp file plus rename so a
failure never leaves a partial file behind.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
import warnings

import numpy as np

from .distribution import DiscreteDistribution, _from_columns
from .errors import KolmoreduceError


class DistributionParseError(KolmoreduceError, ValueError):
    """Input file does not parse as a distribution table."""


def _looks_numeric(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def _is_header(row: list[str] | None) -> bool:
    """Whether the row parser skips the file's first row as a header."""
    return row is not None and len(row) == 2 and not _looks_numeric(row[0].strip())


def _parse_csv_rows(path: str) -> tuple[list[float], list[float]]:
    """The per-line parser: every row it rejects is named by line number."""
    values, probs = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 2:
                raise DistributionParseError(
                    f"{path}:{lineno}: expected 2 fields, got {len(row)}"
                )
            a, b = row[0].strip(), row[1].strip()
            if lineno == 1 and _is_header(row):
                continue  # header row
            try:
                values.append(float(a))
                probs.append(float(b))
            except ValueError:
                raise DistributionParseError(
                    f"{path}:{lineno}: non-numeric field in {row!r}"
                ) from None
    if not values:
        raise DistributionParseError(f"{path}: no data rows")
    return values, probs


def _load_csv_table(path: str) -> np.ndarray | None:
    """The whole file as a (k >= 1, 2) float64 table parsed by numpy in C,
    or None when numpy rejects any of it or warns.  numpy rejects the quoted
    fields, underscores and non-ASCII digits that csv and float() accept, so
    on text it accepts, both parsers read the same fields as the same floats."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            skip = int(_is_header(next(csv.reader(fh), None)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(
                path, delimiter=",", comments=None, skiprows=skip,
                ndmin=2, dtype=np.float64, encoding="utf-8",
            )
    except Exception:  # the per-line parser reports what is wrong
        return None
    return table if table.shape[0] >= 1 and table.shape[1] == 2 else None


def _read_csv(path: str, renormalize: bool) -> DiscreteDistribution:
    table = _load_csv_table(path)
    columns = _parse_csv_rows(path) if table is None else (table[:, 0], table[:, 1])
    return _wrap_validation(path, *columns, renormalize)


def _read_json(path: str, renormalize: bool) -> DiscreteDistribution:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DistributionParseError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(obj, dict) or "values" not in obj or "probs" not in obj:
        raise DistributionParseError(f"{path}: needs 'values' and 'probs' fields")
    values, probs = obj["values"], obj["probs"]
    if not isinstance(values, list) or not isinstance(probs, list) or len(values) != len(probs):
        raise DistributionParseError(f"{path}: 'values' and 'probs' must be equal-length lists")
    return _wrap_validation(path, values, probs, renormalize)


def _wrap_validation(path: str, values, probs, renormalize: bool) -> DiscreteDistribution:
    try:
        return _from_columns(values, probs, renormalize=renormalize)
    except (KolmoreduceError, ValueError, TypeError) as exc:
        raise DistributionParseError(f"{path}: {exc}") from None


def read_distribution_file(
    path: str, *, renormalize: bool = False
) -> tuple[DiscreteDistribution, str]:
    """Read a distribution table; returns (distribution, format) with format
    "csv" or "json", detected from the extension or a leading brace."""
    if not os.path.exists(path):
        raise DistributionParseError(f"{path}: no such file")
    fmt = "json" if path.lower().endswith(".json") else "csv"
    if fmt == "csv":
        with open(path, "r", encoding="utf-8") as fh:
            head = fh.read(64).lstrip()
        if head.startswith("{"):
            fmt = "json"
    if fmt == "json":
        return _read_json(path, renormalize), "json"
    return _read_csv(path, renormalize), "csv"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".kolmoreduce-")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _join17(xs: np.ndarray) -> str:
    return ", ".join(["%.17g"] * xs.size) % tuple(xs.tolist())


def write_distribution_file(dist: DiscreteDistribution, path: str, fmt: str = "csv") -> None:
    """Write a distribution table in the given format ("csv" or "json")."""
    if fmt == "csv":
        cells = np.column_stack((dist.values, dist.probs)).ravel().tolist()
        _atomic_write(path, "value,probability\n" + ("%.17g,%.17g\n" * dist.n) % tuple(cells))
    elif fmt == "json":
        values, probs = _join17(dist.values), _join17(dist.probs)
        _atomic_write(path, f'{{"values": [{values}], "probs": [{probs}]}}\n')
    else:
        raise ValueError(f"unknown format {fmt!r}")

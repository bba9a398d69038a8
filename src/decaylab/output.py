"""Deterministic file output: CSV tables and structured-text reports.

CSV: '.' decimal, ',' separator, '#'-prefixed header lines, 17 significant
digits (full double-precision round trip).  No timestamps anywhere, so
identical runs produce byte-identical files.  Writes are atomic (temp file
in the target directory, then rename).
"""

from __future__ import annotations

import os
import tempfile
from typing import Mapping, Sequence

import numpy as np


def fmt(x) -> str:
    return format(float(x), ".17g")


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def header_lines(params: Mapping) -> list[str]:
    lines = []
    for key in params:
        lines.append(f"# {key} = {params[key]}")
    return lines


def write_csv(path: str, columns: Sequence[tuple[str, np.ndarray]], params: Mapping) -> None:
    """Table with '#' header echoing all parameters, then pure data rows."""
    names = [name for name, _ in columns]
    arrays = [np.asarray(col, dtype=float) for _, col in columns]
    n = arrays[0].size if arrays else 0
    for name, arr in zip(names, arrays):
        if arr.size != n:
            raise ValueError(f"column {name!r} has {arr.size} rows, expected {n}")
    lines = header_lines(params)
    lines.append("# columns: " + ",".join(names))
    # "%.17g" formats a float as fmt does, one pattern a row
    row = ",".join(["%.17g"] * len(arrays))
    lines.extend(row % values for values in zip(*(arr.tolist() for arr in arrays)))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_csv(path: str) -> tuple[dict, list[str], dict[str, np.ndarray]]:
    """Parse a decaylab CSV back into (params, column names, columns)."""
    params: dict = {}
    names: list[str] = []
    rows: list[list[float]] = []
    with open(path, "r") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("columns:"):
                    names = [c.strip() for c in body[len("columns:"):].split(",")]
                elif "=" in body:
                    key, _, value = body.partition("=")
                    params[key.strip()] = value.strip()
                continue
            rows.append([float(tok) for tok in line.split(",")])
    data = np.asarray(rows, dtype=float) if rows else np.zeros((0, len(names)))
    columns = {name: data[:, j] for j, name in enumerate(names)}
    return params, names, columns


def write_report(path: str, params: Mapping, sections: Sequence[tuple[str, Sequence[tuple[str, object]]]]) -> None:
    """Structured-text report: '#' parameter echo, then [section] key = value."""
    lines = header_lines(params)
    for section, entries in sections:
        lines.append(f"[{section}]")
        for key, value in entries:
            if isinstance(value, float):
                value = fmt(value)
            lines.append(f"{key} = {value}")
        lines.append("")
    atomic_write_text(path, "\n".join(lines) + "\n")

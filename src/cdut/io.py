"""Instance file format: a one-line header, then one point per line.

    d=2 n=3 metric=l2
    0.5,1.25
    -3.0,4.0
    10.0,1e-06

Floats are written with repr precision, so a write/read round trip
reproduces the coordinates bit-for-bit.  Parse errors carry line numbers.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

import numpy as np

from .core import Metric, PointSet

__all__ = ["InstanceParseError", "read_instance", "write_instance"]


class InstanceParseError(ValueError):
    def __init__(self, path, line: int, message: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


def write_instance(path, points: PointSet, metric: Optional[Metric] = None) -> None:
    tag = (metric or Metric()).name
    lines = [f"d={points.dim} n={len(points)} metric={tag}"]
    for row in points.points:
        lines.append(",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_header(path, line: str) -> tuple[int, int, Optional[str]]:
    fields = {}
    for token in line.split():
        if "=" not in token:
            raise InstanceParseError(path, 1, f"malformed header token {token!r}")
        key, value = token.split("=", 1)
        if key in fields:
            raise InstanceParseError(path, 1, f"header repeats the {key}= field")
        fields[key] = value
    try:
        d = int(fields["d"])
        n = int(fields["n"])
    except (KeyError, ValueError):
        raise InstanceParseError(path, 1, "header must contain integer d= and n= fields") from None
    if d < 1 or n < 1:
        raise InstanceParseError(path, 1, f"header requires d >= 1 and n >= 1, got d={d} n={n}")
    tag = fields.get("metric")
    if tag is not None:
        try:
            Metric.from_name(tag)
        except ValueError as exc:
            raise InstanceParseError(path, 1, str(exc)) from None
    return d, n, tag


def read_instance(path) -> tuple[PointSet, Optional[str]]:
    """Load a point set; returns the set and the header's metric tag, if any."""
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines:
        raise InstanceParseError(path, 1, "empty file")
    d, n, metric_tag = _parse_header(path, lines[0])
    rows = []
    for lineno, raw in enumerate(lines[1:], start=2):
        stripped = raw.strip()
        if not stripped:
            continue
        parts = stripped.split(",")
        if len(parts) != d:
            raise InstanceParseError(path, lineno, f"expected {d} fields, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise InstanceParseError(path, lineno, f"bad coordinate: {exc}") from None
    if len(rows) != n:
        raise InstanceParseError(path, len(lines), f"header promised {n} points, found {len(rows)}")
    return PointSet(np.asarray(rows)), metric_tag

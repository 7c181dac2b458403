"""Canonical JSON and CSV emission.

Outputs must be byte-identical across reruns: keys sorted, floats rounded
to 9 significant digits, infinities spelled "inf" (JSON has no literal
for them), containers emitted in deterministic order.
"""

from __future__ import annotations

import csv
import io
import json
import math

SCHEMA = "coarsekit/1"


def _canonical(value):
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            raise ValueError("NaN is not representable in canonical output")
        if value == int(value) and abs(value) < 1e15:
            return int(value)
        return float("%.9g" % value)
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        # numpy scalar
        return _canonical(value.item())
    return value


def canonical_json(obj) -> str:
    return json.dumps(_canonical(obj), sort_keys=True, separators=(", ", ": "), indent=1)


def format_cell(value) -> str:
    v = _canonical(value)
    if isinstance(v, float):
        return "%.9g" % v
    return str(v)


def csv_text(header, rows) -> str:
    """CSV text with LF line endings on every platform.  Each cell goes
    through format_cell; cells holding a comma or a quote (tuple point
    labels) are quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([format_cell(c) for c in row] for row in rows)
    return buf.getvalue()

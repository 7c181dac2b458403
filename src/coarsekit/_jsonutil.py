"""Canonical JSON and CSV emission.

Outputs must be byte-identical across reruns: keys sorted, floats rounded
to 9 significant digits, infinities spelled "inf" (JSON has no literal
for them), containers emitted in deterministic order.  The text is the
one ``json.dumps(..., sort_keys=True, indent=1, separators=(", ", ": "))``
gives, written in one recursive pass that renders integer arrays a row
at a time; a text bound for a stream is written in batches as it is
made.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from json.encoder import encode_basestring_ascii

import numpy as np

SCHEMA = "coarsekit/1"

# A streamed text reaches its sink in batches of at most this many
# characters, which are bytes too: the text is ASCII.
_BATCH_CHARS = 1 << 20


def _canonical(value):
    """Plain JSON values, integer arrays kept as they are.  NaN and any
    value JSON cannot encode raise here, before anything is written."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            raise ValueError("NaN is not representable in canonical output")
        # round first, so a float within 9 digits of an integer prints as one
        value = float("%.9g" % value)
        if value == int(value) and abs(value) < 1e15:
            return int(value)
        return value
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "i" and value.ndim:
            return value
        return _canonical(value.tolist())
    if value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, np.generic):
        return _canonical(value.item())
    raise ValueError(f"{type(value).__name__} is not representable in canonical output")


def canonical_json(obj, write=None):
    """The canonical text of ``obj``: returned whole, or, when ``write`` is
    given, passed to it with a closing newline in batches of at most
    ``_BATCH_CHARS`` as they are made.  Integer arrays render one row at a
    time, so a streamed array is never held as text all at once.  Everything
    that can fail (NaN, a value JSON cannot encode) runs before the first
    write, and both ways give the same text."""
    chunks = _pieces(_canonical(obj), 0)
    if write is None:
        return "".join(chunks)
    batch, size = [], 0
    for chunk in itertools.chain(chunks, ["\n"]):
        while size + len(chunk) > _BATCH_CHARS:
            cut = _BATCH_CHARS - size
            batch.append(chunk[:cut])
            write("".join(batch))
            batch, size, chunk = [], 0, chunk[cut:]
        batch.append(chunk)
        size += len(chunk)
    write("".join(batch))


def _scalar(value):
    """The JSON text of a canonical leaf."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return {None: "null", True: "true", False: "false"}[value]
    return repr(value)


def _pieces(value, level):
    """The text of the canonical ``value`` at nesting ``level``, in pieces:
    a container opens a line per entry, dict entries by sorted key, and
    its leaves are written in the entry's own piece."""
    if isinstance(value, np.ndarray):
        return _render_ints(value, level)
    if isinstance(value, dict):
        return _entries(sorted(value.items()), "{}", level)
    if isinstance(value, list):
        return _entries([(None, v) for v in value], "[]", level)
    return [_scalar(value)]


def _entries(items, brackets, level):
    if not items:
        yield brackets
        return
    inner = "\n" + " " * (level + 1)
    head = brackets[0] + inner
    for key, value in items:
        if key is not None:
            head += encode_basestring_ascii(key) + ": "
        if isinstance(value, (dict, list, np.ndarray)):
            yield head
            yield from _pieces(value, level + 1)
        else:
            yield head + _scalar(value)
        head = ", " + inner
    yield "\n" + " " * level + brackets[1]


def _render_ints(array, level):
    """The text ``json.dumps(array.tolist(), indent=1, separators=(", ",
    ": "))`` writes at nesting ``level``, in pieces of at most one row of
    the last axis."""
    lo, hi = (int(array.min()), int(array.max())) if array.size else (0, 0)
    if hi - lo < array.size:
        # a table of every value in range is no larger than the array
        table = np.array([str(v) for v in range(lo, hi + 1)], dtype=object)
        strings = lambda row: table[row.astype(np.intp) - lo].tolist()
    else:
        strings = lambda row: map(str, row.tolist())

    def render(sub, level):
        if len(sub) == 0:
            yield "[]"
            return
        inner = "\n" + " " * (level + 1)
        yield "[" + inner
        if sub.ndim == 1:
            yield (", " + inner).join(strings(sub))
        else:
            for k, child in enumerate(sub):
                if k:
                    yield ", " + inner
                yield from render(child, level + 1)
        yield "\n" + " " * level + "]"

    return render(array, level)


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

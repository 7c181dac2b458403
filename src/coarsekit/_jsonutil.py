"""Canonical JSON and CSV emission.

Outputs must be byte-identical across reruns: keys sorted, floats rounded
to 9 significant digits, infinities spelled "inf" (JSON has no literal
for them), containers emitted in deterministic order.  Integer arrays
are rendered directly and spliced into the text, with the layout
``json.dumps`` gives their ``tolist()``; a text bound for a stream is
written in batches as it is made.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import re

import numpy as np

SCHEMA = "coarsekit/1"

# Stands in for integer array number k until its text is spliced in; argv
# and point labels never hold NUL, so no payload string looks like it.
_SLOT = "\x00array{}\x00"
_SLOT_TEXT = re.compile(r'"\\u0000array(\d+)\\u0000"')

# A streamed text reaches its sink in batches of at most this many
# characters, which are bytes too: the text is ASCII.
_BATCH_CHARS = 1 << 20


def _canonical(value, arrays):
    """Plain JSON values; integer arrays are appended to ``arrays`` and
    replaced by their numbered ``_SLOT``."""
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
        return {str(k): _canonical(v, arrays) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v, arrays) for v in value]
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "i" and value.ndim:
            arrays.append(value)
            return _SLOT.format(len(arrays) - 1)
        return _canonical(value.tolist(), arrays)
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        # numpy scalar
        return _canonical(value.item(), arrays)
    return value


def canonical_json(obj, write=None):
    """The canonical text of ``obj``: returned whole, or, when ``write`` is
    given, passed to it with a closing newline in batches of at most
    ``_BATCH_CHARS`` as they are made.  Integer arrays render one row at a
    time, so a streamed array is never held as text all at once.  Everything
    that can fail (NaN, a payload string that looks like a slot) runs before
    the first write, and both ways give the same text."""
    arrays = []
    text = json.dumps(_canonical(obj, arrays), sort_keys=True, separators=(", ", ": "), indent=1)
    pieces, order = [text], []
    if arrays:
        # sort_keys reorders entries, so slots appear in text order, not k order
        pieces = _SLOT_TEXT.split(text)
        order = [int(k) for k in pieces[1::2]]
        if sorted(order) != list(range(len(arrays))):
            raise ValueError("a payload string collides with an array slot")
    chunks = _spliced(pieces[::2], order, arrays)
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


def _spliced(texts, order, arrays):
    """The text pieces around the slots, with slot number ``order[i]``
    between ``texts[i]`` and ``texts[i + 1]`` rendered in place."""
    yield texts[0]
    for before, k, after in zip(texts, order, texts[1:]):
        # the slot opens a line as a list item or a key's value; that
        # line's indent is the array's nesting level
        line = before[before.rfind("\n") + 1 :]
        yield from _render_ints(arrays[k], len(line) - len(line.lstrip(" ")))
        yield after


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
    v = _canonical(value, [])
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

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

import io
import itertools
import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .metric import blocks

SCHEMA = "coarsekit/1"

# A streamed text reaches its sink in batches of at most this many
# characters, which are bytes too: the text is ASCII.  A batch and its
# encoded copy stay below the C allocator's threshold for mapping fresh
# pages (128 KiB in glibc), so each reuses freed heap memory: 1 MiB batches
# spent about 20 ms more on faults writing the 24 MB Heisenberg r8 window.
_BATCH_CHARS = 1 << 16


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
    texts = _row_texts(array, ", \n" + " " * (level + array.ndim))

    def render(sub, level):
        if len(sub) == 0:
            yield "[]"
            return
        inner = "\n" + " " * (level + 1)
        yield "[" + inner
        if sub.ndim == 1:
            yield next(texts)
        else:
            for k, child in enumerate(sub):
                if k:
                    yield ", " + inner
                yield from render(child, level + 1)
        yield "\n" + " " * level + "]"

    return render(array, level)


def _gram_width(span, size):
    """How many consecutive values of an array of ``size`` values in a
    range of ``span`` one lookup renders: the largest k with
    64 span^k <= size, at least 1 and at most 3."""
    k = 1
    while k < 3 and 64 * span ** (k + 1) <= size:
        k += 1
    return k


def _row_texts(array, sep):
    """The values of each last-axis row of a nonempty ``array`` joined by
    ``sep``, row after row.

    With V = hi - lo + 1 values in range, a row is read as k-grams of
    consecutive values, k from ``_gram_width``, and each k-gram (and the
    row's shorter tail) is one lookup in a table of their texts.  A table
    of pairs or triples holds at most a 64th as many entries as the array,
    one of single values no more than it; a range wider than the array is
    written value by value.  Keys are computed a block of rows at a time."""
    rows = array.reshape(-1, array.shape[-1])
    lo, hi = int(rows.min()), int(rows.max())
    span = hi - lo + 1
    if span > rows.size:
        for row in rows:
            yield sep.join(map(str, row.tolist()))
        return
    k = _gram_width(span, rows.size)
    whole, tail = divmod(rows.shape[1], k)
    values = [str(v) for v in range(lo, hi + 1)]
    table = np.array(
        [sep.join(gram) for width in (k, tail) if width for gram in itertools.product(values, repeat=width)],
        dtype=object,
    )
    # no temporary of a block takes more than 8 bytes a value; keys index a
    # table of python strings, so they fit int32
    for part in blocks(len(rows), 8 * rows.shape[1]):
        # v - lo is in [0, V), so it is exact read unsigned after a wrapping subtract
        block = np.subtract(rows[part], rows.dtype.type(lo)).view(f"u{rows.itemsize}")
        # the gram (v_1, ..., v_k) is entry sum (v_t - lo) V^(k - t), and the
        # tail's entries follow the V^k grams
        keys = np.empty((len(block), whole + (tail > 0)), dtype=np.int32)
        grams = keys[:, :whole]
        grams[...] = block[:, 0 : whole * k : k]
        for t in range(1, k):
            grams *= span
            grams += block[:, t : whole * k : k]
        if tail:
            keys[:, whole] = span**k
            for t in range(tail):
                keys[:, whole] += block[:, whole * k + t].astype(np.int32) * span ** (tail - 1 - t)
        for pieces in table.take(keys).tolist():
            yield sep.join(pieces)


def format_cell(value) -> str:
    v = _canonical(value)
    if isinstance(v, float):
        return "%.9g" % v
    return str(v)


def csv_text(header, rows) -> str:
    """CSV text with LF line endings on every platform.  Each cell goes
    through format_cell; cells holding a comma or a quote (tuple point
    labels) are quoted.  ``csv`` is imported here, so a command that
    writes no CSV never loads it."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([format_cell(c) for c in row] for row in rows)
    return buf.getvalue()

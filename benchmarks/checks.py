"""Output checks against reference values recorded from the seed commit.

A reference holds only the fields worth comparing for one argv:

- ``ball``: the group and radius, and SHA-256 digests of the point labels
  and of the distance matrix;
- ``profile`` / ``gromov``: the CSV rows, keyed by column name;
- ``certify-a``: ``variation``, ``bounds`` and ``audit.pass``;
- ``embed``: ``selected``, ``audit`` and ``buckets``.

Numbers are compared at 9 significant digits, the precision coarsekit
emits.  Keys present in the output but absent from the reference are
ignored, so new output fields never trip the check.

Record the references (only ever from the seed commit) with
``python3 benchmarks/checks.py --record``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

_KEEP = {
    "ball": ("group", "radius", "points_sha256", "dist_sha256"),
    "certify-a": ("variation", "bounds", "audit.pass"),
    "embed": ("selected", "audit", "buckets"),
    "profile": ("rows",),
    "gromov": ("rows",),
}


def argv_key(argv) -> str:
    return " ".join(argv)


def load_references() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _matrix_digest(rows) -> str:
    import numpy as np

    arr = np.asarray(rows)
    if arr.dtype.kind in "iu":
        data = arr.astype("<i8").tobytes()
    else:
        data = np.array([_canon(float(x)) for x in arr.ravel()], dtype="<f8").tobytes()
    return hashlib.sha256(repr(arr.shape).encode() + data).hexdigest()


def observe(argv, stdout: bytes):
    """The comparable view of one command's stdout."""
    text = stdout.decode("utf-8")
    command = argv[0]
    if command in ("profile", "gromov"):
        return {"rows": [{k: _cell(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(text))]}
    obj = json.loads(text)
    if command == "ball" and isinstance(obj, dict) and "dist" in obj:
        labels = json.dumps(obj.pop("points")).encode()
        obj["points_sha256"] = hashlib.sha256(labels).hexdigest()
        obj["dist_sha256"] = _matrix_digest(obj.pop("dist"))
    return obj


def _canon(x: float) -> float:
    return x if math.isinf(x) else float("%.9g" % x)


def mismatches(expected, got, path="$") -> list:
    """Paths where ``got`` differs from ``expected``; extra keys in ``got`` are fine."""
    if isinstance(expected, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        out = []
        for key, value in expected.items():
            if key not in got:
                out.append(f"{path}.{key}: missing")
            else:
                out.extend(mismatches(value, got[key], f"{path}.{key}"))
        return out
    if isinstance(expected, list):
        if not isinstance(got, list) or len(got) != len(expected):
            return [f"{path}: expected a list of {len(expected)}"]
        out = []
        for i, (a, b) in enumerate(zip(expected, got)):
            out.extend(mismatches(a, b, f"{path}[{i}]"))
        return out
    numeric = (int, float)
    if (
        isinstance(expected, numeric) and not isinstance(expected, bool)
        and isinstance(got, numeric) and not isinstance(got, bool)
    ):
        return [] if _canon(float(expected)) == _canon(float(got)) else [f"{path}: {got!r} != {expected!r}"]
    return [] if type(expected) is type(got) and expected == got else [f"{path}: {got!r} != {expected!r}"]


def check(argv, stdout: bytes, references: dict) -> list:
    """Reasons this output fails its reference; empty when it passes."""
    expected = references.get(argv_key(argv))
    if expected is None:
        return ["no reference recorded for this argv"]
    try:
        got = observe(argv, stdout)
    except (UnicodeDecodeError, ValueError) as err:
        return [f"unparseable output: {err}"]
    return mismatches(expected, got)


def project(argv, observed) -> dict:
    """The reference for ``argv``: the fields of ``_KEEP`` taken from an output."""
    out = {}
    for dotted in _KEEP[argv[0]]:
        src, dst = observed, out
        parts = dotted.split(".")
        for part in parts[:-1]:
            src = src[part]
            dst = dst.setdefault(part, {})
        dst[parts[-1]] = src[parts[-1]]
    return out


def _record():
    import run
    import workloads

    with run.Sandbox() as box:
        box.warm_up()
        refs = {}
        for argv in workloads.all_commands():
            proc = box.invoke(argv, trace_run_id=None)
            if proc.returncode != 0:
                raise SystemExit(f"{argv_key(argv)} exited {proc.returncode}")
            refs[argv_key(argv)] = project(argv, observe(argv, proc.stdout))
            print("recorded", argv_key(argv), flush=True)
    REFERENCE_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python3 benchmarks/checks.py --record")
    _record()

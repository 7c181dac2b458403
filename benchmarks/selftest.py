"""Self-tests for the benchmark harness.

    python3 benchmarks/selftest.py

- The output check rejects a corrupted stdout (one changed digit in a
  compared field, for JSON, CSV and the ball digest), a nonzero exit and
  a rerun that is not byte-identical; it accepts an output with a new key.
- A traced name that no longer exists is reported as absent.
- BENCHMARK.json names the metrics and workloads this code reports.
- Every count metric repeats exactly between two traced runs of each
  workload.

Exits 0 when every check holds.  Takes about two minutes.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys

import checks
import run
import tracer
import workloads

FAILURES = []


def expect(condition, message):
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        FAILURES.append(message)


def bump_digit(text, anchor):
    """``text`` with the first digit after the regex ``anchor`` changed."""
    i = re.search(anchor, text).end()
    i += re.search(r"\d", text[i:]).start()
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def seed_argv(workload, command):
    return next(argv for argv in workloads.commands(workload, 0) if argv[0] == command)


def output_checks(box, references):
    cases = (
        (seed_argv("covers-and-property-a", "certify-a"), r'"variation": \{\s*"1": \{\s*"2": '),
        (seed_argv("covers-and-property-a", "profile"), r"\nzn:2,1,4,"),  # multiplicity
        (seed_argv("window-emit", "ball"), r'"dist": \[\s*\[\s*0,'),  # d(e, first neighbour)
    )
    for argv, anchor in cases:
        inv = box.invoke(argv)
        name = argv[0]
        expect(run.Checker(references)(inv) == [], f"{name}: seed output passes")
        text = inv.stdout.decode()
        corrupted = dataclasses.replace(inv, stdout=bump_digit(text, anchor).encode())
        expect(run.Checker(references)(corrupted) != [], f"{name}: one changed digit fails")
        failed = dataclasses.replace(inv, returncode=2)
        expect(run.Checker(references)(failed) != [], f"{name}: nonzero exit fails")
        if name == "certify-a":
            extended = json.loads(text)
            extended["audits"] = {"variation_report": {"exhaustive": True}}
            expect(
                checks.check(argv, json.dumps(extended).encode(), references) == [],
                f"{name}: a new key is ignored",
            )
            checker = run.Checker(references)
            checker(inv)
            rerun = dataclasses.replace(inv, stdout=inv.stdout + b"\n")
            expect(checker(rerun) != [], f"{name}: a rerun that is not byte-identical fails")

    failing = box.invoke(["certify-a", "--group", "zn:2", "--radius", "-1", "--p", "2", "--n", "2", "--K", "1"])
    expect(failing.returncode != 0, "an invalid argv exits nonzero")
    expect(run.Checker(references)(failing) != [], "the checker rejects that invocation")


def contract():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([m["name"] for m in spec["per_layer"]] == list(tracer.METRICS), "BENCHMARK.json lists every per-layer metric")
    expect([m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END), "BENCHMARK.json lists every end-to-end metric")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "BENCHMARK.json lists every workload")


def absent_names():
    sys.path.insert(0, str(run.SRC))
    expect(tracer._resolve("coarsekit.metric", "SparseVector.no_such_method") == [], "a missing method resolves to nothing")
    expect(tracer._resolve("coarsekit.no_such_module", "f") == [], "a missing module resolves to nothing")
    summary = {"self_s": {}, "calls": {}, "counts": {}, "installed": set(tracer.LAYERS) - {"metric.sparse_sub"}}
    values = tracer.layer_metrics(summary, 1.0, 1.0)
    expect(
        values["metric.sparse_sub_s"] is None and values["metric.sparse_sub_calls"] is None,
        "metrics of an uninstalled layer are absent",
    )
    expect(values["other_s"] == 1.0, "other_s is the traced wall less the named self times")


def counts_repeat(box):
    counts = [name for name, (unit, _) in tracer.METRICS.items() if unit == "count"]
    for workload in workloads.WORKLOADS:
        commands = workloads.commands(workload, 0)
        rows = []
        for rep in range(2):
            dumps = [box.invoke(argv, f"{rep}:{i}").spans for i, argv in enumerate(commands)]
            rows.append(tracer.layer_metrics(tracer.summarize(dumps), 1.0, 1.0))
        differ = [name for name in counts if rows[0][name] != rows[1][name]]
        expect(not differ, f"{workload}: every count repeats between two traced runs {differ or ''}")
        expect(
            all(rows[0][name] is not None for name in counts),
            f"{workload}: every count metric is present",
        )


def main() -> int:
    references = checks.load_references()
    contract()
    with run.Sandbox() as box:
        box.warm_up()
        output_checks(box, references)
        absent_names()
        counts_repeat(box)
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

"""coarsekit benchmark: fixed workloads of CLI commands, timed end to end.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: the commands of a workload (see
``workloads.py``) run back to back, each in a fresh process started from
``src/``, never two at a time.  One pass over the commands is a workload
run; passes repeat until the next one would end after ``--seconds``.
Every process gets a fresh, empty working directory, HOME, TMPDIR and
XDG_CACHE_HOME, and COARSEKIT_BALL_CAP is unset.  Every output is checked
(``checks.py``): exit code 0, byte-identical reruns, reference fields.

With ``--trace 0`` the last line reports the end-to-end metrics:

- ``wall_s``: one workload run, each process from spawn to exit (median
  over runs);
- ``cpu_s``: user plus system CPU of those processes (median over runs);
- ``peak_rss_mb``: the largest peak RSS of any process in a run (median);
- ``setup_s``: interpreter start plus ``import coarsekit.cli``, per
  process (median over every process of every run).

``failed_frac`` is printed above it, with its base; the last line carries
it as ``failed`` out of ``attempted``.

With ``--trace 1`` each pass runs the commands twice, untraced and then
traced, and the last line reports the per-layer metrics of ``tracer.py``
(median over the traced runs; ``absent`` metrics read 0).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import pickle
import platform
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Invocation:
    argv: list
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None
    spans: dict | None


class Sandbox:
    """Starts coarsekit processes one at a time, each in fresh directories."""

    def __enter__(self):
        self.root = WORK / f"{os.getpid()}-{time.time_ns()}"
        self.root.mkdir(parents=True)
        self.started = 0
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.root, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    def _fresh(self):
        self.started += 1
        box = self.root / f"p{self.started}"
        dirs = {name: box / name for name in ("cwd", "home", "tmp", "cache")}
        for path in dirs.values():
            path.mkdir(parents=True)
        env = {k: v for k, v in os.environ.items() if k != "COARSEKIT_BALL_CAP"}
        old = env.get("PYTHONPATH")
        env.update(
            PYTHONPATH=str(SRC) + (os.pathsep + old if old else ""),
            HOME=str(dirs["home"]),
            TMPDIR=str(dirs["tmp"]),
            XDG_CACHE_HOME=str(dirs["cache"]),
        )
        return box, dirs["cwd"], env

    def warm_up(self):
        """Import the program once, untimed, so bytecode caches exist."""
        box, cwd, env = self._fresh()
        done = subprocess.run(
            [sys.executable, "-c", "import coarsekit.cli"],
            cwd=cwd, env=env, stdin=subprocess.DEVNULL, capture_output=True,
        )
        shutil.rmtree(box)
        if done.returncode != 0:
            raise SystemExit("benchmark: cannot import coarsekit.cli:\n" + done.stderr.decode(errors="replace"))

    def invoke(self, argv, trace_run_id=None) -> Invocation:
        box, cwd, env = self._fresh()
        stamp, out, err = box / "stamp", box / "stdout", box / "stderr"
        spans = box / "spans.pkl" if trace_run_id is not None else None
        cmd = [
            sys.executable, str(BENCH_DIR / "launch.py"), str(stamp),
            str(spans) if spans else "-", trace_run_id or "-", *argv,
        ]
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        setup = None
        if stamp.is_file():
            setup = float(stamp.read_text().split()[1]) - start
        dump = None
        if spans is not None and spans.is_file():
            with open(spans, "rb") as fh:
                dump = pickle.load(fh)
        result = Invocation(
            argv=list(argv),
            returncode=proc.returncode,
            stdout=out.read_bytes(),
            stderr=err.read_bytes(),
            wall_s=end - start,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            setup_s=setup,
            spans=dump,
        )
        shutil.rmtree(box)
        return result


class Checker:
    """Output check for every invocation of one benchmark run.

    The first output of an argv is compared with its reference; every
    later output of that argv must be byte-identical to it.
    """

    def __init__(self, references):
        self.references = references
        self.seen = {}  # argv key -> (sha256 of stdout, failure reasons)

    def __call__(self, inv: Invocation) -> list:
        if inv.returncode != 0:
            tail = inv.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return [f"exit code {inv.returncode}", *tail]
        key = checks.argv_key(inv.argv)
        digest = hashlib.sha256(inv.stdout).hexdigest()
        if key in self.seen:
            first, reasons = self.seen[key]
            return reasons if digest == first else ["stdout differs from an earlier run of the same argv"]
        reasons = checks.check(inv.argv, inv.stdout, self.references)
        self.seen[key] = (digest, reasons)
        return reasons


def machine_note() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if "THREAD" in k or k.endswith("_CPU_COUNT")},
        "loadavg": list(os.getloadavg()),
    }


def measure(box, commands, seconds, trace, checker):
    """Repeat workload runs until the next would end after ``seconds``."""
    deadline = time.monotonic() + seconds
    plain, traced, failures = [], [], []
    longest = 0.0
    while True:
        began = time.monotonic()
        runs = [(plain, None)] + ([(traced, len(traced))] if trace else [])
        for bucket, rep in runs:
            invocations = []
            for i, argv in enumerate(commands):
                inv = box.invoke(argv, None if rep is None else f"{rep}:{i}")
                reasons = checker(inv)
                if reasons:
                    failures.append((argv, reasons))
                inv.stdout = b""  # checked; drop the bytes
                invocations.append(inv)
            bucket.append(invocations)
        longest = max(longest, time.monotonic() - began)
        if time.monotonic() + longest > deadline:
            return plain, traced, failures


def run_wall(run) -> float:
    return sum(inv.wall_s for inv in run)


def end_to_end(plain) -> dict:
    setups = [inv.setup_s for run in plain for inv in run if inv.setup_s is not None]
    if not setups:
        raise SystemExit("benchmark: no coarsekit process finished its imports")
    return {
        "wall_s": statistics.median(run_wall(run) for run in plain),
        "cpu_s": statistics.median(sum(inv.cpu_s for inv in run) for run in plain),
        "peak_rss_mb": statistics.median(max(inv.peak_rss_mb for inv in run) for run in plain),
        "setup_s": statistics.median(setups),
    }


def per_layer(plain, traced) -> tuple:
    """Per-layer metrics of each traced run, their medians, and the count
    metrics whose values differed between traced runs (they should repeat)."""
    untraced_wall = statistics.median(run_wall(run) for run in plain)
    rows = []
    for run in traced:
        summary = tracer.summarize([inv.spans for inv in run if inv.spans is not None])
        rows.append(tracer.layer_metrics(summary, run_wall(run), untraced_wall))
    medians, unsteady = {}, []
    for name, (unit, _) in tracer.METRICS.items():
        values = [row[name] for row in rows]
        if any(v is None for v in values):
            medians[name] = None
            continue
        if unit == "count" and len(set(values)) > 1:
            unsteady.append(name)
        medians[name] = statistics.median(values)
    return rows, medians, unsteady


def self_time_total(row) -> float:
    """Sum of the named self times in one row of per-layer metrics."""
    return sum(
        value for name, (unit, _) in tracer.METRICS.items()
        if unit == "s" and name != "other_s" and (value := row[name]) is not None
    )


def _stop(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through Sandbox.invoke, which kills the child


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coarsekit" / "cli.py").is_file():
        print(f"benchmark: no coarsekit sources under {SRC}", file=sys.stderr)
        return 2
    references = checks.load_references()
    commands = workloads.commands(args.workload, args.seed)
    print("machine:", json.dumps(machine_note(), sort_keys=True))
    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds}  trace: {args.trace}")
    for argv in commands:
        print("argv: coarsekit", shlex.join(argv))
    sys.stdout.flush()

    checker = Checker(references)
    signal.signal(signal.SIGTERM, _stop)
    with Sandbox() as box:
        box.warm_up()
        plain, traced, failures = measure(box, commands, args.seconds, args.trace, checker)

    for argv, reasons in failures[:10]:
        print("FAILED: coarsekit", shlex.join(argv), "--", "; ".join(reasons[:3]))
    attempted = sum(len(run) for run in plain + traced)
    failed = len(failures)

    e2e = end_to_end(plain)
    walls = " ".join(f"{run_wall(run):.3f}" for run in plain)
    print(f"wall_s {e2e['wall_s']:.4f} s (median of {len(plain)} workload runs: {walls})")
    print(f"cpu_s {e2e['cpu_s']:.4f} s")
    print(f"peak_rss_mb {e2e['peak_rss_mb']:.1f} MB")
    print(f"setup_s {e2e['setup_s']:.4f} s (median over processes)")
    print(f"failed_frac {failed / attempted:.4f} ratio ({failed} of {attempted} invocations)")

    if args.trace:
        rows, layers, unsteady = per_layer(plain, traced)
        for name, (unit, _) in tracer.METRICS.items():
            value = layers[name]
            print(f"  {name} {'absent' if value is None else f'{value:.6g}'} {unit}")
        for i, (run, row) in enumerate(zip(traced, rows)):
            print(f"accounting, traced run {i}: wall {run_wall(run):.4f} s = "
                  f"named self times {self_time_total(row):.4f} s + other_s {row['other_s']:.4f} s")
        for name in unsteady:
            print(f"UNSTEADY count {name}: differs between traced runs")
        metrics = {
            name: {"value": 0 if layers[name] is None else layers[name], "unit": unit}
            for name, (unit, _) in tracer.METRICS.items()
        }
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

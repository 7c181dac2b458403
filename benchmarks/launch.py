"""Start coarsekit as its console script does, and note when setup ends.

Usage: launch.py STAMP SPANS RUN_ID ARGV...

Writes "<start> <ready>" (time.monotonic) to STAMP: ``start`` once the
interpreter runs this file, ``ready`` once ``coarsekit.cli`` is imported.
With SPANS other than "-", installs the tracer before ``main()`` and
writes its spans to SPANS when ``main()`` returns.
"""

import sys
import time


def _launch():
    start = time.monotonic()
    bench_dir = sys.path.pop(0)  # keep this directory out of the program's imports
    stamp, spans, run_id, *argv = sys.argv[1:]
    from coarsekit.cli import main

    ready = time.monotonic()
    with open(stamp, "w") as fh:
        fh.write(f"{start!r} {ready!r}\n")
    sys.argv = ["coarsekit", *argv]
    if spans == "-":
        return main()
    sys.path.insert(0, bench_dir)
    import tracer

    recorder = tracer.install(run_id)
    try:
        return main()
    finally:
        recorder.dump(spans)


if __name__ == "__main__":
    sys.exit(_launch())

"""Run one cauchyflow CLI command with spans recorded around its layers.

Usage: python3 perfbench/probe.py SPANS_OUT JOB -- CLI_ARGS...

The probe wraps the package's public functions (see tracing.instrument),
runs cli.main(CLI_ARGS) inside a "cli.main" span, writes the spans, the
counters and the time.monotonic() at which main started as JSON to
SPANS_OUT, and exits with main's return code. The package comes from
PYTHONPATH, which the benchmark pins to the checkout's src/.
"""

import json
import sys
import time
from pathlib import Path

import tracing


def main() -> int:
    out, job, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: probe.py SPANS_OUT JOB -- CLI_ARGS...")
    from cauchyflow import cli

    tracer = tracing.Tracer(prefix=f"{job}/{Path(out).stem}")
    tracer.job = int(job)
    tracing.instrument(tracer)
    main_start = time.monotonic()
    code = tracer.call("cli.main", cli.main, argv)
    Path(out).write_text(json.dumps({
        "main_start": main_start, "spans": tracer.spans,
        "counts": {str(j): dict(c) for j, c in tracer.counts.items()}}))
    return code


if __name__ == "__main__":
    sys.exit(main())

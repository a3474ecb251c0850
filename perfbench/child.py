"""One benchmark job in a fresh interpreter.

Usage: python3 child.py RESULT_JSON TRACE_JSONL|- -- <braidhom CLI arguments>
       python3 child.py RESULT_JSON --probe

Imports braidhom, runs `braidhom.cli.main` on the arguments with stdout
captured while `refkernel.Sampler` times the reference kernel before, during
and after the call, and writes one JSON object with the timings and the
captured output to RESULT_JSON.  The time the kernel took during the call is
subtracted from the call's wall and CPU times.  With a trace path instead of
"-", the layer wrappers of `tracing` are installed before the call and the
spans are written there as JSON lines.  The process exits with the code
`cli.main` returned.  With --probe it only records when the import finished,
to sample set-up time.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stdout

from braidhom import cli  # noqa: E402

t_imported = time.monotonic()

from refkernel import Sampler  # noqa: E402


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_kib() -> int:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def main(argv: list[str]) -> int:
    result_path, trace_path = argv[0], argv[1]
    if trace_path == "--probe":
        with open(result_path, "w") as fh:
            json.dump({"imported_at": t_imported}, fh)
        return 0
    if argv[2] != "--":
        raise SystemExit("usage: child.py RESULT_JSON TRACE_JSONL|- -- ARGS...")
    cli_args = argv[3:]
    tracer = None
    if trace_path != "-":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    buf = io.StringIO()
    with Sampler(tracer.steal if tracer is not None else None) as sampler:
        stolen0, stolen_cpu0 = sampler.stolen_s, sampler.stolen_cpu_s
        cpu0, t0 = _cpu_s(), time.monotonic()
        with redirect_stdout(buf):
            if tracer is not None:
                with tracer.root():
                    rc = cli.main(cli_args)
            else:
                rc = cli.main(cli_args)
        t1, cpu1 = time.monotonic(), _cpu_s()
        stolen, stolen_cpu = sampler.stolen_s - stolen0, sampler.stolen_cpu_s - stolen_cpu0
    if tracer is not None:
        tracer.write(trace_path, job=os.path.basename(trace_path).split(".")[0])
    record = {
        "rc": rc,
        "imported_at": t_imported,
        "wall_s": t1 - t0 - stolen,
        "cpu_s": cpu1 - cpu0 - stolen_cpu,
        "ref_s": sampler.ref_s,
        "ref_cpu_s": sampler.ref_cpu_s,
        "ref_samples": len(sampler.samples),
        "peak_rss_kib": _peak_rss_kib(),
        "output": buf.getvalue(),
    }
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

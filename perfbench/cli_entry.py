"""Run one finiverse command under spans, for traced cli_cold jobs.

Usage (with src/ on PYTHONPATH):

    python -X importtime perfbench/cli_entry.py <finiverse arguments...>

Times ``import finiverse.cli``, runs ``cli.main(argv)`` with a Tracer
installed, and writes one line ``PERFBENCH-TRACE {json}`` to stderr after
the command's own output.  Standard output is the command's, byte for byte.
"""

import sys
from time import perf_counter

t0 = perf_counter()
import finiverse.cli as cli  # noqa: E402

import_s = perf_counter() - t0

import json  # noqa: E402

import spans  # noqa: E402

tracer = spans.Tracer()
tracer.install()
try:
    code = cli.main(sys.argv[1:])
finally:
    tracer.uninstall()
    sys.stdout.flush()
aggregate = spans.aggregate(tracer)
aggregate["cli.import_s"] = import_s
sys.stderr.write("PERFBENCH-TRACE " + json.dumps(aggregate) + "\n")
sys.exit(code)

"""Run the torsion6 CLI under the tracer, for traced runs of the cli
workload:

    python3 perfbench/cli_child.py <torsion6 cli arguments>

Output and exit status are the CLI's.  The last line on stderr is the
trace summary, prefixed with 'PERFBENCH-TRACE ', including the time spent
importing torsion6 and the child's own start and end on the monotonic
clock, from which the parent derives the interpreter's start-up and exit
time.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

t0 = time.perf_counter()
import torsion6.cli  # noqa: E402

IMPORT_S = time.perf_counter() - t0

from tracer import Tracer  # noqa: E402


def main():
    tracer = Tracer()
    tracer.install()
    status = tracer.root(torsion6.cli.main, sys.argv[1:])
    sys.stdout.flush()
    summary = tracer.summary()
    summary.update(import_s=IMPORT_S, start=START, end=time.perf_counter())
    print("PERFBENCH-TRACE " + json.dumps(summary), file=sys.stderr, flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())

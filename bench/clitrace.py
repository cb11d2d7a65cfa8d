"""Run the brattice CLI under the tracer.

    python bench/clitrace.py TRACE_FILE ARGS...

stdout and the exit code are the CLI's own, so the traced run checks them
against the same frozen values; the span totals are written to TRACE_FILE
as JSON.
"""

import json
import sys

from tracer import Tracer


def main():
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from brattice import cli

    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    sys.stdout.flush()
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump(tracer.raw(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

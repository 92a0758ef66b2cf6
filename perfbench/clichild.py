"""Traced ``zetatrace`` CLI process for the cold_cli workload's traced run.

    python3 perfbench/clichild.py SPANS_JSON OP_ID ARGS...

Imports the CLI, installs the tracer, runs ``zetatrace ARGS...`` in a
``cli.main`` span and writes the spans and counts to SPANS_JSON on exit.
"""

import sys

import tracer as tracing


def main() -> int:
    spans_path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    from zetatrace import cli

    tracer = tracing.Tracer()
    tracer.op = op_id
    tracer.install()
    try:
        return tracer.timed("cli.main", cli.main, argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())

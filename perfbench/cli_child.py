"""One sharp-weights CLI command with layer spans recorded.

Usage: python3 -X importtime perfbench/cli_child.py SPANS_FILE CLI_ARGS...

Imports the package first, so that ``-X importtime`` shows its import on
its own line, runs ``sharpweights.cli.main`` under the tracer, writes the
spans to SPANS_FILE and exits with the command's exit code.
"""

import sys

import sharpweights  # noqa: F401
from sharpweights import cli

import tracing


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        code = cli.main(argv)
    tracing.write_spans(tracer.spans, path)
    return code


if __name__ == "__main__":
    sys.exit(main())

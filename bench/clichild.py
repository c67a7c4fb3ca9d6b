"""One traced cli request: ``python3 bench/clichild.py SPANS ARGS...``.

Wraps the public functions of the hurwitzcf modules, runs ``cli.run(ARGS)``
in this fresh interpreter, writes the spans and counters to SPANS and exits
with the request's exit code.
"""

from __future__ import annotations

import json
import sys

import tracing


def main() -> None:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.op = 0
    from hurwitzcf import cli
    try:
        code = cli.run(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.dump(), fh)
    sys.exit(code)


if __name__ == "__main__":
    main()

"""Traced stand-in for ``python -m demandgap.cli`` (cli_tables, --trace 1).

    python3 bench/cli_child.py SPANS.json <demandgap cli arguments>

Times the import of ``demandgap.cli``, wraps the layers' public functions,
runs ``demandgap.cli.main`` and writes the spans to SPANS.json.
"""

import json
import sys
import time

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import demandgap.cli

    import_ms = (time.perf_counter() - t0) * 1e3
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return demandgap.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump({"import_ms": import_ms, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())

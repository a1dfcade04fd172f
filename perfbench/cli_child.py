"""One rpsf CLI command in this process, with the span tracer installed.

usage: python cli_child.py STATS_PATH [rpsf arguments ...]

Behaves like ``python -m rpsf.cli`` (same output, same exit code) and
writes the span totals to STATS_PATH as JSON for the parent benchmark.
"""

import json
import sys


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    import rpsf.cli
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        return rpsf.cli.main(argv)
    finally:
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_dict(), fh)


if __name__ == "__main__":
    sys.exit(main())

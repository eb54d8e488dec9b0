"""Run the lienil command line with span tracing; the spans go to a JSON file at exit.

Usage: python3 perfbench/cli_traced.py SPANS_FILE COMMAND [ARGS...]
(with the repository's src directory on PYTHONPATH).
"""

from __future__ import annotations

import atexit
import json
import sys

import tracer


def main() -> None:
    spans_path = sys.argv[1]
    sys.argv = ["lienil"] + sys.argv[2:]
    import lienil.cli

    recorder = tracer.Tracer()
    tracer.install(recorder)

    def write() -> None:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(recorder.export(), handle)

    atexit.register(write)
    lienil.cli.main()


if __name__ == "__main__":
    main()

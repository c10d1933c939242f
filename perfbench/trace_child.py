"""Run one relangle CLI command with the benchmark's tracer installed.

Usage: python3 perfbench/trace_child.py <relangle cli arguments...>

The spans and lru-cache misses of the command are written as JSON to
``$PERFBENCH_TRACE_DIR/spans-<pid>.json`` when it ends; the exit code is the
command's own.
"""
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402  (this file's directory is sys.path[0])
from relangle import cli  # noqa: E402


def main() -> int:
    tracer = tracing.Tracer()
    tracer.install()
    tracer.start()
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.stop()
        path = os.path.join(os.environ["PERFBENCH_TRACE_DIR"], f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.take(), "misses": tracer.misses}, fh)


if __name__ == "__main__":
    sys.exit(main())

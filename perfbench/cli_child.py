"""Run one plapreg command with the layers traced, for the cli workload.

    python3 perfbench/cli_child.py SPANS_JSON [plapreg arguments ...]

Times ``import plapreg.cli`` (the import cost a user pays on every command,
without the interpreter's own start), runs the command with the tracer
installed and writes the import time, the exit code and the spans to
SPANS_JSON.  Exits with the command's exit code.
"""

import json
import sys
from time import perf_counter


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import plapreg.cli

    import_s = perf_counter() - t0
    import spans

    tracer = spans.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        rc = plapreg.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(spans_path, "w") as fh:
        json.dump({"import_s": import_s, "rc": rc, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())

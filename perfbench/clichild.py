"""Run one bicheb command in this process with spans recorded.

    python3 perfbench/clichild.py TRACE_JSON ARGS...

ARGS are the command's arguments as ``bicheb ARGS...`` takes them; the
repository's ``src`` must be on PYTHONPATH.  The time to import
``bicheb.cli`` is recorded as ``import_s``, the command runs in a span
named ``cli.<command>``, and the spans are written to TRACE_JSON when the
command returns.  The exit code is the command's.
"""

import json
import sys
import time


def main():
    trace_path, argv = sys.argv[1], sys.argv[2:]
    started = time.perf_counter()
    import bicheb.cli as cli
    import_s = time.perf_counter() - started

    from spans import Tracer, install_all

    tracer = Tracer()
    install_all(tracer)
    index = tracer.enter(f"cli.{argv[0]}")
    try:
        return cli.main(argv)
    finally:
        tracer.exit(index)
        dump = tracer.dump()
        dump["import_s"] = import_s
        with open(trace_path, "w", encoding="ascii") as out:
            json.dump(dump, out)


if __name__ == "__main__":
    sys.exit(main())

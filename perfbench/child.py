"""Run one ``cql`` request in a fresh process, as the console script does.

Usage: python3 perfbench/child.py CQL-ARGS...

With ``PERFBENCH_TRACE=PREFIX`` set, the cqlogic functions are traced and
the spans and counts are written to PREFIX.npz and PREFIX.json at exit.
``PERFBENCH_SPAWN`` holds the parent's monotonic clock at spawn, so the
trace records the start-up time from process start to ``main``.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))


def main():
    prefix = os.environ.get("PERFBENCH_TRACE")
    if not prefix:
        from cqlogic.cli import main as cql_main
        return cql_main(sys.argv[1:])
    import spans
    tracer = spans.Tracer()
    tracer.install()
    from cqlogic import cli
    startup = time.monotonic() - float(os.environ["PERFBENCH_SPAWN"])
    try:
        return cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        tracer.dump(prefix, startup=startup)


if __name__ == "__main__":
    sys.exit(main())

"""Run one ``wfregions`` CLI command with layer tracing, then dump the spans.

Usage: ``python perfbench/cli_child.py DUMP_FILE COMMAND ARGS...``, with
``src`` on ``PYTHONPATH``.  The traced run of ``cli_instances`` starts this
script in place of ``python -m wfregions.cli`` so that the layers inside
each CLI process are traced too.  The dump holds the spans (on the system
monotonic clock, which parent and child share) and the time the import of
``wfregions.cli`` took.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    start = time.perf_counter()
    import wfregions.cli

    import_s = time.perf_counter() - start
    from tracer import Tracer

    dump, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer:
        code = wfregions.cli.main(argv)
    counters = dict(tracer.counters, **{"cli.import_s": import_s, "cli.children": 1})
    with open(dump, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.spans, "counters": counters}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())

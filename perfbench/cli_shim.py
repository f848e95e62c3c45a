"""Traced `cblocks` entry point, used by the cli workload's traced rounds.

    PERFBENCH_CHILD_OUT=FILE PERFBENCH_OP=N PERFBENCH_PARENT=ID \\
        python3 perfbench/cli_shim.py <cblocks arguments>

Behaves like `python3 -m cblocks.cli`, with the layer wrappers installed after
the import.  At exit it writes the per-layer totals, the import time and (if
PERFBENCH_RECORD=1) its spans to FILE as JSON; its spans belong to operation N
and hang under the parent's span ID.
"""

import json
import os
import sys
import time

import tracing


def main() -> int:
    started = time.perf_counter_ns()
    import cblocks.cli
    import_ns = time.perf_counter_ns() - started
    op = int(os.environ["PERFBENCH_OP"])
    tracer = tracing.Tracer(record_spans=os.environ.get("PERFBENCH_RECORD") == "1",
                            id_prefix=f"{op}/")
    tracer.op_id = op
    tracer.root_parent = os.environ["PERFBENCH_PARENT"]
    tracer.install()
    code = cblocks.cli.run(sys.argv[1:])
    summary = tracer.summary()
    summary.update(import_ns=import_ns, spans=tracer.spans)
    with open(os.environ["PERFBENCH_CHILD_OUT"], "w") as out:
        json.dump(summary, out)
    return code


if __name__ == "__main__":
    sys.exit(main())

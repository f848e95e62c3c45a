"""One benchmark round in a fresh interpreter: cold caches, one closed-loop client.

    python3 perfbench/worker.py --workload NAME --seed N [--variant V]
                                [--trace] [--spans PATH] [--cross-check]

Generates the workload's operations from the seed and variant, runs them one after the
other (each starts when the previous one returns), then checks every answer
outside the timed loop.  Speed probes (speed.py) run alongside, and every
time is scaled by them to the reference speed.  Prints one JSON line: solve
time, per-operation latencies, the unscaled wall time, peak RSS, failures, an
answer digest and, when traced, the per-layer totals.  run.py starts one
worker per round.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import speed       # perfbench/ is on sys.path as the script's directory
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _traced_cli_op(command, ctx, base_env, tracer, child_out, spawn_ns):
    """One traced `cblocks` process: the shim reports its spans through a file."""
    ctx.env = dict(base_env,
                   PERFBENCH_CHILD_OUT=str(child_out),
                   PERFBENCH_OP=str(tracer.op_id),
                   PERFBENCH_PARENT=tracer.current_span(),
                   PERFBENCH_RECORD="1" if tracer.record_spans else "0")
    started = time.perf_counter_ns()
    answer = workloads.cli_run(command, ctx)
    wall = time.perf_counter_ns() - started
    child = json.loads(child_out.read_text())
    child_out.unlink()
    tracer.merge_child(child)
    spawn_ns.append(wall - child["top_ns"])
    return answer


def run_round(workload_name: str, seed: int, ops_count=None, trace=False,
              spans_path=None, cross_check=False, variant=0) -> dict:
    wl = workloads.WORKLOADS[workload_name]
    ops = wl.make_ops(seed, ops_count or wl.ops_per_round, variant)
    ctx = workloads.RunContext(root=ROOT, env=workloads.child_env(ROOT))
    tracer = None
    spawn_ns = []
    if trace:
        tracer = tracing.Tracer(record_spans=spans_path is not None)
        tracer.install()
    run_op = wl.run_op
    if tracer is not None and wl.spawns:
        tracing.OUT_DIR.mkdir(exist_ok=True)
        ctx.shim = Path(__file__).resolve().parent / "cli_shim.py"
        base_env = ctx.env
        child_out = tracing.OUT_DIR / f"child-{os.getpid()}.json"

        def run_op(op, ctx):
            return _traced_cli_op(op, ctx, base_env, tracer, child_out, spawn_ns)

    answers, intervals = [], []
    clock = time.perf_counter_ns
    sampler = speed.SpawnSampler(ctx.env, ROOT) if wl.spawns else speed.Sampler()
    with sampler:
        for i, op in enumerate(ops):
            started = clock()
            try:
                if tracer is None:
                    answer = run_op(op, ctx)
                else:
                    tracer.op_id = i
                    answer = tracer.call("bench.op", run_op, (op, ctx), {})
            except Exception as exc:   # a failed operation is counted, not fatal
                answers.append(("error", repr(exc)))
                intervals.append(None)
            else:
                answers.append(answer)
                intervals.append((started, clock()))
            sampler.after_op()
    latencies = [None if iv is None else sampler.scaled_ns(*iv) for iv in intervals]
    solve_ns = sum(lat for lat in latencies if lat is not None)
    wall_ns = sum(end - start for start, end in filter(None, intervals))
    # times measured inside operations (layer self times, spawn) get the round's
    # mean factor; they include the in-process probes, as the wall time does
    round_factor = solve_ns / wall_ns if wall_ns else 1.0

    layers = tracer.summary() if tracer is not None else None
    if layers is not None:
        layers["self_ns"] = {name: ns * round_factor for name, ns in layers["self_ns"].items()}
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if tracer is not None:
        tracer.record_spans = False
        if spans_path is not None:
            header = {"workload": workload_name, "seed": seed, "ops": len(ops),
                      "wall_ns": wall_ns}
            tracing.write_spans(spans_path, header, tracer.spans)

    failures = []
    for op, answer, latency in zip(ops, answers, latencies):
        if latency is None:
            failures.append(f"raised {answer[1]}")
            continue
        problem = wl.check(op, answer)
        if problem is None and cross_check and wl.cross_check is not None:
            problem = wl.cross_check(op, answer)
        if problem is not None:
            failures.append(problem)

    digest = hashlib.sha256()
    for answer in answers:
        digest.update(repr(answer).encode())
        digest.update(b"\n")

    return {
        "traced": tracer is not None,
        "variant": variant,
        "ops": len(ops),
        "solve_ns": solve_ns,
        "wall_ns": wall_ns,
        "probe_ns": sampler.median_probe_ns(),
        "lat_ns": latencies,
        "labels": list(ops) if wl.spawns else None,
        "peak_rss_kb": rss_children if wl.spawns else rss_self,
        "failed": len(failures),
        "failure_samples": failures[:5],
        "digest": digest.hexdigest(),
        "cross_checked": bool(cross_check and wl.cross_check is not None),
        "layers": layers,
        "spawn_ns": [ns * round_factor for ns in spawn_ns],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--variant", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--cross-check", action="store_true")
    ns = parser.parse_args(argv)
    result = run_round(ns.workload, ns.seed, trace=ns.trace, spans_path=ns.spans,
                       cross_check=ns.cross_check, variant=ns.variant)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""cblocks benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload {sweep,ladder,quantum,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  Rounds run one after another for about S
seconds; each round is a fresh worker process (cold caches) that answers the
workload's whole operation list in a closed loop.  Set-up time is measured
between rounds, on fresh interpreters that import `cblocks.cli`.  Every time
is scaled to the reference machine speed by the probes in speed.py.  With
--trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 untraced and traced rounds alternate and it reports the per-layer
metrics, and the spans of the first traced round go to
perfbench/out/spans-<workload>-seed<N>.jsonl.gz.  Every answer is checked;
failures are counted in the result's "failed".
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# setup_s is the median over fresh interpreters, a few before the first round
# and a few after each round, so that it samples the whole run: on the 2-CPU
# reference VM, speed changes by up to about 45% from one second to the next.
PROBES_PER_ROUND = 2
# Round k answers operation list k mod VARIANTS of the seed, so a run's latency
# percentiles pool three independent lists: a single list's tail depends on
# the seed more than the bounds allow on ladder.
VARIANTS = 3
MIN_ROUNDS = VARIANTS     # untraced rounds per --trace 0 run, whatever --seconds says
HARD_STOP_S = 120         # start no round after this, so a run ends well within 180 s

PROBE = ("import time\n"
         "t = time.clock_gettime_ns(time.CLOCK_MONOTONIC)\n"
         "import cblocks.cli\n"
         "print(t, time.clock_gettime_ns(time.CLOCK_MONOTONIC))\n")


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def calibration_ms() -> float:
    """A fixed pure-Python loop, best of three; shows machine speed, gates nothing."""
    best = None
    for _ in range(3):
        started = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        elapsed = (time.perf_counter() - started) * 1000
        best = elapsed if best is None else min(best, elapsed)
    return best


def setup_probe(env, spawn) -> tuple:
    """(launch until cblocks.cli is imported, the import alone), in seconds,
    scaled to the reference speed by the spawn probes just before and after."""
    spawn.sample()
    launched = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=60).stdout
    import_start, ready = (int(x) for x in out.split())
    spawn.sample()
    return spawn.scaled_ns(launched, ready) / 1e9, spawn.scaled_ns(import_start, ready) / 1e9


def run_worker(args, env, timeout) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker exited {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(samples, q: int) -> float:
    """Nearest-rank q-th percentile; a failed operation (None) counts as +inf."""
    values = sorted(float("inf") if s is None else s for s in samples)
    return values[max(0, math.ceil(q * len(values) / 100) - 1)]


def end_to_end(rounds, setup) -> dict:
    untraced = [r for r in rounds if not r["traced"]]
    latencies = [lat for r in untraced for lat in r["lat_ns"]]
    return {
        "setup_s": (statistics.median(s for s, _ in setup), "s"),
        "solve_s": (statistics.median(r["solve_ns"] for r in untraced) / 1e9, "s"),
        "op_p50_ms": (percentile(latencies, 50) / 1e6, "ms"),
        "op_p90_ms": (percentile(latencies, 90) / 1e6, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in untraced) / 1024, "MB"),
    }


def per_layer(rounds, setup, commands) -> dict:
    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    layers = [r["layers"] for r in traced]

    med = statistics.median

    def count(key, name):
        return statistics.median_low(l[key].get(name, 0) for l in layers)

    def ratio(part, whole):
        return med([part(l) / whole(l) if whole(l) else 0.0 for l in layers])

    out = {}
    for name in tracing.LAYERS:
        out[f"{name}.self_s"] = (med([l["self_ns"].get(name, 0) for l in layers]) / 1e9, "s")
        out[f"{name}.calls"] = (count("calls", name), "count")
    out["cb.fusion_expand.terms"] = (count("counters", "cb.fusion_expand.terms"), "count")
    out["qgrass.rim_hook_reduce.hooks_removed"] = (
        count("counters", "qgrass.rim_hook_reduce.hooks_removed"), "count")
    out["qgrass.rim_hook_reduce.zero_ratio"] = (ratio(
        lambda l: l["counters"].get("qgrass.rim_hook_reduce.zero", 0),
        lambda l: l["calls"].get("qgrass.rim_hook_reduce", 0)), "1")
    out["schur.lr_cache.misses"] = (count("counters", "schur.lr_cache.misses"), "count")
    out["schur.lr_cache.hit_ratio"] = (ratio(
        lambda l: l["counters"].get("schur.lr_cache.hits", 0),
        lambda l: (l["counters"].get("schur.lr_cache.hits", 0)
                   + l["counters"].get("schur.lr_cache.misses", 0))), "1")
    out["cli.import_s"] = (med([i for _, i in setup]), "s")
    spawn = [s for r in traced for s in r["spawn_ns"]]
    out["cli.spawn_s"] = (med(spawn) / 1e9 if spawn else 0.0, "s")
    for command in commands:
        lat = [lat for r in untraced if r["labels"]
               for label, lat in zip(r["labels"], r["lat_ns"]) if label == command]
        out[f"cli.op_ms.{command}"] = (percentile(lat, 50) / 1e6 if lat else 0.0, "ms")
    traced_solve = med([r["solve_ns"] for r in traced]) / 1e9
    untraced_solve = med([r["solve_ns"] for r in untraced]) / 1e9
    out["trace.solve_s"] = (traced_solve, "s")
    out["trace.untraced_solve_s"] = (untraced_solve, "s")
    out["trace.overhead_s"] = (traced_solve - untraced_solve, "s")
    out["trace.unattributed_s"] = (med([
        r["solve_ns"] - sum(r["layers"]["self_ns"].get(name, 0) for name in tracing.LAYERS)
        for r in traced]) / 1e9, "s")
    return out


def run_rounds(wl, seed, seconds, trace, env, started, setup, spawn):
    """Fresh-worker rounds until about `seconds` have passed since `started`.

    Set-up probes are appended to `setup` before and after each round.
    """
    rounds, durations = [], []
    setup.extend(setup_probe(env, spawn) for _ in range(PROBES_PER_ROUND))
    while True:
        traced = bool(trace) and len(rounds) % 2 == 1
        # a traced round answers the same list as the untraced one before it
        variant = (len(rounds) // (2 if trace else 1)) % VARIANTS
        args = ["--workload", wl.name, "--seed", str(seed), "--variant", str(variant)]
        if traced:
            args.append("--trace")
            if not any(r["traced"] for r in rounds):
                tracing.OUT_DIR.mkdir(exist_ok=True)
                spans = tracing.OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl.gz"
                args += ["--spans", str(spans)]
        if not any(r["variant"] == variant for r in rounds):
            args.append("--cross-check")
        round_start = time.monotonic()
        timeout = max(10.0, 170 - (round_start - started))
        rounds.append(run_worker(args, env, timeout))
        setup.extend(setup_probe(env, spawn) for _ in range(PROBES_PER_ROUND))
        durations.append(time.monotonic() - round_start)
        untraced = sum(1 for r in rounds if not r["traced"])
        if trace:
            enough = untraced >= 1 and len(rounds) - untraced >= 1
        else:
            enough = untraced >= MIN_ROUNDS
        now = time.monotonic() - started
        # stop when another round would overrun `seconds` by more than half a round
        if enough and (now + statistics.median(durations) / 2 > seconds or now > HARD_STOP_S):
            return rounds


def main(argv=None) -> int:
    if not (ROOT / "src" / "cblocks" / "__init__.py").is_file():
        print(f"no cblocks package under {ROOT / 'src'}: run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)

    started = time.monotonic()
    wl = workloads.WORKLOADS[ns.workload]
    env = workloads.child_env(ROOT)
    calib_start = calibration_ms()
    with speed.SpawnSampler(env, ROOT) as spawn:
        setup_probe(env, spawn)                        # compiles bytecode; not counted
        setup = []
        rounds = run_rounds(wl, ns.seed, ns.seconds, ns.trace, env, started, setup, spawn)
    calib_end = calibration_ms()

    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    digests = {}                # variant -> the answer digests of its rounds
    for r in rounds:
        digests.setdefault(r["variant"], set()).add(r["digest"])
    agree = all(len(d) == 1 for d in digests.values())
    correct = failed == 0 and agree
    metrics = (per_layer(rounds, setup, workloads.CLI_INPUTS) if ns.trace
               else end_to_end(rounds, setup))

    untraced = [r for r in rounds if not r["traced"]]
    print(f"workload {ns.workload}  seed {ns.seed}  trace {ns.trace}  seconds {ns.seconds}")
    print(f"python {platform.python_version()}  nproc {os.cpu_count()}"
          f"  commit {git_commit(ROOT)}  source {source_digest(ROOT)}")
    print(f"calibration_ms {calib_start:.2f} at start, {calib_end:.2f} at end (diagnostic)")
    print(f"rounds {len(untraced)} untraced + {len(rounds) - len(untraced)} traced,"
          f" {rounds[0]['ops']} operations each, {len(setup)} set-up probes,"
          f" wall {time.monotonic() - started:.1f} s")
    print("solve_s by round " + " ".join(
        f"{r['solve_ns'] / 1e9:.3f}{'t' if r['traced'] else ''}" for r in rounds))
    reference = speed.SPAWN_REFERENCE_NS if wl.spawns else speed.REFERENCE_NS
    print("unscaled wall s by round "
          + " ".join(f"{r['wall_ns'] / 1e9:.3f}" for r in rounds)
          + ";  median probe ms by round "
          + " ".join(f"{r['probe_ns'] / 1e6:.3f}" for r in rounds)
          + f" (reference {reference / 1e6:.3f})")
    for variant, digest in sorted(digests.items()):
        print(f"answers sha256 variant {variant}: {' '.join(sorted(digest))}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit}")
    print(f"{'failed_ratio':<40} {failed / attempted:>14.6g} 1  ({failed} of {attempted})")
    for sample in sorted({s for r in rounds for s in r["failure_samples"]})[:10]:
        print(f"failure: {sample}")
    missing = sorted({m for r in rounds if r["layers"] for m in r["layers"]["missing"]})
    if missing:
        print(f"missing layers (reported as 0): {' '.join(missing)}")
    if not agree:
        print("answers differ between rounds of one variant")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads: seeded inputs, one operation, answer checks.

Each workload generates its operation list from the seed and a variant
number alone, so the same seed gives the same inputs on every commit; each
variant is another independent list for the same seed.  An operation returns a plain
answer; `check` validates it cheaply after the timed loop, and `cross_check`
recomputes it by an independent route (once per run, untimed).  The repr of
every answer goes into the run's answer digest.

Package functions are looked up through their modules at call time, so the
traced run's wrappers (and a test's substitute) are the ones called.
"""

from __future__ import annotations

import bisect
import importlib.util
import itertools
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from cblocks import cb, schur
from cblocks.young import SlWeight, parse_weight_list

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CLI_TIMEOUT_S = 60


def _rng(workload: str, seed: int, variant: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{variant}")


def _random_rows(rng, r: int, first: int) -> tuple:
    """The rows of an sl_{r+1} diagram, each drawn uniformly from 0..first."""
    return tuple(sorted((rng.randint(0, first) for _ in range(r)), reverse=True))


def _size_ladder(r, n, first, count, valid):
    """`count` totals at evenly spaced quantiles of the exact distribution of
    the total size of n weights drawn by _random_rows, given valid(total)."""
    ways = [1]                         # ways[t]: draws of the rows so far with total t
    for _ in range(n * r):
        nxt = [0] * (len(ways) + first)
        for total, w in enumerate(ways):
            for v in range(first + 1):
                nxt[total + v] += w
        ways = nxt
    totals = [t for t in range(len(ways)) if valid(t)]
    cumulative = list(itertools.accumulate(ways[t] for t in totals))
    whole = cumulative[-1]
    return [totals[bisect.bisect_left(cumulative, -(-(2 * i + 1) * whole // (2 * count)))]
            for i in range(count)]


def _sized_tuples(rng, r, n, first, count, valid):
    """`count` random n-tuples of weights whose total sizes form a fixed ladder.

    Only the shapes come from the seed; the totals come from _size_ladder.
    Log run time correlates with total size (about 0.7-0.8 in a pilot), so
    fixing the sizes gives every seed a similar spread of operation costs and
    keeps per-seed latency percentiles comparable.
    """
    tuples = []
    for target in _size_ladder(r, n, first, count, valid):
        while True:
            rows = [_random_rows(rng, r, first) for _ in range(n)]
            if sum(map(sum, rows)) == target:
                tuples.append(tuple(SlWeight(r, w) for w in rows))
                break
    return tuples


# --- sweep -----------------------------------------------------------------
# Small random setups drawn by scripts/search_rank_equality.py's own sampler
# (r <= 3, level <= 4, 3-6 points, size <= 6).  Repeated small inputs share
# most of their LR products, so per-call overhead dominates.

def _search_script():
    """scripts/search_rank_equality.py, loaded as a module (its main is guarded)."""
    name = "search_rank_equality"
    if name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def sweep_ops(seed: int, count: int, variant: int = 0):
    search = _search_script()
    rng = _rng("sweep", seed, variant)
    cfg = search.SearchConfig()
    return [search.random_setup(rng, cfg) for _ in range(count)]


def sweep_run(setup, ctx):
    rep = cb.vanishing_report(setup)
    return (rep.rank_classical, rep.rank_cb, rep.above_critical, rep.above_theta,
            rep.ranks_equal)


def sweep_check(setup, answer):
    rank_classical, rank_cb, above_critical, above_theta, ranks_equal = answer
    if ranks_equal != (rank_classical == rank_cb):
        return f"ranks_equal={ranks_equal} but ranks {rank_classical}, {rank_cb}"
    if (above_critical or above_theta) and not ranks_equal:
        return f"above a vanishing bound but ranks {rank_classical} != {rank_cb}"
    return None


def sweep_cross_check(setup, answer):
    witten = cb.witten_rank(setup)
    return None if witten == answer[1] else f"witten_rank {witten} != cb_rank {answer[1]}"


# --- ladder ----------------------------------------------------------------
# Large distinct setups, each ranked by both routes as the default
# `cblocks rank` does, one level above critical so that the vanishing theorem
# forces rank_cb == rank_classical.  The fixed rung pins a known answer.

LADDER_RUNG = (2, 40, ("20w1",) * 6, 17941)
# (r, points, largest first row, setups per round)
LADDER_CLASSES = ((2, 6, 5, 200), (3, 6, 3, 100))


def ladder_ops(seed: int, count: int, variant: int = 0):
    """The fixed rung plus `count - 1` seeded setups, split across the classes."""
    rng = _rng("ladder", seed, variant)
    r, level, texts, expected = LADDER_RUNG
    ops = [(cb.BlockSetup(r, level, parse_weight_list(",".join(texts), r)), expected)]
    full = sum(c[3] for c in LADDER_CLASSES)
    for i, (r, n, first, share) in enumerate(LADDER_CLASSES):
        k = (count - 1) * share // full if i + 1 < len(LADDER_CLASSES) else count - len(ops)
        for ws in _sized_tuples(rng, r, n, first, k, lambda t, r=r: t % (r + 1) == 0):
            total = sum(w.size for w in ws)
            level = max(total // (r + 1), max(w.row(1) for w in ws))
            ops.append((cb.BlockSetup(r, level, ws), None))
    rng.shuffle(ops)
    return ops


def ladder_run(op, ctx):
    setup, _ = op
    return cb.cb_rank(setup), schur.coinvariant_rank(setup.r, setup.weights)


def ladder_check(op, answer):
    _, expected = op
    rank_cb, rank_classical = answer
    if rank_cb != rank_classical:
        return f"above critical but rank_cb {rank_cb} != rank_classical {rank_classical}"
    if expected is not None and rank_cb != expected:
        return f"fixed rung gave {rank_cb}, expected {expected}"
    return None


# --- quantum ---------------------------------------------------------------
# Witten's route below the critical level (s >= 1 copies of the level class),
# so rim hooks are removed: the one workload where qgrass does most of the work.

QUANTUM_CLASSES = ((2, 14, 7), (3, 12, 5), (4, 10, 4))   # (r, points, level)


def quantum_ops(seed: int, count: int, variant: int = 0):
    rng = _rng("quantum", seed, variant)
    ops = []
    for i, (r, n, level) in enumerate(QUANTUM_CLASSES):
        k = (count + i) // len(QUANTUM_CLASSES)
        valid = (lambda t, r=r, level=level: t % (r + 1) == 0 and t // (r + 1) - level >= 1)
        ops.extend(cb.BlockSetup(r, level, ws)
                   for ws in _sized_tuples(rng, r, n, level, k, valid))
    rng.shuffle(ops)
    return ops


def quantum_run(setup, ctx):
    return cb.witten_rank(setup)


def quantum_check(setup, answer):
    return None if isinstance(answer, int) and answer >= 0 else f"bad rank {answer!r}"


def quantum_cross_check(setup, answer):
    rank = cb.cb_rank(setup)
    return None if rank == answer else f"witten_rank {answer} != cb_rank {rank}"


# --- cli -------------------------------------------------------------------
# One-shot `cblocks` processes on the README inputs: interpreter start-up,
# import, argparse, rendering and the `table` process pool.

CLI_INPUTS = {
    "table": ("table",),
    "rank": ("rank", "--r", "2", "--level", "1", "--weights", "w1,w1,w1,w1,w1,w1",
             "--method", "both"),
    "vanish": ("vanish", "--r", "2", "--level", "6", "--weights", "2w1+w2,w2,2w1,2w2,3w2"),
    "degree": ("degree", "--r", "2", "--level", "1", "--weights", "w1,w1,w2,w2"),
    "gw": ("gw", "--grassmannian", "2,4", "--classes", "[2];[1,1];[2,2]", "--qdegree", "1"),
    "fcurve": ("fcurve", "--r", "2", "--level", "1", "--weights", "w1,w1,w1,w1,w1,w1",
               "--curve", "1|2|3|4,5,6"),
    "hassett": ("hassett", "--r", "2", "--level", "5", "--weights",
                "2w1,2w1,2w1,2w1,2w1,2w1,w2,2w2", "--mode", "theta"),
    "partner": ("partner", "--r", "2", "--level", "1", "--weights", "w1,w1,w1,w1,w1,w1"),
}


def cli_ops(seed: int, count: int, variant: int = 0):
    """Cycles through every command; the seed orders each cycle."""
    rng = _rng("cli", seed, variant)
    ops = []
    while len(ops) < count:
        cycle = sorted(CLI_INPUTS)
        rng.shuffle(cycle)
        ops.extend(cycle)
    return ops[:count]


def golden(command: str) -> bytes:
    return (GOLDEN_DIR / f"{command}.txt").read_bytes()


def cli_run(command, ctx):
    """Run one `cblocks` process; returns (command, exit code, stdout bytes)."""
    proc = subprocess.run(ctx.cli_argv() + list(CLI_INPUTS[command]),
                          env=ctx.env, cwd=ctx.root, capture_output=True,
                          timeout=CLI_TIMEOUT_S)
    return command, proc.returncode, proc.stdout


def cli_check(command, answer):
    _, code, out = answer
    if code != 0:
        return f"{command} exited {code}"
    if out != golden(command):
        return f"{command} output differs from golden/{command}.txt"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    ops_per_round: int
    make_ops: Callable
    run_op: Callable
    check: Callable
    cross_check: Optional[Callable] = None
    spawns: bool = False    # operations run in child processes


WORKLOADS = {
    "sweep": Workload("sweep", 40000, sweep_ops, sweep_run, sweep_check, sweep_cross_check),
    "ladder": Workload("ladder", 301, ladder_ops, ladder_run, ladder_check),
    "quantum": Workload("quantum", 78, quantum_ops, quantum_run, quantum_check,
                        quantum_cross_check),
    "cli": Workload("cli", 40, cli_ops, cli_run, cli_check, spawns=True),
}


def child_env(root: Path) -> dict:
    """Environment for processes that import the checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("CBLOCKS_JOBS", None)   # `table` keeps its default process pool
    return env


@dataclass
class RunContext:
    """What an operation needs from the round running it."""

    root: Path
    env: dict
    shim: Optional[Path] = None     # traced `cblocks` entry point, or None

    def cli_argv(self):
        if self.shim is None:
            return [sys.executable, "-m", "cblocks.cli"]
        return [sys.executable, str(self.shim)]

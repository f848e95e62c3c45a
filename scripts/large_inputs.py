#!/usr/bin/env python3
"""Time the ladder of large inputs, each in a fresh process.

Every row is one child interpreter that imports the package from a
checkout's `src/` (this one's unless --src names another), so its caches
start cold, as a user's process does.  For each row the script prints the
child's exit code, wall time, process CPU (user + system) and max RSS, and
the last line the child printed, so two checkouts can be compared on the
same answers.  Rows run in the order given, all of them by default:

    python3 scripts/large_inputs.py
    python3 scripts/large_inputs.py staircase_1200 tall_r1e6
    python3 scripts/large_inputs.py --src ../other-checkout six100
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

_SIX = """\
from cblocks.cb import cb_rank
from cblocks.schur import coinvariant_rank
from cblocks.young import BlockSetup, SlWeight
s = BlockSetup(2, {level}, (SlWeight(2, ({k},)),) * 6)
print(cb_rank(s), coinvariant_rank(2, s.weights))
"""


def _staircase(n):
    rows = ",".join(str(x) for x in range(n, 0, -1))
    return ["rank", "--r", str(n), "--level", str(n), "--weights", f"[{rows}],w1,w{n}"]


# name -> ("cli", argv of the cblocks command) or ("python", program text)
ROWS = {
    # sl3, six (k), level 2k: the fusion and the classical route
    "six100": ("python", _SIX.format(k=100, level=200)),
    "six200": ("python", _SIX.format(k=200, level=400)),
    # the classical route alone on six (200)
    "six200_classical": ("python", """\
from cblocks.schur import coinvariant_rank
from cblocks.young import SlWeight
print(coinvariant_rank(2, (SlWeight(2, (200,)),) * 6))
"""),
    # the quantum route on six (100) one level below critical: a wide box
    "six100_witten": ("python", """\
from cblocks.cb import witten_rank
from cblocks.young import BlockSetup, SlWeight
print(witten_rank(BlockSetup(2, 199, (SlWeight(2, (100,)),) * 6)))
"""),
    # the README's sl5 ten-point input, all three routes
    "sl5_ten": ("cli", ["rank", "--r", "4", "--level", "6", "--weights",
                        "w1+w2+w4,w1+2w4,3w1+w2+w4,3w1+w3+w4,2w1,w2+2w3+3w4,"
                        "w1+w2,3w1+w2,4w1+w2+w4,5w1", "--method", "both"]),
    # six (1^32) in sl64: the k = 32 level-rank dual's classical route
    "dual_k32": ("python", """\
from cblocks.schur import coinvariant_rank
from cblocks.young import SlWeight
print(coinvariant_rank(63, (SlWeight(63, (1,) * 32),) * 6))
"""),
    "tall_r1e6": ("cli", ["rank", "--r", "1000000", "--level", "1", "--weights",
                          "w1,w1,w1,w999998", "--method", "both"]),
    # the staircase [n, ..., 1] with w1 and wn in sl_{n+1} at level n
    "staircase_1200": ("cli", _staircase(1200)),
    "staircase_2000": ("cli", _staircase(2000)),
    # the LR kernel alone: s_(5000, ..., 1) * s_(1), 5001 constituents
    "walk_5000": ("python", """\
from cblocks.schur import _lr_walk
print(len(_lr_walk(tuple(range(5000, 0, -1)), (1,), 5002)))
"""),
}


def run_row(name, src):
    """(exit code, wall s, CPU s, max RSS MB, last output line) of one row."""
    kind, what = ROWS[name]
    argv = ([sys.executable, "-m", "cblocks.cli"] + what if kind == "cli"
            else [sys.executable, "-c", what])
    env = dict(os.environ, PYTHONPATH=str(src / "src"), PYTHONDONTWRITEBYTECODE="1")
    started = time.perf_counter()
    child = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    out = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - started
    # reaped by wait4, which also gives the child's own CPU and max RSS
    child.returncode = os.waitstatus_to_exitcode(status)
    lines = out.decode(errors="replace").strip().splitlines()
    return (child.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024, " ".join(lines[-1].split()) if lines else "")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rows", nargs="*", metavar="row",
                        help=f"rows to run (default all): {', '.join(ROWS)}")
    parser.add_argument("--src", type=Path, default=REPO,
                        help="the checkout whose src/ the children import")
    args = parser.parse_args(argv)
    unknown = [name for name in args.rows if name not in ROWS]
    if unknown:
        parser.error(f"unknown row {unknown[0]!r}; the rows are {', '.join(ROWS)}")
    for name in args.rows or ROWS:
        code, wall, cpu, rss, last = run_row(name, args.src.resolve())
        print(f"{name:<17} exit {code}  wall {wall:6.2f} s  cpu {cpu:6.2f} s  "
              f"max_rss {rss:7.1f} MB  | {last}", flush=True)


if __name__ == "__main__":
    main()

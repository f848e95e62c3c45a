#!/usr/bin/env python3
"""Search for rank equality that the vanishing bounds do not explain.

Above the critical or theta level the bundle rank provably equals the
coinvariant rank, so the interesting tuples are the ones at or BELOW both
bounds whose ranks nevertheless agree.  This sweep samples random setups,
keeps the unexplained hits, and buckets them by candidate explanations
(zero rank, rank one, level exactly critical, self-dual weight multiset)
to suggest where an exact condition might live.
"""

import argparse
import random
import sys
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cblocks.cb import BlockSetup, vanishing_report
from cblocks.young import SlWeight, dual_star, weight_text


@dataclass(frozen=True)
class SearchConfig:
    samples: int = 2000
    seed: int = 0
    max_rank: int = 3
    max_level: int = 4
    min_points: int = 3
    max_points: int = 6
    max_size: int = 6
    show: int = field(default=8,
                      metadata={"help": "how many unexplained hits to print in full"})


def random_partition(rng, max_rows, max_size, max_first):
    parts = []
    budget, cap = max_size, min(max_size, max_first)
    for _ in range(max_rows):
        nxt = rng.randint(0, min(cap, budget))
        if nxt == 0:
            break
        parts.append(nxt)
        budget -= nxt
        cap = nxt
    return tuple(parts)


def random_setup(rng, cfg):
    r = rng.randint(1, cfg.max_rank)
    level = rng.randint(1, cfg.max_level)
    n = rng.randint(cfg.min_points, cfg.max_points)
    ws = tuple(SlWeight(r, random_partition(rng, r, cfg.max_size, level))
               for _ in range(n))
    return BlockSetup(r, level, ws)


def classify(setup, report):
    tags = []
    if report.rank_classical == 0:
        tags.append("rank 0")
    elif report.rank_classical == 1:
        tags.append("rank 1")
    if report.critical_level is not None and setup.level == report.critical_level:
        tags.append("level = critical")
    if Counter(setup.weights) == Counter(dual_star(w) for w in setup.weights):
        tags.append("self-dual multiset")
    return tuple(tags) or ("no obvious feature",)


def describe(setup):
    ws = ",".join(weight_text(w) for w in setup.weights)
    return f"sl{setup.r + 1} level {setup.level}  [{ws}]"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for f in fields(SearchConfig):
        parser.add_argument("--" + f.name.replace("_", "-"), type=f.type, default=f.default,
                            help=f.metadata.get("help"))
    cfg = SearchConfig(**vars(parser.parse_args(argv)))
    # random_setup draws from these ranges; an empty one would end in randint
    for name, low in (("max_rank", 1), ("max_level", 1), ("max_size", 0),
                      ("samples", 0), ("min_points", 0), ("show", 0)):
        if getattr(cfg, name) < low:
            parser.error(f"--{name.replace('_', '-')} must be at least {low}")
    if cfg.min_points > cfg.max_points:
        parser.error(f"--min-points {cfg.min_points} exceeds --max-points {cfg.max_points}")

    rng = random.Random(cfg.seed)
    explained = below_and_equal = below_and_strict = 0
    buckets = Counter()
    samples_to_print = []
    for _ in range(cfg.samples):
        setup = random_setup(rng, cfg)
        report = vanishing_report(setup)
        if report.bound:
            explained += 1
            continue
        if not report.ranks_equal:
            below_and_strict += 1
            continue
        below_and_equal += 1
        tags = classify(setup, report)
        buckets[tags] += 1
        if tags == ("no obvious feature",) and len(samples_to_print) < cfg.show:
            samples_to_print.append((setup, report))

    total = cfg.samples
    print(f"samples                    {total}")
    print(f"above a vanishing bound    {explained}")
    print(f"below both, ranks differ   {below_and_strict}")
    print(f"below both, ranks equal    {below_and_equal}")
    print()
    print("equal-rank hits by feature set:")
    for tags, count in buckets.most_common():
        print(f"  {count:6d}  {'; '.join(tags)}")
    if samples_to_print:
        print()
        print("unexplained hits:")
        for setup, report in samples_to_print:
            print(f"  {describe(setup)}  rank {report.rank_cb},"
                  f" critical {report.critical_level}, theta {report.theta_level}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Every command assembles a ResultDocument (query echo, results, meta) and the
chosen format renders it.  Text output never includes timing, so identical
invocations print identical bytes; JSON and CSV carry the full document.

Exit codes: 0 success, 1 usage or parse error, 2 precondition violation
(the message names the failed hypothesis), 3 internal consistency failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from . import __version__
from .cb import (
    BlockSetup,
    cb_rank,
    degree_m04,
    partner,
    vanishing_report,
    witten_rank,
)
from .errors import ConsistencyError, DomainError, ParseError
from .nefgeo import (
    contracts_theta,
    contracts_typeA,
    hassett_weights_theta,
    hassett_weights_typeA,
    hassett_contracts,
    parse_fcurve,
)
from .qgrass import GrassmannBox, gw_invariant
from .schur import coinvariant_rank
from .young import parse_partition, parse_weight_list, transpose, weight_text

JOBS_ENV = "CBLOCKS_JOBS"


@dataclass
class ResultDocument:
    command: str
    parameters: dict
    results: dict
    meta: dict = field(default_factory=dict)

    def flat(self):
        yield "query.command", self.command
        for k, v in self.parameters.items():
            yield f"query.{k}", v
        for k, v in self.results.items():
            yield f"results.{k}", v
        for k, v in self.meta.items():
            yield f"meta.{k}", v

    def to_json(self) -> str:
        doc = {
            "query": {"command": self.command, "parameters": self.parameters},
            "results": self.results,
            "meta": self.meta,
        }
        return json.dumps(doc, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for k, v in self.flat():
            writer.writerow([k, v])
        return buf.getvalue()

    def to_text(self) -> str:
        echo = " ".join([self.command] + [f"--{k} {v}" for k, v in self.parameters.items()])
        lines = [echo]
        width = max((len(k) for k in self.results), default=0)
        for k, v in self.results.items():
            lines.append(f"{k:<{width}}  {v}")
        return "\n".join(lines) + "\n"


def _fmt_bool(b) -> str:
    return "true" if b else "false"


def _weights_text(ws) -> str:
    return ",".join(weight_text(w) for w in ws)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="cblocks", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_text, weights=True, level=True):
        q = sub.add_parser(name, help=help_text)
        if level:
            q.add_argument("--r", type=int, required=True,
                           help="algebra parameter: weights live in sl_{r+1}")
            q.add_argument("--level", type=int, required=True)
        if weights:
            q.add_argument("--weights", required=True,
                           help="comma-separated list, entries like 2w1+w3 or [3,1,1] or 0")
        q.add_argument("--format", choices=("text", "json", "csv"), default="text")
        return q

    q = add("rank", "bundle rank, with the classical rank alongside")
    q.add_argument("--classical", action="store_true",
                   help="report only the classical (coinvariant) rank")
    q.add_argument("--method", choices=("fusion", "witten", "both"), default="fusion")

    add("degree", "degree on the four-point moduli line, with its breakdown")
    add("vanish", "levels, thresholds, and both ranks")

    q = add("partner", "transposed setup at swapped parameters, with the rank identity")
    q.add_argument("--force", action="store_true",
                   help="skip the critical-level requirement (exploration only)")

    q = sub.add_parser("gw", help="one Gromov-Witten invariant of a Grassmannian")
    q.add_argument("--grassmannian", required=True, metavar="K,N")
    q.add_argument("--classes", required=True, metavar="[p1];[p2];...")
    q.add_argument("--qdegree", type=int, required=True)
    q.add_argument("--format", choices=("text", "json", "csv"), default="text")

    q = add("fcurve", "does the divisor contract this F-curve")
    q.add_argument("--curve", required=True, metavar="1|2|3|4,5,6")
    q.add_argument("--mode", choices=("typeA", "theta"), default="typeA")

    q = add("hassett", "rational weight data for the induced map")
    q.add_argument("--mode", choices=("typeA", "theta"), required=True)

    q = sub.add_parser("table", help="recompute the built-in reference table")
    q.add_argument("--format", choices=("text", "json", "csv"), default="text")
    return p


def _cmd_rank(ns) -> ResultDocument:
    ws = parse_weight_list(ns.weights, ns.r)
    setup = BlockSetup(ns.r, ns.level, ws)
    params = {"r": str(ns.r), "level": str(ns.level), "weights": _weights_text(ws)}
    results = {}
    if ns.classical:
        params["classical"] = "true"
        results["rank_classical"] = str(coinvariant_rank(ns.r, ws))
    else:
        params["method"] = ns.method
        if ns.method in ("fusion", "both"):
            results["rank_cb"] = str(cb_rank(setup))
        if ns.method in ("witten", "both"):
            results["rank_witten"] = str(witten_rank(setup))
        if ns.method == "both" and results["rank_cb"] != results["rank_witten"]:
            raise ConsistencyError(
                f"rank routes disagree: fusion {results['rank_cb']} != "
                f"witten {results['rank_witten']}")
        results["rank_classical"] = str(coinvariant_rank(ns.r, ws))
    return ResultDocument("rank", params, results)


def _cmd_degree(ns) -> ResultDocument:
    ws = parse_weight_list(ns.weights, ns.r)
    br = degree_m04(ns.r, ns.level, ws)
    params = {"r": str(ns.r), "level": str(ns.level), "weights": _weights_text(ws)}
    results = {
        "degree": str(br.degree),
        "bulk_term": str(br.bulk_term),
        "pairing_12_34": str(br.pairing_terms[0]),
        "pairing_13_24": str(br.pairing_terms[1]),
        "pairing_14_23": str(br.pairing_terms[2]),
    }
    return ResultDocument("degree", params, results)


def _cmd_vanish(ns) -> ResultDocument:
    ws = parse_weight_list(ns.weights, ns.r)
    rep = vanishing_report(BlockSetup(ns.r, ns.level, ws))
    params = {"r": str(ns.r), "level": str(ns.level), "weights": _weights_text(ws)}
    results = {
        "critical_level": "undefined" if rep.critical_level is None else str(rep.critical_level),
        "theta_level": str(rep.theta_level),
        "above_critical": _fmt_bool(rep.above_critical),
        "above_theta": _fmt_bool(rep.above_theta),
        "rank_classical": str(rep.rank_classical),
        "rank_cb": str(rep.rank_cb),
        "ranks_equal": _fmt_bool(rep.ranks_equal),
    }
    return ResultDocument("vanish", params, results)


def _cmd_partner(ns) -> ResultDocument:
    ws = parse_weight_list(ns.weights, ns.r)
    data = partner(BlockSetup(ns.r, ns.level, ws), force=ns.force)
    params = {"r": str(ns.r), "level": str(ns.level), "weights": _weights_text(ws)}
    if ns.force:
        params["force"] = "true"
    results = {
        "partner_r": str(data.partner.r),
        "partner_level": str(data.partner.level),
        "partner_weights": _weights_text(data.partner.weights),
        "rank_source": str(data.rank_source),
        "rank_partner": str(data.rank_partner),
        "rank_classical": str(data.rank_classical),
    }
    return ResultDocument("partner", params, results)


def _cmd_gw(ns) -> ResultDocument:
    try:
        k_text, n_text = ns.grassmannian.split(",")
        box = GrassmannBox(int(k_text), int(n_text))
    except (ValueError, DomainError) as e:
        raise ParseError(f"bad --grassmannian {ns.grassmannian!r}: {e}") from None
    classes = [parse_partition(chunk) for chunk in ns.classes.split(";")]
    value = gw_invariant(box, classes, ns.qdegree)
    params = {
        "grassmannian": f"{box.k},{box.n}",
        "classes": ";".join("[" + ",".join(str(x) for x in p) + "]" for p in classes),
        "qdegree": str(ns.qdegree),
    }
    return ResultDocument("gw", params, {"value": str(value)})


def _fcurve_text(f) -> str:
    return "|".join(",".join(str(i) for i in sorted(b)) for b in f.blocks)


def _cmd_fcurve(ns) -> ResultDocument:
    ws = parse_weight_list(ns.weights, ns.r)
    f = parse_fcurve(ns.curve, len(ws))
    if ns.mode == "typeA":
        verdict = contracts_typeA(ns.r, ns.level, ws, f)
    else:
        verdict = contracts_theta(ns.level, ws, f)
    params = {"r": str(ns.r), "level": str(ns.level), "weights": _weights_text(ws),
              "curve": _fcurve_text(f), "mode": ns.mode}
    return ResultDocument("fcurve", params, {"contracts": _fmt_bool(verdict)})


def _cmd_hassett(ns) -> ResultDocument:
    ws = parse_weight_list(ns.weights, ns.r)
    if ns.mode == "typeA":
        hw = hassett_weights_typeA(ns.r, ns.level, ws)
    else:
        hw = hassett_weights_theta(ns.level, ws)
    params = {"r": str(ns.r), "level": str(ns.level), "weights": _weights_text(ws),
              "mode": ns.mode}
    results = {f"a{i}": str(a) for i, a in enumerate(hw.weights, start=1)}
    return ResultDocument("hassett", params, results)


# Reference table: (expected degree or "*", r, level, weight texts, expected
# classical rank, expected bundle rank, expected transposed-bundle rank).
REFERENCE_TABLE = (
    ("*", 2, 1, ("w1",) * 6, "5", "1", "4"),
    ("1", 2, 1, ("w1", "w1", "w2", "w2"), "2", "1", "1"),
    ("0", 3, 3, ("w1", "2w1+w3", "2w1+w3", "2w1+w3"), "2", "1", "1"),
    ("*", 2, 5, ("2w1+w2", "w2", "2w1", "2w2", "3w2"), "7", "7", "0"),
    ("*", 2, 4, ("2w1+w2", "w2", "2w1", "2w2", "w1+w2"), "9", "8", "1"),
    ("0", 3, 3, ("w2+w3", "w1", "w1+2w2", "2w1+w3"), "2", "1", "1"),
    ("0", 3, 4, ("w1", "2w1+w2+w3", "3w1+w3", "3w1+w3"), "2", "1", "1"),
    ("1", 3, 4, ("w1+w3", "2w1+2w2", "2w1+2w2", "4w1"), "4", "1", "3"),
    ("*", 2, 5, ("2w1",) * 6 + ("w2", "2w2"), "150", "136", "14"),
)

_TABLE_CELLS = ("deg", "rank_classical", "rank_cb", "rank_transpose")


def _table_row(entry):
    deg_expected, r, level, weight_texts, rka, rkv, rkt = entry
    ws = parse_weight_list(",".join(weight_texts), r)
    setup = BlockSetup(r, level, ws)
    flipped = BlockSetup(level, r, tuple(transpose(w, level) for w in ws))
    if len(ws) == 4:
        deg = str(degree_m04(r, level, ws).degree)
    else:
        deg = "*"
    computed = {
        "deg": deg,
        "rank_classical": str(coinvariant_rank(r, ws)),
        "rank_cb": str(cb_rank(setup)),
        "rank_transpose": str(cb_rank(flipped)),
    }
    expected = {"deg": deg_expected, "rank_classical": rka,
                "rank_cb": rkv, "rank_transpose": rkt}
    return computed, expected


def _jobs() -> int:
    raw = os.environ.get(JOBS_ENV, "")
    if raw.strip():
        try:
            return max(1, int(raw))
        except ValueError:
            raise ParseError(f"{JOBS_ENV} must be an integer, got {raw!r}") from None
    return os.cpu_count() or 1


def _cmd_table(ns) -> ResultDocument:
    jobs = min(_jobs(), len(REFERENCE_TABLE))
    if jobs > 1 and hasattr(os, "fork"):
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_table_row, REFERENCE_TABLE))
    else:
        rows = [_table_row(entry) for entry in REFERENCE_TABLE]

    results = {}
    failing = 0
    for i, (computed, expected) in enumerate(rows, start=1):
        for cell in _TABLE_CELLS:
            ok = computed[cell] == expected[cell]
            failing += 0 if ok else 1
            results[f"row{i}.{cell}"] = computed[cell]
            results[f"row{i}.{cell}.status"] = "PASS" if ok else "FAIL"
    results["cells_failing"] = str(failing)

    doc = ResultDocument("table", {}, results)
    doc.text_override = _render_table_text(rows, failing)
    return doc


def _render_table_text(rows, failing) -> str:
    header = ("row", "algebra", "level", "n", "weights", "deg",
              "rank_classical", "rank_cb", "rank_transpose", "status")
    grid = [header]
    for i, ((computed, expected), entry) in enumerate(zip(rows, REFERENCE_TABLE), start=1):
        _, r, level, weight_texts, *_rest = entry
        bad = [cell for cell in _TABLE_CELLS if computed[cell] != expected[cell]]
        status = "PASS" if not bad else "FAIL:" + ",".join(
            f"{cell}={computed[cell]}(expected {expected[cell]})" for cell in bad)
        grid.append((str(i), f"sl{r + 1}", str(level), str(len(weight_texts)),
                     ",".join(weight_texts), computed["deg"], computed["rank_classical"],
                     computed["rank_cb"], computed["rank_transpose"], status))
    widths = [max(len(line[c]) for line in grid) for c in range(len(header))]
    out = []
    for line in grid:
        out.append("  ".join(f"{cell:<{w}}" for cell, w in zip(line, widths)).rstrip())
    out.append(f"cells failing: {failing}")
    return "\n".join(out) + "\n"


_HANDLERS = {
    "rank": _cmd_rank,
    "degree": _cmd_degree,
    "vanish": _cmd_vanish,
    "partner": _cmd_partner,
    "gw": _cmd_gw,
    "fcurve": _cmd_fcurve,
    "hassett": _cmd_hassett,
    "table": _cmd_table,
}


def run(argv, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    started = time.perf_counter()
    try:
        ns = parser.parse_args(argv)
        doc = _HANDLERS[ns.command](ns)
    except ParseError as e:
        print(str(e), file=stderr)
        return 1
    except DomainError as e:
        print(str(e), file=stderr)
        return 2
    except ConsistencyError as e:
        print(str(e), file=stderr)
        return 3
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)
    doc.meta = {"version": __version__,
                "elapsed_ms": str(int((time.perf_counter() - started) * 1000))}
    if ns.format == "json":
        stdout.write(doc.to_json())
    elif ns.format == "csv":
        stdout.write(doc.to_csv())
    else:
        stdout.write(getattr(doc, "text_override", None) or doc.to_text())
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Command-line front end.

Every command assembles a ResultDocument (query echo, results, meta) and the
chosen format renders it.  Text output never includes timing, so identical
invocations print identical bytes; JSON and CSV carry the full document.

Exit codes: 0 success, 1 usage or parse error, 2 precondition violation
(the message names the failed hypothesis), 3 internal consistency failure.

Each handler imports the modules it calls when it runs, so a process loads
only what its command needs: `gw` never loads cb or nefgeo, and `fcurve` and
`hassett` load neither cb, qgrass nor schur.  A one-shot process compiles and
runs every module it imports, which is most of a small command's time.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import __version__
from .errors import ConsistencyError, DomainError, ParseError
from .young import parse_partition, parse_weight_list, weight_text


class ResultDocument:
    """Query echo, results and meta of one command, rendered in each format."""

    __slots__ = ("command", "parameters", "results", "meta", "text")

    def __init__(self, command: str, parameters: dict, results: dict, text: str = ""):
        self.command = command
        self.parameters = parameters
        self.results = results
        self.meta = {}
        self.text = text  # preformatted text output; replaces the echo layout

    def flat(self):
        yield "query.command", self.command
        for k, v in self.parameters.items():
            yield f"query.{k}", v
        for k, v in self.results.items():
            yield f"results.{k}", v
        for k, v in self.meta.items():
            yield f"meta.{k}", v

    def to_json(self) -> str:
        import json

        doc = {
            "query": {"command": self.command, "parameters": self.parameters},
            "results": self.results,
            "meta": self.meta,
        }
        return json.dumps(doc, indent=2) + "\n"

    def to_csv(self) -> str:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for k, v in self.flat():
            writer.writerow([k, v])
        return buf.getvalue()

    def to_text(self) -> str:
        if self.text:
            return self.text
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


def _weights_and_echo(ns):
    """The parsed weights and the r/level/weights echo every setup command starts with."""
    ws = parse_weight_list(ns.weights, ns.r)
    return ws, {"r": str(ns.r), "level": str(ns.level), "weights": _weights_text(ws)}


def _cmd_rank(ns) -> ResultDocument:
    from .cb import BlockSetup, cb_rank, witten_rank
    from .schur import coinvariant_rank

    ws, params = _weights_and_echo(ns)
    setup = BlockSetup(ns.r, ns.level, ws)
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
    from .cb import degree_m04

    ws, params = _weights_and_echo(ns)
    br = degree_m04(ns.r, ns.level, ws)
    results = {
        "degree": str(br.degree),
        "bulk_term": str(br.bulk_term),
        "pairing_12_34": str(br.pairing_terms[0]),
        "pairing_13_24": str(br.pairing_terms[1]),
        "pairing_14_23": str(br.pairing_terms[2]),
    }
    return ResultDocument("degree", params, results)


def _cmd_vanish(ns) -> ResultDocument:
    from .cb import BlockSetup, degree_m04, vanishing_report

    ws, params = _weights_and_echo(ns)
    rep = vanishing_report(BlockSetup(ns.r, ns.level, ws))
    if len(ws) == 4 and (rep.above_critical or rep.above_theta):
        degree = degree_m04(ns.r, ns.level, ws).degree
        if degree:
            bound = "critical" if rep.above_critical else "theta"
            raise ConsistencyError(
                f"degree {degree} != 0 above a vanishing bound ({bound} level)")
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
    from .cb import BlockSetup, partner

    ws, params = _weights_and_echo(ns)
    data = partner(BlockSetup(ns.r, ns.level, ws), force=ns.force)
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
    from .qgrass import GrassmannBox, gw_invariant

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
    from .nefgeo import contracts_theta, contracts_typeA, parse_fcurve

    ws, params = _weights_and_echo(ns)
    f = parse_fcurve(ns.curve, len(ws))
    if ns.mode == "typeA":
        verdict = contracts_typeA(ns.r, ns.level, ws, f)
    else:
        verdict = contracts_theta(ns.level, ws, f)
    params.update(curve=_fcurve_text(f), mode=ns.mode)
    return ResultDocument("fcurve", params, {"contracts": _fmt_bool(verdict)})


def _cmd_hassett(ns) -> ResultDocument:
    from .nefgeo import hassett_weights_theta, hassett_weights_typeA

    ws, params = _weights_and_echo(ns)
    if ns.mode == "typeA":
        hw = hassett_weights_typeA(ns.r, ns.level, ws)
    else:
        hw = hassett_weights_theta(ns.level, ws)
    params["mode"] = ns.mode
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
    """The computed cells of one reference row, and the expected value of each
    cell that differs from its computed one."""
    from .cb import BlockSetup, partner

    deg_expected, r, level, weight_texts, rka, rkv, rkt = entry
    ws = parse_weight_list(",".join(weight_texts), r)
    data = partner(BlockSetup(r, level, ws))
    computed = {
        "deg": "*" if data.degree_source is None else str(data.degree_source),
        "rank_classical": str(data.rank_classical),
        "rank_cb": str(data.rank_source),
        "rank_transpose": str(data.rank_partner),
    }
    wrong = {cell: want for cell, want in zip(_TABLE_CELLS, (deg_expected, rka, rkv, rkt))
             if computed[cell] != want}
    return computed, wrong


def _cmd_table(ns) -> ResultDocument:
    rows = [_table_row(entry) for entry in REFERENCE_TABLE]

    results = {}
    for i, (computed, wrong) in enumerate(rows, start=1):
        for cell in _TABLE_CELLS:
            results[f"row{i}.{cell}"] = computed[cell]
            results[f"row{i}.{cell}.status"] = "FAIL" if cell in wrong else "PASS"
    failing = sum(len(wrong) for _, wrong in rows)
    results["cells_failing"] = str(failing)

    return ResultDocument("table", {}, results, text=_render_table_text(rows, failing))


def _render_table_text(rows, failing) -> str:
    header = ("row", "algebra", "level", "n", "weights", "deg",
              "rank_classical", "rank_cb", "rank_transpose", "status")
    grid = [header]
    for i, ((computed, wrong), entry) in enumerate(zip(rows, REFERENCE_TABLE), start=1):
        _, r, level, weight_texts, *_rest = entry
        status = "PASS" if not wrong else "FAIL:" + ",".join(
            f"{cell}={computed[cell]}(expected {want})" for cell, want in wrong.items())
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
        stdout.write(doc.to_text())
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

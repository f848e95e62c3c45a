"""Command-line front end.

Each command is registered once, in `_build_parser`, with its handler.  A
handler returns `(params, results)`, and `table` adds the text that replaces
the echo layout.  `_render` owns the three formats: JSON and CSV carry the
query, results and meta block; text never includes timing, so identical
invocations print identical bytes.

Exit codes: 0 success, 1 usage or parse error, 2 precondition violation
(the message names the failed hypothesis), 3 internal consistency failure.

Each handler imports the modules it calls when it runs, so a process loads
only what its command needs: `gw` never loads cb or nefgeo, and `fcurve` and
`hassett` load neither cb, qgrass nor schur.  A one-shot process compiles and
runs every module it imports, which is most of a small command's time.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time

from . import __version__
from .errors import ConsistencyError, DomainError, ParseError
from .young import BlockSetup, parse_partition, parse_weight_list, weight_text


def _fmt_bool(b) -> str:
    return "true" if b else "false"


def _weights_text(ws) -> str:
    return ",".join(weight_text(w) for w in ws)


def _weights_and_echo(ns):
    """The setup and the r/level/weights echo every setup command starts with."""
    ws = parse_weight_list(ns.weights, ns.r)
    params = {"r": str(ns.r), "level": str(ns.level), "weights": _weights_text(ws)}
    return BlockSetup(ns.r, ns.level, ws), params


def _cmd_rank(ns):
    from .cb import vanishing_report, witten_rank
    from .schur import coinvariant_rank

    setup, params = _weights_and_echo(ns)
    results = {}
    if ns.classical:
        params["classical"] = "true"
    else:
        # each route checks its rank against the classical rank above either bound
        params["method"] = ns.method
        if ns.method in ("fusion", "both"):
            results["rank_cb"] = str(vanishing_report(setup).rank_cb)
        if ns.method in ("witten", "both"):
            results["rank_witten"] = str(witten_rank(setup))
        fusion, witten = results.get("rank_cb"), results.get("rank_witten")
        if ns.method == "both" and fusion != witten:
            raise ConsistencyError(f"rank routes disagree: fusion {fusion} != witten {witten}")
    results["rank_classical"] = str(coinvariant_rank(setup.r, setup.weights))
    return params, results


def _cmd_degree(ns):
    from .cb import degree_m04

    setup, params = _weights_and_echo(ns)
    br = degree_m04(setup)
    results = {
        "degree": str(br.degree),
        "bulk_term": str(br.bulk_term),
        "pairing_12_34": str(br.pairing_terms[0]),
        "pairing_13_24": str(br.pairing_terms[1]),
        "pairing_14_23": str(br.pairing_terms[2]),
    }
    return params, results


def _cmd_vanish(ns):
    from .cb import degree_m04, vanishing_report

    setup, params = _weights_and_echo(ns)
    rep = vanishing_report(setup)
    if setup.n == 4 and (rep.above_critical or rep.above_theta):
        degree_m04(setup)    # raises ConsistencyError on a nonzero degree there
    results = {
        "critical_level": "undefined" if rep.critical_level is None else str(rep.critical_level),
        "theta_level": str(rep.theta_level),
        "above_critical": _fmt_bool(rep.above_critical),
        "above_theta": _fmt_bool(rep.above_theta),
        "rank_classical": str(rep.rank_classical),
        "rank_cb": str(rep.rank_cb),
        "ranks_equal": _fmt_bool(rep.ranks_equal),
    }
    return params, results


def _cmd_partner(ns):
    from .cb import partner

    setup, params = _weights_and_echo(ns)
    data = partner(setup, force=ns.force)
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
    return params, results


def _cmd_gw(ns):
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
    return params, {"value": str(value)}


def _cmd_fcurve(ns):
    from .nefgeo import contracts, parse_fcurve

    setup, params = _weights_and_echo(ns)
    f = parse_fcurve(ns.curve, setup.n)
    verdict = contracts(setup, f, ns.mode)
    params.update(curve="|".join(",".join(map(str, sorted(b))) for b in f.blocks),
                  mode=ns.mode)
    return params, {"contracts": _fmt_bool(verdict)}


def _cmd_hassett(ns):
    from .nefgeo import hassett_weights

    setup, params = _weights_and_echo(ns)
    hw = hassett_weights(setup, ns.mode)
    params["mode"] = ns.mode
    results = {f"a{i}": str(a) for i, a in enumerate(hw.weights, start=1)}
    return params, results


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


def _cmd_table(ns):
    """Recompute each reference row, marking every computed cell PASS or FAIL."""
    from .cb import partner

    results = {}
    grid = [("row", "algebra", "level", "n", "weights") + _TABLE_CELLS + ("status",)]
    failing = 0
    for i, (deg, r, level, weight_texts, *ranks) in enumerate(REFERENCE_TABLE, start=1):
        weights = ",".join(weight_texts)
        data = partner(BlockSetup(r, level, parse_weight_list(weights, r)))
        computed = ("*" if data.degree_source is None else str(data.degree_source),
                    str(data.rank_classical), str(data.rank_source), str(data.rank_partner))
        wrong = []
        for cell, got, want in zip(_TABLE_CELLS, computed, (deg, *ranks)):
            results[f"row{i}.{cell}"] = got
            results[f"row{i}.{cell}.status"] = "PASS" if got == want else "FAIL"
            if got != want:
                wrong.append(f"{cell}={got}(expected {want})")
        failing += len(wrong)
        grid.append((str(i), f"sl{r + 1}", str(level), str(len(weight_texts)), weights,
                     *computed, "FAIL:" + ",".join(wrong) if wrong else "PASS"))
    results["cells_failing"] = str(failing)

    widths = [max(map(len, column)) for column in zip(*grid)]
    lines = ["  ".join(f"{cell:<{w}}" for cell, w in zip(line, widths)).rstrip()
             for line in grid]
    lines.append(f"cells failing: {failing}")
    return {}, results, "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="cblocks", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    setup = argparse.ArgumentParser(add_help=False)
    setup.add_argument("--r", type=int, required=True,
                       help="algebra parameter: weights live in sl_{r+1}")
    setup.add_argument("--level", type=int, required=True)
    setup.add_argument("--weights", required=True,
                       help="comma-separated list, entries like 2w1+w3 or [3,1,1] or 0")
    gw = argparse.ArgumentParser(add_help=False)
    gw.add_argument("--grassmannian", required=True, metavar="K,N")
    gw.add_argument("--classes", required=True, metavar="[p1];[p2];...")
    gw.add_argument("--qdegree", type=int, required=True)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json", "csv"), default="text")

    def add(name, handler, help, parents=(setup,)):
        q = sub.add_parser(name, help=help, parents=[*parents, fmt])
        q.set_defaults(handler=handler)
        return q

    q = add("rank", _cmd_rank, "bundle rank, with the classical rank alongside")
    q.add_argument("--classical", action="store_true",
                   help="report only the classical (coinvariant) rank")
    q.add_argument("--method", choices=("fusion", "witten", "both"), default="fusion")

    add("degree", _cmd_degree, "degree on the four-point moduli line, with its breakdown")
    add("vanish", _cmd_vanish, "levels, thresholds, and both ranks")

    q = add("partner", _cmd_partner,
            "transposed setup at swapped parameters, with the rank identity")
    q.add_argument("--force", action="store_true",
                   help="skip the critical-level requirement (exploration only)")

    add("gw", _cmd_gw, "one Gromov-Witten invariant of a Grassmannian", parents=(gw,))

    q = add("fcurve", _cmd_fcurve, "does the divisor contract this F-curve")
    q.add_argument("--curve", required=True, metavar="1|2|3|4,5,6")
    q.add_argument("--mode", choices=("typeA", "theta"), default="typeA")

    q = add("hassett", _cmd_hassett, "rational weight data for the induced map")
    q.add_argument("--mode", choices=("typeA", "theta"), required=True)

    add("table", _cmd_table, "recompute the built-in reference table", parents=())
    return p


def _render(fmt, command, params, results, meta, text="") -> str:
    """One command's query echo, results and meta block in the chosen format."""
    if fmt == "json":
        import json

        doc = {"query": {"command": command, "parameters": params},
               "results": results, "meta": meta}
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows((("key", "value"), ("query.command", command)))
        for section, values in (("query", params), ("results", results), ("meta", meta)):
            writer.writerows((f"{section}.{k}", v) for k, v in values.items())
        return buf.getvalue()
    if text:
        return text
    lines = [" ".join([command] + [f"--{k} {v}" for k, v in params.items()])]
    width = max((len(k) for k in results), default=0)
    lines += [f"{k:<{width}}  {v}" for k, v in results.items()]
    return "\n".join(lines) + "\n"


def run(argv, stdout=None, stderr=None) -> int:
    """Run one command and return its exit code.

    `stdout` and `stderr` (the process's streams by default) receive every
    byte the command writes, `--help` text included.
    """
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            ns = parser.parse_args(argv)
        params, results, *text = ns.handler(ns)
    except (ParseError, DomainError, ConsistencyError) as e:
        print(str(e), file=stderr)
        return 1 if isinstance(e, ParseError) else 2 if isinstance(e, DomainError) else 3
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)
    meta = {"version": __version__,
            "elapsed_ms": str(int((time.perf_counter() - started) * 1000))}
    stdout.write(_render(ns.format, ns.command, params, results, meta, *text))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

import argparse
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from cblocks.cli import REFERENCE_TABLE, run

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "perfbench" / "golden"
FORMAT_GOLDEN = REPO / "tests" / "golden"
COMMANDS = ("degree", "fcurve", "gw", "hassett", "partner", "rank", "table", "vanish")


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_rank_text_output():
    code, out, err = invoke("rank", "--r", "2", "--level", "1",
                            "--weights", "w1,w1,w1,w1,w1,w1", "--method", "both")
    assert code == 0 and err == ""
    assert out == (
        "rank --r 2 --level 1 --weights w1,w1,w1,w1,w1,w1 --method both\n"
        "rank_cb         1\n"
        "rank_witten     1\n"
        "rank_classical  5\n"
    )


def golden_argv(command):
    """The README input of a command, replayed from its golden text's echo line."""
    if command == "table":   # the table's first line is a header, not an echo
        return ["table"]
    return (GOLDEN / f"{command}.txt").read_text().splitlines()[0].split(" ")


def mask_elapsed(out):
    out = re.sub(r'"elapsed_ms": "\d+"', '"elapsed_ms": "*"', out)
    return re.sub(r"^meta\.elapsed_ms,\d+$", "meta.elapsed_ms,*", out, flags=re.M)


@pytest.mark.parametrize("command", COMMANDS)
def test_text_output_matches_golden(command):
    code, out, err = invoke(*golden_argv(command))
    assert code == 0 and err == ""
    assert out == (GOLDEN / f"{command}.txt").read_text()


@pytest.mark.parametrize("fmt", ("json", "csv"))
@pytest.mark.parametrize("command", COMMANDS)
def test_json_and_csv_output_match_golden(command, fmt):
    code, out, err = invoke(*golden_argv(command), "--format", fmt)
    assert code == 0 and err == ""
    assert mask_elapsed(out) == (FORMAT_GOLDEN / f"{command}.{fmt}").read_text()


@pytest.mark.parametrize("argv, expected", (
    (("partner", "--r", "2", "--level", "2", "--weights", "w1,w1,w1", "--force"),
     "partner --r 2 --level 2 --weights w1,w1,w1 --force true\n"
     "partner_r        2\n"
     "partner_level    2\n"
     "partner_weights  w1,w1,w1\n"
     "rank_source      1\n"
     "rank_partner     1\n"
     "rank_classical   1\n"),
    (("rank", "--r", "1", "--level", "2", "--weights", "w1,w1,w1,w1", "--method", "classical"),
     "rank --r 1 --level 2 --weights w1,w1,w1,w1 --method classical\n"
     "rank_classical  2\n"),
))
def test_flag_echo_text_output(argv, expected):
    assert invoke(*argv) == (0, expected, "")


# what each command must not load on top of dataclasses, which none may load
_UNWANTED = {
    None: ("json", "csv", "multiprocessing", "concurrent.futures",
           "cblocks.cb", "cblocks.qgrass", "cblocks.schur", "cblocks.nefgeo"),
    "gw": ("cblocks.cb", "cblocks.nefgeo"),
    "fcurve": ("cblocks.cb", "cblocks.qgrass", "cblocks.schur"),
    "hassett": ("cblocks.cb", "cblocks.qgrass", "cblocks.schur"),
}


@pytest.mark.parametrize("command", (None,) + COMMANDS, ids=("import",) + COMMANDS)
def test_command_loads_only_its_modules(command):
    unwanted = ("dataclasses",) + _UNWANTED.get(command, ())
    argv = None if command is None else golden_argv(command)
    # a fresh interpreter: this process has imported the whole package already
    probe = ("import io, sys, cblocks.cli\n"
             f"argv = {argv!r}\n"
             "if argv is not None:\n"
             "    assert cblocks.cli.run(argv, stdout=io.StringIO()) == 0\n"
             f"print(sorted(set({list(unwanted)!r}) & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("argv, message", (
    (("gw", "--grassmannian", "2,4", "--classes", "[3];[1]", "--qdegree", "0"),
     "(3,) does not fit in GrassmannBox(k=2, n=4)\n"),
    (("rank", "--r", "2", "--level", "1", "--weights", "2w1,w1"),
     "weight SlWeight(sl3, [2]) has first row 2 > level 1\n"),
    (("fcurve", "--r", "2", "--level", "1", "--weights", "2w1,w1,w1,w1", "--curve", "1|2|3|4"),
     "weight SlWeight(sl3, [2]) has first row 2 > level 1\n"),
    (("fcurve", "--r", "2", "--level", "0", "--weights", "0,0,0,0", "--curve", "1|2|3|4"),
     "level must be positive, got 0\n"),
    (("hassett", "--r", "2", "--level", "0", "--weights", "0,0,0,0", "--mode", "typeA"),
     "level must be positive, got 0\n"),
    # a bad r is refused before any weight is read, however the weights are spelled
    (("rank", "--r", "0", "--level", "1", "--weights", "0"),
     "algebra rank must be positive, got 0\n"),
    (("rank", "--r", "0", "--level", "1", "--weights", "[1]"),
     "algebra rank must be positive, got 0\n"),
    (("rank", "--r", "0", "--level", "1", "--weights", "w1"),
     "algebra rank must be positive, got 0\n"),
    (("fcurve", "--r", "0", "--level", "1", "--weights", "w1,w1,w1,w1", "--curve", "1|2|3|4"),
     "algebra rank must be positive, got 0\n"),
))
def test_precondition_messages_carry_reprs(argv, message):
    assert invoke(*argv) == (2, "", message)


def test_rank_method_classical_skips_bundle_ranks():
    code, out, _ = invoke("rank", "--r", "1", "--level", "2",
                          "--weights", "w1,w1,w1,w1", "--method", "classical")
    assert code == 0
    assert "rank_classical  2" in out
    assert "rank_cb" not in out


def test_the_removed_classical_flag_exits_1():
    # refused, not run as some route with an option dropped
    assert invoke("rank", "--r", "2", "--level", "1", "--weights", "w1,w1,w1",
                  "--classical", "--method", "both") == (
        1, "", "unrecognized arguments: --classical\n")


# below both bounds (critical level 1, theta level 2), so the ranks may differ
_RANK_LINES = {
    "fusion": "rank_cb         1\n"
              "rank_classical  5\n",
    "witten": "rank_witten     1\n"
              "rank_classical  5\n",
    "both": "rank_cb         1\n"
            "rank_witten     1\n"
            "rank_classical  5\n",
    "classical": "rank_classical  5\n",
}


@pytest.mark.parametrize("method", _RANK_LINES)
def test_each_rank_method_prints_its_ranks(method):
    argv = ("rank", "--r", "2", "--level", "1", "--weights", "w1,w1,w1,w1,w1,w1",
            "--method", method)
    lines = _RANK_LINES[method]
    assert invoke(*argv) == (0, " ".join(argv) + "\n" + lines, "")
    code, out, err = invoke(*argv, "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["query"]["parameters"]["method"] == method
    assert list(doc["results"].items()) == [tuple(line.split()) for line in lines.splitlines()]


def test_text_output_is_reproducible():
    args = ("vanish", "--r", "2", "--level", "2", "--weights", "w1,w1,w1,w1,w1,w1")
    assert invoke(*args) == invoke(*args)


def test_missing_argument_exits_1():
    code, _, err = invoke("rank", "--r", "2", "--weights", "w1,w1")
    assert code == 1
    assert "--level" in err


def test_bad_weight_exits_1():
    code, _, err = invoke("rank", "--r", "2", "--level", "1", "--weights", "w9")
    assert code == 1
    assert "w9" in err


@pytest.mark.parametrize("weights", ("9" * 5000 + "w1,w1", "w" + "9" * 5000 + ",w1"))
def test_a_weight_number_too_long_for_int_exits_1(weights):
    # int() refuses more than 4,300 digits, in the coefficient or the index
    code, out, err = invoke("rank", "--r", "2", "--level", "1", "--weights", weights)
    assert (code, out) == (1, "")
    assert err.startswith("bad weight term ") and err.count("\n") == 1


def test_a_weight_of_too_many_cells_exits_2_before_building_it():
    # w999999999 has 10^9 one-cell rows; they are counted, not built
    started = time.perf_counter()
    code, out, err = invoke("rank", "--r", "999999999", "--level", "1",
                            "--weights", "w999999999")
    assert time.perf_counter() - started < 0.5
    assert (code, out) == (2, "")
    assert err == "weight 'w999999999' has 999999999 cells, more than the bound 10000000\n"


@pytest.mark.parametrize("argv", (
    ("rank", "--r", "1", "--level", "10000001", "--weights", "[10000001],[10000001]"),
    # its transpose partner would build 10^9 one-cell rows
    ("partner", "--force", "--r", "1", "--level", "1000000000",
     "--weights", "[1000000000],[1000000000]"),
))
def test_a_bracketed_weight_of_too_many_cells_exits_2(argv):
    started = time.perf_counter()
    code, out, err = invoke(*argv)
    assert time.perf_counter() - started < 0.5
    assert (code, out) == (2, "")
    cells = argv[-1].split(",")[0]
    assert err == f"weight '{cells}' has {cells[1:-1]} cells, more than the bound 10000000\n"


def test_a_bracketed_weight_at_the_cell_bound_is_accepted():
    code, out, err = invoke("rank", "--r", "1", "--level", "10000000",
                            "--weights", "[10000000],[10000000]")
    assert (code, err) == (0, "")
    assert out.startswith("rank --r 1 --level 10000000 --weights 10000000w1,10000000w1 ")
    assert "rank_cb         1\n" in out


def test_a_product_of_a_1200_row_staircase_is_answered():
    # the staircase times w1 grows each of its 1200 rows, and the LR kernel
    # walks its strips on a stack of its own, not the interpreter's.  The
    # level is above the critical level 600, so the two routes must agree
    staircase = "[" + ",".join(str(i) for i in range(1200, 0, -1)) + "]"
    started = time.perf_counter()
    code, out, err = invoke("rank", "--r", "1200", "--level", "1200",
                            "--weights", f"{staircase},w1,w1200")
    elapsed = time.perf_counter() - started
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["rank_cb         0", "rank_classical  0"]
    assert elapsed < 5


@pytest.mark.parametrize("literal", ("[3,1", "[a]", "[1,2]", "[1,1,1,1]"))
def test_bad_partition_literal_exits_1(literal):
    code, out, err = invoke("rank", "--r", "2", "--level", "3", "--weights", f"w1,{literal}")
    assert code == 1 and out == "" and err


def test_fcurve_with_a_repeated_index_exits_1():
    assert invoke("fcurve", "--r", "2", "--level", "1", "--weights", "w1,w1,w1,w1",
                  "--curve", "1|2|3|4,4") == (1, "", "blocks overlap or repeat an index\n")


def test_partner_off_critical_exits_2():
    code, _, err = invoke("partner", "--r", "2", "--level", "3", "--weights", "w1,w1,w1")
    assert code == 2
    assert err == "level 3 ≠ critical level 0\n"


_SETUP_OPTIONS = ("--r", "--level", "--weights", "--format")
# what each help text must name: every command at the top level, every option below
_HELP_NAMES = {
    None: COMMANDS,
    "degree": _SETUP_OPTIONS,
    "fcurve": _SETUP_OPTIONS + ("--curve", "--mode"),
    "gw": ("--grassmannian", "--classes", "--qdegree", "--format"),
    "hassett": _SETUP_OPTIONS + ("--mode",),
    "partner": _SETUP_OPTIONS + ("--force",),
    "rank": _SETUP_OPTIONS + ("--method", "{fusion,witten,both,classical}"),
    "table": ("--format",),
    "vanish": _SETUP_OPTIONS,
}


def test_help_exits_0(capsys):
    for command, names in _HELP_NAMES.items():
        argv = ("--help",) if command is None else (command, "--help")
        code, out, err = invoke(*argv)
        assert code == 0 and err == "", command
        assert out.startswith(" ".join(("usage: cblocks",) + argv[:-1])), command
        assert [name for name in names if name not in out] == [], command
        # the help goes to the stream run was given, not to the process's stdout
        assert capsys.readouterr() == ("", ""), command


def test_commands_are_the_registry_and_each_has_goldens():
    from cblocks import cli

    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == list(COMMANDS)
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == list(COMMANDS)
    for fmt in ("json", "csv"):
        assert sorted(p.stem for p in FORMAT_GOLDEN.glob(f"*.{fmt}")) == list(COMMANDS)


def test_json_document_shape():
    code, out, _ = invoke("partner", "--r", "2", "--level", "1",
                          "--weights", "w1,w1,w1,w1,w1,w1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["query"]["command"] == "partner"
    assert doc["results"] == {
        "partner_r": "1",
        "partner_level": "2",
        "partner_weights": "w1,w1,w1,w1,w1,w1",
        "rank_source": "1",
        "rank_partner": "4",
        "rank_classical": "5",
    }
    assert doc["meta"]["version"]
    # serializing the parsed document reproduces the bytes we were given
    assert json.dumps(doc, indent=2) + "\n" == out


def test_json_and_csv_carry_the_same_values():
    args = ("vanish", "--r", "2", "--level", "6",
            "--weights", "2w1+w2,w2,2w1,2w2,3w2")
    _, jout, _ = invoke(*args, "--format", "json")
    _, cout, _ = invoke(*args, "--format", "csv")
    doc = json.loads(jout)
    flat = {"query.command": doc["query"]["command"]}
    flat.update((f"query.{k}", v) for k, v in doc["query"]["parameters"].items())
    flat.update((f"results.{k}", v) for k, v in doc["results"].items())
    flat.update((f"meta.{k}", v) for k, v in doc["meta"].items())
    lines = cout.splitlines()
    assert lines[0] == "key,value"
    seen = {}
    for line in lines[1:]:
        key, _, value = line.partition(",")
        seen[key] = value.strip('"')
    del flat["meta.elapsed_ms"], seen["meta.elapsed_ms"]
    assert seen == flat
    assert flat["results.critical_level"] == "5"
    assert flat["results.theta_level"] == "9/2"
    assert flat["results.ranks_equal"] == "true"


def test_degree_fields():
    code, out, _ = invoke("degree", "--r", "2", "--level", "1",
                          "--weights", "w1,w1,w2,w2")
    assert code == 0
    assert "degree         1" in out
    assert "bulk_term      4/3" in out
    assert "pairing_12_34  1/3" in out


def test_gw_value():
    code, out, _ = invoke("gw", "--grassmannian", "2,4",
                          "--classes", "[2];[1,1];[2,2]", "--qdegree", "1")
    assert code == 0
    assert out.endswith("value  1\n")


def test_gw_bad_box_exits_1():
    code, _, err = invoke("gw", "--grassmannian", "4,2",
                          "--classes", "[1];[1]", "--qdegree", "0")
    assert code == 1


@pytest.mark.parametrize("box", ("2,4,5", "2"))
def test_gw_box_of_the_wrong_arity_exits_1(box):
    assert invoke("gw", "--grassmannian", box, "--classes", "[1];[1]", "--qdegree", "0") == (
        1, "", f"bad --grassmannian {box!r}: expected K,N\n")


def test_gw_on_a_tall_box_runs_in_the_box_with_fewer_rows(monkeypatch):
    # Gr(2000, 2001) has 2000 rows; gw_invariant moves to its transpose
    # Gr(1, 2001), where each conjugated class (1000) is one rotation of ()
    from cblocks import qgrass

    boxes = set()

    def record(real):
        def recorded(x, box):
            boxes.add(box)
            return real(x, box)
        return recorded

    for name in ("_orbit", "_from_orbit"):
        monkeypatch.setattr(qgrass, name, record(getattr(qgrass, name)))
    column = "[" + ",".join(["1"] * 1000) + "]"
    code, out, err = invoke("gw", "--grassmannian", "2000,2001",
                            "--classes", f"{column};{column}", "--qdegree", "0")
    assert (code, err) == (0, "")
    assert out.endswith("value  1\n")
    assert boxes == {qgrass.GrassmannBox(1, 2001)}


def test_fcurve_modes():
    base = ("fcurve", "--r", "2", "--level", "1",
            "--weights", "w1,w1,w1,w1,w1,w1", "--curve", "1|2|3|4,5,6")
    code, out, _ = invoke(*base, "--mode", "typeA")
    assert code == 0 and "contracts  true" in out
    code, out, _ = invoke(*base, "--mode", "theta")
    assert code == 0 and "contracts" in out


def test_hassett_theta_row():
    code, out, _ = invoke("hassett", "--r", "2", "--level", "5",
                          "--weights", "2w1,2w1,2w1,2w1,2w1,2w1,w2,2w2",
                          "--mode", "theta")
    assert code == 0
    values = [line.split()[-1] for line in out.splitlines()[1:]]
    assert values == ["1/3"] * 6 + ["1/6", "1/3"]


def test_table_passes_everywhere():
    code, out, _ = invoke("table")
    assert code == 0
    assert out.count("PASS") == len(REFERENCE_TABLE)
    assert "FAIL" not in out
    assert out.rstrip().endswith("cells failing: 0")


def test_table_json_statuses():
    code, out, _ = invoke("table", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    statuses = [v for k, v in doc["results"].items() if k.endswith(".status")]
    assert statuses and set(statuses) == {"PASS"}
    assert doc["results"]["cells_failing"] == "0"


def test_table_reports_failing_cells(monkeypatch):
    from cblocks import cli

    row2 = REFERENCE_TABLE[1][:4] + ("3", "1", "0")   # rank_classical and rank_transpose wrong
    monkeypatch.setattr(cli, "REFERENCE_TABLE", REFERENCE_TABLE[:1] + (row2,) + REFERENCE_TABLE[2:])
    code, out, _ = invoke("table")
    assert code == 0
    assert out.splitlines()[2].endswith(
        "FAIL:rank_classical=2(expected 3),rank_transpose=1(expected 0)")
    assert out.count("PASS") == len(REFERENCE_TABLE) - 1
    assert out.endswith("cells failing: 2\n")
    code, out, _ = invoke("table", "--format", "json")
    results = json.loads(out)["results"]
    failed = [k for k, v in results.items() if k.endswith(".status") and v == "FAIL"]
    assert failed == ["row2.rank_classical.status", "row2.rank_transpose.status"]
    assert results["cells_failing"] == "2"


def test_rank_both_disagreement_exits_3(monkeypatch):
    from cblocks import cb

    # the handler imports witten_rank from cb when it runs, so it sees the patch
    real = cb.witten_rank
    monkeypatch.setattr(cb, "witten_rank", lambda setup: real(setup) + 1)
    code, out, err = invoke("rank", "--r", "2", "--level", "1",
                            "--weights", "w1,w1,w1,w1,w1,w1", "--method", "both")
    assert code == 3
    assert out == ""
    assert "fusion 1 != witten 2" in err


def test_rank_witten_disagreement_with_classical_above_critical_exits_3(monkeypatch):
    from cblocks import qgrass

    # the fault sits inside the route, so witten_rank's own check must see it
    real = qgrass.gw_invariant
    monkeypatch.setattr(qgrass, "gw_invariant", lambda *args: real(*args) + 1)
    # critical level 5 and theta level 9/2, so level 6 is above both; there
    # the quantum route multiplies the classes themselves (s = 0)
    code, out, err = invoke("rank", "--r", "2", "--level", "6",
                            "--weights", "2w1+w2,w2,2w1,2w2,3w2", "--method", "witten")
    assert code == 3
    assert out == ""
    assert "above a vanishing bound (critical level): classical 7 != witten 8" in err
    # critical level 2 and theta level 3/2, so level 2 is above theta only
    code, out, err = invoke("rank", "--r", "2", "--level", "2",
                            "--weights", "w1,w2,w2,2w2", "--method", "witten")
    assert code == 3
    assert out == ""
    assert "above a vanishing bound (theta level): classical 1 != witten 2" in err
    # at the critical level and below theta the two ranks may differ
    code, out, _ = invoke("rank", "--r", "2", "--level", "1",
                          "--weights", "w1,w1,w1,w1,w1,w1", "--method", "witten")
    assert code == 0
    assert "rank_witten     2" in out


@pytest.mark.parametrize("r", (1000, 20000))
def test_rank_of_a_tall_weight_stays_within_the_recursion_limit(r):
    # most of w(r-2)'s rows equal the row above and cannot take a cell; the
    # LR kernel must pass over them without a recursive call each, or this
    # exceeds Python's recursion limit.  At r = 20000 the product w1 * w1
    # also has r - 1 zero rows to drop, which must not cost r slices
    started = time.perf_counter()
    code, out, err = invoke("rank", "--r", str(r), "--level", "1",
                            "--weights", f"w1,w1,w1,w{r - 2}")
    elapsed = time.perf_counter() - started
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["rank_cb         1", "rank_classical  1"]
    assert elapsed < 1


def test_witten_rank_of_a_tall_weight_runs_in_the_box_with_fewer_rows():
    # Gr(4001, 4002) has k = 4001 rows; its transpose Gr(1, 4002) has one,
    # and every class there is a rotation of (), so no product is expanded
    started = time.perf_counter()
    code, out, err = invoke("rank", "--r", "4000", "--level", "1",
                            "--weights", "w1,w1,w1,w3998", "--method", "witten")
    elapsed = time.perf_counter() - started
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["rank_witten     1", "rank_classical  1"]
    assert elapsed < 1


def test_rank_works_in_the_size_of_the_diagrams_not_of_r():
    # a small r first, so that loading the handler's modules is not counted
    invoke("rank", "--r", "2", "--level", "1", "--weights", "0,0")
    tracemalloc.start()
    try:
        code, out, _ = invoke("rank", "--r", "10000000", "--level", "1", "--weights", "0,0")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out.splitlines()[1:] == ["rank_cb         1", "rank_classical  1"]
    assert peak < 1 << 20


def test_forced_partner_at_critical_checks_the_identity(monkeypatch):
    from cblocks import cb

    real = cb.cb_rank
    monkeypatch.setattr(cb, "cb_rank", lambda setup: real(setup) + 1)
    # level 1 is the critical level, so --force skips nothing here
    code, out, err = invoke("partner", "--r", "2", "--level", "1",
                            "--weights", "w1,w1,w1,w1,w1,w1", "--force")
    assert code == 3
    assert out == ""
    assert "2 + 5 != 5" in err


def test_vanish_disagreement_above_critical_exits_3(monkeypatch):
    from cblocks import cb

    real = cb.cb_rank
    monkeypatch.setattr(cb, "cb_rank", lambda setup: real(setup) - 1)
    # critical level 5 and theta level 9/2, so level 6 is above both
    code, out, err = invoke("vanish", "--r", "2", "--level", "6",
                            "--weights", "2w1+w2,w2,2w1,2w2,3w2")
    assert code == 3
    assert out == ""
    assert "classical 7 != conformal blocks 6" in err


def test_vanish_below_both_levels_reports_unequal_ranks():
    code, out, _ = invoke("vanish", "--r", "2", "--level", "1",
                          "--weights", "w1,w1,w1,w1,w1,w1")
    assert code == 0
    assert "ranks_equal     false" in out


def _shift_degree(monkeypatch, when):
    """Patch cb.degree_m04 to report one more than the true degree where `when` holds."""
    from cblocks import cb

    real = cb.degree_m04

    def shifted(setup):
        br = real(setup)
        if not when(setup.r, setup.level):
            return br
        return cb.DegreeBreakdown(br.degree + 1, br.bulk_term, br.pairing_terms)

    monkeypatch.setattr(cb, "degree_m04", shifted)


def _shift_conformal_weights(monkeypatch):
    """Patch cb._conformal_weight to add 1.  The bulk term gains 4 * rank and
    the three split terms 3 * rank together (each split's three-point ranks
    multiply out to the rank), so every degree gains its setup's rank."""
    from cblocks import cb

    real = cb._conformal_weight
    monkeypatch.setattr(cb, "_conformal_weight",
                        lambda r, level, parts: real(r, level, parts) + 1)


# (r, level, weights, bound, degree after _shift_conformal_weights)
_NONZERO_ABOVE_A_BOUND = [
    pytest.param("1", "2", "w1,w1,w1,w1", "critical", 2,      # critical level 1, rank 2
                 id="1-2-w1,w1,w1,w1-critical"),
    pytest.param("2", "2", "w1,w2,w2,2w2", "theta", 1,        # critical level 2, theta level 3/2,
                 id="2-2-w1,w2,w2,2w2-theta"),                # rank 1
]


def _check_nonzero_degree_exits_3(monkeypatch, command, r, level, weights, bound, degree):
    argv = (command, "--r", r, "--level", level, "--weights", weights)
    assert invoke(*argv)[0] == 0
    _shift_conformal_weights(monkeypatch)
    code, out, err = invoke(*argv)
    assert code == 3
    assert out == ""
    assert f"degree {degree} != 0 above a vanishing bound ({bound} level)" in err


@pytest.mark.parametrize("r, level, weights, bound, degree", _NONZERO_ABOVE_A_BOUND)
def test_vanish_nonzero_degree_above_a_bound_exits_3(monkeypatch, r, level, weights, bound,
                                                     degree):
    _check_nonzero_degree_exits_3(monkeypatch, "vanish", r, level, weights, bound, degree)


@pytest.mark.parametrize("r, level, weights, bound, degree", _NONZERO_ABOVE_A_BOUND)
def test_degree_nonzero_above_a_bound_exits_3(monkeypatch, r, level, weights, bound, degree):
    _check_nonzero_degree_exits_3(monkeypatch, "degree", r, level, weights, bound, degree)


def test_vanish_checks_no_degree_at_or_below_both_levels(monkeypatch):
    _shift_conformal_weights(monkeypatch)
    setup = ("--r", "2", "--level", "1", "--weights", "w1,w1,w2,w2")
    code, out, _ = invoke("vanish", *setup)
    assert code == 0
    assert "above_critical  false" in out and "above_theta     false" in out
    # the true degree 1 plus the rank 1
    code, out, _ = invoke("degree", *setup)
    assert code == 0 and "degree         2" in out


@pytest.mark.parametrize("method", ("fusion", "both"))
def test_rank_disagreement_with_classical_above_critical_exits_3(monkeypatch, method):
    from cblocks import cb

    real = cb.cb_rank
    monkeypatch.setattr(cb, "cb_rank", lambda setup: real(setup) - 1)
    # critical level 5 and theta level 9/2, so level 6 is above both
    code, out, err = invoke("rank", "--r", "2", "--level", "6",
                            "--weights", "2w1+w2,w2,2w1,2w2,3w2", "--method", method)
    assert code == 3
    assert out == ""
    assert "classical 7 != conformal blocks 6" in err
    # critical level 2 and theta level 3/2, so level 2 is above theta only
    code, out, err = invoke("rank", "--r", "2", "--level", "2",
                            "--weights", "w1,w2,w2,2w2", "--method", method)
    assert code == 3
    assert out == ""
    assert "above a vanishing bound (theta level): classical 1 != conformal blocks 0" in err


def test_partner_degree_disagreement_at_critical_exits_3(monkeypatch):
    # sl3 at level 1 is critical for w1,w1,w2,w2; its partner is sl2 at level 2
    _shift_degree(monkeypatch, lambda r, level: r == 1)
    code, out, err = invoke("partner", "--r", "2", "--level", "1", "--weights", "w1,w1,w2,w2")
    assert code == 3
    assert out == ""
    assert "degree identity failed at the critical level: 1 != 2" in err

import io
import json

import pytest

from cblocks.cli import JOBS_ENV, REFERENCE_TABLE, run


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


def test_rank_classical_flag_skips_bundle_ranks():
    code, out, _ = invoke("rank", "--r", "1", "--level", "2",
                          "--weights", "w1,w1,w1,w1", "--classical")
    assert code == 0
    assert "rank_classical  2" in out
    assert "rank_cb" not in out


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


def test_partner_off_critical_exits_2():
    code, _, err = invoke("partner", "--r", "2", "--level", "3", "--weights", "w1,w1,w1")
    assert code == 2
    assert err == "level 3 ≠ critical level 0\n"


def test_help_exits_0():
    code, out, _ = invoke("--help")
    assert code == 0


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


def test_table_worker_count_does_not_change_output(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "1")
    serial = invoke("table")
    monkeypatch.setenv(JOBS_ENV, "4")
    parallel = invoke("table")
    assert serial == parallel


def test_bad_jobs_env_exits_1(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "many")
    code, _, err = invoke("table")
    assert code == 1
    assert JOBS_ENV in err


def test_rank_both_disagreement_exits_3(monkeypatch):
    from cblocks import cli

    real = cli.witten_rank
    monkeypatch.setattr(cli, "witten_rank", lambda setup: real(setup) + 1)
    code, out, err = invoke("rank", "--r", "2", "--level", "1",
                            "--weights", "w1,w1,w1,w1,w1,w1", "--method", "both")
    assert code == 3
    assert out == ""
    assert "fusion 1 != witten 2" in err


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

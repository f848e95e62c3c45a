"""Tests of the benchmark itself: tiny rounds of every workload, the answer
checks, the tracer, and run.py's output contract.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run        # noqa: E402
import speed      # noqa: E402
import tracing    # noqa: E402
import worker     # noqa: E402
import workloads  # noqa: E402

TINY = {"sweep": 60, "ladder": 2, "quantum": 3, "cli": 3}


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_round_of_each_workload_passes_its_checks(name):
    result = worker.run_round(name, seed=5, ops_count=TINY[name], cross_check=True)
    assert result["ops"] == TINY[name]
    assert result["failed"] == 0, result["failure_samples"]
    assert len(result["lat_ns"]) == TINY[name] and all(result["lat_ns"])
    assert result["cross_checked"] == (workloads.WORKLOADS[name].cross_check is not None)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    make = workloads.WORKLOADS[name].make_ops
    assert make(3, TINY[name]) == make(3, TINY[name])
    assert make(3, TINY[name], 1) == make(3, TINY[name], 1)
    assert make(3, 20) != make(4, 20)
    assert make(3, 20, 0) != make(3, 20, 1)


@pytest.mark.parametrize("count", (1, 2, 101, 151))
def test_ladder_keeps_the_fixed_rung(count):
    ops = workloads.ladder_ops(0, count)
    rungs = [setup for setup, expected in ops if expected]
    assert len(ops) == count
    assert len(rungs) == 1 and rungs[0].level == 40


def test_wrong_bundle_rank_is_counted_as_failed(monkeypatch):
    from cblocks import cb
    real = cb.cb_rank
    monkeypatch.setattr(cb, "cb_rank", lambda setup: real(setup) + 1)
    result = worker.run_round("sweep", seed=0, ops_count=40)
    assert result["failed"] > 0
    assert any("above a vanishing bound" in s for s in result["failure_samples"])


def test_wrong_witten_rank_fails_the_cross_check(monkeypatch):
    from cblocks import cb
    real = cb.witten_rank
    monkeypatch.setattr(cb, "witten_rank", lambda setup: real(setup) + 1)
    result = worker.run_round("quantum", seed=0, ops_count=3, cross_check=True)
    assert result["failed"] == 3


def test_changed_cli_output_is_counted_as_failed(monkeypatch):
    monkeypatch.setattr(workloads, "golden", lambda command: b"not the golden bytes\n")
    result = worker.run_round("cli", seed=0, ops_count=2)
    assert result["failed"] == 2


def test_raising_operation_is_counted_not_fatal(monkeypatch):
    from cblocks import cb

    def broken(setup):
        raise RuntimeError("injected")

    monkeypatch.setattr(cb, "vanishing_report", broken)
    result = worker.run_round("sweep", seed=0, ops_count=5)
    assert result["failed"] == 5 and result["lat_ns"] == [None] * 5


def test_self_time_is_duration_minus_children():
    tracer = tracing.Tracer(record_spans=True)

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        tracer.call("inner", inner, (), {})

    tracer.call("outer", outer, (), {})
    (inner_span, outer_span) = tracer.spans
    assert inner_span[1] == outer_span[0]          # parent link
    total = outer_span[5] - outer_span[4]
    assert tracer.self_ns["outer"] + tracer.self_ns["inner"] == total
    assert tracer.self_ns["inner"] == inner_span[5] - inner_span[4]
    assert tracer.top_ns == total


def test_scaling_removes_probes_and_uses_the_probes_around_an_interval():
    samples = speed._Samples()
    # (start, end, probe ns): one probe before, one inside [100, 200], one after
    for start, end, probe in ((0, 10, 300_000), (150, 160, 900_000), (300, 310, 600_000)):
        samples.starts.append(start)
        samples.ends.append(end)
        samples.probes.append(probe)
    ref = speed.REFERENCE_NS
    # the probe inside takes 10 ns out of the interval and alone sets its speed
    assert samples.scaled_ns(100, 200) == pytest.approx(90 * ref / 900_000)
    # no probe inside: the mean of the last one before and the first one after
    assert samples.scaled_ns(20, 140) == pytest.approx(120 * ref / 600_000)
    assert samples.scaled_ns(200, 290) == pytest.approx(90 * ref / 750_000)


def test_sampler_probes_inside_a_long_operation():
    with speed.Sampler() as sampler:
        started = time.perf_counter_ns()
        deadline = started + 3 * speed.SAMPLE_EVERY_S * 1e9
        while time.perf_counter_ns() < deadline:
            pass
        ended = time.perf_counter_ns()
    inside = [s for s in sampler.starts if started <= s < ended]
    assert len(inside) >= 2
    assert 0 < sampler.scaled_ns(started, ended)


def test_missing_layer_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(tracing, "LAYERS", ("cb.no_such_function", "gone.run"))
    tracer = tracing.Tracer(record_spans=False)
    tracer.install()
    assert tracer.missing == ["cb.no_such_function", "gone.run"]


def test_end_to_end_run_prints_every_metric(monkeypatch, capsys):
    rounds = [worker.run_round("quantum", seed=1, ops_count=3) for _ in range(3)]

    def tiny_rounds(wl, seed, seconds, trace, env, started, setup, spawn):
        setup.extend(run.setup_probe(env, spawn) for _ in range(2))
        return rounds

    monkeypatch.setattr(run, "run_rounds", tiny_rounds)
    assert run.main(["--workload", "quantum", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) == 0
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 9
    expected = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "failed_ratio" in out


def test_traced_cli_rounds_give_every_layer_metric(tmp_path):
    spans = tmp_path / "spans.jsonl.gz"
    rounds = [worker.run_round("cli", seed=1, ops_count=8),
              worker.run_round("cli", seed=1, ops_count=8, trace=True, spans_path=spans)]
    env = workloads.child_env(ROOT)
    with speed.SpawnSampler(env, ROOT) as spawn:
        setup = [run.setup_probe(env, spawn) for _ in range(2)]
    metrics = run.per_layer(rounds, setup, workloads.CLI_INPUTS)
    assert {k: unit for k, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in spec()["per_layer"]}
    # every command runs once, in a traced child process
    assert metrics["cli.run.calls"][0] == 8
    assert metrics["young.parse_weight_list.calls"][0] > 0
    assert metrics["cli.spawn_s"][0] > 0
    assert spans.is_file()


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "sweep", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_size_ladder_takes_evenly_spaced_quantiles():
    # two fair bits: total 0, 1, 2 with weights 1, 2, 1
    assert workloads._size_ladder(1, 2, 1, 4, lambda t: True) == [0, 1, 1, 2]
    assert workloads._size_ladder(1, 2, 1, 2, lambda t: t != 1) == [0, 2]


def test_changed_result_shape_is_reported_not_fatal():
    tracer = tracing.Tracer(record_spans=False)
    assert tracer.call("qgrass.rim_hook_reduce", lambda: 7, (), {}) == 7
    assert tracer.missing == ["qgrass.rim_hook_reduce result"]

"""Tests of the benchmark itself; none depends on timing.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import compare  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from seqlab import cli  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def cli_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_a_function_of_the_seed(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    lists = [workloads.generate(workload, seed) for seed in (1, 2, 3)]
    assert lists[0] != lists[1] and lists[1] != lists[2] and lists[0] != lists[2]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_generated_argv_parses(workload):
    parser = cli.build_parser()
    for seed in (1, 2):
        for spec in workloads.generate(workload, seed):
            parser.parse_args(spec["argv"])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def fake_round(latency, trace=False):
    p = {"latency": latency, "kernel_s": [run.KERNEL_REF_S] * (len(latency) + 1),
         "codes": [0] * len(latency), "digests": ["d"] * len(latency)}
    if trace:
        return {"passes": [p], "spans": {}}
    return {"passes": [p, dict(p)], "peak_rss_mb": 20.0, "setup_s": 0.1, "kernel_s": run.KERNEL_REF_S}


def test_latencies_scale_by_the_kernel_around_each_call():
    ref = run.KERNEL_REF_S
    ps = {"latency": [1.0, 3.0], "kernel_s": [ref, 3 * ref, 2 * ref]}
    assert run.latencies(ps) == pytest.approx([0.5, 1.2])
    assert run.latencies(ps, reference_speed=False) == [1.0, 3.0]


def test_emitted_metric_names_match_benchmark_json():
    calls = [{"kind": "seq", "argv": ["seq"]}] * 3
    rounds = [fake_round([0.1, 0.2, 0.3]), fake_round([0.2, 0.1, 0.3])]
    metrics, _ = run.end_to_end(calls, rounds, rounds, ["{}"] * 3, {}, 12, 0)
    assert metrics["cold_s"] == pytest.approx(0.6) and metrics["setup_s"] == pytest.approx(0.1)
    line = run.result_line(metrics, None, 12, 0, True)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert [(k, v["unit"]) for k, v in line["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]

    layers = run.per_layer(rounds, [fake_round([0.2, 0.2, 0.4], trace=True)])
    line = run.result_line(metrics, layers, 12, 0, True)
    assert [(k, v["unit"]) for k, v in line["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]


def test_benchmark_json_keeps_the_contract_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"]) <= 0.25


def test_tail_is_the_highest_percentile_with_ten_beyond():
    values = [float(i) for i in range(1, 21)]
    assert run.tail(values) == (10.0, 50.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_compare_verdicts_follow_the_nine_in_ten_rule():
    parent = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    faster = [v * 0.8 for v in parent]
    assert compare.verdict(parent, faster, list(zip(parent, faster)), False)[0] == "better"
    assert compare.verdict(faster, parent, list(zip(faster, parent)), False)[0] == "worse"
    mixed = faster[:8] + [1.2, 1.3]
    assert compare.verdict(parent, mixed, list(zip(parent, mixed)), False)[0] == "unresolved"
    assert compare.verdict(parent, faster, list(zip(parent, faster)), True)[0] == "worse"


def test_tracer_records_nested_spans_and_restores_the_program():
    from seqlab import lab

    original = lab.is_divisor
    tracer = spans.Tracer().install()
    try:
        cli_output(["partition", "--t", "7/3", "--x", "1,4", "--primes", "30", "--format", "json"])
    finally:
        tracer.uninstall()
    assert lab.is_divisor is original
    summary = tracer.summary()
    assert summary["cli"]["calls"] == 1
    assert summary["modp.divisor"]["calls"] > 0 and summary["lab.check"]["calls"] == 1
    root = summary["cli"]["wall_s"]
    total_self = sum(rec["self_s"] for rec in summary.values())
    assert abs(total_self - root) < 1e-6 * max(1.0, root) + 1e-9
    assert all(rec["self_s"] >= -1e-9 for rec in summary.values())
    layers = spans.per_layer_metrics(summary)
    assert layers["modp.context.reuse_ratio"] > 0  # eight elements share each (t, p)


ORACLE_CALLS = [
    ("table3", ["table3", "--window", "first:40", "--full"]),
    ("divisors", ["divisors", "--t", "7/3", "--x", "1,4", "--primes", "40"]),
    ("partition", ["partition", "--t", "7/3", "--x", "1,4", "--window", "below:200"]),
    ("cubic", ["partition", "--t", "11/7", "--cubic", "--primes", "40"]),
    ("classify", ["classify", "--t", "322"]),
    ("torsion", ["torsion", "--t", "11/7"]),
    ("sqrt", ["sqrt", "--t", "3", "--x", "1,3"]),
    ("laxton-eq", ["laxton-eq", "--t", "3", "--x", "2,9", "--y", "25,66"]),
    ("seq", ["seq", "--T", "1", "--Q", "-1", "--x", "0,1", "--range", "-4..10"]),
]


def oracle_case():
    calls = [{"kind": kind, "argv": argv + ["--format", "json"], "expect": {}} for kind, argv in ORACLE_CALLS]
    outputs = [cli_output(c["argv"]) for c in calls]
    return calls, outputs


@pytest.fixture
def scan_every_prime(monkeypatch):
    # the sampled term scans become exhaustive, so detection does not hinge
    # on which primes the sample draws
    monkeypatch.setattr(oracle, "SCAN_PRIMES_PER_CALL", 10**6)
    monkeypatch.setattr(oracle, "TORSION_ENTRIES_PER_CALL", 10**6)


def test_oracle_accepts_the_program_output(scan_every_prime):
    calls, outputs = oracle_case()
    assert oracle.check_calls(calls, outputs, 1) == {}


def corrupt(kind, out):
    if kind == "table3":
        row = out["rows"][0]
        row["members"]["x"] = row["members"]["x"][1:]
        row["counts"]["x"] -= 1
    elif kind == "divisors":
        out["gamma"] = []
    elif kind == "partition":
        out["cells"]["x_cx"], out["cells"]["x_wx"] = out["cells"]["x_wx"], out["cells"]["x_cx"]
    elif kind == "cubic":
        out["cells"]["ws"], out["cells"]["wy"] = out["cells"]["wy"], out["cells"]["ws"]
    elif kind == "classify":
        out["witnesses"][0]["u"] = "19"
    elif kind == "torsion":
        for e in out["entries"]:
            e["order"] = 1 if e["order"] > 1 else 2
    elif kind == "sqrt":
        out["roots"] = []
    elif kind == "laxton-eq":
        out["witness"]["k"] += 1
    else:
        out["terms"][3][1] = "1000"


@pytest.mark.parametrize("index", range(len(ORACLE_CALLS)))
def test_oracle_refutes_a_corrupted_output(index, scan_every_prime):
    calls, outputs = oracle_case()
    out = json.loads(outputs[index])
    corrupt(ORACLE_CALLS[index][0], out)
    outputs[index] = json.dumps(out)
    assert list(oracle.check_calls(calls, outputs, 1)) == [index]

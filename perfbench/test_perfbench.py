"""Self-test of the benchmark: failure counting, metric names and span self time.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import importlib.util
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", HERE / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


workloads = _load("workloads")
run = _load("run")

from alexgeo.harness import CheckRecord, ExperimentReport  # noqa: E402


def _record(name, passed):
    return CheckRecord(name=name, expected=0.0, observed=0.0 if passed else 1.0, tolerance=0.0,
                       passed=passed, provenance="self-test")


def _pass_result(p):
    p.plan_queries([("a", None, [0, 0, 0], [0, 0, 0]), ("b", None, [0, 0, 0], [0, 0, 0])], steps=1)
    p.latencies_ns = [[1000, 2000, 3000], [500, 600, 700]]
    p.covering = [1.5]
    p.peak_rss_mb = 100.0
    return p.result(setup_s=0.5)


def test_failing_record_and_cli_exit_are_counted():
    p = workloads.Pass()
    reports = [ExperimentReport(config={"example_id": "ex3_1"},
                                records=[_record("ok", True), _record("broken", False)])]
    workloads.check_catalogue(reports, p)
    workloads.check_cli_step(p, "net_io lens construct", 0, [])
    workloads.check_cli_step(p, "net_io lens verify", 1, [])
    assert (p.attempted, len(p.failures)) == (4, 2)
    assert "broken" in p.failures[0] and "exit code 1" in p.failures[1]

    line = run.result_line([_pass_result(p)], {})
    assert line["failed"] == 2 and line["attempted"] == 4 and line["correct"] is False


def test_output_checks_flag_wrong_values():
    assert workloads.invariant_problems(1.0, 1.5) == []
    assert workloads.invariant_problems(1.0, 2.5)
    a = workloads.np.array([[0.0, 1.0], [1.0, 0.0]])
    assert workloads.bit_equal(a, a.copy())
    assert not workloads.bit_equal(a, a + 1e-16 * a[::-1])


def test_printed_metric_names_are_declared():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = workloads.Pass()
    passes = [_pass_result(p)]
    e2e = run.end_to_end(passes, setups=[0.4, 0.6])
    assert {k: u for k, (_, u) in e2e.items()} == run.declared(trace=False)

    traced = dict(passes[0], layers={k: [v, u] for k, (v, u) in
                                     workloads.layer_metrics(workloads.Tracer()).items()})
    layers = run.per_layer(passes[0], traced)
    assert {k: u for k, (_, u) in layers.items()} == run.declared(trace=True)
    assert set(e2e) | set(layers) == {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}


def test_self_time_excludes_child_spans():
    tr = workloads.Tracer()

    def child():
        time.sleep(0.02)

    def parent():
        time.sleep(0.01)
        wrapped_child()

    wrapped_child = tr.wrap(child, "child")
    wrapped_parent = tr.wrap(parent, "parent")
    tr.enabled = True
    wrapped_parent()
    s = tr.summary()
    assert s["parent"]["calls"] == 1 and s["child"]["calls"] == 1
    assert abs(s["parent"]["self_s"] - (s["parent"]["total_s"] - s["child"]["total_s"])) < 1e-12
    assert s["child"]["self_s"] == s["child"]["total_s"]
    assert tr.parents == [-1, 0]

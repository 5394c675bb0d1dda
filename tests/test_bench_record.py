"""The summary of `tools/bench_record.py`, on hand-made run records."""

import importlib.util
import os

import pytest

PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_record.py")
spec = importlib.util.spec_from_file_location("bench_record", PATH)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def record(trace, load, busy, **metrics):
    return {"trace": trace, "load_before": [load, 0.5, 0.25], "busy_start": busy,
            "summary": {"metrics": {k: {"value": v, "unit": u}
                                    for k, (v, u) in metrics.items()}}}


def shares(unit, forward):
    return {"trace.unit_attributed_share": (unit, "share"),
            "trace.forward_attributed_share": (forward, "share")}


def shares_metrics(unit, forward):
    return record(1, 0.5, False, **shares(unit, forward))["summary"]["metrics"]


@pytest.mark.parametrize("unit, forward, comparable", [
    (0.99, 0.96, True), (0.99, 0.0, True), (0.95, 0.95, True),
    (0.99, 0.042, False), (0.94, 0.99, False), (0.94, 0.0, False)])
def test_per_layer_times_compare_only_when_attributed(unit, forward, comparable):
    assert bench_record.attributed(shares_metrics(unit, forward)) is comparable


def test_spread_gives_median_and_quartiles():
    assert bench_record.spread([4.0, 1.0, 3.0, 2.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "values": [4.0, 1.0, 3.0, 2.0, 5.0]}
    assert bench_record.spread([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0,
                                          "values": [7.0]}
    assert bench_record.spread([1.0, 2.0]) == pytest.approx(
        {"median": 1.5, "q1": 1.25, "q3": 1.75, "values": [1.0, 2.0]})


def test_summarize_one_workload():
    untraced = [record(0, 0.5, False, items_per_s=(v, "items/s"), setup_s=(s, "s"))
                for v, s in ((10.0, 1.0), (30.0, 3.0), (20.0, 2.0))]
    traced = record(1, 2.5, True, **{"tensor.conv1x1.fwd_ms": (4.0, "ms")},
                    **shares(0.99, 0.96))
    got = bench_record.summarize(untraced, traced)
    assert got["end_to_end"] == {
        "items_per_s": {"unit": "items/s", "median": 20.0, "q1": 15.0, "q3": 25.0,
                        "values": [10.0, 30.0, 20.0]},
        "setup_s": {"unit": "s", "median": 2.0, "q1": 1.5, "q3": 2.5,
                    "values": [1.0, 3.0, 2.0]}}
    assert got["per_layer"] == {"tensor.conv1x1.fwd_ms": {"value": 4.0, "unit": "ms"},
                                **shares_metrics(0.99, 0.96)}
    assert got["per_layer_comparable"] is True
    assert got["runs"] == [{"trace": 0, "load_before": [0.5, 0.5, 0.25], "busy": False}] * 3 \
        + [{"trace": 1, "load_before": [2.5, 0.5, 0.25], "busy": True}]

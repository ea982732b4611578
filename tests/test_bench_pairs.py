"""scripts/bench_pairs.py: the per-group summary of alternating pair runs."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(side, pair, p50, failed=0):
    result = None if p50 is None else {
        "metrics": {"latency_s.p50": {"value": p50}}, "failed": failed, "attempted": 10}
    return {"side": side, "workload": "w", "seed": 1, "pair": pair, "trace": 0,
            "result": result}


def test_summarize_lower_is_better_and_counts_incomplete_pairs():
    runs = [run("parent", 0, 2.0), run("change", 0, 1.5),  # change wins: lower
            run("parent", 1, 2.0), run("change", 1, 2.5),
            run("parent", 2, 2.0), run("change", 2, None, failed=3),  # change crashed
            run("parent", 3, 2.0)]  # cut before the change ran
    summary = _bench_pairs().summarize(runs, {"latency_s.p50": "lower"})["w seed 1"]
    assert summary["incomplete_pairs"] == 2
    assert summary["latency_s.p50"]["change_wins"] == "1/4"
    assert summary["latency_s.p50"]["parent"]["n"] == 2
    assert summary["failed"] == {"parent": 0, "change": 0}


def test_summarize_keeps_a_group_without_a_whole_pair():
    summary = _bench_pairs().summarize([run("parent", 0, None), run("change", 0, 1.0)],
                                       {"latency_s.p50": "lower"})
    assert summary == {"w seed 1": {"incomplete_pairs": 1}}


def test_closing_lines_print_every_end_to_end_metric():
    def result(p50, rss):
        return {"metrics": {"latency_s.p50": {"value": p50}, "peak_rss_mb": {"value": rss},
                            "runner.sim_ms_per_op": {"value": 1.0}},
                "failed": 0, "attempted": 10}

    runs = [{**run("parent", 0, None), "result": result(2.0, 80.0)},
            {**run("change", 0, None), "result": result(1.5, 82.0)}]
    module = _bench_pairs()
    better = {"latency_s.p50": "lower", "peak_rss_mb": "lower", "ops_per_s": "higher"}
    lines = module.closing_lines(module.summarize(runs, better),
                                 ["latency_s.p50", "ops_per_s", "peak_rss_mb"])
    assert lines == [
        "w seed 1 incomplete_pairs: 0",
        "w seed 1 latency_s.p50: parent 2 change 1.5 rel_change -25.0% wins 1/1",
        "w seed 1 peak_rss_mb: parent 80 change 82 rel_change +2.5% wins 0/1",
    ]

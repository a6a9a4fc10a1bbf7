import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def _run(verdicts, raw_verdict_s, verdict_s, rss, failed=0):
    info = {"verdicts": verdicts, "raw": {"verdict_s": raw_verdict_s}}
    result = {
        "correct": failed == 0,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "verdict_s": {"value": verdict_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }
    return info, result


def test_summarize_keeps_each_runs_verdict_count_and_raw_time():
    runs = {
        "parent": [_run(1, 15.2, 13.8, 45.2), _run(1, 14.9, 13.6, 45.0), _run(1, 15.0, 13.7, 45.1)],
        "change": [_run(1, 10.0, 10.1, 45.1), _run(2, 7.1, 7.0, 61.0), _run(1, 10.2, 10.0, 45.3, failed=2)],
    }
    out = bench_pairs.summarize([1, 2, 3], runs)
    assert out["pairs"] == 3
    assert out["verdicts"] == {"parent": [1, 1, 1], "change": [1, 2, 1]}
    assert out["raw_verdict_s"] == {"parent": [15.2, 14.9, 15.0], "change": [10.0, 7.1, 10.2]}
    assert out["failed"] == {"parent": 0, "change": 2}
    assert out["attempted"] == {"parent": 300, "change": 300}
    assert out["all_correct"] is False
    verdict = out["metrics"]["verdict_s"]
    assert verdict["parent"] == {"q1": 13.65, "median": 13.7, "q3": 13.75, "runs": [13.8, 13.6, 13.7]}
    assert verdict["change"]["median"] == 10.0
    assert verdict["change_lower_in_pairs"] == "3/3"
    assert verdict["change_over_parent_median"] == round(10.0 / 13.7, 4)
    rss = out["metrics"]["peak_rss_mb"]
    assert rss["change_lower_in_pairs"] == "1/3"
    assert rss["change"]["runs"] == [45.1, 61.0, 45.3]

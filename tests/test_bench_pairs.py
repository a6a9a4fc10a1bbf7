import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

RULES = {
    "verdict_s": {"name": "verdict_s", "better": "lower", "bound": 0.25},
    "peak_rss_mb": {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
}


def _run(verdicts, raw_verdict_s, verdict_s, rss, failed=0, items=100):
    info = {"verdicts": verdicts, "items": items, "raw": {"verdict_s": raw_verdict_s}}
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
        # the last run's inputs ran out early: it holds fewer items
        "change": [
            _run(1, 10.0, 10.1, 45.1),
            _run(2, 7.1, 7.0, 61.0),
            _run(1, 10.2, 10.0, 45.3, failed=2, items=64),
        ],
    }
    out = bench_pairs.summarize([1, 2, 3], runs, RULES)
    assert out["pairs"] == 3
    assert out["verdicts"] == {"parent": [1, 1, 1], "change": [1, 2, 1]}
    assert out["items"] == {"parent": [100, 100, 100], "change": [100, 100, 64]}
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


def _pairs(parent, change, verdicts=(1, 1)):
    """Runs whose verdict_s and peak_rss_mb both read the given values."""
    return {
        "parent": [_run(verdicts[0], v, v, v) for v in parent],
        "change": [_run(verdicts[1], v, v, v) for v in change],
    }


def test_claim_rule_needs_nine_in_ten_pairs_and_a_gap_beyond_the_parent_iqr():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    seeds = list(range(10))
    fast = [v * 0.8 for v in parent]
    out = bench_pairs.summarize(seeds, _pairs(parent, fast), RULES)["metrics"]["verdict_s"]
    assert out["meets_claim_rule"] and out["within_bound"]
    # 8 of 10 pairs lower is not enough, however large the gap
    eight = fast[:8] + [v * 1.01 for v in parent[8:]]
    out = bench_pairs.summarize(seeds, _pairs(parent, eight), RULES)["metrics"]["verdict_s"]
    assert out["change_lower_in_pairs"] == "8/10" and not out["meets_claim_rule"]
    # lower in every pair, but the median gap (0.1) is inside the parent IQR (0.175)
    close = [v - 0.1 for v in parent]
    out = bench_pairs.summarize(seeds, _pairs(parent, close), RULES)["metrics"]["verdict_s"]
    assert out["change_lower_in_pairs"] == "10/10" and not out["meets_claim_rule"]


def test_within_bound_reads_each_metrics_bound():
    parent = [10.0] * 4
    # 20% worse: inside verdict_s's 0.25, outside peak_rss_mb's 0.1
    out = bench_pairs.summarize([1, 2, 3, 4], _pairs(parent, [12.0] * 4), RULES)["metrics"]
    assert out["verdict_s"]["within_bound"] and not out["peak_rss_mb"]["within_bound"]
    assert not out["verdict_s"]["meets_claim_rule"]
    out = bench_pairs.summarize([1, 2, 3, 4], _pairs(parent, [13.0] * 4), RULES)["metrics"]
    assert not out["verdict_s"]["within_bound"]
    # a higher-is-better metric is worse when it falls
    higher = {"verdict_s": {"better": "higher", "bound": 0.25}, "peak_rss_mb": RULES["peak_rss_mb"]}
    out = bench_pairs.summarize([1, 2, 3, 4], _pairs(parent, [7.0] * 4), higher)["metrics"]["verdict_s"]
    assert not out["within_bound"] and not out["meets_claim_rule"]
    out = bench_pairs.summarize([1, 2, 3, 4], _pairs(parent, [14.0] * 4), higher)["metrics"]["verdict_s"]
    assert out["within_bound"] and out["meets_claim_rule"]


def test_verdict_counts_differ_compares_the_median_counts():
    same = bench_pairs.summarize([1, 2, 3], _pairs([5.0] * 3, [4.0] * 3, verdicts=(3, 3)), RULES)
    assert same["verdict_counts_differ"] is False
    runs = _pairs([5.0] * 3, [4.0] * 3)
    runs["change"][1] = _run(2, 4.0, 4.0, 4.0)
    # one run of three holding an extra verdict leaves the medians equal
    assert bench_pairs.summarize([1, 2, 3], runs, RULES)["verdict_counts_differ"] is False
    runs["change"][2] = _run(2, 4.0, 4.0, 4.0)
    assert bench_pairs.summarize([1, 2, 3], runs, RULES)["verdict_counts_differ"] is True


# completeness-385 peak_rss_mb runs: a run that holds one sweep reads about
# 45 MB and one that holds two about 67 MB
BENCH_25_PARENT_RSS = [45.175781, 45.230469, 45.191406, 67.074219, 67.128906, 67.011719, 67.125, 45.273438, 45.203125, 45.171875]
BENCH_26_RSS = {
    "parent": [45.328125, 67.125, 45.25, 45.214844, 45.183594, 45.238281, 45.25, 45.265625, 45.308594, 45.289062],
    "change": [45.125, 45.082031, 45.03125, 45.203125, 45.253906, 67.128906, 45.160156, 45.1875, 45.15625, 45.121094],
}


def test_unresolved_when_either_side_spreads_wider_than_the_bound():
    seeds = list(range(10))
    # a parent IQR of 21.9 MB against 0.1 x 45.3 MB: the bound cannot be judged
    out = bench_pairs.summarize(seeds, _pairs(BENCH_25_PARENT_RSS, BENCH_26_RSS["change"]), RULES)["metrics"]
    assert out["peak_rss_mb"]["unresolved"] and out["peak_rss_mb"]["within_bound"]
    # the same wide spread on the change side only
    out = bench_pairs.summarize(seeds, _pairs(BENCH_26_RSS["parent"], BENCH_25_PARENT_RSS), RULES)["metrics"]
    assert out["peak_rss_mb"]["unresolved"]
    # one 67 MB run per side leaves both IQRs under 0.1 MB
    out = bench_pairs.summarize(seeds, _pairs(BENCH_26_RSS["parent"], BENCH_26_RSS["change"]), RULES)["metrics"]
    assert not out["peak_rss_mb"]["unresolved"] and not out["verdict_s"]["unresolved"]
    # every change run below every parent run resolves even a wide spread
    lower = [v - 0.5 for v in BENCH_26_RSS["change"][:5]] * 2
    out = bench_pairs.summarize(seeds, _pairs(BENCH_25_PARENT_RSS, lower), RULES)["metrics"]
    assert not out["peak_rss_mb"]["unresolved"]

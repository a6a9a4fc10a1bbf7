#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and summarize.

    python3 scripts/bench_pairs.py PARENT CHANGE --workloads W [W ...] \
        --seeds N [N ...] [--out FILE]

For every workload and seed, `perfbench/run.py --workload W --seed N
--seconds S` runs once in each checkout, each run in its own process and
one at a time; odd seeds run the parent first, even seeds the change.  S is
the `run_seconds` of the checkouts' BENCHMARK.json, which must agree.  The
summary (the `env`, `command` and `end_to_end` parts of a BENCH_<k>.json)
goes to stdout, and to FILE with --out; nothing else is written.  Per
workload it lists each run's verdict and item counts and raw verdict time
and whether the two sides' median verdict counts differ, and per metric
each side's quartiles (statistics.quantiles, inclusive method) and every run,
the number of pairs in which the change read lower, the ratio of the
medians, and three verdicts against BENCHMARK.json: within_bound (the
change median is no worse than the parent's by more than the metric's
bound), meets_claim_rule (better in at least 9/10 of the pairs, and by more
than the parent's IQR in the median) and unresolved (either side's IQR is
wider than the bound times the parent median, and not every change run
reads better than every parent run).  Progress goes to stderr.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def benchmark_rules(checkouts: dict[str, Path]) -> tuple[float, dict[str, dict]]:
    """The run length and the end-to-end metrics (name -> better, bound) that
    both checkouts' BENCHMARK.json declare."""
    docs = [json.loads((c / "BENCHMARK.json").read_text()) for c in checkouts.values()]
    declared = [(doc["run_seconds"], doc["end_to_end"]) for doc in docs]
    if declared[0] != declared[1]:
        sys.exit("error: the checkouts declare different run_seconds or end_to_end metrics")
    seconds, metrics = declared[0]
    return seconds, {m["name"]: m for m in metrics}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(info, result): the last two stdout lines of one benchmark run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: {checkout}: {' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    info, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info), json.loads(result)


def quartiles(runs: list[float]) -> dict:
    if len(runs) == 1:
        q1 = median = q3 = runs[0]
    else:
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {
        "q1": round(q1, 6),
        "median": round(median, 6),
        "q3": round(q3, 6),
        "runs": [round(v, 6) for v in runs],
    }


def summarize(seeds: list[int], runs: dict[str, list[tuple[dict, dict]]], rules: dict[str, dict]) -> dict:
    """runs maps each side to its (info, result) pairs, in seed order, and
    rules each metric to its BENCHMARK.json entry (better, bound).

    Each run's verdict and item counts and raw verdict time come from its
    info line, so a peak_rss_mb move can be told apart from a change in how
    many verdicts the run held, and a run that ran out of inputs before its
    time was up shows in its item count; verdict_counts_differ flags sides
    whose median verdict counts differ.  Per metric, within_bound says the
    change median is no worse than the parent's by more than the bound, and
    meets_claim_rule that the change is better in at least 9/10 of the
    pairs and its median beats the parent's by more than the parent's IQR.
    unresolved says the runs spread too widely to judge the bound: either
    side's IQR exceeds the bound times the parent median, and some change
    run reads no better than some parent run.
    """
    results = {side: [result for _, result in runs[side]] for side in SIDES}
    verdicts = {side: [info["verdicts"] for info, _ in runs[side]] for side in SIDES}
    out = {
        "seeds": seeds,
        "pairs": len(seeds),
        "verdicts": verdicts,
        "items": {side: [info["items"] for info, _ in runs[side]] for side in SIDES},
        "verdict_counts_differ": statistics.median(verdicts["parent"]) != statistics.median(verdicts["change"]),
        "raw_verdict_s": {
            side: [round(info["raw"]["verdict_s"], 6) for info, _ in runs[side]] for side in SIDES
        },
        "failed": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
        "all_correct": all(r["correct"] for side in SIDES for r in results[side]),
        "metrics": {},
    }
    for name in results["parent"][0]["metrics"]:
        runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        summary = {side: quartiles(runs[side]) for side in SIDES}
        lower = sum(c < p for p, c in zip(runs["parent"], runs["change"]))
        summary["change_lower_in_pairs"] = f"{lower}/{len(seeds)}"
        parent, change = summary["parent"]["median"], summary["change"]["median"]
        summary["change_over_parent_median"] = round(change / parent, 4)
        # sign 1 when lower is better: gains and losses are then parent - change
        sign = 1 if rules[name]["better"] == "lower" else -1
        wins = lower if sign == 1 else sum(c > p for p, c in zip(runs["parent"], runs["change"]))
        summary["within_bound"] = sign * (change - parent) <= rules[name]["bound"] * parent
        summary["meets_claim_rule"] = (
            10 * wins >= 9 * len(seeds)
            and sign * (parent - change) > summary["parent"]["q3"] - summary["parent"]["q1"]
        )
        spread = max(summary[side]["q3"] - summary[side]["q1"] for side in SIDES)
        # every change run better than every parent run
        separated = max(sign * c for c in runs["change"]) < min(sign * p for p in runs["parent"])
        summary["unresolved"] = spread > rules[name]["bound"] * parent and not separated
        out["metrics"][name] = summary
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--out", type=Path, default=None, help="also write the summary here")
    args = ap.parse_args()
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seconds, rules = benchmark_rules(checkouts)
    env = None
    end_to_end = {}
    for workload in args.workloads:
        runs: dict[str, list[tuple[dict, dict]]] = {side: [] for side in SIDES}
        for seed in args.seeds:
            for side in SIDES if seed % 2 else reversed(SIDES):
                info, result = run_once(checkouts[side], workload, seed, seconds)
                env = env or info["env"]
                runs[side].append((info, result))
                metrics = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                print(
                    f"{workload} seed {seed} {side}: failed={result['failed']} "
                    f"verdicts={info['verdicts']} items={info['items']} {metrics}",
                    file=sys.stderr,
                )
        end_to_end[workload] = summarize(args.seeds, runs, rules)
    doc = {
        "env": env,
        "command": (
            f"python3 perfbench/run.py --workload W --seed N --seconds {seconds:g}, each run in "
            "its own process; parent and change checkouts side by side, runs alternating which side "
            "goes first (odd seeds parent first, even seeds change first); quartiles by "
            "statistics.quantiles(method='inclusive'); every run made is listed"
        ),
        "end_to_end": end_to_end,
    }
    text = json.dumps(doc, indent=1) + "\n"
    sys.stdout.write(text)
    if args.out:
        args.out.write_text(text)


if __name__ == "__main__":
    main()

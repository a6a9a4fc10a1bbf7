"""The benchmark's checkers must catch wrong answers.

    python3 perfbench/test_checkers.py

Each test feeds a checker a right answer (no failures) and then a
deliberately wrong histogram, trace set or label, and asserts that the
failed ratio goes above zero.
"""

import sys

sys.dont_write_bytecode = True

import json
import unittest
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def ratio(tally) -> float:
    return tally.failed / tally.attempted


def archived_report(n: int):
    doc = json.loads((workloads.REPORTS / f"completeness-{n}.json").read_text())
    return doc, SimpleNamespace(
        total=doc["total"],
        trivial=doc["trivial"],
        family_counts=dict(doc["family_counts"]),
        det_histogram={r["det"]: r["count"] for r in doc["det_histogram"]},
        det_trace_histogram={(r["det"], r["trace"]): r["count"] for r in doc["det_trace_histogram"]},
        unmatched=[],
        match_multiplicity={int(k): v for k, v in doc["match_multiplicity"].items()},
    )


class CompletenessChecker(unittest.TestCase):
    def setUp(self):
        self.ref = ref.ConstantIdempotents((5, 7, 11))
        self.archived, self.report = archived_report(385)

    def tally(self, report):
        t = workloads.Tally()
        t.add(*ref.check_completeness(report, self.ref, self.archived))
        return t

    def test_archived_report_passes(self):
        self.assertEqual(self.tally(self.report).failed, 0)

    def test_wrong_histogram_bin(self):
        hist = self.report.det_trace_histogram
        hist[(0, 1)] -= 1
        hist[(0, 56)] += 1
        self.assertGreater(ratio(self.tally(self.report)), 0)

    def test_wrong_family_count(self):
        self.report.family_counts["detpair-mixed"] += 1
        self.report.family_counts["detpair-shift"] -= 1
        self.assertGreater(ratio(self.tally(self.report)), 0)

    def test_unmatched_matrix(self):
        self.report.unmatched = [(0, 0, 0, 0)]
        self.assertGreater(ratio(self.tally(self.report)), 0)

    def test_missing_report_fails_every_matrix(self):
        self.assertEqual(ratio(self.tally(None)), 1.0)


class TraceChecker(unittest.TestCase):
    primes = (5, 7, 11)

    def answer(self, d):
        n = 385
        sols = [t for t in range(n) if (t * t - t - 2 * d) % n == 0]
        forms = None if d in (0, 1) else {"solver_solutions": sols}
        return {"n": n, "primes": list(self.primes), "det": d, "solutions": sols, "closed_forms": forms}

    def tally(self, docs):
        t = workloads.Tally()
        for d, doc in docs:
            t.add(1, int(not ref.trace_answer_ok(0, json.dumps(doc), self.primes, d)))
        return t

    def test_right_answers_pass(self):
        docs = [(d, self.answer(d)) for d in ref.idempotents(self.primes)]
        self.assertEqual(self.tally(docs).failed, 0)

    def test_missing_solution(self):
        doc = self.answer(56)
        doc["solutions"] = doc["solutions"][1:]
        doc["closed_forms"]["solver_solutions"] = doc["solutions"]
        self.assertGreater(ratio(self.tally([(56, doc)])), 0)

    def test_non_solution(self):
        doc = self.answer(210)
        doc["solutions"] = sorted(doc["solutions"] + [3])
        self.assertGreater(ratio(self.tally([(210, doc)])), 0)

    def test_injected_cli_answer_fails_the_verdict(self):
        wl = workloads.TraceLargePrime(seed=3)
        wl.batch = 8
        real_main = workloads.cli.main

        def dropping_main(argv):
            sink = StringIO()
            with redirect_stdout(sink):
                rc = real_main(argv)
            doc = json.loads(sink.getvalue())
            doc["solutions"] = doc["solutions"][:-1]
            print(json.dumps(doc))
            return rc

        def verdict(tally):
            for unit in wl.verdict_units(tally):
                unit()

        tally = workloads.Tally()
        verdict(tally)
        self.assertEqual(tally.failed, 0)
        workloads.cli.main = dropping_main
        try:
            verdict(tally)
        finally:
            workloads.cli.main = real_main
        self.assertGreater(ratio(tally), 0)


class ItemCheckers(unittest.TestCase):
    def test_roundtrip_wrong_label(self):
        wl = workloads.RoundtripDeg5(seed=5)
        inputs = wl.draw(14)
        outs = [wl.run_item(inp, workloads.plain_call) for inp in inputs]
        self.assertTrue(all(wl.item_ok(i, o) for i, o in zip(inputs, outs)))
        labels = [o[0] for o in outs]
        swapped = [(labels[k - 1],) + o[1:] for k, o in enumerate(outs)]
        tally = workloads.Tally()
        tally.add(len(outs), sum(1 for i, o in zip(inputs, swapped) if not wl.safe_ok(i, o)))
        self.assertGreater(ratio(tally), 0)

    def test_roundtrip_non_idempotent_document(self):
        wl = workloads.RoundtripDeg5(seed=6)
        inp = wl.draw(1)[0]
        label, doc, back, rep = wl.run_item(inp, workloads.plain_call)
        doc["entries"][0][1] = [1]
        self.assertFalse(wl.safe_ok(inp, (label, doc, back, rep)))

    def test_classified_wrong_det(self):
        wl = workloads.Completeness385(seed=7)
        inputs = wl.draw(50)
        outs = [wl.run_item(inp, workloads.plain_call) for inp in inputs]
        self.assertTrue(all(wl.item_ok(i, o) for i, o in zip(inputs, outs)))
        outs[0].det = (outs[0].det + 1) % 385
        self.assertFalse(wl.safe_ok(inputs[0], outs[0]))

    def test_cut_batch_counts_unfinished_items(self):
        wl = workloads.Completeness385(seed=9)
        inputs = wl.draw(10)
        calls = []

        def run_item(inp, call):
            calls.append(inp)
            if len(calls) == 4:
                raise workloads.Watchdog("cut")
            return workloads.Completeness385.run_item(wl, inp, call)

        wl.run_item = run_item
        tally = workloads.Tally()
        with self.assertRaises(workloads.Watchdog):
            wl.run_items(inputs, tally)
        self.assertEqual((tally.attempted, tally.failed), (10, 7))

    def test_raised_item_counts_as_failed(self):
        wl = workloads.Completeness385(seed=10)
        inputs = wl.draw(5)

        def run_item(inp, call):
            if inp is inputs[2]:
                raise ValueError("injected")
            return workloads.Completeness385.run_item(wl, inp, call)

        wl.run_item = run_item
        tally = workloads.Tally()
        wl.run_items(inputs, tally)
        self.assertEqual((tally.attempted, tally.failed), (5, 1))


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_and_units_match(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()

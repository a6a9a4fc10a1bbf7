"""The three benchmark workloads.

Each workload drives idemring's public functions in-process, one caller,
one call at a time.  A workload has two kinds of work:

* a verdict: the unit a user waits for (the completeness sweep, or a fixed
  batch of round trips or trace solves), timed in units of about a second
  or less and checked against reference.py;
* items: single calls, timed one by one.  `run_item(inp, call)` makes its
  library calls through `call(span_name, fn, *args)`, so the traced run can
  wrap the same code in spans or a profiler.  Calls the program makes
  itself get their spans from `span_patches`: (owner, attribute, span name)
  triples that the traced run wraps for one pass and then restores.

Inputs come from the workload seed; the program only ever sees the
generated inputs.
"""

from __future__ import annotations

import json
import random
from array import array
from collections import Counter
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import idemring.cli as cli
from idemring.classify import (
    classify,
    generate,
    iter_constant_idempotent_entries,
    make_label,
)
from idemring.mat2 import (
    Mat2Poly,
    idempotency_equations_hold,
    matrix_from_document,
    matrix_to_document,
)
from idemring.modarith import factor_squarefree
from idemring.polyring import Poly

import reference as ref

REPORTS = Path(__file__).resolve().parents[1] / "reports"


def plain_call(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Watchdog(BaseException):
    """Raised from SIGALRM when a run overruns; not an Exception, so the
    per-item handlers below do not swallow it."""


class InputsExhausted(Exception):
    """The workload has no unused inputs left for another verdict."""


class Tally:
    """Items attempted and failed; a failed item is wrong, raised, or timed out."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


class Workload:
    name = ""
    moduli: list[int] = []
    batch = 0  # items per verdict
    span_patches: list[tuple[object, str, str]] = []

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    # --- inputs -----------------------------------------------------------

    def draw(self, count: int) -> list:
        """The next count item inputs from the workload's seeded stream."""
        raise NotImplementedError

    def trace_inputs(self, pass_index: int) -> list:
        """Fixed-size inputs for one pass of the traced run."""
        raise NotImplementedError

    # --- work ---------------------------------------------------------------

    def prologue(self, call, tally: Tally) -> None:
        """Per-modulus work done once before a traced pass's items."""
        for n in self.moduli:
            call("modarith.factor", factor_squarefree, n)

    def run_item(self, inp, call):
        raise NotImplementedError

    def item_ok(self, inp, out) -> bool:
        raise NotImplementedError

    def attempt(self, inp, call):
        """run_item, with an exception returned as the item's output."""
        try:
            return self.run_item(inp, call)
        except Exception as exc:
            return exc

    def safe_ok(self, inp, out) -> bool:
        """item_ok, with a raised item or a malformed output counted as wrong."""
        if isinstance(out, Exception):
            return False
        try:
            return bool(self.item_ok(inp, out))
        except Exception:
            return False

    def matches(self, out) -> int:
        """Template matches in one item's output, for the traced hit ratio."""
        return 0

    def verdict_units(self, tally: Tally):
        """The units of one verdict, each a callable giving (wall seconds,
        per-item seconds) and updating tally."""
        yield lambda: self.run_items(self.draw(self.batch), tally)

    def finish_verdict(self, tally: Tally) -> None:
        """Checks that need the whole verdict."""

    def run_items(self, inputs, tally: Tally) -> tuple[float, list[float]]:
        """Time each item, then check them all; the in-flight and unstarted
        items count as failed if the watchdog interrupts the batch."""
        outs = []
        lat = []
        start = perf_counter()
        try:
            for inp in inputs:
                t0 = perf_counter()
                out = self.attempt(inp, plain_call)
                lat.append(perf_counter() - t0)
                outs.append(out)
        finally:
            wall = perf_counter() - start
            tally.add(len(inputs), len(inputs) - len(outs))
            tally.failed += sum(1 for inp, out in zip(inputs, outs) if not self.safe_ok(inp, out))
        return wall, lat


# The Mat2Poly methods that classify and generate call themselves.
MAT2_SPANS = [
    (Mat2Poly, "from_ints", "mat2.from_ints"),
    (Mat2Poly, "is_idempotent", "mat2.is_idempotent"),
    (Mat2Poly, "det", "mat2.det"),
]


# --- completeness-385 ---------------------------------------------------------


def _entries(flat, start: int, count: int) -> list:
    it = iter(flat[4 * start : 4 * (start + count)])
    return list(zip(it, it, it, it))


def _drain(it) -> int:
    count = 0
    for _ in it:
        count += 1
    return count


class Completeness385(Workload):
    """completeness_check's sweep over every constant idempotent of M2(Z_385).

    The verdict replays completeness_check through the same public calls:
    drain iter_constant_idempotent_entries, then Mat2Poly.from_ints and
    classify for every entry, and tally the reports.  It runs in chunks of
    about 0.4 s rather than as one 20-second call, so that each chunk can
    be scaled by the calibration windows beside it.  The tally is
    checked against the per-prime census and the archived report.
    """

    name = "completeness-385"
    n = 385
    span_patches = MAT2_SPANS
    chunk = 5000  # entries per sweep unit, about 0.4 s
    trace_stride = 10

    def __init__(self, seed):
        super().__init__(seed)
        self.mod = factor_squarefree(self.n)
        self.moduli = [self.n]
        self.ref = ref.ConstantIdempotents(self.mod.primes)
        self.archived = json.loads((REPORTS / f"completeness-{self.n}.json").read_text())
        self.report = None  # the running tally of the current sweep

    def draw(self, count):
        return [self.ref.entry(self.rng.randrange(self.ref.total)) for _ in range(count)]

    def trace_inputs(self, pass_index):
        # A stride over the whole set, independent of the seed, so counts
        # per item repeat exactly from run to run.
        return [self.ref.entry(i) for i in range(0, self.ref.total, self.trace_stride)]

    def prologue(self, call, tally):
        super().prologue(call, tally)
        count = call("classify.enumerate", _drain, iter_constant_idempotent_entries(self.mod))
        tally.add(1, int(count != self.ref.total))

    def verdict_units(self, tally):
        self.report = SimpleNamespace(
            total=0,
            trivial=0,
            family_counts=Counter(),
            det_histogram=Counter(),
            det_trace_histogram=Counter(),
            unmatched=[],
            match_multiplicity=Counter(),
        )
        flat = array("H")  # the entries, four per matrix, kept compact

        def enumerate_entries():
            start = perf_counter()
            count = _drain(iter_constant_idempotent_entries(self.mod))
            wall = perf_counter() - start
            for entry in iter_constant_idempotent_entries(self.mod):
                flat.extend(entry)
            tally.add(1, int(count != len(flat) // 4 or count != self.ref.total))
            return wall, []

        yield enumerate_entries
        for i in range(0, self.ref.total, self.chunk):
            yield lambda i=i: self.run_items(_entries(flat, i, self.chunk), tally)

    def finish_verdict(self, tally):
        try:
            tally.add(*ref.check_completeness(self.report, self.ref, self.archived))
        except Exception:
            tally.add(self.ref.total, self.ref.total)

    def run_item(self, entry, call):
        # from_ints gets its span from MAT2_SPANS, like the calls inside classify.
        G = Mat2Poly.from_ints(self.n, *entry)
        return call("classify.classify", classify, G, self.mod)

    def matches(self, rep):
        return len(rep.matches)

    def item_ok(self, entry, rep):
        """Check one report, and tally it as completeness_check would."""
        e, f, g, h = entry
        n = self.n
        tally = self.report
        if tally is not None:
            tally.total += 1
            tally.det_histogram[rep.det] += 1
            tally.det_trace_histogram[(rep.det, rep.trace)] += 1
            if rep.trivial:
                tally.trivial += 1
            else:
                tally.match_multiplicity[len(rep.matches)] += 1
                if not rep.matches:
                    tally.unmatched.append(entry)
                for label in rep.matches:
                    tally.family_counts[label.family] += 1
        return ref.classified_ok(rep, self.mod.primes, entry, (e * h - f * g) % n, (e + h) % n)


# --- roundtrip-deg5 -----------------------------------------------------------


class RoundtripDeg5(Workload):
    """make_label -> generate -> wire document -> classify, label must come back."""

    name = "roundtrip-deg5"
    moduli = [385, 455]
    span_patches = MAT2_SPANS
    batch = 1000
    max_degree = 5

    def __init__(self, seed):
        super().__init__(seed)
        self.mods = {n: factor_squarefree(n) for n in self.moduli}
        self.idems = {n: ref.idempotents(mod.primes) for n, mod in self.mods.items()}
        self.queue: list = []
        self.traced: list = []

    def _poly(self, n: int) -> Poly:
        deg = self.rng.randint(0, self.max_degree)
        return Poly(n, [self.rng.randrange(n) for _ in range(deg)] + [self.rng.randrange(1, n)])

    def _unit(self, n: int) -> Poly:
        while True:
            g = self.rng.randrange(1, n)
            if all(g % p for p in self.mods[n].primes):
                return Poly(n, [g])

    def _one(self, n: int, family: str):
        mod = self.mods[n]
        idems = self.idems[n]
        weight = {y: sum(y % p for p in mod.primes) for y in idems}
        kw: dict = {}
        params: dict = {}
        if family == ref.DET0_SCALED:
            kw["scale"] = self.rng.choice([y for y in idems if weight[y] in (1, 2)])
        elif family.startswith("detpair"):
            kw["det"] = self.rng.choice([y for y in idems if weight[y] == 1])
        elif family.startswith("detsingle"):
            kw["det"] = self.rng.choice([y for y in idems if weight[y] == 2])
        if family == ref.DETPAIR_MIXED:
            kw["swap_mixed_roles"] = self.rng.random() < 0.5
        if family not in (ref.DETPAIR_SCALAR, ref.DETSINGLE_SCALAR):
            params["e"] = self._poly(n)
            params["g"] = self._unit(n)
        if family == ref.DET0_SCALED:
            params["m"] = self._poly(n)
        return mod, family, kw, params

    def draw(self, count):
        # Every (modulus, family) pair once per block of 14, in seeded order.
        while len(self.queue) < count:
            block = [(n, fam) for n in self.moduli for fam in ref.FAMILIES]
            self.rng.shuffle(block)
            self.queue.extend(self._one(n, fam) for n, fam in block)
        out, self.queue = self.queue[:count], self.queue[count:]
        return out

    def trace_inputs(self, pass_index):
        if pass_index == 0:
            self.traced = self.draw(3500)
        return self.traced

    def run_item(self, inp, call):
        mod, family, kw, params = inp
        label = call("classify.make_label", make_label, mod, family, **kw)
        G = call("classify.generate", generate, mod, label, seed=0, **params)
        doc, back = call("mat2.wire", _wire, G)
        rep = call("classify.classify", classify, back, mod)
        return label, doc, back, rep

    def matches(self, out):
        return len(out[3].matches)

    def item_ok(self, inp, out):
        label, doc, back, rep = out
        return (
            ref.roundtrip_ok(label, doc, rep)
            and back @ back == back
            and idempotency_equations_hold(back)
        )


def _wire(G):
    doc = json.loads(json.dumps(matrix_to_document(G)))
    return doc, matrix_from_document(doc)


# --- trace-largeprime -----------------------------------------------------------


class TraceLargePrime(Workload):
    """`idemring solve-trace <5*7*p> <d> --json` for all 8 idempotents d.

    p is drawn without replacement from the primes in [2*10^4, 6*10^4), so
    no answer comes from the solver's cache; the O(p) root scan dominates.
    """

    name = "trace-largeprime"
    batch = 8 * 8
    trace_moduli = 12
    span_patches = [
        (cli, "factor_squarefree", "modarith.factor"),
        (cli, "trace_candidates", "quadcong.trace_candidates"),
        (cli, "closed_form_trace_solutions", "quadcong.closed_forms"),
    ]

    def __init__(self, seed):
        super().__init__(seed)
        pool = ref.primes_between(20_000, 60_000)
        self.rng.shuffle(pool)
        self.pool = pool
        self.moduli = [35 * p for p in self.pool[: self.batch // 8]]
        self.traced: list[int] = []

    def _take(self, k: int) -> list[int]:
        if len(self.pool) < k:
            raise InputsExhausted(f"{len(self.pool)} unused primes left, {k} needed")
        primes, self.pool = self.pool[:k], self.pool[k:]
        return primes

    def _items(self, primes) -> list:
        out = []
        for p in primes:
            primes3 = (5, 7, p)
            out.extend((primes3, d) for d in ref.idempotents(primes3))
        return out

    def draw(self, count):
        return self._items(self._take(count // 8))

    def trace_inputs(self, pass_index):
        # Fresh moduli for every pass, since a repeated (n, d) is a cache hit.
        # The passes deal one sorted draw round-robin so their sizes match.
        if pass_index == 0:
            self.traced = sorted(self._take(3 * self.trace_moduli))
        return self._items(self.traced[pass_index::3])

    def prologue(self, call, tally):
        pass

    def run_item(self, inp, call):
        primes, d = inp
        sink = StringIO()
        argv = ["solve-trace", str(primes[0] * primes[1] * primes[2]), str(d), "--json"]
        with redirect_stdout(sink):
            rc = call("cli.main", cli.main, argv)
        return rc, sink.getvalue()

    def item_ok(self, inp, out):
        primes, d = inp
        return ref.trace_answer_ok(out[0], out[1], primes, d)


WORKLOADS = {w.name: w for w in (Completeness385, RoundtripDeg5, TraceLargePrime)}

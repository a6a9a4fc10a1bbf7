"""idemring benchmark: time to a checked verdict, and where that time goes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  One
process, one thread, one caller in a closed loop.  Workloads (see
workloads.py and BENCHMARK.json for why each one is there):

  completeness-385  completeness_check's sweep over all 248,704 constant
                    idempotents of M2(Z_385), replayed in sub-second chunks
  roundtrip-deg5    make_label -> generate -> wire -> classify, degree <= 5
  trace-largeprime  `solve-trace 5*7*p d --json` through cli.main, p ~ 4*10^4

--trace 0 prints the end-to-end metrics.  Times are scaled to a reference
machine speed (see Speed): a calibration loop runs between the units of
work, and each unit's times are multiplied by CAL_REF_S / (the windows
around it).  The raw times, and the raw 99th percentile item latency, are
in the line before the result.
  setup_s       median over fresh interpreters of importing idemring (from
                source, no bytecode cache) plus factoring the workload's moduli
  verdict_s     median wall time of one verdict (the whole completeness
                sweep, or one fixed batch of round trips or trace solves)
  item_p50_us   median latency of one item: build and classify one constant
                matrix, one round trip, or one solve-trace call
  peak_rss_mb   peak resident set of the benchmark process

--trace 1 runs a fixed-size item sample three times: plain, with spans
around every public call (profiler off), and under cProfile.  Span times
come from the second pass, call counts from the third, and both overheads
are reported against the first.

Every answer is checked against reference.py; wrong answers, exceptions and
items cut off by the watchdog count as failed.  The last stdout line is the
result object; the line before it records the environment and the
failed ratio.
"""

import sys

sys.dont_write_bytecode = True

import argparse
import cProfile
import gc
import json
import math
import os
import platform
import pstats
import resource
import signal
import statistics
import subprocess
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WATCHDOG_S = 150.0  # the whole run, so a hang still exits well inside 180 s
SETUP_REPEATS = 8
CAL_WORK = 10_000  # iterations of the calibration loop in one window
CAL_REF_S = 0.05  # window time of the reference machine that timings are scaled to

sys.path.insert(0, str(SRC))
try:
    from workloads import WORKLOADS, InputsExhausted, Tally, Watchdog, plain_call
except ImportError as exc:
    sys.exit(f"error: cannot import the idemring package from {SRC}: {exc}")

MODULES = ("modarith", "polyring", "mat2", "quadcong", "znring", "classify", "cli")

END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "item_p50_us": "us",
    "peak_rss_mb": "MB",
}

# Span name -> per-layer metric holding that span's total seconds.
SPAN_METRICS = {
    "mat2.from_ints": "mat2.from_ints_s",
    "mat2.is_idempotent": "mat2.is_idempotent_s",
    "mat2.wire": "mat2.wire_s",
    "mat2.det": "mat2.det_s",
    "classify.enumerate": "classify.enumerate_s",
    "classify.classify": "classify.classify_s",
    "classify.generate": "classify.generate_s",
    "classify.make_label": "classify.make_label_s",
    "quadcong.trace_candidates": "quadcong.trace_candidates_s",
    "quadcong.closed_forms": "quadcong.closed_forms_s",
    "modarith.factor": "modarith.factor_s",
}

PER_LAYER = {
    **{f"{m}.{kind}": unit for m in MODULES for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "polyring.poly_new_per_item": "count/item",
    "mat2.matmul_per_item": "count/item",
    "classify.matcher_calls_per_item": "count/item",
    "classify.match_hit_ratio": "ratio",
    "modarith.mod_inverse_calls": "count",
    "quadcong.root_scans": "count",
    **{metric: "s" for metric in SPAN_METRICS.values()},
    "cli.main_self_s": "s",
    "trace.items": "count",
    "trace.plain_s": "s",
    "trace.span_overhead_ratio": "ratio",
    "trace.profile_overhead_ratio": "ratio",
}


def _alarm(signum, frame):
    raise Watchdog(f"run exceeded {WATCHDOG_S} s")


SETUP_CODE = """
import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import idemring, idemring.cli
from idemring.modarith import factor_squarefree
for arg in sys.argv[2:]:
    factor_squarefree(int(arg))
print(time.perf_counter() - t)
"""


def measure_setup(moduli, repeats: int) -> list[float]:
    """Import + factorisation times of fresh interpreters, compiled from source."""
    # -B stops the child writing bytecode; a cache prefix that nothing creates
    # stops it reading any, so every sample compiles from source.
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(ROOT / ".bench_build" / "no-pycache"))
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-B", "-c", SETUP_CODE, str(SRC), *map(str, moduli)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
            check=True,
        )
        times.append(float(out.stdout.split()[-1]))
    return times


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
    }


# --- machine speed ------------------------------------------------------------


class _Cell:
    __slots__ = ("n", "c")

    def __init__(self, n, coeffs):
        cs = [x % n for x in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.n = n
        self.c = tuple(cs)


def calibration_loop(iterations: int) -> int:
    """Fixed pure-Python work of the program's kind: small slotted objects,
    tuple products and reductions mod n."""
    acc = 0
    for i in range(iterations):
        a = _Cell(385, (i, i + 1, i + 2))
        b = _Cell(385, (i * 7, 3))
        out = [0] * 4
        for x, ai in enumerate(a.c):
            for y, bj in enumerate(b.c):
                out[x + y] += ai * bj
        acc += len(_Cell(385, out).c)
    return acc


class Speed:
    """The machine's speed next to each unit of work, from a calibration loop.

    On a shared machine the speed of one CPU drifts by tens of percent over
    seconds to minutes, for the calibration loop and the program alike.  A
    calibration window runs after every unit of work (a set-up sample, a
    batch of items, a chunk of the completeness sweep), and each unit's times are multiplied by
    CAL_REF_S / (mean of the windows just before and after it): they read as
    seconds on a machine where one window takes CAL_REF_S.  Two windows say
    little about the speed through a single call of many seconds, so every
    unit is kept to about a second or less.
    """

    def __init__(self):
        self.windows: list[float] = []

    def window(self) -> float:
        start = perf_counter()
        calibration_loop(CAL_WORK)
        self.windows.append(perf_counter() - start)
        return self.windows[-1]

    def bracket(self) -> float:
        """Scale for the unit of work since the previous window."""
        before = self.windows[-1]
        return CAL_REF_S / ((before + self.window()) / 2)


class Samples:
    """Timings as measured and as scaled to the reference speed."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def add(self, values, scale: float) -> None:
        self.raw.extend(values)
        self.scaled.extend(v * scale for v in values)


# --- untraced run -------------------------------------------------------------


def run_plain(wl, seconds: float, tally, state: dict) -> None:
    """Fill state with set-up times, item latencies and verdict times.

    Set-up is sampled half at the start and half at the end of the run, so
    its median mixes more than one moment of a shared machine.
    """
    speed = state["speed"]
    speed.window()
    time_setup(wl, SETUP_REPEATS // 2, state)
    wl.run_items(wl.draw(8), tally)  # warm-up: lazy imports and caches
    quiesce()
    speed.window()
    start = perf_counter()
    try:
        while True:
            raw = scaled = 0.0
            for unit in wl.verdict_units(tally):
                wall, lat = unit()
                scale = speed.bracket()
                raw += wall
                scaled += wall * scale
                state["items"].add(lat, scale)
            wl.finish_verdict(tally)
            state["verdicts"].add([raw], scaled / raw)
            if perf_counter() - start + raw > seconds:
                break
    except InputsExhausted:
        pass
    time_setup(wl, SETUP_REPEATS - SETUP_REPEATS // 2, state)


def time_setup(wl, repeats: int, state: dict) -> None:
    for _ in range(repeats):
        times = measure_setup(wl.moduli, 1)
        state["setup"].add(times, state["speed"].bracket())


def quiesce() -> None:
    """Collect, then freeze what exists, so the collector's passes over the
    benchmark's own objects do not land in the timings."""
    gc.collect()
    gc.freeze()


def end_to_end(state: dict, kind: str) -> dict:
    """End-to-end values from the raw or the scaled timings; a run cut by the
    watchdog reports the watchdog limit for what it lacks."""
    setup = getattr(state["setup"], kind) or [WATCHDOG_S]
    verdicts = getattr(state["verdicts"], kind) or [WATCHDOG_S]
    items = sorted(getattr(state["items"], kind)) or [WATCHDOG_S]
    return {
        "setup_s": statistics.median(setup),
        "verdict_s": statistics.median(verdicts),
        "item_p50_us": percentile(items, 0.50) * 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# --- traced run ---------------------------------------------------------------


class Spans:
    """In-memory spans: [name, start, end, parent index]."""

    def __init__(self):
        self.records: list[list] = []
        self.stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.records)
        self.records.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else None])
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.records[idx][2] = perf_counter()

    def wrap(self, name, fn):
        def wrapped(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapped

    def totals(self) -> tuple[dict, dict]:
        """(total seconds, self seconds) per span name."""
        total: dict = {}
        child: dict = {}
        for name, start, end, parent in self.records:
            total[name] = total.get(name, 0.0) + end - start
            if parent is not None:
                pname = self.records[parent][0]
                child[pname] = child.get(pname, 0.0) + end - start
        return total, {k: v - child.get(k, 0.0) for k, v in total.items()}


def traced_pass(wl, pass_index: int, call, tally) -> tuple[float, list, list]:
    """Prologue plus the pass's items through call: (wall seconds, inputs, outputs).

    The outputs are not checked here: the checkers call the library too, and
    that must not count in a pass's spans or profile (see check_pass).
    """
    inputs = wl.trace_inputs(pass_index)
    start = perf_counter()
    wl.prologue(call, tally)
    outs = [wl.attempt(inp, call) for inp in inputs]
    return perf_counter() - start, inputs, outs


def check_pass(wl, inputs, outs, tally) -> None:
    tally.add(len(inputs), sum(1 for inp, out in zip(inputs, outs) if not wl.safe_ok(inp, out)))


def patch_spans(spans, patches) -> list:
    """Wrap each (owner, attribute, span name) in a span; returns what to restore.

    The owner is a module or a class; a classmethod is wrapped around its
    function so it still binds to the class.
    """
    saved = []
    for owner, attr, name in patches:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(spans.wrap(name, raw.__func__)))
        else:
            setattr(owner, attr, spans.wrap(name, raw))
        saved.append((owner, attr, raw))
    return saved


def profile_by_module(stats: dict) -> tuple[dict, dict, dict]:
    """Calls and self seconds per idemring module, and calls per (module, function)."""
    calls = {m: 0 for m in MODULES}
    self_s = {m: 0.0 for m in MODULES}
    funcs: dict = {}
    for (filename, _, func), (_, nc, tt, _, _) in stats.items():
        path = Path(filename)
        if path.parent.name != "idemring" or path.stem not in calls:
            continue
        calls[path.stem] += nc
        self_s[path.stem] += tt
        funcs[(path.stem, func)] = funcs.get((path.stem, func), 0) + nc
    return calls, self_s, funcs


def run_traced(wl, tally, values: dict) -> None:
    """Fill values with the per-layer metrics of three passes over the trace sample."""
    wl.run_items(wl.draw(8), tally)  # warm-up: lazy imports and caches
    quiesce()
    t_plain, inputs, outs = traced_pass(wl, 0, plain_call, tally)
    check_pass(wl, inputs, outs, tally)
    values["trace.plain_s"] = t_plain

    spans = Spans()
    saved = patch_spans(spans, wl.span_patches)
    try:
        t_spans, inputs, outs = traced_pass(wl, 1, spans.call, tally)
    finally:
        for owner, attr, raw in saved:
            setattr(owner, attr, raw)
    check_pass(wl, inputs, outs, tally)
    total, self_time = spans.totals()
    for span, metric in SPAN_METRICS.items():
        values[metric] = total.get(span, 0.0)
    values["cli.main_self_s"] = self_time.get("cli.main", 0.0)
    values["trace.span_overhead_ratio"] = t_spans / t_plain

    prof = cProfile.Profile()
    prof.enable()
    try:
        t_prof, inputs, outs = traced_pass(wl, 2, plain_call, tally)
    finally:
        prof.disable()
    check_pass(wl, inputs, outs, tally)
    values["trace.profile_overhead_ratio"] = t_prof / t_plain
    calls, self_s, funcs = profile_by_module(pstats.Stats(prof).stats)
    for m in MODULES:
        values[f"{m}.calls"] = calls[m]
        values[f"{m}.self_s"] = self_s[m]
    items = max(1, len(inputs))
    matchers = sum(c for (m, f), c in funcs.items() if m == "classify" and f.startswith("_match_"))
    values["trace.items"] = len(inputs)
    values["polyring.poly_new_per_item"] = funcs.get(("polyring", "__init__"), 0) / items
    values["mat2.matmul_per_item"] = funcs.get(("mat2", "__matmul__"), 0) / items
    values["classify.matcher_calls_per_item"] = matchers / items
    values["classify.match_hit_ratio"] = (
        sum(wl.matches(out) for out in outs if not isinstance(out, Exception)) / matchers
        if matchers
        else 0.0
    )
    values["modarith.mod_inverse_calls"] = funcs.get(("modarith", "mod_inverse"), 0)
    values["quadcong.root_scans"] = funcs.get(("quadcong", "prime_quadratic_roots"), 0)


# --- entry point --------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="idemring benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    env = environment()
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, WATCHDOG_S)
    tally = Tally()
    state: dict = {"setup": Samples(), "verdicts": Samples(), "items": Samples(), "speed": Speed()}
    values = {name: 0 for name in PER_LAYER}
    try:
        wl = WORKLOADS[args.workload](args.seed)
        if args.trace:
            run_traced(wl, tally, values)
        else:
            run_plain(wl, args.seconds, tally, state)
    except Watchdog as exc:
        print(f"watchdog: {exc}; the cut-off work counts as failed", file=sys.stderr)
        tally.add(1, 1)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if args.trace:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = end_to_end(state, "scaled")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    attempted = max(1, tally.attempted)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "failed_ratio": tally.failed / attempted,
        "verdicts": len(state["verdicts"].raw),
        "items": len(state["items"].raw),
        "env": env,
    }
    if not args.trace:
        info["calibration_windows"] = len(state["speed"].windows)
        info["raw"] = end_to_end(state, "raw")
        # Not an end-to-end metric: over ten runs on a shared 2-vCPU machine
        # its spread reached 0.27-0.32 of its median, above the largest bound
        # (0.25) an end-to-end metric may have.
        info["raw"]["item_p99_us"] = percentile(sorted(state["items"].raw or [WATCHDOG_S]), 0.99) * 1e6
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

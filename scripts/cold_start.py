#!/usr/bin/env python3
"""Time the cold start of two checkouts in alternating pairs.

    python3 scripts/cold_start.py PARENT CHANGE --pairs N [--out FILE]

Each sample is a fresh interpreter.  Per pair, and for each checkout in
turn (odd pairs the parent first, even pairs the change), it times

* `import idemring, idemring.cli` (perf_counter around the import, the
  package put on sys.path from the checkout's src/) in three modes:
  - source: nothing cached, so the standard library compiles too, as in
    perfbench's setup_s;
  - stdlib-bytecode: the standard library's bytecode is cached, the
    package compiles;
  - cached: everything's bytecode is cached;
* one whole `python3 -m idemring solve-trace 700385 80045 --json` process
  (wall time around the child, bytecode fully cached).

Every sample runs with -B and a PYTHONPYCACHEPREFIX under a temporary
directory, so nothing is written into either checkout and no __pycache__
already in one is read; it runs in that directory too, since -c and -m
put the working directory first on sys.path.  The cached modes' prefixes
are filled by one untimed warm-up run per checkout before the pairs.  The
summary (per measurement, each side's median and runs in ms, and how many
pairs the change read lower) goes to stdout as JSON, and to FILE with
--out.  Standard library only.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
MODES = ("source", "stdlib-bytecode", "cached")
SOLVE_TRACE = ["solve-trace", "700385", "80045", "--json"]

IMPORT_CODE = """
import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import idemring, idemring.cli
print(time.perf_counter() - t)
"""


def child_env(prefix: Path, src: Path | None = None) -> dict:
    """The environment of a sample: bytecode under prefix, idemring from src."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPYCACHEPREFIX"] = str(prefix)
    if src is not None:
        env["PYTHONPATH"] = str(src)
    return env


def fill_caches(tmp: Path, sources: dict[str, Path]) -> dict[str, Path]:
    """mode -> bytecode prefix; the cached ones are filled by untimed runs."""
    prefixes = {mode: tmp / mode for mode in MODES}
    for prefix in prefixes.values():
        prefix.mkdir()
    for src in sources.values():
        # write bytecode (no -B) for the import and for the whole verb
        subprocess.run([sys.executable, "-c", IMPORT_CODE, str(src)], env=child_env(prefixes["cached"]),
                       cwd=tmp, capture_output=True, check=True)
        subprocess.run([sys.executable, "-m", "idemring", *SOLVE_TRACE],
                       env=child_env(prefixes["cached"], src), cwd=tmp, capture_output=True, check=True)
    shutil.copytree(prefixes["cached"], prefixes["stdlib-bytecode"], dirs_exist_ok=True)
    for src in sources.values():
        # a prefix mirrors each source file's absolute path
        shutil.rmtree(prefixes["stdlib-bytecode"].joinpath(*src.parts[1:]), ignore_errors=True)
    return prefixes


def time_import(src: Path, prefix: Path) -> float:
    out = subprocess.run([sys.executable, "-B", "-c", IMPORT_CODE, str(src)], env=child_env(prefix),
                         cwd=prefix.parent, capture_output=True, text=True, check=True)
    return float(out.stdout.split()[-1]) * 1000


def time_process(src: Path, prefix: Path) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-B", "-m", "idemring", *SOLVE_TRACE], env=child_env(prefix, src),
                   cwd=prefix.parent, capture_output=True, check=True)
    return (time.perf_counter() - start) * 1000


def summarize(runs: dict[str, list[float]]) -> dict:
    lower = sum(c < p for p, c in zip(runs["parent"], runs["change"]))
    out = {side: round(statistics.median(runs[side]), 2) for side in SIDES}
    out["change_lower_in_pairs"] = f"{lower}/{len(runs['parent'])}"
    out["runs"] = {side: [round(v, 2) for v in runs[side]] for side in SIDES}
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", type=Path, default=None, help="also write the summary here")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    sources = {"parent": args.parent.resolve() / "src", "change": args.change.resolve() / "src"}
    samples = {key: {side: [] for side in SIDES} for key in (*MODES, "solve_trace_process")}
    with tempfile.TemporaryDirectory(prefix="cold-start-") as tmp:
        prefixes = fill_caches(Path(tmp), sources)
        for pair in range(1, args.pairs + 1):
            for side in SIDES if pair % 2 else reversed(SIDES):
                for mode in MODES:
                    samples[mode][side].append(time_import(sources[side], prefixes[mode]))
                samples["solve_trace_process"][side].append(time_process(sources[side], prefixes["cached"]))
            print(f"pair {pair}/{args.pairs} done", file=sys.stderr)
    doc = {
        "env": {"python": platform.python_version(), "cpus": os.cpu_count()},
        "command": (
            f"python3 scripts/cold_start.py PARENT CHANGE --pairs {args.pairs}: fresh interpreters, "
            "alternating which side goes first (odd pairs parent first); import_ms times "
            "`import idemring, idemring.cli`, solve_trace_process_ms one whole "
            f"`python3 -m idemring {' '.join(SOLVE_TRACE)}` with bytecode cached"
        ),
        "pairs": args.pairs,
        "import_ms": {mode: summarize(samples[mode]) for mode in MODES},
        "solve_trace_process_ms": summarize(samples["solve_trace_process"]),
    }
    text = json.dumps(doc, indent=1) + "\n"
    sys.stdout.write(text)
    if args.out:
        args.out.write_text(text)


if __name__ == "__main__":
    main()

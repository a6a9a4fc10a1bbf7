#!/usr/bin/env python3
"""Archive the closed-form trace survey and the completeness tally.

For each modulus the eight printed closed-form solutions of
t^2 = t + 2d (mod n) are checked for every nontrivial idempotent d
against the scan-backed solver (reports/trace-formulas-<n>.{txt,json}).
Moduli with three distinct primes, all greater than 3, and n^3 within
the one default brute-force budget (DEFAULT_BUDGET, so n <= 500) also get
every constant idempotent matrix of M2(Z_n) classified and tallied
(reports/completeness-<n>.{txt,json}); the tally's run time goes to
stdout only, so the archived files are deterministic.
"""

import argparse
from pathlib import Path

from idemring.classify import completeness_check
from idemring.cli import report_files
from idemring.errors import BudgetExceeded, PrimesOutOfScope
from idemring.modarith import factor_squarefree


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--moduli", type=int, nargs="+", default=[105, 385, 455])
    ap.add_argument("--out-dir", type=Path, default=Path(__file__).resolve().parents[1] / "reports")
    args = ap.parse_args()
    args.out_dir.mkdir(exist_ok=True)
    for n in args.moduli:
        mod = factor_squarefree(n)
        try:
            rep = completeness_check(mod)
        except (PrimesOutOfScope, BudgetExceeded) as exc:
            print(f"n = {mod}: completeness skipped: {exc.code}: {exc}")
            rep = None
        for name, text in report_files(mod, rep).items():
            (args.out_dir / name).write_text(text)
        if rep is not None:
            print(
                f"n = {mod}: {rep.total} idempotents, {len(rep.unmatched)} unmatched "
                f"({rep.elapsed_seconds:.1f} s) -> {args.out_dir / f'completeness-{n}.txt'}"
            )
        print(f"n = {mod}: closed-form survey -> {args.out_dir / f'trace-formulas-{n}.txt'}")


if __name__ == "__main__":
    main()

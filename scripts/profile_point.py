#!/usr/bin/env python
"""Profile single-point evaluation: the measurement every perf PR starts from.

Runs ``compare_schemes`` under :mod:`cProfile` — one cold point (library
and scheme construction included) by default, or fresh points over a
warm structural cache with ``--warm``, which is the steady state the
serving and distributed layers actually see — and prints the top
functions by ``tottime``.

Examples
--------
Profile the paper's point, cold::

    PYTHONPATH=src python scripts/profile_point.py

Profile 32 fresh points over warm structure, top 15 rows::

    PYTHONPATH=src python scripts/profile_point.py --warm --points 32 --top 15
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import compare_schemes, paper_experiment  # noqa: E402
from repro.circuit.biasing import kernel_totals  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    """Profile one (or several) design-point evaluations and print a report."""
    parser = argparse.ArgumentParser(
        description="cProfile the compare_schemes hot path.")
    parser.add_argument("--points", type=int, default=1,
                        help="how many points to profile (default 1)")
    parser.add_argument("--warm", action="store_true",
                        help="pre-build libraries/schemes so the profile shows "
                             "the steady-state (cache-warm) hot path")
    parser.add_argument("--sort", default="tottime",
                        choices=["tottime", "cumtime", "ncalls"],
                        help="pstats sort column (default tottime)")
    parser.add_argument("--top", type=int, default=20,
                        help="rows to print (default 20)")
    args = parser.parse_args(argv)

    base = paper_experiment()
    if args.warm:
        compare_schemes(base)
    # Distinct activity scalars, as a sweep over activity would send them.
    configs = [base.with_overrides(static_probability=0.05 + 0.9 * i / max(1, args.points))
               for i in range(args.points)]

    before = kernel_totals()
    before_lookups, before_misses = before.lookups, before.misses
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    for config in configs:
        compare_schemes(config)
    profiler.disable()
    elapsed = time.perf_counter() - start

    totals = kernel_totals()
    lookups = totals.lookups - before_lookups
    misses = totals.misses - before_misses
    print(f"{args.points} point(s), {'warm' if args.warm else 'cold'} "
          f"structural cache: {elapsed * 1e3:.1f} ms total, "
          f"{args.points / elapsed:.1f} points/s")
    if lookups:
        print(f"leakage kernel: {lookups / args.points:.1f} lookups/point, "
              f"{misses / args.points:.1f} misses/point "
              f"({(lookups - misses) / lookups * 100.0:.1f}% memo hits)")
    print()
    pstats.Stats(profiler).strip_dirs().sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

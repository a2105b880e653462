#!/usr/bin/env python3
"""Benchmark of the whole stack: sweeps, the HTTP service and the fleet.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload activity_sweep --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics listed in ``BENCHMARK.json``;
``--trace 1`` runs untraced and traced rounds and prints the per-layer
metrics, including ``trace.overhead_pct``, the cost of tracing itself,
and the per-cell Table-1 residuals.  The last line of standard output is
always one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--write-reference`` regenerates ``reference.json`` from
the current model.  See ``perfbench/README.md`` for the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference.json for the default seed and exit")
    return parser


def _check_checkout() -> str | None:
    """Why this directory cannot be benchmarked, or None."""
    for needed in ("src/repro/__init__.py", "benchmarks/conftest.py", "BENCHMARK.json"):
        if not (ROOT / needed).is_file():
            return f"{needed} is missing: run from a full checkout of the repository"
    return None


def _end_to_end(tally, residual_pct: float) -> dict[str, float]:
    from workloads import SLOW_SHARE, peak_rss_mb, percentile

    return {
        "setup_s": statistics.median(tally.setups),
        "points_per_s": percentile(tally.rates, SLOW_SHARE),
        "warm_points_per_s": percentile(tally.warm_rates, SLOW_SHARE),
        "query_p95_ms": 1e3 * percentile(tally.latencies, 0.95),
        "correct_share": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": peak_rss_mb() if tally.rss_mb is None else tally.rss_mb,
        "table1_mean_residual_pct": residual_pct,
    }


def _per_layer(tally, names: list[str]) -> dict[str, float]:
    import tracing
    from workloads import SLOW_SHARE, percentile

    metrics = dict.fromkeys(names, 0.0)
    metrics.update(tracing.layer_metrics(tracing.merge(tally.snapshots)))
    metrics.update(tally.layer)
    metrics["query_p50_ms"] = 1e3 * percentile(tally.latencies, 0.50)
    if tally.traced_rates:
        overhead = (percentile(tally.rates, SLOW_SHARE)
                    / percentile(tally.traced_rates, SLOW_SHARE))
    else:  # the service: compare median latencies instead of throughput
        overhead = (percentile(tally.traced_latencies, 0.5)
                    / percentile(tally.latencies, 0.5))
    metrics["trace.overhead_pct"] = 100.0 * (overhead - 1.0)
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    problem = _check_checkout()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    if args.write_reference:
        workloads.write_reference()
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    reference = workloads.load_reference()
    tally = workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                               bool(args.trace), reference)
    # The stored reference points, re-evaluated whatever the seed.
    checks = workloads.Answers(reference, f"{args.seed}/reference")
    for key, records in reference.items():
        checks.add(json.loads(key), records)
    checks.score(tally)
    residuals = workloads.table1_residuals()
    residual_pct = statistics.fmean(residuals.values())

    if args.trace:
        for cell, value in residuals.items():
            print(f"table1 residual {cell}: {value:.2f} %")
        listed = spec["per_layer"]
        values = _per_layer(tally, [metric["name"] for metric in listed])
    else:
        listed = spec["end_to_end"]
        values = _end_to_end(tally, residual_pct)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                    for metric in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

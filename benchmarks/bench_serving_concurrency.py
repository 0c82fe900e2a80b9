"""Concurrent serving under load: K client threads vs the runtime.

The serving counterpart of the north-star claim: micro-batching numbers
are meaningless for "heavy traffic" until they survive multiple request
threads.  This load generator drives the thread-safe serving runtime
with K open-loop client threads (unbounded arrival rate by default — a
saturation measurement; cap it with ``--arrival-rate``) against a
NoJoin model and measures:

- the **per-request baseline** — every client calls ``predict_one``,
  one request processed at a time, no cross-request coalescing: what a
  naive thread-safe server would sustain;
- the **micro-batched runtime** — clients ``submit`` onto the shared
  thread-safe micro-batcher, whose background deadline flusher
  coalesces rows *across* client threads and predicts each flushed
  batch in one vectorized call.

Both runs' predictions are compared row-for-row against a
single-threaded reference of the same request stream; the script exits
non-zero on any mismatch, and (outside ``--no-enforce``) when the
micro-batched runtime's speedup over the baseline falls below
``--min-speedup``.  The win is cross-client batch coalescing; the
JSON's ``machine`` block records the host it was measured on.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving_concurrency.py
    # CI smoke: small stream, correctness + a relaxed speedup floor
    PYTHONPATH=src python benchmarks/bench_serving_concurrency.py \
        --rows 800 --min-speedup 1.2 \
        --out /tmp/bench_serving_concurrency_smoke.json
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.datasets import generate_real_world
from repro.experiments import get_scale
from repro.obs import machine_info
from repro.serving import concurrent_serving_throughput


def run(args) -> dict:
    scale = get_scale(args.scale)
    dataset = generate_real_world(
        args.dataset, n_fact=scale.n_fact, seed=args.seed
    )
    report = concurrent_serving_throughput(
        dataset,
        model_key=args.model,
        rows=args.rows,
        batch_size=args.batch_size,
        clients=args.clients,
        max_wait_s=args.max_wait_s,
        arrival_rate=args.arrival_rate,
        scale=scale,
    )
    print(report.render())
    return {
        "benchmark": "serving_concurrency",
        "dataset": report.dataset,
        "model_key": report.model_key,
        "strategy": report.strategy,
        "rows": report.rows,
        "batch_size": report.batch_size,
        "clients": report.clients,
        "max_wait_s": report.max_wait_s,
        "arrival_rate": args.arrival_rate,
        "baseline_rows_per_s": report.baseline_rows_per_s,
        # Per-stage latency breakdown (queue_wait/assemble/predict/
        # request, each with mean + p50/p95/p99 in ms) from the serving
        # runtime's latency histograms.
        "baseline_latency_ms": report.baseline_latency_ms,
        "batched": {
            "rows_per_s": report.batched_rows_per_s,
            "mean_batch_rows": report.mean_batch_rows,
            "latency_ms": report.latency_ms,
        },
        "headline_speedup": report.speedup,
        "predictions_identical_to_single_threaded": report.identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dataset", default="yelp")
    parser.add_argument("--model", default="dt_gini")
    parser.add_argument("--rows", type=int, default=4000)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--max-wait-s", type=float, default=0.002)
    parser.add_argument(
        "--arrival-rate",
        type=float,
        default=None,
        help="aggregate open-loop arrival rate, requests/s (default: unbounded)",
    )
    parser.add_argument("--scale", choices=["smoke", "default", "paper"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="required speedup of the micro-batched runtime over the baseline",
    )
    parser.add_argument(
        "--no-enforce",
        action="store_true",
        help="record results without failing on the speedup floor",
    )
    parser.add_argument("--out", default="BENCH_serving_concurrency.json")
    args = parser.parse_args(argv)
    if args.arrival_rate is not None and args.arrival_rate <= 0:
        parser.error(f"--arrival-rate must be positive, got {args.arrival_rate}")
    if args.clients < 1:
        parser.error(f"--clients must be >= 1, got {args.clients}")

    results = run(args)
    results["machine"] = machine_info()
    with open(args.out, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {args.out}")

    if not results["predictions_identical_to_single_threaded"]:
        print(
            "FAIL: concurrent predictions diverged from the "
            "single-threaded reference",
            file=sys.stderr,
        )
        return 1
    if not args.no_enforce and results["headline_speedup"] < args.min_speedup:
        print(
            f"FAIL: headline speedup {results['headline_speedup']:.2f}x "
            f"is below the --min-speedup floor {args.min_speedup}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

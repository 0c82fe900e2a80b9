"""Grouped vs gathered layout through the KFK join: the paper's regime.

Trains L1 logistic regression (FISTA, fixed iteration count) over a
streamed OneXr star schema at growing tuple ratios ``n / |D_FK|`` —
the paper's Table 1 axis — on two bench-local sources that pin the
layout.  The gathered source copies each shard to an
``(n, d_S + d_R)`` code table, so every kernel pass costs
``O(n · (d_S + d_R))``; the all-grouped source keeps the dimension
features as one ``(|D|, d_R)`` block behind an FK indirection in every
shard, so the same pass costs ``O(n · d_S + n + |D| · d_R)``.  At tuple
ratio 100 with ``d_R = 40`` (the paper's avoidance-tempting regime:
dimensions carrying many features) the dimension term is ~1% of the
gathered cost, and the measured speedup clears 3x.  Each sweep point
also records the layout the library's own rule
(:data:`repro.data.encoder.GROUP_FANOUT`) picks for a default
``SourceSpec(shard_rows=...)`` stream.

Every sweep point asserts the two layouts are numerically one
algorithm: fitted coefficients agree within 1e-10 and the served
predictions of implicit and factorized :class:`PredictionServer`\\ s
over the same artifact are identical.  The script exits non-zero if
either fails — or, with ``--assert-min-speedup S``, if any ratio >= 100
trains the grouped layout slower than ``S``\\ x the gathered one.

Usage::

    PYTHONPATH=src python benchmarks/bench_factorized.py
    # CI smoke: tiny sweep, grouped must not lose at ratio 100
    PYTHONPATH=src python benchmarks/bench_factorized.py \
        --ratios 10 100 --n-r 20 --max-iter 10 --serve-rows 64 \
        --repeats 1 --assert-min-speedup 1.0 --out /tmp/bench.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.core import join_all_strategy
from repro.data.spec import SourceSpec
from repro.datasets import OneXrScenario
from repro.ml.linear import L1LogisticRegression
from repro.ml.sparse import FactorizedMatrix
from repro.obs import machine_info
from repro.rng import ensure_rng
from repro.serving import PredictionServer
from repro.serving.artifacts import ModelArtifact, schema_fingerprint
from repro.streaming import ShardedDataset, StreamingMatrices, StreamingTrainer

EQUIVALENCE_ATOL = 1e-10

#: Ratios where the grouped layout is expected to win (the paper's
#: tuple-ratio rule fires around 20; 100 leaves comfortable margin).
SPEEDUP_RATIO_FLOOR = 100


class LayoutSource(StreamingMatrices):
    """A train stream whose every shard takes one pinned layout.

    ``grouped=True`` keeps every joined dimension grouped in every
    shard, one-shard streams included; ``grouped=False`` gathers them
    all.  The library's rule picks between the two per dimension, so
    pinning both ends measures what the rule chooses between.
    """

    def __init__(self, dataset, shard_rows: int, grouped: bool):
        super().__init__(
            ShardedDataset.from_split(dataset, shard_rows=shard_rows),
            join_all_strategy(),
        )
        self.grouped = grouped

    def _assemble(self, shard):
        encoder = self.encoder
        if not self.grouped:
            return encoder.encode_shard(shard.fact, gather=True)
        X = encoder.assemble(
            {c: shard.fact.codes(c) for c in encoder.required_columns},
            grouped=encoder.joined_dimensions,
        )
        return X, shard.fact.codes(self.schema.target)


def rule_layout(dataset, shard_rows: int) -> list[str]:
    """The dimensions the library's rule keeps grouped in shard 0."""
    source = SourceSpec(shard_rows=shard_rows).build(
        dataset, join_all_strategy(), "train"
    )
    X, _ = source.shard(0)
    if isinstance(X, FactorizedMatrix):
        return [group.name for group in X.groups]
    return []


def make_dataset(ratio: int, n_r: int, d_s: int, d_r: int, seed: int):
    """One OneXr draw at tuple ratio ``n_train / n_r``."""
    scenario = OneXrScenario(
        n_train=max(4, ratio * n_r), n_r=n_r, d_s=d_s, d_r=d_r
    )
    return scenario.sample(seed)


def train_layout(
    dataset, layout: str, max_iter: int, shard_rows: int, repeats: int = 1
):
    """Fit fixed-iteration FISTA over a streamed source in one layout.

    Returns the fitted model, the feature order and the best-of-
    ``repeats`` wall-clock — repeated fits are deterministic (seeded
    draws, tol=0), so the minimum is the least-noisy estimate on a
    shared machine.
    """
    source = LayoutSource(dataset, shard_rows, grouped=layout == "grouped")
    # tol=0 disables early convergence: both layouts run exactly
    # max_iter FISTA passes over the same shards, work for work.
    train_s = float("inf")
    for _ in range(repeats):
        model = L1LogisticRegression(lam=1e-4, max_iter=max_iter, tol=0.0)
        started = time.perf_counter()
        StreamingTrainer(model).fit(source)
        train_s = min(train_s, time.perf_counter() - started)
    return model, tuple(source.feature_names), train_s


def make_artifact(model, feature_names, dataset) -> ModelArtifact:
    schema = dataset.schema
    target_domain = schema.fact.column(schema.target).domain
    return ModelArtifact(
        model=model,
        strategy=join_all_strategy(),
        feature_names=feature_names,
        target=schema.target,
        target_labels=tuple(target_domain.labels),
        fingerprint=schema_fingerprint(schema),
        model_key="lr_l1",
        dataset_name="one_xr_bench",
        metadata={"benchmark": "bench_factorized"},
    )


def serve_rows(dataset, n: int, seed: int) -> list[dict]:
    """Label-valued request rows drawn from the fact table's domains."""
    fact = dataset.schema.fact
    rng = ensure_rng(seed)
    columns = [c for c in fact.column_names if c != dataset.schema.target]
    idx = rng.integers(0, fact.n_rows, size=min(n, fact.n_rows))
    return [
        {c: fact.domain(c).decode([fact.codes(c)[i]])[0] for c in columns}
        for i in idx
    ]


def measure_serving(artifact, dataset, rows, repeats: int = 3):
    """Batched prediction wall-clock per engine, plus the predictions."""
    out = {}
    for engine in ("implicit", "factorized"):
        server = PredictionServer(
            artifact, dataset.schema, max_wait_s=None, engine=engine
        )
        predictions = server.predict_batch(rows)
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            server.predict_batch(rows)
            best = min(best, time.perf_counter() - started)
        out[engine] = {"seconds": best, "predictions": predictions}
    return out


def run(args):
    results = {
        "model": "L1LogisticRegression (FISTA, fixed iterations)",
        "n_r": args.n_r,
        "d_s": args.d_s,
        "d_r": args.d_r,
        "max_iter": args.max_iter,
        "shard_rows": args.shard_rows,
        "repeats": args.repeats,
        "equivalence_atol": EQUIVALENCE_ATOL,
        "speedup_ratio_floor": SPEEDUP_RATIO_FLOOR,
        "ratios": [],
    }
    ok = True
    for ratio in args.ratios:
        dataset = make_dataset(ratio, args.n_r, args.d_s, args.d_r, args.seed)
        n_train = dataset.train.size
        entry = {
            "tuple_ratio": ratio,
            "n_train": int(n_train),
            "rule_grouped": rule_layout(dataset, args.shard_rows),
        }

        gathered, names_g, entry["gathered_train_seconds"] = train_layout(
            dataset, "gathered", args.max_iter, args.shard_rows, args.repeats
        )
        grouped, names_f, entry["grouped_train_seconds"] = train_layout(
            dataset, "grouped", args.max_iter, args.shard_rows, args.repeats
        )
        entry["train_speedup"] = entry["gathered_train_seconds"] / max(
            entry["grouped_train_seconds"], 1e-12
        )

        assert names_g == names_f
        coef_gap = float(
            max(
                np.max(np.abs(gathered.coef_ - grouped.coef_)),
                abs(gathered.intercept_ - grouped.intercept_),
            )
        )
        entry["coef_max_abs_gap"] = coef_gap
        if coef_gap > EQUIVALENCE_ATOL:
            ok = False

        artifact = make_artifact(grouped, names_f, dataset)
        rows = serve_rows(dataset, args.serve_rows, args.seed)
        served = measure_serving(artifact, dataset, rows)
        entry["serving"] = {
            engine: {
                "seconds": served[engine]["seconds"],
                "rows": len(rows),
            }
            for engine in served
        }
        identical = (
            served["implicit"]["predictions"]
            == served["factorized"]["predictions"]
        )
        entry["serving_predictions_identical"] = identical
        if not identical:
            ok = False

        results["ratios"].append(entry)
        print(
            f"n/|D|={ratio:>5d} (n={n_train:>7d})  "
            f"gathered {entry['gathered_train_seconds']:.3f}s  "
            f"grouped {entry['grouped_train_seconds']:.3f}s  "
            f"speedup {entry['train_speedup']:.2f}x  "
            f"rule groups {entry['rule_grouped'] or 'nothing'}  "
            f"coef gap {coef_gap:.1e}  "
            f"serving {'identical' if identical else 'DIVERGED'}"
        )
    return results, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--ratios", type=int, nargs="+", default=[1, 10, 100, 1000],
        help="tuple ratios n/|D_FK| to sweep",
    )
    parser.add_argument(
        "--n-r", type=int, default=100, help="dimension rows |D_FK|"
    )
    parser.add_argument(
        "--d-s", type=int, default=2, help="home (fact) features"
    )
    parser.add_argument(
        "--d-r", type=int, default=40, help="foreign (dimension) features"
    )
    parser.add_argument(
        "--max-iter", type=int, default=40, help="FISTA iterations per fit"
    )
    parser.add_argument(
        "--shard-rows", type=int, default=10_000,
        help="rows per streamed shard",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="fits per layout per ratio; best wall-clock is reported",
    )
    parser.add_argument(
        "--serve-rows", type=int, default=512,
        help="request rows for the serving identity/timing check",
    )
    parser.add_argument(
        "--assert-min-speedup", type=float, default=None,
        help="fail unless grouped training beats gathered by this factor "
        f"at every tuple ratio >= {SPEEDUP_RATIO_FLOOR}",
    )
    parser.add_argument(
        "--out", default="BENCH_factorized.json", help="JSON output path"
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    results, ok = run(args)
    results["machine"] = machine_info()
    with open(args.out, "w") as handle:
        json.dump(results, handle, indent=2)
    print(f"wrote {args.out}")

    if not ok:
        print(
            "ERROR: gathered/grouped layouts diverged beyond "
            f"{EQUIVALENCE_ATOL} (or served different predictions)",
            file=sys.stderr,
        )
        return 1
    if args.assert_min_speedup is not None:
        slow = [
            entry
            for entry in results["ratios"]
            if entry["tuple_ratio"] >= SPEEDUP_RATIO_FLOOR
            and entry["train_speedup"] < args.assert_min_speedup
        ]
        if slow:
            for entry in slow:
                print(
                    f"ERROR: speedup {entry['train_speedup']:.2f}x at tuple "
                    f"ratio {entry['tuple_ratio']} is below the required "
                    f"{args.assert_min_speedup}x",
                    file=sys.stderr,
                )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

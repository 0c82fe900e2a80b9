"""The four workloads of the repository benchmark, and why each exists.

The question of the source paper (Shah, Kumar & Zhu, VLDB 2017) is
whether a KFK join can be avoided without losing accuracy; this
benchmark asks what the system costs while answering it.  Each workload
drives ``src/repro`` only through public calls, with inputs generated by
the seeded dataset emulators from ``--seed``; the program never sees the
seed itself.  The workloads run the defaults a user gets: implicit
engine, no prefetch, no spill cache, no process workers
(:mod:`repro.parallel` stays off), so a change to a default shows in the
numbers and deleting an opt-in path does not.

Layers are the modules of ``src/repro``: ``datasets`` (star-schema
generation), ``core``/``relational`` (strategy join and
materialisation), ``data`` (``SourceSpec``, ``ShardEncoder``,
``FeatureSource``), ``streaming`` (shards, ``StreamingTrainer``), ``ml``
(tuners, FISTA, NB counts, tree/SVM/MLP, the ``sparse`` kernels),
``experiments`` (the cell pipeline) and ``serving`` (``PredictionServer``,
``MicroBatcher``, ``FeatureService``).

``paper_cells``
    The paper's own experiment: all ten ``MODEL_REGISTRY`` models x
    {JoinAll, NoJoin} x {movies (tuple ratios 83/135), yelp (9.4/2.5, the
    paper's unsafe case)}, tuned in memory at the ``default`` profile --
    40 cells per sweep.  Exercises ``core`` materialisation and every
    ``ml`` tuner; model tuning is ~90% of the time and the SVM grids
    alone more than half.  Bypasses ``data`` sources, ``streaming`` and
    ``serving``.  Materialisation is under 1% of a cell, so a change
    confined to ``data`` is predicted to leave this workload unchanged.

``stream_lr``
    A streamed L1-logistic cell on walmart (tuple ratios 90/4684):
    40k fact rows in 2000-row shards (10 training shards), JoinAll.
    Exact FISTA makes one pass over every training shard per iteration,
    and the shards never change, so about half of the fit waits on
    ``data`` re-joining and re-encoding the same ten shards
    (``data.unique_shard_ratio`` = 10/3300).  This is the workload on
    the mechanism side of shard residency, validate-once and an
    automatic engine choice (``BENCH_factorized.json`` puts the
    factorized engine ahead at tuple ratios of 100 and more).  The seed changes the data, and with it the
    iteration at which FISTA's default tolerance stops (from under 300
    to over 1200 passes across seeds), so the cell pins a fixed budget of
    300 iterations (``max_iter=300, tol=0``): every seed costs the same
    work, and the coefficient check still covers every pass.  Bypasses
    tuning and ``serving``.

``stream_nb``
    The same cell shape with categorical Naive Bayes on books (tuple
    ratios 4.6/2.6, one-hot width in the hundred thousands): 1M fact
    rows in 20k-row shards, one label scan, one counting pass and three
    scoring passes.  Every shard is encoded exactly once
    (``data.unique_shard_ratio`` = 1), and at these tuple ratios
    ``BENCH_factorized.json`` puts the factorized engine behind the
    implicit one.  It uses ``data``
    and ``ml.sparse`` the opposite way from ``stream_lr``: a residency
    cache or an automatic engine choice that helps ``stream_lr`` is
    predicted to show no gain here, and must show no loss in time or
    memory.

``serve_open``
    Open-loop serving of a tuned dt_gini JoinAll artifact on movies
    (10k fact rows, so that nearly every seed tunes a tree of the same
    depth and the served work does not hinge on the seed) through ``PredictionServer`` with its default batch size (64) and
    deadline (5 ms).  One generator thread submits requests on a fixed
    schedule and one collector thread resolves the handles in order;
    every request is timed from when it was *due*, so a stall charges
    the requests queued behind it, and the generator's own lateness is
    reported.  Phases: a back-to-back run for capacity, fixed offered
    rates of 1,000 rows/s (deadline-bound batches of a few rows) and
    20,000 rows/s (full batches), and a bisection for the highest rate
    whose p99 stays within 20 ms without the generator falling behind.
    The only workload that exercises ``serving`` (batcher, cached
    dimension gathers, tree predict); it trains only during set-up, so
    any change to training is predicted to leave it unchanged.

End-to-end metrics are the same five names on every workload, each
with the meaning a user of that workload sees (see :data:`E2E`);
workload-specific headline figures (``cells_per_s``, ``fit_s``,
``serve.low.p99_ms``, ``serve.max_rate_rps``, ...) ride in the detail
line printed before the result.  Failed or wrong operations are the
result's ``failed`` count over ``attempted``.  Per-layer metrics
(:data:`LAYERS`) come from a separate traced run and read 0 for a layer
the workload bypasses.
"""

from __future__ import annotations

import json
import queue
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import repro
from repro.core import join_all_strategy, no_join_strategy
from repro.data import SourceSpec
from repro.datasets import generate_real_world
from repro.errors import ReproError
from repro.experiments import (
    MODEL_REGISTRY,
    fit_pipeline,
    get_scale,
    make_streaming_model,
    split_accuracy,
)
from repro.obs import machine_info, registry, trace, tracer
from repro.serving import PredictionServer, artifact_from_pipeline
from repro.streaming import StreamingTrainer

from perfbench.harness import PeakRSS, TimingSource, median, percentile, timed
from perfbench.layers import benchmark_spans, layer_times

REFERENCE_PATH = Path(__file__).with_name("reference.json")
SETUP_SCRIPT = Path(__file__).with_name("setup_once.py")

#: End-to-end metrics: (unit, meaning per workload).
E2E = {
    "setup_s": ("s", "median cold start over several set-ups: a fresh "
                "interpreter importing the program and generating the inputs "
                "(and, for serve_open, training the served model)"),
    "ops_per_s": ("1/s", "operations completed per second: sweeps of the "
                  "40 cells (paper_cells) and cells (stream_*) back to back; "
                  "request rows answered per second under the high offered "
                  "rate (serve_open)"),
    "p50_ms": ("ms", "median operation latency: one sweep or cell, or one "
               "request at the high offered rate timed from when it was due"),
    "p90_ms": ("ms", "90th-percentile operation latency (the slowest sweep "
               "or cells on the training workloads); serve_open's p99 swung "
               "from 4.5 to 14 ms between runs of the same code on a shared "
               "2-vCPU host, so it rides in the detail line"),
    "peak_rss_mb": ("MB", "peak resident memory of the timed phase"),
}

#: Per-layer metrics of the traced run: name -> unit.
LAYERS = {
    "datasets.generate_s": "s",
    "core.materialise_s": "s",
    "ml.tune_s.tree": "s",
    "ml.tune_s.svm": "s",
    "ml.tune_s.ann": "s",
    "ml.tune_s.nb": "s",
    "ml.tune_s.lr": "s",
    "ml.tune_s.knn": "s",
    "ml.grid_fits": "count",
    "ml.score_s": "s",
    "data.build_sources_s": "s",
    "data.produce_s": "s",
    "data.shards_produced": "count",
    "data.rows_produced": "count",
    "data.unique_shard_ratio": "ratio",
    "data.produce_share": "ratio",
    "ml.fit_s": "s",
    "ml.fit_self_s": "s",
    "ml.passes": "count",
    "data.dim_cache.hit_rate": "ratio",
    "serving.queue_wait_ms.p50": "ms",
    "serving.queue_wait_ms.p99": "ms",
    "serving.assemble_ms.p50": "ms",
    "serving.assemble_ms.p99": "ms",
    "serving.predict_ms.p50": "ms",
    "serving.predict_ms.p99": "ms",
    "serving.mean_batch_rows": "rows",
    "serving.flushes.deadline": "count",
    "serving.flushes.size": "count",
    "serving.gen_late_ms.p99": "ms",
    "serving.shed": "count",
    "serving.failed_rows": "count",
    "trace.overhead": "ratio",
}

#: Model family of each registry key, as the ``ml.tune_s.*`` metrics name it.
FAMILY = {
    "dt_gini": "tree",
    "dt_entropy": "tree",
    "dt_gain_ratio": "tree",
    "svm_linear": "svm",
    "svm_quadratic": "svm",
    "svm_rbf": "svm",
    "ann": "ann",
    "nb_bfs": "nb",
    "lr_l1": "lr",
    "nn1": "knn",
}

#: Workload sizes.  ``full`` is what the benchmark measures; ``smoke``
#: keeps every workload's shape at sizes the self-tests run in seconds.
SIZES = {
    "full": {
        "paper_cells": {
            "datasets": ["movies", "yelp"], "n_fact": 1600,
            "scale": "default", "setups": 3,
        },
        "stream_lr": {
            "dataset": "walmart", "n_fact": 40000, "shard_rows": 2000,
            "max_iter": 300, "setups": 3,
        },
        "stream_nb": {
            "dataset": "books", "n_fact": 1_000_000, "shard_rows": 20000,
            "setups": 3,
        },
        "serve_open": {
            "dataset": "movies", "n_fact": 10000, "scale": "default",
            "low_rps": 1000, "high_rps": 20000, "p99_limit_ms": 20.0,
            "warm_s": 0.05, "capacity_s": 0.15, "low_s": 0.3, "high_s": 0.5,
            "max_rps": 400_000,
            "probes": 6, "setups": 3,
        },
    },
    "smoke": {
        "paper_cells": {
            "datasets": ["movies", "yelp"], "n_fact": 300,
            "scale": "smoke", "setups": 2,
        },
        "stream_lr": {
            "dataset": "walmart", "n_fact": 3000, "shard_rows": 400,
            "max_iter": 20, "setups": 2,
        },
        "stream_nb": {
            "dataset": "books", "n_fact": 6000, "shard_rows": 1000,
            "setups": 2,
        },
        "serve_open": {
            "dataset": "movies", "n_fact": 400, "scale": "smoke",
            "low_rps": 500, "high_rps": 2000, "p99_limit_ms": 20.0,
            "warm_s": 0.02, "capacity_s": 0.05, "low_s": 0.2, "high_s": 0.2,
            "max_rps": 400_000,
            "probes": 2, "setups": 2,
        },
    },
}

#: Coefficient tolerance of the streamed-vs-reference check (the
#: repository's equivalence contract where summation order changes).
COEF_TOLERANCE = 1e-10


def input_sizes(size: dict) -> dict:
    """The sizes a workload's outputs depend on (all but the set-up count)."""
    return {key: value for key, value in size.items() if key != "setups"}


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    """The recorded reference outputs (empty when none were recorded)."""
    if not path.exists():
        return {}
    return json.loads(path.read_text())


class Checks:
    """Operations attempted and failed, with the first few failures named."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, problems: list[str], operations: int = 1) -> None:
        """Count ``operations`` attempted, all failed if any problem."""
        self.count(operations, operations if problems else 0, problems)

    def count(self, attempted: int, failed: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.messages.extend(problems[: max(0, 5 - len(self.messages))])


class Workload:
    """One workload: set-up, correctness oracle, timed phase, traced run.

    Subclasses implement :meth:`setup` (generate the inputs; returns the
    seconds spent generating), :meth:`prepare` (untimed: the expected
    outputs), and :meth:`unit` (one unit of work -- a sweep, a cell, or
    the serving phases -- returning per-operation latencies in seconds).
    """

    name = ""

    def __init__(self, size: dict, seed: int, reference: dict):
        self.size = size
        self.seed = seed
        self.checks = Checks()
        recorded = reference.get(self.name, {})
        if recorded and recorded.get("size") != input_sizes(size):
            self.checks.record(
                [f"{self.name}: reference.json was recorded for other sizes "
                 f"({recorded.get('size')}); re-record it"]
            )
        self.reference = recorded.get("seeds", {}).get(str(seed))
        self.generate_s = 0.0

    # -- subclass hooks ------------------------------------------------
    def setup(self) -> float:
        raise NotImplementedError

    def prepare(self) -> None:
        """Compute the expected outputs (default: none beyond the reference)."""

    def unit(self, traced: bool) -> list[float]:
        raise NotImplementedError

    def headline(self, latencies: list[float], busy_s: float) -> dict:
        """Workload-specific headline figures for the detail line."""
        return {}

    def layer_metrics(self, spans: list[dict]) -> dict:
        raise NotImplementedError

    def outputs(self) -> dict:
        """The outputs the reference records for this seed."""
        raise NotImplementedError

    # -- driver --------------------------------------------------------
    def cold_setups(self, size: str) -> list[float]:
        """Seconds of each cold start (see :data:`E2E`), one process each."""
        command = [sys.executable, str(SETUP_SCRIPT), self.name, str(self.seed), size]
        return [
            timed(subprocess.run, command, check=True, stdout=subprocess.DEVNULL)[0]
            for _ in range(self.size["setups"])
        ]

    def measure(self, seconds: float) -> tuple[dict, dict]:
        """Untraced timed phase: end-to-end metrics and headline figures."""
        rss = PeakRSS()
        rss.reset()
        latencies: list[float] = []
        started = time.perf_counter()
        while True:
            unit_s, unit_latencies = timed(self.unit, False)
            latencies.extend(unit_latencies)
            elapsed = time.perf_counter() - started
            # Start another unit only if it is predicted to end in time.
            if elapsed + unit_s > seconds:
                break
        busy_s = time.perf_counter() - started
        metrics = {
            "ops_per_s": len(latencies) / busy_s,
            "p50_ms": 1000.0 * median(latencies),
            "p90_ms": 1000.0 * percentile(latencies, 90),
            "peak_rss_mb": rss.peak_mb(),
        }
        return metrics, self.headline(latencies, busy_s)

    def measure_traced(self) -> tuple[dict, dict]:
        """One untraced and one traced unit: per-layer metrics and spans."""
        untraced_s, _ = timed(self.unit, False)
        registry().reset()
        with tracer().collect():
            traced_s, _ = timed(self.unit, True)
            report = tracer().report()
        spans = report["spans"]
        layers = dict.fromkeys(LAYERS, 0.0)
        layers["datasets.generate_s"] = self.generate_s
        layers.update(self.layer_metrics(spans))
        layers["trace.overhead"] = traced_s / untraced_s - 1.0
        detail = {
            "spans": benchmark_spans(spans),
            "bases": self.bases(),
            "overhead": {"untraced_s": untraced_s, "traced_s": traced_s},
        }
        return layers, detail

    def bases(self) -> dict:
        """Numerator and denominator of each ratio the traced run reports."""
        return {}


def grid_fits(tuner) -> int:
    """Model fits one tuner made, read from its public attributes."""
    if hasattr(tuner, "results_"):  # GridSearch: one fit per grid point
        return len(tuner.results_)
    if hasattr(tuner, "trace_"):  # BackwardSelection
        sizes = [len(names) for names, _ in tuner.trace_]
        final = len(tuner.selected_indices_)
        # The first fit, each accepted round's candidates, the last
        # (rejected) round's candidates when it ran, and the refit.
        rejected = final if final > tuner.min_features else 0
        return 1 + sum(sizes[:-1]) + rejected + 1
    if hasattr(tuner, "path"):  # PathTuner: the whole lambda path
        return int(tuner.path.nlambda)
    return 1


class PaperCells(Workload):
    """Tuned in-memory cells: the paper's Tables 2-6 experiment."""

    name = "paper_cells"

    def __init__(self, size: dict, seed: int, reference: dict):
        super().__init__(size, seed, reference)
        self.scale = get_scale(size["scale"])
        self.expected = dict(self.reference or {})
        self.results: dict[str, float] = {}
        self.cell_latencies: list[float] = []
        self.fits = 0

    def setup(self) -> float:
        started = time.perf_counter()
        with trace("datasets.generate"):
            self.datasets = {
                name: generate_real_world(name, n_fact=self.size["n_fact"], seed=self.seed)
                for name in self.size["datasets"]
            }
        return time.perf_counter() - started

    def cells(self):
        for name in self.size["datasets"]:
            for strategy in (join_all_strategy(), no_join_strategy()):
                for model_key in MODEL_REGISTRY:
                    yield name, model_key, strategy

    def unit(self, traced: bool) -> list[float]:
        """One sweep over every cell; the sweep is the operation, since
        its time sums 40 cells of very different cost."""
        sweep_started = time.perf_counter()
        self.fits = 0
        for name, model_key, strategy in self.cells():
            dataset = self.datasets[name]
            key = f"{name}/{model_key}/{strategy.name}"
            started = time.perf_counter()
            # run_experiment's tuned path, called piece by piece so each
            # layer can be timed from outside.
            with trace("experiments.cell", cell=key):
                with trace("core.materialise"):
                    matrices = strategy.matrices(dataset)
                with trace("ml.tune", family=FAMILY[model_key]):
                    pipeline = fit_pipeline(
                        dataset, model_key, strategy, scale=self.scale,
                        matrices=matrices,
                    )
                with trace("ml.score"):
                    result = pipeline.result()
            self.cell_latencies.append(time.perf_counter() - started)
            self.fits += grid_fits(pipeline.tuner)
            self.results[key] = result.test_accuracy
            # Cells of a seed without a recorded reference must at least
            # repeat exactly from one sweep to the next.
            expected = self.expected.setdefault(key, result.test_accuracy)
            problems = []
            if result.test_accuracy != expected:
                problems.append(
                    f"{key}: test accuracy {result.test_accuracy!r} != "
                    f"reference {expected!r}"
                )
            self.checks.record(problems)
        return [time.perf_counter() - sweep_started]

    def outputs(self) -> dict:
        return dict(self.results)

    def headline(self, latencies, busy_s) -> dict:
        cells = self.cell_latencies
        return {
            "cells_per_s": len(cells) / busy_s,
            "cells": len(cells),
            "cell.p50_ms": 1000.0 * median(cells),
            "cell.p99_ms": 1000.0 * percentile(cells, 99),
        }

    def layer_metrics(self, spans) -> dict:
        times = layer_times(spans)
        metrics = {
            "core.materialise_s": times.get("core.materialise", {}).get("self_s", 0.0),
            "ml.score_s": times.get("ml.score", {}).get("self_s", 0.0),
            "ml.grid_fits": float(self.fits),
        }
        for family in set(FAMILY.values()):
            row = times.get(f"ml.tune.{family}", {})
            metrics[f"ml.tune_s.{family}"] = row.get("self_s", 0.0)
        return metrics


class StreamCell(Workload):
    """One streamed ``repro fit`` cell: build sources, fit, score 3 splits."""

    model_key = ""
    splits = ("test", "train", "validation")

    def __init__(self, size: dict, seed: int, reference: dict):
        super().__init__(size, seed, reference)
        self.scale = get_scale("default")
        self.spec = SourceSpec(shard_rows=size["shard_rows"])
        self.strategy = join_all_strategy()
        self.last: dict = {}

    def setup(self) -> float:
        started = time.perf_counter()
        with trace("datasets.generate"):
            self.dataset = generate_real_world(
                self.size["dataset"], n_fact=self.size["n_fact"], seed=self.seed
            )
        return time.perf_counter() - started

    def fit_cell(self, spec: SourceSpec, traced: bool) -> dict:
        """The runner's source path, called piece by piece so each layer
        can be timed from outside; returns the cell's checked outputs."""
        model = make_streaming_model(self.model_key, self.scale)
        if "max_iter" in self.size:
            # A fixed pass budget: with no tolerance FISTA runs every
            # iteration, so each seed's data costs the same work.
            model.set_params(max_iter=self.size["max_iter"], tol=0.0)
        with trace("experiments.cell", model=self.model_key):
            with trace("data.build_sources"):
                sources = spec.split_sources(
                    self.dataset, self.strategy, registry=registry()
                )
            try:
                train = TimingSource(sources["train"]) if traced else sources["train"]
                with trace("ml.fit"):
                    StreamingTrainer(model).fit(train)
                accuracy = {}
                for split in self.splits:
                    with trace("ml.score"):
                        accuracy[split] = split_accuracy(model, sources[split])
            finally:
                for source in sources.values():
                    source.close()
        if traced:
            self.produced = train
        outputs = {"accuracy": accuracy}
        if hasattr(model, "coef_"):
            outputs.update(
                n_iter=int(model.n_iter_),
                coef=[float(value) for value in model.coef_],
                intercept=float(model.intercept_),
            )
        return outputs

    def prepare(self) -> None:
        # The in-memory fit of the same model is the seed-independent
        # oracle (streamed == in-memory is the repository's equivalence
        # contract); the recorded reference pins the outputs across
        # commits for the seeds it covers.
        self.oracle = self.fit_cell(SourceSpec(), traced=False)

    def unit(self, traced: bool) -> list[float]:
        seconds, outputs = timed(self.fit_cell, self.spec, traced)
        problems = compare("in-memory fit", self.oracle, outputs)
        if self.reference is not None:
            problems += compare("reference", self.reference, outputs)
        self.checks.record(problems)
        self.last = outputs
        return [seconds]

    def outputs(self) -> dict:
        return self.last

    def headline(self, latencies, busy_s) -> dict:
        return {"fit_s": median(latencies), "cells": len(latencies)}

    def layer_metrics(self, spans) -> dict:
        times = layer_times(spans)
        produced = self.produced
        fit_s = times.get("ml.fit", {}).get("total_s", 0.0)
        produce_s = times.get("data.produce", {}).get("total_s", 0.0)
        hits, lookups = self.dim_cache()
        return {
            "ml.score_s": times.get("ml.score", {}).get("self_s", 0.0),
            "data.build_sources_s": times.get("data.build_sources", {}).get("self_s", 0.0),
            "data.produce_s": produce_s,
            "data.shards_produced": float(produced.shards_produced),
            "data.rows_produced": float(produced.rows_produced),
            "data.unique_shard_ratio": len(produced.distinct) / max(produced.shards_produced, 1),
            "data.produce_share": produce_s / fit_s if fit_s else 0.0,
            "ml.fit_s": fit_s,
            "ml.fit_self_s": times.get("ml.fit", {}).get("self_s", 0.0),
            "ml.passes": produced.shards_produced / max(produced.n_shards, 1),
            "data.dim_cache.hit_rate": hits / lookups if lookups else 0.0,
        }

    @staticmethod
    def dim_cache() -> tuple[int, int]:
        """Dimension-index cache hits and lookups in the process registry."""
        counters = registry()
        hits = counters.counter("data.dim_cache.hits").value
        return hits, hits + counters.counter("data.dim_cache.misses").value

    def bases(self) -> dict:
        produced = self.produced
        return {
            "data.unique_shard_ratio": [len(produced.distinct), produced.shards_produced],
            "data.produce_share": ["data.produce_s", "ml.fit_s"],
            "ml.passes": [produced.shards_produced, produced.n_shards],
            "data.dim_cache.hit_rate": list(self.dim_cache()),
        }


class StreamLR(StreamCell):
    name = "stream_lr"
    model_key = "lr_l1"


class StreamNB(StreamCell):
    name = "stream_nb"
    model_key = "nb"


def compare(label: str, expected: dict, got: dict) -> list[str]:
    """Differences between a cell's outputs and an expected record."""
    problems = []
    for split, value in expected["accuracy"].items():
        if got["accuracy"].get(split) != value:
            problems.append(
                f"{label}: {split} accuracy {got['accuracy'].get(split)!r} != {value!r}"
            )
    if "n_iter" in expected and got.get("n_iter") != expected["n_iter"]:
        problems.append(f"{label}: n_iter_ {got.get('n_iter')} != {expected['n_iter']}")
    if "coef" in expected:
        want = np.asarray(expected["coef"] + [expected["intercept"]])
        have = np.asarray(got.get("coef", []) + [got.get("intercept", np.nan)])
        if want.shape != have.shape:
            problems.append(f"{label}: {have.size} coefficients, expected {want.size}")
        else:
            gap = float(np.max(np.abs(want - have)))
            if not gap <= COEF_TOLERANCE:
                problems.append(f"{label}: coefficients differ by {gap:.3g}")
    return problems


class ServeOpen(Workload):
    """Open-loop serving of a tuned tree artifact through PredictionServer."""

    name = "serve_open"

    def __init__(self, size: dict, seed: int, reference: dict):
        super().__init__(size, seed, reference)
        self.scale = get_scale(size["scale"])
        self.cycles: list[dict] = []

    def setup(self) -> float:
        started = time.perf_counter()
        with trace("datasets.generate"):
            dataset = generate_real_world(
                self.size["dataset"], n_fact=self.size["n_fact"], seed=self.seed
            )
        generated = time.perf_counter() - started
        pipeline = fit_pipeline(dataset, "dt_gini", join_all_strategy(), scale=self.scale)
        self.schema = dataset.schema
        self.artifact = artifact_from_pipeline(pipeline, dataset.schema)
        with self.server() as server:
            columns = server.features.required_columns
        fact = dataset.schema.fact
        decoded = {c: fact.column(c).labels() for c in columns}
        self.requests = [
            {c: decoded[c][int(i)] for c in columns} for i in dataset.test
        ]
        return generated

    def prepare(self) -> None:
        server = PredictionServer(self.artifact, self.schema, background_flush=False)
        try:
            self.expected = server.predict_batch(self.requests)
        finally:
            server.close()

    def server(self) -> PredictionServer:
        return PredictionServer(self.artifact, self.schema)

    def offer(self, server: PredictionServer, rate: float | None, duration: float) -> dict:
        """Offer requests at ``rate`` rows/s (``None``: back to back) for
        ``duration`` seconds; returns per-request timings and failures.

        Timings go to preallocated arrays rather than Python objects, so
        the measurement adds nothing for the garbage collector to scan.
        """
        n_max = int(rate * duration) if rate else int(self.size["max_rps"] * duration)
        due = np.zeros(n_max)
        sent = np.zeros(n_max)
        done = np.full(n_max, np.nan)
        right = np.zeros(n_max, dtype=bool)
        handles: queue.SimpleQueue = queue.SimpleQueue()
        errors: list[str] = []
        expected = self.expected

        def collect() -> None:
            while True:
                item = handles.get()
                if item is None:
                    return
                index, handle = item
                try:
                    value = handle.result(timeout=60.0)
                # Any failure is one failed request; the collector keeps
                # going so the rest are still counted.
                except Exception as error:
                    errors.append(f"request {index}: {type(error).__name__}: {error}")
                    continue
                done[index] = time.perf_counter()
                right[index] = value == expected[index % len(expected)]
                if not right[index]:
                    errors.append(f"request {index}: prediction {value!r} differs from predict_batch")

        collector = threading.Thread(target=collect, name="perfbench-collector")
        collector.start()
        shed = 0
        submitted = 0
        requests = self.requests
        start = time.perf_counter()
        try:
            while submitted < n_max:
                now = time.perf_counter()
                if rate is None:
                    if now - start >= duration:
                        break
                    due[submitted] = now
                else:
                    due[submitted] = start + submitted / rate
                    if now < due[submitted]:
                        time.sleep(due[submitted] - now)
                try:
                    handle = server.submit(requests[submitted % len(requests)])
                except ReproError:
                    shed += 1
                    submitted += 1
                    continue
                sent[submitted] = time.perf_counter()
                handles.put((submitted, handle))
                submitted += 1
        finally:
            handles.put(None)
            collector.join()
        ok = ~np.isnan(done[:submitted])
        wall = float(np.nanmax(done[:submitted]) - start) if ok.any() else float("nan")
        return {
            "submitted": submitted,
            "failed": submitted - int(right[:submitted].sum()),
            "shed": shed,
            "errors": errors,
            "latency_ms": 1000.0 * (done[:submitted] - due[:submitted])[ok],
            "late_ms": 1000.0 * (sent[:submitted] - due[:submitted])[ok],
            "rate": int(ok.sum()) / wall if wall > 0 else 0.0,
        }

    def account(self, run: dict) -> None:
        problems = list(run["errors"])
        if run["shed"]:
            problems.append(f"{run['shed']} requests shed")
        self.checks.count(run["submitted"], run["failed"], problems)

    def meets(self, run: dict) -> bool:
        """p99 within the limit, nothing failed, and the generator kept up
        (its lateness over the last quarter of the run stays within the
        limit, so no backlog was growing)."""
        limit = self.size["p99_limit_ms"]
        late = run["late_ms"]
        tail = late[len(late) * 3 // 4:]
        return (
            run["failed"] == 0 and len(run["latency_ms"]) > 0
            and percentile(run["latency_ms"], 99) <= limit
            and (len(tail) == 0 or float(tail.max()) <= limit)
        )

    def unit(self, traced: bool) -> list[float]:
        """One serving cycle: a back-to-back run for capacity on a warmed
        server, then both fixed offered rates on a fresh one."""
        size = self.size
        with trace("serving.capacity"):
            with self.server() as server:
                self.account(self.offer(server, None, size["warm_s"]))
                capacity = self.offer(server, None, size["capacity_s"])
                self.account(capacity)
        with trace("serving.fixed_rate"):
            with self.server() as server:
                low = self.offer(server, size["low_rps"], size["low_s"])
                self.account(low)
                high = self.offer(server, size["high_rps"], size["high_s"])
                self.account(high)
                self.stats = server.stats()
                self.flush_reasons = server.batcher.stats.flush_reasons
        self.cycles.append({"capacity": capacity["rate"], "low": low, "high": high})
        return list(high["latency_ms"] / 1000.0)

    def bisect(self, seconds: float, capacity: float) -> float:
        """Highest offered rate that :meth:`meets` the latency limit."""
        lo, hi = float(self.size["low_rps"]), 1.1 * capacity
        probes = self.size["probes"]
        with trace("serving.bisect"):
            for _ in range(probes):
                rate = 0.5 * (lo + hi)
                with self.server() as server:
                    probe = self.offer(server, rate, seconds / probes)
                self.account(probe)
                if self.meets(probe):
                    lo = rate
                else:
                    hi = rate
        return lo

    def measure(self, seconds: float) -> tuple[dict, dict]:
        # Repeated short cycles, reported as medians across cycles, so a
        # stall in one cycle moves the figures of that cycle only.  The
        # throughput reported is what the high offered rate got answered:
        # back-to-back capacity and the bisected maximum rate are pure
        # interpreter throughput, which on a shared 2-vCPU host swung
        # from 52k to 93k rows/s between runs of the same code, so they
        # ride in the detail line without a bound.
        rss = PeakRSS()
        rss.reset()
        self.cycles = []
        started = time.perf_counter()
        while True:
            cycle_s, _ = timed(self.unit, False)
            if time.perf_counter() - started + cycle_s > 0.8 * seconds:
                break
        capacity = median([c["capacity"] for c in self.cycles])
        self.max_rate = self.bisect(0.2 * seconds, capacity)
        metrics = {
            "ops_per_s": median([c["high"]["rate"] for c in self.cycles]),
            "p50_ms": median([percentile(c["high"]["latency_ms"], 50) for c in self.cycles]),
            "p90_ms": median([percentile(c["high"]["latency_ms"], 90) for c in self.cycles]),
            "peak_rss_mb": rss.peak_mb(),
        }
        return metrics, self.headline([], 0.0)

    def measure_traced(self) -> tuple[dict, dict]:
        self.cycles = []
        layers, detail = super().measure_traced()
        untraced, traced = (c["capacity"] for c in self.cycles)
        # Capacity, not cycle time: the fixed-rate phases take the same
        # time whatever the tracing costs.
        layers["trace.overhead"] = untraced / traced - 1.0
        detail["overhead"] = {"untraced_rps": untraced, "traced_rps": traced}
        return layers, detail

    def headline(self, latencies, busy_s) -> dict:
        cycles = self.cycles

        def per_cycle(rate: str, q: float) -> float:
            return median([percentile(c[rate]["latency_ms"], q) for c in cycles])

        # Low-rate cycles hold too few requests for a p99 each; pool them.
        low = np.concatenate([c["low"]["latency_ms"] for c in cycles])
        return {
            "serve.low.p50_ms": percentile(low, 50),
            "serve.low.p99_ms": percentile(low, 99),
            "serve.high.p50_ms": per_cycle("high", 50),
            "serve.high.p99_ms": per_cycle("high", 99),
            "serve.capacity_rps": median([c["capacity"] for c in cycles]),
            "serve.max_rate_rps": self.max_rate,
            "cycles": len(cycles),
        }

    def layer_metrics(self, spans) -> dict:
        stats = self.stats
        latency = stats.latency_ms
        cycle = self.cycles[-1]
        late = np.concatenate([cycle["low"]["late_ms"], cycle["high"]["late_ms"]])
        reasons = self.flush_reasons
        return {
            "data.dim_cache.hit_rate": stats.cache_hit_rate,
            "serving.queue_wait_ms.p50": latency["queue_wait"]["p50"],
            "serving.queue_wait_ms.p99": latency["queue_wait"]["p99"],
            "serving.assemble_ms.p50": latency["assemble"]["p50"],
            "serving.assemble_ms.p99": latency["assemble"]["p99"],
            "serving.predict_ms.p50": latency["predict"]["p50"],
            "serving.predict_ms.p99": latency["predict"]["p99"],
            "serving.mean_batch_rows": stats.mean_batch_rows,
            "serving.flushes.deadline": float(reasons.get("deadline", 0)),
            "serving.flushes.size": float(reasons.get("size", 0)),
            "serving.gen_late_ms.p99": percentile(late, 99) if len(late) else 0.0,
            "serving.shed": float(stats.shed_requests),
            "serving.failed_rows": float(stats.rows_failed),
        }

    def bases(self) -> dict:
        stats = self.stats
        return {
            "data.dim_cache.hit_rate": [stats.cache_hits, stats.cache_hits + stats.cache_misses],
            "serving.mean_batch_rows": [stats.rows, stats.batches_flushed],
        }


WORKLOADS = {
    cls.name: cls for cls in (PaperCells, StreamLR, StreamNB, ServeOpen)
}


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace_run: bool,
    size: str = "full",
    reference: dict | None = None,
) -> tuple[dict, dict]:
    """Run one workload; returns ``(detail, result)``.

    ``result`` is the benchmark's result object (``correct``,
    ``attempted``, ``failed``, ``metrics``); ``detail`` carries the
    provenance stamp, the workload's headline figures, the failures and,
    for a traced run, the benchmark span forest and ratio bases.
    """
    sizes = SIZES[size][workload]
    if reference is None:
        reference = load_reference() if size == "full" else {}
    bench = WORKLOADS[workload](sizes, seed, reference)
    setup_times = bench.cold_setups(size)
    bench.generate_s = bench.setup()
    bench.prepare()
    if trace_run:
        layers, extra = bench.measure_traced()
        metrics = {name: {"value": float(layers[name]), "unit": unit} for name, unit in LAYERS.items()}
        headline = {}
    else:
        values, headline = bench.measure(seconds)
        values["setup_s"] = median(setup_times)
        metrics = {name: {"value": float(values[name]), "unit": unit} for name, (unit, _) in E2E.items()}
        extra = {}
    checks = bench.checks
    headline["fail_rate"] = checks.failed / max(checks.attempted, 1)
    detail = {
        "workload": workload,
        "provenance": {
            "machine": machine_info(),
            "repro_version": repro.__version__,
            "seed": seed,
            "seconds": seconds,
            "trace": bool(trace_run),
            "size": size,
            "sizes": sizes,
            "reference_seed_recorded": bench.reference is not None,
        },
        "setup_s": setup_times,
        "headline": headline,
        "failures": checks.messages,
        **extra,
    }
    result = {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    return detail, result

"""Exact FISTA reads a resident source once per fit, any other every pass.

``FeatureSource.resident`` says whether re-reading a shard only
re-derives it from rows the process already holds.  For such a source
:meth:`L1LogisticRegression.fit_stream` keeps each shard's encoded
operand from its first read and iterates that store on every Lipschitz
and FISTA pass; an out-of-core source is re-read and re-encoded every
pass, which keeps peak memory at one shard.  The store must not change
a single bit of the result.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core import join_all_strategy, no_join_strategy
from repro.data import (
    FeatureSource,
    MatrixSource,
    SourceDecorator,
    SpillCacheSource,
)
from repro.datasets import OneXrScenario, generate_real_world
from repro.ml.linear import L1LogisticRegression
from repro.ml.sparse import FactorizedMatrix
from repro.obs import registry
from repro.resilience import RetryingSource, RetryPolicy
from repro.streaming import ShardedDataset, StreamingMatrices, StreamingTrainer
from repro.streaming.shards import plan_shards

#: Power-iteration passes of the step-size bound, made before FISTA's.
LIPSCHITZ_PASSES = 30


class _Counting(SourceDecorator):
    """Count shard reads; ``resident`` overrides the wrapped source's."""

    def __init__(self, source, resident=None):
        super().__init__(source)
        self.reads = Counter()
        self._resident = resident

    @property
    def resident(self):
        if self._resident is None:
            return self.source.resident
        return self._resident

    def shard(self, index):
        self.reads[index] += 1
        return self.source.shard(index)


@pytest.fixture(scope="module")
def movies():
    """Movies in 400-row shards keep both dimensions grouped."""
    return generate_real_world("movies", n_fact=4000, seed=0)


@pytest.fixture(scope="module")
def yelp_matrices():
    return no_join_strategy().matrices(generate_real_world("yelp", n_fact=300, seed=0))


def _split_stream(dataset):
    return join_all_strategy().streaming_matrices(dataset, shard_rows=400)


def _matrix_source(matrices):
    return MatrixSource(matrices.X_train, matrices.y_train, shard_rows=37)


def _population_stream(n_rows=120, shard_rows=25):
    population = OneXrScenario(n_r=6).population()
    sharded = ShardedDataset.from_population(
        population, n_rows=n_rows, shard_rows=shard_rows, seed=7
    )
    return StreamingMatrices(sharded, join_all_strategy())


@pytest.fixture()
def csv_stream(tmp_path):
    rng = np.random.default_rng(5)
    dim = tmp_path / "stores.csv"
    dim.write_text(
        "store,city\n" + "".join(f"s{i},c{i % 4}\n" for i in range(6))
    )
    fact = tmp_path / "visits.csv"
    fact.write_text(
        "bought,hour,store\n"
        + "".join(
            f"b{rng.integers(0, 2)},h{rng.integers(0, 5)},s{rng.integers(0, 6)}\n"
            for _ in range(70)
        )
    )
    sharded = ShardedDataset.from_csv(
        fact, target="bought", dimensions=[(dim, "store", "store")],
        shard_rows=15,
    )
    return StreamingMatrices(sharded, join_all_strategy())


def _fit(source, **params):
    model = L1LogisticRegression(**{"max_iter": 40, "tol": 1e-4, **params})
    return model.fit_stream(source)


class TestResidentFitReadsOnce:
    @pytest.mark.parametrize("kind", ["split", "matrix"])
    def test_each_shard_read_once_and_fit_bit_identical(
        self, kind, movies, yelp_matrices
    ):
        build = {
            "split": lambda: _split_stream(movies),
            "matrix": lambda: _matrix_source(yelp_matrices),
        }[kind]
        counted = _Counting(build())
        assert counted.resident and counted.n_shards > 1
        resident = _fit(counted)
        assert counted.reads == {i: 1 for i in range(counted.n_shards)}

        rereading = _Counting(build(), resident=False)
        reference = _fit(rereading)
        passes = LIPSCHITZ_PASSES + reference.n_iter_
        assert set(rereading.reads.values()) == {passes}

        assert np.array_equal(resident.coef_, reference.coef_)
        assert resident.intercept_ == reference.intercept_
        assert resident.n_iter_ == reference.n_iter_

    def test_split_stream_shards_are_grouped(self, movies):
        """So the read-once case above covers the grouped operand layout
        (the matrix source covers the gathered one)."""
        X, _ = _split_stream(movies).shard(0)
        assert isinstance(X, FactorizedMatrix) and X.groups

    def test_trainer_exact_mode_reads_once(self, movies):
        counted = _Counting(_split_stream(movies))
        StreamingTrainer(L1LogisticRegression(max_iter=5, tol=0.0)).fit(counted)
        assert set(counted.reads.values()) == {1}

    def test_dense_engine_reads_once(self, yelp_matrices):
        counted = _Counting(_matrix_source(yelp_matrices))
        model = _fit(counted, engine="dense", max_iter=5)
        assert set(counted.reads.values()) == {1}
        reference = _fit(
            _Counting(_matrix_source(yelp_matrices), resident=False),
            engine="dense", max_iter=5,
        )
        assert np.array_equal(model.coef_, reference.coef_)


class TestOutOfCoreFitReadsEveryPass:
    def test_population_stream(self):
        counted = _Counting(_population_stream())
        assert not counted.resident
        model = _fit(counted, max_iter=4, tol=0.0)
        assert counted.reads == {
            i: LIPSCHITZ_PASSES + model.n_iter_ for i in range(counted.n_shards)
        }

    def test_csv_stream(self, csv_stream):
        counted = _Counting(csv_stream)
        assert not counted.resident and counted.n_shards == 5
        model = _fit(counted, max_iter=4, tol=0.0)
        assert counted.reads == {
            i: LIPSCHITZ_PASSES + model.n_iter_ for i in range(counted.n_shards)
        }


class TestResidentPropagation:
    def test_protocol_default_is_not_resident(self):
        assert FeatureSource().resident is False

    def test_matrix_source(self, yelp_matrices):
        X, y = yelp_matrices.X_train, yelp_matrices.y_train
        assert MatrixSource(X, y).resident is True
        assert MatrixSource(X, y, shard_rows=50).resident is True

    @pytest.mark.parametrize(
        "wrap",
        [SourceDecorator, lambda source: RetryingSource(source, RetryPolicy())],
        ids=["SourceDecorator", "RetryingSource"],
    )
    def test_decorators_delegate(self, wrap, yelp_matrices):
        assert wrap(_matrix_source(yelp_matrices)).resident is True
        assert wrap(_population_stream()).resident is False

    def test_spill_cache_is_resident_only_when_passing_one_shard_through(
        self, yelp_matrices
    ):
        X, y = yelp_matrices.X_train, yelp_matrices.y_train
        with SpillCacheSource(MatrixSource(X, y, shard_rows=50)) as cached:
            assert cached.resident is False
        with SpillCacheSource(MatrixSource(X, y)) as cached:
            assert cached.resident is True
        one_shard_elsewhere = _Counting(MatrixSource(X, y), resident=False)
        with SpillCacheSource(one_shard_elsewhere) as cached:
            assert cached.resident is False

    def test_sharded_datasets(self, movies, csv_stream):
        assert ShardedDataset.from_split(movies, shard_rows=400).resident
        assert ShardedDataset.from_table(movies.schema, shard_rows=400).resident
        assert not _population_stream().sharded.resident
        assert not csv_stream.sharded.resident
        schema = movies.schema
        custom = ShardedDataset(
            schema, plan_shards(10, shard_rows=5),
            lambda i: schema.fact.select(np.arange(5 * i, 5 * i + 5)),
        )
        assert not custom.resident

    def test_streaming_matrices(self, movies, csv_stream):
        assert _split_stream(movies).resident
        assert not _population_stream().resident
        assert not csv_stream.resident
        # One shard is cached by the stream itself, whatever its loader.
        assert _population_stream(n_rows=40, shard_rows=40).resident


class TestTelemetry:
    def test_resident_fit_reports_one_read_per_shard(self, yelp_matrices):
        reads = registry().counter("ml.fista.shard_reads")
        held = registry().gauge("ml.fista.resident_bytes")
        before = reads.value
        source = _matrix_source(yelp_matrices)
        _fit(source, max_iter=3)
        assert reads.value - before == source.n_shards
        # The store is dropped when the fit returns.
        assert held.value == 0
        assert held.high_water > 0

    def test_out_of_core_fit_reports_every_read(self):
        reads = registry().counter("ml.fista.shard_reads")
        before = reads.value
        source = _population_stream()
        model = _fit(source, max_iter=3, tol=0.0)
        expected = source.n_shards * (LIPSCHITZ_PASSES + model.n_iter_)
        assert reads.value - before == expected
        assert registry().gauge("ml.fista.resident_bytes").value == 0

    def test_gauge_drops_the_store_when_a_fit_raises(self, yelp_matrices, monkeypatch):
        from repro.ml.linear import logistic

        held = registry().gauge("ml.fista.resident_bytes")
        during = []

        def fail(*args):
            during.append(held.value)
            raise MemoryError("kernel failed")

        # Fail inside the FISTA loop, after the store is counted.
        monkeypatch.setattr(logistic, "_soft_threshold", fail)
        with pytest.raises(MemoryError):
            _fit(_matrix_source(yelp_matrices), max_iter=3)
        assert during and during[0] > 0
        assert held.value == 0

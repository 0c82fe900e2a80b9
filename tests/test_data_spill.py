"""SpillCacheSource: disk round-trips, LRU accounting, lifecycle."""

import numpy as np
import pytest

from repro.core import no_join_strategy
from repro.data import MatrixSource, SpillCacheSource
from repro.datasets import generate_real_world


@pytest.fixture(scope="module")
def train_matrix():
    dataset = generate_real_world("yelp", n_fact=200, seed=0)
    matrices = no_join_strategy().matrices(dataset)
    return matrices.X_train, matrices.y_train


class _CountingSource(MatrixSource):
    """Counts how often each shard is produced by the inner source."""

    def __init__(self, X, y, shard_rows):
        super().__init__(X, y, shard_rows=shard_rows)
        self.produced: dict[int, int] = {}

    def shard(self, index):
        self.produced[index] = self.produced.get(index, 0) + 1
        return super().shard(index)


class TestCaching:
    def test_second_pass_reads_from_disk(self, train_matrix):
        inner = _CountingSource(*train_matrix, shard_rows=11)
        with SpillCacheSource(inner) as cached:
            first = [(X.codes.copy(), y.copy()) for _, X, y in cached.iter_shards()]
            second = [(X.codes.copy(), y.copy()) for _, X, y in cached.iter_shards()]
        # Every shard produced exactly once; pass 2 was all cache hits.
        assert all(count == 1 for count in inner.produced.values())
        assert cached.stats.misses == inner.n_shards
        assert cached.stats.hits == inner.n_shards
        for (codes_a, y_a), (codes_b, y_b) in zip(first, second):
            np.testing.assert_array_equal(codes_a, codes_b)
            np.testing.assert_array_equal(y_a, y_b)

    def test_cached_dtype_and_values_roundtrip(self, train_matrix):
        with SpillCacheSource(MatrixSource(*train_matrix, shard_rows=13)) as c:
            X_first, y_first = c.shard(2)
            X_again, y_again = c.shard(2)
        assert X_again.codes.dtype == X_first.codes.dtype == np.int64
        np.testing.assert_array_equal(X_first.codes, X_again.codes)
        np.testing.assert_array_equal(y_first, y_again)
        assert X_again.names == X_first.names
        assert X_again.n_levels == X_first.n_levels

    def test_single_shard_source_passes_straight_through(self, train_matrix):
        """Regression: spilling a single-shard source must not replace
        its resident (identity-stable) shard with per-pass disk loads —
        that would make every FISTA pass re-load and re-encode it."""
        inner = MatrixSource(*train_matrix)
        with SpillCacheSource(inner) as cached:
            (X1, _), (X2, _) = cached.shard(0), cached.shard(0)
            assert X1 is X2 is train_matrix[0]
            assert len(cached) == 0  # nothing spilled
            assert not list(cached.directory.glob("shard-*.npz"))

    def test_random_access_caches_too(self, train_matrix):
        inner = _CountingSource(*train_matrix, shard_rows=11)
        with SpillCacheSource(inner) as cached:
            cached.shard(3)
            cached.shard(3)
            cached.shard(3)
        assert inner.produced == {3: 1}


class TestLRUBudget:
    def test_eviction_keeps_bytes_under_budget(self, train_matrix):
        inner = MatrixSource(*train_matrix, shard_rows=11)
        with SpillCacheSource(inner) as probe:
            probe.shard(0)
            one_shard_bytes = probe.stats.spilled_bytes
        budget = int(one_shard_bytes * 2.5)  # room for two shards
        with SpillCacheSource(inner, max_bytes=budget) as cached:
            list(cached.iter_shards())
            assert len(cached) <= 2
            assert cached.stats.evictions >= inner.n_shards - 2
            assert cached.stats.spilled_bytes <= budget
            # Evicted shards re-produce and re-cache transparently.
            X, y = cached.shard(0)
            assert y.size > 0

    def test_budget_smaller_than_one_shard_disables_caching(self, train_matrix):
        inner = _CountingSource(*train_matrix, shard_rows=11)
        with SpillCacheSource(inner, max_bytes=1) as cached:
            cached.shard(0)
            cached.shard(0)
            assert len(cached) == 0
        assert inner.produced[0] == 2

    def test_max_bytes_validation(self, train_matrix):
        with pytest.raises(ValueError, match="max_bytes"):
            SpillCacheSource(MatrixSource(*train_matrix), max_bytes=0)


class TestLifecycle:
    def test_owned_tempdir_removed_on_close(self, train_matrix):
        cached = SpillCacheSource(MatrixSource(*train_matrix, shard_rows=11))
        directory = cached.directory
        cached.shard(0)
        assert any(directory.iterdir())
        cached.close()
        assert not directory.exists()
        with pytest.raises(ValueError, match="closed"):
            cached.shard(0)

    def test_explicit_directory_left_in_place(self, train_matrix, tmp_path):
        spill_dir = tmp_path / "cache"
        cached = SpillCacheSource(
            MatrixSource(*train_matrix, shard_rows=11), directory=spill_dir
        )
        cached.shard(0)
        cached.close()
        assert spill_dir.exists()  # directory kept, shard files removed
        assert not list(spill_dir.glob("shard-*.npz"))

    def test_close_is_idempotent(self, train_matrix):
        cached = SpillCacheSource(MatrixSource(*train_matrix, shard_rows=11))
        cached.close()
        cached.close()


class TestTrainingThroughSpill:
    def test_multi_pass_lr_hits_cache_and_matches(self, train_matrix):
        """Exact FISTA makes one pass per iteration; all but the first
        must be disk hits, and the fit must be bit-identical."""
        from repro.ml.linear import L1LogisticRegression

        X, y = train_matrix
        reference = L1LogisticRegression(max_iter=30, tol=0.0)
        reference.fit_stream(MatrixSource(X, y, shard_rows=13))
        inner = _CountingSource(X, y, shard_rows=13)
        model = L1LogisticRegression(max_iter=30, tol=0.0)
        with SpillCacheSource(inner) as cached:
            model.fit_stream(cached)
            assert all(count == 1 for count in inner.produced.values())
            assert cached.stats.hits > cached.stats.misses
        assert np.array_equal(reference.coef_, model.coef_)
        assert reference.intercept_ == model.intercept_


@pytest.fixture(scope="module")
def grouping_dataset():
    """Movies in 400-row shards: both dimensions' fan-outs (~17 and
    ~29 rows per dimension row) keep them grouped under the rule."""
    return generate_real_world("movies", n_fact=4000, seed=0)


def _grouping_stream(dataset):
    from repro.core import join_all_strategy

    return join_all_strategy().streaming_matrices(dataset, shard_rows=400)


def _arrays(X):
    """Every array that defines a shard, in a fixed order."""
    from repro.data.spill import _shard_arrays

    return _shard_arrays(X, np.zeros(0))


class TestGroupedShards:
    def test_hit_shards_equal_miss_shards(self, grouping_dataset):
        from repro.ml.sparse import FactorizedMatrix

        stream = _grouping_stream(grouping_dataset)
        with SpillCacheSource(stream) as cached:
            misses = [X for _, X, _ in cached.iter_shards()]
            hits = [X for _, X, _ in cached.iter_shards()]
            assert cached.stats.hits == cached.stats.misses == stream.n_shards
        assert all(isinstance(X, FactorizedMatrix) for X in misses)
        assert all(X.groups for X in misses)
        for miss, hit in zip(misses, hits):
            assert type(hit) is type(miss)
            names = [g.name for g in hit.groups]
            assert names == [g.name for g in miss.groups]
            a, b = _arrays(miss), _arrays(hit)
            assert a.keys() == b.keys()
            for name in a:
                assert a[name].dtype == b[name].dtype, name
                np.testing.assert_array_equal(a[name], b[name])

    def test_spilled_fit_is_bit_identical(self, grouping_dataset):
        from repro.ml.linear import L1LogisticRegression
        from repro.streaming import StreamingTrainer

        plain = L1LogisticRegression(max_iter=20, tol=0.0)
        StreamingTrainer(plain).fit(_grouping_stream(grouping_dataset))
        spilled = L1LogisticRegression(max_iter=20, tol=0.0)
        with SpillCacheSource(_grouping_stream(grouping_dataset)) as cached:
            StreamingTrainer(spilled).fit(cached)
            assert cached.stats.hits > cached.stats.misses
        assert np.array_equal(plain.coef_, spilled.coef_)
        assert plain.intercept_ == spilled.intercept_

    def test_corrupt_grouped_entry_is_reencoded(self, grouping_dataset):
        from repro.obs import MetricsRegistry
        from repro.resilience import (
            CORRUPT_SPILL,
            FaultSchedule,
            FaultSpec,
            corrupt_spill_entries,
        )

        registry = MetricsRegistry()
        stream = _grouping_stream(grouping_dataset)
        with SpillCacheSource(stream, registry=registry) as cached:
            first = [_arrays(X) for _, X, _ in cached.iter_shards()]
            schedule = FaultSchedule([FaultSpec(shard=1, kind=CORRUPT_SPILL)])
            assert corrupt_spill_entries(schedule, cached) == [1]
            second = [_arrays(X) for _, X, _ in cached.iter_shards()]
        for a, b in zip(first, second):
            for name in a:
                np.testing.assert_array_equal(a[name], b[name])
        assert registry.get("data.spill.corruptions").value == 1
        assert cached.stats.misses == stream.n_shards + 1

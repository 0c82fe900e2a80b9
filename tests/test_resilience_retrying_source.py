"""RetryingSource: per-shard retries of a FeatureSource, in the caller.

A transient read failure must cost one shard's re-read, never the pass
or the result:

- a flaky shard is retried alone, and the pass is byte-identical to a
  clean one (exactly one extra read per flaky shard);
- exhausted retries propagate with a ``read of shard N`` note, after
  the shards before the dead one were delivered;
- a non-retryable error is raised after one attempt, with the original
  failure frame on its traceback;
- an explicit shard order is honoured.

The CI ``chaos-stress`` job runs this file under ``PYTHONDEVMODE=1``.
"""

import traceback

import numpy as np
import pytest

from repro.core import no_join_strategy
from repro.data import MatrixSource
from repro.datasets import generate_real_world
from repro.resilience import RetryingSource, RetryPolicy


@pytest.fixture(scope="module")
def train_matrix():
    dataset = generate_real_world("yelp", n_fact=200, seed=0)
    matrices = no_join_strategy().matrices(dataset)
    return matrices.X_train, matrices.y_train


class _FlakySource(MatrixSource):
    """Raises ``error`` the first ``failures`` reads of each listed shard."""

    def __init__(self, X, y, shard_rows, flaky, failures=1, error=OSError):
        super().__init__(X, y, shard_rows=shard_rows)
        self.flaky = set(flaky)
        self.failures = failures
        self.error = error
        self.attempts = {}

    def shard(self, index):
        self.attempts[index] = self.attempts.get(index, 0) + 1
        if index in self.flaky and self.attempts[index] <= self.failures:
            self._flake(index)
        return super().shard(index)

    def _flake(self, index):  # a distinctive frame for traceback tests
        raise self.error(f"flaky read of shard {index}")


def _policy(**kwargs):
    kwargs.setdefault("max_attempts", 3)
    kwargs.setdefault("base_delay_s", 0.0)
    return RetryPolicy(**kwargs)


class TestRetryingSource:
    def test_transient_fault_recovers_bit_identically(self, train_matrix):
        flaky = _FlakySource(*train_matrix, shard_rows=11, flaky=[1, 4])
        source = RetryingSource(flaky, _policy())
        clean = list(MatrixSource(*train_matrix, shard_rows=11).iter_shards())
        fetched = list(source.iter_shards())
        assert [i for i, _, _ in fetched] == [i for i, _, _ in clean]
        for (_, Xa, ya), (_, Xb, yb) in zip(clean, fetched):
            np.testing.assert_array_equal(Xa.codes, Xb.codes)
            np.testing.assert_array_equal(ya, yb)
        # Each flaky shard took exactly one extra read; the others one.
        assert flaky.attempts[1] == flaky.attempts[4] == 2
        assert all(
            flaky.attempts[i] == 1 for i in range(flaky.n_shards)
            if i not in (1, 4)
        )
        assert source.metrics.get("resilience.retries").value == 2

    def test_exhausted_retries_propagate_mid_pass(self, train_matrix):
        flaky = _FlakySource(
            *train_matrix, shard_rows=11, flaky=[2], failures=99
        )
        source = RetryingSource(flaky, _policy(max_attempts=3))
        consumed = []
        with pytest.raises(OSError, match="flaky read of shard 2") as info:
            for index, _, _ in source.iter_shards():
                consumed.append(index)
        # Shards before the dead one arrived; the dead one used its
        # whole attempt budget and the pass stopped there.
        assert consumed == [0, 1]
        assert flaky.attempts[2] == 3
        notes = "\n".join(getattr(info.value, "__notes__", []))
        assert "read of shard 2" in notes
        assert source.metrics.get("resilience.giveups").value == 1

    def test_non_retryable_error_propagates_without_retry(self, train_matrix):
        flaky = _FlakySource(
            *train_matrix, shard_rows=11, flaky=[3], error=RuntimeError
        )
        source = RetryingSource(flaky, _policy())
        with pytest.raises(RuntimeError, match="flaky read of shard 3") as info:
            list(source.iter_shards())
        assert flaky.attempts[3] == 1  # no second read for a real bug
        # The original failure site is on the traceback.
        frames = [f.name for f in traceback.extract_tb(info.value.__traceback__)]
        assert "_flake" in frames

    def test_retrying_pass_honours_explicit_order(self, train_matrix):
        flaky = _FlakySource(*train_matrix, shard_rows=9, flaky=[0])
        source = RetryingSource(flaky, _policy())
        order = np.arange(source.n_shards)[::-1]
        assert [i for i, _, _ in source.iter_shards(order)] == list(order)
        assert flaky.attempts[0] == 2

    def test_shared_registry_accounts_retries(self, train_matrix):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        flaky = _FlakySource(*train_matrix, shard_rows=11, flaky=[0])
        source = RetryingSource(flaky, _policy(), registry=registry)
        source.shard(0)
        assert source.metrics is registry
        assert registry.get("resilience.retries").value == 1


class TestTrainingThroughRetries:
    def test_exact_lr_fit_is_bit_identical(self, train_matrix):
        from repro.ml.linear import L1LogisticRegression

        X, y = train_matrix
        # Every shard fails its first read: the retried fit must still
        # accumulate the same gradients in the same shard order.
        flaky = _FlakySource(X, y, shard_rows=13, flaky=range(1000))
        model = L1LogisticRegression(max_iter=40)
        model.fit_stream(RetryingSource(flaky, _policy()))
        sharded = L1LogisticRegression(max_iter=40)
        sharded.fit_stream(MatrixSource(X, y, shard_rows=13))
        assert np.array_equal(sharded.coef_, model.coef_)
        assert sharded.intercept_ == model.intercept_
        assert sharded.n_iter_ == model.n_iter_

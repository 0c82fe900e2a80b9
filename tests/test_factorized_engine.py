"""The factorized engine's contract: one algorithm, three layouts.

``FactorizedMatrix`` keeps the KFK join factorized — fact code columns
plus per-dimension ``(|D|, d_R)`` blocks behind an FK indirection —
while the implicit engine gathers and the dense engine one-hots.  Every
kernel, trained model and served prediction must agree across the three
to 1e-10 (bit-identical where the arithmetic is exact), under every
join strategy, skewed and uniform FK distributions, empty and one-class
shards, and unseen-FK serving rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    avoid_dimensions_strategy,
    join_all_strategy,
    no_fk_strategy,
    no_join_strategy,
)
from repro.data import SourceSpec
from repro.data.encoder import ShardEncoder
from repro.datasets import (
    OneXrScenario,
    SplitDataset,
    UniformFK,
    ZipfFK,
)
from repro.ml.encoding import CategoricalMatrix
from repro.ml.linear import L1LogisticRegression
from repro.ml.naive_bayes import CategoricalNB
from repro.ml.neighbors import KNeighborsClassifier
from repro.ml.neural import MLPClassifier
from repro.ml.sparse import FactorizedMatrix
from repro.ml.svm import KernelSVC
from repro.ml.tree import DecisionTreeClassifier
from repro.relational import (
    CategoricalColumn,
    Domain,
    KFKConstraint,
    StarSchema,
    Table,
)
from repro.serving import PredictionServer
from repro.serving.artifacts import ModelArtifact, schema_fingerprint
from repro.serving.factorized import (
    FactorizedScorer,
    supports_factorized_serving,
)
from repro.streaming import StreamingTrainer

TOL = dict(rtol=0.0, atol=1e-10)

STRATEGIES = {
    "JoinAll": join_all_strategy,
    "NoJoin": no_join_strategy,
    "NoFK": no_fk_strategy,
    "AvoidDimensions": lambda: avoid_dimensions_strategy("R"),
}


def star_dataset(
    n=120, n_r=6, d_s=2, d_r=3, skew=False, seed=0
) -> SplitDataset:
    """A one-dimension star schema with a controllable FK distribution."""
    sampler = ZipfFK(2.0) if skew else UniformFK()
    scenario = OneXrScenario(
        n_train=n, n_r=n_r, d_s=d_s, d_r=d_r, fk_sampler=sampler
    )
    return scenario.sample(seed)


def encode_both(dataset, strategy, split="train"):
    """One shard of a split, encoded gathered and factorized."""
    encoder = ShardEncoder(dataset.schema, strategy)
    rows = dataset.schema.fact.select(getattr(dataset, split))
    gathered, y_g = encoder.encode_shard(rows)
    factorized, y_f = encoder.encode_shard_factorized(rows)
    assert np.array_equal(y_g, y_f)
    return gathered, factorized, y_g


class TestKernelEquivalence:
    """FactorizedMatrix kernels against the gathered reference."""

    @pytest.mark.parametrize("strategy_name", sorted(STRATEGIES))
    @pytest.mark.parametrize("skew", [False, True])
    def test_matmul_and_rmatmul(self, strategy_name, skew):
        dataset = star_dataset(skew=skew, seed=3)
        gathered, factorized, _ = encode_both(
            dataset, STRATEGIES[strategy_name]()
        )
        assert factorized.names == gathered.names
        assert factorized.shape == (gathered.n_rows, gathered.onehot_width)
        rng = np.random.default_rng(5)
        w = rng.normal(size=factorized.width)
        W = rng.normal(size=(factorized.width, 4))
        v = rng.normal(size=factorized.n_rows)
        V = rng.normal(size=(factorized.n_rows, 3))
        view = gathered.onehot_view()
        assert np.allclose(factorized.matmul(w), view.matmul(w), **TOL)
        assert np.allclose(factorized.matmul(W), view.matmul(W), **TOL)
        assert np.allclose(factorized.rmatmul(v), view.rmatmul(v), **TOL)
        assert np.allclose(factorized.rmatmul(V), view.rmatmul(V), **TOL)

    def test_gather_reproduces_the_code_table(self):
        dataset = star_dataset(seed=11)
        gathered, factorized, _ = encode_both(dataset, join_all_strategy())
        assert np.array_equal(factorized.gather().codes, gathered.codes)

    def test_factorized_layout_is_smaller(self):
        dataset = star_dataset(n=600, n_r=4, d_r=6, seed=13)
        gathered, factorized, _ = encode_both(dataset, join_all_strategy())
        assert factorized.nbytes < gathered.codes.nbytes

    def test_degenerate_form_is_bit_identical_to_implicit(self):
        dataset = star_dataset(seed=17)
        gathered, _, _ = encode_both(dataset, join_all_strategy())
        degenerate = FactorizedMatrix.from_categorical(gathered)
        assert degenerate.groups == ()
        assert degenerate.fact_codes is gathered.codes
        rng = np.random.default_rng(19)
        w = rng.normal(size=degenerate.width)
        V = rng.normal(size=(degenerate.n_rows, 2))
        # The implicit engine's formulas, written out: a per-row gather
        # sum for X @ w and one flat weighted bincount per column of V.
        d = gathered.n_features
        offsets = np.concatenate(([0], np.cumsum(gathered.n_levels)))
        flat = gathered.codes + offsets[:-1][np.newaxis, :]
        expected_V = np.column_stack(
            [
                np.bincount(
                    flat.ravel(),
                    weights=np.repeat(V[:, column], d),
                    minlength=degenerate.width,
                )
                for column in range(V.shape[1])
            ]
        )
        assert np.array_equal(degenerate.matmul(w), w[flat].sum(axis=1))
        assert np.array_equal(degenerate.rmatmul(V), expected_V)

    def test_take_rows_matches_gathered_subset(self):
        dataset = star_dataset(seed=23)
        gathered, factorized, _ = encode_both(dataset, join_all_strategy())
        rows = np.array([0, 5, 5, 2, 17])
        sub = factorized.take_rows(rows)
        w = np.random.default_rng(29).normal(size=factorized.width)
        assert np.allclose(
            sub.matmul(w),
            gathered.take_rows(rows).onehot_view().matmul(w),
            **TOL,
        )

    def test_empty_shard_kernels(self):
        dataset = star_dataset(seed=31)
        _, factorized, _ = encode_both(dataset, join_all_strategy())
        empty = factorized.take_rows(np.array([], dtype=np.int64))
        assert empty.n_rows == 0
        w = np.zeros(factorized.width)
        assert empty.matmul(w).shape == (0,)
        assert np.array_equal(
            empty.rmatmul(np.zeros(0)), np.zeros(factorized.width)
        )


class TestTrainingEquivalence:
    """Hypothesis sweep: factorized ≡ implicit ≡ dense fitted models."""

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    @pytest.mark.parametrize("strategy_name", sorted(STRATEGIES))
    @pytest.mark.parametrize("skew", [False, True])
    def test_streamed_lr_agrees_across_engines(
        self, strategy_name, skew, seed
    ):
        dataset = star_dataset(
            n=90, n_r=5, d_s=2, d_r=2, skew=skew, seed=seed
        )
        strategy = STRATEGIES[strategy_name]()
        coefs = {}
        for engine in ("implicit", "factorized"):
            stream = strategy.streaming_matrices(
                dataset, shard_rows=32, engine=engine
            )
            model = L1LogisticRegression(
                lam=1e-3, max_iter=25, tol=0.0, engine=engine
            )
            StreamingTrainer(model).fit(stream)
            coefs[engine] = (model.coef_, model.intercept_)
        matrices = strategy.matrices(dataset)
        dense = L1LogisticRegression(
            lam=1e-3, max_iter=25, tol=0.0, engine="dense"
        )
        dense.fit(matrices.X_train, matrices.y_train)
        coefs["dense"] = (dense.coef_, dense.intercept_)

        # All three engines run the same FISTA; only float association
        # differs (shard grouping, factorized per-dimension totals), so
        # coefficients agree to 1e-10 across the board.
        c_i, b_i = coefs["implicit"]
        for engine in ("factorized", "dense"):
            c_e, b_e = coefs[engine]
            assert np.allclose(c_e, c_i, **TOL)
            assert abs(b_e - b_i) <= 1e-10

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    @pytest.mark.parametrize("skew", [False, True])
    def test_streamed_nb_counts_are_bit_identical(self, skew, seed):
        dataset = star_dataset(n=80, n_r=4, d_s=1, d_r=2, skew=skew, seed=seed)
        strategy = join_all_strategy()
        fitted = {}
        for engine in ("implicit", "factorized"):
            stream = strategy.streaming_matrices(
                dataset, shard_rows=17, engine=engine
            )
            model = CategoricalNB(alpha=1.0)
            StreamingTrainer(model).fit(stream)
            fitted[engine] = model
        for log_i, log_f in zip(
            fitted["implicit"].feature_log_prob_,
            fitted["factorized"].feature_log_prob_,
        ):
            assert np.array_equal(log_i, log_f)
        assert np.array_equal(
            fitted["implicit"].class_log_prior_,
            fitted["factorized"].class_log_prior_,
        )

    def test_one_class_shards_train_identically(self):
        # A label-sorted fact table makes early shards single-class.
        dataset = star_dataset(n=60, n_r=4, d_s=1, d_r=2, seed=41)
        fact = dataset.schema.fact
        order = np.argsort(fact.codes(dataset.schema.target), kind="stable")
        sorted_fact = fact.select(order)
        schema = StarSchema(
            fact=sorted_fact,
            target=dataset.schema.target,
            dimensions=[
                (dataset.schema.dimension(name), dataset.schema.constraint(name))
                for name in dataset.schema.dimension_names
            ],
        )
        n_rows = sorted_fact.n_rows
        sorted_dataset = SplitDataset(
            name="sorted",
            schema=schema,
            train=np.arange(n_rows - 2),
            validation=np.array([n_rows - 2]),
            test=np.array([n_rows - 1]),
        )
        strategy = join_all_strategy()
        coefs = {}
        for engine in ("implicit", "factorized"):
            stream = strategy.streaming_matrices(
                sorted_dataset, shard_rows=10, engine=engine
            )
            model = L1LogisticRegression(
                lam=1e-3, max_iter=20, tol=0.0, engine=engine
            )
            StreamingTrainer(model).fit(stream)
            coefs[engine] = model.coef_
        assert np.allclose(coefs["factorized"], coefs["implicit"], **TOL)


ESTIMATORS = {
    "tree": lambda: DecisionTreeClassifier(unseen="majority"),
    "svc_implicit": lambda: KernelSVC(engine="implicit"),
    "svc_factorized": lambda: KernelSVC(engine="factorized"),
    "knn": lambda: KNeighborsClassifier(),
    "mlp": lambda: MLPClassifier(hidden_sizes=(8,), epochs=3, random_state=0),
    "nb": lambda: CategoricalNB(),
    "lr_l1": lambda: L1LogisticRegression(lam=1e-3, max_iter=30),
}


class TestEveryEstimatorAcceptsFactorized:
    """Whatever ``check_X_y`` accepts, every estimator fits and predicts:
    a grouped FactorizedMatrix gives exactly its gather's predictions."""

    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_grouped_input_predicts_like_its_gather(self, name):
        dataset = star_dataset(n=150, n_r=5, seed=43)
        strategy = join_all_strategy()
        _, train, y = encode_both(dataset, strategy)
        _, test, _ = encode_both(dataset, strategy, split="test")
        assert train.groups and test.groups
        grouped = ESTIMATORS[name]().fit(train, y)
        gathered = ESTIMATORS[name]().fit(train.gather(), y)
        for X in (train, test):
            assert np.array_equal(
                grouped.predict(X), gathered.predict(X.gather())
            )


def _artifact(model, feature_names, dataset, model_key) -> ModelArtifact:
    schema = dataset.schema
    return ModelArtifact(
        model=model,
        strategy=join_all_strategy(),
        feature_names=tuple(feature_names),
        target=schema.target,
        target_labels=tuple(
            schema.fact.column(schema.target).domain.labels
        ),
        fingerprint=schema_fingerprint(schema),
        model_key=model_key,
        dataset_name=dataset.name,
    )


def _train_served_model(dataset, model_key="lr_l1"):
    strategy = join_all_strategy()
    stream = strategy.streaming_matrices(
        dataset, shard_rows=64, engine="factorized"
    )
    if model_key == "lr_l1":
        model = L1LogisticRegression(
            lam=1e-3, max_iter=30, tol=0.0, engine="factorized"
        )
    else:
        model = CategoricalNB(alpha=1.0)
    StreamingTrainer(model).fit(stream)
    return _artifact(model, stream.feature_names, dataset, model_key)


def _request_rows(dataset, n, seed=0):
    fact = dataset.schema.fact
    rng = np.random.default_rng(seed)
    columns = [c for c in fact.column_names if c != dataset.schema.target]
    picks = rng.integers(0, fact.n_rows, size=n)
    return [
        {c: fact.domain(c).decode([fact.codes(c)[i]])[0] for c in columns}
        for i in picks
    ]


class TestFactorizedServing:
    @pytest.mark.parametrize("model_key", ["lr_l1", "nb"])
    def test_predictions_identical_to_implicit(self, model_key):
        dataset = star_dataset(n=150, n_r=5, d_s=2, d_r=3, seed=43)
        artifact = _train_served_model(dataset, model_key)
        assert supports_factorized_serving(artifact.model)
        rows = _request_rows(dataset, 40, seed=47)
        implicit = PredictionServer(
            artifact, dataset.schema, max_wait_s=None, engine="implicit"
        )
        factorized = PredictionServer(
            artifact, dataset.schema, max_wait_s=None, engine="factorized"
        )
        assert implicit.predict_batch(rows) == factorized.predict_batch(rows)

    def test_unseen_fk_rows_serve_identically(self):
        # Rows whose FK codes never appeared in the *training split*
        # still resolve (closed domain): both engines must agree.
        dataset = star_dataset(n=50, n_r=25, d_s=1, d_r=2, skew=True, seed=53)
        artifact = _train_served_model(dataset)
        fact = dataset.schema.fact
        train_fk = set()
        unseen_rows = []
        fk_columns = [
            dataset.schema.constraint(name).fk_column
            for name in dataset.schema.dimension_names
        ]
        for fk in fk_columns:
            train_fk.update(fact.codes(fk)[dataset.train].tolist())
        columns = [c for c in fact.column_names if c != dataset.schema.target]
        base = _request_rows(dataset, 1)[0]
        for fk in fk_columns:
            domain = fact.domain(fk)
            for code in range(len(domain.labels)):
                if code not in train_fk:
                    row = dict(base)
                    row[fk] = domain.decode([code])[0]
                    unseen_rows.append(row)
        assert unseen_rows, "fixture must leave some FK codes unseen"
        implicit = PredictionServer(
            artifact, dataset.schema, max_wait_s=None, engine="implicit"
        )
        factorized = PredictionServer(
            artifact, dataset.schema, max_wait_s=None, engine="factorized"
        )
        assert implicit.predict_batch(unseen_rows) == factorized.predict_batch(
            unseen_rows
        )

    def test_served_prediction_does_no_per_row_dimension_work(
        self, monkeypatch
    ):
        """The load-time precompute means serving never gathers: neither
        the implicit row-gather assembly nor ``FactorizedMatrix.gather``
        may run under ``engine="factorized"``."""
        dataset = star_dataset(n=120, n_r=5, d_s=2, d_r=3, seed=59)
        artifact = _train_served_model(dataset)
        server = PredictionServer(
            artifact, dataset.schema, max_wait_s=None, engine="factorized"
        )
        rows = _request_rows(dataset, 12, seed=61)

        def forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError(
                "factorized serving touched a per-row dimension gather"
            )

        monkeypatch.setattr(ShardEncoder, "assemble", forbidden)
        monkeypatch.setattr(FactorizedMatrix, "gather", forbidden)
        single = [server.predict_one(r) for r in rows]
        batched = server.predict_batch(rows)
        assert single == batched
        labels = set(dataset.schema.fact.domain(dataset.schema.target).labels)
        assert set(single) <= labels

    def test_scorer_rejects_selection_wrapped_models(self):
        class Selected:
            selected_indices_ = (0, 1)

        assert not supports_factorized_serving(Selected())

    def test_scorer_codes_match_model_predict(self):
        dataset = star_dataset(n=100, n_r=5, d_s=2, d_r=3, seed=67)
        artifact = _train_served_model(dataset)
        encoder = ShardEncoder(dataset.schema, join_all_strategy())
        scorer = FactorizedScorer(artifact, encoder)
        rows = dataset.schema.fact.select(dataset.test)
        X_fact, _ = encoder.encode_shard_factorized(rows)
        X_gathered, _ = encoder.encode_shard(rows)
        assert np.array_equal(
            scorer.predict_codes(X_fact),
            artifact.model.predict(X_gathered),
        )


class TestSourceSpecEngine:
    def test_factorized_spec_rejects_spill_cache(self):
        with pytest.raises(ValueError, match="spill_cache"):
            SourceSpec(shard_rows=8, engine="factorized", spill_cache=True)

    def test_factorized_spec_builds_factorized_shards(self):
        dataset = star_dataset(n=60, n_r=4, d_s=1, d_r=2, seed=97)
        spec = SourceSpec(shard_rows=16, engine="factorized")
        source = spec.build(dataset, join_all_strategy(), "train")
        X, y = next(iter(source))
        assert isinstance(X, FactorizedMatrix)
        assert X.n_rows == y.shape[0]

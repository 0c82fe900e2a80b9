"""The grouped layout's contract: one algorithm, three layouts.

``FactorizedMatrix`` keeps a joined dimension grouped — fact code
columns plus per-dimension ``(|D|, d_R)`` blocks behind an FK
indirection — while the gathered layout copies the dimension features
per fact row and the dense engine one-hots.  Every kernel, trained
model and served prediction must agree across the three to 1e-10
(bit-identical where the arithmetic is exact), under every join
strategy, skewed and uniform FK distributions, mixed layouts (one
dimension grouped, one gathered), empty and one-class shards, and
unseen-FK serving rows.  The encoder's per-dimension layout rule
(:data:`repro.data.encoder.GROUP_FANOUT`) is pinned on the paper's
datasets without timing anything.
"""

import contextlib

import numpy as np
import pytest

import repro.data.encoder as encoder_module
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
    REAL_WORLD_SPECS,
    OneXrScenario,
    RealWorldSpec,
    SplitDataset,
    UniformFK,
    ZipfFK,
    generate_real_world,
)
from repro.datasets.realworld import DimensionSpec
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


def two_dimension_dataset(skew=False, seed=0) -> SplitDataset:
    """A star with a high-fan-out dimension ``R`` and a low one ``Q``."""
    spec = RealWorldSpec(
        name="two_dims",
        n_fact=240,
        d_s=2,
        dimensions=(
            DimensionSpec(
                "R", tuple_ratio=20.0, n_features=3, xr_effect=1.0,
                fk_effect=0.5, fk_skew=1.0 if skew else 0.0,
            ),
            DimensionSpec(
                "Q", tuple_ratio=2.0, n_features=2, xr_effect=1.0,
                fk_effect=0.0,
            ),
        ),
    )
    return spec.generate(seed=seed)


def encode_both(dataset, strategy, split="train", grouped=None):
    """One shard of a split, encoded gathered and with ``grouped``
    dimensions (default: every joined one) kept grouped."""
    encoder = ShardEncoder(dataset.schema, strategy)
    rows = dataset.schema.fact.select(getattr(dataset, split))
    gathered, y = encoder.encode_shard(rows, gather=True)
    factorized = encoder.assemble(
        {column: rows.codes(column) for column in encoder.required_columns},
        grouped=encoder.joined_dimensions if grouped is None else grouped,
    )
    if isinstance(factorized, CategoricalMatrix):
        # Nothing joined (or nothing grouped): the zero-group form.
        factorized = FactorizedMatrix.from_categorical(factorized)
    return gathered, factorized, y


def mixed_case(strategy, skew=False, seed=0, split="train"):
    """:func:`encode_both` on the two-dimension star, ``R`` grouped and
    ``Q`` gathered (under JoinAll: the mixed layout)."""
    return encode_both(
        two_dimension_dataset(skew=skew, seed=seed), strategy, split=split,
        grouped=("R",),
    )


#: What the calibrated rule decides for movies at 2,000-row shards
#: (fan-outs 8.3 for users and 13.5 for movies, both above
#: ``GROUP_FANOUT = 8``).
MOVIES_GROUPED_AT_2K = ("users", "movies")

#: Layout-rule settings that group every dimension of a multi-shard
#: stream, or gather every one.
LAYOUTS = {"grouped": 0.0, "gathered": float("inf")}


@contextlib.contextmanager
def layout_rule(name):
    """Pin :data:`~repro.data.encoder.GROUP_FANOUT` for one block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(encoder_module, "GROUP_FANOUT", LAYOUTS[name])
        yield


class TestKernelEquivalence:
    """FactorizedMatrix kernels against the gathered reference."""

    @pytest.mark.parametrize("strategy_name", sorted(STRATEGIES))
    @pytest.mark.parametrize("skew", [False, True])
    def test_matmul_and_rmatmul(self, strategy_name, skew):
        dataset = star_dataset(skew=skew, seed=3)
        strategy = STRATEGIES[strategy_name]()
        for gathered, factorized, _ in (
            encode_both(dataset, strategy),
            mixed_case(strategy, skew=skew, seed=3),
        ):
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
    """Hypothesis sweep: grouped ≡ gathered ≡ dense fitted models."""

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
        for layout in ("gathered", "grouped"):
            with layout_rule(layout):
                stream = strategy.streaming_matrices(dataset, shard_rows=32)
                model = L1LogisticRegression(lam=1e-3, max_iter=25, tol=0.0)
                StreamingTrainer(model).fit(stream)
            coefs[layout] = (model.coef_, model.intercept_)
        matrices = strategy.matrices(dataset)
        dense = L1LogisticRegression(
            lam=1e-3, max_iter=25, tol=0.0, engine="dense"
        )
        dense.fit(matrices.X_train, matrices.y_train)
        coefs["dense"] = (dense.coef_, dense.intercept_)

        # All three run the same FISTA; only float association differs
        # (shard grouping, grouped per-dimension totals), so
        # coefficients agree to 1e-10 across the board.
        c_i, b_i = coefs["gathered"]
        for engine in ("grouped", "dense"):
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
        for layout in ("gathered", "grouped"):
            with layout_rule(layout):
                stream = strategy.streaming_matrices(dataset, shard_rows=17)
                model = CategoricalNB(alpha=1.0)
                StreamingTrainer(model).fit(stream)
            fitted[layout] = model
        for log_i, log_f in zip(
            fitted["gathered"].feature_log_prob_,
            fitted["grouped"].feature_log_prob_,
        ):
            assert np.array_equal(log_i, log_f)
        assert np.array_equal(
            fitted["gathered"].class_log_prior_,
            fitted["grouped"].class_log_prior_,
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
        for layout in ("gathered", "grouped"):
            with layout_rule(layout):
                stream = strategy.streaming_matrices(
                    sorted_dataset, shard_rows=10
                )
                model = L1LogisticRegression(lam=1e-3, max_iter=20, tol=0.0)
                StreamingTrainer(model).fit(stream)
            coefs[layout] = model.coef_
        assert np.allclose(coefs["grouped"], coefs["gathered"], **TOL)


ESTIMATORS = {
    "tree": lambda: DecisionTreeClassifier(unseen="majority"),
    "svc_implicit": lambda: KernelSVC(engine="implicit"),
    "svc_dense": lambda: KernelSVC(engine="dense"),
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
        for (_, train, y), (_, test, _) in (
            (
                encode_both(dataset, strategy),
                encode_both(dataset, strategy, split="test"),
            ),
            (
                mixed_case(strategy, seed=43),
                mixed_case(strategy, seed=43, split="test"),
            ),
        ):
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
    with layout_rule("grouped"):
        stream = strategy.streaming_matrices(dataset, shard_rows=64)
        if model_key == "lr_l1":
            model = L1LogisticRegression(lam=1e-3, max_iter=30, tol=0.0)
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
        """The load-time precompute means serving never gathers: the one
        assembly must keep every joined dimension grouped (no dimension
        column gathered per row), and neither
        ``FactorizedMatrix.gather`` nor its gathered ``codes`` may run
        under ``engine="factorized"``."""
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

        assemble = ShardEncoder.assemble
        foreign = set(server.features._foreign_of)

        def grouped_only(self, fact_codes, grouped=()):
            X = assemble(self, fact_codes, grouped)
            gathered = {X.names[p] for p in X.fact_positions}
            if gathered & foreign:  # pragma: no cover - must not run
                forbidden()
            return X

        monkeypatch.setattr(ShardEncoder, "assemble", grouped_only)
        monkeypatch.setattr(FactorizedMatrix, "gather", forbidden)
        monkeypatch.setattr(FactorizedMatrix, "codes", property(forbidden))
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
        codes = {c: rows.codes(c) for c in encoder.required_columns}
        X_fact = encoder.assemble(codes, grouped=encoder.joined_dimensions)
        X_gathered, _ = encoder.encode_shard(rows, gather=True)
        assert np.array_equal(
            scorer.predict_codes(X_fact),
            artifact.model.predict(X_gathered),
        )


class TestLayoutRule:
    """The encoder's per-dimension layout decision, pinned without
    timing: it depends only on the shard's rows and each ``|D|``."""

    @staticmethod
    def decisions(name, n_fact, shard_rows):
        dataset = generate_real_world(name, n_fact=n_fact, seed=0)
        encoder = ShardEncoder(dataset.schema, join_all_strategy())
        fanouts = {
            dim: shard_rows / size
            for dim, size in encoder._dimension_sizes.items()
        }
        return fanouts, encoder.grouped_dimensions(shard_rows)

    def test_paper_datasets_at_2k_row_shards(self):
        # The calibration shape: 40k fact rows in 2,000-row shards.
        fanouts, grouped = {}, {}
        for name in REAL_WORLD_SPECS:
            fanouts[name], grouped[name] = self.decisions(name, 40_000, 2_000)
            for dim, fanout in fanouts[name].items():
                assert (dim in grouped[name]) == (
                    fanout >= encoder_module.GROUP_FANOUT
                )
        # Expedia's searches dimension has 10x more rows than a shard.
        assert fanouts["expedia"]["searches"] == pytest.approx(0.10)
        assert "searches" not in grouped["expedia"]
        assert fanouts["movies"]["users"] == pytest.approx(8.26, abs=0.01)
        assert fanouts["movies"]["movies"] == pytest.approx(13.51, abs=0.01)
        assert grouped["movies"] == MOVIES_GROUPED_AT_2K

    def test_books_at_the_stream_nb_fanouts_stays_gathered(self):
        # 1M rows in 20k-row shards has the same fan-outs (0.18/0.10)
        # as 50k rows in 1k-row shards: every dimension gathered, so
        # the shard is today's plain CategoricalMatrix.
        dataset = generate_real_world("books", n_fact=50_000, seed=0)
        stream = join_all_strategy().streaming_matrices(
            dataset, shard_rows=1_000
        )
        fanouts = {
            dim: 1_000 / size
            for dim, size in stream.encoder._dimension_sizes.items()
        }
        assert sorted(round(f, 2) for f in fanouts.values()) == [0.1, 0.18]
        X, _ = stream.shard(0)
        assert type(X) is CategoricalMatrix

    def test_one_shard_stream_is_gathered(self):
        dataset = star_dataset(n=200, n_r=2, d_s=1, d_r=2, seed=97)
        stream = join_all_strategy().streaming_matrices(dataset, n_shards=1)
        assert stream.encoder.grouped_dimensions(stream.n_rows) == ("R",)
        X, _ = stream.shard(0)
        assert type(X) is CategoricalMatrix

    def test_high_fanout_spec_builds_grouped_shards(self):
        dataset = star_dataset(n=200, n_r=2, d_s=1, d_r=2, seed=97)
        spec = SourceSpec(shard_rows=64)
        source = spec.build(dataset, join_all_strategy(), "train")
        X, y = next(iter(source))
        assert isinstance(X, FactorizedMatrix)
        assert [g.name for g in X.groups] == ["R"]
        assert X.n_rows == y.shape[0]
        counters = source.encoder.metrics
        assert counters.counter("data.encode.grouped_dims").value == 1
        assert counters.counter("data.encode.gathered_dims").value == 0

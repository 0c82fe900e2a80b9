"""Feature-set strategies: JoinAll, NoJoin, NoFK and per-dimension variants.

A strategy decides, per dimension table, whether its foreign features
are joined in or avoided, and whether foreign keys appear as features.
The paper's comparisons (Tables 2-6, every simulation figure) are
between strategies applied to the *same* star schema:

- **JoinAll** — join every dimension; features are
  ``X_S ∪ {usable FKs} ∪ all X_R`` (the widespread current practice).
- **NoJoin** — avoid every avoidable dimension a priori; features are
  ``X_S ∪ {usable FKs}`` (the approach under study).
- **NoFK** — join everything but drop the foreign keys; features are
  ``X_S ∪ all X_R`` (a lower bound when FKs carry no direct signal).
- **AvoidDimensions(names)** — avoid a chosen dimension subset, keeping
  everything else joined (Table 4's robustness study: NoR1, NoR2, ...).

Open-domain foreign keys (Section 3.1, Expedia's search id) are handled
uniformly: the FK itself is never a feature, and its dimension is never
avoidable, so its foreign features are joined under *every* strategy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.splits import SplitDataset
from repro.errors import SchemaError
from repro.ml.encoding import CategoricalMatrix
from repro.relational.join import join_subset
from repro.relational.schema import StarSchema


@dataclass(frozen=True)
class JoinStrategy:
    """A reproducible recipe for constructing the feature set.

    Attributes
    ----------
    name:
        Display name used in tables ("JoinAll", "NoJoin", "NoR1", ...).
    avoided:
        Dimension names whose foreign features are avoided a priori.
        ``None`` means "avoid every closed-FK dimension" (NoJoin),
        resolved lazily against the schema.
    include_fks:
        Whether usable (closed-domain) foreign keys are features.
    """

    name: str
    avoided: frozenset[str] | None = frozenset()
    include_fks: bool = True

    def avoided_for(self, schema: StarSchema) -> frozenset[str]:
        """Resolve the avoided-dimension set against a schema.

        Open-FK dimensions are never avoidable: their foreign key can't
        represent them, so their features must stay joined.
        """
        open_dims = {
            c.dimension for c in schema.constraints if c.fk_column in schema.open_fks
        }
        if self.avoided is None:
            return frozenset(schema.dimension_names) - open_dims
        unknown = self.avoided - set(schema.dimension_names)
        if unknown:
            raise SchemaError(
                f"strategy {self.name!r} avoids unknown dimensions "
                f"{sorted(unknown)}; schema has {schema.dimension_names}"
            )
        not_avoidable = self.avoided & open_dims
        if not_avoidable:
            raise SchemaError(
                f"strategy {self.name!r} cannot avoid open-FK dimensions "
                f"{sorted(not_avoidable)}"
            )
        return self.avoided

    def joined_dimensions(self, schema: StarSchema) -> list[str]:
        """Dimensions whose foreign features are materialised by the join."""
        avoided = self.avoided_for(schema)
        return [n for n in schema.dimension_names if n not in avoided]

    def feature_names(self, schema: StarSchema) -> list[str]:
        """The feature columns this strategy exposes, in stable order."""
        features = list(schema.home_features)
        if self.include_fks:
            features += schema.usable_fk_columns()
        for name in self.joined_dimensions(schema):
            features += schema.foreign_features(name)
        return features

    def matrices(self, dataset: SplitDataset) -> "StrategyMatrices":
        """Materialise the strategy's features for every split."""
        schema = dataset.schema
        joined = join_subset(schema, self.joined_dimensions(schema))
        X = CategoricalMatrix.from_table(joined, self.feature_names(schema))
        return StrategyMatrices(
            strategy=self,
            X_train=X.take_rows(dataset.train),
            y_train=dataset.labels("train"),
            X_validation=X.take_rows(dataset.validation),
            y_validation=dataset.labels("validation"),
            X_test=X.take_rows(dataset.test),
            y_test=dataset.labels("test"),
        )

    def streaming_matrices(
        self,
        dataset: SplitDataset,
        shard_rows: int | None = None,
        n_shards: int | None = None,
        split: str = "train",
    ) -> "repro.streaming.StreamingMatrices":  # noqa: F821
        """The out-of-core counterpart of :meth:`matrices`.

        Returns a :class:`~repro.streaming.StreamingMatrices` over one
        split, assembled shard by shard — each shard's matrix is exactly
        the corresponding row block of what :meth:`matrices` would
        build, but the full join is never materialised.
        """
        from repro.streaming import ShardedDataset, StreamingMatrices

        return StreamingMatrices(
            ShardedDataset.from_split(
                dataset, shard_rows=shard_rows, n_shards=n_shards, split=split
            ),
            self,
        )


@dataclass
class StrategyMatrices:
    """Per-split feature matrices and labels produced by a strategy."""

    strategy: JoinStrategy
    X_train: CategoricalMatrix
    y_train: np.ndarray
    X_validation: CategoricalMatrix
    y_validation: np.ndarray
    X_test: CategoricalMatrix
    y_test: np.ndarray

    @property
    def feature_names(self) -> tuple[str, ...]:
        """Feature columns shared by all three splits."""
        return self.X_train.names


def join_all_strategy() -> JoinStrategy:
    """The paper's JoinAll: everything joined, usable FKs included."""
    return JoinStrategy(name="JoinAll", avoided=frozenset(), include_fks=True)


def no_join_strategy() -> JoinStrategy:
    """The paper's NoJoin: avoid every avoidable dimension a priori."""
    return JoinStrategy(name="NoJoin", avoided=None, include_fks=True)


def no_fk_strategy() -> JoinStrategy:
    """The paper's NoFK: join everything, drop the foreign keys."""
    return JoinStrategy(name="NoFK", avoided=frozenset(), include_fks=False)


def avoid_dimensions_strategy(*names: str, label: str | None = None) -> JoinStrategy:
    """Avoid a chosen subset of dimensions (Table 4's NoR1/NoR2/...)."""
    if not names:
        raise ValueError("avoid_dimensions_strategy needs at least one dimension")
    return JoinStrategy(
        name=label or ("No" + ",".join(names)),
        avoided=frozenset(names),
        include_fks=True,
    )


@dataclass(frozen=True)
class PartialJoinStrategy(JoinStrategy):
    """Join only a chosen *subset of foreign features* per dimension.

    Section 5.2 observes that the FD axioms let foreign features be
    divided into arbitrary subsets before being avoided, "opening a new
    trade-off space between fully avoiding a foreign table and fully
    using it."  This strategy realises that space: dimensions listed in
    ``kept_features`` contribute only the named foreign features (the
    FK stays as a feature, representing the rest); unlisted dimensions
    behave as under JoinAll.

    ``kept_features`` maps dimension name → tuple of foreign feature
    names; an empty tuple degenerates to avoiding the dimension.
    """

    kept_features: tuple[tuple[str, tuple[str, ...]], ...] = ()

    @staticmethod
    def build(
        kept: dict[str, list[str]], label: str | None = None
    ) -> "PartialJoinStrategy":
        """Construct from a ``{dimension: [features]}`` mapping."""
        frozen = tuple(
            (dim, tuple(features)) for dim, features in sorted(kept.items())
        )
        name = label or (
            "Partial[" + "; ".join(f"{d}:{len(f)}" for d, f in frozen) + "]"
        )
        return PartialJoinStrategy(
            name=name, avoided=frozenset(), include_fks=True, kept_features=frozen
        )

    def _kept_map(self) -> dict[str, tuple[str, ...]]:
        return dict(self.kept_features)

    def joined_dimensions(self, schema: StarSchema) -> list[str]:
        kept = self._kept_map()
        unknown = set(kept) - set(schema.dimension_names)
        if unknown:
            raise SchemaError(
                f"partial-join strategy references unknown dimensions "
                f"{sorted(unknown)}"
            )
        return [
            name
            for name in schema.dimension_names
            if name not in kept or kept[name]
        ]

    def feature_names(self, schema: StarSchema) -> list[str]:
        kept = self._kept_map()
        unknown = set(kept) - set(schema.dimension_names)
        if unknown:
            raise SchemaError(
                f"partial-join strategy references unknown dimensions "
                f"{sorted(unknown)}"
            )
        for dim, features in kept.items():
            available = set(schema.foreign_features(dim))
            missing = set(features) - available
            if missing:
                raise SchemaError(
                    f"dimension {dim!r} has no foreign features "
                    f"{sorted(missing)}; available: {sorted(available)}"
                )
        features = list(schema.home_features)
        features += schema.usable_fk_columns()
        for name in self.joined_dimensions(schema):
            if name in kept:
                features += list(kept[name])
            else:
                features += schema.foreign_features(name)
        return features

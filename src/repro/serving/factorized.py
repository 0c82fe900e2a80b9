"""Factorized serving: per-dimension score contributions fixed at load.

The grouped layout's serving payoff is that a trained linear or NB
model's score is *additive over features*, so each joined dimension's
share of the score depends only on which dimension row a fact row
resolves to — never on the fact row itself.  :class:`FactorizedScorer`
exploits that at model-load time: for every joined dimension it folds
the model's per-feature weights through the dimension's ``(|D|, d_R)``
code block once, producing a single per-dimension-row contribution
vector (``(|D|,)`` for the linear score, ``(|D|, C)`` for NB joint
log-likelihoods).  A served prediction is then one table gather per
fact feature plus one ``contrib[dim_rows]`` gather per dimension and
an add — no per-row dimension-feature work at all, for any ``d_R``.

This is the serving analogue of the training-side kernel push-down in
:class:`~repro.ml.sparse.FactorizedMatrix`: training pays
``O(|D|·d_R)`` per kernel pass, serving pays it exactly once per
loaded model.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SchemaError
from repro.ml.encoding import CategoricalMatrix
from repro.ml.linear.logistic import L1LogisticRegression
from repro.ml.naive_bayes import CategoricalNB
from repro.ml.sparse import FactorizedMatrix

__all__ = ["FactorizedScorer", "supports_factorized_serving"]


def _unwrap(model):
    """Peel tuner wrappers down to the fitted estimator.

    Feature-selecting wrappers are refused: their best model scores a
    *subset* of the assembled features, so per-dimension contributions
    computed against the full layout would be wrong.
    """
    while hasattr(model, "best_model_"):
        if getattr(model, "selected_indices_", None) is not None:
            raise ValueError(
                "factorized serving does not support feature-selected "
                "models: the fitted model consumes a feature subset, not "
                "the assembled layout"
            )
        model = model.best_model_
    return model


def supports_factorized_serving(model) -> bool:
    """Whether an artifact's model can serve through the factorized path."""
    try:
        unwrapped = _unwrap(model)
    except ValueError:
        return False
    return isinstance(unwrapped, (L1LogisticRegression, CategoricalNB))


class FactorizedScorer:
    """Precomputed factorized predictor for one (artifact, encoder) pair.

    Parameters
    ----------
    artifact:
        A loaded :class:`~repro.serving.artifacts.ModelArtifact` whose
        (possibly tuner-wrapped) model is an
        :class:`~repro.ml.linear.logistic.L1LogisticRegression` or a
        :class:`~repro.ml.naive_bayes.CategoricalNB`.
    features:
        The server's :class:`~repro.serving.feature_service.FeatureService`
        (any :class:`~repro.data.encoder.ShardEncoder`): supplies the
        feature layout and each joined dimension's memoised code block.

    Construction walks every joined dimension's block once; afterwards
    :meth:`predict_codes` reads only the request's fact codes and each
    group's resolved ``dim_rows`` — it never touches a group's block.
    """

    def __init__(self, artifact, features):
        model = _unwrap(artifact.model)
        self.feature_names: tuple[str, ...] = tuple(features.feature_names)
        n_levels = tuple(features.n_levels)
        offsets = np.concatenate(([0], np.cumsum(n_levels))).astype(np.int64)

        fact_positions: list[int] = []
        dims: dict[str, list[int]] = {}
        for position, feature in enumerate(self.feature_names):
            owner = features._foreign_of.get(feature)
            if owner is None:
                fact_positions.append(position)
            else:
                dims.setdefault(owner[0], []).append(position)

        def block_of(name: str) -> np.ndarray:
            return features._dimension_block(name, features.cache.get(name))

        if isinstance(model, L1LogisticRegression):
            self._kind = "linear"
            coef = np.asarray(model.coef_, dtype=np.float64)
            self._intercept = float(model.intercept_)
            self._fact_tables = [
                (position, coef[offsets[position] : offsets[position + 1]])
                for position in fact_positions
            ]
            self._dim_contrib: dict[str, np.ndarray] = {}
            for name, positions in dims.items():
                block = block_of(name)
                contrib = np.zeros(block.shape[0], dtype=np.float64)
                for c, position in enumerate(positions):
                    contrib += coef[offsets[position] + block[:, c]]
                self._dim_contrib[name] = contrib
        elif isinstance(model, CategoricalNB):
            self._kind = "nb"
            self._prior = np.asarray(
                model.class_log_prior_, dtype=np.float64
            )
            # Transposed to (k, C) so a request gather is table[codes].
            self._fact_tables = [
                (position, np.asarray(model.feature_log_prob_[position]).T)
                for position in fact_positions
            ]
            self._dim_contrib = {}
            for name, positions in dims.items():
                block = block_of(name)
                contrib = np.zeros(
                    (block.shape[0], len(self._prior)), dtype=np.float64
                )
                for c, position in enumerate(positions):
                    contrib += np.asarray(
                        model.feature_log_prob_[position]
                    ).T[block[:, c]]
                self._dim_contrib[name] = contrib
        else:
            raise ValueError(
                f"factorized serving supports L1 logistic regression and "
                f"categorical naive Bayes; artifact model is "
                f"{type(model).__name__}"
            )

    def predict_codes(
        self, X: CategoricalMatrix | FactorizedMatrix
    ) -> np.ndarray:
        """Predict label codes for a batch assembled with every joined
        dimension grouped.

        Per fact feature: one weight-table gather.  Per joined
        dimension: one ``contrib[dim_rows]`` gather.  The group blocks
        are never read — the per-dimension work was all done at load.
        A strategy that joins nothing assembles a plain
        :class:`~repro.ml.encoding.CategoricalMatrix`, scored as its
        zero-group form.
        """
        if isinstance(X, CategoricalMatrix):
            X = FactorizedMatrix.from_categorical(X)
        if not isinstance(X, FactorizedMatrix):
            raise TypeError(
                f"FactorizedScorer consumes FactorizedMatrix, got "
                f"{type(X).__name__}"
            )
        if X.names != self.feature_names:
            raise SchemaError(
                f"scorer expects features {list(self.feature_names)}, "
                f"got {list(X.names)}"
            )
        column_of = {
            int(position): column
            for column, position in enumerate(X.fact_positions)
        }
        for group in X.groups:
            if group.name not in self._dim_contrib:
                raise SchemaError(
                    f"request factorizes dimension {group.name!r} the "
                    f"loaded model has no contribution for"
                )
        if self._kind == "linear":
            scores = np.full(X.n_rows, self._intercept, dtype=np.float64)
            for position, table in self._fact_tables:
                scores += table[X.fact_codes[:, column_of[position]]]
            for group in X.groups:
                scores += self._dim_contrib[group.name][group.dim_rows]
            return (scores >= 0).astype(np.int64)
        jll = np.tile(self._prior, (X.n_rows, 1))
        for position, table in self._fact_tables:
            jll += table[X.fact_codes[:, column_of[position]]]
        for group in X.groups:
            jll += self._dim_contrib[group.name][group.dim_rows]
        return np.argmax(jll, axis=1)

    def __repr__(self) -> str:
        return (
            f"FactorizedScorer(kind={self._kind!r}, "
            f"{len(self._fact_tables)} fact features, "
            f"{len(self._dim_contrib)} dimensions)"
        )

"""The categorical execution operand: one-hot algebra over integer codes.

A one-hot encoded categorical matrix has exactly one nonzero per feature
per row, so every product the numeric models compute against it is a
gather or a scatter over the integer codes — multiplying the explicit
zeros is pure waste.  :class:`FactorizedMatrix` implements the kernels
the models actually need without ever allocating the dense
``(n, sum(n_levels))`` array:

- :meth:`FactorizedMatrix.matmul` — ``X @ W`` as per-feature row-gathers
  of ``W`` summed across features (forward passes, decision functions);
- :meth:`FactorizedMatrix.rmatmul` — ``X.T @ V`` as weighted
  ``bincount`` scatters into the one-hot columns (gradients,
  ``lambda_max`` screening);
- :meth:`FactorizedMatrix.match_counts` /
  :meth:`FactorizedMatrix.squared_distances` — Gram blocks and squared
  Euclidean distances via code-equality counts: for one-hot blocks
  ``x·z`` equals the number of matching features and
  ``||x - z||^2 = 2 (d - matches)`` (k-NN, SVM kernels).

Cost is ``O(n·d)`` per pass instead of ``O(n · sum(n_levels))`` — for
the paper's foreign keys with domains in the thousands to millions this
is the difference between training being dominated by multiplying zeros
and running at code-array speed.

The operand has two layouts.  The *zero-group* form
(:meth:`FactorizedMatrix.from_categorical`, which is what
:meth:`~repro.ml.encoding.CategoricalMatrix.onehot_view` returns) views
a gathered ``(n, d)`` code table as fact columns, sharing the codes.
The *grouped* form factorizes the KFK join itself out of the hot path:
a gathered table re-touches each fact row's copy of its dimension row —
``O(n·d)`` work even though a joined dimension has only ``|D|``
distinct rows — so it keeps the fact-local code columns as
``(n, d_fact)`` plus, per joined dimension, one ``(n,)`` FK-resolved
row vector and one ``(|D|, d_R)`` code block.  Kernels run the
per-dimension work once over the block (``O(|D|·d_R)``) and touch the
fact rows only through a single gather or ``bincount`` by FK code
(``O(n)`` per dimension).  Total per pass: ``O(n + |D|·d_R)`` instead
of ``O(n·d)`` — the win grows with the ``n/|D|`` fan-out, exactly the
regime where the paper's join-avoidance question bites.

Which layout a shard arrives in is decided per joined dimension by the
encoder that builds it (:class:`~repro.data.encoder.ShardEncoder`
groups a dimension only when the shard's fan-out over it pays), not by
the model.  Every numeric model accepts ``engine="implicit"`` (the
default) or ``engine="dense"`` (the materialised reference the tests
compare against).  Under the implicit engine, whether a model keeps a
grouped operand is a fixed property of the model: L1 logistic
regression and Naive Bayes pass ``keep_groups=True`` to
:func:`encode_features` and run the grouped kernels; the MLP, trees,
k-NN and SVC gather once on entry (their per-row work would otherwise
re-pay the block per minibatch or per comparison).  The module-level
:func:`matmul` / :func:`rmatmul` / :func:`take_rows` helpers dispatch
on the operand type so model code is written once for all paths, and
tests assert the paths agree to 1e-10 (bit-identical where summation
order is unchanged).
"""

from __future__ import annotations

import numpy as np

from repro.ml.encoding import CategoricalMatrix

#: Execution engines accepted by the numeric models.
ENGINES = ("implicit", "dense")


def check_engine(engine: str) -> str:
    """Validate an ``engine=`` hyper-parameter value."""
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    return engine


class FactorizedGroup:
    """One joined dimension's share of a :class:`FactorizedMatrix`.

    Parameters
    ----------
    name:
        The dimension's name (matches the schema / encoder naming so
        serving can pair groups with model-load precomputations).
    positions:
        Feature positions (indexes into the matrix's ``names``) of this
        dimension's foreign features, in feature order.
    dim_rows:
        ``(n,)`` FK-resolved dimension row per fact row.
    block:
        ``(n_dim_rows, len(positions))`` code block: column ``c`` holds
        the codes of feature ``positions[c]`` for every dimension row.
    """

    __slots__ = ("name", "positions", "dim_rows", "block")

    def __init__(
        self,
        name: str,
        positions: np.ndarray,
        dim_rows: np.ndarray,
        block: np.ndarray,
    ):
        self.name = name
        self.positions = np.asarray(positions, dtype=np.int64)
        self.dim_rows = np.asarray(dim_rows, dtype=np.int64)
        self.block = np.asarray(block, dtype=np.int64)
        if self.block.ndim != 2 or self.block.shape[1] != len(self.positions):
            raise ValueError(
                f"group {name!r} block has shape {self.block.shape}, "
                f"expected (n_dim_rows, {len(self.positions)})"
            )

    @property
    def n_dim_rows(self) -> int:
        """Distinct dimension rows the block covers, ``|D|``."""
        return self.block.shape[0]

    @property
    def nbytes(self) -> int:
        return int(
            self.positions.nbytes + self.dim_rows.nbytes + self.block.nbytes
        )

    def take_rows(self, rows: np.ndarray | slice) -> "FactorizedGroup":
        """The group restricted to a fact-row subset (block is shared)."""
        group = object.__new__(FactorizedGroup)
        group.name = self.name
        group.positions = self.positions
        group.dim_rows = self.dim_rows[rows]
        group.block = self.block
        return group

    def __repr__(self) -> str:
        return (
            f"FactorizedGroup({self.name!r}, d_R={len(self.positions)}, "
            f"n_dim_rows={self.n_dim_rows})"
        )


class FactorizedMatrix:
    """An implicit one-hot matrix: fact codes + per-dimension blocks.

    The fact-local feature columns are held as ``(n, d_fact)`` codes,
    and each joined dimension as a :class:`FactorizedGroup` holding the
    ``(n,)`` resolved dimension rows plus the dimension's ``(|D|, d_R)``
    code block.  The column layout (``names`` / ``n_levels`` /
    ``offsets``; block ``j`` starts at ``offsets[j]`` and has width
    ``n_levels[j]``) is exactly the column order of the dense
    ``CategoricalMatrix.onehot()`` encoding, and no kernel expands the
    dimension side per fact row:

    - :meth:`matmul` runs ``O(|D|·d_R)`` per dimension over the block,
      then one ``O(n)`` gather by resolved row;
    - :meth:`rmatmul` reduces the operand to per-dimension-row totals
      with one ``O(n)`` ``bincount``, then scatters the ``(|D|,)``
      totals through the block;
    - :meth:`match_counts` / :meth:`squared_distances` compare per-row
      codes, so only they (and :meth:`gather`) pay the per-dimension
      gather, and only for grouped operands.

    With no groups (see :meth:`from_categorical`) every kernel is the
    plain gather/scatter arithmetic over the shared code table.  With
    groups, float results match that arithmetic to 1e-10 (summation
    grouping differs) and integer-valued results are bit-identical.
    """

    __slots__ = (
        "names",
        "n_levels",
        "offsets",
        "fact_positions",
        "fact_codes",
        "groups",
        "_fact_flat",
    )

    def __init__(
        self,
        names,
        n_levels,
        fact_positions: np.ndarray,
        fact_codes: np.ndarray,
        groups,
    ):
        self.names = tuple(names)
        self.n_levels = tuple(int(k) for k in n_levels)
        self.offsets = np.concatenate(
            ([0], np.cumsum(self.n_levels))
        ).astype(np.int64)
        self.fact_positions = np.asarray(fact_positions, dtype=np.int64)
        self.fact_codes = np.asarray(fact_codes, dtype=np.int64)
        self.groups = tuple(groups)
        self._fact_flat: np.ndarray | None = None
        if self.fact_codes.ndim != 2:
            raise ValueError(
                f"fact_codes must be 2-D (n, d_fact), got shape "
                f"{self.fact_codes.shape}"
            )
        if self.fact_codes.shape[1] != len(self.fact_positions):
            raise ValueError(
                f"fact_codes has {self.fact_codes.shape[1]} columns for "
                f"{len(self.fact_positions)} fact positions"
            )
        covered = np.concatenate(
            [self.fact_positions] + [g.positions for g in self.groups]
        )
        if (
            len(covered) != len(self.names)
            or len(np.unique(covered)) != len(self.names)
            or (len(covered) and (covered.min() < 0 or covered.max() >= len(self.names)))
        ):
            raise ValueError(
                "fact_positions and group positions must partition "
                f"range({len(self.names)}); got {sorted(covered.tolist())}"
            )
        n = self.fact_codes.shape[0]
        for group in self.groups:
            if group.dim_rows.shape != (n,):
                raise ValueError(
                    f"group {group.name!r} has {group.dim_rows.shape[0]} "
                    f"dim_rows, expected {n}"
                )

    @classmethod
    def from_categorical(cls, source: CategoricalMatrix) -> "FactorizedMatrix":
        """The zero-group form: a view over a gathered matrix's codes.

        The ``(n, d)`` int64 code table is shared, not copied, and
        every kernel runs the plain per-feature gather/scatter over it.
        A ``CategoricalMatrix``
        already satisfies the constructor's checks, so they are skipped
        (streamed fits build this once per shard per pass).
        """
        view = object.__new__(cls)
        view.names = source.names
        view.n_levels = source.n_levels
        view.offsets = np.concatenate(
            ([0], np.cumsum(source.n_levels))
        ).astype(np.int64)
        view.fact_positions = np.arange(source.n_features, dtype=np.int64)
        view.fact_codes = source.codes
        view.groups = ()
        view._fact_flat = None
        return view

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Number of examples (fact rows)."""
        return self.fact_codes.shape[0]

    @property
    def n_features(self) -> int:
        """Number of categorical features across fact and dimensions."""
        return len(self.names)

    @property
    def onehot_width(self) -> int:
        """Width of the implied one-hot encoding (API parity with
        :class:`~repro.ml.encoding.CategoricalMatrix`)."""
        return int(self.offsets[-1])

    @property
    def width(self) -> int:
        """Width of the implied one-hot encoding, ``sum(n_levels)``."""
        return int(self.offsets[-1])

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the implied dense matrix, ``(n, width)``."""
        return (self.n_rows, self.width)

    @property
    def nbytes(self) -> int:
        """Resident bytes: fact codes, offsets, groups, flat-code cache.

        Part of the ``shard_working_set_bytes`` the streaming scale
        benchmark records.  A grouped operand is smaller than the
        ``n·d·8``-byte gathered code table by roughly the dimension
        fan-out; compare either against ``n_rows * width * 8`` for the
        dense encoding.
        """
        flat = self._fact_flat.nbytes if self._fact_flat is not None else 0
        return int(
            self.fact_codes.nbytes
            + self.fact_positions.nbytes
            + self.offsets.nbytes
            + sum(g.nbytes for g in self.groups)
            + flat
        )

    @property
    def codes(self) -> np.ndarray:
        """The gathered ``(n, d)`` code table, in feature order.

        The zero-group form returns its shared fact codes; a grouped
        operand pays the ``O(n·d_R)`` per-dimension gather the
        factorized kernels exist to avoid.
        """
        if not self.groups and np.array_equal(
            self.fact_positions, np.arange(self.n_features)
        ):
            return self.fact_codes
        codes = np.empty((self.n_rows, self.n_features), dtype=np.int64)
        if len(self.fact_positions):
            codes[:, self.fact_positions] = self.fact_codes
        for group in self.groups:
            # np.take is markedly faster than fancy row indexing here,
            # and this gather runs once per shard for every model that
            # gathers a grouped shard on entry.
            codes[:, group.positions] = np.take(
                group.block, group.dim_rows, axis=0
            )
        return codes

    def _fact_flat_codes(self) -> np.ndarray:
        """Fact codes shifted into one-hot column positions, cached."""
        if self._fact_flat is None:
            self._fact_flat = (
                self.fact_codes
                + self.offsets[self.fact_positions][np.newaxis, :]
            )
        return self._fact_flat

    def take_rows(self, rows: np.ndarray | slice) -> "FactorizedMatrix":
        """A subset of examples (index array, mask or slice): fact codes
        and per-group dimension rows are sliced, the dimension blocks
        are shared."""
        if not isinstance(rows, slice):
            rows = np.asarray(rows)
            if rows.dtype == bool:
                rows = np.flatnonzero(rows)
        view = object.__new__(FactorizedMatrix)
        view.names = self.names
        view.n_levels = self.n_levels
        view.offsets = self.offsets
        view.fact_positions = self.fact_positions
        view.fact_codes = self.fact_codes[rows]
        view.groups = tuple(g.take_rows(rows) for g in self.groups)
        view._fact_flat = None
        return view

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def matmul(self, W: np.ndarray) -> np.ndarray:
        """``X @ W`` for ``W`` of shape ``(width,)`` or ``(width, k)``.

        The fact part sums one gathered entry (or row) of ``W`` per
        feature, ``out[i] = sum_j W[offsets[j] + codes[i, j]]``; each
        dimension contributes ``block @ w`` evaluated once over its
        ``|D|`` rows and broadcast to the fact rows by one gather.
        """
        W = np.asarray(W, dtype=np.float64)
        if W.shape[0] != self.width:
            raise ValueError(
                f"operand has {W.shape[0]} rows, expected width {self.width}"
            )
        if len(self.fact_positions) and W.ndim == 1:
            out = W[self._fact_flat_codes()].sum(axis=1)
        else:
            out = np.zeros((self.n_rows,) + W.shape[1:], dtype=np.float64)
            if len(self.fact_positions):
                flat = self._fact_flat_codes()
                for j in range(flat.shape[1]):
                    out += W[flat[:, j]]
        for group in self.groups:
            contrib = np.zeros(
                (group.n_dim_rows,) + W.shape[1:], dtype=np.float64
            )
            for c, position in enumerate(group.positions):
                contrib += W[group.block[:, c] + self.offsets[position]]
            out += contrib[group.dim_rows]
        return out

    def rmatmul(self, V: np.ndarray) -> np.ndarray:
        """``X.T @ V`` for ``V`` of shape ``(n,)`` or ``(n, k)``.

        Fact columns scatter-add each example's value(s) with one
        weighted ``bincount`` per operand column (``np.add.at`` is an
        order of magnitude slower on this shape).  Each dimension
        collapses the operand to per-dimension-row totals first
        (``O(n)``), then scatters those ``(|D|,)`` totals through the
        block (``O(|D|·d_R)``) — the gradient never re-touches each fact
        row's copy of its dimension features.
        """
        V = np.asarray(V, dtype=np.float64)
        if V.shape[0] != self.n_rows:
            raise ValueError(
                f"operand has {V.shape[0]} rows, expected {self.n_rows}"
            )
        if self.n_features == 0:
            return np.zeros((0,) + V.shape[1:], dtype=np.float64)
        # An explicit trailing dimension: reshape(n, -1) cannot infer
        # -1 for a 0-row operand (empty shards are legal).
        k = 1 if V.ndim == 1 else int(np.prod(V.shape[1:]))
        V2 = V.reshape(V.shape[0], k)
        d_fact = len(self.fact_positions)
        if d_fact:
            # One-hot blocks are disjoint per feature, so every output
            # slot accumulates its contributions in row order — the
            # same sums an ``np.add.at`` scatter produces, bit for bit.
            flat_all = self._fact_flat_codes().ravel()
            out = np.empty((self.width, k), dtype=np.float64)
            for column in range(k):
                weights = (
                    V2[:, column]
                    if d_fact == 1
                    else np.repeat(V2[:, column], d_fact)
                )
                out[:, column] = np.bincount(
                    flat_all, weights=weights, minlength=self.width
                )
        else:
            out = np.zeros((self.width, k), dtype=np.float64)
        for group in self.groups:
            totals = np.empty((group.n_dim_rows, k), dtype=np.float64)
            for column in range(k):
                totals[:, column] = np.bincount(
                    group.dim_rows,
                    weights=V2[:, column],
                    minlength=group.n_dim_rows,
                )
            for c, position in enumerate(group.positions):
                offset = int(self.offsets[position])
                n_levels = self.n_levels[position]
                for column in range(k):
                    out[offset : offset + n_levels, column] += np.bincount(
                        group.block[:, c],
                        weights=totals[:, column],
                        minlength=n_levels,
                    )
        return out.reshape((self.width,) + V.shape[1:])

    def match_counts(
        self, other: "FactorizedMatrix", chunk_size: int = 512
    ) -> np.ndarray:
        """Pairwise counts of matching features — the linear-kernel Gram.

        For one-hot blocks ``x_i · z_j`` is exactly the number of
        features on which the code vectors agree, so this *is*
        ``self.toarray() @ other.toarray().T`` without the encoding.
        Zero-group operands compare their shared codes directly; a
        grouped one is gathered first.  Computed in row chunks of
        ``self``, one feature at a time: each feature's equality mask
        goes into a reused ``chunk_size × m`` boolean buffer and is
        added into an integer counter of the smallest unsigned dtype
        that holds ``d``, so the temporaries are ``chunk_size × m``
        whatever the width.  The counts are exact integers, so the
        float64 result is the same bit for bit as any other exact
        summation.
        """
        if not isinstance(other, FactorizedMatrix):
            raise TypeError(
                f"match_counts needs another FactorizedMatrix, got "
                f"{type(other).__name__}"
            )
        if self.n_levels != other.n_levels:
            raise ValueError(
                "match_counts requires identical feature domains; got "
                f"{self.n_levels} vs {other.n_levels}"
            )
        n, m = self.n_rows, other.n_rows
        out = np.zeros((n, m), dtype=np.float64)
        if self.n_features == 0:
            return out
        # Feature-major copies make every per-feature column contiguous.
        A = np.ascontiguousarray(self.codes.T)
        B = np.ascontiguousarray(other.codes.T)
        rows = min(chunk_size, n)
        mask = np.empty((rows, m), dtype=bool)
        counts = np.empty((rows, m), dtype=np.min_scalar_type(self.n_features))
        for start in range(0, n, chunk_size):
            stop = min(start + chunk_size, n)
            buf, acc = mask[: stop - start], counts[: stop - start]
            acc.fill(0)
            for a, b in zip(A[:, start:stop], B):
                np.equal(a[:, np.newaxis], b[np.newaxis, :], out=buf)
                acc += buf
            out[start:stop] = acc
        return out

    def squared_distances(
        self, other: "FactorizedMatrix", chunk_size: int = 512
    ) -> np.ndarray:
        """Pairwise squared Euclidean distances in one-hot space.

        Each mismatching feature contributes exactly 2 (a 1 where the
        other has 0, twice), so ``||x - z||^2 = 2 (d - matches)`` —
        the identity behind the paper's Section 5 distance analysis.
        """
        return 2.0 * (
            self.n_features - self.match_counts(other, chunk_size=chunk_size)
        )

    # ------------------------------------------------------------------
    # Gathered and dense escape hatches
    # ------------------------------------------------------------------
    def gather(self) -> CategoricalMatrix:
        """The gathered ``(n, d)`` categorical matrix (see :attr:`codes`)."""
        return CategoricalMatrix(
            self.codes, self.n_levels, self.names, validate=False
        )

    def toarray(self) -> np.ndarray:
        """Materialise the dense one-hot equivalent.

        The single owner of the dense construction:
        ``CategoricalMatrix.onehot()`` delegates here.
        """
        out = np.zeros(self.shape, dtype=np.float64)
        rows = np.arange(self.n_rows)[:, np.newaxis]
        if len(self.fact_positions):
            out[rows, self._fact_flat_codes()] = 1.0
        for group in self.groups:
            out[
                rows, group.block[group.dim_rows] + self.offsets[group.positions]
            ] = 1.0
        return out

    def __repr__(self) -> str:
        return (
            f"FactorizedMatrix(n={self.n_rows}, d={self.n_features}, "
            f"d_fact={len(self.fact_positions)}, "
            f"groups={[g.name for g in self.groups]}, width={self.width})"
        )


# ----------------------------------------------------------------------
# Engine dispatch
# ----------------------------------------------------------------------
def encode_features(
    X: "CategoricalMatrix | FactorizedMatrix",
    engine: str = "implicit",
    keep_groups: bool = False,
) -> "FactorizedMatrix | np.ndarray":
    """Encode a feature matrix under the chosen execution engine.

    ``keep_groups=True`` (the grouped-kernel models) keeps a grouped
    :class:`FactorizedMatrix` as it is under the implicit engine;
    otherwise a grouped operand is gathered once here.  Either way a
    gathered :class:`~repro.ml.encoding.CategoricalMatrix` becomes the
    zero-group form over its codes, and ``"dense"`` materialises the
    one-hot array.
    """
    check_engine(engine)
    if isinstance(X, FactorizedMatrix):
        if keep_groups and engine == "implicit":
            return X
        X = X.gather()
    if engine == "dense":
        return X.onehot()
    return FactorizedMatrix.from_categorical(X)


def matmul(A: "FactorizedMatrix | np.ndarray", W: np.ndarray) -> np.ndarray:
    """``A @ W`` for any engine's operand."""
    if isinstance(A, FactorizedMatrix):
        return A.matmul(W)
    return A @ W


def rmatmul(A: "FactorizedMatrix | np.ndarray", V: np.ndarray) -> np.ndarray:
    """``A.T @ V`` for any engine's operand."""
    if isinstance(A, FactorizedMatrix):
        return A.rmatmul(V)
    return A.T @ V


def take_rows(
    A: "FactorizedMatrix | np.ndarray", rows: np.ndarray | slice
) -> "FactorizedMatrix | np.ndarray":
    """Row subset of any engine's operand."""
    if isinstance(A, FactorizedMatrix):
        return A.take_rows(rows)
    return A[rows]

"""Bounded fact-table shards with a stable order.

The out-of-core engine never holds all fact rows at once.  A
:class:`ShardPlan` cuts ``n_rows`` rows into contiguous shards of at
most ``shard_rows`` each (never empty — the final shard simply runs
short); a :class:`ShardedDataset` binds a plan to a star schema and a
shard *loader*, the function that materialises one shard's fact rows on
demand.  Four sources are supported:

- :meth:`ShardedDataset.from_split` — one split of an in-memory
  :class:`~repro.datasets.splits.SplitDataset` (the equivalence-testing
  workhorse: streaming over these shards sees exactly the rows the
  in-memory path sees, in the same order).
- :meth:`ShardedDataset.from_table` — every row of a schema's fact
  table.
- :meth:`ShardedDataset.from_population` — shards drawn lazily from a
  :class:`~repro.datasets.synthetic.ScenarioPopulation`.  Each shard
  has its own child seed (spawned via :mod:`repro.rng` semantics), so
  ``shard(i)`` is deterministic, random-access, and re-iterable without
  the full dataset ever existing.
- :meth:`ShardedDataset.from_csv` — a fact CSV streamed through
  :func:`repro.relational.io.iter_csv_chunks`.  A first bounded-memory
  pass infers the closed domains and row count; shards re-read the file
  chunk by chunk, so peak memory is one chunk plus the (small)
  dimension tables.

Every source yields the same thing: :class:`FactShard` objects whose
``fact`` is an ordinary :class:`~repro.relational.table.Table` sharing
the schema's closed domains, ready for per-shard joins.
"""

from __future__ import annotations

import csv
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import CSVIntegrityError, SchemaError
from repro.relational.column import CategoricalColumn, Domain
from repro.relational.io import (
    _record_offset,
    csv_header,
    iter_csv_chunks,
    table_from_csv,
)
from repro.relational.schema import KFKConstraint, StarSchema
from repro.relational.table import Table
from repro.rng import ensure_rng


@dataclass(frozen=True)
class ShardPlan:
    """How ``n_rows`` rows are cut into bounded, stably ordered shards."""

    n_rows: int
    shard_rows: int

    def __post_init__(self) -> None:
        if self.n_rows < 0:
            raise ValueError(f"n_rows must be >= 0, got {self.n_rows}")
        if self.shard_rows < 1:
            raise ValueError(f"shard_rows must be >= 1, got {self.shard_rows}")

    @property
    def n_shards(self) -> int:
        """Number of shards; every shard holds at least one row."""
        return -(-self.n_rows // self.shard_rows)

    def bounds(self, index: int) -> tuple[int, int]:
        """Half-open row range ``[start, stop)`` of shard ``index``."""
        if not 0 <= index < self.n_shards:
            raise IndexError(
                f"shard index {index} out of range for {self.n_shards} shards"
            )
        start = index * self.shard_rows
        return start, min(start + self.shard_rows, self.n_rows)

    def shard_sizes(self) -> list[int]:
        """Row count of every shard, in shard order."""
        return [
            self.bounds(i)[1] - self.bounds(i)[0] for i in range(self.n_shards)
        ]


def plan_shards(
    n_rows: int, shard_rows: int | None = None, n_shards: int | None = None
) -> ShardPlan:
    """Build a plan from either a shard size or a shard count.

    Exactly one of ``shard_rows`` / ``n_shards`` may be given; neither
    defaults to a single shard holding everything.  A ``shard_rows``
    larger than the table degenerates to one shard — oversized bounds
    are a no-op, not an error.
    """
    if shard_rows is not None and n_shards is not None:
        raise ValueError("pass shard_rows or n_shards, not both")
    if shard_rows is None:
        if n_shards is None:
            n_shards = 1
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        shard_rows = max(1, -(-n_rows // n_shards))
    return ShardPlan(n_rows=n_rows, shard_rows=shard_rows)


@dataclass(frozen=True)
class FactShard:
    """One bounded block of fact rows, tagged with its stable position."""

    index: int
    fact: Table

    @property
    def n_rows(self) -> int:
        return self.fact.n_rows


def _scan_csv_fact(
    path: Path, chunk_rows: int
) -> tuple[list[str], dict[str, dict], int, list[int]]:
    """One bounded-memory pass over a fact CSV for construction metadata.

    Returns ``(header, per-column label sets in first-appearance order,
    row count, chunk byte offsets)``.  ``csv.reader`` pulls lines from
    the handle strictly on demand, so between two complete records the
    handle sits exactly at the next record's first byte — ``tell()``
    there is a valid ``seek()`` target even when quoted fields span
    physical lines.  Random shard access (shuffled epochs) then costs
    one seek plus one chunk parse instead of re-parsing the file from
    the top.
    """
    header = csv_header(path)
    label_order: dict[str, dict] = {name: {} for name in header}
    offsets: list[int] = []
    n_rows = 0
    with path.open(newline="") as handle:
        # Iterating a text file with __next__ disables tell(); a
        # readline()-backed generator keeps it legal, and csv.reader
        # consumes lines from it strictly on demand.
        def lines():
            while True:
                line = handle.readline()
                if not line:
                    return
                yield line

        reader = csv.reader(lines())
        next(reader)  # header, validated by csv_header above
        offsets.append(handle.tell())
        for record, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise CSVIntegrityError(
                    path,
                    f"expected {len(header)} fields, got {len(row)}",
                    row=record,
                    byte_offset=_record_offset(path, record + 1),
                )
            for name, value in zip(header, row):
                label_order[name].setdefault(value, None)
            n_rows += 1
            if n_rows % chunk_rows == 0:
                offsets.append(handle.tell())
    # A row count divisible by chunk_rows leaves a trailing EOF offset.
    n_chunks = -(-n_rows // chunk_rows) if n_rows else 0
    return header, label_order, n_rows, offsets[:n_chunks]


def _child_seeds(seed, count: int) -> list:
    """Deterministic per-shard seeds, re-derivable on every access.

    Mirrors :func:`repro.rng.spawn_rngs` but returns seed material
    instead of live generators, so ``shard(i)`` can rebuild an
    *unconsumed* generator no matter how often or in what order shards
    are loaded.
    """
    root = ensure_rng(seed)
    seq = getattr(root.bit_generator, "seed_seq", None)
    if seq is not None:
        return list(seq.spawn(count))
    return [int(root.integers(0, 2**63 - 1)) for _ in range(count)]


# ShardedDataset sits *below* the feature layer: iter_shards yields
# raw FactShard tables, not encoded matrices, so the FeatureSource
# metadata surface (feature_names/n_levels/n_classes) does not exist
# yet at this level.  # repro: lint-ignore[feature-source]
class ShardedDataset:
    """A star schema whose fact rows are visited as bounded shards.

    Parameters
    ----------
    schema:
        The star schema.  For out-of-core sources the fact table inside
        it may be empty — it then only carries column structure and
        closed domains, while rows arrive via the loader.
    plan:
        The shard layout.
    loader:
        ``loader(i) -> Table`` materialising shard ``i``'s fact rows.
        Must be deterministic: the engine re-reads shards across
        passes.
    scanner:
        Optional generator of all shard tables in stable order; sources
        with cheap sequential access but expensive random access (CSV)
        provide it so full passes avoid re-scanning per shard.
    source:
        Human-readable provenance for ``repr``.

    ``resident`` is ``True`` only for :meth:`from_split` and
    :meth:`from_table`, whose loaders slice a table already in memory.
    """

    resident = False

    def __init__(
        self,
        schema: StarSchema,
        plan: ShardPlan,
        loader: Callable[[int], Table],
        scanner: Callable[[], Iterator[Table]] | None = None,
        source: str = "custom",
    ):
        self.schema = schema
        self.plan = plan
        self._loader = loader
        self._scanner = scanner
        self.source = source

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Total fact rows across all shards."""
        return self.plan.n_rows

    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return self.plan.n_shards

    @property
    def shard_rows(self) -> int:
        """Upper bound on rows per shard."""
        return self.plan.shard_rows

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def shard(self, index: int) -> FactShard:
        """Materialise one shard by stable index."""
        start, stop = self.plan.bounds(index)
        fact = self._loader(index)
        expected = stop - start
        if fact.n_rows != expected:
            raise SchemaError(
                f"shard {index} produced {fact.n_rows} rows, plan expects "
                f"{expected}"
            )
        return FactShard(index=index, fact=fact)

    def iter_shards(
        self, order: Sequence[int] | np.ndarray | None = None
    ) -> Iterator[FactShard]:
        """Iterate shards, in stable order unless ``order`` reorders them.

        Sequential scans get the same plan-vs-actual row-count check as
        :meth:`shard`, so a source that changed size between planning
        and training (e.g. a truncated CSV) fails loudly instead of
        silently training on fewer rows than the plan promised.
        """
        if order is None:
            if self._scanner is not None:
                count = 0
                for index, fact in enumerate(self._scanner()):
                    if index >= self.n_shards:
                        raise SchemaError(
                            f"source produced more than the planned "
                            f"{self.n_shards} shards (changed during "
                            f"streaming?)"
                        )
                    start, stop = self.plan.bounds(index)
                    if fact.n_rows != stop - start:
                        raise SchemaError(
                            f"shard {index} produced {fact.n_rows} rows, "
                            f"plan expects {stop - start}"
                        )
                    count += 1
                    yield FactShard(index=index, fact=fact)
                if count != self.n_shards:
                    raise SchemaError(
                        f"source produced {count} shards, plan expects "
                        f"{self.n_shards} (changed during streaming?)"
                    )
                return
            order = range(self.n_shards)
        for index in order:
            yield self.shard(int(index))

    def __repr__(self) -> str:
        return (
            f"ShardedDataset(source={self.source!r}, n_rows={self.n_rows}, "
            f"n_shards={self.n_shards}, shard_rows={self.shard_rows})"
        )

    # ------------------------------------------------------------------
    # Sources
    # ------------------------------------------------------------------
    @classmethod
    def from_split(
        cls,
        dataset,
        shard_rows: int | None = None,
        n_shards: int | None = None,
        split: str = "train",
    ) -> "ShardedDataset":
        """Shard one split of an in-memory :class:`SplitDataset`.

        Shard ``i`` holds rows ``split_rows[i*shard_rows:(i+1)*shard_rows]``
        — the same rows, in the same order, that the in-memory path's
        ``take_rows`` would select, which is what makes streaming-vs-
        in-memory equivalence exact.
        """
        rows = dataset.rows(split)
        plan = plan_shards(rows.size, shard_rows, n_shards)
        schema = dataset.schema

        def load(index: int) -> Table:
            start, stop = plan.bounds(index)
            return schema.fact.select(rows[start:stop])

        sharded = cls(schema, plan, load, source=f"split:{dataset.name}/{split}")
        sharded.resident = True
        return sharded

    @classmethod
    def from_table(
        cls,
        schema: StarSchema,
        shard_rows: int | None = None,
        n_shards: int | None = None,
    ) -> "ShardedDataset":
        """Shard every fact row of a star schema, in table order."""
        plan = plan_shards(schema.fact.n_rows, shard_rows, n_shards)

        def load(index: int) -> Table:
            start, stop = plan.bounds(index)
            return schema.fact.select(np.arange(start, stop))

        sharded = cls(schema, plan, load, source=f"table:{schema.fact.name}")
        sharded.resident = True
        return sharded

    @classmethod
    def from_population(
        cls,
        population,
        n_rows: int,
        shard_rows: int | None = None,
        n_shards: int | None = None,
        seed: int | np.random.Generator | None = 0,
    ) -> "ShardedDataset":
        """Shards drawn lazily from a :class:`ScenarioPopulation`.

        Each shard draws its rows with an independent child seed, so the
        dataset is fully determined by ``seed`` yet no more than one
        shard of it ever exists at a time.  (The row *content* therefore
        differs from a single ``draw(rng, n_rows)`` call — sharding is a
        different, equally valid sample of the same population.)
        """
        plan = plan_shards(n_rows, shard_rows, n_shards)
        seeds = _child_seeds(seed, plan.n_shards)
        schema = population.schema_skeleton()

        def load(index: int) -> Table:
            start, stop = plan.bounds(index)
            rng = ensure_rng(seeds[index])
            return population.block_table(population.draw(rng, stop - start))

        return cls(schema, plan, load, source=f"population:{population.name}")

    @classmethod
    def from_csv(
        cls,
        fact_path: str | Path,
        target: str,
        dimensions: list[tuple[str | Path, str, str]],
        shard_rows: int,
        fact_key: str | None = None,
        open_fks: set[str] | frozenset[str] = frozenset(),
    ) -> "ShardedDataset":
        """Shard a fact CSV without ever loading it whole.

        A first pass streams the file in ``shard_rows``-bounded chunks
        to count rows and infer each column's closed domain
        (first-appearance order, with foreign-key domains unioned with
        the dimension keys, fact side first — the same convention as
        :func:`repro.relational.io.star_schema_from_csv`).  Dimension
        CSVs are loaded eagerly: the paper's tuple-ratio premise is that
        they are small.  The returned schema carries an empty fact
        table; shards re-read the CSV chunk by chunk on demand.
        """
        fact_path = Path(fact_path)
        fk_of_dim = {str(path): fk for path, fk, _ in dimensions}
        if len(fk_of_dim) != len(dimensions):
            raise SchemaError("duplicate dimension CSV paths")

        # Pass 1: row count, per-column label sets and chunk byte
        # offsets, in one bounded-memory scan of the file.
        columns, label_order, n_rows, offsets = _scan_csv_fact(
            fact_path, shard_rows
        )
        if n_rows == 0:
            raise SchemaError(
                f"{fact_path}: no data rows — cannot infer closed domains "
                f"from an empty fact table"
            )

        # Shared key domains: fact FK values first, then dimension keys.
        domains: dict[str, Domain] = {}
        dim_tables: list[tuple[Table, KFKConstraint]] = []
        for path, fk, rid in dimensions:
            if fk not in label_order:
                raise SchemaError(
                    f"fact table lacks foreign key column {fk!r}"
                )
            dim_probe = table_from_csv(path)
            if rid not in dim_probe:
                raise SchemaError(f"{Path(path)}: missing key column {rid!r}")
            seen = dict(label_order[fk])
            for value in dim_probe.column(rid).labels():
                seen.setdefault(value, None)
            shared = Domain(seen.keys())
            domains[fk] = shared
            dim_table = table_from_csv(path, domains={rid: shared})
            dim_tables.append((dim_table, KFKConstraint(fk, dim_table.name, rid)))
        for name in columns:
            if name not in domains:
                domains[name] = Domain(label_order[name].keys())

        empty = Table(
            fact_path.stem,
            [
                CategoricalColumn(name, domains[name], np.zeros(0, dtype=np.int64))
                for name in columns
            ],
        )
        schema = StarSchema(
            fact=empty,
            target=target,
            dimensions=dim_tables,
            fact_key=fact_key,
            open_fks=frozenset(open_fks),
        )
        plan = ShardPlan(n_rows=n_rows, shard_rows=shard_rows)

        def chunk_table(chunk: dict[str, list[str]]) -> Table:
            return Table(
                fact_path.stem,
                [
                    CategoricalColumn(
                        name, domains[name], domains[name].encode(values)
                    )
                    for name, values in chunk.items()
                ],
            )

        def load(index: int) -> Table:
            start, stop = plan.bounds(index)
            chunk: dict[str, list[str]] = {name: [] for name in columns}
            with fact_path.open(newline="") as handle:
                handle.seek(offsets[index])
                reader = csv.reader(handle)
                for position in range(stop - start):
                    try:
                        row = next(reader)
                    except StopIteration:
                        # The file now ends before this shard's rows:
                        # truncated (or rewritten shorter) after the
                        # planning pass.  EOF is where the missing row
                        # would have started.
                        raise CSVIntegrityError(
                            fact_path,
                            f"shard {index} ran out of rows (file "
                            f"truncated or changed during streaming?)",
                            row=start + position + 1,
                            byte_offset=fact_path.stat().st_size,
                        ) from None
                    if len(row) != len(columns):
                        raise CSVIntegrityError(
                            fact_path,
                            f"shard {index}: expected {len(columns)} "
                            f"fields, got {len(row)}",
                            row=start + position + 1,
                            byte_offset=_record_offset(
                                fact_path, start + position + 2
                            ),
                        )
                    for name, value in zip(columns, row):
                        chunk[name].append(value)
            return chunk_table(chunk)

        def scan() -> Iterator[Table]:
            for i, chunk in enumerate(iter_csv_chunks(fact_path, shard_rows)):
                if i >= plan.n_shards:
                    raise SchemaError(
                        f"{fact_path}: more rows than the first pass counted "
                        f"(file changed during streaming?)"
                    )
                yield chunk_table(chunk)

        return cls(schema, plan, load, scanner=scan, source=f"csv:{fact_path.name}")

"""Measurement plumbing shared by the workloads of :mod:`perfbench.workloads`.

Everything here observes the program from outside: percentiles over
wall-clock samples, the kernel's resident-memory high-water mark, and a
:class:`~repro.data.SourceDecorator` that times how long a consumer
waits for each shard.
"""

from __future__ import annotations

import resource
import time
from pathlib import Path

import numpy as np

from repro.data import SourceDecorator
from repro.obs import trace


def percentile(values, q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation)."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return percentile(values, 50)


def timed(fn, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - started, result


class PeakRSS:
    """Peak resident memory of one phase, from the kernel's high-water mark.

    :meth:`reset` rewinds ``VmHWM`` to the current resident size
    (``/proc/self/clear_refs``), so :meth:`peak_mb` afterwards covers
    only the phase that followed.  Where the reset is refused the
    process-lifetime peak is reported instead, which can only be higher.
    """

    _STATUS = Path("/proc/self/status")
    _CLEAR_REFS = Path("/proc/self/clear_refs")

    def reset(self) -> None:
        try:
            self._CLEAR_REFS.write_text("5")
        except OSError:
            pass

    def peak_mb(self) -> float:
        try:
            for line in self._STATUS.read_text().splitlines():
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class TimingSource(SourceDecorator):
    """Time how long the consumer of a source waits for each shard.

    Every shard read runs inside a merged ``data.produce`` span, and the
    decorator counts shards and rows produced and which shard indices
    were distinct, so a traced fit shows how much of it is data
    production and how much of that production repeats earlier work.
    Shards pass through unchanged.
    """

    def __init__(self, source):
        super().__init__(source)
        self.shards_produced = 0
        self.rows_produced = 0
        self.distinct = set()

    def _produced(self, index: int, y) -> None:
        self.shards_produced += 1
        self.rows_produced += int(len(y))
        self.distinct.add(int(index))

    def shard(self, index: int):
        with trace("data.produce", merge=True):
            X, y = self.source.shard(index)
        self._produced(index, y)
        return X, y

    def iter_shards(self, order=None):
        count = self.n_shards if order is None else len(order)
        inner = self.source.iter_shards(order)
        try:
            # A bounded loop, so no span ever wraps the final
            # StopIteration.
            for _ in range(count):
                with trace("data.produce", merge=True):
                    index, X, y = next(inner)
                self._produced(index, y)
                yield index, X, y
        finally:
            inner.close()

    def labels(self):
        with trace("data.produce", merge=True):
            return self.source.labels()

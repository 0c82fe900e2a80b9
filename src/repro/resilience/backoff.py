"""The one place in ``src/repro`` allowed to block on the clock.

Every deliberate delay in the library — retry backoff, injected slow
shards, open-loop load-generator pacing — funnels through
:func:`sleep`.  The ``raw-sleep`` rule of ``repro lint`` enforces the
funnel: a bare ``time.sleep()`` anywhere else in ``src/repro`` fails
the lint.  One chokepoint means sleeping is always attributable (the
caller states why via the surrounding code) and tests can monkeypatch a
single function to make every backoff instantaneous.
"""

from __future__ import annotations

import time


def sleep(seconds: float) -> None:
    """Block the calling thread for ``seconds`` (no-op when <= 0)."""
    if seconds > 0:
        time.sleep(seconds)

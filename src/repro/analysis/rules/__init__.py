"""The rule registry: every analyzer ``repro lint`` ships, plus the
default per-rule allowlists naming the sanctioned chokepoint modules.

Adding a rule is: write a :class:`~repro.analysis.engine.Rule` subclass
in a module here, append an instance to :data:`ALL_RULES`, give it a
fixture test in ``tests/test_analysis_rules.py``.  Rule ids are stable
API — suppression comments and ``--rule`` flags reference them.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.engine import AnalysisConfig, Rule
from repro.analysis.rules.determinism import UnseededRandomRule
from repro.analysis.rules.exceptions import ExceptionHygieneRule
from repro.analysis.rules.hygiene import BarePrintRule, RawSleepRule, WallClockRule
from repro.analysis.rules.locks import LockDisciplineRule
from repro.analysis.rules.protocol import FeatureSourceRule
from repro.errors import StaticAnalysisError

__all__ = ["ALL_RULES", "DEFAULT_CONFIG", "get_rules"]

#: Every shipped rule, in catalog order.
ALL_RULES: tuple[Rule, ...] = (
    WallClockRule(),
    BarePrintRule(),
    RawSleepRule(),
    UnseededRandomRule(),
    LockDisciplineRule(),
    ExceptionHygieneRule(),
    FeatureSourceRule(),
)

#: The sanctioned chokepoints.  Patterns match the end of the scanned
#: path, so they hold whether the scan root is ``src``, ``src/repro``,
#: or the repo root.  Benchmarks are exempt from ``bare-print`` —
#: they are human-facing reporting scripts, not library code.
DEFAULT_CONFIG = AnalysisConfig(
    allowlists={
        "bare-print": ("repro/obs/console.py", "benchmarks/*"),
        "raw-sleep": ("repro/resilience/backoff.py",),
        "unseeded-random": ("repro/rng.py",),
    }
)


def get_rules(ids: Sequence[str] | None = None) -> tuple[Rule, ...]:
    """Resolve ``--rule`` selections against the registry.

    ``None``/empty selects every rule; unknown ids raise
    :class:`~repro.errors.StaticAnalysisError`.
    """
    if not ids:
        return ALL_RULES
    by_id = {rule.id: rule for rule in ALL_RULES}
    unknown = [rule_id for rule_id in ids if rule_id not in by_id]
    if unknown:
        raise StaticAnalysisError(
            f"unknown rule id(s): {', '.join(sorted(unknown))}"
            f" (known: {', '.join(sorted(by_id))})"
        )
    return tuple(by_id[rule_id] for rule_id in dict.fromkeys(ids))

"""The analysis engine: findings, discovery, allowlists, suppressions.

Rule *behaviour* lives in ``test_analysis_rules.py``; this file covers
the machinery every rule rides on — most importantly the
``# repro: lint-ignore[rule-id]`` contract: a suppression silences
exactly one line for exactly one rule, unknown rule ids are findings,
and a suppression that silenced nothing is itself a finding.
"""

from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisConfig,
    Finding,
    get_rules,
    run_analysis,
)
from repro.analysis.rules import ALL_RULES
from repro.errors import ReproError, StaticAnalysisError

ALL_IDS = tuple(rule.id for rule in ALL_RULES)


def _lint(tmp_path, source, name="module.py", rules=None, config=None):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return run_analysis(
        [path],
        rules if rules is not None else ALL_RULES,
        config=config,
        known_rule_ids=ALL_IDS,
    )


class TestFinding:
    def test_format_is_path_line_rule_message(self):
        finding = Finding(path="a/b.py", line=7, rule="wall-clock", message="nope")
        assert finding.format() == "a/b.py:7: [wall-clock] nope"

    def test_as_dict_round_trips_the_fields(self):
        finding = Finding(path="x.py", line=1, rule="r", message="m")
        assert finding.as_dict() == {
            "path": "x.py",
            "line": 1,
            "rule": "r",
            "message": "m",
        }

    def test_findings_sort_by_path_then_line(self):
        a = Finding(path="a.py", line=9, rule="r", message="m")
        b = Finding(path="b.py", line=1, rule="r", message="m")
        c = Finding(path="a.py", line=2, rule="r", message="m")
        assert sorted([a, b, c]) == [c, a, b]


class TestDiscoveryAndParsing:
    def test_clean_file_reports_ok(self, tmp_path):
        report = _lint(tmp_path, "value = 1\n")
        assert report.ok
        assert report.files == 1

    def test_directory_walk_counts_every_file(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "b.py").write_text("y = 2\n")
        report = run_analysis([tmp_path], ALL_RULES)
        assert report.files == 2

    def test_missing_target_is_a_usage_error(self, tmp_path):
        with pytest.raises(StaticAnalysisError):
            run_analysis([tmp_path / "nope"], ALL_RULES)

    def test_usage_errors_are_repro_errors(self):
        # The CLI maps ReproError to exit 2; the analysis errors must
        # participate in that contract.
        assert issubclass(StaticAnalysisError, ReproError)

    def test_syntax_error_is_a_finding_and_scan_continues(self, tmp_path):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        (tmp_path / "dirty.py").write_text("import time\nt = time.time()\n")
        (tmp_path / "noisy.py").write_text("print('oops')\n")
        report = run_analysis([tmp_path], ALL_RULES)
        rules = {finding.rule for finding in report.findings}
        assert rules == {"parse-error", "wall-clock", "bare-print"}
        assert len(report.findings) == 3

    def test_non_utf8_is_a_finding(self, tmp_path):
        (tmp_path / "latin.py").write_bytes(b"# \xff\xfe\nx = 1\n")
        report = run_analysis([tmp_path], ALL_RULES)
        assert [finding.rule for finding in report.findings] == ["parse-error"]
        # An unreadable file does not stop the scan either.
        (tmp_path / "noisy.py").write_text("print('oops')\n")
        report = run_analysis([tmp_path], ALL_RULES)
        assert [finding.rule for finding in report.findings] == [
            "parse-error",
            "bare-print",
        ]


class TestAllowlists:
    def test_allowlisted_path_is_exempt_for_that_rule_only(self, tmp_path):
        config = AnalysisConfig(allowlists={"wall-clock": ("*/special.py",)})
        source = "import time\nt = time.time()\nprint('x')\n"
        report = _lint(tmp_path, source, name="special.py", config=config)
        assert [finding.rule for finding in report.findings] == ["bare-print"]

    def test_suffix_patterns_match_any_scan_root(self):
        config = AnalysisConfig(allowlists={"r": ("repro/rng.py",)})
        assert config.allows("r", "src/repro/rng.py")
        assert config.allows("r", "repro/rng.py")
        assert not config.allows("r", "src/repro/rng_helpers.py")


class TestSuppressions:
    def test_trailing_suppression_silences_exactly_that_line(self, tmp_path):
        source = (
            "import time\n"
            "a = time.time()  # repro: lint-ignore[wall-clock]\n"
            "b = time.time()\n"
        )
        report = _lint(tmp_path, source)
        assert [finding.line for finding in report.findings] == [3]

    def test_suppression_is_per_rule_not_per_line(self, tmp_path):
        # The wall-clock suppression must not swallow the bare-print
        # finding on the same line.
        source = "import time\nprint(time.time())  # repro: lint-ignore[wall-clock]\n"
        report = _lint(tmp_path, source)
        assert [finding.rule for finding in report.findings] == ["bare-print"]

    def test_comment_only_line_targets_next_code_line(self, tmp_path):
        source = (
            "import time\n"
            "# repro: lint-ignore[wall-clock]\n"
            "a = time.time()\n"
        )
        report = _lint(tmp_path, source)
        assert report.ok

    def test_comma_separated_ids_silence_both_rules(self, tmp_path):
        source = (
            "import time\n"
            "print(time.time())  # repro: lint-ignore[wall-clock, bare-print]\n"
        )
        report = _lint(tmp_path, source)
        assert report.ok

    def test_unknown_rule_id_is_a_finding(self, tmp_path):
        report = _lint(tmp_path, "x = 1  # repro: lint-ignore[no-such-rule]\n")
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.rule == "lint-ignore"
        assert "unknown rule id" in finding.message

    def test_unused_suppression_is_a_finding(self, tmp_path):
        report = _lint(tmp_path, "x = 1  # repro: lint-ignore[wall-clock]\n")
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.rule == "lint-ignore"
        assert "unused" in finding.message

    def test_used_suppression_is_not_flagged_unused(self, tmp_path):
        source = "import time\nt = time.time()  # repro: lint-ignore[wall-clock]\n"
        report = _lint(tmp_path, source)
        assert report.ok

    def test_docstring_mention_is_not_a_suppression(self, tmp_path):
        source = '"""Docs show ``# repro: lint-ignore[wall-clock]`` syntax."""\n'
        report = _lint(tmp_path, source)
        assert report.ok  # in particular: not flagged as unused

    def test_suppression_for_unselected_rule_is_left_alone(self, tmp_path):
        # Running only bare-print must neither apply nor flag-as-unused
        # a wall-clock suppression: the rule simply did not run.
        source = "x = 1  # repro: lint-ignore[wall-clock]\n"
        report = _lint(tmp_path, source, rules=get_rules(["bare-print"]))
        assert report.ok


class TestRuleSelection:
    def test_get_rules_defaults_to_all(self):
        assert get_rules(None) == ALL_RULES
        assert get_rules([]) == ALL_RULES

    def test_get_rules_subset_preserves_request_order(self):
        rules = get_rules(["lock-discipline", "wall-clock"])
        assert [rule.id for rule in rules] == ["lock-discipline", "wall-clock"]

    def test_get_rules_unknown_id_raises(self):
        with pytest.raises(StaticAnalysisError, match="unknown rule id"):
            get_rules(["wall-clock", "nope"])

    def test_selected_rules_are_the_only_ones_that_fire(self, tmp_path):
        source = "import time\nprint(time.time())\n"
        report = _lint(tmp_path, source, rules=get_rules(["wall-clock"]))
        assert [finding.rule for finding in report.findings] == ["wall-clock"]


class TestReport:
    def test_render_text_matches_finding_format(self, tmp_path):
        report = _lint(tmp_path, "print('x')\n")
        assert report.render_text() == [f.format() for f in report.findings]

    def test_as_dict_carries_files_rules_and_ok(self, tmp_path):
        report = _lint(tmp_path, "value = 1\n")
        payload = report.as_dict()
        assert payload["ok"] is True
        assert payload["files"] == 1
        assert set(payload["rules"]) == set(ALL_IDS)
        assert payload["findings"] == []

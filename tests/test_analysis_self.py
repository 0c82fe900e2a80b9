"""The shipped tree is lint-clean, and the CLI honours its contract.

This is the static-analysis suite's tier-1 gate: every rule over
``src/`` and ``benchmarks/`` with the default config must
report nothing — including zero unused suppressions, since an unused
``lint-ignore`` is itself a finding.  The CLI tests pin the exit-code
contract (0 clean / 1 findings / 2 usage error) and both entry points
(``repro lint`` and ``python -m repro.analysis``).
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.cli
from repro.analysis import ALL_RULES, DEFAULT_CONFIG, run_analysis
from repro.analysis.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent
LINT_TARGETS = [REPO_ROOT / "src", REPO_ROOT / "benchmarks"]


class TestTreeIsClean:
    def test_every_rule_reports_nothing_on_the_shipped_tree(self):
        started = time.perf_counter()
        report = run_analysis(LINT_TARGETS, ALL_RULES, config=DEFAULT_CONFIG)
        elapsed = time.perf_counter() - started
        assert report.findings == (), "\n".join(report.render_text())
        assert report.files > 100  # the scan actually covered the tree
        # CI's bench-smoke enforces < 5s; leave slack for slow runners
        # here so tier-1 stays signal, not noise.
        assert elapsed < 15.0, f"lint self-time {elapsed:.1f}s"


class TestCliContract:
    def test_exit_0_and_summary_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("value = 1\n")
        assert lint_main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_exit_1_and_findings_on_dirty_tree(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import time\nt = time.time()\n")
        assert lint_main([str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "[wall-clock]" in err
        assert "finding" in err

    def test_exit_2_on_unknown_rule(self, tmp_path, capsys):
        assert lint_main(["--rule", "nope", str(tmp_path)]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_exit_2_on_missing_path(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "missing")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_json_format_is_parseable_and_complete(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("print('x')\n")
        assert lint_main(["--format", "json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["files"] == 1
        assert payload["findings"][0]["rule"] == "bare-print"
        assert payload["findings"][0]["line"] == 1

    def test_rule_selection_limits_the_run(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import time\nprint(time.time())\n")
        assert lint_main(["--rule", "bare-print", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "[bare-print]" in err
        assert "[wall-clock]" not in err

    def test_list_rules_names_every_registry_entry(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.id in out

    def test_repro_lint_subcommand_shares_the_contract(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("value = 1\n")
        assert repro.cli.main(["lint", str(tmp_path)]) == 0
        (tmp_path / "bad.py").write_text("print('x')\n")
        assert repro.cli.main(["lint", str(tmp_path)]) == 1
        assert repro.cli.main(["lint", "--rule", "nope", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_python_dash_m_entry_point(self, tmp_path):
        (tmp_path / "ok.py").write_text("value = 1\n")
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(tmp_path)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr
        assert "clean" in result.stdout

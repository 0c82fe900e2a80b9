"""Smoke-size self-tests of the benchmark: ``python3 -m pytest perfbench``.

Every workload runs end to end at tiny sizes through the command line,
the printed metric names and units must match ``BENCHMARK.json``, and
each correctness gate must fire on a deliberately corrupted reference.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import run as cli

cli.bootstrap()

from perfbench import layers, record_reference, workloads  # noqa: E402

SPEC = json.loads((cli.ROOT / "BENCHMARK.json").read_text())
NAMES = [workload["name"] for workload in SPEC["workloads"]]
SEED = 3


def smoke(name: str, reference: dict, trace: bool = False) -> dict:
    return workloads.run(name, SEED, 1.0, trace, size="smoke", reference=reference)[1]


def test_benchmark_json_names_the_workloads_and_metrics():
    assert NAMES == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: unit for name, (unit, _) in workloads.E2E.items()
    }
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.LAYERS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_cli_prints_every_metric_by_name(name, trace, capsys):
    code = cli.main([
        "--workload", name, "--seed", str(SEED), "--seconds", "1",
        "--trace", str(trace), "--size", "smoke",
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[kind]
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    provenance = detail["provenance"]
    assert provenance["seed"] == SEED and provenance["repro_version"]
    assert provenance["machine"]["cpu_count"] >= 1


@pytest.mark.parametrize("name", ["paper_cells", "stream_lr", "stream_nb"])
def test_recorded_reference_passes_and_corrupted_reference_fails(name):
    section = record_reference.record(name, [SEED], size="smoke")
    assert smoke(name, {name: section})["correct"]

    outputs = section["seeds"][str(SEED)]
    if name == "paper_cells":
        key = next(iter(outputs))
        outputs[key] += 0.5
    elif name == "stream_lr":
        outputs["coef"][0] += 1e-9  # ten times the 1e-10 tolerance
    else:
        outputs["accuracy"]["test"] += 1e-12
    result = smoke(name, {name: section})
    assert not result["correct"]
    assert result["failed"] >= 1


def test_lr_gate_checks_iteration_count():
    section = record_reference.record("stream_lr", [SEED], size="smoke")
    section["seeds"][str(SEED)]["n_iter"] += 1
    assert not smoke("stream_lr", {"stream_lr": section})["correct"]


def test_reference_recorded_at_other_sizes_fails():
    section = record_reference.record("stream_nb", [SEED], size="smoke")
    section["size"] = dict(section["size"], n_fact=1)
    assert not smoke("stream_nb", {"stream_nb": section})["correct"]


def test_serving_gate_compares_with_predict_batch():
    bench = workloads.ServeOpen(workloads.SIZES["smoke"]["serve_open"], SEED, {})
    bench.setup()
    bench.prepare()
    expected = list(bench.expected)
    expected[0] = next(
        label for label in bench.artifact.target_labels if label != expected[0]
    )
    bench.expected = expected
    bench.measure(1.0)
    assert bench.checks.failed >= 1
    assert any("differs from predict_batch" in m for m in bench.checks.messages)


def test_paper_cells_match_run_experiment():
    """The piecewise cell the benchmark times is run_experiment's cell."""
    from repro.experiments import run_experiment

    bench = workloads.PaperCells(workloads.SIZES["smoke"]["paper_cells"], SEED, {})
    bench.setup()
    bench.unit(False)
    for name, model_key, strategy in list(bench.cells())[::7]:
        result = run_experiment(bench.datasets[name], model_key, strategy, scale=bench.scale)
        assert bench.results[f"{name}/{model_key}/{strategy.name}"] == result.test_accuracy


def test_stream_cell_matches_run_experiment():
    from repro.experiments import run_experiment

    bench = workloads.StreamNB(workloads.SIZES["smoke"]["stream_nb"], SEED, {})
    bench.setup()
    outputs = bench.fit_cell(bench.spec, traced=False)
    result = run_experiment(bench.dataset, "nb", bench.strategy, source=bench.spec)
    assert outputs["accuracy"]["test"] == result.test_accuracy
    assert outputs["accuracy"]["train"] == result.train_accuracy
    assert outputs["accuracy"]["validation"] == result.validation_accuracy


def test_layer_table_shows_ratios_with_bases_and_overhead(tmp_path, capsys):
    detail, result = workloads.run("stream_lr", SEED, 1.0, True, size="smoke", reference={})
    path = tmp_path / "lr.out"
    path.write_text(json.dumps(detail) + "\n" + json.dumps(result) + "\n")
    assert layers.main([str(path)]) == 0
    table = capsys.readouterr().out
    metrics = result["metrics"]
    assert metrics["data.unique_shard_ratio"]["value"] < 1.0
    assert 0.0 < metrics["data.produce_share"]["value"] < 1.0
    produced = int(metrics["data.shards_produced"]["value"])
    assert f"/ {produced}" in table  # unique_shard_ratio's base
    assert "data.produce_s / ml.fit_s" in table
    assert "tracing overhead" in table
    assert "bypassed (0):" in table and "serving.predict_ms.p50" in table


def test_layer_table_rejects_untraced_output(tmp_path):
    detail, result = workloads.run("stream_nb", SEED, 1.0, False, size="smoke", reference={})
    path = tmp_path / "nb.out"
    path.write_text(json.dumps(detail) + "\n" + json.dumps(result) + "\n")
    assert layers.main([str(path)]) == 2


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(cli.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        cli.ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream_lr",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout

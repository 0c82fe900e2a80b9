"""Print the per-layer table of traced benchmark runs.

Usage::

    python3 perfbench/run.py --workload stream_lr --seed 1 --trace 1 > lr.out
    python3 perfbench/layers.py lr.out [more.out ...]

Each file is the standard output of one ``--trace 1`` run.  For every
run the table lists each per-layer metric with its unit, the base of
each ratio (numerator / denominator), the self time of every benchmark
span (its wall time minus the benchmark spans nested in it), and the
tracing overhead against the untraced unit of work.  Metrics of layers
the workload bypasses read 0 and are listed on one line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Span-name prefixes the benchmark opens around public calls, one per
#: layer of ``src/repro``.  Spans the library opens itself (``fit``,
#: ``join``, ``encode.shard``) carry none of them, so a layer's self
#: time subtracts only the benchmark spans nested inside it.
LAYER_PREFIXES = (
    "datasets.",
    "core.",
    "data.",
    "streaming.",
    "ml.",
    "experiments.",
    "serving.",
)


def _layer_children(node: dict):
    """The nearest benchmark-span descendants of one span node."""
    for child in node.get("children", ()):
        if child["name"].startswith(LAYER_PREFIXES):
            yield child
        else:
            yield from _layer_children(child)


def layer_times(spans: list[dict]) -> dict[str, dict]:
    """Total and self seconds and count per benchmark span.

    Spans are keyed by name, suffixed with their ``family`` attribute
    when they have one (``ml.tune.svm``).  A span's self time is its
    wall time minus that of the benchmark spans nested inside it.
    """
    table: dict[str, dict] = {}

    def visit(node: dict) -> None:
        name = node["name"]
        if name.startswith(LAYER_PREFIXES):
            family = node.get("attributes", {}).get("family")
            key = f"{name}.{family}" if family else name
            inner = sum(child["wall_s"] for child in _layer_children(node))
            row = table.setdefault(key, {"total_s": 0.0, "self_s": 0.0, "count": 0})
            row["total_s"] += node["wall_s"]
            row["self_s"] += node["wall_s"] - inner
            row["count"] += node.get("count", 1)
        for child in node.get("children", ()):
            visit(child)

    for root in spans:
        visit(root)
    return table


def benchmark_spans(spans: list[dict]) -> list[dict]:
    """The span forest pruned to benchmark spans (library spans elided)."""

    def prune(node: dict) -> dict:
        kept = {
            key: node[key]
            for key in ("name", "wall_s", "count", "attributes")
            if key in node
        }
        children = [prune(child) for child in _layer_children(node)]
        if children:
            kept["children"] = children
        return kept

    forest = []
    for root in spans:
        if root["name"].startswith(LAYER_PREFIXES):
            forest.append(prune(root))
        else:
            forest.extend(prune(child) for child in _layer_children(root))
    return forest


def read_run(text: str) -> tuple[dict, dict]:
    """The ``(detail, result)`` JSON objects ending one run's output."""
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError("expected a detail line and a result line")
    return json.loads(lines[-2]), json.loads(lines[-1])


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e12:
        return f"{int(value):d}"
    return f"{value:.4g}"


def _base(name: str, bases: dict, metrics: dict) -> str:
    base = bases.get(name)
    if base is None:
        return ""
    top, bottom = base
    if isinstance(top, str):
        return f"{top} / {bottom} = {_fmt(metrics[top]['value'])} / {_fmt(metrics[bottom]['value'])}"
    return f"{_fmt(top)} / {_fmt(bottom)}"


def _span_rows(nodes: list[dict], depth: int = 0):
    for node in nodes:
        inner = sum(child["wall_s"] for child in node.get("children", ()))
        label = node["name"]
        family = node.get("attributes", {}).get("family")
        if family:
            label += f"[{family}]"
        yield depth, label, node["wall_s"], node["wall_s"] - inner, node.get("count", 1)
        yield from _span_rows(node.get("children", ()), depth + 1)


def merged_span_rows(spans: list[dict]) -> list[tuple]:
    """Span rows merged by (depth, label): total, self, count."""
    merged: dict[tuple, list] = {}
    for depth, label, total, self_s, count in _span_rows(spans):
        row = merged.setdefault((depth, label), [0.0, 0.0, 0])
        row[0] += total
        row[1] += self_s
        row[2] += count
    return [(depth, label, *row) for (depth, label), row in merged.items()]


def render(detail: dict, result: dict) -> str:
    metrics = result["metrics"]
    bases = detail.get("bases", {})
    prov = detail["provenance"]
    overhead = detail.get("overhead", {})
    lines = [
        f"== {detail['workload']}  seed {prov['seed']}  size {prov['size']}  "
        f"repro {prov['repro_version']}  "
        f"correct={result['correct']} ({result['failed']}/{result['attempted']} failed)",
        "   tracing overhead: "
        + (f"{100.0 * metrics['trace.overhead']['value']:+.1f}%  "
           if "trace.overhead" in metrics else "")
        + ", ".join(f"{k} {_fmt(v)}" for k, v in sorted(overhead.items())),
        f"   {'layer':<10} {'metric':<28} {'value':>12} {'unit':<6} base",
    ]
    bypassed = []
    for name, entry in metrics.items():
        if name == "trace.overhead":
            continue
        if entry["value"] == 0:
            bypassed.append(name)
            continue
        layer = name.split(".")[0]
        lines.append(
            f"   {layer:<10} {name:<28} {_fmt(entry['value']):>12} "
            f"{entry['unit']:<6} {_base(name, bases, metrics)}"
        )
    if bypassed:
        lines.append(f"   bypassed (0): {', '.join(bypassed)}")
    spans = detail.get("spans", [])
    if spans:
        lines.append(f"   {'benchmark span':<36} {'total s':>10} {'self s':>10} {'count':>7}")
        for depth, label, total, self_s, count in merged_span_rows(spans):
            lines.append(
                f"   {'  ' * depth + label:<36} {total:>10.4f} {self_s:>10.4f} {count:>7d}"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outputs", nargs="+", type=Path, help="traced-run stdout files")
    args = parser.parse_args(argv)
    for path in args.outputs:
        detail, result = read_run(path.read_text())
        if not detail.get("provenance", {}).get("trace"):
            print(f"{path}: not a --trace 1 run", file=sys.stderr)
            return 2
        print(render(detail, result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the reference outputs the benchmark's correctness gate checks.

Usage, from the repository root::

    python3 perfbench/record_reference.py --workload stream_lr --seeds 0-31

Runs one unit of the workload per seed at full size (one sweep of the
paper cells, one streamed cell) and stores its outputs -- test
accuracies, and for L1 logistic regression ``n_iter_`` and the
coefficients -- in ``perfbench/reference.json`` under the workload,
together with the sizes they were recorded at.  Re-record after
changing a workload's sizes; a run whose sizes differ from the recorded
ones fails its gate.  ``serve_open`` needs no recording: its reference
is the single-threaded ``predict_batch`` of the same requests.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """``0-3,7`` -> ``[0, 1, 2, 3, 7]``."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def record(workload: str, seeds: list[int], size: str = "full") -> dict:
    """The reference section of one workload for the given seeds."""
    from perfbench.workloads import SIZES, WORKLOADS, input_sizes

    sizes = SIZES[size][workload]
    section = {"size": input_sizes(sizes), "seeds": {}}
    for seed in seeds:
        bench = WORKLOADS[workload](sizes, seed, {})
        bench.setup()
        bench.prepare()
        bench.unit(False)
        if bench.checks.failed:
            raise RuntimeError(f"{workload} seed {seed}: {bench.checks.messages}")
        section["seeds"][str(seed)] = bench.outputs()
    return section


def main(argv: list[str] | None = None) -> int:
    from perfbench.workloads import REFERENCE_PATH, load_reference

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_cells", "stream_lr", "stream_nb"])
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    args = parser.parse_args(argv)
    section = record(args.workload, args.seeds)
    reference = load_reference()
    reference[args.workload] = section
    REFERENCE_PATH.write_text(json.dumps(reference, sort_keys=True) + "\n")
    print(f"recorded {args.workload} for {len(args.seeds)} seeds in {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from perfbench.run import bootstrap

    bootstrap()
    sys.exit(main())

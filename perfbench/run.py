"""Run one benchmark workload and print its result.

Usage, from the repository root::

    python3 perfbench/run.py --workload stream_lr --seed 1 --seconds 15 --trace 0

The program under test is imported from ``src/`` of the same checkout
(pure Python, so building it is putting ``src`` on the path).  Standard
output ends with two JSON lines: a detail object (provenance stamp,
headline figures, failures and, with ``--trace 1``, the span forest),
then the result object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit status is 0 when every output checked out, 1 when
any was wrong, and 2 when the program cannot be found or the arguments
are invalid.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def bootstrap() -> None:
    """Put the checkout's program and this package on the import path."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def main(argv: list[str] | None = None) -> int:
    bootstrap()
    from perfbench.workloads import SIZES, WORKLOADS, run

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=sorted(SIZES), default="full",
        help="workload sizes; 'smoke' is for the self-tests",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    detail, result = run(
        args.workload, args.seed, args.seconds, bool(args.trace), size=args.size
    )
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

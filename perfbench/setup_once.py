"""Set one workload up in a fresh interpreter, then exit.

``setup_s`` times this script end to end: interpreter start, importing
the program, and the workload's set-up (generating its inputs, and for
``serve_open`` training the served model) -- the cold start a user pays
before the first operation, so that work moved into import or set-up
shows.  Usage: ``python3 perfbench/setup_once.py WORKLOAD SEED SIZE``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.run import bootstrap  # noqa: E402

bootstrap()

from perfbench.workloads import SIZES, WORKLOADS  # noqa: E402

name, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
WORKLOADS[name](SIZES[size][name], seed, {}).setup()

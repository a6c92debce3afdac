"""Make the benchmark modules and the checkout's package importable."""

import os
import sys
from pathlib import Path

# As in run.py: the CLI's worker pool must stay serial for the tracer.
os.environ["HAWKES_SGP_THREADS"] = "1"

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

"""Tests of the benchmark harness itself (not part of the tier-1 suite).

Run with ``python -m pytest benchmarks/perf/tests``; the repo's
``testpaths`` deliberately does not include this directory.
"""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERF))

"""Run the end-to-end benchmark (see README.md in this directory).

Either form works from the repository root::

    python3 benchmarks/e2e/__main__.py [--workload W] [--seed N] ...
    PYTHONPATH=src python -m benchmarks.e2e [--workload W] [--seed N] ...
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())

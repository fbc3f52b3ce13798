"""Write ``results/golden_digests.json``: session 0's step digests per seed.

    python3 perfbench/golden.py            # seeds 1-20

The workloads on the ``default`` backend must reproduce these records
bitwise on every later version of the program; ``run.py`` compares each
run's session 0 against them.  Regenerate only when a change to the
default backend's numbers is intended.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

SEEDS = range(1, 21)


def main() -> int:
    from workloads import BITWISE_WORKLOADS, GOLDEN_DIGESTS, make_workload, session_digests

    work = BENCH_DIR / ".work" / "golden"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        golden = {
            name: {
                str(seed): session_digests(make_workload(name, seed, work).open(0))
                for seed in SEEDS
            }
            for name in BITWISE_WORKLOADS
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    GOLDEN_DIGESTS.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

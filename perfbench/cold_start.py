"""Child process for ``setup_s``: start from nothing, get ready to step, say so.

    python3 perfbench/cold_start.py WORKLOAD SEED WORKDIR

A fresh interpreter imports the program, builds the workload's first
session (scenario build or stream open with its sha256 check, then
session construction; on ``serve-closed`` a service whose shard has
answered once) and prints ``ready``.  The parent times the span from
starting this process to reading that line; clean-up afterwards is not
timed.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]


def main(name: str, seed: int, work: Path) -> None:
    from workloads import make_workload

    work.mkdir(parents=True, exist_ok=True)
    workload = make_workload(name, seed, work)
    if name != "serve-closed":
        workload.open(0)
        print("ready", flush=True)
        return

    import asyncio

    async def serve() -> None:
        service = workload.service(inline=False, tag="cold")
        try:
            await service.shard_pids()
            print("ready", flush=True)
        finally:
            await service.close()

    asyncio.run(serve())


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))

"""The ``served_point`` server process, built from the public API only.

``python -m repro serve`` has no ``--seed``, so this launcher owns the
data: ``scaled_database(departments, seed, rows)`` → ``connect`` →
``QueryServer``.  It binds an OS-assigned port, prints one JSON line
(the port and how long each set-up stage took) and serves until
SIGTERM/SIGINT, then drains and exits.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import connect  # noqa: E402
from repro.data.generator import scaled_database  # noqa: E402
from repro.service import QueryServer, paper_registry  # noqa: E402


async def serve(server: QueryServer, ready: dict) -> None:
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    _host, port = await server.start("127.0.0.1", 0)
    print(json.dumps({"port": port, **ready}), flush=True)
    await stop.wait()
    await server.stop()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--departments", type=int, required=True)
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--pool", type=int, default=2)
    args = parser.parse_args()
    started = time.perf_counter()
    db = scaled_database(args.departments, args.seed, args.rows)
    generated = time.perf_counter()
    db.connection()
    loaded = time.perf_counter()
    server = QueryServer(connect(db), paper_registry(), pool_size=args.pool)
    asyncio.run(
        serve(server, {"generate": generated - started, "load": loaded - generated})
    )


if __name__ == "__main__":
    main()

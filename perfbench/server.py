"""The evaluation server under test, as its own process.

Run by the ``service_mixed`` workload, not by hand.  The first line on
standard input is a JSON object ``{"warm": [overrides, ...]}``.  The
process starts an :class:`EvaluationService` with the
service's defaults and a serial executor behind an
:class:`EvaluationServer` on an ephemeral loopback port, answers every
``warm`` query through the service, and prints ``READY <port>``.  Then
it reads commands, one a line:

* ``trace on``: install the layer wrappers with zeroed aggregates, print ``OK``;
* ``trace off``: remove them, print ``OK``;
* ``snapshot``: print the aggregates as one JSON line;
* ``quit``: stop the server and the service and exit.

Commands arrive between load phases, while no query is in flight.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro.engine.service import EvaluationServer, EvaluationService  # noqa: E402
from tracing import Tracer  # noqa: E402


def _reply(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


async def serve(setup: dict) -> None:
    service = EvaluationService(executor="serial")
    server = await EvaluationServer(service, port=0).start()
    await asyncio.gather(*(service.evaluate(overrides) for overrides in setup["warm"]))
    tracer = Tracer()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()

    def commands() -> None:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace on":
                tracer.reset()
                tracer.install()
                _reply("OK")
            elif command == "trace off":
                tracer.remove()
                _reply("OK")
            elif command == "snapshot":
                _reply(json.dumps(tracer.snapshot()))
            elif command == "quit":
                break
        loop.call_soon_threadsafe(stop.set)

    threading.Thread(target=commands, daemon=True).start()
    _reply(f"READY {server.port}")
    await stop.wait()
    await server.stop()
    # Let connection handlers finish closing before the loop ends, so
    # none is cancelled half-way through.
    handlers = asyncio.all_tasks() - {asyncio.current_task()}
    if handlers:
        await asyncio.wait(handlers, timeout=5.0)
    await service.stop()


def main() -> int:
    asyncio.run(serve(json.loads(sys.stdin.readline())))
    return 0


if __name__ == "__main__":
    sys.exit(main())

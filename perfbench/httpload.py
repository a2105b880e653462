"""Keep-alive HTTP load for the evaluation server, at most two connections.

Each connection is a blocking socket owned by one thread.  The open
loop sends every request at its due time whatever the answers before it
did; a request whose connections are both busy waits for the first one
to free, and its latency still counts from its due time.  The closed
loop sends each connection's next request as soon as its answer is in.
Bodies are kept as bytes and decoded after the timed phase, so checking
answers costs the load nothing.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass

HOST = "127.0.0.1"
CONNECTIONS = 2


class Connection:
    """One keep-alive connection speaking just enough HTTP/1.1."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection((HOST, port), timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self.head = (f"POST /evaluate HTTP/1.1\r\nHost: {HOST}:{port}\r\n"
                     "Content-Type: application/json\r\nContent-Length: ")

    def encode(self, body: bytes) -> bytes:
        """One POST /evaluate request carrying ``body``."""
        return f"{self.head}{len(body)}\r\n\r\n".encode("latin-1") + body

    def request(self, body: bytes) -> tuple[int, bytes]:
        """Send one POST /evaluate; returns ``(status, raw body)``."""
        self.sock.sendall(self.encode(body))
        return self.receive()

    def receive(self) -> tuple[int, bytes]:
        """Read the next response; returns ``(status, raw body)``."""
        start = self.reader.readline()
        if not start:
            raise ConnectionError("server closed the connection")
        length = 0
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return int(start.split()[1]), self.reader.read(length)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def body_of(overrides: dict) -> bytes:
    """The request body for one query."""
    return json.dumps({"overrides": overrides}).encode("utf-8")


@dataclass
class Answer:
    """One answered request of the open loop (times in seconds)."""

    index: int
    lag: float        # send time minus max(due time, time a connection freed)
    latency: float    # answer time minus due time
    round_trip: float  # answer time minus send time
    status: int
    body: bytes


def _run_threads(target, connections: list[Connection]) -> None:
    errors: list[BaseException] = []

    def guarded(conn: Connection) -> None:
        try:
            target(conn)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(conn,)) for conn in connections]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def open_loop(connections: list[Connection],
              schedule: list[tuple[float, bytes]]) -> list[Answer]:
    """Send ``schedule`` (offset from start in seconds, body) open-loop."""
    lock = threading.Lock()
    cursor = [0]
    answers: list[Answer] = []
    start = time.perf_counter() + 0.005

    def worker(conn: Connection) -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= len(schedule):
                    return
                cursor[0] = index + 1
            taken = time.perf_counter()
            due = start + schedule[index][0]
            if due > taken:
                time.sleep(due - taken)
            sent = time.perf_counter()
            status, body = conn.request(schedule[index][1])
            done = time.perf_counter()
            answers.append(Answer(index=index, lag=sent - max(due, taken),
                                  latency=done - due, round_trip=done - sent,
                                  status=status, body=body))

    _run_threads(worker, connections)
    answers.sort(key=lambda answer: answer.index)
    return answers


def closed_loop(connections: list[Connection], bodies: list[list[bytes]],
                seconds: float, depth: int = 1):
    """Each connection sends its own ``bodies`` until ``seconds`` pass or
    its list runs out, ``depth`` requests at a time: it writes them in one
    go (HTTP/1.1 pipelining) and reads their answers before the next
    ones.  Returns the answers per connection, the elapsed time and the
    time each answer arrived, from the start."""
    answers: list[list[tuple[int, bytes]]] = [[] for _ in connections]
    arrived: list[float] = []
    start = time.perf_counter()
    deadline = start + seconds

    def worker(conn: Connection) -> None:
        index = connections.index(conn)
        mine = bodies[index]
        for first in range(0, len(mine), depth):
            if time.perf_counter() >= deadline:
                return
            chunk = mine[first:first + depth]
            conn.sock.sendall(b"".join(conn.encode(body) for body in chunk))
            for _ in chunk:
                answers[index].append(conn.receive())
                arrived.append(time.perf_counter() - start)

    _run_threads(worker, connections)
    return answers, time.perf_counter() - start, arrived

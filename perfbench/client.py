"""Closed-loop HTTP load for ``repro serve``.

Each client thread sends its next request only when the previous reply
has arrived, the way a scripted caller behaves, and opens one
connection per request, as ``urllib`` and ``repro.serve.run_load`` do.
(On a kept-alive connection every reply currently stalls for the
delayed-ACK timeout, because the server writes headers and body in two
sends.)  Every thread keeps its own tally; tallies are merged after the
threads are joined, so no count is shared between threads.
"""

from __future__ import annotations

import dataclasses
import http.client
import itertools
import json
import threading
import time
from typing import Any, Iterator, Mapping, Sequence

TIMEOUT_S = 60.0


@dataclasses.dataclass
class Reply:
    """One request as the client saw it."""

    payload_index: int
    status: int
    latency_s: float
    body: dict


@dataclasses.dataclass
class Tally:
    replies: list[Reply] = dataclasses.field(default_factory=list)
    transport_errors: int = 0


def request(
    host: str, port: int, method: str, path: str, payload: Any = None
) -> tuple[int, dict]:
    """One request on its own connection; returns ``(status, JSON body)``."""
    body = None if payload is None else json.dumps(payload).encode()
    headers = {"Connection": "close"}
    if body is not None:
        headers["Content-Type"] = "application/json"
    connection = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)
    try:
        connection.request(method, path, body=body, headers=headers)
        reply = connection.getresponse()
        return reply.status, json.loads(reply.read())
    finally:
        connection.close()


def run_closed_loop(
    host: str,
    port: int,
    payloads: Sequence[Mapping[str, Any]],
    order: Iterator[int],
    clients: int,
    seconds: float,
    min_requests: int,
) -> tuple[list[Reply], int, float]:
    """Drive ``clients`` closed loops for ``seconds``, and on until at
    least ``min_requests`` requests have been sent.

    ``order`` yields payload indices; clients take the next index under
    a lock, so the requests sent are a prefix of the seeded order.
    Returns the replies, the transport-error count and the wall time
    from the first send to the last reply.
    """
    take_lock = threading.Lock()
    taken = 0
    tallies = [Tally() for _ in range(clients)]
    started = time.monotonic()
    deadline = started + seconds

    def loop(tally: Tally) -> None:
        nonlocal taken
        while True:
            with take_lock:
                if time.monotonic() >= deadline and taken >= min_requests:
                    return
                taken += 1
                index = next(order)
            sent = time.monotonic()
            try:
                status, body = request(host, port, "POST", "/solve", payloads[index])
            except (OSError, http.client.HTTPException, ValueError):
                tally.transport_errors += 1
                continue
            tally.replies.append(Reply(index, status, time.monotonic() - sent, body))

    threads = [
        threading.Thread(target=loop, args=(tally,), name=f"client-{i}")
        for i, tally in enumerate(tallies)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - started
    replies = list(itertools.chain.from_iterable(t.replies for t in tallies))
    return replies, sum(t.transport_errors for t in tallies), elapsed

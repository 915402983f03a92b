"""The load generator: one selector loop, at most ``nproc`` connections.

Request lines are encoded before the timed stretch and responses are
kept as raw bytes with their arrival time; JSON parsing happens after
the clock stops, so the generator stays a small share of one core.

Three shapes share the loop:

- closed loop, window 1 (``cold_grid``, ``replan_drift``): a connection
  sends its next request when the previous answer arrived;
- closed loop, pipelined (``cached_storm``): up to ``window`` in flight;
- open loop (``burst_mix``): every request has a due time; it is sent
  when due no matter what is outstanding, and its latency is counted
  from the due time.
"""

from __future__ import annotations

import collections
import gc
import json
import selectors
import socket
import time
from dataclasses import dataclass, field

from launcher import BenchError

CONNECT_TIMEOUT_S = 10.0


@dataclass
class Request:
    request_id: str
    line: bytes            # encoded JSON, newline-terminated
    due_s: float | None = None   # open loop: offset from the stretch start


@dataclass
class Outcome:
    """What the stretch produced (parsed after the clock stopped)."""

    elapsed_s: float
    #: request_id -> (start, end) perf_counter instants; start is the due
    #: time in open loop, the send instant otherwise.
    spans: dict[str, tuple[float, float]]
    #: request_id -> decoded response payload.
    responses: dict[str, dict]
    #: Open loop: how late each request left, seconds after its due time.
    send_lags_s: list[float]
    generator_cpu_s: float


@dataclass
class _Conn:
    sock: socket.socket
    source: collections.deque
    out: bytearray = field(default_factory=bytearray)
    buf: bytearray = field(default_factory=bytearray)
    inflight: int = 0
    wants_write: bool = False


def connect(address: tuple[str, int]) -> socket.socket:
    """Open one connection and consume the server's hello line."""
    try:
        sock = socket.create_connection(address, timeout=CONNECT_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        hello = b""
        while not hello.endswith(b"\n"):
            chunk = sock.recv(4096)
            if not chunk:
                raise BenchError("server closed the connection before hello")
            hello += chunk
    except OSError as exc:
        raise BenchError(f"cannot connect to {address}: {exc}") from exc
    if json.loads(hello).get("kind") != "hello":
        raise BenchError(f"unexpected greeting: {hello[:80]!r}")
    return sock


def drive(
    socks: list[socket.socket],
    sources: list[collections.deque],
    *,
    window: int,
    timeout_s: float,
    alive=lambda: None,
) -> Outcome:
    """Run one timed stretch over already-greeted connections.

    ``sources[i % len(sources)]`` feeds connection ``i``: one shared
    deque makes the connections pull from a common list, one deque each
    pins requests (and therefore their order) to a connection.
    ``alive`` is called about once a second and raises when the server
    is gone; ``timeout_s`` bounds the whole stretch.
    """
    selector = selectors.DefaultSelector()
    conns = []
    for index, sock in enumerate(socks):
        sock.setblocking(False)
        conn = _Conn(sock=sock, source=sources[index % len(sources)])
        conns.append(conn)
        selector.register(sock, selectors.EVENT_READ, conn)
    starts: dict[str, float] = {}
    arrivals: list[tuple[float, bytes]] = []
    sent = 0
    outstanding = 0
    lags: list[float] = []
    clock = time.perf_counter
    gc_was_enabled = gc.isenabled()
    gc.disable()
    cpu0 = time.process_time()
    t0 = clock()
    hard_stop = t0 + timeout_s
    next_check = t0 + 1.0
    try:
        while True:
            now = clock()
            # -- feed -----------------------------------------------------
            wake = None
            for conn in conns:
                source = conn.source
                while source and conn.inflight < window:
                    request = source[0]
                    if request.due_s is not None:
                        due = t0 + request.due_s
                        if due > now:
                            wake = due if wake is None else min(wake, due)
                            break
                        lags.append(now - due)
                        starts[request.request_id] = due
                    else:
                        starts[request.request_id] = now
                    source.popleft()
                    conn.out += request.line
                    conn.inflight += 1
                    outstanding += 1
                    sent += 1
                if conn.out:
                    try:
                        done = conn.sock.send(conn.out)
                        del conn.out[:done]
                    except BlockingIOError:
                        pass
                    except OSError as exc:
                        raise BenchError(f"send failed: {exc}") from exc
                    if bool(conn.out) != conn.wants_write:
                        conn.wants_write = bool(conn.out)
                        selector.modify(
                            conn.sock,
                            selectors.EVENT_READ
                            | (selectors.EVENT_WRITE if conn.wants_write else 0),
                            conn,
                        )
            if outstanding == 0 and not any(sources):
                break
            # -- wait -----------------------------------------------------
            now = clock()
            if now > hard_stop:
                raise BenchError(
                    f"timed stretch exceeded {timeout_s:.0f}s with "
                    f"{outstanding} responses outstanding (lost response?)"
                )
            if now > next_check:
                alive()
                next_check = now + 1.0
            pause = 0.5 if wake is None else max(0.0, wake - now)
            for key, mask in selector.select(pause):
                if not mask & selectors.EVENT_READ:
                    continue
                conn = key.data
                try:
                    chunk = conn.sock.recv(1 << 18)
                except BlockingIOError:
                    continue
                except OSError as exc:
                    raise BenchError(f"receive failed: {exc}") from exc
                if not chunk:
                    alive()
                    raise BenchError(
                        f"server closed a connection with {conn.inflight} "
                        "responses outstanding"
                    )
                arrived = clock()
                conn.buf += chunk
                if b"\n" in chunk:
                    *lines, rest = bytes(conn.buf).split(b"\n")
                    conn.buf = bytearray(rest)
                    for line in lines:
                        arrivals.append((arrived, line))
                    conn.inflight -= len(lines)
                    outstanding -= len(lines)
        elapsed = clock() - t0
        cpu = time.process_time() - cpu0
    finally:
        if gc_was_enabled:
            gc.enable()
        selector.close()

    spans: dict[str, tuple[float, float]] = {}
    responses: dict[str, dict] = {}
    for arrived, line in arrivals:
        try:
            payload = json.loads(line)
        except ValueError as exc:
            raise BenchError(f"unparseable response line: {line[:80]!r}") from exc
        request_id = payload.get("request_id")
        if request_id not in starts or request_id in responses:
            raise BenchError(
                f"response for unknown or repeated request {request_id!r}: "
                f"{line[:120]!r}"
            )
        responses[request_id] = payload
        spans[request_id] = (starts[request_id], arrived)
    if len(responses) != sent:
        raise BenchError(f"{sent - len(responses)} responses lost")
    return Outcome(
        elapsed_s=elapsed,
        spans=spans,
        responses=responses,
        send_lags_s=lags,
        generator_cpu_s=cpu,
    )

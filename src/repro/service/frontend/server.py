"""The asyncio socket frontend of the planning service.

One event loop, many connections, one planning service.  The wire
dialect is *exactly* the one ``repro serve`` speaks over stdin/stdout — a versioned
``hello`` line first, then ``plan_request`` JSON lines in and
``plan_response`` / ``error`` lines out — so any client of the stream
protocol works unchanged over TCP.  Responses are per-connection and
arrive in completion order (the ``request_id`` correlates them);
per-tenant processing order is the service's strict per-tenant FIFO.

Flow control, all bounded:

- **admission** — the service's queue bounds apply; a refused request
  is answered immediately with a structured ``rejected`` response
  (never a dropped line);
- **deadline shedding** — requests whose turnaround deadline the
  service's rolling queue-wait estimate cannot meet are shed at
  admission (also ``rejected``) instead of expiring uselessly in queue;
- **slow clients** — responses leave through a bounded per-connection
  send queue drained by a writer task under TCP backpressure
  (``drain()``).  When it is full, the read loop — which answers bad
  lines, refusals and cache hits itself — waits for space, so a client
  that is not draining stops being read; a completion arriving from a
  service thread cannot wait, and disconnects the client rather than
  buffer without bound;
- **disconnects** — a closed connection cooperatively cancels its
  still-queued requests, so abandoned work never reaches the solver.

A request the service finished at submit (a cache hit with nothing of
its tenant's queued ahead of it) is answered where its line was read.
Every other completion happens on a service thread, hops onto the event
loop via ``call_soon_threadsafe`` and is encoded/enqueued there.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import sys
from dataclasses import dataclass

from ...api import (
    ErrorV1,
    HelloV1,
    OrchestratorError,
    PlanRequestV1,
    PlanResponseV1,
    SchemaError,
    decode,
    encode,
)
from ...api.orchestrator import Orchestrator
from ..service import PlanningService, ServiceConfig

__all__ = ["FrontendConfig", "FrontendServer", "run_server"]

#: Reader line limit; an overlong line is a ``bad_schema`` error.
MAX_LINE_BYTES = 1 << 20
#: Listen backlog.  Connection storms (the loadgen opens thousands of
#: sockets at once) overflow the kernel's default SYN queue, leaving
#: clients stuck in multi-second TCP retransmit.
LISTEN_BACKLOG = 4096


@dataclass
class FrontendConfig:
    """Socket-level knobs of the frontend (service knobs live in
    :class:`~repro.service.service.ServiceConfig`)."""

    host: str = "127.0.0.1"
    #: 0 lets the OS pick (the bound port is in :attr:`FrontendServer.address`).
    port: int = 0
    #: Bounded per-connection send queue (responses); a client that lets
    #: it fill is disconnected as a slow consumer.
    send_queue_limit: int = 1024


class FrontendServer:
    """Serves the JSON-lines planning dialect over TCP.

    Owns nothing it is not given: the caller supplies the service and
    remains responsible for stopping it; :func:`run_server` is the
    assembled entry point the CLI uses.
    """

    def __init__(
        self,
        service: PlanningService,
        config: FrontendConfig | None = None,
    ) -> None:
        self.service = service
        self.config = config or FrontendConfig()
        self.orchestrator = Orchestrator(service=service)
        #: Socket-layer counters live in the service's own registry, so
        #: one snapshot reports both.
        self.registry = service.metrics.registry
        counter = self.registry.counter
        self._connections = counter("frontend.connections")
        self._disconnects = counter("frontend.disconnects")
        self._requests = counter("frontend.requests")
        self._responses = counter("frontend.responses")
        self._bad_lines = counter("frontend.bad_lines")
        self._shed = counter("frontend.shed")
        self._slow_client_disconnects = counter(
            "frontend.slow_client_disconnects"
        )
        self._cancelled_on_disconnect = counter(
            "frontend.cancelled_on_disconnect"
        )
        self._server: asyncio.base_events.Server | None = None
        from ...cli import package_version

        #: The first line of every connection, encoded once here.
        self._hello_line = encode(HelloV1(version=package_version()))

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> "FrontendServer":
        self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_LINE_BYTES,
            backlog=LISTEN_BACKLOG,
        )
        return self

    @property
    def address(self) -> tuple[str, int]:
        """The actually-bound (host, port)."""
        assert self._server is not None, "server not started"
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def close(self) -> None:
        """Stop accepting and close listening sockets (connections in
        flight finish their own teardown; the service is the caller's)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.increment()
        loop = asyncio.get_running_loop()
        send_queue: asyncio.Queue[str | None] = asyncio.Queue(
            maxsize=self.config.send_queue_limit
        )
        #: wire request_id (or synthetic) -> live ticket, for cancellation.
        outstanding: dict[int, object] = {}
        closing = False

        def enqueue(line: str) -> bool:
            """Queue a response that completed on a service thread, which
            cannot wait: False means the client is too slow (its bounded
            send queue is full) and the connection must go."""
            nonlocal closing
            if closing:
                return False
            try:
                send_queue.put_nowait(line)
                return True
            except asyncio.QueueFull:
                self._slow_client_disconnects.increment()
                closing = True
                writer.transport.abort()
                return False

        def deliver(key: int, request_id: str, ticket) -> None:
            """Runs on the event loop once the service finished a ticket."""
            if outstanding.pop(key, None) is None:
                return  # connection already torn down
            result = ticket.result(timeout=0)
            response = self.orchestrator.respond(result, request_id=request_id)
            if enqueue(encode(response)):
                self._responses.increment()

        sender = asyncio.create_task(self._send_loop(writer, send_queue))
        # The read loop's own answers wait for queue space (``put``): they
        # can arrive without the loop ever yielding to the sender, and a
        # full queue then says nothing about whether the client reads.
        reply = send_queue.put
        await reply(self._hello_line)
        try:
            ticket_key = 0
            # A dead sender has emptied the queue and nobody will again.
            while not closing and not sender.done():
                try:
                    raw = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # Overlong line: the stream position is unreliable,
                    # answer structurally and hang up.
                    await reply(encode(ErrorV1(
                        code="bad_schema",
                        message="request line exceeds "
                        f"{MAX_LINE_BYTES} bytes",
                    )))
                    break
                except (ConnectionResetError, BrokenPipeError):
                    break
                if not raw:
                    break  # EOF
                line = raw.decode("utf-8", errors="replace").strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    request = decode(line)
                except SchemaError as exc:
                    self._bad_lines.increment()
                    await reply(
                        encode(ErrorV1(code="bad_schema", message=str(exc)))
                    )
                    continue
                if not isinstance(request, PlanRequestV1):
                    self._bad_lines.increment()
                    await reply(encode(ErrorV1(
                        code="bad_schema",
                        message=f"expected kind 'plan_request', "
                        f"got {request.KIND!r}",
                    )))
                    continue
                self._requests.increment()
                try:
                    ticket = self.orchestrator.submit(request)
                except OrchestratorError as exc:
                    # Admission refusal / deadline shed: a structured
                    # response on the existing vocabulary, immediately.
                    self._shed.increment()
                    await reply(encode(PlanResponseV1(
                        status="rejected",
                        tenant=request.tenant,
                        request_id=request.request_id,
                        error=exc.error,
                    )))
                    self._responses.increment()
                    continue
                if ticket.done():
                    # Finished at submit: answered here, with nothing to
                    # cancel and no hop through a service thread and back.
                    await reply(encode(self.orchestrator.respond(
                        ticket.result(timeout=0),
                        request_id=request.request_id,
                    )))
                    self._responses.increment()
                    continue
                ticket_key += 1
                key, request_id = ticket_key, request.request_id
                outstanding[key] = ticket
                ticket.add_done_callback(
                    lambda done, key=key, request_id=request_id: (
                        self._from_service_thread(
                            loop, deliver, key, request_id, done
                        )
                    )
                )
        finally:
            closing = True
            self._disconnects.increment()
            abandoned = list(outstanding.values())
            outstanding.clear()
            for ticket in abandoned:
                ticket.cancel()
            if abandoned:
                self._cancelled_on_disconnect.increment(len(abandoned))
            try:
                send_queue.put_nowait(None)
            except asyncio.QueueFull:
                sender.cancel()
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await sender
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    @staticmethod
    def _from_service_thread(loop, deliver, key, request_id, ticket) -> None:
        """Bridge a completion from a service worker thread to the loop."""
        try:
            loop.call_soon_threadsafe(deliver, key, request_id, ticket)
        except RuntimeError:
            pass  # loop already closed (shutdown race); client is gone

    async def _send_loop(
        self, writer: asyncio.StreamWriter, queue: asyncio.Queue
    ) -> None:
        """Single writer per connection: drains the bounded send queue
        under TCP backpressure, preserving enqueue order.  Everything
        queued when it wakes leaves in one ``write``."""
        try:
            while True:
                lines = [await queue.get()]
                while not queue.empty():
                    lines.append(queue.get_nowait())
                last = lines[-1] is None
                if last:
                    lines.pop()
                if lines:
                    writer.write(("\n".join(lines) + "\n").encode("utf-8"))
                    await writer.drain()
                if last:
                    return
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            return
        finally:
            # Nothing still queued will be sent; taking it out is also
            # what wakes a read loop waiting for space.
            while not queue.empty():
                queue.get_nowait()


def run_server(
    config: FrontendConfig | None = None,
    service_config: ServiceConfig | None = None,
    *,
    metrics_json: str | None = None,
    ready_stream=None,
) -> int:
    """Assemble and run the socket frontend until SIGINT/SIGTERM.

    Prints ``listening on HOST:PORT`` to ``ready_stream`` (stderr by
    default) once the socket is bound — the loadgen smoke harness and
    the tests parse it — and dumps the metrics summary (plus the unified
    JSON snapshot when ``metrics_json`` is given) on shutdown.
    """
    config = config or FrontendConfig()
    service_config = service_config or ServiceConfig()
    stream = ready_stream if ready_stream is not None else sys.stderr
    service = PlanningService(service_config)
    frontend = FrontendServer(service, config)

    async def _main() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, stop.set)
        await frontend.start()
        host, port = frontend.address
        print(f"listening on {host}:{port}", file=stream, flush=True)
        try:
            await stop.wait()
        finally:
            await frontend.close()

    try:
        asyncio.run(_main())
    finally:
        service.stop()
        print(service.metrics.describe(), file=sys.stderr)
        if metrics_json:
            from ...cli import _write_metrics_json

            _write_metrics_json(
                metrics_json, service.metrics.registry.snapshot()
            )
    return 0

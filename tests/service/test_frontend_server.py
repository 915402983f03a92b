"""The asyncio socket frontend: wire compatibility with the stream
dialect, structured errors for bad lines, and disconnect cancellation."""

import asyncio
import time

from test_frontend_cache import wait_until

from repro.api import (
    ErrorV1,
    HelloV1,
    PlanRequestV1,
    PlanResponseV1,
    decode,
    encode,
)
from repro.api.adapters import from_workload
from repro.service import PlanningService, ServiceConfig
from repro.service.frontend import (
    FrontendConfig,
    FrontendServer,
    generate_wire_workload,
    run_loadgen,
)


def frontend_service(**overrides) -> PlanningService:
    config = dict(
        pool_mode="inline",
        max_workers=1,
        ordered_admission=True,
        deadline_shedding=True,
    )
    config.update(overrides)
    return PlanningService(ServiceConfig(**config))


def wire_request(request_id: str, *, input_gb=8.0, tenant="acme") -> bytes:
    request = PlanRequestV1(
        job=from_workload("quickstart", input_gb=input_gb),
        tenant=tenant,
        request_id=request_id,
    )
    return encode(request).encode("utf-8") + b"\n"


async def connect(server: FrontendServer):
    host, port = server.address
    return await asyncio.open_connection(host, port)


async def read_message(reader: asyncio.StreamReader, timeout=60.0):
    raw = await asyncio.wait_for(reader.readline(), timeout)
    assert raw, "connection closed unexpectedly"
    return decode(raw.decode("utf-8"))


async def eventually(predicate, timeout=10.0) -> bool:
    """Let the server loop run until ``predicate()`` holds (or time out)."""
    deadline = time.perf_counter() + timeout
    while not predicate() and time.perf_counter() < deadline:
        await asyncio.sleep(0.02)
    return predicate()


class TestWireCompatibility:
    def test_hello_then_request_response_round_trip(self):
        service = frontend_service()
        server = FrontendServer(service, FrontendConfig(port=0))

        async def scenario():
            await server.start()
            try:
                reader, writer = await connect(server)
                hello = await read_message(reader)
                assert isinstance(hello, HelloV1)
                assert hello.schema_version == 1
                writer.write(wire_request("rq-1"))
                await writer.drain()
                response = await read_message(reader)
                writer.close()
                await writer.wait_closed()
                return response
            finally:
                await server.close()

        try:
            response = asyncio.run(scenario())
        finally:
            service.stop()
        # The response is the exact versioned wire schema the stream
        # path emits: same kind, statuses and field vocabulary.
        assert isinstance(response, PlanResponseV1)
        assert response.status == "completed"
        assert response.request_id == "rq-1"
        assert response.tenant == "acme"
        assert response.predicted_cost is not None
        assert response.error is None

    def test_bad_line_yields_bad_schema_and_connection_survives(self):
        service = frontend_service()
        server = FrontendServer(service, FrontendConfig(port=0))

        async def scenario():
            await server.start()
            try:
                reader, writer = await connect(server)
                await read_message(reader)  # hello
                writer.write(b'{"schema_version": 99, "kind": "nope"}\n')
                writer.write(b"not json at all\n")
                writer.write(wire_request("rq-after-errors"))
                await writer.drain()
                first = await read_message(reader)
                second = await read_message(reader)
                third = await read_message(reader)
                writer.close()
                await writer.wait_closed()
                return first, second, third
            finally:
                await server.close()

        try:
            first, second, third = asyncio.run(scenario())
        finally:
            service.stop()
        assert isinstance(first, ErrorV1) and first.code == "bad_schema"
        assert isinstance(second, ErrorV1) and second.code == "bad_schema"
        # Bad lines do not poison the connection: the valid request
        # after them is answered normally.
        assert isinstance(third, PlanResponseV1)
        assert third.status == "completed"
        assert third.request_id == "rq-after-errors"
        assert server.registry.counter("frontend.bad_lines").value == 2

    def test_admission_refusal_comes_back_as_rejected_response(self):
        service = frontend_service(
            max_pending_total=1, max_pending_per_tenant=1
        )
        server = FrontendServer(service, FrontendConfig(port=0))

        async def scenario():
            await server.start()
            try:
                reader, writer = await connect(server)
                await read_message(reader)
                # Burst well past the per-tenant bound; at least one
                # must shed, every line must be answered.
                for index in range(6):
                    writer.write(
                        wire_request(f"rq-{index}", input_gb=4.0 + index)
                    )
                await writer.drain()
                responses = [await read_message(reader) for _ in range(6)]
                writer.close()
                await writer.wait_closed()
                return responses
            finally:
                await server.close()

        try:
            responses = asyncio.run(scenario())
        finally:
            service.stop()
        statuses = sorted(response.status for response in responses)
        assert len(responses) == 6
        assert "rejected" in statuses
        rejected = [r for r in responses if r.status == "rejected"]
        assert all(r.error is not None and r.error.code == "rejected"
                   for r in rejected)


class TestCacheCapacity:
    def test_zero_capacity_resolves_a_repeated_request(self):
        # ``--cache-capacity 0`` means what it says behind the socket
        # too: nothing is retained, the same request solves again.
        service = frontend_service(cache_capacity=0)
        server = FrontendServer(service, FrontendConfig(port=0))

        async def scenario():
            await server.start()
            try:
                reader, writer = await connect(server)
                await read_message(reader)
                responses = []
                for request_id in ("rq-1", "rq-2"):
                    writer.write(wire_request(request_id))
                    await writer.drain()
                    responses.append(await read_message(reader))
                writer.close()
                await writer.wait_closed()
                return responses
            finally:
                await server.close()

        try:
            first, second = asyncio.run(scenario())
        finally:
            service.stop()
        assert first.status == second.status == "completed"
        assert not first.cached and not second.cached
        assert second.solve_s > 0.0
        assert service.metrics.cache_misses == 2


class TestDisconnect:
    def test_disconnect_cancels_queued_work(self):
        service = frontend_service()
        server = FrontendServer(service, FrontendConfig(port=0))

        async def scenario():
            await server.start()
            try:
                reader, writer = await connect(server)
                await read_message(reader)
                # A cold solve to occupy the worker, then queued work the
                # client will never wait for.
                writer.write(wire_request("rq-cold", input_gb=8.0))
                writer.write(wire_request("rq-queued-1", input_gb=16.0))
                writer.write(wire_request("rq-queued-2", input_gb=32.0))
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                # Give the server loop a moment to tear the session down.
                await eventually(lambda: server.registry.counter(
                    "frontend.cancelled_on_disconnect"
                ).value)
            finally:
                await server.close()

        try:
            asyncio.run(scenario())
            cancelled_on_disconnect = server.registry.counter(
                "frontend.cancelled_on_disconnect"
            ).value
            # The cancel flag is honored at dispatch on service threads.
            assert wait_until(lambda: service.metrics.cancelled >= 1)
        finally:
            service.stop()
        assert cancelled_on_disconnect >= 1
        metrics = service.metrics
        assert metrics.cancelled >= 1
        # Cancelled fingerprints never solved: at most the cold request
        # reached the pool.
        assert metrics.cache_misses <= 1


class TestLoadgenAgainstServer:
    def test_every_request_answered_under_concurrency(self):
        service = frontend_service()
        server = FrontendServer(service, FrontendConfig(port=0))

        async def scenario():
            await server.start()
            host, port = server.address
            try:
                workload = generate_wire_workload(
                    60, 2, seed=7, distinct=3
                )
                return await run_loadgen(
                    [f"{host}:{port}"],
                    workload,
                    connect_concurrency=32,
                    response_timeout_s=120.0,
                )
            finally:
                await server.close()

        try:
            report = asyncio.run(scenario())
        finally:
            service.stop()
        assert report.sent == 120
        assert report.connect_failures == 0
        assert report.lost == 0
        # Accountability: every request completed or came back as a
        # structured shed/error response.
        assert report.answered == report.sent
        assert report.completed >= report.sent * 0.5
        # The socket counters sit next to the service's own, unlabelled,
        # in the one registry ``--metrics-json`` snapshots.
        counters = service.metrics.registry.snapshot()["counters"]
        assert counters["frontend.requests"] == report.sent
        assert counters["frontend.responses"] == report.answered
        assert counters["completed"] == report.completed


def warm(service: PlanningService, *input_gbs: float) -> None:
    """Solve the wire requests' problems once, so they are cache hits."""
    from repro.api import Orchestrator

    orchestrator = Orchestrator(service=service)
    for input_gb in input_gbs:
        spec = from_workload("quickstart", input_gb=input_gb)
        assert orchestrator.submit(spec, tenant="warm").result(timeout=120.0).ok


class TestInlineHits:
    """A hit finished at submit is answered by the read loop itself."""

    def test_pipelined_hits_beyond_every_buffer_all_arrive_in_order(self):
        # 5,000 hits on one connection: more than ``send_queue_limit``
        # and than one reader buffer, written while the answers are
        # read.  The read loop produces answers without yielding, so it
        # must wait for queue space rather than take a full queue for a
        # slow client.
        total, tenants = 5000, ("acme", "zenith", "third")
        service = frontend_service()
        server = FrontendServer(service, FrontendConfig(port=0))
        assert total > server.config.send_queue_limit

        async def scenario():
            await server.start()
            try:
                warm(service, 8.0)
                reader, writer = await connect(server)
                await read_message(reader)

                async def send():
                    for index in range(total):
                        writer.write(wire_request(
                            f"rq-{index:05d}", tenant=tenants[index % 3]
                        ))
                        if index % 500 == 0:
                            await writer.drain()
                    await writer.drain()

                sending = asyncio.create_task(send())
                responses = [await read_message(reader) for _ in range(total)]
                await sending
                writer.close()
                await writer.wait_closed()
                return responses
            finally:
                await server.close()

        try:
            responses = asyncio.run(scenario())
        finally:
            service.stop()
        assert all(r.status == "completed" and r.cached for r in responses)
        for tenant in tenants:
            ids = [r.request_id for r in responses if r.tenant == tenant]
            assert ids == sorted(ids) and len(ids) == len(set(ids))
        assert len(responses) == total
        counters = service.metrics.registry.snapshot()["counters"]
        assert counters["frontend.slow_client_disconnects"] == 0
        assert counters["frontend.responses"] == total
        assert counters["cache_hits"] == total

    def test_client_that_never_reads_is_stalled_not_buffered(self):
        # Nothing is read from the socket.  Once the kernel's buffers and
        # the bounded send queue are full the read loop stops taking
        # requests: what the server holds for this client stays flat.
        service = frontend_service()
        server = FrontendServer(
            service, FrontendConfig(port=0, send_queue_limit=32)
        )
        requests = server.registry.counter("frontend.requests")

        async def scenario():
            await server.start()
            try:
                warm(service, 8.0)
                _reader, writer = await connect(server)
                line, sent, stalled = wire_request("rq"), 0, False
                while sent < 200_000 and not stalled:
                    writer.write(line * 500)
                    sent += 500
                    try:
                        await asyncio.wait_for(writer.drain(), 0.5)
                    except asyncio.TimeoutError:
                        stalled = True
                    except ConnectionError:
                        break  # aborted as a slow consumer: also bounded
                before = requests.value
                await asyncio.sleep(0.3)
                after = requests.value
                writer.transport.abort()
                disconnects = server.registry.counter("frontend.disconnects")
                await eventually(lambda: disconnects.value)
                return sent, stalled, before, after, disconnects.value
            finally:
                await server.close()

        try:
            sent, stalled, before, after, disconnects = asyncio.run(scenario())
        finally:
            service.stop()
        counters = service.metrics.registry.snapshot()["counters"]
        if not counters["frontend.slow_client_disconnects"]:
            assert stalled, "200,000 unread answers were taken without a bound"
            assert before == after < sent
        # The stalled read loop notices the dead connection and ends.
        assert disconnects == 1

    def test_disconnect_after_only_inline_answers_cancels_nothing(self):
        service = frontend_service()
        server = FrontendServer(service, FrontendConfig(port=0))

        async def scenario():
            await server.start()
            try:
                warm(service, 8.0)
                reader, writer = await connect(server)
                await read_message(reader)
                for index in range(20):
                    writer.write(wire_request(f"rq-{index}"))
                await writer.drain()
                responses = [await read_message(reader) for _ in range(20)]
                writer.close()
                await writer.wait_closed()
                await eventually(lambda: server.registry.counter(
                    "frontend.disconnects"
                ).value)
                return responses
            finally:
                await server.close()

        try:
            responses = asyncio.run(scenario())
        finally:
            service.stop()
        assert all(r.cached and r.queue_wait_s == 0.0 for r in responses)
        counters = service.metrics.registry.snapshot()["counters"]
        assert counters["frontend.disconnects"] == 1
        # No ticket was outstanding, so none was cancelled...
        assert counters["frontend.cancelled_on_disconnect"] == 0
        assert counters["cancelled"] == 0
        # ...and none ever went near the dispatcher.
        assert service.metrics.queue_wait.count == 1  # the warm-up's solve


class _RecordingWriter:
    """The two calls ``_send_loop`` makes, recorded."""

    def __init__(self):
        self.writes: list[bytes] = []

    def write(self, data: bytes) -> None:
        self.writes.append(data)

    async def drain(self) -> None:
        await asyncio.sleep(0)


class TestSendLoop:
    def test_a_queued_burst_leaves_in_fewer_writes_than_lines(self):
        server = FrontendServer(frontend_service(), FrontendConfig(port=0))
        lines = [f"line-{index}" for index in range(100)]
        writer = _RecordingWriter()

        async def scenario():
            queue: asyncio.Queue = asyncio.Queue(maxsize=1024)
            sender = asyncio.create_task(server._send_loop(writer, queue))
            for line in lines[:60]:
                queue.put_nowait(line)
            await asyncio.sleep(0.01)  # the sender drains the first burst
            for line in lines[60:]:
                queue.put_nowait(line)
            queue.put_nowait(None)
            await asyncio.wait_for(sender, 5.0)

        asyncio.run(scenario())
        # Same bytes, same order, one newline per line — in two writes.
        assert b"".join(writer.writes) == "".join(
            line + "\n" for line in lines
        ).encode("utf-8")
        assert len(writer.writes) == 2 < len(lines)

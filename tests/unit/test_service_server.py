"""Dispatch core and TCP transport: deadlines, backpressure, breaker, drain."""

import asyncio
import json
import socket
import struct
import threading

import pytest

from repro.retrying import RetryPolicy
from repro.rng import RngRegistry
from repro.service import server as server_module
from repro.service.backend import AdvisoryBackend
from repro.service.breaker import CircuitBreaker
from repro.service.protocol import encode_message
from repro.service.server import (
    AsyncPlacementServer,
    PlacementService,
    ServiceConfig,
)
from repro.service.soak import LogicalClock, build_soak_plan, build_traffic


def line(method, params=None, req_id=1):
    msg = {"jsonrpc": "2.0", "id": req_id, "method": method}
    if params is not None:
        msg["params"] = params
    return json.dumps(msg)


def make_service(host):
    clock = LogicalClock()
    backend = AdvisoryBackend(host, registry=RngRegistry(), runs=3)
    breaker = CircuitBreaker(
        failure_threshold=2,
        backoff=RetryPolicy(max_retries=0, base_delay_s=1.0,
                            multiplier=2.0, jitter=0.0),
        clock=clock,
    )
    return PlacementService(backend, breaker=breaker, clock=clock)


@pytest.fixture()
def service(host):
    return make_service(host)


def pin_dispatch(service):
    """Hold every dispatch until the returned event is set."""
    release = threading.Event()
    real = service.dispatch

    def slow(request, admitted_at):
        release.wait(timeout=10)
        return real(request, admitted_at)

    service.dispatch = slow
    return release


class TestDispatch:
    def test_advise_round_trip(self, service):
        out = json.loads(service.handle_line(line("advise", {
            "target": 7, "tasks": 4,
        })))
        assert out["result"]["degraded"] is False

    def test_health_and_ready(self, service):
        health = json.loads(service.handle_line(line("health")))["result"]
        assert health["status"] == "ok"
        ready = json.loads(service.handle_line(line("ready")))["result"]
        assert ready["ready"] is False  # not warmed yet
        service.backend.warm((7,))
        assert json.loads(
            service.handle_line(line("ready"))
        )["result"]["ready"] is True

    def test_expired_deadline_is_typed(self, service):
        out = json.loads(service.handle_line(line("classify", {
            "target": 7, "deadline_ms": 0,
        })))
        assert out["error"]["kind"] == "deadline_exceeded"

    def test_health_and_ready_report_draining(self, service):
        service.draining = True
        health = json.loads(service.handle_line(line("health")))["result"]
        assert health["draining"] is True
        ready = json.loads(service.handle_line(line("ready")))["result"]
        assert ready["draining"] is True and ready["ready"] is False

    def test_junk_never_raises(self, service):
        for junk in ("", "{", "[]", '{"jsonrpc":"2.0"}', "\x00\xff"):
            out = json.loads(service.handle_line(junk))
            assert "error" in out

    def test_internal_errors_are_sanitised(self, service, monkeypatch):
        def boom(**kwargs):
            raise RuntimeError("secret traceback detail")

        monkeypatch.setattr(service.backend, "classify", boom)
        out = json.loads(service.handle_line(line("classify", {"target": 7})))
        assert out["error"]["kind"] == "internal_error"
        assert "secret" not in out["error"]["message"]


class TestBreakerFlow:
    def test_trip_degraded_reply_then_half_open_recovery(self, service, host):
        clock = service.clock
        backend = service.backend
        backend.warm((7,))  # record last-good snapshots
        plan = build_soak_plan(host, 7, 0.0, 100.0)
        backend.set_machine(plan.apply(host, at_s=1.0))

        # Two consecutive solver failures trip the breaker; the tripping
        # request itself downgrades to the last-good answer.
        first = json.loads(service.handle_line(line("classify", {"target": 7})))
        assert first["error"]["kind"] == "solver_error"
        second = json.loads(service.handle_line(line("classify", {"target": 7})))
        assert second["result"]["degraded"] is True
        assert service.breaker.state == CircuitBreaker.OPEN

        # While open: degraded answers without touching the solver.
        out = json.loads(service.handle_line(line("advise", {
            "target": 7, "tasks": 3,
        })))
        assert out["result"]["degraded"] is True

        # Open + no snapshot coverage -> typed unavailable.
        out = json.loads(service.handle_line(line("plan", {})))
        assert out["error"]["kind"] == "unavailable"

        # Fabric heals; once the window elapses the half-open probe
        # succeeds and the service is fully live again.
        backend.restore_machine()
        clock.advance(2.0)
        out = json.loads(service.handle_line(line("classify", {"target": 7})))
        assert out["result"]["degraded"] is False
        assert service.breaker.state == CircuitBreaker.CLOSED

    def test_caller_mistakes_do_not_trip(self, service):
        for _ in range(3):
            out = json.loads(service.handle_line(line("classify", {
                "target": 99,
            })))
            assert out["error"]["kind"] == "invalid_params"
        assert service.breaker.state == CircuitBreaker.CLOSED


async def _client(port, lines):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    for payload in lines:
        writer.write((payload + "\n").encode())
    await writer.drain()
    out = [json.loads(await reader.readline()) for _ in lines]
    writer.close()
    await writer.wait_closed()
    return out


class TestAsyncTransport:
    def test_requests_answered_over_tcp(self, service):
        async def run():
            server = AsyncPlacementServer(
                service, ServiceConfig(port=0, queue_limit=8, workers=2)
            )
            await server.start()
            out = await _client(server.port, [
                line("health", req_id=1),
                line("advise", {"target": 7, "tasks": 2}, req_id=2),
            ])
            await server.drain()
            return out

        replies = asyncio.run(run())
        assert {r["id"] for r in replies} == {1, 2}
        assert all("result" in r for r in replies)

    def test_queue_full_rejects_with_overloaded(self, service):
        release = pin_dispatch(service)

        async def run():
            server = AsyncPlacementServer(
                service, ServiceConfig(port=0, queue_limit=1, workers=1)
            )
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            # 1 in-flight + 1 queued + N rejected
            for i in range(4):
                writer.write((line("health", req_id=i) + "\n").encode())
                await writer.drain()
                await asyncio.sleep(0.05)  # let admission happen in order
            first = json.loads(await reader.readline())
            second = json.loads(await reader.readline())
            release.set()
            rest = [json.loads(await reader.readline()) for _ in range(2)]
            writer.close()
            await writer.wait_closed()
            await server.drain()
            return [first, second] + rest, server.rejected

        replies, rejected = asyncio.run(run())
        kinds = [r["error"]["kind"] for r in replies if "error" in r]
        assert kinds.count("overloaded") == 2
        assert rejected == 2
        assert sum(1 for r in replies if "result" in r) == 2

    def test_deadline_cancels_slow_request(self, service):
        release = pin_dispatch(service)
        service.clock = __import__("time").monotonic  # real queue-wait timing

        async def run():
            server = AsyncPlacementServer(
                service, ServiceConfig(port=0, queue_limit=4, workers=1)
            )
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write((line("health", req_id=1) + "\n").encode())
            writer.write(
                (line("classify", {"target": 7, "deadline_ms": 100}, req_id=2)
                 + "\n").encode()
            )
            await writer.drain()
            # Pin the single worker on request 1 for longer than request
            # 2's deadline, then let it go.
            await asyncio.sleep(0.3)
            release.set()
            first = json.loads(await reader.readline())
            second = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            await server.drain()
            return first, second

        first, second = asyncio.run(run())
        # The slow in-flight request pins the single worker; the queued
        # request's deadline expires and it is answered with the typed
        # error as soon as a worker picks it up.
        answered = {first["id"]: first, second["id"]: second}
        assert answered[2]["error"]["kind"] == "deadline_exceeded"

    @pytest.mark.parametrize("size", [64 * 1024 + 1, 300 * 1024])
    def test_oversized_line_is_typed_and_connection_survives(
        self, service, size
    ):
        async def run():
            server = AsyncPlacementServer(
                service, ServiceConfig(port=0, queue_limit=8, workers=2)
            )
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            oversized = line("health", {"pad": "x" * size}, req_id=1)
            writer.write((oversized + "\n").encode())
            writer.write((line("health", req_id=2) + "\n").encode())
            await writer.drain()
            first = json.loads(await reader.readline())
            second = json.loads(await reader.readline())
            writer.write_eof()  # the server closes its side on EOF ...
            rest = await reader.read()  # ... with nothing else to say
            writer.close()
            await writer.wait_closed()
            await server.drain()
            return first, second, rest

        first, second, rest = asyncio.run(run())
        assert first["id"] is None
        assert first["error"]["code"] == -32600
        assert first["error"]["kind"] == "invalid_request"
        assert second["id"] == 2 and second["result"]["status"] == "ok"
        assert rest == b""

    def test_drain_answers_queued_work_then_refuses(self, service):
        release = pin_dispatch(service)

        async def run():
            server = AsyncPlacementServer(
                service, ServiceConfig(port=0, queue_limit=8, workers=1)
            )
            await server.start()
            port = server.port
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            # One request in flight on the single worker, one queued.
            writer.write((line("health", req_id=1) + "\n").encode())
            writer.write(
                (line("classify", {"target": 7}, req_id=2) + "\n").encode()
            )
            await writer.drain()
            await asyncio.sleep(0.05)  # both admitted
            drain = asyncio.create_task(server.drain())
            await asyncio.sleep(0)  # the drain has begun
            assert service.draining
            writer.write(
                (line("classify", {"target": 7}, req_id=3) + "\n").encode()
            )
            await writer.drain()
            refused = json.loads(await reader.readline())
            release.set()
            answered = [json.loads(await reader.readline()) for _ in range(2)]
            await drain
            # The listener is closed: new connections are refused.
            with pytest.raises(OSError):
                await asyncio.open_connection("127.0.0.1", port)
            writer.close()
            await writer.wait_closed()
            return refused, answered

        refused, answered = asyncio.run(run())
        assert refused["id"] == 3
        assert refused["error"]["kind"] == "shutting_down"
        assert sorted(r["id"] for r in answered) == [1, 2]
        assert all("result" in r for r in answered)

    def test_half_closed_client_gets_every_reply(self, service):
        async def run():
            server = AsyncPlacementServer(
                service, ServiceConfig(port=0, queue_limit=8, workers=2)
            )
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            # Three pipelined lines, the last an unterminated tail, then
            # EOF on the client's write side.
            writer.write("\n".join([
                line("health", req_id=1),
                line("classify", {"target": 7}, req_id=2),
                line("health", req_id=3),
            ]).encode())
            writer.write_eof()
            raw = await asyncio.wait_for(reader.read(), timeout=30)
            writer.close()
            await writer.wait_closed()
            await server.drain()
            return [json.loads(reply) for reply in raw.splitlines()]

        replies = asyncio.run(run())
        assert sorted(r["id"] for r in replies) == [1, 2, 3]
        assert all("result" in r for r in replies)

    def test_transport_faults_are_events_not_tracebacks(self, service):
        captured = []

        async def run():
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: captured.append(context)
            )
            server = AsyncPlacementServer(
                service, ServiceConfig(port=0, queue_limit=8, workers=2)
            )
            await server.start()
            clients = []
            for req_id in (1, 2):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write((line("health", req_id=req_id) + "\n").encode())
                await reader.readline()  # the handler is up and reading
                clients.append((reader, writer))
            # The first client resets its connection (RST) ...
            reset = clients[0][1]
            reset.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            reset.transport.abort()
            await asyncio.sleep(0.1)
            # ... the second is still connected, idle, when drain runs.
            await server.drain()
            idle_reader, idle_writer = clients[1]
            tail = await asyncio.wait_for(idle_reader.read(), timeout=5)
            idle_writer.close()
            await idle_writer.wait_closed()
            return tail

        tail = asyncio.run(run())
        assert captured == []
        assert tail == b""  # drain closed the idle connection
        faults = [
            event["tags"]["error"] for event in service.live.flight.events()
            if event["kind"] == "transport-error"
        ]
        assert faults == ["ConnectionResetError"]

    def test_each_line_is_decoded_once(self, service, monkeypatch):
        decoded = []
        real_decode = server_module.decode_request

        def counting(text):
            decoded.append(text)
            return real_decode(text)

        monkeypatch.setattr(server_module, "decode_request", counting)
        release = pin_dispatch(service)
        burst = 50

        async def run():
            server = AsyncPlacementServer(
                service, ServiceConfig(port=0, queue_limit=4, workers=1)
            )
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write("".join(
                line("health", req_id=i) + "\n" for i in range(burst)
            ).encode())
            await writer.drain()
            # At most workers + queue_limit = 5 lines are admitted, so
            # the first 45 replies are refusals.
            replies = [json.loads(await reader.readline()) for _ in range(45)]
            release.set()
            replies += [json.loads(await reader.readline()) for _ in range(5)]
            writer.close()
            await writer.wait_closed()
            await server.drain()
            return replies, server.rejected

        replies, rejected = asyncio.run(run())
        assert sorted(r["id"] for r in replies) == list(range(burst))
        overloaded = [
            r for r in replies
            if r.get("error", {}).get("kind") == "overloaded"
        ]
        assert len(overloaded) == rejected >= 45
        assert len(decoded) == burst


def _without_queue_wait(reply: str) -> str:
    """A ``metrics`` reply minus the TCP-only queue-wait histogram."""
    message = json.loads(reply)
    histograms = message.get("result", {}).get("histograms")
    if histograms is None or "service.queue_wait" not in histograms:
        return reply
    del histograms["service.queue_wait"]
    return encode_message(message)


class TestTransportDifferential:
    def test_tcp_replies_equal_handle_line(self, host):
        """TCP and in-process answer every soak line with the same bytes."""
        traffic = build_traffic(RngRegistry(7), host, 7, 80)
        assert any('"deadline_ms":0' in text for text in traffic)
        twin = make_service(host)
        expected = []
        for text in traffic:
            expected.append(twin.handle_line(text))
            twin.clock.advance()

        service = make_service(host)

        async def run():
            server = AsyncPlacementServer(
                service, ServiceConfig(port=0, queue_limit=8, workers=2)
            )
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            replies = []
            for text in traffic:
                writer.write((text + "\n").encode())
                await writer.drain()
                replies.append((await reader.readline()).decode())
                service.clock.advance()
            writer.close()
            await writer.wait_closed()
            await server.drain()
            return replies

        replies = asyncio.run(run())
        assert len(replies) == len(traffic)
        for text, want, got in zip(traffic, expected, replies):
            assert _without_queue_wait(got) == want, text


class TestLiveMetrics:
    """The always-on live plane: metrics method, flight recorder, drift."""

    def test_health_reports_uptime_and_flight_occupancy(self, service):
        before = json.loads(service.handle_line(line("health")))["result"]
        assert before["uptime_s"] == 0.0  # logical clock has not ticked
        assert before["flight_recorder"]["span_capacity"] > 0
        service.clock.advance(3.0)
        after = json.loads(service.handle_line(line("health")))["result"]
        assert after["uptime_s"] == 3.0
        # The first health answer became a completed span.
        assert after["flight_recorder"]["span_total"] == 1

    def test_ready_reports_warm_target_count(self, service):
        ready = json.loads(service.handle_line(line("ready")))["result"]
        assert ready["warm_targets"] == 0
        service.backend.warm((7,))
        ready = json.loads(service.handle_line(line("ready")))["result"]
        assert ready["warm_targets"] == 1

    def test_metrics_method_round_trip(self, service):
        service.backend.warm((7,))
        service.handle_line(line("advise", {"target": 7, "tasks": 4}))
        service.handle_line(line("classify", {"target": 7}))
        out = json.loads(service.handle_line(line("metrics")))
        result = out["result"]
        assert result["requests"] == 3
        assert result["tiers"]["2"] == 2
        assert result["counters"]["service.tier.2.answers"] == 2
        hist = result["histograms"]["service.latency.method.advise"]
        assert hist["count"] == 1
        assert hist["p99"] == 0.0  # logical clock: every duration is 0
        assert result["drift"]["watched"] == 2  # write + read models
        assert "flight" not in result

    def test_metrics_flight_param_dumps_recorder(self, service):
        service.backend.warm((7,))
        service.handle_line(line("advise", {"target": 7, "tasks": 4}))
        out = json.loads(service.handle_line(
            line("metrics", {"flight": True})
        ))
        flight = out["result"]["flight"]
        assert flight["spans"][0]["name"] == "advise"
        assert flight["spans"][0]["tag"] == 2

    def test_metrics_answered_while_draining(self, service):
        service.draining = True
        out = json.loads(service.handle_line(line("metrics")))
        assert "result" in out

    def test_typed_errors_become_flight_events(self, service):
        service.handle_line(line("classify", {"target": 99}))
        # Error events are buffered; any plane read (here the public
        # metrics method) drains them into the ring.
        out = json.loads(service.handle_line(line("metrics", {"flight": True})))
        events = out["result"]["flight"]["events"]
        assert events[-1]["kind"] == "error"
        assert events[-1]["tags"] == {"kind": "invalid_params"}

    def test_breaker_trip_fires_event_counter_and_dump_sink(
        self, service, host
    ):
        dumps = []
        service.flight_dump_sink = dumps.append
        service.backend.warm((7,))
        plan = build_soak_plan(host, 7, 0.0, 100.0)
        service.backend.set_machine(plan.apply(host, at_s=1.0))
        service.handle_line(line("classify", {"target": 7}))
        service.handle_line(line("classify", {"target": 7}))
        assert service.breaker.state == CircuitBreaker.OPEN
        assert service.live.counters["service.breaker.trips"] == 1
        trip_events = [
            e for e in service.live.flight.events()
            if e["kind"] == "breaker-trip"
        ]
        assert len(trip_events) == 1
        assert trip_events[0]["tags"]["state"] == CircuitBreaker.OPEN
        assert len(dumps) == 1 and "spans" in dumps[0]

    def test_drift_drill_degraded_fabric_fires_event(self, service, host):
        from repro.faults.events import LinkDegrade
        from repro.faults.plan import FaultedMachine
        from repro.obs.live import REGIME_BANDWIDTH, REGIME_CONTENTION

        backend = service.backend
        backend.warm((7,))  # reference characterization
        # Serve a few fast-tier answers off the healthy model.
        for i in range(3):
            service.handle_line(line("classify", {"target": 7}, req_id=i))
        assert service.drift.events == 0

        # Derate every cable touching the device node, both directions:
        # solves still succeed, but the class bandwidths drop far past
        # the 10% drift threshold.
        cables = sorted(
            {tuple(sorted(ends)) for ends in host.links if 7 in ends}
        )
        faults = [
            LinkDegrade(src, dst, 0.4)
            for a, b in cables for src, dst in ((a, b), (b, a))
        ]
        backend.set_machine(FaultedMachine(host, faults))
        out = json.loads(service.handle_line(line("classify", {"target": 7})))
        assert "result" in out  # the faulted solve lands (tier 3)
        assert out["result"]["tier"] == 3

        assert service.drift.events == 1
        event = service.drift.last
        assert event["target"] == 7 and event["mode"] == "write"
        assert event["deviation"] > 0.10
        assert event["served_answers"] == 3
        assert event["regime"] in (REGIME_BANDWIDTH, REGIME_CONTENTION)
        assert service.live.counters["service.drift.events"] == 1
        drift_events = [
            e for e in service.live.flight.events() if e["kind"] == "drift"
        ]
        assert len(drift_events) == 1 and drift_events[0]["tags"] == event

    def test_queue_wait_histogram_fills_over_tcp(self, service):
        async def run():
            server = AsyncPlacementServer(
                service, ServiceConfig(port=0, queue_limit=8, workers=2)
            )
            await server.start()
            await _client(server.port, [line("health", req_id=1)])
            await server.drain()

        asyncio.run(run())
        assert service.live.hists["service.queue_wait"].count == 1

    def test_null_plane_disables_recording(self, host):
        from repro.obs.live import NullLivePlane

        backend = AdvisoryBackend(host, registry=RngRegistry(), runs=3)
        service = PlacementService(
            backend, clock=LogicalClock(), live=NullLivePlane()
        )
        assert service.drift is None
        service.handle_line(line("advise", {"target": 7, "tasks": 4}))
        assert service.live.hists == {}
        assert service.live.counters == {}
        assert service.live.flight.span_total == 0

"""Tests for the asyncio HTTP front end: framing, keep-alive, reload
consistency under concurrent traffic."""

import asyncio
import json

import pytest

from repro.core.database import CoverageDatabase
from repro.core.records import CoverageRecord
from repro.memory.geometry import MemoryGeometry
from repro.obs.bus import EventBus
from repro.obs.report import build_report
from repro.runner.atomic import canonical_json
from repro.service import app
from repro.service.app import MAX_BODY_BYTES, EstimatorService, serve
from repro.service.schema import batch_response_document, report_document
from repro.service.state import DatabaseSnapshot, ServiceState


def rec(kind, r, cond, detected, total=100):
    return CoverageRecord(kind, r, cond, 1.8, 1e-7, detected, total)


def database_v1():
    return CoverageDatabase([rec("bridge", 1e2, "VLV", 100),
                             rec("bridge", 1e4, "VLV", 90)])


def database_v2():
    return CoverageDatabase([rec("bridge", 1e2, "VLV", 95),
                             rec("bridge", 1e4, "VLV", 70)])


ESTIMATE_BODY = json.dumps({"queries": [{"geometry": {
    "rows": 8, "columns": 2, "bits_per_word": 4}}]}).encode()


def expected_estimate_body(snapshot):
    """The byte-exact response the service must produce."""
    report = snapshot.estimator.estimate(MemoryGeometry(8, 2, 4),
                                         "bridge")
    doc = batch_response_document(snapshot.etag,
                                  [report_document(report)])
    return (canonical_json(doc) + "\n").encode()


def make_service(tmp_path):
    db_path = tmp_path / "coverage.json"
    database_v1().save(db_path)
    return EstimatorService(
        ServiceState(DatabaseSnapshot.load(db_path), db_path)), db_path


async def read_response(reader):
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        if line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    payload = await reader.readexactly(int(headers["content-length"]))
    return status, headers, payload


async def request(port, method, path, body=b"", close=True):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    connection = "close" if close else "keep-alive"
    writer.write((f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
                  f"Content-Length: {len(body)}\r\n"
                  f"Connection: {connection}\r\n\r\n").encode() + body)
    await writer.drain()
    try:
        return await read_response(reader)
    finally:
        writer.close()


async def with_server(service, scenario):
    server = await serve(service)
    port = server.sockets[0].getsockname()[1]
    try:
        return await scenario(port)
    finally:
        server.close()
        await server.wait_closed()


class TestHttpFraming:
    def test_estimate_byte_identical_over_the_wire(self, tmp_path):
        service, _ = make_service(tmp_path)

        async def scenario(port):
            return await request(port, "POST", "/v1/estimate",
                                 ESTIMATE_BODY)

        status, headers, payload = asyncio.run(
            with_server(service, scenario))
        assert status == 200
        assert headers["content-type"] == "application/json"
        assert payload == expected_estimate_body(service.state.snapshot)

    def test_keep_alive_serves_second_request_from_cache(self, tmp_path):
        service, _ = make_service(tmp_path)

        async def scenario(port):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            results = []
            for _ in range(2):
                writer.write((f"POST /v1/estimate HTTP/1.1\r\nHost: t"
                              f"\r\nContent-Length: "
                              f"{len(ESTIMATE_BODY)}\r\n\r\n"
                              ).encode() + ESTIMATE_BODY)
                await writer.drain()
                results.append(await read_response(reader))
            writer.close()
            return results

        (s1, h1, p1), (s2, h2, p2) = asyncio.run(
            with_server(service, scenario))
        assert (s1, s2) == (200, 200)
        assert h1["x-cache"] == "miss"
        assert h2["x-cache"] == "hit"
        assert p1 == p2

    def test_health_over_the_wire(self, tmp_path):
        service, _ = make_service(tmp_path)

        async def scenario(port):
            return await request(port, "GET", "/v1/health")

        status, _, payload = asyncio.run(with_server(service, scenario))
        assert status == 200
        assert json.loads(payload)["status"] == "ok"

    def test_malformed_request_line_is_400(self, tmp_path):
        service, _ = make_service(tmp_path)

        async def scenario(port):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(b"NONSENSE\r\n\r\n")
            await writer.drain()
            result = await read_response(reader)
            extra = await reader.read()   # 400s close the connection
            writer.close()
            return result, extra

        (status, _, payload), extra = asyncio.run(
            with_server(service, scenario))
        assert status == 400
        assert json.loads(payload)["error"]["code"] == "bad-request"
        assert extra == b""

    def test_underflowing_yield_is_400_and_journalled(self, tmp_path):
        service, _ = make_service(tmp_path)
        service.bus = EventBus()
        body = json.dumps({"queries": [{"geometry": {
            "rows": 10**9, "columns": 10**6,
            "bits_per_word": 64}}]}).encode()

        async def scenario(port):
            return [await request(port, "POST", "/v1/estimate", b)
                    for b in (body, ESTIMATE_BODY)]

        (status, _, payload), (ok, _, estimate) = asyncio.run(
            with_server(service, scenario))
        assert status == 400
        assert json.loads(payload)["error"]["code"] == "bad-yield"
        # The server keeps answering, byte for byte as before.
        assert ok == 200
        assert estimate == expected_estimate_body(service.state.snapshot)
        assert [e.data["status"] for e in service.bus.events
                if e.name == "service.request"] == [400, 200]

    def test_bad_content_length_is_400(self, tmp_path):
        service, _ = make_service(tmp_path)

        async def scenario(port):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(b"POST /v1/estimate HTTP/1.1\r\n"
                         b"Content-Length: banana\r\n\r\n")
            await writer.drain()
            result = await read_response(reader)
            writer.close()
            return result

        status, _, _ = asyncio.run(with_server(service, scenario))
        assert status == 400

    def test_oversized_body_is_rejected_unread(self, tmp_path):
        service, _ = make_service(tmp_path)

        async def scenario(port):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write((f"POST /v1/estimate HTTP/1.1\r\n"
                          f"Content-Length: {MAX_BODY_BYTES + 1}"
                          f"\r\n\r\n").encode())
            await writer.drain()
            result = await read_response(reader)
            writer.close()
            return result

        status, _, payload = asyncio.run(with_server(service, scenario))
        assert status == 400
        assert "Content-Length" in json.loads(payload)["error"]["detail"]


class TestConcurrentHotReload:
    def test_requests_during_reload_see_one_generation_each(
            self, tmp_path):
        """Concurrent estimates racing a database swap: every response
        must byte-equal one whole generation's answer -- never a mix --
        and traffic after the swap serves the new database."""
        service, db_path = make_service(tmp_path)
        expected_v1 = expected_estimate_body(service.state.snapshot)
        expected_v2 = expected_estimate_body(
            DatabaseSnapshot.from_database(database_v2()))

        async def scenario(port):
            async def client(n):
                results = []
                for _ in range(n):
                    results.append(await request(
                        port, "POST", "/v1/estimate", ESTIMATE_BODY))
                return results

            clients = [asyncio.create_task(client(5)) for _ in range(4)]
            await asyncio.sleep(0)        # let the first wave start
            database_v2().save(db_path)
            reload_status, _, reload_payload = await request(
                port, "POST", "/v1/reload")
            raced = [r for results in await asyncio.gather(*clients)
                     for r in results]
            final = await request(port, "POST", "/v1/estimate",
                                  ESTIMATE_BODY)
            return reload_status, reload_payload, raced, final

        reload_status, reload_payload, raced, final = asyncio.run(
            with_server(service, scenario))
        assert reload_status == 200
        assert json.loads(reload_payload)["outcome"] == "reloaded"
        for status, _, payload in raced:
            assert status == 200
            assert payload in (expected_v1, expected_v2)
        status, _, payload = final
        assert status == 200
        assert payload == expected_v2

    def test_corrupt_swap_keeps_serving_old_generation(self, tmp_path):
        service, db_path = make_service(tmp_path)
        expected_v1 = expected_estimate_body(service.state.snapshot)

        async def scenario(port):
            before = await request(port, "POST", "/v1/estimate",
                                   ESTIMATE_BODY)
            db_path.write_text("{torn")
            rejected = await request(port, "POST", "/v1/reload")
            after = await request(port, "POST", "/v1/estimate",
                                  ESTIMATE_BODY)
            return before, rejected, after

        before, rejected, after = asyncio.run(
            with_server(service, scenario))
        assert before[0] == 200 and before[2] == expected_v1
        assert rejected[0] == 409
        assert json.loads(rejected[2])["outcome"] == "rejected"
        assert after[0] == 200 and after[2] == expected_v1


class TestServeLifecycle:
    def test_ephemeral_port_is_real(self, tmp_path):
        service, _ = make_service(tmp_path)

        async def scenario():
            server = await serve(service, port=0)
            port = server.sockets[0].getsockname()[1]
            server.close()
            await server.wait_closed()
            return port

        assert asyncio.run(scenario()) > 0

    def test_clean_eof_before_any_request(self, tmp_path):
        service, _ = make_service(tmp_path)

        async def scenario(port):
            _, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.close()
            await writer.wait_closed()
            # The handler must swallow the empty connection; a follow-up
            # request proves the server is still healthy.
            return await request(port, "GET", "/v1/health")

        status, _, _ = asyncio.run(with_server(service, scenario))
        assert status == 200


class TestShutdown:
    def test_cancel_inside_wait_closed_reports_nothing(self, tmp_path,
                                                       monkeypatch):
        """SIGINT shutdown can cancel a handler while it waits for its
        closed socket (a keep-alive client that just hung up); the
        handler must not end cancelled, or asyncio's connection
        callback reports a CancelledError traceback."""
        service, _ = make_service(tmp_path)
        closing = []

        async def stuck(writer):
            closing[0].set()
            await asyncio.Event().wait()

        monkeypatch.setattr(asyncio.StreamWriter, "wait_closed", stuck)
        reported = []

        async def scenario(port):
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: reported.append(context))
            closing.append(asyncio.Event())
            _, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.close()
            await closing[0].wait()
            handler, = asyncio.all_tasks() - {asyncio.current_task()}
            handler.cancel()
            await asyncio.gather(handler, return_exceptions=True)
            await asyncio.sleep(0)
            return handler.cancelled()

        cancelled = asyncio.run(with_server(service, scenario))
        assert reported == []
        assert not cancelled


class TestReadDeadline:
    """A request that does not arrive in time closes its connection."""

    TIMEOUT = 0.3

    @pytest.mark.parametrize("sent", [b"", b"GET /v1/health HTTP/1.1\r\n"],
                             ids=["idle", "stalled-mid-head"])
    def test_silent_client_is_closed(self, tmp_path, monkeypatch, sent):
        monkeypatch.setattr(app, "READ_TIMEOUT_S", self.TIMEOUT)
        service, _ = make_service(tmp_path)

        async def scenario(port):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(sent)
            await writer.drain()
            loop = asyncio.get_running_loop()
            started = loop.time()
            # EOF from the server, well before this guard expires.
            tail = await asyncio.wait_for(reader.read(), 10.0)
            waited = loop.time() - started
            writer.close()
            return tail, waited

        tail, waited = asyncio.run(with_server(service, scenario))
        assert tail == b""
        assert waited >= self.TIMEOUT * 0.5

    def test_keep_alive_client_that_keeps_sending_is_served(
            self, tmp_path, monkeypatch):
        """The deadline is per request: a connection outliving it is fine
        while each request arrives in time."""
        monkeypatch.setattr(app, "READ_TIMEOUT_S", self.TIMEOUT)
        service, _ = make_service(tmp_path)

        async def scenario(port):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            statuses = []
            for _ in range(4):
                await asyncio.sleep(self.TIMEOUT / 3)
                writer.write(b"GET /v1/health HTTP/1.1\r\nHost: t\r\n"
                             b"Content-Length: 0\r\n\r\n")
                await writer.drain()
                status, headers, _ = await read_response(reader)
                statuses.append((status, headers["connection"]))
            writer.close()
            return statuses

        assert asyncio.run(with_server(service, scenario)) == [
            (200, "keep-alive")] * 4


class TestRejectJournal:
    """Connections dropped before dispatch still reach the journal."""

    @staticmethod
    def journaled_service(tmp_path):
        service, _ = make_service(tmp_path)
        service.bus = EventBus()
        return service

    @staticmethod
    def rejects(service):
        return build_report({}, service.bus.events)["service"]["rejects"]

    def test_bad_content_length_is_journaled(self, tmp_path):
        service = self.journaled_service(tmp_path)

        async def scenario(port):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(b"POST /v1/estimate HTTP/1.1\r\n"
                         b"Content-Length: -5\r\n\r\n")
            await writer.drain()
            result = await read_response(reader)
            writer.close()
            return result

        status, _, _ = asyncio.run(with_server(service, scenario))
        assert status == 400
        assert [(e.name, e.data) for e in service.bus.events] == [
            ("service.reject", {"reason": "bad-request"})]
        assert self.rejects(service) == {"bad-request": 1}

    def test_stalled_client_is_journaled(self, tmp_path, monkeypatch):
        monkeypatch.setattr(app, "READ_TIMEOUT_S", 0.2)
        service = self.journaled_service(tmp_path)

        async def scenario(port):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(b"POST /v1/estimate HTTP/1.1\r\n")
            await writer.drain()
            tail = await asyncio.wait_for(reader.read(), 10.0)
            writer.close()
            return tail

        assert asyncio.run(with_server(service, scenario)) == b""
        assert [(e.name, e.data) for e in service.bus.events] == [
            ("service.reject", {"reason": "read-timeout"})]
        assert self.rejects(service) == {"read-timeout": 1}


@pytest.mark.parametrize("path,method", [("/v1/estimate", "GET"),
                                         ("/v1/reload", "GET"),
                                         ("/v1/health", "POST")])
def test_wrong_method_over_the_wire(tmp_path, path, method):
    service, _ = make_service(tmp_path)

    async def scenario(port):
        return await request(port, method, path)

    status, headers, _ = asyncio.run(with_server(service, scenario))
    assert status == 405
    assert "allow" in headers

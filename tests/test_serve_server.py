"""HTTP-level tests of the serving tier.

Every test starts a real :class:`~repro.serve.server.SkylineServer` on
an ephemeral port and talks to it through
:class:`~repro.serve.client.ServeClient` (or a raw socket where the
protocol detail matters), covering the route surface, the
error-to-status mapping, deadline degradation over HTTP, admission
control, metrics exposition, and graceful drain.
"""

from __future__ import annotations

import asyncio
import json

import pytest

import repro.obs as obs
from repro import Dataset, DynamicSkylineEngine, PreferenceModel
from repro.serve import ServeClient, ServeConfig, SkylineServer


def _engine() -> DynamicSkylineEngine:
    objects = [
        ("a", "x"),
        ("a", "y"),
        ("b", "x"),
        ("b", "z"),
        ("c", "y"),
        ("c", "z"),
    ]
    preferences = PreferenceModel(2, default=0.5)
    preferences.set_preference(0, "a", "b", 0.7, 0.2)
    preferences.set_preference(0, "a", "c", 0.6, 0.3)
    preferences.set_preference(0, "b", "c", 0.4, 0.4)
    preferences.set_preference(1, "x", "y", 0.55, 0.35)
    preferences.set_preference(1, "x", "z", 0.8, 0.1)
    preferences.set_preference(1, "y", "z", 0.3, 0.6)
    return DynamicSkylineEngine(Dataset(objects), preferences)


def _serve(test, config: ServeConfig | None = None, **server_kwargs):
    """Run ``await test(server, client)`` against a fresh served engine."""

    async def body():
        server = SkylineServer(
            _engine(),
            config or ServeConfig(port=0, window=0.01, observe=False),
            **server_kwargs,
        )
        await server.start()
        try:
            async with ServeClient("127.0.0.1", server.port) as client:
                return await test(server, client)
        finally:
            await server.drain()

    return asyncio.run(body())


class TestRoutes:
    def test_healthz_reports_ok_and_cardinality(self):
        async def check(server, client):
            response = await client.healthz()
            assert response.status == 200
            assert response.data["status"] == "ok"
            assert response.data["objects"] == 6
            assert response.data["pending"] == 0

        _serve(check)

    def test_query_roundtrip_reports_the_engine_answer(self):
        async def check(server, client):
            response = await client.query(0)
            assert response.status == 200
            data = response.data
            assert data["target"] == 0
            assert data["exact"] is True
            assert data["degraded"] is False
            assert data["batch_size"] == 1
            assert data["coalesced"] is False
            assert (
                data["probability"]
                == server.engine.skyline_probabilities()[0]
            )

        _serve(check)

    def test_shared_client_serialises_concurrent_coroutines(self):
        # One ServeClient is one connection; four coroutines racing on
        # it must queue behind the request lock, not interleave reads.
        async def check(server, client):
            responses = await asyncio.gather(
                *(client.query(index) for index in range(4))
            )
            assert [r.status for r in responses] == [200] * 4
            assert [r.data["target"] for r in responses] == [0, 1, 2, 3]

        _serve(check)

    def test_keep_alive_serves_sequential_requests(self):
        async def check(server, client):
            first = await client.query(0)
            second = await client.query(1)
            assert first.status == second.status == 200
            assert first.data["target"] == 0
            assert second.data["target"] == 1

        _serve(check)

    def test_edit_insert_then_duplicate_conflict(self):
        async def check(server, client):
            inserted = await client.edit(
                "insert_object", values=["c", "x"]
            )
            assert inserted.status == 200
            assert inserted.data["operation"] == "insert"
            assert inserted.data["objects"] == 7
            duplicate = await client.edit(
                "insert_object", values=["c", "x"]
            )
            assert duplicate.status == 409
            assert (
                duplicate.data["error"]["type"] == "DuplicateObjectError"
            )

        _serve(check)

    def test_edit_remove_and_update_preference(self):
        async def check(server, client):
            removed = await client.edit("remove_object", target=5)
            assert removed.status == 200
            assert removed.data["objects"] == 5
            updated = await client.edit(
                "update_preference",
                dimension=0, a="a", b="b",
                prob_a_over_b=0.6, prob_b_over_a=0.3,
            )
            assert updated.status == 200
            assert updated.data["cache_evictions"] >= 0
            assert (
                server.engine.preferences.prob_prefers(0, "a", "b") == 0.6
            )

        _serve(check)

    def test_deadline_degrades_over_http(self):
        async def check(server, client):
            response = await client.query(
                0, method="det", deadline=1e-9, samples=120, seed=9
            )
            assert response.status == 200
            assert response.data["degraded"] is True
            assert response.data["method"] == "sam"
            assert response.data["samples"] == 120
            assert response.data["overrun_seconds"] > 0.0

        _serve(check)

    def test_max_overrun_truncates_over_http(self):
        async def check(server, client):
            response = await client.query(
                0, method="det", deadline=1e-9, max_overrun=0.0,
                samples=400_000, seed=9,
            )
            assert response.status == 200
            assert response.data["degraded"] is True
            assert 0 < response.data["samples"] < 400_000
            assert "truncated" in response.data["degradation_reason"]

        _serve(check)

    def test_on_deadline_raise_maps_to_504(self):
        async def check(server, client):
            response = await client.query(
                0, method="det", deadline=1e-9, on_deadline="raise"
            )
            assert response.status == 504
            assert (
                response.data["error"]["type"] == "DeadlineExceededError"
            )

        _serve(check)


class TestProtocolErrors:
    def test_unknown_route_is_404(self):
        async def check(server, client):
            response = await client.request("GET", "/nope")
            assert response.status == 404
            assert response.data["error"]["type"] == "ServingError"

        _serve(check)

    def test_wrong_method_is_405(self):
        async def check(server, client):
            response = await client.request("GET", "/query")
            assert response.status == 405

        _serve(check)

    def test_query_without_index_is_400(self):
        async def check(server, client):
            response = await client.request("POST", "/query", {"seed": 1})
            assert response.status == 400

        _serve(check)

    def test_unknown_query_option_is_400(self):
        async def check(server, client):
            response = await client.query(0, typo_option=True)
            assert response.status == 400
            assert "typo_option" in response.data["error"]["message"]

        _serve(check)

    def test_stale_index_is_400_with_dataset_error(self):
        async def check(server, client):
            response = await client.query(99)
            assert response.status == 400
            assert response.data["error"]["type"] == "DatasetError"

        _serve(check)

    def test_bad_edit_operation_is_400(self):
        async def check(server, client):
            response = await client.edit("drop_table")
            assert response.status == 400

        _serve(check)

    def test_non_integer_remove_target_is_400(self):
        # 1.5 is neither an index nor a value list: the engine's index
        # rule rejects it with a DatasetError, not a bare TypeError.
        async def check(server, client):
            response = await client.edit("remove_object", target=1.5)
            assert response.status == 400
            assert response.data["error"]["type"] == "DatasetError"
            assert (await client.healthz()).data["objects"] == 6

        _serve(check)

    def test_malformed_json_is_400(self):
        async def check(server, client):
            raw = b"this is not json"
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                b"POST /query HTTP/1.1\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {len(raw)}\r\n\r\n".encode()
                + raw
            )
            await writer.drain()
            status_line = await reader.readline()
            writer.close()
            await writer.wait_closed()
            assert b"400" in status_line

        _serve(check)

    def test_oversized_body_is_413_and_closes(self):
        async def check(server, client):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                b"POST /query HTTP/1.1\r\n"
                b"Content-Length: 99999999\r\n\r\n"
            )
            await writer.drain()
            status_line = await reader.readline()
            assert b"413" in status_line
            # Headers + body, then EOF: the server closed the socket.
            remainder = await reader.read()
            assert b"Connection: close" in remainder
            writer.close()
            await writer.wait_closed()

        _serve(
            check,
            ServeConfig(
                port=0, window=0.01, observe=False, max_body_bytes=1024
            ),
        )

    def test_connection_close_header_is_honoured(self):
        async def check(server, client):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
            )
            await writer.drain()
            response = await reader.read()  # EOF == connection closed
            assert b"200" in response.splitlines()[0]
            assert b"Connection: close" in response
            writer.close()
            await writer.wait_closed()

        _serve(check)


class TestAdmissionControl:
    def test_admission_rejection_maps_to_429(self):
        async def check(server, client):
            # The long window parks the first query; the bound of one
            # makes the second arrival the structured 429.
            async with ServeClient("127.0.0.1", server.port) as second:
                parked = asyncio.ensure_future(
                    client.query(0, seed=1, method="sam", samples=100)
                )
                # Wait until the parked query occupies the bound, so the
                # next arrival cannot coalesce with it instead of being
                # rejected.
                for _ in range(500):
                    if server.coalescer.pending >= 1:
                        break
                    await asyncio.sleep(0.005)
                assert server.coalescer.pending >= 1
                rejected = await second.query(
                    1, seed=2, method="sam", samples=100
                )
                assert rejected.status == 429
                assert (
                    rejected.data["error"]["type"]
                    == "AdmissionRejectedError"
                )
                assert "max_pending" in rejected.data["error"]["message"]
                server.coalescer.flush()
                parked_response = await parked
                assert parked_response.status == 200

        _serve(
            check,
            ServeConfig(
                port=0, window=30.0, max_pending=1, observe=False
            ),
        )


class TestMetricsAndDrain:
    def test_metrics_exposes_serving_families(self):
        async def check(server, client):
            await client.query(0, seed=1, method="sam", samples=100)
            await client.edit("insert_object", values=["c", "x"])
            await client.query(99)  # an error outcome
            response = await client.metrics()
            assert response.status == 200
            assert response.content_type.startswith("text/plain")
            for family in (
                "repro_serve_requests_total",
                "repro_serve_request_seconds",
                "repro_serve_coalesced_batches_total",
                "repro_serve_batch_size",
                "repro_serve_edits_total",
            ):
                assert family in response.text, family
            assert 'endpoint="/query"' in response.text
            assert 'outcome="error"' in response.text

        previously_enabled = obs.is_enabled()
        _serve(
            check, ServeConfig(port=0, window=0.01, observe=True)
        )
        # The server enabled the registry for its own lifetime only.
        assert obs.is_enabled() == previously_enabled

    def test_drain_endpoint_stops_serve_forever(self):
        async def body():
            server = SkylineServer(
                _engine(), ServeConfig(port=0, window=0.01, observe=False)
            )
            await server.start()
            forever = asyncio.ensure_future(server.serve_forever())
            async with ServeClient("127.0.0.1", server.port) as client:
                before = await client.query(0)
                assert before.status == 200
                drained = await client.drain()
                assert drained.status == 202
                assert drained.data["status"] == "draining"
            await asyncio.wait_for(forever, timeout=10)
            assert server.draining is True

        asyncio.run(body())

    def test_draining_server_refuses_queries_and_health(self):
        async def check(server, client):
            # White-box: flip the drain flag without closing the
            # listener, so the 503 mapping itself is observable.
            server._draining = True
            query = await client.query(0)
            health = await client.healthz()
            server._draining = False
            assert query.status == 503
            assert health.status == 503
            assert query.data["error"]["type"] == "ServingError"

        _serve(check)

    def test_drain_is_idempotent(self):
        async def body():
            server = SkylineServer(
                _engine(), ServeConfig(port=0, window=0.01, observe=False)
            )
            await server.start()
            await asyncio.gather(server.drain(), server.drain())
            await server.drain()

        asyncio.run(body())

    def test_port_property_requires_start(self):
        from repro.errors import ServingError

        async def body():
            server = SkylineServer(
                _engine(), ServeConfig(port=0, observe=False)
            )
            with pytest.raises(ServingError):
                server.port
            await server.start()
            assert server.port > 0
            assert server.address == ("127.0.0.1", server.port)
            await server.drain()

        asyncio.run(body())

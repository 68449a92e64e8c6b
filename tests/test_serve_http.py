"""The HTTP observability endpoint and its server integration.

A real :class:`ReproServer` runs with ``http_host`` configured and is
scraped over a raw socket — the responses must parse as HTTP/1.0 and
``/metrics`` must round-trip through the same golden Prometheus parser
that pins ``render_prometheus`` (``tests/test_obs.py``).  The drain test
asserts the split-brain health contract: ``/healthz`` stays 200 (the
process lives) while ``/readyz`` turns 503 (take it out of rotation).
The overload test scripts a rejection storm — data commands sent while
a drain is held open — and reads the breach back out of ``/slo`` and
the ``repro top`` overload panel.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import obs
from repro.core.monitor import StreamMonitor
from repro.dashboard import render_dashboard
from repro.graph.operations import EdgeChange, GraphChangeOperation
from repro.obs import Registry
from repro.obs.exposition import render_prometheus
from repro.obs.slo import SloRule
from repro.serve.http import ObservabilityEndpoint
from repro.serve.server import ServeConfig

from .test_obs import parse_prometheus_text
from .test_serve_server import connect, drained, edge_query, ins, launch, send_cmd, stopped


@pytest.fixture(autouse=True)
def clean_obs():
    previous = obs.set_registry(Registry())
    obs.clear_spans()
    was_enabled = obs.enabled()
    obs.enable()
    yield
    obs.set_registry(previous)
    obs.clear_spans()
    if was_enabled:
        obs.enable()
    else:
        obs.disable()


def http_request(path: str, method: str = "GET") -> bytes:
    return f"{method} {path} HTTP/1.0\r\nHost: t\r\n\r\n".encode()


async def http_get(
    port: int, path: str, method: str = "GET"
) -> tuple[int, dict[str, str], bytes]:
    """One raw HTTP exchange against the loopback endpoint."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(http_request(path, method))
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    return parse_response(raw)


def parse_response(raw: bytes) -> tuple[int, dict[str, str], bytes]:
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(": ")
        headers[key.lower()] = value
    return status, headers, body


def http_config(**overrides) -> ServeConfig:
    base = dict(http_host="127.0.0.1", http_port=0)
    base.update(overrides)
    return ServeConfig(**base)


# ----------------------------------------------------------------------
# the endpoint in isolation
# ----------------------------------------------------------------------
class TestEndpoint:
    def run_on(self, check, **kwargs):
        """``check`` gets ``get(path, method)``: the endpoint's parsed
        response to that request, with no socket in between."""
        endpoint = ObservabilityEndpoint(
            summary=lambda: obs.get_registry().summary(),
            ready=lambda: True,
            **kwargs,
        )
        return check(
            lambda path, method="GET": parse_response(
                endpoint.respond(http_request(path, method))
            )
        )

    def test_unknown_path_is_404(self):
        status, _, _ = self.run_on(lambda get: get("/nope"))
        assert status == 404

    def test_non_get_is_405(self):
        status, _, _ = self.run_on(lambda get: get("/metrics", method="POST"))
        assert status == 405

    def test_unconfigured_slo_and_timeline_are_404(self):
        def check(get):
            return get("/slo"), get("/timeline.json")

        (slo_status, _, _), (timeline_status, _, _) = self.run_on(check)
        assert slo_status == 404
        assert timeline_status == 404

    def test_query_strings_are_stripped(self):
        status, _, body = self.run_on(lambda get: get("/healthz?x=1"))
        assert status == 200
        assert body == b"ok\n"

    def test_content_length_matches_body(self):
        obs.counter("unit.hits", "test counter").inc(3)
        status, headers, body = self.run_on(lambda get: get("/metrics"))
        assert status == 200
        assert int(headers["content-length"]) == len(body)
        assert headers["connection"] == "close"
        assert "version=0.0.4" in headers["content-type"]


# ----------------------------------------------------------------------
# server integration: every route against live traffic
# ----------------------------------------------------------------------
class TestServerEndpoint:
    def test_all_routes_after_real_traffic(self):
        queries = {"q0": edge_query()}

        async def scenario():
            monitor = StreamMonitor(queries, method="dsc")
            server = launch(monitor, http_config(timeline_interval=0.05))
            async with connect(server.port) as (reader, writer, _):
                assert (await send_cmd(reader, writer, {"cmd": "stream", "stream": "s"}))["ok"]
                assert (await send_cmd(reader, writer, ins("s", 1, 2)))["ok"]
                assert (await send_cmd(reader, writer, {"cmd": "commit"}))["ok"]
                await asyncio.sleep(0.15)  # a few sampler ticks
                port = server.http_port
                results = {
                    path: await http_get(port, path)
                    for path in (
                        "/metrics",
                        "/healthz",
                        "/readyz",
                        "/slo",
                        "/timeline.json",
                        "/trace",
                    )
                }
                await send_cmd(reader, writer, {"cmd": "quit"})
                await drained(server)
                return results

        results = asyncio.run(scenario())
        assert all(status == 200 for status, _, _ in results.values())

        # /metrics round-trips through the golden Prometheus parser and
        # carries the serve-layer series the scrape contract promises.
        samples = parse_prometheus_text(results["/metrics"][2].decode())
        assert "repro_serve_admitted_total" in samples
        assert "repro_serve_commit_seconds_count" in samples
        assert any(name.startswith("repro_slo_state") for name in samples)

        assert results["/healthz"][2] == b"ok\n"
        assert results["/readyz"][2] == b"ready\n"

        slo_doc = json.loads(results["/slo"][2])
        assert slo_doc["worst"] in ("ok", "warn", "breach")
        assert {rule["name"] for rule in slo_doc["rules"]} >= {
            "commit-latency-p95",
            "reject-rate",
        }

        timeline_doc = json.loads(results["/timeline.json"][2])
        assert timeline_doc["sampled"] >= 2
        assert timeline_doc["samples"]

        trace_doc = json.loads(results["/trace"][2])
        assert trace_doc["traceEvents"]
        assert 'filename="repro-trace.json"' in results["/trace"][1].get(
            "content-disposition", ""
        )

    def test_readyz_turns_503_during_drain_while_healthz_stays_200(self):
        queries = {"q0": edge_query()}

        async def scenario():
            monitor = StreamMonitor(queries, method="dsc")
            server = launch(monitor, http_config(drain_grace=0.4))
            port = server.http_port
            before, _, _ = await http_get(port, "/readyz")
            server.request_drain()
            await asyncio.sleep(0.1)  # inside the drain-grace window
            ready_status, _, ready_body = await http_get(port, "/readyz")
            health_status, _, health_body = await http_get(port, "/healthz")
            await stopped(server)
            return before, ready_status, ready_body, health_status, health_body

        before, ready_status, ready_body, health_status, health_body = asyncio.run(
            scenario()
        )
        assert before == 200
        assert ready_status == 503
        assert ready_body == b"draining\n"
        assert health_status == 200
        assert health_body == b"ok\n"

    def test_endpoint_is_closed_after_drain(self):
        queries = {"q0": edge_query()}

        async def scenario():
            monitor = StreamMonitor(queries, method="dsc")
            server = launch(monitor, http_config())
            port = server.http_port
            await drained(server)
            with pytest.raises((ConnectionError, OSError)):
                await http_get(port, "/healthz")

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# scripted overload -> /slo breach + top overload panel (acceptance)
# ----------------------------------------------------------------------
class TestOverloadScript:
    def test_rejection_storm_breaches_slo_and_renders_overload_panel(self):
        queries = {"q0": edge_query()}
        tight_rules = (
            SloRule(
                "reject-rate",
                "serve.rejected",
                "rate_max",
                0.0,
                warn_after=1,
                breach_after=1,
                window=60.0,
                description="any rejection at all breaches",
            ),
        )

        async def scenario():
            monitor = StreamMonitor(queries, method="dsc")
            server = launch(
                monitor,
                http_config(
                    drain_grace=2.0,
                    timeline_interval=0.05,
                    slo_rules=tight_rules,
                ),
            )
            async with connect(server.port) as (reader, writer, _):
                assert (await send_cmd(reader, writer, {"cmd": "stream", "stream": "s"}))["ok"]
                await asyncio.sleep(0.12)  # let the baseline sample land first
                # The grace holds the drain open: the sampler and /slo keep
                # running while every data command is refused.
                server.request_drain()
                reasons = []
                for _ in range(8):
                    reply = await send_cmd(reader, writer, ins("s", 1, 2))
                    reasons.append(reply.get("code"))
                await asyncio.sleep(0.3)  # several sample+evaluate ticks
                _, _, slo_body = await http_get(server.http_port, "/slo")
                summary = monitor.obs_summary()
                frame = render_dashboard(summary, timeline=server.timeline)
                await stopped(server)
                return reasons, server.counters, json.loads(slo_body), frame

        reasons, counters, slo_doc, frame = asyncio.run(scenario())
        assert reasons == ["draining"] * 8
        assert counters["rejected_draining"] == 8
        assert slo_doc["worst"] == "breach"
        (rule,) = slo_doc["rules"]
        assert rule["state"] == "breach"
        assert rule["value"] > 0.0
        # The scripted breach reaches the top panel too.
        assert "overload timeline" in frame
        assert "rejected" in frame
        assert "breaker" not in frame


# ----------------------------------------------------------------------
# merged cross-worker registries keep scraping after query churn
# ----------------------------------------------------------------------
def _pruned_dims(scrape: dict) -> set[str]:
    """The label sets (``dim`` only) of every engine's ``pruned`` series."""
    return {
        labels
        for name, series in scrape.items()
        if name.endswith("_pruned_total")
        for labels in series
    }


class TestMergedScrapeAfterChurn:
    def test_label_sets_and_ordering_survive_query_churn(self):
        from repro.graph import LabeledGraph
        from repro.runtime import ShardedMonitor

        def edge(a: str, b: str) -> LabeledGraph:
            return LabeledGraph.from_vertices_and_edges([(0, a), (1, b)], [(0, 1, "x")])

        queries = {"q0": edge_query()}
        with ShardedMonitor(queries, num_workers=2) as sharded:
            for stream_id in ("s0", "s1"):
                sharded.add_stream(stream_id, edge_query())  # carries a matching edge
            sharded.register_query("q1", edge("A", "C"))
            sharded.apply(
                "s0",
                GraphChangeOperation([EdgeChange("ins", 40, 41, "x", "A", "B")]),
            )
            sharded.matches()
            before = parse_prometheus_text(
                render_prometheus(sharded.obs_summary(), prefix="repro")
            )
            sharded.deregister_query("q1")
            sharded.register_query("q2", edge("A", "D"))
            sharded.apply(
                "s0",
                GraphChangeOperation([EdgeChange("ins", 50, 51, "x", "A", "B")]),
            )
            sharded.matches()
            after_text = render_prometheus(
                sharded.obs_summary(), prefix="repro"
            )
            # The golden parser enforces the structural rules (TYPE-
            # before-samples, cumulative buckets, +Inf == _count) over
            # the merged, churned registries.
            after = parse_prometheus_text(after_text)
            # No series vanished: per-worker registries are lifetime-
            # cumulative, so churn only adds label sets.
            for name, series in before.items():
                assert set(series) <= set(after[name]), name
            # The churned queries' pruned pairs mint their own blamed
            # dimensions, kept distinct through the cross-worker merge.
            dims_before, dims_after = _pruned_dims(before), _pruned_dims(after)
            assert any("C" in dim for dim in dims_before), dims_before
            assert dims_before <= dims_after  # pre-removal history kept
            assert any("D" in dim for dim in dims_after - dims_before), dims_after
            # Rendering is deterministic: a second render is identical.
            assert after_text == render_prometheus(
                sharded.obs_summary(), prefix="repro"
            )

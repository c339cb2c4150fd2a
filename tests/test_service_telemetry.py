"""Telemetry-plane tests: endpoints, stitched traces, exactness contract.

Covers the observability PR's acceptance criteria against a live service:
the four HTTP endpoints (``/metrics`` round-tripping through the
Prometheus parser, ``/health``, ``/slo``, ``/traces/recent``), the
cross-process stitched trace (span names, shared ``trace_id``, correct
parentage, clock rebasing), the bit-identity invariant (answers and step
counts identical with tracing on or off), span-cap overflow accounting
(``dropped_spans``), the query-log ``trace_id`` join, and the ``repro
top`` / ``repro obs trace`` CLI entry points.
"""

import json
import urllib.request

import numpy as np
import pytest

from repro.cli import main
from repro.distances.euclidean import EuclideanMeasure
from repro.mining.queries import knn_search
from repro.obs import QueryLogger, pick_trace, read_query_log, render_waterfall
from repro.obs.metrics import parse_prometheus_text
from repro.service import save_shards, start_service_thread
from repro.service.telemetry import PROMETHEUS_CONTENT_TYPE


@pytest.fixture(scope="module")
def walks():
    rng = np.random.default_rng(71)
    return np.cumsum(rng.normal(size=(18, 16)), axis=1)


@pytest.fixture(scope="module")
def shard_dir(walks, tmp_path_factory):
    directory = tmp_path_factory.mktemp("telemetry-shards")
    save_shards(walks, directory, 3, n_coefficients=8)
    return directory


@pytest.fixture(scope="module")
def telemetry_service(shard_dir, walks, tmp_path_factory):
    """One service with the HTTP sidecar up and a little seed traffic."""
    log_path = tmp_path_factory.mktemp("telemetry-log") / "queries.jsonl"
    handle = start_service_thread(
        shard_dir,
        EuclideanMeasure(),
        cache_size=32,
        query_log=QueryLogger(log_path),
        telemetry_port=0,
    )
    query = [float(x) for x in walks[0]]
    first = handle.request({"op": "knn", "query": query, "k": 2})
    assert first["ok"], first
    second = handle.request({"op": "knn", "query": query, "k": 2})
    assert second["ok"] and second["cached"]
    yield handle, log_path
    handle.close()


def _get(handle, path: str):
    port = handle.service.telemetry.port
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as response:
        return response.status, response.headers.get("Content-Type"), response.read()


def _walk(span: dict):
    yield span
    for child in span.get("children", ()):
        yield from _walk(child)


def _trace_spans(trace: dict):
    for root in trace["spans"]:
        yield from _walk(root)


class TestEndpoints:
    def test_metrics_round_trips_through_the_parser(self, telemetry_service):
        handle, _ = telemetry_service
        status, content_type, body = _get(handle, "/metrics")
        assert status == 200
        assert content_type == PROMETHEUS_CONTENT_TYPE
        parsed = parse_prometheus_text(body.decode("utf-8"))
        families = parsed["families"]
        # Coordinator- and worker-side families both present: the sidecar
        # serves the merged registry, not just the coordinator's.
        for name in (
            "service_requests_total",
            "service_traces_total",
            "service_trace_dropped_spans_total",
            "queries_total",
        ):
            assert name in families, sorted(families)
        samples = {name: value for name, _labels, value in parsed["samples"]}
        assert samples["service_traces_total"] >= 1

    def test_health_includes_slo_block(self, telemetry_service):
        handle, _ = telemetry_service
        status, content_type, body = _get(handle, "/health")
        assert status == 200 and content_type == "application/json"
        health = json.loads(body)
        assert health["ok"] and health["status"] == "ok"
        assert set(health["slo"]) == {"alerts", "windows"}
        assert "1m" in health["slo"]["windows"]

    def test_slo_windows_track_traffic(self, telemetry_service):
        handle, _ = telemetry_service
        status, _ct, body = _get(handle, "/slo")
        assert status == 200
        payload = json.loads(body)
        assert payload["ok"]
        assert set(payload["windows"]) == {"10s", "1m", "5m"}
        stats = payload["windows"]["5m"]
        assert stats["count"] >= 2
        assert stats["p95_ms"] >= stats["p50_ms"] >= 0.0
        # The repeated seed query hit the answer cache.
        assert stats["cache_hits"] >= 1
        assert 0.0 < stats["cache_hit_ratio"] <= 1.0

    def test_traces_recent_returns_stitched_entries(self, telemetry_service):
        handle, _ = telemetry_service
        status, _ct, body = _get(handle, "/traces/recent")
        assert status == 200
        payload = json.loads(body)
        assert payload["traces_total"] >= 1
        assert payload["recent"], payload
        entry = payload["recent"][-1]
        assert set(entry) >= {"trace_id", "wall_seconds", "batch_size", "error", "trace"}
        names = {span["name"] for span in _trace_spans(entry["trace"])}
        assert "service.batch" in names

    def test_unknown_path_is_404_json(self, telemetry_service):
        handle, _ = telemetry_service
        port = handle.service.telemetry.port
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"http://127.0.0.1:{port}/nope")
        assert err.value.code == 404
        assert json.loads(err.value.read())["ok"] is False


class TestStitchedTrace:
    @pytest.fixture()
    def trace(self, telemetry_service, walks):
        handle, _ = telemetry_service
        reply = handle.request(
            {"op": "knn", "query": [float(x) for x in walks[5]], "k": 3, "no_cache": True}
        )
        assert reply["ok"], reply
        entry = handle.service.traces.to_dict()["recent"][-1]
        return entry["trace"]

    def test_one_trace_spans_both_processes(self, trace):
        spans = list(_trace_spans(trace))
        names = [span["name"] for span in spans]
        assert names.count("service.batch") == 1
        assert "queue.wait" in names
        assert names.count("fanout.shard") == 3  # one per shard
        assert names.count("worker.chunk") == 3  # stitched from worker replies
        assert "worker.query" in names
        assert "coordinator.merge" in names
        # Every span carries the same trace id -- one distributed trace.
        assert {span["trace_id"] for span in spans} == {trace["trace_id"]}

    def test_parentage_crosses_the_process_boundary(self, trace):
        spans = list(_trace_spans(trace))
        by_id = {span["span_id"]: span for span in spans}
        root = trace["spans"][0]
        assert root["name"] == "service.batch"
        for span in spans:
            if span is root:
                continue
            assert by_id[span["parent_id"]] is not None
        # The worker's root span hangs under its shard's fan-out span,
        # whose id was minted *before* the request crossed the pipe.
        chunks = [span for span in spans if span["name"] == "worker.chunk"]
        for chunk in chunks:
            parent = by_id[chunk["parent_id"]]
            assert parent["name"] == "fanout.shard"
            assert parent["attributes"]["shard"] == chunk["attributes"]["shard"]
            # Rebased onto the coordinator's clock: inside the fan-out span.
            assert chunk["start"] >= parent["start"] - 1e-6
            assert "transit_ms" in chunk["attributes"]

    def test_worker_spans_record_search_work(self, trace):
        queries = [span for span in _trace_spans(trace) if span["name"] == "worker.query"]
        assert queries and all(span["attributes"]["steps"] > 0 for span in queries)
        tiers = {span["name"] for span in _trace_spans(trace)}
        assert "hmerge.pop" in tiers  # per-tier pruning events survive the stitch

    def test_waterfall_renders_the_stitched_trace(self, trace):
        text = render_waterfall(trace, width=90)
        assert trace["trace_id"] in text.splitlines()[0]
        for name in ("service.batch", "fanout.shard", "worker.chunk", "worker.query"):
            assert name in text

    def test_pick_trace_finds_by_prefix(self, telemetry_service, trace):
        handle, _ = telemetry_service
        payload = handle.service.traces.to_dict()
        found = pick_trace(payload, trace_id=trace["trace_id"][:8])
        assert found["trace_id"] == trace["trace_id"]


class TestExactnessInvariant:
    """Answers and step counts are bit-identical with tracing on or off."""

    def test_tracing_never_changes_answers_or_steps(self, shard_dir, walks):
        queries = [walks[2] + 0.05, walks[9] - 0.1, walks[16]]
        replies = {}
        for tracing in (True, False):
            handle = start_service_thread(
                shard_dir, EuclideanMeasure(), cache_size=0, tracing=tracing
            )
            try:
                replies[tracing] = [
                    handle.request({"op": "knn", "query": [float(x) for x in q], "k": 4})
                    for q in queries
                ]
            finally:
                handle.close()
        for traced, untraced in zip(replies[True], replies[False]):
            assert traced["ok"] and untraced["ok"]
            assert traced["neighbors"] == untraced["neighbors"]
            assert traced["steps"] == untraced["steps"]

    def test_traced_answers_match_single_process_search(self, telemetry_service, walks):
        handle, _ = telemetry_service
        query = walks[11] + 0.2
        reply = handle.request(
            {"op": "knn", "query": [float(x) for x in query], "k": 3, "no_cache": True}
        )
        expected = knn_search(walks, query, EuclideanMeasure(), k=3)
        assert reply["neighbors"] == [
            [nb.index, nb.distance, nb.rotation] for nb in expected
        ]


class TestDroppedSpans:
    def test_span_cap_overflow_is_counted_not_fatal(self, shard_dir, walks):
        handle = start_service_thread(
            shard_dir,
            EuclideanMeasure(),
            cache_size=0,
            trace_max_spans=8,
            worker_trace_max_spans=4,
            telemetry_port=0,
        )
        try:
            reply = handle.request({"op": "knn", "query": [float(x) for x in walks[3]], "k": 2})
            assert reply["ok"], reply  # answers unaffected by the cap
            traces = handle.service.traces.to_dict()
            entry = traces["recent"][-1]
            assert entry["dropped_spans"] > 0
            assert entry["trace"]["dropped_spans"] == entry["dropped_spans"]
            assert traces["dropped_spans_total"] >= entry["dropped_spans"]
            _status, _ct, body = _get(handle, "/metrics")
            samples = parse_prometheus_text(body.decode("utf-8"))["samples"]
            dropped = sum(
                value for name, _labels, value in samples
                if name == "service_trace_dropped_spans_total"
            )
            assert dropped >= entry["dropped_spans"]
        finally:
            handle.close()


class TestQueryLogJoin:
    def test_log_records_carry_the_trace_id(self, telemetry_service, walks):
        handle, log_path = telemetry_service
        reply = handle.request(
            {"op": "knn", "query": [float(x) for x in walks[7]], "k": 1, "no_cache": True}
        )
        assert reply["ok"]
        records = read_query_log(log_path)
        trace_ids = {entry["trace_id"] for entry in handle.service.traces.to_dict()["recent"]}
        assert records[-1]["trace_id"] in trace_ids


class TestCli:
    def test_top_once_renders_a_frame(self, telemetry_service, capsys):
        handle, _ = telemetry_service
        port = handle.service.telemetry.port
        assert main(["top", "--once", "--port", str(port)]) == 0
        out = capsys.readouterr().out
        assert "sliding windows" in out
        assert "traces: total=" in out

    def test_top_once_fails_cleanly_when_unreachable(self, capsys):
        assert main(["top", "--once", "--port", "1", "--timeout", "0.2"]) == 1

    def test_obs_trace_waterfall_from_saved_payload(self, telemetry_service, tmp_path, capsys):
        handle, _ = telemetry_service
        payload = handle.service.traces.to_dict()
        path = tmp_path / "traces.json"
        path.write_text(json.dumps(payload))
        assert main(["obs", "trace", str(path), "--waterfall"]) == 0
        out = capsys.readouterr().out
        assert "service.batch" in out and "span_count=" in out

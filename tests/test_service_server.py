"""End-to-end service tests: coordinator, workers, cache, TCP, failures.

Everything runs against real worker processes over real pipes (and one
real TCP round-trip), scaled small so the suite stays fast on one core.
"""

import math

import numpy as np
import pytest

from repro.distances.euclidean import EuclideanMeasure
from repro.mining.queries import knn_search, range_search
from repro.obs.metrics import parse_prometheus_text
from repro.obs.querylog import read_query_log
from repro.service import ServiceClient, save_shards, start_service_thread


@pytest.fixture(scope="module")
def walks():
    rng = np.random.default_rng(21)
    data = np.cumsum(rng.normal(size=(21, 16)), axis=1)
    data[15] = data[1]  # exact duplicate across shards: tie-break coverage
    return data


@pytest.fixture(scope="module")
def shard_dir(walks, tmp_path_factory):
    directory = tmp_path_factory.mktemp("shards")
    save_shards(walks, directory, 3, n_coefficients=8)
    return directory


@pytest.fixture(scope="module")
def handle(shard_dir):
    handle = start_service_thread(shard_dir, EuclideanMeasure(), cache_size=32)
    yield handle
    handle.close()


class TestQueries:
    def test_knn_matches_single_process_bitwise(self, handle, walks):
        measure = EuclideanMeasure()
        for qi, k in ((0, 1), (4, 5), (1, 3)):
            query = walks[qi] + 0.01
            response = handle.request(
                {"op": "knn", "query": list(query), "k": k, "no_cache": True}
            )
            assert response["ok"], response
            expected = knn_search(walks, query, measure, k=k)
            assert response["neighbors"] == [
                [nb.index, nb.distance, nb.rotation] for nb in expected
            ]
            assert response["shards"] == 3
            assert response["backend"] == measure.backend_name

    def test_knn_duplicate_across_shards_tie_parity(self, handle, walks):
        query = walks[1]  # distance 0 to objects 1 and 15 (different shards)
        response = handle.request(
            {"op": "knn", "query": list(query), "k": 2, "no_cache": True}
        )
        expected = knn_search(walks, query, EuclideanMeasure(), k=2)
        assert [nb.index for nb in expected] == [1, 15]
        assert response["neighbors"] == [
            [nb.index, nb.distance, nb.rotation] for nb in expected
        ]

    def test_k_larger_than_any_shard(self, handle, walks):
        query = walks[8]
        response = handle.request(
            {"op": "knn", "query": list(query), "k": 10, "no_cache": True}
        )
        expected = knn_search(walks, query, EuclideanMeasure(), k=10)
        assert response["neighbors"] == [
            [nb.index, nb.distance, nb.rotation] for nb in expected
        ]

    def test_range_matches_single_process(self, handle, walks):
        measure = EuclideanMeasure()
        query = walks[6] + 0.02
        probe = knn_search(walks, query, measure, k=4)
        radius = probe[3].distance
        response = handle.request(
            {"op": "range", "query": list(query), "radius": radius, "no_cache": True}
        )
        expected = range_search(walks, query, measure, radius=radius)
        assert len(expected) >= 1
        assert response["neighbors"] == [
            [nb.index, nb.distance, nb.rotation] for nb in expected
        ]

    def test_ping_describes_the_deployment(self, handle):
        response = handle.request({"op": "ping"})
        assert response["ok"]
        assert response["shards"] == 3
        assert response["objects"] == 21
        assert response["length"] == 16
        assert response["measure"] == "euclidean"

    def test_bad_requests_get_structured_errors(self, handle):
        wrong_length = handle.request({"op": "knn", "query": [1.0, 2.0], "k": 1})
        assert not wrong_length["ok"]
        assert wrong_length["error"]["type"] == "bad-request"
        bad_k = handle.request({"op": "knn", "query": [0.0] * 16, "k": 0})
        assert not bad_k["ok"]
        missing_radius = handle.request({"op": "range", "query": [0.0] * 16})
        assert not missing_radius["ok"]
        unknown = handle.request({"op": "frobnicate"})
        assert not unknown["ok"]


class TestRequestValidation:
    """Inputs no worker could answer are refused at the coordinator, so a
    poisoned request never reaches -- or crash-loops -- a shard worker."""

    @pytest.fixture
    def fresh(self, shard_dir):
        handle = start_service_thread(shard_dir, EuclideanMeasure(), cache_size=0)
        yield handle
        handle.close()

    def test_non_finite_inputs_are_bad_requests(self, fresh, walks):
        query = list(walks[3] + 0.01)
        poisoned = [
            {"op": "knn", "query": [math.nan] + query[1:], "k": 2},
            {"op": "knn", "query": query[:-1] + [math.inf], "k": 2},
            {"op": "knn", "query": query, "k": math.inf},
            {"op": "range", "query": query, "radius": math.nan},
            {"op": "range", "query": query, "radius": math.inf},
            {"op": "range", "query": query, "radius": -1.0},
            {"op": "knn", "query": query, "k": 2, "timeout_ms": math.nan},
            {"op": "knn", "query": query, "k": 2, "timeout_ms": math.inf},
            {"op": "knn", "query": query, "k": 2, "max_degrees": math.nan},
        ]
        for message in poisoned:
            reply = fresh.request(message)
            assert reply["ok"] is False, message
            assert reply["error"]["type"] == "bad-request", (message, reply)
        health = fresh.request({"op": "health"})
        assert health["status"] == "ok"
        assert health["restarts"] == 0
        reply = fresh.request({"op": "knn", "query": query, "k": 3})
        assert reply["ok"], reply
        expected = knn_search(walks, np.array(query), EuclideanMeasure(), k=3)
        assert reply["neighbors"] == [[nb.index, nb.distance, nb.rotation] for nb in expected]


class TestCache:
    def test_hit_on_repeat_and_no_cache_bypass(self, handle, walks):
        query = walks[10] + 0.5
        first = handle.request({"op": "knn", "query": list(query), "k": 2})
        again = handle.request({"op": "knn", "query": list(query), "k": 2})
        bypass = handle.request(
            {"op": "knn", "query": list(query), "k": 2, "no_cache": True}
        )
        assert first["cached"] is False
        assert again["cached"] is True
        assert bypass["cached"] is False
        assert first["neighbors"] == again["neighbors"] == bypass["neighbors"]

    def test_different_k_is_a_different_entry(self, handle, walks):
        query = walks[11] + 0.25
        handle.request({"op": "knn", "query": list(query), "k": 1})
        other_k = handle.request({"op": "knn", "query": list(query), "k": 3})
        assert other_k["cached"] is False


class TestMetrics:
    def test_exposition_merges_workers_and_parses(self, handle, walks):
        handle.request({"op": "knn", "query": list(walks[3]), "k": 1, "no_cache": True})
        response = handle.request({"op": "metrics"})
        assert response["ok"], response
        parsed = parse_prometheus_text(response["prometheus"])
        families = parsed["families"]
        # Coordinator-side families
        assert families["service_requests_total"]["type"] == "counter"
        assert families["service_batch_size"]["type"] == "histogram"
        # Worker-side families, folded via registry_from_dict + merge
        assert families["service_worker_requests_total"]["type"] == "counter"
        assert families["queries_total"]["type"] == "counter"
        # Cache families
        assert families["answer_cache_hits_total"]["type"] == "counter"
        shard_labels = {
            labels["shard"]
            for name, labels, _value in parsed["samples"]
            if name == "service_worker_requests_total"
        }
        assert shard_labels == {"0", "1", "2"}
        assert response["cache"]["capacity"] == 32


class TestTcpFrontEnd:
    def test_client_round_trip_over_tcp(self, handle, walks):
        with ServiceClient(port=handle.port) as client:
            ping = client.ping()
            assert ping["ok"] and ping["server"] == "repro-service"
            query = walks[2] + 0.1
            response = client.knn(query, k=3, no_cache=True)
            expected = knn_search(walks, query, EuclideanMeasure(), k=3)
            assert response["neighbors"] == [
                [nb.index, nb.distance, nb.rotation] for nb in expected
            ]
            metrics = client.metrics()
            assert "service_requests_total" in metrics["prometheus"]


class TestWorkerDeath:
    def test_killed_worker_self_heals_bit_identically(self, shard_dir, walks):
        """The PR's headline acceptance: SIGKILL a worker, the next query to
        that shard succeeds bit-identically and the restart counter moved."""
        handle = start_service_thread(shard_dir, EuclideanMeasure(), cache_size=0)
        try:
            query = walks[0] + 0.07
            before = handle.request({"op": "knn", "query": list(query), "k": 3})
            assert before["ok"]
            victim = handle.service.workers[1]
            victim.worker.process.kill()
            victim.worker.process.join(10)
            after = handle.request({"op": "knn", "query": list(query), "k": 3})
            assert after["ok"], after
            assert after["neighbors"] == before["neighbors"]
            assert after.get("partial") is False
            expected = knn_search(walks, query, EuclideanMeasure(), k=3)
            assert after["neighbors"] == [
                [nb.index, nb.distance, nb.rotation] for nb in expected
            ]
            metrics = handle.request({"op": "metrics"})
            parsed = parse_prometheus_text(metrics["prometheus"])
            restarts = sum(
                value
                for name, _labels, value in parsed["samples"]
                if name == "service_worker_restarts_total"
            )
            assert restarts >= 1
            health = handle.request({"op": "health"})
            assert health["ok"]
            assert health["shards"][1]["restarts"] >= 1
            assert health["shards"][1]["state"] == "live"
            # The front-end itself stays responsive.
            assert handle.request({"op": "ping"})["ok"]
        finally:
            handle.close()


class TestEngineConfiguration:
    def test_dtw_knn_and_range_bit_identical_to_single_process(self, shard_dir, walks):
        """The service runs the same block engine configuration as
        ``knn_search`` / ``range_search`` (LB_Improved on for banded DTW)."""
        from repro.distances.dtw import DTWMeasure

        measure = DTWMeasure(radius=2)
        handle = start_service_thread(shard_dir, measure, cache_size=0)
        try:
            for qi in (2, 9, 15):
                query = walks[qi] + 0.25
                expected = knn_search(walks, query, measure, k=4)
                response = handle.request({"op": "knn", "query": list(query), "k": 4})
                assert response["ok"], response
                assert response["neighbors"] == [
                    [nb.index, nb.distance, nb.rotation] for nb in expected
                ]
                assert response["tier_stats"]["improved_reached"] > 0
                radius = expected[-1].distance
                hits = range_search(walks, query, measure, radius=radius)
                response = handle.request(
                    {"op": "range", "query": list(query), "radius": radius}
                )
                assert response["ok"], response
                assert response["neighbors"] == [
                    [nb.index, nb.distance, nb.rotation] for nb in hits
                ]
            health = handle.request({"op": "health"})
            assert health["planner"] == {"mode": "fixed", "plan": "block:keogh>improved"}
            assert "plan" not in handle.request({"op": "ping"})
        finally:
            handle.close()

    def test_a_request_that_failed_on_the_workers_is_answered_alone(self, handle):
        service = handle.service
        request = {"kind": "knn", "k": 1}
        ok_entry = {"neighbors": [[0, 0.5, 0]], "steps": 10, "tier_stats": {"leaf_candidates": 1}}
        bad_entry = {"error": "ValueError: boom", "error_type": "bad-request"}
        replies = [{"ok": True, "results": [bad_entry, ok_entry]}] * 3
        answer = service._merge_job(request, 0, replies, 0.0)
        assert answer == {"ok": False, "error": {"type": "bad-request", "message": "ValueError: boom"}}
        assert service._job_response(request, answer, []) == answer
        merged = service._merge_job(request, 1, replies, 0.0)
        assert merged["neighbors"] == [[0, 0.5, 0]]
        assert merged["tier_stats"] == {"leaf_candidates": 3}


class TestQueryLog:
    def test_records_stamp_backend_and_shard_count(self, shard_dir, walks, tmp_path):
        from repro.obs.querylog import QueryLogger

        log_path = tmp_path / "svc.jsonl"
        logger = QueryLogger(log_path)
        handle = start_service_thread(
            shard_dir, EuclideanMeasure(), cache_size=8, query_log=logger
        )
        try:
            query = walks[5] + 0.3
            handle.request({"op": "knn", "query": list(query), "k": 2})
            handle.request({"op": "knn", "query": list(query), "k": 2})  # cache hit
        finally:
            handle.close()
            logger.close()
        records = read_query_log(log_path)
        assert len(records) == 2
        for record in records:
            assert record["backend"] == EuclideanMeasure().backend_name
            assert record["shards"] == 3
            assert record["op"] == "knn"
            assert record["steps"] > 0
            assert "plan" not in record
        assert [record["cached"] for record in records] == [False, True]

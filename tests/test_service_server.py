"""End-to-end service tests: coordinator, workers, cache, TCP, failures.

Everything runs against real worker processes over real pipes (and one
real TCP round-trip), scaled small so the suite stays fast on one core.
"""

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


class TestServicePlanner:
    def test_health_exposes_the_planner_and_answers_stamp_the_plan(self, handle, walks):
        query = walks[9] + 0.4
        response = handle.request(
            {"op": "knn", "query": list(query), "k": 2, "no_cache": True}
        )
        assert response["ok"]
        assert response["plan"].startswith("wedge:")
        assert response["tier_stats"]["leaf_candidates"] > 0
        health = handle.request({"op": "health"})
        planner = health["planner"]
        assert planner["mode"] == "auto"
        assert planner["plan"].startswith("wedge:")
        assert planner["observations"] >= 1
        ping = handle.request({"op": "ping"})
        assert ping["plan"] == planner["plan"] or ping["plan"].startswith("wedge:")

    def test_hot_cache_loop_does_not_shift_the_plan(self, shard_dir, walks):
        """Satellite bugfix: cache-served answers replay recorded telemetry
        and must not keep feeding the planner's cost model."""
        handle = start_service_thread(shard_dir, EuclideanMeasure(), cache_size=32)
        try:
            query = walks[7] + 0.6
            handle.request({"op": "knn", "query": list(query), "k": 2})
            # One cache-hit batch so the snapshot reflects the warmed plan
            # (plans are recomputed at the top of each micro-batch).
            assert handle.request({"op": "knn", "query": list(query), "k": 2})["cached"]
            before = handle.request({"op": "health"})["planner"]
            for _ in range(20):
                hit = handle.request({"op": "knn", "query": list(query), "k": 2})
                assert hit["cached"] is True
            after = handle.request({"op": "health"})["planner"]
            assert after["plan"] == before["plan"]
            assert after["observations"] == before["observations"]
            assert after["totals"] == before["totals"]
            assert after["cached_skipped"] >= 20
            metrics = handle.request({"op": "metrics"})
            parsed = parse_prometheus_text(metrics["prometheus"])
            served = sum(
                value
                for name, _labels, value in parsed["samples"]
                if name == "service_cache_served_total"
            )
            assert served >= 20
        finally:
            handle.close()

    def test_fixed_plan_mode_bit_identical_and_reported(self, shard_dir, walks):
        measure = EuclideanMeasure()
        handle = start_service_thread(
            shard_dir, measure, cache_size=0, plan="fixed:keogh"
        )
        try:
            query = walks[3] + 0.15
            response = handle.request({"op": "knn", "query": list(query), "k": 3})
            assert response["ok"]
            # The service stamps its resolved backend onto the plan name.
            assert response["plan"].startswith("wedge:keogh:")
            expected = knn_search(walks, query, measure, k=3)
            assert response["neighbors"] == [
                [nb.index, nb.distance, nb.rotation] for nb in expected
            ]
            health = handle.request({"op": "health"})
            assert health["planner"]["mode"] == "fixed"
            assert health["planner"]["plan"].startswith("wedge:keogh:")
        finally:
            handle.close()

    def test_every_enumerable_fixed_plan_matches_auto(self, shard_dir, walks):
        from repro.core.planner import enumerate_plans

        measure = EuclideanMeasure()
        query = walks[12] + 0.33
        auto = start_service_thread(shard_dir, measure, cache_size=0)
        try:
            reference = auto.request({"op": "knn", "query": list(query), "k": 4})
        finally:
            auto.close()
        assert reference["ok"]
        for plan in enumerate_plans(measure):
            spec = "fixed:" + (">".join(plan.tiers) or "none")
            handle = start_service_thread(shard_dir, measure, cache_size=0, plan=spec)
            try:
                got = handle.request({"op": "knn", "query": list(query), "k": 4})
            finally:
                handle.close()
            assert got["neighbors"] == reference["neighbors"], spec


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
            assert record["plan"].startswith("wedge:")
        assert [record["cached"] for record in records] == [False, True]

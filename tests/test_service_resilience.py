"""Self-healing service tests: supervision, deadlines, partials, cleanup.

Covers the PR's acceptance criteria end to end against real processes:
supervised respawn with replay, degradation after a crash loop, partial
results that stay exact over surviving shards, per-request deadlines, the
worker-timeout path, client reconnect across a server restart, orphaned
worker reaping on SIGTERM, and answer-cache lifecycle (clear/invalidate,
shard-set scoping).
"""

import hashlib
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.search import merge_neighbors
from repro.distances.euclidean import EuclideanMeasure
from repro.mining.queries import Neighbor, knn_search
from repro.obs.metrics import MetricsRegistry
from repro.service import (
    AnswerCache,
    FaultPlan,
    RestartPolicy,
    ServiceClient,
    ShardDegradedError,
    ShardWorker,
    SupervisedWorker,
    load_manifest,
    save_shards,
    start_service_thread,
)


@pytest.fixture(scope="module")
def walks():
    rng = np.random.default_rng(33)
    return np.cumsum(rng.normal(size=(21, 16)), axis=1)


@pytest.fixture(scope="module")
def shard_dir(walks, tmp_path_factory):
    directory = tmp_path_factory.mktemp("resilience-shards")
    save_shards(walks, directory, 3, n_coefficients=8)
    return directory


def _fast_policy(**overrides):
    kwargs = {
        "degrade_after": 2,
        "backoff_base": 0.001,
        "backoff_cap": 0.005,
        "jitter": 0.0,
        "seed": 1,
    }
    kwargs.update(overrides)
    return RestartPolicy(**kwargs)


def _chunk(walks, k=1):
    return {
        "op": "search",
        "requests": [{"kind": "knn", "query": [float(x) for x in walks[0]], "k": k}],
    }


class TestSupervisedWorker:
    def _supervised(self, shard_dir, spec=None, registry=None, **policy):
        manifest = load_manifest(shard_dir)
        return SupervisedWorker(
            0,
            manifest.shard_path(0),
            0,
            {"name": "euclidean"},
            policy=_fast_policy(**policy),
            registry=registry,
            fault_plan=FaultPlan.parse(spec) if spec else None,
        )

    def test_death_triggers_respawn_and_replay(self, shard_dir, walks):
        # after=1,count=1: request 2 crashes; the replay (request 1 of the
        # fresh process) is below the `after` threshold and succeeds.
        registry = MetricsRegistry()
        sup = self._supervised(shard_dir, "crash:after=1,count=1", registry=registry)
        try:
            assert sup.request(_chunk(walks), timeout=30)["ok"]
            reply = sup.request(_chunk(walks), timeout=30)
            assert reply["ok"]  # healed transparently: caller saw no error
            assert sup.restarts == 1
            assert sup.consecutive_failures == 0
            assert sup.state == "live"
            assert registry.counter("service_worker_restarts_total").total() == 1
            hist = registry.histogram("service_worker_restart_seconds")
            assert hist.state()["count"] == 1
        finally:
            sup.stop()

    def test_crash_loop_degrades_and_stops_burning_restarts(self, shard_dir, walks):
        registry = MetricsRegistry()
        sup = self._supervised(shard_dir, "crash:p=1", registry=registry)
        try:
            with pytest.raises((ShardDegradedError, Exception)):
                sup.request(_chunk(walks), timeout=30)
            with pytest.raises(ShardDegradedError):
                sup.request(_chunk(walks), timeout=30)
            assert sup.state == "degraded"
            assert sup.worker.process is None or not sup.worker.process.is_alive()
            assert registry.counter("service_worker_degraded_total").total() == 1
            restarts_when_degraded = sup.restarts
            with pytest.raises(ShardDegradedError):
                sup.request(_chunk(walks), timeout=30)
            assert sup.restarts == restarts_when_degraded
        finally:
            sup.stop()

    def test_timeout_kills_and_respawns_but_surfaces(self, shard_dir, walks):
        sup = self._supervised(shard_dir, "delay:ms=400", degrade_after=5)
        try:
            generation = sup.worker.generation
            with pytest.raises(TimeoutError):
                sup.request(_chunk(walks), timeout=0.1)
            # The timed-out pipe was desynchronized: a fresh process exists.
            assert sup.worker.generation == generation + 1
            assert sup.state == "live"
            assert sup.restarts == 1
        finally:
            sup.stop()

    def test_monitor_check_revives_silently_dead_worker(self, shard_dir, walks):
        sup = self._supervised(shard_dir)
        try:
            sup.worker.process.kill()
            sup.worker.process.join(10)
            assert sup.check() is True
            assert sup.state == "live"
            assert sup.restarts == 1
            assert sup.request(_chunk(walks), timeout=30)["ok"]
        finally:
            sup.stop()

    def test_describe_is_json_ready_health(self, shard_dir):
        sup = self._supervised(shard_dir)
        try:
            entry = sup.describe()
            assert entry["shard"] == 0
            assert entry["state"] == "live"
            assert entry["alive"] is True
            assert isinstance(entry["pid"], int)
            assert entry["restarts"] == 0
        finally:
            sup.stop()


class TestBadRequestIsolation:
    def test_a_raising_request_fails_alone_and_the_worker_lives(self, shard_dir, walks):
        """One request that raises in the worker gets a structured error in
        its slot; the rest of the chunk is answered and the process keeps
        serving (no death, so no replay and no restart)."""
        from repro.distances.dtw import DTWMeasure

        manifest = load_manifest(shard_dir)
        info = manifest.shards[0]
        worker = ShardWorker(0, manifest.shard_path(0), info.offset, {"name": "dtw", "radius": 2})
        try:
            pid = worker.process.pid
            query = walks[10] + 0.1
            chunk = {
                "op": "search",
                "requests": [
                    {"kind": "frobnicate", "query": [float(x) for x in query]},
                    {"kind": "knn", "query": [float(x) for x in query], "k": 3},
                ],
            }
            reply = worker.request(chunk, timeout=30)
            assert reply["ok"], reply
            bad, good = reply["results"]
            assert bad["error_type"] == "bad-request"
            assert "frobnicate" in bad["error"]
            shard = walks[info.offset : info.offset + info.objects]
            expected = knn_search(shard, query, DTWMeasure(radius=2), k=3)
            assert good["neighbors"] == [
                [nb.index + info.offset, nb.distance, nb.rotation] for nb in expected
            ]
            assert good["tier_stats"]["leaf_candidates"] > 0
            assert worker.process.is_alive() and worker.process.pid == pid
            again = worker.request(_chunk(walks), timeout=30)
            assert again["ok"] and "neighbors" in again["results"][0]
        finally:
            worker.stop()


def _partial_expected(walks, query, k):
    """Exact k-NN over shards 0 and 2 (7 objects each), global indices."""
    per_shard = []
    for lo, hi in ((0, 7), (14, 21)):
        local = knn_search(walks[lo:hi], query, EuclideanMeasure(), k=k)
        per_shard.append(
            [Neighbor(nb.index + lo, nb.distance, nb.rotation) for nb in local]
        )
    return [
        [nb.index, nb.distance, nb.rotation] for nb in merge_neighbors(per_shard, k)
    ]


class TestPartialResults:
    @pytest.fixture()
    def degraded_handle(self, shard_dir):
        handle = start_service_thread(
            shard_dir,
            EuclideanMeasure(),
            cache_size=32,
            fault_plan=FaultPlan.parse("seed=3;crash:p=1,shard=1"),
            restart_policy=_fast_policy(),
            monitor_interval=0.0,
        )
        yield handle
        handle.close()

    def test_strict_request_names_missing_shards(self, degraded_handle, walks):
        reply = degraded_handle.request(
            {"op": "knn", "query": list(walks[3]), "k": 2, "no_cache": True}
        )
        assert reply["ok"] is False
        assert reply["error"]["type"] in ("worker-died", "shard-degraded")
        assert reply["error"]["missing_shards"] == [1]

    def test_allow_partial_is_exact_over_survivors(self, degraded_handle, walks):
        query = walks[3] + 0.05
        reply = degraded_handle.request(
            {
                "op": "knn",
                "query": list(query),
                "k": 3,
                "no_cache": True,
                "allow_partial": True,
            }
        )
        assert reply["ok"], reply
        assert reply["partial"] is True
        assert reply["missing_shards"] == [1]
        assert reply["shards_answered"] == 2
        assert reply["neighbors"] == _partial_expected(walks, query, 3)

    def test_partial_answers_are_never_cached(self, degraded_handle, walks):
        query = walks[4] + 0.02
        message = {
            "op": "knn",
            "query": list(query),
            "k": 2,
            "allow_partial": True,
        }
        first = degraded_handle.request(message)
        second = degraded_handle.request(message)
        assert first["ok"] and second["ok"]
        assert first["partial"] and second["partial"]
        assert first["cached"] is False
        assert second["cached"] is False  # a full answer would have hit

    def test_health_reports_degraded_status(self, degraded_handle, walks):
        degraded_handle.request(
            {
                "op": "knn",
                "query": list(walks[0]),
                "k": 1,
                "no_cache": True,
                "allow_partial": True,
            }
        )
        health = degraded_handle.request({"op": "health"})
        assert health["ok"]
        assert health["status"] == "degraded"
        states = {entry["shard"]: entry["state"] for entry in health["shards"]}
        assert states[1] == "degraded"
        assert states[0] == "live" and states[2] == "live"
        assert health["counters"]["worker_deaths"] >= 1
        assert health["counters"]["partial_results"] >= 1

    def test_metrics_stay_answerable_with_a_dead_shard(self, degraded_handle, walks):
        degraded_handle.request(
            {"op": "knn", "query": list(walks[0]), "k": 1, "no_cache": True}
        )
        metrics = degraded_handle.request({"op": "metrics"})
        assert metrics["ok"], metrics
        assert metrics["unreachable_shards"] == [1]
        assert "service_worker_deaths_total" in metrics["prometheus"]


class TestDeadlines:
    def test_expired_deadline_is_rejected_before_dispatch(self, shard_dir, walks):
        handle = start_service_thread(shard_dir, EuclideanMeasure(), cache_size=0)
        try:
            reply = handle.request(
                {"op": "knn", "query": list(walks[0]), "k": 1, "timeout_ms": 1e-6}
            )
            assert reply["ok"] is False
            assert reply["error"]["type"] == "deadline-exceeded"
            assert handle.request({"op": "ping"})["ok"]
        finally:
            handle.close()

    def test_bad_timeout_is_a_bad_request(self, shard_dir, walks):
        handle = start_service_thread(shard_dir, EuclideanMeasure(), cache_size=0)
        try:
            reply = handle.request(
                {"op": "knn", "query": list(walks[0]), "k": 1, "timeout_ms": -5}
            )
            assert reply["ok"] is False
            assert reply["error"]["type"] == "bad-request"
        finally:
            handle.close()

    def test_slow_worker_times_out_without_wedging_the_batch(self, shard_dir, walks):
        """Satellite: the worker-timeout path, driven by a fault-injected
        slow worker instead of hoping for a slow machine."""
        handle = start_service_thread(
            shard_dir,
            EuclideanMeasure(),
            cache_size=0,
            request_timeout=0.5,
            fault_plan=FaultPlan.parse("delay:ms=800,shard=0"),
            restart_policy=_fast_policy(degrade_after=10),
            monitor_interval=0.0,
        )
        try:
            reply = handle.request(
                {"op": "knn", "query": list(walks[2]), "k": 1}, timeout=30
            )
            assert reply["ok"] is False
            assert reply["error"]["type"] in ("worker-timeout", "deadline-exceeded")
            assert reply["error"]["missing_shards"] == [0]
            # The batch is not wedged: the service keeps answering.
            assert handle.request({"op": "ping"})["ok"]
            health = handle.request({"op": "health"})
            assert health["counters"]["shard_retries"] >= 1
        finally:
            handle.close()


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestClientReconnect:
    def test_client_survives_a_server_restart(self, shard_dir, walks):
        port = _free_port()
        first = start_service_thread(shard_dir, EuclideanMeasure(), port=port)
        client = ServiceClient("127.0.0.1", port, reconnect_backoff=0.05)
        try:
            before = client.knn(walks[1], k=2, no_cache=True)
            assert before["ok"]
            first.close()
            second = start_service_thread(shard_dir, EuclideanMeasure(), port=port)
            try:
                after = client.knn(walks[1], k=2, no_cache=True)
                assert after["ok"], after
                assert after["neighbors"] == before["neighbors"]
            finally:
                second.close()
        finally:
            client.close()
            first.close()

    def test_retries_spend_and_raise_when_nobody_listens(self, shard_dir, walks):
        port = _free_port()
        handle = start_service_thread(shard_dir, EuclideanMeasure(), port=port)
        client = ServiceClient(
            "127.0.0.1", port, reconnect_attempts=2, reconnect_backoff=0.01
        )
        handle.close()
        try:
            with pytest.raises((ConnectionError, OSError)):
                client.knn(walks[0], k=1)
        finally:
            client.close()


class TestOrphanReaping:
    def test_sigterm_reaps_all_shard_workers(self, shard_dir, walks):
        """Satellite: `repro serve` killed by SIGTERM must not leak its
        worker processes (the asyncio loop swallowed the signal before)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        env.pop("REPRO_FAULT_SPEC", None)
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--shards",
                str(shard_dir),
                "--port",
                "0",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "listening on" in banner, banner
            port = int(banner.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
            with ServiceClient("127.0.0.1", port) as client:
                health = client.health()
                pids = [entry["pid"] for entry in health["shards"]]
            assert len(pids) == 3 and all(isinstance(pid, int) for pid in pids)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                alive = [pid for pid in pids if _pid_alive(pid)]
                if not alive:
                    break
                time.sleep(0.1)
            assert not alive, f"orphaned shard workers: {alive}"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(10)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    # Still a zombie? That counts as reaped for leak purposes once the
    # parent is gone (init will collect it); check the state field.
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().split(")")[-1].split()[0] != "Z"
    except OSError:
        return False


class TestCacheLifecycle:
    def test_scope_separates_shard_sets(self):
        measure = EuclideanMeasure()
        query = [1.0, 2.0, 3.0]
        key_a = AnswerCache.make_key("knn", query, measure, scope="setA", k=1)
        key_b = AnswerCache.make_key("knn", query, measure, scope="setB", k=1)
        assert key_a != key_b

    def test_invalidate_evicts_only_one_scope(self):
        measure = EuclideanMeasure()
        cache = AnswerCache(8)
        key_a = AnswerCache.make_key("knn", [1.0], measure, scope="setA", k=1)
        key_b = AnswerCache.make_key("knn", [1.0], measure, scope="setB", k=1)
        cache.put(key_a, {"answer": "a"})
        cache.put(key_b, {"answer": "b"})
        assert cache.invalidate("setA") == 1
        assert cache.get(key_a) is None
        assert cache.get(key_b) == {"answer": "b"}

    def test_clear_drops_everything_but_keeps_monotone_counters(self):
        measure = EuclideanMeasure()
        cache = AnswerCache(8)
        for i in range(3):
            cache.put(
                AnswerCache.make_key("knn", [float(i)], measure, scope="s", k=1),
                {"i": i},
            )
        hits_before = cache.stats()["hits"]
        assert cache.clear() == 3
        assert len(cache) == 0
        stats = cache.stats()
        assert stats["hits"] == hits_before
        assert stats["evictions"] >= 3

    def test_manifest_checksum_identifies_the_shard_set(self, walks, tmp_path):
        manifest = save_shards(walks, tmp_path / "a", 3, n_coefficients=8)
        reloaded = load_manifest(tmp_path / "a")
        assert manifest.checksum == reloaded.checksum
        expected = hashlib.sha256(
            (tmp_path / "a" / "manifest.json").read_bytes()
        ).hexdigest()
        assert reloaded.checksum == expected
        other = save_shards(walks, tmp_path / "b", 7, n_coefficients=8)
        assert other.checksum != manifest.checksum
        # The checksum is derived from the file, never stored inside it.
        assert "checksum" not in manifest.to_dict()

    def test_rebuilt_shard_set_cannot_serve_stale_answers(self, walks, tmp_path):
        """Same directory, different sharding: the service built over the
        rebuilt set computes fresh answers because the cache key scope
        (manifest checksum) changed."""
        directory = tmp_path / "shards"
        first = save_shards(walks, directory, 3, n_coefficients=8)
        second = save_shards(walks, directory, 7, n_coefficients=8)
        assert first.checksum != second.checksum
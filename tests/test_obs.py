"""Tests for the observability layer (tracing, metrics, query logs).

The load-bearing guarantee is at the bottom: instrumentation is a *pure
observer*.  Attaching a tracer, a metrics registry, and a query log to a
search must leave the paper's ``num_steps`` accounting bit-identical and
the answers unchanged.
"""

import io
import json

import numpy as np
import pytest

from repro.core.cascade import TIER_STAT_KEYS, empty_tier_stats
from repro.core.search import (
    brute_force_search,
    early_abandon_search,
    search_many,
    wedge_search,
)
from repro.distances.dtw import DTWMeasure
from repro.distances.euclidean import EuclideanMeasure
from repro.index.linear_scan import SignatureFilteredScan
from repro.obs.metrics import (
    MetricsRegistry,
    global_registry,
    parse_prometheus_text,
    record_query,
    registry_from_dict,
)
from repro.obs.provenance import provenance_block
from repro.obs.querylog import QueryLogger, read_query_log
from repro.obs.report import (
    format_summary,
    funnel_is_monotone,
    summarize_query_log,
    tier_funnel,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer


@pytest.fixture(scope="module")
def walks():
    rng = np.random.default_rng(7)
    data = np.cumsum(rng.normal(size=(20, 24)), axis=1)
    data -= data.mean(axis=1, keepdims=True)
    data /= data.std(axis=1, keepdims=True)
    return data


class TestTracer:
    def test_spans_nest(self):
        tracer = Tracer()
        with tracer.span("outer", phase=1) as outer:
            with tracer.span("inner"):
                tracer.event("tick", n=3)
        assert [root.name for root in tracer.roots] == ["outer"]
        assert outer.attributes == {"phase": 1}
        (inner,) = outer.children
        assert inner.name == "inner"
        assert [child.name for child in inner.children] == ["tick"]
        assert inner.children[0].duration == 0.0
        assert outer.duration >= inner.duration >= 0.0

    def test_set_chains_and_overwrites(self):
        tracer = Tracer()
        with tracer.span("s", a=1) as span:
            assert span.set(a=2, b=3) is span
        assert span.attributes == {"a": 2, "b": 3}

    def test_exception_recorded_and_propagated(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (span,) = tracer.roots
        assert span.attributes["error"] == "RuntimeError"
        assert span.end is not None

    def test_cap_counts_dropped_spans(self):
        tracer = Tracer(max_spans=2)
        with tracer.span("a"):
            tracer.event("b")
            tracer.event("c")
            with tracer.span("d"):
                pass
        assert tracer.dropped == 2
        assert len(list(tracer.iter_spans())) == 2
        assert "2 spans dropped" in tracer.format_tree()

    def test_rejects_non_positive_cap(self):
        with pytest.raises(ValueError):
            Tracer(max_spans=0)

    def test_find_and_to_dict_round_trip(self):
        tracer = Tracer()
        with tracer.span("query"):
            tracer.event("hit")
            tracer.event("hit")
        assert len(tracer.find("hit")) == 2
        assert tracer.find("miss") == []
        payload = json.loads(json.dumps(tracer.to_dict()))
        assert payload["span_count"] == 3
        assert payload["dropped"] == 0
        assert payload["spans"][0]["name"] == "query"

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)
        with NULL_TRACER.span("x", a=1) as span:
            assert span.set(b=2) is span
        assert NULL_TRACER.event("y") is None
        assert NULL_TRACER.find("x") == []
        assert NULL_TRACER.to_dict() == {
            "trace_id": None,
            "spans": [],
            "span_count": 0,
            "dropped": 0,
            "dropped_spans": 0,
        }
        assert NULL_TRACER.format_tree() == ""

    def test_spans_carry_w3c_style_trace_context(self):
        tracer = Tracer()
        assert len(tracer.trace_id) == 32
        with tracer.span("parent") as parent:
            tracer.event("child")
        assert parent.trace_id == tracer.trace_id
        assert len(parent.span_id) == 16
        assert parent.parent_id is None
        (child,) = parent.children
        assert child.trace_id == tracer.trace_id
        assert child.parent_id == parent.span_id
        payload = parent.to_dict()
        assert payload["trace_id"] == tracer.trace_id
        assert payload["span_id"] == parent.span_id

    def test_tracer_adopts_remote_context(self):
        remote = Tracer(trace_id="ab" * 16, parent_id="cd" * 8)
        with remote.span("worker.chunk") as root:
            pass
        assert root.trace_id == "ab" * 16
        assert root.parent_id == "cd" * 8
        assert remote.to_dict()["trace_id"] == "ab" * 16

    def test_attach_records_explicit_timing_and_preminted_id(self):
        tracer = Tracer()
        with tracer.span("batch") as batch:
            pass
        span = tracer.attach(batch, "fanout", 10.0, 10.5, span_id="ee" * 8, shard=3)
        assert span in batch.children
        assert span.span_id == "ee" * 8
        assert span.parent_id == batch.span_id
        assert span.duration == pytest.approx(0.5)
        assert span.attributes["shard"] == 3

    def test_attach_tree_rebases_remote_clock(self):
        worker = Tracer(trace_id="ab" * 16)
        with worker.span("worker.chunk") as chunk:
            with worker.span("worker.query"):
                pass
        payload = chunk.to_dict()

        local = Tracer(trace_id="ab" * 16)
        with local.span("batch") as batch:
            pass
        shift = 100.0 - payload["start"]
        stitched = local.attach_tree(batch, payload, shift=shift)
        assert stitched.start == pytest.approx(100.0)
        assert stitched.duration == pytest.approx(payload["duration"])
        assert stitched.children[0].name == "worker.query"
        assert stitched.trace_id == "ab" * 16
        # Remote span ids survive stitching, so parentage stays intact.
        assert stitched.children[0].parent_id == stitched.span_id

    def test_attach_tree_drops_whole_subtree_at_cap(self):
        worker = Tracer()
        with worker.span("root"):
            worker.event("a")
            worker.event("b")
        payload = worker.roots[0].to_dict()

        tight = Tracer(max_spans=2)
        with tight.span("batch") as batch:
            pass
        assert tight.attach_tree(batch, payload) is None
        assert tight.dropped == 3
        assert tight.to_dict()["dropped_spans"] == 3
        assert batch.children == []

    def test_dropped_spans_reported_in_trace_output(self):
        tracer = Tracer(max_spans=1)
        with tracer.span("only"):
            for _ in range(5):
                tracer.event("lost")
        assert tracer.attach(None, "late", 0.0, 1.0) is None
        payload = tracer.to_dict()
        assert payload["dropped_spans"] == 6
        assert payload["dropped"] == 6
        assert payload["span_count"] == 1


class TestMetricsRegistry:
    def test_counter_labels_and_values(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "help text")
        counter.inc(2, kind="a")
        counter.inc(kind="a")
        counter.inc(5, kind="b")
        assert counter.value(kind="a") == 3
        assert counter.value(kind="b") == 5
        assert counter.value(kind="missing") == 0

    def test_counter_rejects_negative_increment(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_label_schema_is_enforced(self):
        counter = MetricsRegistry().counter("c_total")
        counter.inc(tier="kim")
        with pytest.raises(ValueError):
            counter.inc(measure="dtw")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError):
            registry.gauge("thing")

    def test_invalid_metric_name_raises(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("bad name")

    def test_histogram_buckets_and_prometheus_text(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency", "seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 2.0):
            hist.observe(value)
        text = registry.to_prometheus()
        assert 'latency_bucket{le="0.1"} 1' in text
        assert 'latency_bucket{le="1"} 2' in text
        assert 'latency_bucket{le="+Inf"} 3' in text
        assert "latency_count 3" in text
        assert "# TYPE latency histogram" in text

    def test_histogram_rejects_unordered_buckets(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=(1.0, 0.5))

    def test_merge_sums_counters_and_histograms_last_writes_gauges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n_total").inc(2)
        b.counter("n_total").inc(3)
        a.gauge("ratio").set(0.25)
        b.gauge("ratio").set(0.75)
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b.histogram("h", buckets=(1.0,)).observe(2.0)
        a.merge(b)
        assert a.counter("n_total").value() == 5
        assert a.gauge("ratio").value() == 0.75
        state = a.histogram("h", buckets=(1.0,)).state()
        assert state["count"] == 2
        assert state["counts"] == [1, 1]

    def test_merge_rejects_bucket_layout_mismatch(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b.histogram("h", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_to_json_parses(self):
        registry = MetricsRegistry()
        registry.counter("n_total").inc(7, kind="x")
        payload = json.loads(registry.to_json())
        assert payload["n_total"]["type"] == "counter"
        assert payload["n_total"]["samples"] == [{"labels": {"kind": "x"}, "value": 7.0}]

    def test_global_registry_is_a_singleton(self):
        assert global_registry() is global_registry()

    def test_record_query_populates_standard_families(self, walks):
        registry = MetricsRegistry()
        measure = EuclideanMeasure()
        result = wedge_search(list(walks[1:]), walks[0], measure)
        record_query(result, measure.name, wall_seconds=0.01, registry=registry)
        assert registry.counter("queries_total").value(strategy="wedge", measure="euclidean") == 1
        reached = registry.counter("cascade_reached_total")
        assert reached.value(tier="kim", measure="euclidean") == result.tier_stats["leaf_candidates"]
        assert (
            reached.value(tier="full", measure="euclidean")
            == result.tier_stats["full_computations"]
        )
        steps_state = registry.histogram("query_steps").state(
            strategy="wedge", measure="euclidean"
        )
        assert steps_state["count"] == 1
        assert steps_state["sum"] == result.counter.steps


class TestPrometheusEscaping:
    """Exposition-format escaping: hostile label values must round-trip."""

    HOSTILE = [
        'back\\slash"quote',
        "new\nline",
        'all\\three:"\n\\"',
        "plain",
        '\\n',  # a literal backslash-n, NOT a newline
    ]

    def test_hostile_label_values_round_trip(self):
        registry = MetricsRegistry()
        counter = registry.counter("hostile_total", "counts hostile labels")
        for i, value in enumerate(self.HOSTILE):
            counter.inc(i + 1, path=value)
        parsed = parse_prometheus_text(registry.to_prometheus())
        got = {labels["path"]: value for name, labels, value in parsed["samples"]}
        for i, value in enumerate(self.HOSTILE):
            assert got[value] == i + 1, (value, got)

    def test_each_escaped_line_is_single_line(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(1, v="a\nb")
        text = registry.to_prometheus()
        for line in text.splitlines():
            assert line.startswith(("#", "c_total"))
        assert 'v="a\\nb"' in text

    def test_help_text_escapes_newline_and_backslash(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "line one\nline \\two").inc(1)
        text = registry.to_prometheus()
        assert "# HELP c_total line one\\nline \\\\two" in text
        parsed = parse_prometheus_text(text)
        assert parsed["families"]["c_total"]["help"] == "line one\nline \\two"

    def test_histogram_labels_escape_too(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0,)).observe(0.5, tag='q"uote')
        parsed = parse_prometheus_text(registry.to_prometheus())
        buckets = [s for s in parsed["samples"] if s[0] == "h_bucket"]
        assert buckets and all(s[1]["tag"] == 'q"uote' for s in buckets)
        le_values = {s[1]["le"] for s in buckets}
        assert le_values == {"1", "+Inf"}


class TestRegistryFromDict:
    """to_dict() -> registry_from_dict is the service's snapshot transport."""

    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("n_total", "a counter").inc(3, kind="x")
        registry.counter("n_total").inc(1.5, kind="y")
        registry.gauge("ratio", "a gauge").set(0.75, slot="a")
        hist = registry.histogram("lat", "a histogram", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 2.0):
            hist.observe(value, op="knn")
        return registry

    def test_round_trips_through_json(self):
        original = self._populated()
        rebuilt = registry_from_dict(json.loads(original.to_json()))
        assert rebuilt.to_dict() == original.to_dict()
        assert rebuilt.to_prometheus() == original.to_prometheus()

    def test_rebuilt_registry_merges_like_the_original(self):
        base = MetricsRegistry()
        base.counter("n_total").inc(10, kind="x")
        base.merge(registry_from_dict(self._populated().to_dict()))
        assert base.counter("n_total").value(kind="x") == 13

    def test_unknown_family_type_raises(self):
        with pytest.raises(ValueError):
            registry_from_dict({"bad": {"type": "summary", "samples": []}})


class TestQueryLogger:
    def test_log_result_round_trips(self, tmp_path, walks):
        path = tmp_path / "runs.jsonl"
        measure = EuclideanMeasure()
        result = early_abandon_search(list(walks[1:]), walks[0], measure)
        with QueryLogger(path) as log:
            log.log_result(result, measure.name, wall_seconds=0.5, query_id=9, note="smoke")
        (record,) = read_query_log(path)
        assert record["query_id"] == 9
        assert record["strategy"] == "early-abandon"
        assert record["measure"] == "euclidean"
        assert record["result_index"] == result.index
        assert record["steps"] == result.counter.steps
        assert record["counter"] == result.counter.snapshot()
        assert record["tier_stats"] == dict(result.tier_stats)
        assert record["wall_seconds"] == 0.5
        assert record["note"] == "smoke"

    def test_missing_query_ids_get_sequence_numbers(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        with QueryLogger(path) as log:
            log.log({"strategy": "wedge"})
            log.log({"strategy": "wedge"})
        ids = [record["query_id"] for record in read_query_log(path)]
        assert ids == [0, 1]

    def test_numpy_and_inf_values_are_coerced(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        with QueryLogger(path) as log:
            log.log(
                {
                    "query_id": np.int64(4),
                    "distance": float("inf"),
                    "scores": (np.float64(1.5), float("nan")),
                }
            )
        (record,) = read_query_log(path)
        assert record["query_id"] == 4
        assert record["distance"] == "inf"
        assert record["scores"] == [1.5, "nan"]

    def test_file_like_destination_is_not_closed(self):
        sink = io.StringIO()
        log = QueryLogger(sink)
        log.log({"query_id": 1})
        log.close()
        assert not sink.closed
        assert json.loads(sink.getvalue())["query_id"] == 1

    def test_closed_logger_raises(self, tmp_path):
        log = QueryLogger(tmp_path / "runs.jsonl")
        log.close()
        with pytest.raises(ValueError):
            log.log({})

    def test_malformed_line_names_its_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\n\nnot json\n')
        with pytest.raises(ValueError, match=":3:"):
            read_query_log(path)

    def test_size_based_rotation_keeps_n_files(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        # Each record is ~40 bytes; cap at ~2 records per file.
        with QueryLogger(path, max_bytes=90, keep=2) as log:
            for i in range(10):
                log.log({"query_id": i})
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["runs.jsonl", "runs.jsonl.1", "runs.jsonl.2"]
        # Live file holds the newest records, .1 the next-newest, etc.
        live_ids = [r["query_id"] for r in read_query_log(path)]
        prev_ids = [r["query_id"] for r in read_query_log(tmp_path / "runs.jsonl.1")]
        assert live_ids[-1] == 9
        assert max(prev_ids) < min(live_ids)
        # No record straddles files and none were lost within the window.
        surviving = prev_ids + live_ids
        assert surviving == sorted(surviving)

    def test_rotation_respects_preexisting_size_on_append(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        with QueryLogger(path, max_bytes=80) as log:
            log.log({"query_id": 0})
        with QueryLogger(path, append=True, max_bytes=80) as log:
            log.log({"query_id": 1})
            log.log({"query_id": 2})
        assert (tmp_path / "runs.jsonl.1").exists()

    def test_rotation_rejects_file_like_and_bad_args(self, tmp_path):
        with pytest.raises(ValueError):
            QueryLogger(io.StringIO(), max_bytes=100)
        with pytest.raises(ValueError):
            QueryLogger(tmp_path / "x.jsonl", max_bytes=0)
        with pytest.raises(ValueError):
            QueryLogger(tmp_path / "x.jsonl", max_bytes=100, keep=0)


class TestReport:
    def test_tier_funnel_stages(self):
        stats = {
            "leaf_candidates": 10,
            "keogh_reached": 8,
            "improved_reached": 4,
            "full_computations": 2,
        }
        assert tier_funnel(stats) == [
            ("kim", 10),
            ("keogh", 8),
            ("improved", 4),
            ("full-distance", 2),
        ]
        assert funnel_is_monotone(stats)

    def test_funnel_inversion_is_flagged(self):
        stats = {"leaf_candidates": 5, "keogh_reached": 9}
        assert not funnel_is_monotone(stats)

    def test_summarize_and_format(self, tmp_path, walks):
        path = tmp_path / "runs.jsonl"
        measure = DTWMeasure(radius=2)
        with QueryLogger(path) as log:
            for qid in (0, 3):
                db = list(np.delete(walks, qid, axis=0))
                wedge_search(db, walks[qid], measure, query_log=log, query_id=qid)
        summary = summarize_query_log(path, top=1)
        assert summary["queries"] == 2
        assert summary["strategies"]["wedge"]["queries"] == 2
        assert summary["funnel_monotone"] is True
        assert len(summary["top_slow"]) == 1
        text = format_summary(summary)
        assert "funnel monotone: yes" in text
        assert "wedge" in text


class TestProvenance:
    def test_block_has_reproducibility_fields(self):
        block = provenance_block({"benchmark": "unit"})
        for key in ("platform", "python", "numpy", "repro_scale", "timestamp_utc"):
            assert block[key]
        assert block["benchmark"] == "unit"
        json.dumps(block)  # must be JSON-ready


class TestObservationIsPure:
    """Instrumentation must never perturb steps, answers, or tier stats."""

    def _observed(self, fn, *args, **kwargs):
        tracer = Tracer()
        registry = MetricsRegistry()
        sink = io.StringIO()
        with QueryLogger(sink) as log:
            result = fn(
                *args, tracer=tracer, metrics=registry, query_log=log, query_id=0, **kwargs
            )
        return result, tracer

    @pytest.mark.parametrize("fn", [early_abandon_search, wedge_search])
    def test_step_counts_bit_identical_with_tracing(self, walks, fn):
        measure = DTWMeasure(radius=2)
        database = list(walks[1:])
        bare = fn(database, walks[0], measure)
        observed, _tracer = self._observed(fn, database, walks[0], measure)
        assert observed.counter.snapshot() == bare.counter.snapshot()
        assert (observed.index, observed.rotation) == (bare.index, bare.rotation)
        assert observed.distance == bare.distance
        assert observed.tier_stats == bare.tier_stats

    def test_indexed_scan_steps_identical_with_tracing(self, walks):
        measure = EuclideanMeasure()
        scan = SignatureFilteredScan(list(walks[1:]), n_coefficients=8)
        bare = scan.query(walks[0], measure)
        traced = scan.query(walks[0], measure, tracer=Tracer())
        assert traced.result.counter.snapshot() == bare.result.counter.snapshot()
        assert (traced.result.index, traced.result.distance) == (
            bare.result.index,
            bare.result.distance,
        )
        assert traced.objects_retrieved == bare.objects_retrieved

    def test_wedge_span_tree_covers_the_query_lifecycle(self, walks):
        measure = DTWMeasure(radius=2)
        _result, tracer = self._observed(wedge_search, list(walks[1:]), walks[0], measure)
        (root,) = tracer.find("query")
        assert root.attributes["strategy"] == "wedge"
        assert root.attributes["measure"] == "dtw"
        assert tracer.find("wedge_tree.build")
        assert tracer.find("hmerge.pop")
        cascade = [s for s in tracer.iter_spans() if s.name.startswith("cascade.")]
        assert cascade
        # Final refinement: every surviving leaf pays a cascade.full_distance.
        assert tracer.find("cascade.full_distance")

    def test_non_cascade_strategies_carry_the_zeroed_sentinel(self, walks):
        result = brute_force_search(list(walks[1:]), walks[0], EuclideanMeasure())
        assert result.tier_stats == empty_tier_stats()
        assert set(result.tier_stats) == set(TIER_STAT_KEYS)
        assert not any(result.tier_stats.values())

    def test_search_many_merges_worker_registries(self, walks):
        measure = EuclideanMeasure()
        database = list(walks[:10])
        queries = [walks[10], walks[11], walks[12]]
        sequential, parallel = MetricsRegistry(), MetricsRegistry()
        r1 = search_many(database, queries, measure, n_jobs=1, metrics=sequential)
        r2 = search_many(database, queries, measure, n_jobs=2, metrics=parallel)
        assert [r.index for r in r1] == [r.index for r in r2]
        for registry in (sequential, parallel):
            assert registry.counter("queries_total").value(
                strategy="wedge", measure="euclidean"
            ) == len(queries)
        seq_steps = sequential.histogram("query_steps").state(
            strategy="wedge", measure="euclidean"
        )
        par_steps = parallel.histogram("query_steps").state(
            strategy="wedge", measure="euclidean"
        )
        assert seq_steps == par_steps

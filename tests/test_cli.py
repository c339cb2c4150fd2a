"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_defaults(self):
        args = build_parser().parse_args(["search"])
        assert args.collection == "points"
        assert args.strategy == "wedge"
        assert args.measure == "euclidean"
        assert not args.mirror

    def test_rejects_unknown_collection(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--collection", "mnist"])


class TestDatasetsCommand:
    def test_lists_all_rows(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("Face", "OSULeaves", "Yoga", "LightCurve"):
            assert name in out


class TestSearchCommand:
    def test_wedge_search_runs(self, capsys):
        code = main(["search", "--collection", "lightcurves", "--size", "20", "--length", "48", "--query-index", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "best match" in out
        assert "of brute force" in out

    def test_strategies_agree(self, capsys):
        answers = {}
        for strategy in ("wedge", "brute", "early-abandon", "fft"):
            main(
                [
                    "search",
                    "--collection",
                    "points",
                    "--size",
                    "15",
                    "--length",
                    "32",
                    "--query-index",
                    "2",
                    "--strategy",
                    strategy,
                ]
            )
            out = capsys.readouterr().out
            answers[strategy] = [line for line in out.splitlines() if "best match" in line][0]
        assert len(set(answers.values())) == 1

    def test_plan_specs_agree_with_wedge(self, capsys):
        """--plan auto and every fixed spec return the wedge answer."""
        base = ["search", "--collection", "points", "--size", "12", "--length",
                "32", "--query-index", "1", "--measure", "dtw"]
        answers = {}
        for extra in ([], ["--plan", "auto"], ["--plan", "fixed:keogh"],
                      ["--plan", "fixed:none"], ["--plan", "fixed:kim>keogh>improved"]):
            assert main(base + extra) == 0
            out = capsys.readouterr().out
            answers[tuple(extra)] = [
                line for line in out.splitlines() if "best match" in line
            ][0]
            if extra and extra[1] != "auto":
                assert "plan: wedge:" in out
        assert len(set(answers.values())) == 1

    def test_malformed_plan_spec_exits(self):
        with pytest.raises(SystemExit):
            main(["search", "--size", "10", "--plan", "fixed:improved"])

    def test_serve_parser_accepts_plan(self):
        args = build_parser().parse_args(["serve", "--shards", "shards/"])
        assert args.plan == "auto"
        args = build_parser().parse_args(
            ["serve", "--shards", "shards/", "--plan", "fixed:keogh"]
        )
        assert args.plan == "fixed:keogh"

    def test_dtw_and_options(self, capsys):
        code = main(
            [
                "search",
                "--collection",
                "points",
                "--size",
                "12",
                "--length",
                "32",
                "--measure",
                "dtw",
                "--radius",
                "2",
                "--mirror",
                "--max-degrees",
                "90",
            ]
        )
        assert code == 0
        assert "best match" in capsys.readouterr().out


class TestClassifyCommand:
    def test_runs_one_dataset(self, capsys):
        code = main(["classify", "--dataset", "Yoga", "--per-class", "3", "--length", "32", "--max-instances", "6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Yoga" in out
        assert "ED=" in out and "DTW=" in out

    def test_unknown_dataset_exits(self):
        with pytest.raises(SystemExit):
            main(["classify", "--dataset", "MNIST"])


class TestIndexCommands:
    @pytest.fixture
    def built_archive(self, tmp_path, capsys):
        path = tmp_path / "idx.npz"
        code = main(
            [
                "index",
                "build",
                "--collection",
                "points",
                "--size",
                "24",
                "--length",
                "32",
                "--coefficients",
                "8",
                "--page-size",
                "4",
                "--buffer-pages",
                "2",
                "--out",
                str(path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        return path

    def test_build_writes_archive_and_sidecar(self, built_archive):
        assert built_archive.exists()
        assert built_archive.with_name("idx.data.npy").exists()

    def test_inspect_verify(self, built_archive, capsys):
        code = main(["index", "inspect", str(built_archive), "--verify"])
        assert code == 0
        out = capsys.readouterr().out
        assert "format v2" in out
        assert "page_size=4" in out
        assert out.count("[ok]") == 4

    def test_inspect_json(self, built_archive, capsys):
        assert main(["index", "inspect", str(built_archive), "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["format_version"] == 2
        assert info["disk_store"] == {"page_size": 4, "buffer_pages": 2}

    def test_inspect_detects_corruption(self, built_archive, capsys):
        sidecar = built_archive.with_name("idx.data.npy")
        raw = bytearray(sidecar.read_bytes())
        raw[-1] ^= 0xFF
        sidecar.write_bytes(bytes(raw))
        code = main(["index", "inspect", str(built_archive), "--verify"])
        assert code == 1
        assert "MISMATCH" in capsys.readouterr().out

    @pytest.mark.parametrize("mmap", [False, True])
    def test_query_matches_in_ram_and_mmap(self, built_archive, capsys, mmap):
        argv = [
            "index",
            "query",
            str(built_archive),
            "--collection",
            "points",
            "--size",
            "24",
            "--length",
            "32",
            "--query-index",
            "3",
            "--json",
        ]
        if mmap:
            argv.append("--mmap")
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mmap"] is mmap
        assert 0 <= payload["index"] < 24
        assert np.isfinite(payload["distance"])
        assert 0 < payload["fraction_retrieved"] <= 1.0

    def test_query_mmap_agrees_with_in_ram(self, built_archive, capsys):
        answers = []
        for extra in ([], ["--mmap"]):
            main(
                [
                    "index",
                    "query",
                    str(built_archive),
                    "--collection",
                    "points",
                    "--size",
                    "24",
                    "--length",
                    "32",
                    "--measure",
                    "dtw",
                    "--radius",
                    "2",
                    "--json",
                    *extra,
                ]
            )
            payload = json.loads(capsys.readouterr().out)
            payload.pop("mmap")
            answers.append(payload)
        assert answers[0] == answers[1]

    def test_query_knn_and_obs_wiring(self, built_archive, tmp_path, capsys):
        log = tmp_path / "queries.jsonl"
        metrics = tmp_path / "metrics.prom"
        code = main(
            [
                "index",
                "query",
                str(built_archive),
                "--collection",
                "points",
                "--size",
                "24",
                "--length",
                "32",
                "--obs-log",
                str(log),
                "--metrics-out",
                str(metrics),
                "--trace",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "best match" in out and "trace:" in out
        record = json.loads(log.read_text().splitlines()[0])
        assert "fraction_retrieved" in record
        assert "queries_total" in metrics.read_text()
        capsys.readouterr()
        assert (
            main(
                [
                    "index",
                    "query",
                    str(built_archive),
                    "--collection",
                    "points",
                    "--size",
                    "24",
                    "--length",
                    "32",
                    "--k",
                    "3",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["neighbors"]) == 3

    def test_query_rejects_mismatched_length(self, built_archive):
        with pytest.raises(SystemExit, match="length"):
            main(
                [
                    "index",
                    "query",
                    str(built_archive),
                    "--collection",
                    "points",
                    "--size",
                    "24",
                    "--length",
                    "48",
                ]
            )


class TestMiningCommands:
    def test_discords(self, capsys):
        code = main(["discords", "--collection", "lightcurves", "--size", "15", "--length", "48", "--top", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "NN distance" in out
        assert out.count("\n") >= 3

    def test_motif(self, capsys):
        code = main(["motif", "--collection", "points", "--size", "12", "--length", "32"])
        assert code == 0
        assert "distance" in capsys.readouterr().out

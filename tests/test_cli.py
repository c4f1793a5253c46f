import json
import os
import stat
import struct

import numpy as np
import pytest

from vtcompress import FrameFeatureSequence, cli, errors
from vtcompress.cli import main
from vtcompress.errors import (
    BudgetInfeasibleError,
    CompressionError,
    FileFormatError,
    InvalidConfigError,
)
from vtcompress.formats import read_compressed, read_features, write_features
from vtcompress.synthbench import reduction_report

from .conftest import random_sequence


@pytest.fixture
def video_file(tmp_path):
    path = tmp_path / "video.lvuf"
    code = main([
        "synth", "--frames", "64", "--scenes", "4", "--seed", "3",
        "--dim", "8", "--out", str(path),
    ])
    assert code == 0
    return path


@pytest.fixture
def query_file(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "query.lvuq"
    from vtcompress import QueryEmbedding
    from vtcompress.formats import write_query

    write_query(path, QueryEmbedding(rng.standard_normal((10, 8)).astype(np.float32)))
    return path


class TestSynthCommand:
    def test_zero_noise_single_scene(self, tmp_path):
        out = tmp_path / "static.lvuf"
        code = main([
            "synth", "--frames", "8", "--scenes", "1", "--noise", "0",
            "--drift-fraction", "0", "--dim", "4", "--out", str(out),
        ])
        assert code == 0
        video = read_features(out)
        assert video.n_frames == 8
        for i in range(1, 8):
            assert np.array_equal(video.frames[i], video.frames[0])

    def test_seed_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.lvuf", tmp_path / "b.lvuf"
        args = ["synth", "--frames", "32", "--scenes", "3", "--seed", "9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_hour_long_file_size(self, tmp_path):
        out = tmp_path / "hour.lvuf"
        code = main([
            "synth", "--frames", "3600", "--scenes", "56", "--dim", "32",
            "--grid", "12x12", "--out", str(out),
        ])
        assert code == 0
        assert out.stat().st_size == 28 + 3600 * 144 * 32 * 4

    def test_path_under_a_regular_file_exit_code(self, tmp_path):
        blocker = tmp_path / "f"
        blocker.write_bytes(b"previous")
        code = main(["synth", "--frames", "8", "--scenes", "1", "--out", str(blocker / "x.lvuf")])
        assert code == 2
        assert [p.name for p in tmp_path.iterdir()] == ["f"]
        assert blocker.read_bytes() == b"previous"

    def test_invalid_spec_exit_code(self, tmp_path):
        code = main([
            "synth", "--frames", "4", "--scenes", "9", "--out", str(tmp_path / "x.lvuf"),
        ])
        assert code == 3
        for noise in ["nan", "inf"]:
            out = tmp_path / f"{noise}.lvuf"
            assert main(["synth", "--frames", "4", "--scenes", "1", "--noise", noise,
                         "--out", str(out)]) == 3
            assert not out.exists()

    def test_negative_seed_exit_code(self, tmp_path):
        code = main(["synth", "--frames", "4", "--scenes", "1", "--seed", "-1",
                     "--out", str(tmp_path / "x.lvuf")])
        assert code == 3
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_noise_exit_code(self, tmp_path, capsys, recwarn):
        # a finite noise whose draws overflow float32 is a bad configuration,
        # reported by its one error line and no numpy overflow warning
        out = tmp_path / "x.lvuf"
        code = main(["synth", "--frames", "4", "--scenes", "1", "--noise", "1e308",
                     "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == "error: noise 1e+308 overflows the float32 features\n"
        assert [w for w in recwarn if issubclass(w.category, RuntimeWarning)] == []
        assert list(tmp_path.iterdir()) == []


class TestCompressCommand:
    def test_defaults_respect_budget(self, tmp_path, query_file):
        video_path = tmp_path / "big.lvuf"
        assert main([
            "synth", "--frames", "600", "--scenes", "9", "--seed", "1",
            "--dim", "8", "--out", str(video_path),
        ]) == 0
        out = tmp_path / "out.lvuc"
        stats_path = tmp_path / "stats.json"
        code = main([
            "compress", "--input", str(video_path), "--query", str(query_file),
            "--output", str(out), "--stats", str(stats_path),
        ])
        assert code == 0
        seq, stats = read_compressed(out)
        assert stats.tokens_final + stats.query_tokens <= 8192
        assert seq.total_count == stats.tokens_final
        assert json.loads(stats_path.read_text())["tokens_final"] == stats.tokens_final

    def test_theta_validation_names_flag(self, tmp_path, video_file, query_file, capsys):
        code = main([
            "compress", "--input", str(video_file), "--query", str(query_file),
            "--output", str(tmp_path / "o.lvuc"), "--theta", "1.5",
        ])
        assert code == 3
        assert "--theta" in capsys.readouterr().err

    def test_input_grid_too_small_for_tokens_low(self, tmp_path, query_file):
        video_path = tmp_path / "small.lvuf"
        assert main([
            "synth", "--frames", "16", "--scenes", "2", "--dim", "8", "--grid", "6x6",
            "--out", str(video_path),
        ]) == 0
        out = tmp_path / "o.lvuc"
        code = main([
            "compress", "--input", str(video_path), "--query", str(query_file),
            "--output", str(out), "--tokens-low", "8x8",
        ])
        assert code == 3
        assert not out.exists()

    def test_all_stages_disabled_raw_flatten(self, tmp_path, query_file):
        video_path = tmp_path / "over.lvuf"
        assert main([
            "synth", "--frames", "80", "--scenes", "4", "--seed", "2",
            "--dim", "8", "--out", str(video_path),
        ]) == 0
        out = tmp_path / "raw.lvuc"
        code = main([
            "compress", "--input", str(video_path), "--query", str(query_file),
            "--output", str(out), "--context-length", "512",
            "--disable-stage", "temporal", "--disable-stage", "query",
            "--disable-stage", "stc",
        ])
        assert code == 0
        seq, stats = read_compressed(out)
        assert seq.total_count == 80 * 144  # untouched despite the budget
        assert stats.total_reduction_rate == 0.0
        assert not stats.fallback_used

    def test_malformed_input_exit_code(self, tmp_path, query_file, capsys):
        bad = tmp_path / "bad.lvuf"
        bad.write_bytes(b"garbage")
        code = main([
            "compress", "--input", str(bad), "--query", str(query_file),
            "--output", str(tmp_path / "o.lvuc"),
        ])
        assert code == 2

    def test_all_zero_frame_compresses(self, tmp_path, query_file):
        frames = random_sequence(np.random.default_rng(1), 12, 12, 12, 8).frames.copy()
        frames[5] = 0.0
        path, out = tmp_path / "black.lvuf", tmp_path / "o.lvuc"
        write_features(path, FrameFeatureSequence(frames))
        for anchor in ("first", "middle", "high-change"):
            code = main([
                "compress", "--input", str(path), "--query", str(query_file),
                "--output", str(out), "--context-length", "400", "--anchor", anchor,
            ])
            assert code == 0
            seq, stats = read_compressed(out)
            assert seq.total_count == stats.tokens_final
            assert stats.tokens_final + stats.query_tokens <= 400

    def test_oversized_header_exit_code(self, tmp_path, query_file):
        bad = tmp_path / "huge.lvuf"
        header = struct.pack("<4sIIIIIB3s", b"LVUF", 1, 65535, 65535, 65535, 65535, 0, b"\0\0\0")
        bad.write_bytes(header + b"\0" * 72)
        code = main([
            "compress", "--input", str(bad), "--query", str(query_file),
            "--output", str(tmp_path / "o.lvuc"),
        ])
        assert code == 2

    def test_oversized_query_header_exit_code(self, tmp_path, video_file, capsys):
        bad = tmp_path / "huge.lvuq"
        bad.write_bytes(struct.pack("<4sIIIB", b"LVUQ", 1, 65535, 65535, 0) + b"\0" * 100)
        code = main([
            "compress", "--input", str(video_file), "--query", str(bad),
            "--output", str(tmp_path / "o.lvuc"),
        ])
        assert code == 2
        assert "truncated" in capsys.readouterr().err

    def test_missing_input_exit_code(self, tmp_path, query_file):
        code = main([
            "compress", "--input", str(tmp_path / "absent.lvuf"),
            "--query", str(query_file), "--output", str(tmp_path / "o.lvuc"),
        ])
        assert code == 2

    def test_bad_flag_is_reported_before_a_missing_input(self, tmp_path, query_file, capsys):
        code = main([
            "compress", "--input", str(tmp_path / "absent.lvuf"), "--query", str(query_file),
            "--output", str(tmp_path / "o.lvuc"), "--theta", "2",
        ])
        assert code == 3
        assert "--theta" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--output", "--input", "--stats"])
    def test_path_under_a_regular_file_exit_code(self, tmp_path, video_file, query_file, flag):
        blocker = tmp_path / "f"
        blocker.write_bytes(b"previous")
        paths = {"--input": video_file, "--output": tmp_path / "o.lvuc",
                 "--stats": tmp_path / "s.json", flag: blocker / "x"}
        argv = ["compress", "--query", str(query_file), "--context-length", "1024"]
        for name, path in paths.items():
            argv += [name, str(path)]
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main(argv) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert blocker.read_bytes() == b"previous"

    def test_output_under_a_symlink_loop_exit_code(self, tmp_path, video_file, query_file):
        (tmp_path / "loop").symlink_to("loop")
        code = main(["compress", "--input", str(video_file), "--query", str(query_file),
                     "--output", str(tmp_path / "loop" / "o.lvuc"), "--context-length", "1024"])
        assert code == 2

    def test_budget_infeasible_exit_code(self, tmp_path, video_file, query_file):
        code = main([
            "compress", "--input", str(video_file), "--query", str(query_file),
            "--output", str(tmp_path / "o.lvuc"),
            "--context-length", "40", "--window-k", "1",
        ])
        assert code == 4

    def test_query_dim_mismatch_exit_code(self, tmp_path):
        # static video sized so scoring actually runs (0 < n_h < frame count)
        rng = np.random.default_rng(1)
        from vtcompress import QueryEmbedding
        from vtcompress.formats import write_query

        video_path = tmp_path / "static400.lvuf"
        assert main([
            "synth", "--frames", "400", "--scenes", "6", "--drift-fraction", "0",
            "--dim", "8", "--seed", "2", "--out", str(video_path),
        ]) == 0
        qpath = tmp_path / "wide.lvuq"
        write_query(qpath, QueryEmbedding(rng.standard_normal((4, 32)).astype(np.float32)))
        code = main([
            "compress", "--input", str(video_path), "--query", str(qpath),
            "--output", str(tmp_path / "o.lvuc"),
        ])
        assert code == 3

    def test_query_dim_mismatch_when_every_frame_fits(self, tmp_path):
        # at the default context every kept frame stays full, so no frame is
        # scored; the query is still checked against the tokens
        from vtcompress import QueryEmbedding
        from vtcompress.formats import write_query

        video_path = tmp_path / "v.lvuf"
        assert main([
            "synth", "--frames", "64", "--scenes", "2", "--dim", "8", "--seed", "2",
            "--out", str(video_path),
        ]) == 0
        qpath = tmp_path / "narrow.lvuq"
        write_query(qpath, QueryEmbedding(np.ones((4, 5), dtype=np.float32)))
        out = tmp_path / "o.lvuc"
        assert main(["compress", "--input", str(video_path), "--query", str(qpath),
                     "--output", str(out)]) == 3
        assert not out.exists()

    def test_window_longer_than_any_video(self, tmp_path, video_file, query_file):
        # 2^62 frames per window: no full window exists, so the 64 frames
        # form one short window, as with --window-j 64
        outputs = []
        for j in [2**62, 64]:
            out = tmp_path / f"j{j}.lvuc"
            code = main(["compress", "--input", str(video_file), "--query", str(query_file),
                         "--output", str(out), "--window-j", str(j)])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_fpe_flag_changes_vectors(self, tmp_path, video_file, query_file):
        plain, shifted = tmp_path / "plain.lvuc", tmp_path / "fpe.lvuc"
        base = [
            "compress", "--input", str(video_file), "--query", str(query_file),
        ]
        assert main(base + ["--output", str(plain)]) == 0
        assert main(base + ["--output", str(shifted), "--fpe", "on"]) == 0
        a, _ = read_compressed(plain)
        b, _ = read_compressed(shifted)
        assert a.total_count == b.total_count
        assert not np.array_equal(a.vectors, b.vectors)

    def test_anchor_flag_spelling(self, tmp_path, video_file, query_file):
        code = main([
            "compress", "--input", str(video_file), "--query", str(query_file),
            "--output", str(tmp_path / "o.lvuc"), "--anchor", "high-change",
        ])
        assert code == 0
        code = main([
            "compress", "--input", str(video_file), "--query", str(query_file),
            "--output", str(tmp_path / "o.lvuc"), "--anchor", "bogus",
        ])
        assert code == 3

    def test_identical_reruns_byte_identical(self, tmp_path, video_file, query_file):
        a, b = tmp_path / "a.lvuc", tmp_path / "b.lvuc"
        base = [
            "compress", "--input", str(video_file), "--query", str(query_file),
            "--context-length", "1024",
        ]
        assert main(base + ["--output", str(a)]) == 0
        assert main(base + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_long_output_name(self, tmp_path, video_file, query_file):
        # The temp file beside the output has a name of its own length, so
        # any name the output may have is writable.
        base = ["compress", "--input", str(video_file), "--query", str(query_file)]
        long_name = tmp_path / ("o" * 240 + ".lvuc")
        assert len(long_name.name) == 245
        assert main(base + ["--output", str(long_name)]) == 0
        assert main(base + ["--output", str(tmp_path / "s.lvuc")]) == 0
        assert long_name.read_bytes() == (tmp_path / "s.lvuc").read_bytes()
        assert [p for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []

    def test_failed_stats_write_replaces_neither_file(self, tmp_path, video_file, query_file):
        base = ["compress", "--input", str(video_file), "--query", str(query_file),
                "--context-length", "1024"]
        out = tmp_path / "out.lvuc"
        assert main(base + ["--output", str(out), "--stats", str(tmp_path / "nodir" / "s.json")]) == 2
        assert not out.exists()
        out.write_bytes(b"previous")
        (tmp_path / "statsdir").mkdir()
        assert main(base + ["--output", str(out), "--stats", str(tmp_path / "statsdir")]) == 2
        assert out.read_bytes() == b"previous"
        stats = tmp_path / "s.json"
        assert main(base + ["--output", str(tmp_path / "nodir" / "o.lvuc"), "--stats", str(stats)]) == 2
        assert not stats.exists()
        assert list(tmp_path.rglob("*.tmp")) == []
        # on success both files are written, the stats as indented, sorted JSON
        assert main(base + ["--output", str(out), "--stats", str(stats)]) == 0
        _, written = read_compressed(out)
        expected = json.dumps(written.to_dict(), sort_keys=True, indent=2) + "\n"
        assert stats.read_bytes() == expected.encode("utf-8")

    def test_stats_and_output_naming_one_file_exit_code(self, tmp_path, video_file, query_file):
        out = tmp_path / "o"
        (tmp_path / "link").symlink_to(out)
        for stats in (out, tmp_path / "." / "o", tmp_path / "link"):
            code = main(["compress", "--input", str(video_file), "--query", str(query_file),
                         "--output", str(out), "--stats", str(stats)])
            assert code == 3
            assert not out.exists()
        # rejected before any input is read: a missing input is not reached
        code = main(["compress", "--input", str(tmp_path / "missing.lvuf"), "--query",
                     str(query_file), "--output", str(out), "--stats", str(out)])
        assert code == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "query.lvuq", "video.lvuf"]


class TestFileModes:
    def test_outputs_honour_the_umask(self, tmp_path):
        from vtcompress import QueryEmbedding
        from vtcompress.formats import write_query

        names = ["v.lvuf", "q.lvuq", "o.lvuc", "s.json"]
        video, query, out, stats = (tmp_path / n for n in names)
        old = os.umask(0o022)
        try:
            assert main(["synth", "--frames", "32", "--scenes", "2", "--dim", "8",
                         "--out", str(video)]) == 0
            write_query(query, QueryEmbedding(np.ones((4, 8), dtype=np.float32)))
            assert main(["compress", "--input", str(video), "--query", str(query),
                         "--output", str(out), "--stats", str(stats),
                         "--context-length", "1024"]) == 0
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
        assert modes == dict.fromkeys(names, 0o644)


class TestNeedleCommand:
    def test_two_cell_grid(self, tmp_path):
        report = tmp_path / "needle.csv"
        code = main([
            "needle", "--frame-counts", "200", "--depths", "0,1",
            "--seed", "4", "--report", str(report),
        ])
        assert code == 0
        lines = report.read_text().strip().splitlines()
        assert lines[0].startswith("frame_count,depth,needle_full_res")
        assert len(lines) == 3
        aggregate = json.loads(report.with_suffix(".json").read_text())
        assert aggregate["cells"] == 2 and aggregate["n_infeasible"] == 0
        assert 0.0 <= aggregate["any_token_survival_rate"] <= 1.0

    def test_infeasible_cell_exits_zero(self, tmp_path):
        # at the default 8,192 the 2,000-frame cell's anchors alone hold
        # 8,384 tokens, so only the 200-frame cell gives rates
        report = tmp_path / "needle.csv"
        code = main(["needle", "--frame-counts", "200,2000", "--depths", "0.5",
                     "--report", str(report)])
        assert code == 0
        header, feasible, infeasible = report.read_text().strip().splitlines()
        assert header.endswith(",any_token_survives,tokens_final")
        assert feasible.startswith("200,0.5,") and not feasible.endswith(",")
        assert infeasible == "2000,0.5,,,,"
        aggregate = json.loads(report.with_suffix(".json").read_text())
        assert aggregate["cells"] == 2 and aggregate["n_infeasible"] == 1
        _, _, full, fraction, survives, _ = feasible.split(",")
        assert aggregate["full_res_rate"] == (full == "True")
        assert aggregate["any_token_survival_rate"] == (survives == "True")
        assert aggregate["mean_tokens_kept_fraction"] == float(fraction)

    def test_no_feasible_cell_gives_no_rates(self, tmp_path):
        report = tmp_path / "needle.csv"
        code = main(["needle", "--frame-counts", "2000", "--depths", "0.5",
                     "--report", str(report)])
        assert code == 0
        aggregate = json.loads(report.with_suffix(".json").read_text())
        assert aggregate == {"cells": 1, "n_infeasible": 1, "full_res_rate": None,
                             "any_token_survival_rate": None,
                             "mean_tokens_kept_fraction": None}

    def test_negative_seed_exit_code(self, tmp_path):
        code = main(["needle", "--frame-counts", "40", "--depths", "0.5", "--seed", "-1",
                     "--report", str(tmp_path / "n.csv")])
        assert code == 3
        assert list(tmp_path.iterdir()) == []

    def test_path_under_a_regular_file_exit_code(self, tmp_path):
        blocker = tmp_path / "f"
        blocker.write_bytes(b"previous")
        code = main(["needle", "--frame-counts", "40", "--depths", "0.5",
                     "--report", str(blocker / "n.csv")])
        assert code == 2
        assert [p.name for p in tmp_path.iterdir()] == ["f"]
        assert blocker.read_bytes() == b"previous"

    def test_invalid_grid_exit_code(self, tmp_path):
        code = main([
            "needle", "--frame-counts", "200", "--depths", "0,2",
            "--report", str(tmp_path / "n.csv"),
        ])
        assert code == 3

    @pytest.mark.parametrize("flag", ["--frame-counts", "--depths"])
    def test_empty_list_exit_code(self, tmp_path, flag):
        report = tmp_path / "n.csv"
        assert main(["needle", flag, "", "--report", str(report)]) == 3
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "counts, depths, message",
        [("40", "0,x", "--depths expects comma-separated numbers"),
         ("1.5", "0.5", "--frame-counts expects comma-separated integers")],
        ids=["depths", "frame-counts"],
    )
    def test_non_numeric_list_entry_exit_code(self, tmp_path, capsys, counts, depths, message):
        code = main(["needle", "--frame-counts", counts, "--depths", depths,
                     "--report", str(tmp_path / "n.csv")])
        assert code == 3
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_full_grid_comes_from_the_haystack(self, tmp_path):
        report = tmp_path / "n.csv"
        code = main([
            "needle", "--frame-counts", "200", "--depths", "0.5", "--grid", "8x8",
            "--tokens-low", "4x4", "--report", str(report),
        ])
        assert code == 0
        assert json.loads(report.with_suffix(".json").read_text())["cells"] == 1

    def test_report_naming_its_aggregate_json_exit_code(self, tmp_path):
        # the aggregate goes to the report's .json sibling: here, the report
        report = tmp_path / "out.json"
        report.write_bytes(b"previous")
        code = main(["needle", "--frame-counts", "200", "--depths", "0",
                     "--report", str(report)])
        assert code == 3
        assert report.read_bytes() == b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


class TestReportCommand:
    def test_json_schema(self, tmp_path):
        out = tmp_path / "report.json"
        csv_path = tmp_path / "per_video.csv"
        code = main([
            "report", "--corpus-size", "4", "--seed", "2",
            "--out", str(out), "--csv", str(csv_path),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert "mean_frames_kept" in payload
        assert "mean_tokens_reduced" in payload
        assert payload["n_videos"] == 4
        assert len(csv_path.read_text().strip().splitlines()) == 5

    def test_infeasible_video_exits_zero(self, tmp_path):
        # at a 4096 context the first video of this corpus keeps 625 frames,
        # whose 79 anchors x 64 pooled tokens exceed the budget
        out = tmp_path / "report.json"
        csv_path = tmp_path / "per_video.csv"
        code = main([
            "report", "--corpus-size", "2", "--seed", "0", "--context-length", "4096",
            "--out", str(out), "--csv", str(csv_path),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["n_videos"] == 2 and payload["n_infeasible"] == 1
        header, first, second = csv_path.read_text().strip().splitlines()
        assert header.endswith(",tokens_final")
        assert first.endswith(",") and second.endswith(",4088")

    def test_anchor_ablation_is_one_study(self, tmp_path, monkeypatch):
        from vtcompress import CompressionConfig, anchor_ablation, make_mixed_corpus, synthbench

        calls = []
        inner = synthbench.compress

        def counting_compress(video, query, cfg):
            calls.append(cfg.anchor)
            return inner(video, query, cfg)

        monkeypatch.setattr(synthbench, "compress", counting_compress)
        out = tmp_path / "report.json"
        code = main([
            "report", "--corpus-size", "2", "--seed", "2", "--anchor-ablation",
            "--anchor", "middle", "--out", str(out),
        ])
        assert code == 0
        assert len(calls) == 3 * 2  # one compress per video and strategy
        corpus = make_mixed_corpus(2, 2)
        cfg = CompressionConfig(anchor="middle")
        payload = json.loads(out.read_text())
        assert payload.pop("anchor_ablation") == anchor_ablation(corpus, cfg)
        assert payload == json.loads(json.dumps(reduction_report(corpus, cfg)[1]))

    def test_failed_csv_write_replaces_neither_file(self, tmp_path):
        out = tmp_path / "r.json"
        out.write_bytes(b"previous")
        code = main(["report", "--corpus-size", "1", "--out", str(out),
                     "--csv", str(tmp_path / "nodir" / "x.csv")])
        assert code == 2
        assert out.read_bytes() == b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]

    def test_out_and_csv_naming_one_file_exit_code(self, tmp_path, monkeypatch):
        import vtcompress.cli

        same = tmp_path / "same"
        same.write_bytes(b"previous")
        # rejected before any work: no corpus is made
        monkeypatch.setattr(vtcompress.cli, "make_mixed_corpus", lambda *a: pytest.fail("ran"))
        code = main(["report", "--corpus-size", "1", "--out", str(same),
                     "--csv", str(tmp_path / "." / "same")])
        assert code == 3
        assert same.read_bytes() == b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["same"]

    def test_path_under_a_regular_file_exit_code(self, tmp_path):
        blocker = tmp_path / "f"
        blocker.write_bytes(b"previous")
        code = main(["report", "--corpus-size", "1", "--out", str(blocker / "r.json")])
        assert code == 2
        assert [p.name for p in tmp_path.iterdir()] == ["f"]
        assert blocker.read_bytes() == b"previous"

    def test_invalid_corpus_size(self, tmp_path):
        assert main(["report", "--corpus-size", "0", "--out", str(tmp_path / "r.json")]) == 3

    def test_negative_seed_exit_code(self, tmp_path):
        code = main(["report", "--corpus-size", "1", "--seed", "-1",
                     "--out", str(tmp_path / "r.json"), "--csv", str(tmp_path / "r.csv")])
        assert code == 3
        assert list(tmp_path.iterdir()) == []

    def test_pure_static_mean_near_one_eighth(self, tmp_path):
        # corpus construction is exercised through the library for this check
        from vtcompress import CompressionConfig, SynthSpec, reduction_report

        corpus = [
            SynthSpec(n_frames=256, n_scenes=1, intra_scene_noise=0.01,
                      drift_scenes_fraction=0.0, seed=s)
            for s in range(3)
        ]
        _, agg = reduction_report(corpus, CompressionConfig())
        assert agg["mean_frames_kept"] == pytest.approx(1 / 8, abs=0.01)


HUGE = str(10**22)
NO_EXIT_ONE = [
    pytest.param(["compress", "--window-k", str(2**63), "--anchor", "middle"], 0, id="k=2^63-middle"),
    pytest.param(["synth", "--noise", "1e308"], 3, id="noise=1e308"),
    # One 1e22-frame stage-1 window keeps more frames than 8-frame windows,
    # and their anchors alone exceed the budget.
    *[
        pytest.param(["compress", flag, HUGE, "--anchor", anchor], code, id=f"{flag}=1e22-{anchor}")
        for flag, code in (("--window-j", 4), ("--window-k", 0))
        for anchor in ("first", "middle", "high-change")
    ],
    pytest.param(["compress", "--context-length", HUGE], 0, id="context=1e22"),
    pytest.param(["compress", "--tokens-low", "99999999999999999999x1"], 3, id="tokens-low=1e20x1"),
    pytest.param(["synth", "--noise", "inf"], 3, id="noise=inf"),
    pytest.param(["needle", "--depths", "nan"], 3, id="depths=nan"),
    pytest.param(["report", "--corpus-size", "0"], 3, id="corpus-size=0"),
    # Frame arrays no array can hold are refused before anything is drawn.
    pytest.param(["synth", "--frames", str(2**63)], 3, id="frames=2^63"),
    pytest.param(["synth", "--frames", HUGE], 3, id="frames=1e22"),
    pytest.param(["synth", "--dim", str(2**63)], 3, id="dim=2^63"),
    pytest.param(["synth", "--dim", HUGE], 3, id="dim=1e22"),
    pytest.param(["needle", "--frame-counts", HUGE], 3, id="frame-counts=1e22"),
]


@pytest.mark.parametrize("argv, expected", NO_EXIT_ONE)
def test_no_command_exits_one(tmp_path, video_file, query_file, capsys, argv, expected):
    """Out-of-range values end with a documented exit code: an exception
    escaping ``main`` would exit 1 with a traceback. Compress runs over
    budget at 300 tokens unless a case sets the context, so stage 3 plans
    its windows."""
    command, out = argv[0], str(tmp_path / "out")
    base = {
        "compress": ["--input", str(video_file), "--query", str(query_file),
                     "--output", out, "--context-length", "300"],
        "synth": ["--frames", "8", "--scenes", "1", "--grid", "4x4", "--dim", "8", "--out", out],
        "needle": ["--frame-counts", "40", "--grid", "4x4", "--dim", "8", "--tokens-low", "2x2",
                   "--report", out],
        "report": ["--out", out],
    }[command]
    code = main([command, *base, *argv[1:]])
    assert code == expected
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("error, expected", [
    (FileFormatError("truncated header"), 2),
    (OSError("unreadable"), 2),
    (InvalidConfigError("bad setting"), 3),
    (CompressionError("bad setting"), 3),
    (BudgetInfeasibleError(1, 0), 4),
    (MemoryError(), 2),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_each_error_class_maps_to_its_exit_code(tmp_path, monkeypatch, capsys, error, expected):
    def read_features(path):
        raise error

    monkeypatch.setattr(cli, "read_features", read_features)
    code = main(["compress", "--input", str(tmp_path / "in.lvuf"),
                 "--query", str(tmp_path / "q.lvuq"), "--output", str(tmp_path / "out.lvuc")])
    err = capsys.readouterr().err
    assert code == expected
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_errors_module_defines_one_family_per_exit_code():
    defined = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, Exception)}
    assert defined == {"CompressionError", "InvalidConfigError", "FileFormatError",
                       "BudgetInfeasibleError"}


BOUNDARY_VALUES = ["0", "-1", str(2**31), str(2**63), str(10**22), "nan", "inf", "-inf", "abc", "1e"]
COMPRESS_FLAGS = ["--context-length", "--tokens-low", "--window-j", "--window-k", "--theta",
                  "--tau-t", "--anchor", "--fpe", "--disable-stage"]


def exit_code(argv) -> int:
    """``main``'s exit code, counting an argparse rejection (SystemExit) as its code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestCompressBoundarySweep:
    """Every ``compress`` flag at the boundary values, and every header byte
    of both inputs flipped or cut, end with a documented exit code and no
    traceback."""

    def run(self, tmp_path, capsys, video, query, extra=()):
        code = exit_code(["compress", "--input", str(video), "--query", str(query),
                          "--output", str(tmp_path / "out.lvuc"), "--context-length", "300",
                          *extra])
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4) and "Traceback" not in err, (extra, code, err)
        return code

    @pytest.mark.parametrize("flag", COMPRESS_FLAGS)
    def test_every_flag_at_every_boundary_value(self, tmp_path, video_file, query_file, capsys,
                                                flag):
        values = BOUNDARY_VALUES
        if flag == "--tokens-low":  # also as one side of a grid
            values = values + [f"{v}x2" for v in values] + [f"2x{v}" for v in values]
        codes = {self.run(tmp_path, capsys, video_file, query_file, (flag, v)) for v in values}
        assert codes - {0, 4}, codes  # the flag is checked: some value is refused

    @pytest.mark.parametrize("which, header", [("input", 28), ("query", 17)])
    def test_every_header_byte_flipped_or_cut(self, tmp_path, video_file, query_file, capsys,
                                              which, header):
        raw = (video_file if which == "input" else query_file).read_bytes()
        cases = [raw[:cut] for cut in range(header)]
        for i in range(header):
            for value in {0x00, 0xFF, raw[i] ^ 0x80, raw[i] ^ 0x01} - {raw[i]}:
                cases.append(raw[:i] + bytes([value]) + raw[i + 1 :])
        bad = tmp_path / "bad"
        for case in cases:
            bad.write_bytes(case)
            video, query = (bad, query_file) if which == "input" else (video_file, bad)
            assert self.run(tmp_path, capsys, video, query) == 2

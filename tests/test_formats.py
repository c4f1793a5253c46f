import os
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from vtcompress import (
    CompressionConfig,
    FileFormatError,
    FrameFeatureSequence,
    QueryEmbedding,
    SynthSpec,
    compress,
    gen_video,
    numerics,
    temporal,
)
from vtcompress.formats import (
    read_compressed,
    read_features,
    read_query,
    staged_write,
    write_compressed,
    write_features,
    write_query,
)
from vtcompress.tokens import CompressedTokenSequence, CompressionStats

from .conftest import assert_tokens_equal, packed_lvuc, random_query, random_sequence

FEATURE_HEADER = struct.Struct("<4sIIIIIB3s")
# 64 frames of 16 x 16 tokens of dim 256: a 16 MiB payload
LARGE_SHAPE = (64, 16, 16, 256)


def sample_stats():
    return CompressionStats(
        frames_in=10,
        frames_after_temporal=5,
        n_full_res=2,
        tokens_after_query=52,
        tokens_after_spatial=40,
        tokens_final=40,
        theta_effective=0.8,
        fallback_used=False,
        query_tokens=4,
        budget=128,
        temporal_keep_rate=0.5,
        query_reduction_rate=0.35,
        spatial_reduction_rate=0.23076923076923073,
        total_reduction_rate=0.75,
    )


def sample_compressed(rng, n=9, dim=5):
    return CompressedTokenSequence(
        frame_indices=rng.integers(0, 50, n),
        grid_rows=rng.integers(0, 12, n).astype(np.int32),
        grid_cols=rng.integers(0, 12, n).astype(np.int32),
        levels=rng.integers(0, 2, n).astype(np.uint8),
        vectors=rng.standard_normal((n, dim)).astype(np.float32),
    )


def traced_peak(fn, *args):
    """The result of fn(*args) and the peak bytes allocated while it ran."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def feature_bytes(frames) -> bytes:
    t, h, w, d = frames.shape
    return FEATURE_HEADER.pack(b"LVUF", 1, t, h, w, d, 0, b"\0\0\0") + frames.astype("<f4").tobytes()


def read_small(reader, path):
    """Call a reader that must reject the file; returns the peak bytes
    allocated while it ran."""

    def rejected():
        with pytest.raises(FileFormatError, match="truncated"):
            reader(path)

    return traced_peak(rejected)[1]


class TestFeatureFiles:
    def test_round_trip_bitwise(self, rng, tmp_path):
        seq = random_sequence(rng, 7, 3, 4, 6)
        path = tmp_path / "video.lvuf"
        write_features(path, seq)
        back = read_features(path)
        assert np.array_equal(back.frames, seq.frames)

    def test_file_size_arithmetic(self, rng, tmp_path):
        seq = random_sequence(rng, 5, 12, 12, 8)
        path = tmp_path / "video.lvuf"
        write_features(path, seq)
        assert path.stat().st_size == 28 + 5 * 12 * 12 * 8 * 4

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lvuf"
        path.write_bytes(b"NOPE" + b"\0" * 40)
        with pytest.raises(FileFormatError):
            read_features(path)

    def test_bad_version(self, rng, tmp_path):
        seq = random_sequence(rng, 2, 2, 2, 2)
        path = tmp_path / "video.lvuf"
        write_features(path, seq)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError):
            read_features(path)

    def test_truncated_payload(self, rng, tmp_path):
        seq = random_sequence(rng, 2, 2, 2, 2)
        path = tmp_path / "video.lvuf"
        write_features(path, seq)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FileFormatError):
            read_features(path)

    def test_trailing_bytes(self, rng, tmp_path):
        seq = random_sequence(rng, 2, 2, 2, 2)
        path = tmp_path / "video.lvuf"
        write_features(path, seq)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FileFormatError):
            read_features(path)

    def test_non_finite_payload(self, rng, tmp_path):
        seq = random_sequence(rng, 2, 2, 2, 2)
        path = tmp_path / "video.lvuf"
        write_features(path, seq)
        raw = bytearray(path.read_bytes())
        raw[28:32] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError):
            read_features(path)

    def test_infinities_in_the_last_worker_range(self, rng, tmp_path, monkeypatch):
        # +inf and -inf in one frame of the last worker's range sum to NaN
        # there; the read still fails as a format error, with no warning
        monkeypatch.setattr(temporal, "_means_workers", lambda n_values: 3)
        seq = random_sequence(rng, 9, 2, 2, 2)
        path = tmp_path / "video.lvuf"
        write_features(path, seq)
        raw = bytearray(path.read_bytes())
        frame = 28 + 8 * (2 * 2 * 2) * 4  # frame 8 of 9: the header, then 2x2x2 floats a frame
        raw[frame : frame + 4] = struct.pack("<f", float("inf"))
        raw[frame + 8 : frame + 12] = struct.pack("<f", float("-inf"))
        path.write_bytes(bytes(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FileFormatError, match="non-finite"):
                read_features(path)

    def test_zero_frame_header_rejected(self, tmp_path):
        path = tmp_path / "empty.lvuf"
        header = struct.pack("<4sIIIIIB3s", b"LVUF", 1, 0, 2, 2, 2, 0, b"\0\0\0")
        path.write_bytes(header)
        with pytest.raises(FileFormatError):
            read_features(path)

    @pytest.mark.parametrize("dims", [(4096, 12, 12, 4096), (65535, 65535, 65535, 65535)])
    def test_oversized_header_rejected_before_allocating(self, tmp_path, dims):
        # a 100-byte file whose header claims gigabytes (or more than fits
        # in a size_t) must fail as a format error, not MemoryError/OverflowError
        path = tmp_path / "huge.lvuf"
        header = struct.pack("<4sIIIIIB3s", b"LVUF", 1, *dims, 0, b"\0\0\0")
        path.write_bytes(header + b"\0" * (100 - len(header)))
        with pytest.raises(FileFormatError, match="truncated"):
            read_features(path)


class TestFeatureWrites:
    def test_bytes_equal_header_then_payload(self, rng, tmp_path):
        seq = random_sequence(rng, 5, 3, 4, 6)
        path = tmp_path / "video.lvuf"
        write_features(path, seq)
        assert path.read_bytes() == feature_bytes(seq.frames)

    def test_non_contiguous_stack_round_trips(self, rng, tmp_path):
        # every other frame of a Fortran-ordered stack, each frame mirrored
        view = np.asfortranarray(rng.standard_normal((8, 4, 5, 6)).astype(np.float32))[::2, :, ::-1]
        seq = FrameFeatureSequence(view)
        assert not seq.frames.flags.c_contiguous
        path = tmp_path / "video.lvuf"
        write_features(path, seq)
        assert path.read_bytes() == feature_bytes(view)
        assert np.array_equal(read_features(path).frames, view)

    def test_payload_is_written_without_a_copy(self, rng, tmp_path):
        seq = FrameFeatureSequence(rng.standard_normal(LARGE_SHAPE, dtype=np.float32))
        assert seq.frames.nbytes >= 16 << 20
        _, peak = traced_peak(write_features, tmp_path / "video.lvuf", seq)
        assert peak < 1 << 20


class TestMappedFeatures:
    def test_read_allocates_a_fraction_of_the_payload(self, rng, tmp_path):
        frames = rng.standard_normal(LARGE_SHAPE, dtype=np.float32)
        path = tmp_path / "video.lvuf"
        write_features(path, FrameFeatureSequence(frames))
        seq, peak = traced_peak(read_features, path)
        assert np.array_equal(seq.frames, frames)
        assert peak < frames.nbytes / 8

    def test_sequence_outlives_replace_and_unlink(self, rng, tmp_path):
        path = tmp_path / "video.lvuf"
        write_features(path, gen_video(SynthSpec(n_frames=120, n_scenes=3, dim=16, seed=5)))
        seq = read_features(path)
        frames, means = seq.frames.tobytes(), seq.means.tobytes()
        query = random_query(rng, 4, 16)
        cfg = CompressionConfig(l_max=2048)
        write_compressed(tmp_path / "before.lvuc", *compress(seq, query, cfg))

        write_features(path, gen_video(SynthSpec(n_frames=120, n_scenes=3, dim=16, seed=6)))
        assert seq.frames.tobytes() == frames and seq.means.tobytes() == means
        path.unlink()
        assert seq.frames.tobytes() == frames and seq.means.tobytes() == means
        write_compressed(tmp_path / "after.lvuc", *compress(seq, query, cfg))
        assert (tmp_path / "after.lvuc").read_bytes() == (tmp_path / "before.lvuc").read_bytes()

    def test_frames_cannot_be_written(self, rng, tmp_path):
        path = tmp_path / "video.lvuf"
        write_features(path, random_sequence(rng, 3, 2, 2, 4))
        before = path.read_bytes()
        seq = read_features(path)
        with pytest.raises(ValueError):
            seq.frames[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            seq.frames.flags.writeable = True
        assert path.read_bytes() == before

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
    def test_dropped_sequences_release_their_descriptors(self, rng, tmp_path):
        path = tmp_path / "video.lvuf"
        write_features(path, random_sequence(rng, 3, 2, 2, 4))
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(200):
            read_features(path)
        assert len(os.listdir("/proc/self/fd")) == before


class TestQueryFiles:
    def test_round_trip_bitwise(self, rng, tmp_path):
        query = QueryEmbedding(rng.standard_normal((6, 9)).astype(np.float32))
        path = tmp_path / "q.lvuq"
        write_query(path, query)
        back = read_query(path)
        assert np.array_equal(back.rows, query.rows)

    def test_header_size(self, rng, tmp_path):
        query = QueryEmbedding(rng.standard_normal((3, 4)).astype(np.float32))
        path = tmp_path / "q.lvuq"
        write_query(path, query)
        assert path.stat().st_size == 17 + 3 * 4 * 4

    def test_wrong_magic(self, rng, tmp_path):
        path = tmp_path / "q.lvuq"
        path.write_bytes(b"LVUF" + b"\0" * 20)
        with pytest.raises(FileFormatError):
            read_query(path)

    def test_oversized_header_rejected_before_allocating(self, tmp_path):
        # 117 bytes whose header claims 65535 x 65535 floats (17 GB)
        path = tmp_path / "huge.lvuq"
        path.write_bytes(struct.pack("<4sIIIB", b"LVUQ", 1, 65535, 65535, 0) + b"\0" * 100)
        assert read_small(read_query, path) < 1 << 20

    def test_non_finite_payload(self, rng, tmp_path):
        path = tmp_path / "q.lvuq"
        write_query(path, QueryEmbedding(rng.standard_normal((3, 4)).astype(np.float32)))
        raw = bytearray(path.read_bytes())
        raw[-4:] = struct.pack("<f", float("inf"))
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="non-finite"):
            read_query(path)

    def test_rows_are_copied_out_of_the_file(self, rng, tmp_path):
        # The payload is mapped, but the rows own a copy: the file may be
        # rewritten, truncated or replaced while they are in use.
        query = QueryEmbedding(rng.standard_normal((5, 7)).astype(np.float32))
        path = tmp_path / "q.lvuq"
        write_query(path, query)
        back = read_query(path)
        assert back.rows.flags.owndata and back.rows.base is None
        with open(path, "r+b") as fh:  # the inode that was read
            fh.seek(17)
            fh.write(b"\0" * 5 * 7 * 4)
            fh.truncate(17)
        assert np.array_equal(back.rows, query.rows)
        write_query(path, QueryEmbedding(rng.standard_normal((5, 7)).astype(np.float32)))
        path.write_bytes(path.read_bytes()[:17])
        assert np.array_equal(back.rows, query.rows)


class TestCompressedFiles:
    def test_oversized_record_count_rejected_before_allocating(self, tmp_path):
        # a header claiming 2**32 - 1 records of dim 4 (124 GB) in a 100-byte file
        path = tmp_path / "huge.lvuc"
        path.write_bytes(struct.pack("<4sIII", b"LVUC", 1, 2**32 - 1, 4) + b"\0" * 84)
        assert read_small(read_compressed, path) < 1 << 20

    def test_oversized_stats_length_rejected_before_allocating(self, rng, tmp_path):
        path = tmp_path / "c.lvuc"
        write_compressed(path, sample_compressed(rng), sample_stats())
        raw = bytearray(path.read_bytes())
        blob_len = struct.unpack("<I", raw[16 + 9 * 33 : 16 + 9 * 33 + 4])[0]
        assert len(raw) == 16 + 9 * 33 + 4 + blob_len
        raw[16 + 9 * 33 : 16 + 9 * 33 + 4] = struct.pack("<I", 2**32 - 1)
        path.write_bytes(bytes(raw))
        assert read_small(read_compressed, path) < 1 << 20

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("d", [536_870_909, 2**29, 2**32 - 1])
    def test_record_too_wide_for_numpy_rejected(self, tmp_path, n, d):
        # 13 + 4*d bytes exceeds the largest dtype numpy can build; at
        # d = 536,870,908 the record still fits and a later check refuses it
        path = tmp_path / "wide.lvuc"
        path.write_bytes(struct.pack("<4sIII", b"LVUC", 1, n, d) + b"\0" * 84)
        with pytest.raises(FileFormatError, match=f"vector dim {d} makes a record too large"):
            read_compressed(path)
        path.write_bytes(struct.pack("<4sIII", b"LVUC", 1, n, 536_870_908) + b"\0" * 84)
        with pytest.raises(FileFormatError) as refused:
            read_compressed(path)
        assert "too large" not in str(refused.value)

    def test_every_flipped_or_truncated_byte_reads_or_is_refused(self, rng, tmp_path):
        # Each byte set to 0x00 and 0xFF and with its top and bottom bit
        # flipped, and the file cut at every length: the reader returns or
        # raises FileFormatError, nothing else.
        path = tmp_path / "c.lvuc"
        write_compressed(path, sample_compressed(rng, n=6, dim=3), sample_stats())
        raw = path.read_bytes()
        cases = [raw[:cut] for cut in range(len(raw))]
        for i, byte in enumerate(raw):
            for value in {0x00, 0xFF, byte ^ 0x80, byte ^ 0x01} - {byte}:
                cases.append(raw[:i] + bytes([value]) + raw[i + 1 :])
        read = 0
        for case in cases:
            path.write_bytes(case)
            try:
                read_compressed(path)
                read += 1
            except FileFormatError:
                pass
        assert 0 < read < len(cases)

    def test_round_trip_bitwise(self, rng, tmp_path):
        seq = sample_compressed(rng)
        stats = sample_stats()
        path = tmp_path / "out.lvuc"
        write_compressed(path, seq, stats)
        back_seq, back_stats = read_compressed(path)
        assert_tokens_equal(back_seq, seq)
        assert back_stats == stats

    def test_read_holds_the_records_once(self, rng, tmp_path):
        # an hour-sized output: 16,360 tokens of dim 64, about 4.2 MB
        seq = sample_compressed(rng, n=16_360, dim=64)
        path = tmp_path / "out.lvuc"
        write_compressed(path, seq, sample_stats())
        (back_seq, _), peak = traced_peak(read_compressed, path)
        assert_tokens_equal(back_seq, seq)
        assert peak < 1.25 * path.stat().st_size

    @pytest.mark.parametrize("chunk", [None, 1, 3])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_bytes_match_the_packed_layout_at_every_chunk_edge(
        self, rng, tmp_path, monkeypatch, chunk, offset
    ):
        # Records are written in chunks of ``chunk`` records (the default
        # 1 MiB of working bytes with None); n = 0, 1, chunk - 1, chunk and
        # chunk + 1.
        dim = 5
        record = 13 + 4 * dim
        if chunk is not None:
            monkeypatch.setattr(numerics, "WORK_BYTES", chunk * record)
        records = numerics.WORK_BYTES // record
        for n in {0, 1, records + offset}:
            seq = sample_compressed(rng, n=n, dim=dim)
            path = tmp_path / "out.lvuc"
            write_compressed(path, seq, sample_stats())
            assert path.read_bytes() == packed_lvuc(seq, sample_stats()), n

    def test_write_holds_one_chunk_of_records(self, rng, tmp_path):
        # an hour-sized output: 16,360 tokens of dim 64, 4.4 MB of records
        seq = sample_compressed(rng, n=16_360, dim=64)
        path = tmp_path / "out.lvuc"
        _, peak = traced_peak(write_compressed, path, seq, sample_stats())
        assert path.read_bytes() == packed_lvuc(seq, sample_stats())
        assert peak < 2 * 2**20, peak

    def test_record_layout_size(self, rng, tmp_path):
        seq = sample_compressed(rng, n=4, dim=3)
        path = tmp_path / "out.lvuc"
        write_compressed(path, seq, sample_stats())
        stats_len = len(
            __import__("json").dumps(sample_stats().to_dict(), sort_keys=True,
                                     separators=(",", ":")).encode()
        )
        assert path.stat().st_size == 16 + 4 * (13 + 3 * 4) + 4 + stats_len

    def test_unknown_level_code(self, rng, tmp_path):
        seq = sample_compressed(rng, n=1, dim=2)
        path = tmp_path / "out.lvuc"
        write_compressed(path, seq, sample_stats())
        raw = bytearray(path.read_bytes())
        raw[16 + 12] = 7  # level byte of the first record
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError):
            read_compressed(path)

    def test_unknown_level_code_not_written(self, rng, tmp_path):
        seq = sample_compressed(rng, n=2, dim=2)
        seq.levels[:] = [0, 2]
        with pytest.raises(FileFormatError, match="level"):
            write_compressed(tmp_path / "out.lvuc", seq, sample_stats())
        assert list(tmp_path.iterdir()) == []

    def test_timestep_other_than_frame_index_rejected(self, rng, tmp_path):
        seq = sample_compressed(rng, n=1, dim=2)
        path = tmp_path / "out.lvuc"
        write_compressed(path, seq, sample_stats())
        raw = bytearray(path.read_bytes())
        assert struct.unpack("<f", raw[16 + 4 : 16 + 8])[0] == seq.frame_indices[0]
        raw[16 + 4 : 16 + 8] = struct.pack("<f", seq.frame_indices[0] + 0.5)
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError):
            read_compressed(path)

    def test_corrupt_stats_blob(self, rng, tmp_path):
        seq = sample_compressed(rng, n=1, dim=2)
        path = tmp_path / "out.lvuc"
        write_compressed(path, seq, sample_stats())
        path.write_bytes(path.read_bytes()[:-1])  # truncate the json blob
        with pytest.raises(FileFormatError):
            read_compressed(path)

    def test_grid_coordinate_overflow_rejected(self, rng, tmp_path):
        seq = sample_compressed(rng, n=1, dim=2)
        seq.grid_rows[0] = 70000
        with pytest.raises(FileFormatError):
            write_compressed(tmp_path / "out.lvuc", seq, sample_stats())

    @pytest.mark.parametrize("field", ["grid_rows", "grid_cols"])
    def test_negative_grid_coordinate_rejected(self, rng, tmp_path, field):
        # u16 would wrap -1 to 65535 without a word
        seq = sample_compressed(rng, n=2, dim=2)
        getattr(seq, field)[1] = -1
        with pytest.raises(FileFormatError):
            write_compressed(tmp_path / "out.lvuc", seq, sample_stats())
        assert list(tmp_path.iterdir()) == []

    def test_empty_token_list_round_trips(self, tmp_path):
        seq = CompressedTokenSequence(
            frame_indices=np.zeros(0, dtype=np.int64),
            grid_rows=np.zeros(0, dtype=np.int32),
            grid_cols=np.zeros(0, dtype=np.int32),
            levels=np.zeros(0, dtype=np.uint8),
            vectors=np.zeros((0, 4), dtype=np.float32),
        )
        path = tmp_path / "empty.lvuc"
        write_compressed(path, seq, sample_stats())
        back, _ = read_compressed(path)
        assert back.total_count == 0 and back.dim == 4


class TestAtomicity:
    def test_no_temp_files_left_behind(self, rng, tmp_path):
        seq = random_sequence(rng, 2, 2, 2, 2)
        write_features(tmp_path / "a.lvuf", seq)
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_write_to_missing_directory_fails_cleanly(self, rng, tmp_path):
        seq = random_sequence(rng, 2, 2, 2, 2)
        with pytest.raises(FileNotFoundError):
            write_features(tmp_path / "nope" / "a.lvuf", seq)

    def test_staged_write_replaces_only_after_the_block(self, tmp_path):
        target = tmp_path / "t.bin"
        target.write_bytes(b"old")
        with staged_write(target, [b"ne", b"w"]):
            assert target.read_bytes() == b"old"
            assert len(list(tmp_path.glob("*.tmp"))) == 1
        assert target.read_bytes() == b"new"
        with pytest.raises(RuntimeError):
            with staged_write(target, [b"newer"]):
                raise RuntimeError("the block failed")
        assert target.read_bytes() == b"new"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.bin"]

    def test_staged_write_writes_each_part_before_drawing_the_next(self, tmp_path):
        # A generator may reuse one buffer for every part it yields.
        buffer = bytearray(2)

        def parts():
            for chunk in (b"ab", b"cd", b"ef"):
                buffer[:] = chunk
                yield buffer

        with staged_write(tmp_path / "t.bin", parts()):
            pass
        assert (tmp_path / "t.bin").read_bytes() == b"abcdef"

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "t.bin"
        target.write_bytes(b"old")

        def refuse(src, dst):
            raise PermissionError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(PermissionError):
            with staged_write(target, [b"new"]):
                assert len(list(tmp_path.glob("*.tmp"))) == 1
        assert target.read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.bin"]

    def test_staged_write_refuses_a_directory_before_the_block(self, tmp_path):
        (tmp_path / "d").mkdir()
        ran = []
        with pytest.raises(IsADirectoryError):
            with staged_write(tmp_path / "d", [b"x"]):
                ran.append(True)
        assert ran == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]

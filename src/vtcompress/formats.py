"""Bit-exact binary containers for feature, query, and compressed-token files.

All integers and floats are little-endian regardless of platform, so a file
written anywhere parses anywhere. Writes stream their parts, in order, into a
temp file and then rename it over the target; no part is joined to another
first. LVUC token records are built and written in chunks of at most
``numerics.WORK_BYTES``, so no array of every record is built.

Both float32 payloads are mapped read-only, after the header and the file
size are checked, as exactly the header plus the payload. ``read_query``
copies its rows out, so no query mapping outlives the call; the sequence
``read_features`` returns views its mapping, and stays valid when its file
is replaced by a rename (as every writer here does) or unlinked. Truncating
or rewriting the file in place while the sequence is alive is undefined, as
for ``numpy.load(mmap_mode="r")``: a truncation can end the process with SIGBUS.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import secrets
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import FileFormatError
from .numerics import per_chunk
from .query_select import QueryEmbedding
from .temporal import FrameFeatureSequence
from .tokens import LEVEL_CODE, CompressedTokenSequence, CompressionStats

__all__ = [
    "write_features",
    "read_features",
    "write_query",
    "read_query",
    "write_compressed",
    "read_compressed",
]

FEATURE_MAGIC = b"LVUF"
QUERY_MAGIC = b"LVUQ"
COMPRESSED_MAGIC = b"LVUC"
FORMAT_VERSION = 1
DTYPE_F32_LE = 0

_FEATURE_HEADER = struct.Struct("<4sIIIIIB3s")
_QUERY_HEADER = struct.Struct("<4sIIIB")
_COMPRESSED_HEADER = struct.Struct("<4sIII")
_U32 = struct.Struct("<I")


@contextmanager
def staged_write(path, parts):
    """Write ``parts``, an iterable of bytes-like objects, in order to a temp
    file of a fixed-length name beside ``path`` now; rename it over ``path``
    when the block exits cleanly, and delete it when the block or the rename
    raises. Each part is written before the next is drawn, so a generator
    may reuse one buffer for every part it yields. A directory at ``path``
    is refused before anything is written, so that the rename cannot fail
    on it. The temp file is created like any new file, 0o666 less the umask,
    and the rename keeps that mode."""
    path = Path(path)
    if path.is_dir():
        raise IsADirectoryError(f"cannot replace directory {str(path)!r}")
    tmp = path.with_name(f"vtcompress-{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part)
        yield
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path, parts):
    with staged_write(path, parts):
        pass


def _check_remaining(fh, n: int, what: str) -> int:
    """Check that at least n bytes remain in the file before anything is
    allocated for them; returns the bytes remaining."""
    available = os.fstat(fh.fileno()).st_size - fh.tell()
    if available < n:
        raise FileFormatError(f"truncated file: expected {n} bytes of {what}, got {available}")
    return available


def _f32_bytes(arr) -> memoryview:
    """The bytes of ``arr`` as little-endian float32, copied only when it is
    not already a contiguous array of that type."""
    return memoryview(np.ascontiguousarray(arr, dtype="<f4")).cast("B")


def _read_exact(fh, n: int, what: str) -> bytes:
    _check_remaining(fh, n, what)
    data = fh.read(n)
    if len(data) != n:
        raise FileFormatError(f"truncated file: expected {n} bytes of {what}, got {len(data)}")
    return data


def _map_payload(fh, shape: tuple[int, ...], what: str) -> np.ndarray:
    """The rest of the file, which must be exactly a little-endian float32
    array of the given shape, as a read-only view of a mapping of the header
    plus the payload. The size is checked before anything is mapped."""
    count = math.prod(shape)
    if _check_remaining(fh, count * 4, what) > count * 4:
        raise FileFormatError(f"trailing bytes after {what}")
    offset = fh.tell()
    try:
        mapped = mmap.mmap(fh.fileno(), offset + count * 4, access=mmap.ACCESS_READ)
    except ValueError:  # mmap checks the size again, and it has shrunk
        raise FileFormatError(f"file shrank while its {what} was mapped") from None
    return np.frombuffer(mapped, dtype="<f4", count=count, offset=offset).reshape(shape)


def _check_header(magic: bytes, expected: bytes, version: int, dtype: int | None):
    if magic != expected:
        raise FileFormatError(f"bad magic {magic!r}, expected {expected!r}")
    if version != FORMAT_VERSION:
        raise FileFormatError(f"unsupported version {version}, expected {FORMAT_VERSION}")
    if dtype is not None and dtype != DTYPE_F32_LE:
        raise FileFormatError(f"unsupported dtype code {dtype}")


def write_features(path, seq: FrameFeatureSequence):
    """Serialize a frame sequence. The file stores no timesteps: a frame's
    timestep is its index (one frame per second from zero)."""
    t, h, w, d = seq.frames.shape
    header = _FEATURE_HEADER.pack(FEATURE_MAGIC, FORMAT_VERSION, t, h, w, d, DTYPE_F32_LE, b"\0\0\0")
    _atomic_write(path, (header, _f32_bytes(seq.frames)))


def read_features(path) -> FrameFeatureSequence:
    """A sequence whose ``frames`` view a read-only mapping of the file's
    payload; see the module docstring for what that asks of the file."""
    with open(path, "rb") as fh:
        magic, version, t, h, w, d, dtype, reserved = _FEATURE_HEADER.unpack(
            _read_exact(fh, _FEATURE_HEADER.size, "feature header")
        )
        _check_header(magic, FEATURE_MAGIC, version, dtype)
        if reserved != b"\0\0\0":
            raise FileFormatError("reserved header bytes must be zero")
        if min(t, h, w, d) < 1:
            raise FileFormatError(f"degenerate dimensions t={t} h={h} w={w} d={d}")
        frames = _map_payload(fh, (t, h, w, d), "feature payload")
    try:  # the header fixes the shape, so only the finiteness check can fail
        return FrameFeatureSequence(frames)
    except ValueError as exc:
        raise FileFormatError(f"feature payload: {exc}") from None


def write_query(path, query: QueryEmbedding):
    l_q, d_q = query.rows.shape
    header = _QUERY_HEADER.pack(QUERY_MAGIC, FORMAT_VERSION, l_q, d_q, DTYPE_F32_LE)
    _atomic_write(path, (header, _f32_bytes(query.rows)))


def read_query(path) -> QueryEmbedding:
    with open(path, "rb") as fh:
        magic, version, l_q, d_q, dtype = _QUERY_HEADER.unpack(
            _read_exact(fh, _QUERY_HEADER.size, "query header")
        )
        _check_header(magic, QUERY_MAGIC, version, dtype)
        if min(l_q, d_q) < 1:
            raise FileFormatError(f"degenerate query shape {l_q}x{d_q}")
        rows = np.array(_map_payload(fh, (l_q, d_q), "query payload"))
    try:  # the header fixes the shape, so only the finiteness check can fail
        return QueryEmbedding(rows)
    except ValueError as exc:
        raise FileFormatError(f"query payload: {exc}") from None


def _stats_blob(stats: CompressionStats) -> bytes:
    return json.dumps(stats.to_dict(), sort_keys=True, separators=(",", ":")).encode("utf-8")


def _record_dtype(d: int) -> np.dtype:
    # Packed layout, 13 + 4*d bytes per record, all little-endian. numpy
    # holds a dtype's size in a C int, so a wider record cannot be built.
    if 13 + 4 * d > np.iinfo(np.intc).max:
        raise FileFormatError(f"vector dim {d} makes a record too large to hold")
    return np.dtype(
        [
            ("frame_index", "<u4"),
            ("timestep", "<f4"),
            ("grid_h", "<u2"),
            ("grid_w", "<u2"),
            ("level", "u1"),
            ("vector", "<f4", (d,)),
        ]
    )


def write_compressed(path, seq: CompressedTokenSequence, stats: CompressionStats):
    """Token records followed by a length-prefixed JSON stats blob. Each
    record's timestep field holds its frame index as float32."""
    n, d = seq.vectors.shape
    if n and (seq.frame_indices.max() >= 2**32 or seq.frame_indices.min() < 0):
        raise FileFormatError("frame index does not fit in u32")
    for coords in (seq.grid_rows, seq.grid_cols):
        if n and (coords.max() >= 2**16 or coords.min() < 0):
            raise FileFormatError("grid coordinate does not fit in u16")
    if n and seq.levels.max() > max(LEVEL_CODE.values()):
        raise FileFormatError("record has unknown level code")
    _atomic_write(path, _compressed_parts(seq, stats, _record_dtype(d)))


def _compressed_parts(seq: CompressedTokenSequence, stats: CompressionStats, dtype: np.dtype):
    """The parts of an LVUC file, in order: the header, the token records in
    chunks of as many as ``numerics.WORK_BYTES`` holds (``per_chunk``), the
    stats length and the stats blob. Every chunk is built in one reused
    buffer, so each must be written before the next is drawn."""
    n, d = seq.vectors.shape
    yield _COMPRESSED_HEADER.pack(COMPRESSED_MAGIC, FORMAT_VERSION, n, d)
    step = per_chunk(dtype.itemsize, n)
    buffer = np.empty(min(n, step), dtype=dtype)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        records = buffer[: hi - lo]
        records["frame_index"] = seq.frame_indices[lo:hi]
        records["timestep"] = seq.frame_indices[lo:hi].astype(np.float32)
        records["grid_h"] = seq.grid_rows[lo:hi]
        records["grid_w"] = seq.grid_cols[lo:hi]
        records["level"] = seq.levels[lo:hi]
        records["vector"] = seq.vectors[lo:hi]
        yield memoryview(records).cast("B")
    blob = _stats_blob(stats)
    yield _U32.pack(len(blob))
    yield blob


def read_compressed(path) -> tuple[CompressedTokenSequence, CompressionStats]:
    with open(path, "rb") as fh:
        magic, version, n, d = _COMPRESSED_HEADER.unpack(
            _read_exact(fh, _COMPRESSED_HEADER.size, "compressed header")
        )
        _check_header(magic, COMPRESSED_MAGIC, version, None)
        if d < 1:
            raise FileFormatError(f"degenerate vector dim {d}")
        dtype = _record_dtype(d)
        _check_remaining(fh, n * dtype.itemsize, "token records")
        records = np.empty(n, dtype=dtype)
        if fh.readinto(records) != records.nbytes:
            raise FileFormatError("file shrank while its token records were read")
        (blob_len,) = _U32.unpack(_read_exact(fh, 4, "stats length"))
        blob = _read_exact(fh, blob_len, "stats blob")
        if fh.read(1):
            raise FileFormatError("trailing bytes after stats blob")
    if n and records["level"].max() > max(LEVEL_CODE.values()):
        raise FileFormatError("record has unknown level code")
    timestep_bits = records["frame_index"].astype("<f4").view("<u4")
    if not np.array_equal(records["timestep"].view("<u4"), timestep_bits):
        raise FileFormatError("record timestep is not its frame index")
    try:
        stats = CompressionStats.from_dict(json.loads(blob.decode("utf-8")))
    except (ValueError, KeyError, TypeError) as exc:
        raise FileFormatError(f"stats blob is not valid: {exc}") from exc
    # The vectors and levels stay views of the records; only integers widen.
    seq = CompressedTokenSequence(
        frame_indices=records["frame_index"],
        grid_rows=records["grid_h"],
        grid_cols=records["grid_w"],
        levels=records["level"],
        vectors=records["vector"],
    )
    return seq, stats

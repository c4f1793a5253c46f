"""Short reference computations and output checks, written apart from the program.

Nothing here imports ``vtcompress``: the references restate the method from
its definition (windowed average-similarity keep rule, floor/ceil-bin mean
pooling in float64, the sinusoidal frame encoding, the LVUC byte layout), so
a fault in the program cannot hide by also being in the check.

``check_compress`` takes one operation's input frames and output tokens and
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

# Window geometry and thresholds of the default configuration.
J = 8
K = 8
TAU_T = 0.85
THETA = 0.8
THETA_LADDER = tuple(round(THETA - 0.05 * i, 10) for i in range(7))  # 0.8 ... 0.5
HIGH = (12, 12)
LOW = (8, 8)
FPE_BASE = 10000.0

# |sim - threshold| below this is a tie: either outcome is accepted.
TIE_EPS = 1e-6
# Token values are float32 results of float64 arithmetic.
VALUE_RTOL = 16 * float(np.finfo(np.float32).eps)
COS_TOL = 1e-6


@dataclass
class Tokens:
    """One output token stream as plain columns."""

    frame_indices: np.ndarray
    timesteps: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    levels: np.ndarray  # 0 full, 1 pooled
    vectors: np.ndarray

    @classmethod
    def of(cls, seq) -> "Tokens":
        return cls(
            np.asarray(seq.frame_indices),
            np.asarray(seq.timesteps),
            np.asarray(seq.grid_rows),
            np.asarray(seq.grid_cols),
            np.asarray(seq.levels),
            np.asarray(seq.vectors),
        )

    def copy(self) -> "Tokens":
        return Tokens(*(a.copy() for a in self.columns()))

    def columns(self):
        return (self.frame_indices, self.timesteps, self.rows, self.cols, self.levels, self.vectors)

    def digest_bytes(self) -> bytes:
        return b"".join(np.ascontiguousarray(a).tobytes() for a in self.columns())

    def __len__(self) -> int:
        return self.frame_indices.shape[0]


def parse_lvuc(payload: bytes) -> tuple[Tokens, dict]:
    """Decode an LVUC file: header, packed records of 13 + 4*d bytes, stats JSON."""
    magic, version, n, d = struct.unpack_from("<4sIII", payload, 0)
    if magic != b"LVUC" or version != 1:
        raise ValueError(f"not an LVUC v1 file: {magic!r} v{version}")
    rec = np.dtype(
        [("f", "<u4"), ("t", "<f4"), ("r", "<u2"), ("c", "<u2"), ("l", "u1"), ("v", "<f4", (d,))]
    )
    offset = 16
    records = np.frombuffer(payload, dtype=rec, count=n, offset=offset)
    offset += n * rec.itemsize
    (blob_len,) = struct.unpack_from("<I", payload, offset)
    blob = payload[offset + 4 : offset + 4 + blob_len]
    if offset + 4 + blob_len != len(payload):
        raise ValueError("trailing or missing bytes after the stats blob")
    tokens = Tokens(
        records["f"].astype(np.int64),
        records["t"].astype(np.float32),
        records["r"].astype(np.int32),
        records["c"].astype(np.int32),
        records["l"].copy(),
        records["v"].astype(np.float32).reshape(n, d),
    )
    return tokens, json.loads(blob)


def frame_summaries(frames: np.ndarray) -> np.ndarray:
    """Unit-norm mean token of each frame, float64."""
    means = frames.mean(axis=(1, 2), dtype=np.float64)
    return means / np.linalg.norm(means, axis=1, keepdims=True)


def temporal_keep(frames: np.ndarray, j: int = J, tau: float = TAU_T):
    """Windowed average-similarity rule.

    In each window of j frames, frame i keeps if its mean cosine to the other
    frames of the window is <= tau; if none does, the least similar frame
    (earliest on ties) keeps. Returns (kept, ties). A decision within TIE_EPS
    of a tie is left out of ``kept`` and listed in ``ties`` as a group: a
    group of one is a frame at the threshold, which may keep or not; a larger
    group holds the near-equal least similar frames of a window where none
    passes, exactly one of which keeps, the least similar first.
    """
    # Summaries are float32, as the method stores them; similarities are
    # taken in float64 after renormalising.
    unit = frame_summaries(frame_summaries(frames).astype(np.float32)[:, None, None, :])
    kept, ties = [], []
    for start in range(0, frames.shape[0], j):
        u = unit[start : start + j]
        if u.shape[0] == 1:
            kept.append(start)
            continue
        cos = u @ u.T
        sims = (cos.sum(axis=1) - np.diag(cos)) / (u.shape[0] - 1)
        low = sims.min()
        if low > tau + TIE_EPS:
            near = np.flatnonzero(sims <= low + TIE_EPS)
            group = [start + int(i) for i in near[np.argsort(sims[near], kind="stable")]]
            if len(group) == 1:
                kept += group
            else:
                ties.append(group)
            continue
        kept += [start + int(i) for i in np.flatnonzero(sims <= tau - TIE_EPS)]
        ties += [[start + int(i)] for i in np.flatnonzero(np.abs(sims - tau) < TIE_EPS)]
    return kept, ties


def bin_edges(size: int, out: int) -> list[tuple[int, int]]:
    """Bin p covers cells floor(p*size/out) .. ceil((p+1)*size/out) - 1."""
    return [((p * size) // out, -((-(p + 1) * size) // out)) for p in range(out)]


def pool_ref(frames: np.ndarray, out_h: int = LOW[0], out_w: int = LOW[1]) -> np.ndarray:
    """Floor/ceil-bin average pooling of (n, h, w, d) frames, in float64."""
    n, h, w, d = frames.shape
    out = np.empty((n, out_h, out_w, d), dtype=np.float64)
    for p, (r0, r1) in enumerate(bin_edges(h, out_h)):
        for q, (c0, c1) in enumerate(bin_edges(w, out_w)):
            out[:, p, q] = frames[:, r0:r1, c0:c1].mean(axis=(1, 2), dtype=np.float64)
    return out


def sinusoid(t: np.ndarray, dim: int, base: float = FPE_BASE) -> np.ndarray:
    """Entry 2i = sin(t / base^(2i/dim)), entry 2i+1 = cos of the same angle."""
    t = np.asarray(t, dtype=np.float64)[:, None]
    i = np.arange(dim)
    angle = t / base ** ((i - i % 2) / dim)
    return np.where(i % 2 == 0, np.sin(angle), np.cos(angle))


def anchor_candidates(pooled_window: np.ndarray, strategy: str) -> list[int]:
    """Anchor position(s) a window may have: one, or several on a near tie."""
    n = pooled_window.shape[0]
    if strategy == "first" or n == 1:
        return [0]
    if strategy == "middle":
        return [n // 2]
    unit = frame_summaries(pooled_window)
    change = np.einsum("id,id->i", unit[1:], unit[:-1])
    return [1 + int(i) for i in np.flatnonzero(change <= change.min() + TIE_EPS)]


def _cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("nd,nd->n", a, b) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))


def check_compress(
    frames: np.ndarray,
    l_q: int,
    out: Tokens | None,
    stats: dict,
    *,
    l_max: int,
    anchor: str = "first",
    fpe: bool = False,
    needle_index: int | None = None,
) -> list[str]:
    """Check one compress result against the references.

    ``frames`` is the (t, 12, 12, d) float32 input, ``out`` the output tokens,
    or None for a budget-infeasible verdict, and ``stats`` the run's stats
    dict. Returns the problems found; an empty list means correct.
    """
    problems: list[str] = []
    budget = l_max - l_q
    hw_hi, hw_lo = HIGH[0] * HIGH[1], LOW[0] * LOW[1]

    kept, ties = temporal_keep(frames)
    if ties:
        # Either outcome of a tie is correct: take the one the output shows.
        # A tie frame kept but then pruned away entirely cannot be seen, so
        # the stats' frame count must agree.
        present = set() if out is None else set(np.unique(out.frame_indices).tolist())
        for group in ties:
            shown = [f for f in group if f in present]
            if len(group) > 1:
                kept.append(shown[0] if shown else group[0])
            elif shown:
                kept.append(group[0])
        kept.sort()
    t = len(kept)
    if stats.get("frames_after_temporal") != t:
        problems.append(f"frames_after_temporal {stats.get('frames_after_temporal')} != reference {t}")
    if stats.get("frames_in") != frames.shape[0]:
        problems.append("frames_in does not match the input")

    full_fit = t * hw_hi + l_q <= l_max
    n_full = t if full_fit else min(t, max(0, (budget - t * hw_lo) // (hw_hi - hw_lo)))
    stage3 = n_full == 0 and t * hw_lo > budget
    anchor_tokens = math.ceil(t / K) * hw_lo
    if out is None:
        if not (stage3 and anchor_tokens > budget):
            problems.append(f"infeasible verdict, but ceil({t}/{K})*{hw_lo} fits the budget {budget}")
        return problems
    if stage3 and anchor_tokens > budget:
        return problems + [f"output produced, but the anchors need {anchor_tokens} > {budget}"]

    n = len(out)
    if not 1 <= n <= budget:
        problems.append(f"{n} tokens, budget is l_max - l_q = {budget}")
    if stats.get("tokens_final") != n:
        problems.append(f"tokens_final {stats.get('tokens_final')} != {n} tokens")

    # Order is (timestep, row, col), strictly increasing; timestep is the frame index.
    if not np.array_equal(out.timesteps.astype(np.float64), out.frame_indices.astype(np.float64)):
        problems.append("timesteps differ from frame indices")
    key = (out.frame_indices * 4096 + out.rows) * 4096 + out.cols
    if n > 1 and not (np.diff(key) > 0).all():
        return problems + ["tokens not in (timestep, row, col) order"]
    kept_pos = {f: i for i, f in enumerate(kept)}
    unknown = set(np.unique(out.frame_indices).tolist()) - set(kept_pos)
    if unknown:
        return problems + [f"frames {sorted(unknown)[:5]} dropped by the reference rule appear"]
    pos = np.array([kept_pos[f] for f in out.frame_indices.tolist()], dtype=np.int64)
    full = out.levels == 0
    grid = np.where(full, HIGH[0], LOW[0])[:, None], np.where(full, HIGH[1], LOW[1])[:, None]
    if (out.rows[:, None] >= grid[0]).any() or (out.cols[:, None] >= grid[1]).any():
        return problems + ["token position outside its frame's grid"]

    # Frame levels and token counts follow the budget formula; only the
    # spatial stage (n_full == 0 and over budget) drops tokens.
    full_count = np.bincount(pos[full], minlength=t)
    pooled_count = np.bincount(pos[~full], minlength=t)
    if ((full_count > 0) & (pooled_count > 0)).any():
        problems.append("a frame mixes full and pooled tokens")
    n_full_out = int((full_count > 0).sum())
    if n_full_out != n_full or stats.get("n_full_res") != n_full:
        problems.append(f"{n_full_out} full-resolution frames, the formula gives {n_full}")
    if (full_count[full_count > 0] != hw_hi).any():
        problems.append("a full-resolution frame lost tokens")
    if not stage3 and (pooled_count[pooled_count > 0] != hw_lo).any():
        problems.append("a pooled frame lost tokens although the budget was met without pruning")
    if not stage3 and n != n_full * hw_hi + (t - n_full) * hw_lo:
        problems.append("a kept frame is missing although the budget was met without pruning")
    if needle_index is not None and n_full >= 1:
        needle = out.levels[out.frame_indices == needle_index]
        if needle.size == 0 or (needle != 0).any():
            problems.append(f"needle frame {needle_index} not at full resolution")

    # Every token equals its source vector, plus the sinusoid under FPE.
    pooled = None if full_fit else pool_ref(frames[np.asarray(kept)])
    src = np.empty(out.vectors.shape, dtype=np.float64)
    src[full] = frames[out.frame_indices[full], out.rows[full], out.cols[full]]
    if pooled is not None:
        src[~full] = pooled[pos[~full], out.rows[~full], out.cols[~full]]
    if fpe:
        src += sinusoid(out.timesteps, frames.shape[3])
    bad = np.abs(out.vectors - src) > VALUE_RTOL * np.maximum(1.0, np.abs(src))
    if bad.any():
        problems.append(f"{int(bad.any(axis=1).sum())} tokens differ from their source vector")

    if stage3:
        problems += _check_pruning(pooled, pos, out, stats.get("theta_effective"), anchor)
    return problems


def _check_pruning(pooled: np.ndarray, pos, out: Tokens, theta, anchor: str) -> list[str]:
    """Each window of K kept frames has an anchor that keeps every position,
    and every other kept token has cosine <= theta_effective to the anchor
    token at the same position."""
    if theta not in THETA_LADDER:
        return [f"theta_effective {theta} is not on the ladder {THETA_LADDER}"]
    hw_lo = LOW[0] * LOW[1]
    per_frame = np.bincount(pos, minlength=pooled.shape[0])
    flat = pooled.reshape(pooled.shape[0], hw_lo, -1)
    cell = out.rows * LOW[1] + out.cols
    problems = []
    for start in range(0, pooled.shape[0], K):
        window = (pos >= start) & (pos < start + K)
        for a in anchor_candidates(pooled[start : start + K], anchor):
            others = window & (pos != start + a)
            cos = _cosine(flat[pos[others], cell[others]], flat[start + a, cell[others]])
            if per_frame[start + a] == hw_lo and (cos <= theta + COS_TOL).all():
                break
        else:
            problems.append(f"window at kept frame {start}: no whole anchor, or a cosine > {theta}")
    return problems

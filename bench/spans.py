"""Spans and counters recorded around calls into each layer's public functions.

The tracer patches the functions and methods named in ``LAYERS`` in every
``vtcompress`` module that holds them, so calls made between modules are
seen too; ``uninstall`` puts the originals back. Spans stay in memory and are
written out when the run ends. A span's self time is its duration minus the
time of the spans nested directly inside it.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
import tracemalloc
from collections import defaultdict

MB = 1024 * 1024

# (span name, module, attribute path). A method is patched on its class.
LAYERS = [
    ("formats.read_features", "vtcompress.formats", "read_features"),
    ("formats.write_compressed", "vtcompress.formats", "write_compressed"),
    ("temporal.reduce_frames", "vtcompress.temporal", "reduce_frames"),
    ("temporal.subset", "vtcompress.temporal", "FrameFeatureSequence.subset"),
    ("numerics.pool_batch", "vtcompress.numerics", "pool_batch"),
    ("query_select.select_and_pool", "vtcompress.query_select", "select_and_pool"),
    ("query_select.frame_query_scores", "vtcompress.query_select", "frame_query_scores"),
    ("spatial.build_plan", "vtcompress.spatial", "build_plan"),
    ("spatial.apply", "vtcompress.spatial", "PruningPlan.apply"),
    ("pipeline.enforce_budget", "vtcompress.pipeline", "enforce_budget"),
    ("pipeline.flatten", "vtcompress.pipeline", "flatten"),
    ("pipeline.compress", "vtcompress.pipeline", "compress"),
    ("framepos.apply_position_encoding", "vtcompress.framepos", "apply_position_encoding"),
    ("synthbench.gen_video", "vtcompress.synthbench", "gen_video"),
]
# Spans whose allocation peak is taken in the memory pass.
PEAK_SPANS = ("numerics.pool_batch", "spatial.build_plan")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, self seconds)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.count = defaultdict(float)
        self.peak_mb = defaultdict(float)
        self.memory = False  # take allocation peaks of PEAK_SPANS
        self._stack: list[list] = []  # [id, name, start, child seconds]
        self._ids = itertools.count()
        self._ladder_tokens = None
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        if name == "spatial.apply" and self._stack and self._stack[-1][1] == "pipeline.enforce_budget":
            name = "pipeline.ladder"
        peak = self.memory and name in PEAK_SPANS
        if peak:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        frame = [next(self._ids), name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[2]
            own = duration - frame[3]
            if self._stack:
                self._stack[-1][3] += duration
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append((frame[0], parent, name, frame[2], end, own))
            self.total[name] += duration
            self.self_time[name] += own
            self.count[name + ".calls"] += 1
            if peak:
                self.peak_mb[name] = max(
                    self.peak_mb[name], (tracemalloc.get_traced_memory()[1] - base) / MB
                )
        self._observe(name, args, result)
        return result

    def _observe(self, name, args, result):
        """Counters taken from a call's arguments and result."""
        c = self.count
        if name == "temporal.reduce_frames":
            c["temporal.frames_kept"] += result.n_kept
        elif name == "numerics.pool_batch":
            c["numerics.pool_batch.frames"] += args[0].shape[0]
        elif name == "query_select.select_and_pool":
            mixed, plan = result
            if plan.n_full_res < mixed.n_frames:  # pool_batch ran on every frame
                c["numerics.pooled_frames_used"] += mixed.n_frames - plan.n_full_res
        elif name == "pipeline.ladder":
            self._ladder_tokens = result.tokens_after
        elif name == "pipeline.enforce_budget":
            # Tokens left by the last ladder step (or the input) minus the output.
            before = self._ladder_tokens if self._ladder_tokens is not None else args[0].tokens_after
            c["pipeline.subsample.dropped_tokens"] += before - result[0].tokens_after
            self._ladder_tokens = None

    def snapshot(self) -> dict:
        return {"total": dict(self.total), "self": dict(self.self_time), "count": dict(self.count)}

    # -- patching ----------------------------------------------------------

    def install(self):
        for name, module, path in LAYERS:
            owner = sys.modules[module]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
            wrapper = self._wrap(name, original)
            if len(parts) > 1:  # a method: patch it on its class
                self._patch(owner, parts[-1], original, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("vtcompress") and getattr(mod, parts[-1], None) is original:
                    self._patch(mod, parts[-1], original, wrapper)
        grid = sys.modules["vtcompress.numerics"].TokenGrid
        post_init = grid.__post_init__

        def counted(obj):
            self.count["numerics.token_grids"] += 1
            post_init(obj)

        self._patch(grid, "__post_init__", post_init, counted)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return traced

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end, own in self.spans:
                fh.write(
                    json.dumps({"id": sid, "parent": parent, "name": name, "start": start,
                                "end": end, "self_s": own}) + "\n"
                )

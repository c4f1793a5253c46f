"""Command-line surface: compress, synth, needle, and report subcommands.

Exit codes: 0 success, 2 malformed input file (``FileFormatError``, an empty
array in a file included), a path that cannot be read or written (``OSError``)
or too little memory (``MemoryError``; like a full disk, a machine resource),
3 invalid configuration, 4 budget infeasible (anchors alone exceed the context
length). The configuration is checked before any input is read.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from contextlib import ExitStack, nullcontext
from pathlib import Path

from .errors import (
    BudgetInfeasibleError,
    CompressionError,
    FileFormatError,
    InvalidConfigError,
)
from .formats import read_features, read_query, staged_write, write_compressed, write_features
from .framepos import FramePositionConfig
from .pipeline import CompressionConfig, StageToggles, compress
from .spatial import AnchorStrategy
from .synthbench import (
    NeedleSpec,
    SynthSpec,
    ablation_report,
    gen_video,
    make_mixed_corpus,
    needle_study,
    reduction_report,
)

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_BAD_CONFIG = 3
EXIT_INFEASIBLE = 4

_ANCHOR_FLAGS = {"first": "first", "middle": "middle", "high-change": "high_change"}


def _parse_grid(text: str, flag: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise InvalidConfigError(f"{flag} expects HxW (e.g. 12x12), got {text!r}")
    try:
        h, w = int(parts[0]), int(parts[1])
    except ValueError:
        raise InvalidConfigError(f"{flag} expects integers HxW, got {text!r}") from None
    if h < 1 or w < 1:
        raise InvalidConfigError(f"{flag} dimensions must be positive, got {text!r}")
    return h, w


def _parse_list(text: str, flag: str, kind: type) -> list:
    """The comma-separated entries of ``text`` as ``kind`` (int or float)."""
    try:
        return [kind(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        what = "integers" if kind is int else "numbers"
        raise InvalidConfigError(f"{flag} expects comma-separated {what}, got {text!r}") from None


def _build_config(args) -> CompressionConfig:
    if not (0.0 < args.theta < 1.0):
        raise InvalidConfigError(f"--theta must be in (0, 1), got {args.theta}")
    if not (0.0 < args.tau_t <= 1.0):
        raise InvalidConfigError(f"--tau-t must be in (0, 1], got {args.tau_t}")
    if args.anchor not in _ANCHOR_FLAGS:
        raise InvalidConfigError(
            f"--anchor must be one of first, middle, high-change; got {args.anchor!r}"
        )
    if args.fpe not in ("on", "off"):
        raise InvalidConfigError(f"--fpe must be 'on' or 'off', got {args.fpe!r}")
    disabled = set(args.disable_stage or [])
    unknown = disabled - {"temporal", "query", "stc"}
    if unknown:
        raise InvalidConfigError(
            f"--disable-stage accepts temporal, query, stc; got {sorted(unknown)}"
        )
    cfg = CompressionConfig(
        l_max=args.context_length,
        tokens_low=_parse_grid(args.tokens_low, "--tokens-low"),
        j=args.window_j,
        k=args.window_k,
        theta=args.theta,
        tau_t=args.tau_t,
        anchor=AnchorStrategy(_ANCHOR_FLAGS[args.anchor]),
        fpe=FramePositionConfig(enabled=args.fpe == "on"),
        stages=StageToggles(
            temporal="temporal" not in disabled,
            query="query" not in disabled,
            stc="stc" not in disabled,
        ),
    )
    cfg.validate()
    return cfg


def _add_config_flags(p: argparse.ArgumentParser):
    cfg = CompressionConfig()
    p.add_argument("--context-length", type=int, default=cfg.l_max)
    p.add_argument("--tokens-low", default="x".join(map(str, cfg.tokens_low)))
    p.add_argument("--window-j", type=int, default=cfg.j)
    p.add_argument("--window-k", type=int, default=cfg.k)
    p.add_argument("--theta", type=float, default=cfg.theta)
    p.add_argument("--tau-t", type=float, default=cfg.tau_t)
    p.add_argument("--anchor", default=cfg.anchor.value.replace("_", "-"))
    p.add_argument("--fpe", default="on" if cfg.fpe.enabled else "off")
    p.add_argument("--disable-stage", action="append", default=[], metavar="STAGE")


def _check_distinct(*outputs: tuple[str, str | Path | None]):
    """Reject, before any work, two outputs that name one file: the second
    write would replace the first. Each output is (what, path); a None path
    is not written. Paths are compared once resolved, so ``./o`` and a
    symlink to ``o`` name ``o``; hard links are not detected."""
    seen = {}
    for what, path in outputs:
        if path is None:
            continue
        other = seen.setdefault(os.path.realpath(path), what)
        if other != what:
            raise InvalidConfigError(f"{other} and {what} name the same file: {path}")


def _write_all(*outputs: tuple[str | Path, bytes]):
    """Write each (path, bytes) output: all are staged before any is renamed
    into place, so an output that cannot be written replaces none."""
    with ExitStack() as stack:
        for path, data in outputs:
            stack.enter_context(staged_write(path, (data,)))


def _csv_bytes(header: list[str], rows: list[list]) -> bytes:
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue().encode("utf-8")


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")


def cmd_compress(args) -> int:
    cfg = _build_config(args)
    _check_distinct(("--output", args.output), ("--stats", args.stats))
    video = read_features(args.input)
    query = read_query(args.query)
    compressed, stats = compress(video, query, cfg)
    # The stats are staged first and renamed last, so a command that exits
    # non-zero has replaced neither file.
    with staged_write(args.stats, (_json_bytes(stats.to_dict()),)) if args.stats else nullcontext():
        write_compressed(args.output, compressed, stats)
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = SynthSpec(
        n_frames=args.frames,
        n_scenes=args.scenes,
        intra_scene_noise=args.noise,
        drift_scenes_fraction=args.drift_fraction,
        dim=args.dim,
        grid=_parse_grid(args.grid, "--grid"),
        seed=args.seed,
    )
    write_features(args.out, gen_video(spec))
    return EXIT_OK


def cmd_needle(args) -> int:
    """Budget-infeasible cells do not fail the grid: the JSON counts them in
    ``n_infeasible`` and takes its rates over the other cells, and their CSV
    rows have empty needle fields and ``tokens_final``."""
    cfg = _build_config(args)
    report = Path(args.report)
    _check_distinct(("--report", report), ("the aggregate JSON", report.with_suffix(".json")))
    spec = NeedleSpec(
        # Each cell sizes its own haystack from its frame count.
        haystack=SynthSpec(
            n_frames=1,
            n_scenes=1,
            dim=args.dim,
            grid=_parse_grid(args.grid, "--grid"),
            seed=args.seed,
        ),
        depths=_parse_list(args.depths, "--depths", float),
        frame_counts=_parse_list(args.frame_counts, "--frame-counts", int),
        query_alignment=args.alignment,
    )
    cells = needle_study(spec, [cfg])[0]

    header = [
        "frame_count",
        "depth",
        "needle_full_res",
        "needle_tokens_kept_fraction",
        "any_token_survives",
        "tokens_final",
    ]
    rows = [[c[key] for key in header] for c in cells]
    done = [c for c in cells if c["tokens_final"] is not None]

    def mean(key):
        return sum(c[key] for c in done) / len(done) if done else None

    aggregate = {
        "cells": len(cells),
        "n_infeasible": len(cells) - len(done),
        "full_res_rate": mean("needle_full_res"),
        "any_token_survival_rate": mean("any_token_survives"),
        "mean_tokens_kept_fraction": mean("needle_tokens_kept_fraction"),
    }
    _write_all(
        (report, _csv_bytes(header, rows)),
        (report.with_suffix(".json"), _json_bytes(aggregate)),
    )
    return EXIT_OK


def cmd_report(args) -> int:
    """Budget-infeasible videos do not fail the report: the JSON counts them
    in ``n_infeasible`` and their CSV rows have an empty ``tokens_final``."""
    cfg = _build_config(args)
    _check_distinct(("--out", args.out), ("--csv", args.csv))
    if args.corpus_size < 1:
        raise InvalidConfigError(f"--corpus-size must be positive, got {args.corpus_size}")
    corpus = make_mixed_corpus(args.corpus_size, args.seed)
    if args.anchor_ablation:
        per_video, aggregate, ablation = ablation_report(corpus, cfg)
        payload = dict(aggregate, anchor_ablation=ablation)
    else:
        per_video, aggregate = reduction_report(corpus, cfg)
        payload = dict(aggregate)
    outputs = [(args.out, _json_bytes(payload))]
    if args.csv:
        header = ["video", "frames_in", "frames_after_temporal", "temporal_keep_rate",
                  "spatial_reduction_rate", "tokens_final"]
        rows = [[i, *(getattr(s, key) for key in header[1:])] for i, s in enumerate(per_video)]
        outputs.append((args.csv, _csv_bytes(header, rows)))
    _write_all(*outputs)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call can share it."""
    parser = argparse.ArgumentParser(
        prog="vtcompress",
        description="Compress long-video token sequences under a fixed context length.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a feature file against a query file")
    p.add_argument("--input", required=True, help="LVUF feature file")
    p.add_argument("--query", required=True, help="LVUQ query embedding file")
    p.add_argument("--output", required=True, help="LVUC output file")
    p.add_argument("--stats", default=None, help="optional JSON stats path")
    _add_config_flags(p)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("synth", help="generate a synthetic LVUF feature file")
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--scenes", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.02)
    p.add_argument("--drift-fraction", type=float, default=0.3)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--grid", default="12x12")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("needle", help="run the needle-retention grid")
    p.add_argument("--frame-counts", default="200,400,800,1400,2000,3600")
    p.add_argument("--depths", default="0,0.25,0.5,0.75,1")
    p.add_argument("--alignment", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--grid", default="12x12")
    p.add_argument("--report", required=True, help="CSV path; aggregate JSON lands beside it")
    _add_config_flags(p)
    p.set_defaults(func=cmd_needle)

    p = sub.add_parser("report", help="reduction-rate distributions on a synthetic corpus")
    p.add_argument("--corpus-size", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="aggregate JSON path")
    p.add_argument("--csv", default=None, help="optional per-video CSV path")
    p.add_argument("--anchor-ablation", action="store_true",
                   help="also compare the three anchor strategies")
    _add_config_flags(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileFormatError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except BudgetInfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except CompressionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())

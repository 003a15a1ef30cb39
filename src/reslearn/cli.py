"""Command line front end.

Exit codes: 0 success, 1 config error, 2 data error or out of memory, 3
training failure or a dead worker process.
The default output directory can be set with RESLEARN_OUT_DIR.

Each command imports the modules it runs, and no others: at module level
this file loads only the standard library and `errors`, so `--help` and a
usage error load no numpy, `evaluate` loads neither the packet path nor the
config, and `eda` loads `seriesprep` alone.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    ConfigError,
    NonFiniteLoss,
    ResLearnError,
    SchemaMismatch,
    WorkerDied,
    read_text,
)

if TYPE_CHECKING:
    from .config import ExperimentConfig
    from .ingest import PacketTable

# One OpenBLAS thread per process, set before numpy loads: `run`, `train` and
# `evaluate` compute in worker processes, and more BLAS threads would only
# oversubscribe the CPUs. A user's own setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3     # mallopt options, from <malloc.h>
MALLOC_THRESHOLD = 256 << 20
MALLOC_VARS = ("GLIBC_TUNABLES", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")


def _keep_freed_memory() -> None:
    """Have glibc keep freed memory below 256 MiB in the heap. By default it
    maps a large block afresh on each allocation and gives the heap top back
    on each free, by a threshold that moves with the allocation history, so
    every training step page-faults its temporaries in again. Set here, before
    any worker is forked, so the workers inherit it; a user's own malloc
    settings win."""
    if sys.platform != "linux" or any(v in os.environ for v in MALLOC_VARS):
        return
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:            # glibc only
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(M_MMAP_THRESHOLD, MALLOC_THRESHOLD)
        mallopt(M_TRIM_THRESHOLD, MALLOC_THRESHOLD)


_keep_freed_memory()

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_TRAINING = 3


def _default_out() -> str:
    return os.environ.get("RESLEARN_OUT_DIR", "out")


def _add_packet_source(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group()
    source.add_argument("--pcap", help="classic pcap input file")
    source.add_argument("--csv", help="packet CSV input file (ts,length,direction)")
    p.add_argument("--server", help="rendering server IPv4 address (pcap input)")
    p.add_argument("--port", type=int, help="optional server port filter")


def _packets(cfg: ExperimentConfig, load_packets) -> PacketTable:
    """The configured input's packets, read by `load_packets` after `run`'s
    config check; prints counters."""
    cfg.validate()
    result = load_packets(cfg)
    print(f"parsed {len(result.records)} packets, skipped {result.skipped}, "
          f"warnings {result.warnings}", file=sys.stderr)
    return result.records


@contextmanager
def _output(path):
    """The file at `path`, or stdout when no path is given."""
    if path:
        with open(path, "w") as fh:
            yield fh
    else:
        yield sys.stdout


def _loaded() -> None:
    """Called by each command once its modules are imported and its config is
    read. `main` runs until here with the cyclic GC off; `gc.freeze` then
    leaves every object made so far, nearly all of them import-time objects,
    out of every later collection, including the one at interpreter exit, and
    the GC goes back on for the command's own work."""
    gc.freeze()
    gc.enable()


def cmd_ingest(args) -> int:
    from .harness import load_packets
    from .ingest import write_csv

    cfg = _config(args)
    _loaded()
    packets = _packets(cfg, load_packets)
    with _output(args.out) as out:
        write_csv(packets, out)
    return EXIT_OK


def cmd_frames(args) -> int:
    from .harness import load_packets, packet_features, write_frame_files

    cfg = _config(args)
    _loaded()
    thresholds, frames, feats, partial = packet_features(_packets(cfg, load_packets), cfg)
    out = Path(args.out or _default_out())
    out.mkdir(parents=True, exist_ok=True)
    write_frame_files(out, thresholds, feats)
    print(f"{len(frames)} frames over {len(feats)} segments -> {out}; dropped the partial "
          f"segment after them ({partial} packets)", file=sys.stderr)
    return EXIT_OK


def cmd_eda(args) -> int:
    from .seriesprep import eda_csv, read_feature_csv

    _loaded()
    values = read_feature_csv(read_text(args.features, SchemaMismatch), args.feature)
    text = eda_csv(values, args.window)
    with _output(args.out) as out:
        out.write(text)
    return EXIT_OK


def cmd_synth(args) -> int:
    from .ingest import write_csv
    from .synth import gen_series, gen_trace

    cfg = _config(args)
    _loaded()
    if args.kind == "trace":
        packets, _ = gen_trace(cfg.trace_spec())
        with _output(args.out) as out:
            write_csv(packets, out)
    else:
        values, _ = gen_series(cfg.series_spec())
        with _output(args.out) as out:
            out.write("value\n" + "\n".join(repr(v) for v in values.tolist()) + "\n")
    return EXIT_OK


def cmd_train(args) -> int:
    from .harness import feature_series, train_models
    from .residual import save_reslearn
    from .seriesprep import segment

    cfg = _config(args)
    _loaded()
    cfg.validate()
    out = Path(args.out or _default_out())
    out.mkdir(parents=True, exist_ok=True)
    values = feature_series(cfg)[0]
    trained = train_models(cfg, segment(values, cfg.segment_size), keep_models=True)
    saved = 0
    for kind, reports in trained.items():
        for r in reports:
            if r.model is None:
                print(f"{kind} segment {r.segment_index}: {r.failed}", file=sys.stderr)
                continue
            path = out / f"ckpt_{kind}_seg{r.segment_index}.npz"
            save_reslearn(r.model, path)
            saved += 1
            print(f"saved {path}", file=sys.stderr)
    if not saved:
        raise NonFiniteLoss("every segment failed to train")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from .report import metric_cells
    from .residual import forecast, load_reslearn, score
    from .seriesprep import make_windows, read_feature_csv

    _loaded()
    model = load_reslearn(args.model)
    values = read_feature_csv(read_text(args.features, SchemaMismatch), args.feature)
    x, y = make_windows(model.scaler.transform(values), model.base.config.lookback)
    base_m, comb_m, _ = score(model, y, *forecast(model, x))
    print("model,rmse,mape,smape")
    print(f"base,{metric_cells(base_m)}")
    print(f"reslearn,{metric_cells(comb_m)}")
    return EXIT_OK


def cmd_run(args) -> int:
    from .harness import run_experiment

    cfg = _config(args)
    _loaded()
    run_experiment(cfg, Path(args.out or _default_out()))
    return EXIT_OK


def _config(args) -> ExperimentConfig:
    """The `--config` file, or the defaults, with the command's flags over it."""
    from .config import ExperimentConfig, apply_overrides, load_config

    flags = vars(args)
    cfg = load_config(args.config) if flags.get("config") else ExperimentConfig()
    overrides = {key: flags.get(key) for key in ("seed", "server", "port")}
    kind = "pcap" if flags.get("pcap") else "csv" if flags.get("csv") else None
    overrides.update(input_kind=kind, input_path=flags[kind] if kind else None)
    return apply_overrides(cfg, overrides)     # a None value leaves its key as it is


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="reslearn")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a trace into the normalized packet CSV")
    _add_packet_source(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("frames", help="estimate thresholds and emit frame features")
    _add_packet_source(p)
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_frames)

    p = sub.add_parser("eda", help="runs-test predictability report for a feature series")
    p.add_argument("--features", required=True)
    p.add_argument("--feature", default="f_s", choices=("f_c", "f_s", "f_iat"))
    p.add_argument("--window", type=int, default=20)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eda)

    p = sub.add_parser("synth", help="generate a synthetic trace or series")
    p.add_argument("--kind", choices=("trace", "series"), default="series")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the model matrix and save checkpoints")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a saved combined model on a feature series")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--feature", default="f_s", choices=("f_c", "f_s", "f_iat"))
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run", help="full pipeline from config to report files")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    gc.disable()                       # back on in _loaded, or on the way out
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonFiniteLoss as exc:
        print(f"training failure: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except WorkerDied as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except (ResLearnError, OSError, MemoryError) as exc:    # numpy names the array
        print(f"data error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA
    finally:
        gc.enable()


if __name__ == "__main__":
    sys.exit(main())

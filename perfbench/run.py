"""Benchmark of the reslearn CLI: end-to-end metrics per workload, or one
traced run per workload for the per-layer metrics.

    python3 perfbench/run.py --workload train-spiky --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table
    python3 perfbench/run.py --write-spec                 # rewrite BENCHMARK.json

Each workload is a closed loop with one client: the next CLI process starts
only after the previous one exits. Inputs come from --seed alone and are made
before any timing. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, inputs, spec  # noqa: E402

SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PROCESS_TIMEOUT_S = 150
SPIKY_LENGTH = 2000
TRAIN_LENGTH = 500
LONG_LENGTH = 2000
SEGMENT_SIZE = 500
LOOKBACK = 32
EPOCHS = 10
CKPT_EPOCHS = 5
# the program's own --seed (weight init, batch order), as in the README
# example; the workload seed makes the inputs
PROGRAM_SEED = "7"


# --- running the program ---------------------------------------------------

@dataclass
class Proc:
    code: int
    wall: float
    cpu: float
    sys_s: float
    rss_mb: float
    minflt: int
    stdout: str
    stderr: str


def program_env() -> dict[str, str]:
    """The caller's environment without BLAS thread settings, so the program
    runs with the defaults users get, and with src/ on the import path."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def launch(argv: list[str], cwd: Path) -> Proc:
    """Run one process to its end; time it and read its own rusage."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=program_env(), stdout=out, stderr=err)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:          # interrupted: leave no process behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_stime,
                usage.ru_maxrss / 1024.0, usage.ru_minflt,
                out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "reslearn.cli", *args]


def traced_cli(spans: Path, run_id: str, *args: str) -> list[str]:
    return [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(spans), run_id, "--", *args]


PROBE = ("--help",)     # CLI start-up: interpreter start, reslearn imports, parser


def tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(f.relative_to(path).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def weights_digest(npz: Path) -> str:
    """Digest of a checkpoint's arrays; the zip container itself carries
    write times."""
    h = hashlib.sha256()
    with np.load(npz, allow_pickle=False) as data:
        for k in sorted(data.files):
            h.update(k.encode() + b"\0" + np.ascontiguousarray(data[k]).tobytes())
    return h.hexdigest()


# --- workloads --------------------------------------------------------------

class Workload:
    """Inputs, the timed CLI command, the set-up step and the output check."""

    name = ""
    setup_per_group = 1
    ops_per_round = 1

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed

    def prepare(self) -> None:
        raise NotImplementedError

    def op_args(self) -> tuple[str, ...]:
        raise NotImplementedError

    def setup_args(self) -> tuple[str, ...]:
        """The set-up step: CLI start-up unless the workload needs more."""
        return PROBE

    def before_op(self) -> None:
        shutil.rmtree(self.work / "out", ignore_errors=True)

    def check(self, proc: Proc) -> tuple[list[str], dict[str, float], str]:
        """(errors, accuracy metrics, digest of the output for rerun checks)."""
        raise NotImplementedError


def _write_config(path: Path, **items) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in items.items()))


class TrainSpiky(Workload):
    name = "train-spiky"
    setup_per_group = 3
    kinds = ["transformer", "lstm"]

    def prepare(self):
        self.series = inputs.spiky_series(SPIKY_LENGTH, self.seed)
        (self.work / "series.csv").write_text(inputs.feature_csv(self.series))
        # patience = epochs: every seed trains the same number of epochs, so
        # the work does not swing with where early stopping happens to fall
        _write_config(self.work / "run.cfg", input_kind="features", input_path="series.csv",
                      feature="f_s", models=", ".join(self.kinds), epochs=EPOCHS,
                      residual_epochs=EPOCHS, patience=EPOCHS)

    def op_args(self):
        return ("run", "--config", "run.cfg", "--seed", PROGRAM_SEED, "--out", "out")

    def check(self, proc):
        out = self.work / "out"
        errors, acc = checks.check_run(out, self.kinds, self.series, SEGMENT_SIZE, LOOKBACK)
        return errors, acc, tree_digest(out)


class IngestPcap(Workload):
    name = "ingest-pcap"
    setup_per_group = 2

    def prepare(self):
        session = inputs.xr_session(self.seed)
        with open(self.work / "capture.pcap", "wb") as fh:
            fh.write(session.pcap)
            fh.flush()
            os.fsync(fh.fileno())      # no write-back while the program runs
        session.pcap = b""
        self.session = session
        self.series = np.array([f_s for _, f_s, _ in session.features()], dtype=np.float64)
        _write_config(self.work / "run.cfg", input_kind="pcap", input_path="capture.pcap",
                      server=inputs.SERVER, segment_duration=inputs.SEGMENT_US / 1e6,
                      models="fcnn", epochs=60, residual_epochs=60)

    def op_args(self):
        return ("run", "--config", "run.cfg", "--seed", PROGRAM_SEED, "--out", "out")

    def check(self, proc):
        out = self.work / "out"
        errors = checks.check_features(out, self.session)
        run_errors, acc = checks.check_run(out, ["fcnn"], self.series, SEGMENT_SIZE, LOOKBACK)
        return errors + run_errors, acc, tree_digest(out)


class InferLong(Workload):
    name = "infer-long"
    ops_per_round = 2                  # evaluate varies more from call to call
    ckpt = Path("ckpt") / "ckpt_transformer_seg0.npz"

    def prepare(self):
        train = inputs.spiky_series(TRAIN_LENGTH, [self.seed, 0])
        self.series = inputs.spiky_series(LONG_LENGTH, [self.seed, 1])
        (self.work / "train.csv").write_text(inputs.feature_csv(train))
        (self.work / "long.csv").write_text(inputs.feature_csv(self.series))
        _write_config(self.work / "train.cfg", input_kind="features", input_path="train.csv",
                      feature="f_s", models="transformer", epochs=CKPT_EPOCHS,
                      residual_epochs=CKPT_EPOCHS, patience=CKPT_EPOCHS,
                      segment_size=TRAIN_LENGTH)
        self.checked: dict[tuple[str, str], tuple] = {}

    def setup_args(self):
        return ("train", "--config", "train.cfg", "--seed", PROGRAM_SEED, "--out", "ckpt")

    def op_args(self):
        return ("evaluate", "--model", str(self.ckpt), "--features", "long.csv")

    def check(self, proc):
        path = self.work / self.ckpt
        key = (weights_digest(path), proc.stdout)
        if key not in self.checked:
            errors, acc = checks.check_evaluate(proc.stdout, path, self.series)
            self.checked[key] = (errors, acc)
        errors, acc = self.checked[key]
        return errors, acc, hashlib.sha256(repr(key).encode()).hexdigest()


WORKLOADS = {w.name: w for w in (TrainSpiky, IngestPcap, InferLong)}


# --- one run ----------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digests: set[str] = field(default_factory=set)
    accuracy: dict[str, float] = field(default_factory=dict)

    def run(self, wl: Workload, argv: list[str]) -> Proc | None:
        self.attempted += 1
        proc = launch(argv, wl.work)
        if proc.code != 0:
            self.failed += 1
            self.errors.append(f"exit {proc.code}: {' '.join(argv[1:])}: {proc.stderr[-400:]}")
            return None
        return proc

    def check(self, wl: Workload, proc: Proc) -> None:
        errors, acc, digest = wl.check(proc)
        self.errors += errors
        self.digests.add(digest)
        if not errors:
            self.accuracy = acc or self.accuracy

    @property
    def correct(self) -> bool:
        return not self.errors and len(self.digests) <= 1


def setup_group(wl: Workload, tally: Tally, samples: list[float]) -> bool:
    for _ in range(wl.setup_per_group):
        proc = tally.run(wl, cli(*wl.setup_args()))
        if proc is None:
            return False
        samples.append(proc.wall)
    return True


def measure(wl: Workload, seconds: float) -> tuple[Tally, dict[str, float]]:
    """Closed loop: [set-up group] then rounds of [op x ops_per_round,
    set-up group] while the next round would end no later than half a round
    past `seconds`."""
    tally = Tally()
    setup, ops = [], []
    tally.run(wl, cli(*PROBE))                 # writes bytecode caches; not timed
    ok = setup_group(wl, tally, setup)
    start = time.perf_counter()
    rounds = []
    while ok:
        r0 = time.perf_counter()
        for _ in range(wl.ops_per_round):
            wl.before_op()
            proc = tally.run(wl, cli(*wl.op_args()))
            if proc is None:
                return tally, end_to_end(wl, setup, ops, tally)
            ops.append(proc)
            tally.check(wl, proc)
        ok = setup_group(wl, tally, setup)
        now = time.perf_counter()
        rounds.append(now - r0)
        if now - start + statistics.median(rounds) / 2 > seconds:
            break
    return tally, end_to_end(wl, setup, ops, tally)


def end_to_end(wl: Workload, setup: list[float], ops: list[Proc], tally: Tally) -> dict:
    """Medians of the samples; a metric without a sample (a failed run) is
    left out rather than reported as a best-possible 0."""
    samples = {
        "setup_s": setup,
        "run_s": [p.wall for p in ops],
        "cpu_s": [p.cpu for p in ops],
        "peak_rss_mb": [p.rss_mb for p in ops],
    }
    metrics = {k: statistics.median(v) for k, v in samples.items() if v}
    metrics.update(tally.accuracy)
    print(f"{wl.name}: {len(ops)} timed runs, {len(setup)} set-up samples; "
          f"run_s {[round(p.wall, 3) for p in ops]}; setup_s {[round(s, 3) for s in setup]}")
    return metrics


# --- the traced run -----------------------------------------------------------

def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) and self seconds."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["total_s"] += end - start
        s["self_s"] += end - start - child[i]
    return out


SERIESPREP_STEPS = ("segment", "split", "minmax_scale", "make_windows")


def layer_metrics(summary: dict, counts: dict, untraced: Proc, traced_wall: float,
                  overhead: float) -> dict:
    total = lambda n: summary.get(n, {}).get("total_s", 0.0)  # noqa: E731
    self_ = lambda n: summary.get(n, {}).get("self_s", 0.0)  # noqa: E731
    calls = lambda n: summary.get(n, {}).get("calls", 0)  # noqa: E731
    parse_s = total("ingest.parse_pcap")
    walked = counts.get("ingest.packets", 0) + counts.get("ingest.skipped", 0)
    m = {
        "ingest.parse_pcap_s": parse_s,
        "ingest.packets_per_s": walked / parse_s if parse_s else 0.0,
        "ingest.packets": counts.get("ingest.packets", 0),
        "ingest.skipped": counts.get("ingest.skipped", 0),
        "viewframe.thresholds_s": total("viewframe.thresholds"),
        "viewframe.identify_frames_s": total("viewframe.identify_frames"),
        "viewframe.segment_features_s": total("viewframe.segment_features"),
        "viewframe.frames": counts.get("viewframe.frames", 0),
        "harness.feature_series_self_s": self_("harness.feature_series"),
        "harness.read_feature_csv_s": total("harness.read_feature_csv"),
        "harness.eda_s": total("harness.eda_csv"),
        "harness.run_experiment_self_s": self_("harness.run_experiment"),
        "seriesprep.s": sum(total(f"seriesprep.{f}") for f in SERIESPREP_STEPS),
        "seriesprep.windows": counts.get("seriesprep.windows", 0),
    }
    for kind in spec.MODEL_KINDS:
        p = f"models.{kind}."
        m.update({
            p + "fit_s": total(p + "fit"),
            p + "fit_self_s": self_(p + "fit"),
            p + "steps": calls(p + "loss_and_grad"),
            p + "loss_and_grad_s": total(p + "loss_and_grad"),
            p + "predict_s": total(p + "predict"),
            p + "predict_calls": calls(p + "predict"),
            p + "predict_windows": counts.get(p + "predict_windows", 0),
        })
    m.update({
        "residual.train_reslearn_s": total("residual.train_reslearn"),
        "residual.predict_combined_s": total("residual.predict_combined"),
        "residual.predict_combined_calls": calls("residual.predict_combined"),
        "residual.save_s": total("residual.save_reslearn"),
        "residual.load_s": total("residual.load_reslearn"),
        "metrics.evaluate_s": total("metrics.evaluate"),
        "metrics.evaluate_calls": calls("metrics.evaluate"),
        "report.s": sum(s["total_s"] for n, s in summary.items() if n.startswith("report.")),
        "report.bytes": counts.get("report.bytes", 0),
        "process.sys_s": untraced.sys_s,
        "process.minor_faults": untraced.minflt,
        "process.spans": sum(s["calls"] for s in summary.values()),
        "process.traced_run_s": traced_wall,
        "process.tracing_overhead_s": overhead,
    })
    return m


def trace_run(wl: Workload) -> tuple[Tally, dict[str, float]]:
    """One untraced and one traced run of the workload's operation (and, on
    infer-long, of the train call that makes its checkpoint)."""
    tally = Tally()
    run_id = f"{wl.name}-s{wl.seed}-p{os.getpid()}"
    tally.run(wl, cli(*PROBE))
    files = []
    untraced = traced = None
    if setup_group(wl, tally, []):
        wl.before_op()
        untraced = tally.run(wl, cli(*wl.op_args()))
    if untraced is not None:
        tally.check(wl, untraced)
        ok = True
        if wl.setup_args() != PROBE:
            files.append((wl.work / "spans-setup.json", f"{run_id}-setup"))
            ok = tally.run(wl, traced_cli(*files[-1], *wl.setup_args())) is not None
        if ok:
            wl.before_op()
            files.append((wl.work / "spans-op.json", f"{run_id}-op"))
            traced = tally.run(wl, traced_cli(*files[-1], *wl.op_args()))
    if traced is None:
        return tally, {}
    tally.check(wl, traced)
    docs = [json.loads(f.read_text()) for f, _ in files]
    spans: list[list] = []
    for d in docs:                    # parents index into the whole list
        base = len(spans)
        spans += [[n, s, e, p + base if p >= 0 else -1, r] for n, s, e, p, r in d["spans"]]
    summary = summarize(spans)
    counts: dict[str, float] = {}
    for d in docs:
        for k, v in d["counts"].items():
            counts[k] = counts.get(k, 0) + v
    # the cost of the spans themselves: traced minus untraced wall time is
    # host noise at this size (tenths of a second either way, against about
    # a millisecond of spans)
    overhead = sum(len(d["spans"]) * d["span_cost_s"] for d in docs)
    metrics = layer_metrics(summary, counts, untraced, traced.wall, overhead)
    WORK_ROOT.mkdir(exist_ok=True)
    trace_path = WORK_ROOT / f"trace-{wl.name}-s{wl.seed}.json"
    trace_path.write_text(json.dumps({
        "run_id": run_id, "workload": wl.name, "seed": wl.seed,
        "untraced_run_s": untraced.wall, "traced_run_s": traced.wall,
        "summary": summary, "counts": counts, "metrics": metrics,
        "spans": spans,
    }))
    print(f"{wl.name}: spans written to {trace_path.relative_to(ROOT)}; traced run "
          f"{traced.wall:.3f} s, untraced {untraced.wall:.3f} s, span cost {overhead:.6f} s")
    print(f"{'span':44s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}")
    for name, s in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])[:25]:
        print(f"{name:44s} {s['calls']:8d} {s['total_s']:10.4f} {s['self_s']:10.4f}")
    return tally, metrics


# --- entry point --------------------------------------------------------------

def env_info() -> dict:
    """The program's environment, read from a process that has it."""
    code = ("import json,os,sys,platform,numpy as np;"
            "b=np.show_config(mode='dicts')['Build Dependencies']['blas'];"
            "print(json.dumps({'python':platform.python_version(),'numpy':np.__version__,"
            "'blas':f\"{b.get('name')} {b.get('version')}\",'nproc':os.cpu_count(),"
            "'blas_threads':_threads()}))")
    probe = ("def _threads():\n"
             " import ctypes\n"
             " for line in open('/proc/self/maps'):\n"
             "  if 'openblas' in line and line.rstrip().endswith('.so'):\n"
             "   lib=ctypes.CDLL(line.split()[-1])\n"
             "   for f in ('scipy_openblas_get_num_threads64_','openblas_get_num_threads64_',"
             "'openblas_get_num_threads'):\n"
             "    if hasattr(lib,f): return getattr(lib,f)()\n"
             " return None\n")
    out = subprocess.run([sys.executable, "-c", probe + code], env=program_env(),
                         capture_output=True, text=True, timeout=60)
    info = json.loads(out.stdout) if out.returncode == 0 else {"error": out.stderr[-200:]}
    info["host"] = platform.machine()
    return info


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK_ROOT / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[name](work, seed)
        wl.prepare()
        tally, values = trace_run(wl) if trace else measure(wl, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    table = spec.PER_LAYER if trace else spec.END_TO_END
    for err in tally.errors[:10]:
        print(f"{name}: CHECK FAILED: {err}")
    for m in table:
        value = f"{values[m['name']]:16.6f}" if m["name"] in values else f"{'n/a':>16s}"
        print(f"{name}: {m['name']:34s} {value} {m['unit']}")
    print(f"{name}: attempted {tally.attempted}, failed {tally.failed}, "
          f"correct {tally.correct}")
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in table if m["name"] in values},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from spec.py and exit")
    args = parser.parse_args(argv)
    # a terminated benchmark still stops the program process it waits for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "reslearn" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'reslearn' / 'cli.py'} is missing", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    print("env:", json.dumps(env_info()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

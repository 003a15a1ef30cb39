import codecs
import errno
import gc
import json
import math
import os
import pkgutil
import re
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import reslearn
from reslearn import cli, harness, ingest
from reslearn.cli import main
from reslearn.config import ExperimentConfig, load_config, parse_config
from reslearn.ingest import EndpointFilter
from reslearn.metrics import evaluate
from reslearn.models import Predictor, PredictorConfig, build_predictor
from reslearn.report import render_json, report_rows
from reslearn.residual import ResLearnModel, combine_predictions, load_reslearn, save_reslearn
from reslearn.seriesprep import Scaler, make_windows, read_feature_csv, segment
from reslearn.synth import gen_series, gen_trace

from cpus import on_cpus
from oracles import DOWNLINK, UPLINK, table, write_pcap
from test_models import BAD_VALUES, MALFORMED, checkpoint

SMALL_CFG = """
input_kind = synth-series
synth_length = 130
synth_noise_std = 0.5
segment_size = 60
lookback = 4
models = fcnn
epochs = 5
residual_epochs = 5
hidden_width = 8
d_model = 8
ffn_width = 8
eda_window = 20
seed = 7
"""


FEATURES_CSV = "segment,f_c,f_s,f_iat\n" + "".join(f"{i},1,{100 + i % 7},NA\n" for i in range(30))


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(SMALL_CFG)
    return path


def read_tree(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestSynth:
    def test_series_to_file(self, tmp_path):
        out = tmp_path / "series.csv"
        assert main(["synth", "--kind", "series", "--seed", "3", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "value"
        assert len(lines) == 2001   # default series length
        values, _ = gen_series(ExperimentConfig(seed=3).series_spec())
        written = np.array([float(line) for line in lines[1:]])
        assert written.tobytes() == values.tobytes()

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["synth", "--seed", "3", "--out", str(a)])
        main(["synth", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestIngest:
    def test_pcap_to_csv(self, tmp_path):
        filt = EndpointFilter("10.0.0.1")
        pcap = tmp_path / "t.pcap"
        pcap.write_bytes(write_pcap(table([(0.0, 1200, DOWNLINK), (0.005, 900, UPLINK)]), filt))
        out = tmp_path / "t.csv"
        rc = main(["ingest", "--pcap", str(pcap), "--server", "10.0.0.1",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "ts,length,direction"
        assert len(lines) == 3

    def test_missing_server_is_config_error(self, tmp_path, capsys):
        pcap = tmp_path / "t.pcap"
        pcap.write_bytes(b"")
        assert main(["ingest", "--pcap", str(pcap)]) == 1
        assert capsys.readouterr().err == (
            "config error: server must be a dotted-quad IPv4 address, got ''\n")

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["ingest", "--pcap", str(tmp_path / "no.pcap"),
                     "--server", "10.0.0.1"]) == 2

    def test_bad_magic_is_data_error(self, tmp_path):
        pcap = tmp_path / "t.pcap"
        pcap.write_bytes(b"\x00" * 64)
        assert main(["ingest", "--pcap", str(pcap), "--server", "10.0.0.1"]) == 2


class TestFramesAndEda:
    def test_frames_from_synth_trace(self, tmp_path):
        trace = tmp_path / "trace.csv"
        cfg = tmp_path / "t.cfg"
        cfg.write_text("synth_duration = 3\nsynth_background_rate = 20\n")
        assert main(["synth", "--kind", "trace", "--config", str(cfg),
                     "--out", str(trace)]) == 0
        out = tmp_path / "frames"
        assert main(["frames", "--csv", str(trace), "--out", str(out)]) == 0
        assert (out / "thresholds.json").exists()
        features = (out / "features.csv").read_text()
        assert features.startswith("segment,f_c,f_s,f_iat")

    @pytest.mark.parametrize("sparse", [1, 2])
    def test_sparse_first_segment_falls_back_to_default_dur_th(self, sparse, tmp_path):
        # one or two packets in the first 1 s segment, a frame trace after it
        rows = [f"{0.3 * i!r},1200,down" for i in range(sparse)]
        rows += [f"{1.0 + k / 72 + j * 2e-4!r},1200,down" for k in range(100) for j in range(8)]
        trace = tmp_path / "trace.csv"
        trace.write_text("ts,length,direction\n" + "\n".join(rows) + "\n")
        cfg = tmp_path / "t.cfg"
        cfg.write_text("segment_duration = 1.0\ndefault_dur_th = 0.003\n")
        out = tmp_path / "frames"
        assert main(["frames", "--csv", str(trace), "--config", str(cfg),
                     "--out", str(out)]) == 0
        thresholds = json.loads((out / "thresholds.json").read_text())
        assert thresholds["dur_th"] == 0.003
        assert thresholds["peaks"] == []
        features = (out / "features.csv").read_text().splitlines()
        assert features[1] == f"0,{sparse},{1200 * sparse},{'NA' if sparse == 1 else '0.3'}"
        assert features[2].startswith("1,72,")

    def test_partial_last_segment_is_dropped(self, tmp_path, capsys):
        # 72 fps for 2.5 s: two full 1 s segments, then half of a third
        rows = [f"{k / 72 + j * 2e-4!r},1200,down" for k in range(180) for j in range(4)]
        trace = tmp_path / "trace.csv"
        trace.write_text("ts,length,direction\n" + "\n".join(rows) + "\n")
        out = tmp_path / "frames"
        assert main(["frames", "--csv", str(trace), "--out", str(out)]) == 0
        features = (out / "features.csv").read_text().splitlines()
        assert [r.split(",")[:2] for r in features[1:]] == [["0", "72"], ["1", "72"]]
        assert "dropped the partial segment after them (144 packets)" in capsys.readouterr().err

    def test_run_logs_the_dropped_partial_segment(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG + "input_kind = synth-trace\nsynth_duration = 60.5\n"
                       "synth_jitter_std = 0.002\nsynth_background_rate = 0\n"
                       "feature = f_iat\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert len((out / "features.csv").read_text().splitlines()) == 1 + 60
        log = (out / "run.log").read_text().splitlines()
        frames_line = next(ln for ln in log if ln.startswith("frames:"))
        # the last half second holds about 36 frames of 10 packets; the jitter
        # moves a few packets across the boundary
        assert frames_line.endswith(" segments=60 partial_segment_dropped_packets=357")

    @pytest.mark.parametrize("rows", [[], ["0.0,1200,down", "0.75,1200,down"]],
                             ids=["empty", "under_one_segment"])
    def test_capture_shorter_than_one_segment_is_data_error(self, rows, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("ts,length,direction\n" + "".join(r + "\n" for r in rows))
        assert main(["frames", "--csv", str(trace), "--out", str(tmp_path / "o")]) == 2
        parsed, error = capsys.readouterr().err.splitlines()
        assert parsed == f"parsed {len(rows)} packets, skipped 0, warnings 0"
        assert error.startswith("data error: CaptureTooShort: ")

    def test_eda_over_features(self, tmp_path):
        features = tmp_path / "features.csv"
        rows = ["segment,f_c,f_s,f_iat"]
        rows += [f"{i},{70 + (i % 3)},{(i % 5) * 1000 + 8000},NA" for i in range(40)]
        features.write_text("\n".join(rows) + "\n")
        out = tmp_path / "eda.csv"
        assert main(["eda", "--features", str(features), "--feature", "f_s",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "series,n,n_runs,z,p_value"
        assert lines[1].startswith("raw,40,")
        assert lines[2].startswith("rolling_mean,21,")


# a 7 s synth trace in 0.05 s segments: 139 full ones, so two model segments
PACKET_CFG = SMALL_CFG + "input_kind = synth-trace\nsynth_duration = 7\nsegment_duration = 0.05\n"

NON_FINITE_TS = {
    "nan_inside": ["0.0,1200,down", "0.5,1200,down", "nan,1200,down", "1.5,1200,down",
                   "2.5,1200,down"],
    "inf_last": ["0.0,1200,down", "0.5,1200,down", "1.5,1200,down", "inf,1200,down"],
    "nan_first": ["nan,1200,down", "0.5,1200,down", "1.5,1200,down", "2.5,1200,down"],
}


class TestOnePacketPath:
    """`ingest`, `frames` and `run` read packets through one reader, and
    `frames` writes the frame files of `run`."""

    @pytest.mark.parametrize("source", ["pcap", "csv", "synth-trace"])
    def test_frames_writes_the_frame_files_of_run(self, source, tmp_path, capsys):
        frames_cfg = tmp_path / "frames.cfg"
        frames_cfg.write_text(PACKET_CFG)
        packets = gen_trace(parse_config(PACKET_CFG).trace_spec())[0]
        argv, run_input = [], ""
        if source == "pcap":
            pcap = tmp_path / "t.pcap"
            pcap.write_bytes(write_pcap(packets, EndpointFilter("10.0.0.1")))
            argv = ["--pcap", str(pcap), "--server", "10.0.0.1"]
            run_input = f"input_kind = pcap\ninput_path = {pcap}\nserver = 10.0.0.1\n"
        elif source == "csv":
            trace = tmp_path / "trace.csv"
            assert main(["synth", "--kind", "trace", "--config", str(frames_cfg),
                         "--out", str(trace)]) == 0
            argv = ["--csv", str(trace)]
            run_input = f"input_kind = csv\ninput_path = {trace}\n"
        run_cfg = tmp_path / "run.cfg"
        run_cfg.write_text(PACKET_CFG + run_input)
        capsys.readouterr()
        assert main(["frames", *argv, "--config", str(frames_cfg),
                     "--out", str(tmp_path / "frames")]) == 0
        parsed = capsys.readouterr().err.splitlines()[0]
        assert parsed == f"parsed {len(packets)} packets, skipped 0, warnings 0"
        with on_cpus(1):
            assert main(["run", "--config", str(run_cfg), "--out", str(tmp_path / "run")]) == 0
        for name in ("thresholds.json", "features.csv"):
            frames_bytes = (tmp_path / "frames" / name).read_bytes()
            assert frames_bytes == (tmp_path / "run" / name).read_bytes()
        assert frames_bytes.count(b"\n") == 1 + 139

    @pytest.mark.parametrize("command", ["ingest", "frames"])
    def test_csv_input_prints_parse_counters(self, command, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("ts,length,direction\n"
                         + "".join(f"{t!r},1200,down\n" for t in (0.0, 0.5, 1.0, 1.5)))
        assert main([command, "--csv", str(trace), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err.splitlines()[0] == "parsed 4 packets, skipped 0, warnings 0"

    @pytest.mark.parametrize("config", [None, "input_kind = synth-series\n",
                                        "input_kind = features\ninput_path = f.csv\n"],
                             ids=["defaults", "synth_series", "features"])
    def test_frames_without_packet_input_exits_1(self, config, tmp_path, capsys):
        argv = ["frames", "--out", str(tmp_path / "out")]
        if config is not None:
            (tmp_path / "frames.cfg").write_text(config)
            argv += ["--config", str(tmp_path / "frames.cfg")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("config error: input_kind ")
        assert not (tmp_path / "out").exists()

    def test_pcap_and_csv_flags_exclude_each_other(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["frames", "--pcap", "t.pcap", "--server", "10.0.0.1", "--csv", "t.csv"])
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ingest", "frames", "run"])
    @pytest.mark.parametrize("rows", NON_FINITE_TS.values(), ids=NON_FINITE_TS.keys())
    def test_non_finite_timestamp_is_data_error(self, rows, command, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("ts,length,direction\n" + "".join(r + "\n" for r in rows))
        if command == "run":
            cfg = tmp_path / "run.cfg"
            cfg.write_text(SMALL_CFG + f"input_kind = csv\ninput_path = {trace}\n")
            argv = ["run", "--config", str(cfg)]
        else:
            argv = [command, "--csv", str(trace)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: RowParseError: line ")
        assert "Traceback" not in err


class TestRun:
    def test_run_writes_reports(self, small_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(small_cfg), "--out", str(out)]) == 0
        names = set(read_tree(out))
        assert {"run.log", "eda.csv", "comparison.csv",
                "report_fcnn.csv", "report_fcnn.json"} <= names
        assert any(n.startswith("plot_fcnn_seg") for n in names)
        assert any(n.startswith("plot_fcnn_reslearn_seg") for n in names)

    def test_rerun_byte_identical(self, small_cfg, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(small_cfg), "--seed", "7", "--out", str(a)])
        main(["run", "--config", str(small_cfg), "--seed", "7", "--out", str(b)])
        assert read_tree(a) == read_tree(b)

    def test_jobs_do_not_change_bytes(self, small_cfg, tmp_path):
        """The same bytes on one usable CPU, on two, and on four: four tasks
        train in-process, in two workers and in four."""
        cfg_path = tmp_path / "multi.cfg"
        cfg_path.write_text(small_cfg.read_text().replace("models = fcnn", "models = fcnn, gru"))
        trees = []
        for n in (1, 2, 4):
            out = tmp_path / str(n)
            with on_cpus(n):
                assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
            trees.append(read_tree(out))
        assert trees[0] == trees[1] == trees[2]

    # the ids name the prediction threads these runs once gave each task; a
    # training task now predicts on one thread, so one task trains in-process
    # on any number of CPUs, and two tasks train in two worker processes
    @pytest.mark.parametrize("segment_size, cpus", [(400, 2), (200, 4)],
                             ids=["one_task_two_threads", "two_workers_two_threads"])
    def test_prediction_threads_do_not_change_bytes(self, segment_size, cpus, small_cfg,
                                                    tmp_path):
        # each split of a segment this long spans several 32-window blocks
        cfg_path = tmp_path / "long.cfg"
        cfg_path.write_text(small_cfg.read_text()
                            .replace("synth_length = 130", "synth_length = 400")
                            .replace("segment_size = 60", f"segment_size = {segment_size}"))
        a, b = tmp_path / "a", tmp_path / "b"
        with on_cpus(1):
            assert main(["run", "--config", str(cfg_path), "--out", str(a)]) == 0
        with on_cpus(cpus):
            assert main(["run", "--config", str(cfg_path), "--out", str(b)]) == 0
        assert read_tree(a) == read_tree(b)

    @pytest.mark.parametrize("command", ["run", "train"])
    def test_jobs_flag_is_gone(self, command, small_cfg, capsys):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--config", str(small_cfg), "--jobs", "2"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_unknown_config_key_exit_1(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("modles = fcnn\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_missing_input_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("input_kind = features\ninput_path = missing.csv\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_data_error_after_features_is_logged(self, tmp_path):
        # the 10 values fill no EDA window of 20: a data error once the
        # output directory exists
        cfg = tmp_path / "short.cfg"
        cfg.write_text(SMALL_CFG + "synth_length = 10\nsegment_size = 8\nlookback = 1\n"
                       "val_ratio = 0.5\neda_window = 20\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert (out / "run.log").read_text().splitlines()[-1].startswith(
            "error: SeriesTooShort: ")

    def test_every_run_trains_and_saves_the_residual_stage(self, small_cfg, tmp_path):
        out = tmp_path / "ckpts"
        assert main(["train", "--config", str(small_cfg), "--out", str(out)]) == 0
        ckpts = sorted(out.glob("*.npz"))
        assert ckpts
        for path in ckpts:
            residual = load_reslearn(path).residual
            fresh = build_predictor(residual.config)
            assert not np.array_equal(residual.flat, fresh.flat)

    def test_out_dir_env_default(self, small_cfg, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("RESLEARN_OUT_DIR", str(target))
        assert main(["run", "--config", str(small_cfg)]) == 0
        assert (target / "run.log").exists()


def diverging_features(path: Path, segments, at: int = 29) -> None:
    """Three 60-value segments of a feature CSV; each of the given segments
    holds 1e300 at index `at`, so the segment fails to train. The default is
    the target of its last validation window, whose squared error overflows
    float64 (NonFiniteLoss); at 27 it is in the validation windows, where it
    overflows float32 (InputOverflow); at 59 it is the target of the last test
    window, whose RMSE overflows float64 (InputOverflow)."""
    values = [100 + 10 * math.sin(i / 5) for i in range(180)]
    for i in segments:
        values[60 * i + at] = 1e300
    path.write_text("segment,f_c,f_s,f_iat\n"
                    + "".join(f"{i},1,{v!r},NA\n" for i, v in enumerate(values)))


PARALLEL_CFG = """
input_kind = features
segment_size = 60
lookback = 4
models = fcnn, gru
epochs = 5
residual_epochs = 5
hidden_width = 8
"""

# runs in a fresh interpreter: the CLI module must load before numpy does
BLAS_PROBE = """
import ctypes, os
import reslearn.cli
from reslearn import harness, placement
from reslearn.config import ExperimentConfig
from reslearn.residual import SegmentReport
from reslearn.seriesprep import segment

def blas_threads():
    for line in open("/proc/self/maps"):
        if "openblas" in line and line.rstrip().endswith(".so"):
            lib = ctypes.CDLL(line.split()[-1])
            for f in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                      "openblas_get_num_threads"):
                if hasattr(lib, f):
                    return getattr(lib, f)()
    return None

def probe(index, *args):
    return SegmentReport(index, failed=f"{os.getpid()} {blas_threads()}")

cpus = placement.usable_cpus()
placement.usable_cpus = lambda: (cpus * 2)[:2]
harness.train_segment = probe
cfg = ExperimentConfig(models="fcnn", segment_size=10)
reports = harness.train_models(cfg, segment(list(range(20)), 10))["fcnn"]
print(os.getpid(), os.environ["OPENBLAS_NUM_THREADS"], *(r.failed for r in reports))
"""

# runs the CLI in a fresh interpreter, its training tasks stuck in two
# workers, each of which marks its pid in the directory argv[1]; the test then
# kills the CLI or a worker with SIGKILL
STUCK_RUN = """
import os, sys, time
from reslearn import cli, harness, placement

def stuck(index, *args):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    time.sleep(120)

cpus = placement.usable_cpus()
placement.usable_cpus = lambda: (cpus * 2)[:2]
harness.train_segment = stuck
sys.exit(cli.main(sys.argv[2:]))
"""


def src_env(**extra) -> dict[str, str]:
    env = dict(os.environ, **extra)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
    return env


needs_proc = pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")


def running(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


# runs `frames` in a fresh interpreter, with both children of its pcap parse
# stuck; the test then kills it with SIGKILL
STUCK_FRAMES = """
import os, sys, time
from reslearn import cli, ingest, placement

parent, scan = os.getpid(), ingest._scan

def stuck(cap, start, stop):
    if os.getpid() != parent:
        open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
        time.sleep(120)
    return scan(cap, start, stop)

cpus = placement.usable_cpus()
placement.usable_cpus = lambda: (cpus * 2)[:2]
ingest.CHUNK_BYTES = 4096
ingest._scan = stuck
cli.main(sys.argv[2:])
"""


class TestParallelParse:
    @needs_proc
    def test_killed_frames_leaves_no_child(self, tmp_path):
        marks = tmp_path / "marks"
        marks.mkdir()
        rng = np.random.default_rng(2)
        ts = np.cumsum(rng.uniform(1e-4, 1e-3, 300)) + 10.0
        pcap = tmp_path / "t.pcap"
        pcap.write_bytes(write_pcap(table((t, 1200, DOWNLINK) for t in ts.tolist()),
                                    EndpointFilter("10.0.0.1")))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("segment_duration = 0.01\n")
        run = subprocess.Popen([sys.executable, "-c", STUCK_FRAMES, str(marks), "frames",
                                "--config", str(cfg), "--pcap", str(pcap), "--server",
                                "10.0.0.1", "--out", str(tmp_path / "out")], env=src_env())
        try:
            deadline = time.monotonic() + 60
            while len(list(marks.iterdir())) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
        finally:
            run.kill()
            run.wait(timeout=60)
        children = [int(p.name) for p in marks.iterdir()]
        assert len(children) == 2
        assert_ended(children)

    def test_frames_same_bytes_on_one_and_two_cpus(self, tmp_path, monkeypatch):
        """A capture of SPLIT_CHUNKS chunks is parsed in two processes on two
        usable CPUs, and in one on one CPU, to the same frame files."""
        monkeypatch.setattr(ingest, "CHUNK_BYTES", 4096)
        rng = np.random.default_rng(3)
        ts = np.cumsum(rng.uniform(1e-4, 1e-3, 300)) + 10.0
        lengths = rng.integers(200, 1400, 300)
        pcap = tmp_path / "t.pcap"
        pcap.write_bytes(write_pcap(table(zip(ts.tolist(), lengths.tolist(), [DOWNLINK] * 300)),
                                    EndpointFilter("10.0.0.1")))
        assert pcap.stat().st_size >= ingest.SPLIT_CHUNKS * ingest.CHUNK_BYTES
        splits, split_walk = [], ingest._split_walk

        def counted(cap, split):
            splits.append(split)
            return split_walk(cap, split)

        monkeypatch.setattr(ingest, "_split_walk", counted)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("segment_duration = 0.01\n")
        for cpus in (1, 2):
            with on_cpus(cpus):
                assert main(["frames", "--config", str(cfg), "--pcap", str(pcap), "--server",
                             "10.0.0.1", "--out", str(tmp_path / str(cpus))]) == 0
        assert len(splits) == 1                      # on two CPUs only
        assert read_tree(tmp_path / "1") == read_tree(tmp_path / "2")


def assert_ended(pids: list[int]) -> None:
    """Every process of `pids` ends within 10 s; any left is killed."""
    try:
        deadline = time.monotonic() + 10
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(running, pids))
    finally:
        for pid in filter(running, pids):
            os.kill(pid, signal.SIGKILL)


def broken_train_segment(*args):
    """A task that fails as no toolkit error does; the worker that runs it
    pickles the exception back to the CLI, which raises it as itself."""
    raise RuntimeError("not a toolkit error")


class TestParallelTraining:
    @pytest.fixture
    def cfg_path(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(PARALLEL_CFG + f"input_path = {tmp_path / 'features.csv'}\n")
        return path

    def test_failed_segment_same_bytes_at_any_jobs(self, cfg_path, tmp_path):
        diverging_features(tmp_path / "features.csv", [1])
        a, b = tmp_path / "a", tmp_path / "b"
        with on_cpus(1):
            assert main(["run", "--config", str(cfg_path), "--out", str(a)]) == 0
        with on_cpus(2):
            assert main(["run", "--config", str(cfg_path), "--out", str(b)]) == 0
        assert read_tree(a) == read_tree(b)
        assert "segments_ok=2" in (a / "run.log").read_text()

    def test_every_segment_failed_exits_3(self, cfg_path, tmp_path):
        diverging_features(tmp_path / "features.csv", [0, 1, 2])
        with on_cpus(2):
            assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3

    def test_train_with_every_segment_failed_exits_3(self, cfg_path, tmp_path, capsys):
        diverging_features(tmp_path / "features.csv", [0, 1, 2])
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.count(": NonFiniteLoss") == 6       # 2 kinds x 3 segments
        assert err.rstrip().endswith("training failure: every segment failed to train")
        assert not list(out.iterdir())

    @pytest.mark.parametrize("at, cause", [
        (29, "NonFiniteLoss: validation loss overflows float64 at epoch 0"),
        (27, "InputOverflow: a window value overflows float32"),
        (59, "InputOverflow: the mean squared error overflows float64"),
    ], ids=["target", "input_window", "test_target"])
    def test_overflow_names_its_cause(self, at, cause, cfg_path, tmp_path):
        diverging_features(tmp_path / "features.csv", [1], at=at)
        out = tmp_path / "o"
        proc = subprocess.run([sys.executable, "-m", "reslearn.cli", "run", "--config",
                               str(cfg_path), "--out", str(out)],
                              capture_output=True, text=True, env=src_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        for kind in ("fcnn", "gru"):
            rows = json.loads((out / f"report_{kind}.json").read_text())
            failed = [r for r in rows if r["stage"] == "failed"]
            assert [r["segment"] for r in failed] == [1]
            assert failed[0]["error"].startswith(cause)

    def test_train_jobs_same_checkpoints(self, cfg_path, tmp_path, capsys):
        diverging_features(tmp_path / "features.csv", [1])
        saved = {}
        for cpus in ("1", "2"):
            out = tmp_path / f"ckpt{cpus}"
            with on_cpus(int(cpus)):
                assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
            err = capsys.readouterr().err.splitlines()
            saved[cpus] = [Path(line.split()[-1]).name if line.startswith("saved ") else line
                           for line in err]
            assert len(list(out.glob("*.npz"))) == 4
        assert saved["1"] == saved["2"]
        assert saved["1"][0] == "ckpt_fcnn_seg0.npz"
        assert saved["1"][1].startswith("fcnn segment 1: NonFiniteLoss")
        for path in sorted((tmp_path / "ckpt1").glob("*.npz")):
            with np.load(path) as one, np.load(tmp_path / "ckpt2" / path.name) as two:
                assert one.files == two.files
                for key in one.files:
                    np.testing.assert_array_equal(one[key], two[key])

    def test_worker_error_reaches_caller(self, small_cfg, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "train_segment", broken_train_segment)
        with pytest.raises(RuntimeError, match="not a toolkit error"), on_cpus(2):
            main(["run", "--config", str(small_cfg), "--out", str(tmp_path / "o")])

    def test_reports_carry_the_same_traces_at_any_jobs(self, cfg_path, tmp_path):
        diverging_features(tmp_path / "features.csv", [1])
        traces = {}
        cfg = load_config(cfg_path)
        values = harness.feature_series(cfg)[0]
        for cpus in (1, 2):
            with on_cpus(cpus):
                trained = harness.train_models(cfg, segment(values, cfg.segment_size))
            reports = [r for kind in ("fcnn", "gru") for r in trained[kind]]
            assert all(r.model is None for r in reports)      # keep_models unset
            traces[cpus] = [(r.base_trace, r.residual_trace) for r in reports]
        # segment 1 of each kind failed, and has no traces
        assert [pair == (None, None) for pair in traces[1]] == [False, True, False] * 2
        assert all(t.val_loss for pair in traces[1] if pair[0] for t in pair)
        assert traces[1] == traces[2]

    def test_trains_in_process_without_fork(self, cfg_path, tmp_path, monkeypatch):
        diverging_features(tmp_path / "features.csv", [1])
        cfg = load_config(cfg_path)
        segments = segment(harness.feature_series(cfg)[0], cfg.segment_size)
        calls, train_segment = [], harness.train_segment

        def in_process(index, *args):        # records calls made in this process only
            calls.append(index)
            return train_segment(index, *args)

        with on_cpus(2):
            forked = harness.train_models(cfg, segments)
            monkeypatch.delattr(os, "fork")
            monkeypatch.setattr(harness, "train_segment", in_process)
            alone = harness.train_models(cfg, segments)
        assert calls == [0, 1, 2] * 2
        for kind in ("fcnn", "gru"):
            assert render_json(report_rows(alone[kind], kind)) == \
                render_json(report_rows(forked[kind], kind))
            for one, two in zip(alone[kind], forked[kind]):
                assert (one.base_trace, one.residual_trace) == (two.base_trace, two.residual_trace)
                for a, b in zip(one.test_series or (), two.test_series or ()):
                    np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("failing", [1, 2], ids=["first_fork", "second_fork"])
    def test_failed_fork_is_no_error(self, failing, cfg_path, tmp_path, monkeypatch, capsys):
        """A fork that fails with EAGAIN leaves its tasks to the workers already
        running, or to the CLI: on two CPUs `run`, `train` and `evaluate` exit 0
        with the bytes of one CPU."""
        diverging_features(tmp_path / "features.csv", [])
        real_fork = os.fork
        outputs = {}
        for cpus in (1, 2):
            out = tmp_path / str(cpus)
            argv = [["run", "--config", str(cfg_path), "--out", str(out / "run")],
                    ["train", "--config", str(cfg_path), "--out", str(out / "ckpt")],
                    ["evaluate", "--model", str(out / "ckpt" / "ckpt_gru_seg0.npz"),
                     "--features", str(tmp_path / "features.csv")]]
            for args in argv:
                forks = []

                def fork():
                    forks.append(None)
                    if len(forks) == failing:
                        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
                    return real_fork()

                with on_cpus(cpus), monkeypatch.context() as patch:
                    patch.setattr(os, "fork", fork)
                    assert main(args) == 0, capsys.readouterr().err
                assert len(forks) == (0 if cpus == 1 else min(failing, 2)), args[0]
            ckpts = {}
            for path in (out / "ckpt").glob("*.npz"):
                with np.load(path) as arrays:
                    ckpts.update({(path.name, key): (arrays[key].shape, arrays[key].tobytes())
                                  for key in arrays.files})
            outputs[cpus] = read_tree(out / "run"), ckpts, capsys.readouterr().out
        assert outputs[1] == outputs[2]

    def stuck_run(self, small_cfg, tmp_path):
        """`run` of the small config with its two training tasks stuck in two
        workers, once both have started; and the workers' pids."""
        marks = tmp_path / "marks"
        marks.mkdir()
        run = subprocess.Popen([sys.executable, "-c", STUCK_RUN, str(marks), "run", "--config",
                                str(small_cfg), "--out", str(tmp_path / "out")],
                               env=src_env(), stderr=subprocess.PIPE, text=True)
        deadline = time.monotonic() + 60
        while len(list(marks.iterdir())) < 2 and time.monotonic() < deadline:
            if run.poll() is not None:
                break
            time.sleep(0.05)
        return run, [int(p.name) for p in marks.iterdir()]

    @needs_proc
    def test_killed_run_leaves_no_worker(self, small_cfg, tmp_path):
        run, workers = self.stuck_run(small_cfg, tmp_path)
        run.kill()
        run.communicate(timeout=60)
        assert len(workers) == 2
        assert_ended(workers)

    @needs_proc
    def test_killed_worker_is_a_training_failure(self, small_cfg, tmp_path):
        run, workers = self.stuck_run(small_cfg, tmp_path)
        try:
            assert len(workers) == 2
            os.kill(workers[0], signal.SIGKILL)
            err = run.communicate(timeout=60)[1]
        finally:
            if run.poll() is None:
                run.kill()
                run.communicate(timeout=60)
            assert_ended(workers)
        message = "a worker process died before it answered (exit code -9)"
        assert run.returncode == 3, err
        assert err.splitlines() == [f"worker failure: {message}"]
        log = (tmp_path / "out" / "run.log").read_text().splitlines()
        assert log[-1] == f"error: WorkerDied: {message}"

    @needs_proc
    def test_worker_runs_one_blas_thread(self):
        env = src_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        done = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        parent, pinned, *workers = done.stdout.split()
        assert pinned == "1"
        assert len(workers) == 4             # (pid, threads) of two tasks
        pids, threads = workers[0::2], workers[1::2]
        assert parent not in pids
        if threads[0] == "None":
            pytest.skip("no OpenBLAS thread-count symbol in this numpy")
        assert threads == ["1", "1"]

    def test_users_blas_setting_wins(self):
        done = subprocess.run(
            [sys.executable, "-c",
             "import os, reslearn.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"],
            env=src_env(OPENBLAS_NUM_THREADS="3"), capture_output=True, text=True, timeout=60)
        assert done.stdout.strip() == "3", done.stderr


# Minor page faults of CYCLES rounds of one op on a 1 MiB array, the array and
# its result both freed, in a process that has imported the CLI. glibc's default
# gives the freed heap top back to the kernel on each round.
ALLOC_CYCLES = 200
ALLOC_FAULTS = (
    "import resource, reslearn.cli, numpy as np\n"
    "def faults(cycles):\n"
    "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
    "    for _ in range(cycles):\n"
    "        a = np.ones(1 << 17)\n"
    "        b = a + 1.0\n"
    "        del a, b\n"
    "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
    "faults(1)\n"
    f"print(faults({ALLOC_CYCLES}))\n"
)

needs_glibc = pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc")


@needs_glibc
class TestAllocator:
    def alloc_faults(self, **env) -> int:
        env = {k: v for k, v in src_env(**env).items() if k not in cli.MALLOC_VARS or k in env}
        done = subprocess.run([sys.executable, "-c", ALLOC_FAULTS], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        return int(done.stdout)

    def test_freed_memory_stays_mapped(self):
        assert self.alloc_faults() < 1000

    def test_users_malloc_setting_wins(self):
        faults = self.alloc_faults(GLIBC_TUNABLES="glibc.malloc.mmap_threshold=131072")
        assert faults > 100 * ALLOC_CYCLES


# modules that a command loads only when it runs them. Measured with
# `python -X importtime` on a 2-vCPU VM (Python 3.11, numpy 2.4.6, no bytecode
# caches): numpy took 72-82 ms, `numpy.random` 14-27 ms, `concurrent.futures`
# 6-11 ms and `multiprocessing` 6-7 ms; config, ingest, viewframe and synth,
# which `evaluate` does not run, about 40 ms between them
DEFERRED_MODULES = ("concurrent.futures", "multiprocessing", "numpy.random")
PIPELINE_MODULES = tuple(f"reslearn.{m}" for m in ("config", "ingest", "viewframe", "synth",
                                                   "harness"))


def loaded_after(code: str, modules) -> list[str]:
    """Those of `modules` that a fresh interpreter holds after running `code`,
    which must print nothing."""
    done = subprocess.run([sys.executable, "-c", code + "\nimport sys\n"
                           f"print(*[m for m in {tuple(modules)!r} if m in sys.modules])"],
                          env=src_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_cli_import_defers_pools_and_random():
    assert loaded_after("import reslearn.cli", ("numpy", *DEFERRED_MODULES)) == []


def test_help_loads_no_numpy():
    code = ("import contextlib, io\nfrom reslearn.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n        main(['--help'])\n    except SystemExit:\n        pass")
    assert loaded_after(code, ("numpy",)) == []


def test_evaluate_loads_only_its_own_modules(small_cfg, tmp_path):
    out = tmp_path / "ckpts"
    assert main(["train", "--config", str(small_cfg), "--out", str(out)]) == 0
    features = tmp_path / "features.csv"
    features.write_text(FEATURES_CSV)
    argv = ["evaluate", "--model", str(sorted(out.glob("*.npz"))[0]),
            "--features", str(features)]
    code = ("import contextlib, io\nfrom reslearn.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0")
    assert loaded_after(code, DEFERRED_MODULES + PIPELINE_MODULES) == []


def test_eda_loads_only_seriesprep(tmp_path):
    features = tmp_path / "features.csv"
    features.write_text(FEATURES_CSV)
    argv = ["eda", "--features", str(features)]
    code = ("import contextlib, io\nfrom reslearn.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0")
    others = {f"reslearn.{m.name}" for m in pkgutil.iter_modules(reslearn.__path__)}
    others -= {"reslearn.cli", "reslearn.errors", "reslearn.seriesprep"}
    assert loaded_after(code, DEFERRED_MODULES + tuple(sorted(others))) == []


@pytest.mark.parametrize("source", ["pcap", "features"])
def test_run_loads_no_pool_or_masked_arrays(source, tmp_path):
    """`run` on two CPUs forks its training workers itself, with no process
    pool, and finds the thresholds' distinct IATs and the runs test's median
    without `numpy.ma`."""
    if source == "pcap":
        pcap = tmp_path / "t.pcap"
        packets = gen_trace(parse_config(PACKET_CFG).trace_spec())[0]
        pcap.write_bytes(write_pcap(packets, EndpointFilter("10.0.0.1")))
        setting = PACKET_CFG + f"input_kind = pcap\ninput_path = {pcap}\nserver = 10.0.0.1\n"
    else:
        features = tmp_path / "features.csv"
        features.write_text("segment,f_c,f_s,f_iat\n"
                            + "".join(f"{i},1,{100 + i % 7},NA\n" for i in range(130)))
        setting = SMALL_CFG + f"input_kind = features\ninput_path = {features}\n"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(setting)
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
    code = ("from reslearn import cli, placement\n"
            "cpus = placement.usable_cpus()\n"
            "placement.usable_cpus = lambda: (cpus * 2)[:2]\n"
            f"assert cli.main({argv!r}) == 0")
    assert loaded_after(code, ("numpy.ma", "multiprocessing", "concurrent.futures")) == []
    assert "segments: X=2 " in (tmp_path / "out" / "run.log").read_text()


class TestGarbageCollector:
    """`main` runs with the cyclic GC off until the command's modules are
    loaded; it is on again however `main` ends, since callers run it
    in-process."""

    def test_on_after_success(self, tmp_path):
        assert main(["synth", "--seed", "3", "--out", str(tmp_path / "s.csv")]) == 0
        assert gc.isenabled()

    def test_on_after_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("colour = blue\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert gc.isenabled()

    def test_on_after_data_error(self, tmp_path):
        argv = ["evaluate", "--model", str(tmp_path / "absent.npz"), "--features",
                str(tmp_path / "absent.csv")]
        assert main(argv) == 2
        assert gc.isenabled()

    def test_on_after_training_failure(self, tmp_path):
        diverging_features(tmp_path / "features.csv", [0, 1, 2])
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(PARALLEL_CFG + f"input_path = {tmp_path / 'features.csv'}\n")
        with on_cpus(1):
            assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert gc.isenabled()

    def test_on_after_usage_error(self):
        with pytest.raises(SystemExit):
            main(["run", "--jobs", "2"])
        assert gc.isenabled()


class TestTrainEvaluate:
    def test_round_trip(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "ckpts"
        assert main(["train", "--config", str(small_cfg), "--out", str(out)]) == 0
        ckpts = sorted(out.glob("ckpt_fcnn_seg*.npz"))
        assert len(ckpts) == 2

        features = tmp_path / "features.csv"
        features.write_text(FEATURES_CSV)
        rc = main(["evaluate", "--model", str(ckpts[0]),
                   "--features", str(features), "--feature", "f_s"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "model,rmse,mape,smape"
        assert lines[1].startswith("base,")
        assert lines[2].startswith("reslearn,")

    def test_evaluate_predicts_once_per_model(self, small_cfg, tmp_path, monkeypatch):
        out = tmp_path / "ckpts"
        assert main(["train", "--config", str(small_cfg), "--out", str(out)]) == 0
        features = tmp_path / "features.csv"
        features.write_text(FEATURES_CSV)
        loaded, calls = [], []
        real_load, real_predict = load_reslearn, Predictor.predict
        # evaluate imports it from reslearn.residual when it runs
        monkeypatch.setattr("reslearn.residual.load_reslearn",
                            lambda path: loaded.append(real_load(path)) or loaded[-1])
        monkeypatch.setattr(Predictor, "predict", lambda model, x, **kw:
                            calls.append(model) or real_predict(model, x, **kw))
        ckpt = sorted(out.glob("ckpt_fcnn_seg*.npz"))[0]
        assert main(["evaluate", "--model", str(ckpt), "--features", str(features)]) == 0
        assert len(calls) == 2
        assert calls[0] is loaded[0].base and calls[1] is loaded[0].residual

    def test_dead_inference_worker_is_one_line_and_exit_3(self, tmp_path, monkeypatch,
                                                          capsys):
        """On two CPUs, `evaluate` of 96 windows predicts its three blocks in
        two children; a child that dies ends it with one line."""
        model = build_predictor(PredictorConfig(kind="fcnn", lookback=4, hidden_width=8))
        ckpt = tmp_path / "ckpt.npz"
        save_reslearn(ResLearnModel(model, model, 0.5, Scaler(0.0, 10.0)), ckpt)
        features = tmp_path / "features.csv"
        features.write_text("segment,f_c,f_s,f_iat\n"
                            + "".join(f"{i},1,5.0,NA\n" for i in range(100)))
        parent, real_forward = os.getpid(), type(model)._forward

        def forward(self, params, inputs):
            if os.getpid() != parent:
                os._exit(1)
            return real_forward(self, params, inputs)

        monkeypatch.setattr(type(model), "_forward", forward)
        with on_cpus(2):
            assert main(["evaluate", "--model", str(ckpt), "--features", str(features)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "worker failure: a worker process died before it answered (exit code 1)"]

    @staticmethod
    def evaluate_huge_value(tmp_path, at: int) -> subprocess.CompletedProcess:
        """`reslearn evaluate` of an fcnn checkpoint (lookback 4) on 30 rows
        of 5.0 with 1e300 at row `at`, in a fresh interpreter."""
        model = build_predictor(PredictorConfig(kind="fcnn", lookback=4, hidden_width=8))
        ckpt = tmp_path / "ckpt.npz"
        save_reslearn(ResLearnModel(model, model, 0.5, Scaler(0.0, 10.0)), ckpt)
        features = tmp_path / "features.csv"
        features.write_text("segment,f_c,f_s,f_iat\n" + "".join(
            f"{i},1,{1e300 if i == at else 5.0},NA\n" for i in range(30)))
        return subprocess.run([sys.executable, "-m", "reslearn.cli", "evaluate", "--model",
                               str(ckpt), "--features", str(features)],
                              capture_output=True, text=True, env=src_env(), timeout=120)

    def test_evaluate_overflow_names_its_cause(self, tmp_path):
        proc = self.evaluate_huge_value(tmp_path, at=10)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == ("data error: InputOverflow: a window value overflows float32: "
                               "it lies far beyond the training range (past 3.4e38 in scaled "
                               "units)\n")

    def test_evaluate_target_overflow_is_data_error(self, tmp_path):
        # the last row is a target in no input window: only the RMSE's square overflows
        proc = self.evaluate_huge_value(tmp_path, at=29)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == ("data error: InputOverflow: the mean squared error overflows "
                               "float64: an actual value lies far beyond the predictions\n")

    # the relative bound the benchmark puts on `evaluate`'s metrics against a
    # float64 forward of the checkpoint; it covers the 6-significant-digit
    # printing and the float32 forward
    FORWARD_RTOL = 1e-5

    def test_metrics_match_float64_forward(self, small_cfg, tmp_path, capsys):
        cfg = tmp_path / "transformer.cfg"
        cfg.write_text(small_cfg.read_text() + "models = transformer\n")
        out = tmp_path / "ckpts"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        ckpt = out / "ckpt_transformer_seg0.npz"
        values = [100 + 20 * math.sin(i / 7) + (i % 5) for i in range(300)]
        features = tmp_path / "features.csv"
        features.write_text("segment,f_c,f_s,f_iat\n"
                            + "".join(f"{i},1,{v!r},NA\n" for i, v in enumerate(values)))
        capsys.readouterr()
        assert main(["evaluate", "--model", str(ckpt), "--features", str(features)]) == 0
        printed = {name: [float(v) for v in rest] for name, *rest in
                   (line.split(",") for line in capsys.readouterr().out.splitlines()[1:])}

        model = load_reslearn(ckpt)
        x, y = make_windows(model.scaler.transform(np.array(values)), model.base.config.lookback)
        base = model.base._forward(model.base.params, x)[0]
        residual = model.residual._forward(model.residual.params, x)[0]
        actual = model.scaler.inverse(y)
        for name, pred in (("base", model.scaler.inverse(base)),
                           ("reslearn", combine_predictions(model, base, residual))):
            m = evaluate(actual, pred)
            for got, want in zip(printed[name], (m.rmse, m.mape, m.smape)):
                assert abs(got - want) <= self.FORWARD_RTOL * abs(want) + 1e-12, (name, got, want)


class TestBadFeatureCsv:
    @pytest.fixture
    def ckpt(self, tmp_path):
        base = build_predictor(PredictorConfig(kind="fcnn", lookback=4, hidden_width=8))
        residual = build_predictor(PredictorConfig(kind="fcnn", lookback=4, hidden_width=8))
        path = tmp_path / "ckpt.npz"
        save_reslearn(ResLearnModel(base, residual, 0.5, Scaler(0.0, 10.0)), path)
        return path

    @pytest.mark.parametrize("row", ["0,1", "0,1,x,2"])
    @pytest.mark.parametrize("command", ["eda", "evaluate"])
    def test_bad_row_is_data_error(self, command, row, ckpt, tmp_path, capsys):
        features = tmp_path / "bad.csv"
        features.write_text(f"segment,f_c,f_s,f_iat\n{row}\n")
        argv = [command, "--features", str(features)]
        if command == "evaluate":
            argv += ["--model", str(ckpt)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "SchemaMismatch: line 2:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
    @pytest.mark.parametrize("command", ["eda", "evaluate", "run"])
    def test_non_finite_cell_is_data_error(self, command, cell, ckpt, tmp_path, capsys):
        features = tmp_path / "bad.csv"
        features.write_text("segment,f_c,f_s,f_iat\n" + "".join(
            f"{i},1,{cell if i == 15 else 100 + i % 7},NA\n" for i in range(130)))
        if command == "run":
            cfg = tmp_path / "run.cfg"
            cfg.write_text(SMALL_CFG + f"input_kind = features\ninput_path = {features}\n")
            argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
        else:
            argv = [command, "--features", str(features)]
        if command == "evaluate":
            argv += ["--model", str(ckpt)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"SchemaMismatch: line 17: bad f_s {cell!r}" in err
        assert "Traceback" not in err

    def test_na_cells_stay_absent_values(self):
        text = "segment,f_c,f_s,f_iat\n0,1,NA,NA\n1,1,5,0.5\n2,1,NA,NA\n"
        assert read_feature_csv(text, "f_s").tolist() == [0.0, 5.0, 0.0]
        assert read_feature_csv(text, "f_iat").tolist() == [0.5, 0.5, 0.5]


class TestBadSynthSetting:
    @pytest.mark.parametrize("argv, setting", [
        (["run"], "synth_length = 0"),
        (["run"], "synth_period = 0"),
        (["run"], "input_kind = synth-trace\nsynth_fps = 0"),
        (["run"], "input_kind = synth-trace\nsynth_jitter_std = -1"),
        (["synth", "--kind", "series"], "synth_spike_rate = 2"),
        (["synth", "--kind", "trace"], "synth_duration = 0"),
    ], ids=["run-length", "run-period", "run-fps", "run-jitter_std", "synth-spike_rate",
            "synth-duration"])
    def test_named_by_config_key(self, argv, setting, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CFG + setting + "\n")
        out = tmp_path / "out"
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 1
        key = setting.splitlines()[-1].split(" = ")[0]
        assert capsys.readouterr().err.startswith(f"config error: {key} ")
        assert not out.exists()


class TestBadCheckpoint:
    @pytest.mark.parametrize("case", sorted(BAD_VALUES))
    def test_bad_value_is_data_error(self, case, tmp_path, capsys):
        # with no numpy RuntimeWarning either: the test suite makes them errors
        edit, field = BAD_VALUES[case]
        features = tmp_path / "features.csv"
        features.write_text(FEATURES_CSV)
        assert main(["evaluate", "--model", str(checkpoint(tmp_path, edit)),
                     "--features", str(features)]) == 2
        assert capsys.readouterr().err.startswith(f"data error: CheckpointError: {field} ")

    @pytest.mark.parametrize("case", ["not_npz", "meta_not_json", "no_base_config"])
    def test_malformed_checkpoint_is_data_error(self, case, tmp_path, capsys):
        if case == "not_npz":
            ckpt = tmp_path / "ckpt.npz"
            ckpt.write_text("not a checkpoint\n")
        else:
            ckpt = checkpoint(tmp_path, MALFORMED[case])
        features = tmp_path / "features.csv"
        features.write_text(FEATURES_CSV)
        assert main(["evaluate", "--model", str(ckpt), "--features", str(features)]) == 2
        err = capsys.readouterr().err
        assert "CheckpointError" in err
        assert "Traceback" not in err
        if case == "not_npz":             # not numpy's guess at another format
            assert err == "data error: CheckpointError: not an npz archive\n"

    @pytest.mark.parametrize("flag", [0x1, 0x20], ids=["encrypted", "patched_data"])
    def test_unreadable_zip_member_is_data_error(self, flag, tmp_path, capsys):
        # zipfile refuses a member flagged encrypted (RuntimeError) or as
        # compressed patched data (NotImplementedError)
        ckpt = checkpoint(tmp_path)
        raw = bytearray(ckpt.read_bytes())
        at = raw.find(b"PK\x01\x02")
        while at >= 0:                   # the flags of each central-directory header
            raw[at + 8] |= flag
            at = raw.find(b"PK\x01\x02", at + 4)
        ckpt.write_bytes(bytes(raw))
        features = tmp_path / "features.csv"
        features.write_text(FEATURES_CSV)
        assert main(["evaluate", "--model", str(ckpt), "--features", str(features)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: CheckpointError: ")
        assert err.count("\n") == 1


# early-stopping and step settings out of range, by the id of their case
TRAINING_SETTINGS = {
    "patience_negative": "patience = -3\n",
    "patience_zero": "patience = 0\n",
    "min_delta_negative": "min_delta = -1.0\n",
    "min_delta_nan": "min_delta = nan\n",
    "learning_rate_nan": "learning_rate = nan\n",
}


class TestBadUserInput:
    @pytest.mark.parametrize("argv, config", [
        (["ingest", "--server", "999.1.1.1"], None),
        (["ingest", "--server", "10.0.0.1", "--port", "70000"], None),
        (["run"], "input_kind = pcap\nserver = nope\n"),
        (["run"], "input_kind = pcap\nserver = 10.0.0.1\nport = 70000\n"),
        (["run"], SMALL_CFG + "train_ratio = 2\n"),
        (["run"], SMALL_CFG + "segment_size = 4\n"),
        (["eda", "--window", "0"], None),
        (["run"], SMALL_CFG + "eda_window = 0\n"),
        # model settings fail before the input is read: read as a feature
        # CSV, the capture would be a data error
        (["run"], SMALL_CFG + "input_kind = features\nlookback = 0\n"),
        (["run"], SMALL_CFG + "input_kind = features\nepochs = -1\n"),
        (["train"], SMALL_CFG + "input_kind = features\nlookback = 0\n"),
        (["run"], SMALL_CFG + "synth_length = 0\n"),
        (["run"], SMALL_CFG + "models = fcnn, gru, fcnn\n"),
        *[(["run"], SMALL_CFG + setting) for setting in TRAINING_SETTINGS.values()],
        *[(argv, config + setting) for argv, config in (
            (["run"], SMALL_CFG + "input_kind = pcap\nserver = 10.0.0.1\n"),
            (["frames"], ""),
        ) for setting in ("bins = 0\n", "segment_duration = 0\n", "default_dur_th = -1\n")],
    ], ids=["server", "port", "config_server", "config_port", "train_ratio", "segment_size",
            "eda_window_flag", "eda_window_key", "lookback", "epochs", "train_lookback",
            "synth_length", "repeated_model", *TRAINING_SETTINGS, "bins", "segment_duration", "default_dur_th",
            "frames_bins", "frames_segment_duration", "frames_default_dur_th"])
    def test_exits_1_without_traceback(self, argv, config, tmp_path, capsys):
        pcap = tmp_path / "t.pcap"
        pcap.write_bytes(write_pcap(table([(0.0, 1200, DOWNLINK)]), EndpointFilter("10.0.0.1")))
        features = tmp_path / "features.csv"
        features.write_text(FEATURES_CSV)
        if argv[0] == "ingest":
            argv = argv + ["--pcap", str(pcap)]
        elif argv[0] == "eda":
            argv = argv + ["--features", str(features)]
        else:
            cfg = tmp_path / "exp.cfg"
            cfg.write_text(config + f"input_path = {pcap}\n")
            argv = argv + ["--config", str(cfg), "--out", str(tmp_path / "out")]
            if argv[0] == "frames":
                argv += ["--pcap", str(pcap), "--server", "10.0.0.1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("setting, message", [
        ("reslearn = off\n", "unknown key 'reslearn'"),
        # the key of a deleted combine rule, which kept res_b in the forecast
        ("paper_literal_combine = false\n", "unknown key 'paper_literal_combine'"),
        # the key of the deleted CPU budget: the process's affinity sets it
        ("jobs = 2\n", "unknown key 'jobs'"),
        ("residual_epochs = 0\n", "residual_epochs must be >= 1"),
        ("segment_size = 60\nlookback = 8\n", "segment_size 60 is too short for lookback 8"),
        # each part of this split holds one window, but segment() takes no
        # segment under MIN_SEGMENT_SIZE values
        ("synth_length = 70\nsegment_size = 7\nlookback = 1\ntrain_ratio = 0.6\n"
         "val_ratio = 0.5\n", "segment_size must be >= 8"),
        # both stages train with these
        ("patience = 0\n", "config error: patience must be >= 1"),
        ("min_delta = nan\n", "config error: min_delta must be finite and >= 0"),
        ("learning_rate = nan\n", "config error: learning_rate must be finite and positive"),
    ], ids=["reslearn_off", "literal_combine", "jobs", "residual_epochs", "segment_too_short",
            "segment_under_minimum", "patience", "min_delta", "learning_rate"])
    @pytest.mark.parametrize("command", ["run", "train"])
    def test_residual_stage_settings(self, command, setting, message, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CFG + setting)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, kind, code, error", [
        (["run", "--config", "{bad}"], "config", 1, "config error: "),
        (["train", "--config", "{bad}"], "config", 1, "config error: "),
        (["ingest", "--csv", "{bad}"], "packets", 2, "data error: SchemaMismatch: "),
        (["frames", "--csv", "{bad}"], "packets", 2, "data error: SchemaMismatch: "),
        (["run", "--config", "{cfg}"], "packets", 2, "data error: SchemaMismatch: "),
        (["eda", "--features", "{bad}"], "features", 2, "data error: SchemaMismatch: "),
        (["evaluate", "--features", "{bad}", "--model", "{ckpt}"], "features", 2,
         "data error: SchemaMismatch: "),
        (["run", "--config", "{cfg}"], "features", 2, "data error: SchemaMismatch: "),
    ], ids=["run_config", "train_config", "ingest_csv", "frames_csv", "run_csv",
            "eda_features", "evaluate_features", "run_features"])
    def test_non_utf8_input(self, argv, kind, code, error, tmp_path):
        text = {"config": SMALL_CFG, "packets": "ts,length,direction\n0.5,100,down\n",
                "features": FEATURES_CSV}[kind]
        bad = tmp_path / "bad"
        bad.write_bytes(text.encode() + b"# caf\xe9\n")     # Latin-1, not UTF-8
        cfg = tmp_path / "exp.cfg"
        input_kind = "csv" if kind == "packets" else "features"
        cfg.write_text(SMALL_CFG + f"input_kind = {input_kind}\ninput_path = {bad}\n")
        paths = {"bad": bad, "cfg": cfg, "ckpt": checkpoint(tmp_path)}
        argv = [a.format(**paths) for a in argv]
        if argv[0] != "evaluate":
            argv += ["--out", str(tmp_path / "out")]
        proc = subprocess.run([sys.executable, "-m", "reslearn.cli", *argv],
                              capture_output=True, text=True, env=src_env(), timeout=120)
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.startswith(error)
        assert f"{bad}: byte " in proc.stderr and "is not UTF-8" in proc.stderr
        assert "Traceback" not in proc.stderr

    # every text input drops one leading byte-order mark, as editors on
    # Windows write it
    @pytest.mark.parametrize("argv, text", [
        (["synth", "--config", "{path}"], "seed = 3\nsynth_length = 40\n"),
        (["ingest", "--csv", "{path}"], "ts,length,direction\n0.5,100,down\n0.7,90,up\n"),
        (["eda", "--features", "{path}"], FEATURES_CSV),
    ], ids=["synth_config", "ingest_csv", "eda_features"])
    def test_byte_order_mark_is_dropped(self, argv, text, tmp_path):
        outputs = []
        for name, data in (("plain", text.encode()), ("bom", codecs.BOM_UTF8 + text.encode())):
            path = tmp_path / name
            path.write_bytes(data)
            out = tmp_path / f"{name}.out"
            proc = subprocess.run([sys.executable, "-m", "reslearn.cli",
                                   *[a.format(path=path) for a in argv], "--out", str(out)],
                                  capture_output=True, text=True, env=src_env(), timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_segment_size_too_large_to_allocate_is_data_error(self, tmp_path):
        """The config check sizes the split by arithmetic alone, so a segment
        no array could hold passes it and is too long for the series."""
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("segment_size = 10000000000000\n")
        proc = subprocess.run([sys.executable, "-m", "reslearn.cli", "run", "--config", str(cfg),
                               "--out", str(tmp_path / "out")],
                              capture_output=True, text=True, env=src_env(), timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.splitlines() == [
            "data error: SeriesTooShort: 2000 values cannot fill one segment of 10000000000000"]

    # each array is larger than the 128 TiB a process may map on x86-64, so
    # its allocation fails whatever the host's memory and overcommit setting
    @pytest.mark.parametrize("command, setting, shape", [
        ("run", SMALL_CFG + "synth_length = 100000000000000\n", "(100000000000000,)"),
        # raised in a training worker on two or more CPUs
        ("run", SMALL_CFG + "hidden_width = 10000000000000\n", "(4, 10000000000000)"),
        ("frames", "input_kind = synth-trace\nbins = 100000000000000\n", "(100000000000001,)"),
    ], ids=["synth_length", "hidden_width", "bins"])
    def test_setting_too_large_to_allocate_is_data_error(self, command, setting, shape,
                                                         tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(setting)
        out = tmp_path / "out"
        proc = subprocess.run([sys.executable, "-m", "reslearn.cli", command, "--config",
                               str(cfg), "--out", str(out)],
                              capture_output=True, text=True, env=src_env(), timeout=120)
        assert proc.returncode == 2, proc.stderr
        *parsed, line = proc.stderr.splitlines()
        assert len(parsed) == (command == "frames")          # its packet counters
        # numpy's MemoryError, _ArrayMemoryError, names the array
        assert re.match(r"data error: _?\w*MemoryError: Unable to allocate ", line), line
        assert f" for an array with shape {shape} " in line
        if command == "run":
            log = (out / "run.log").read_text().splitlines()
            assert log[-1] == "error: " + line.removeprefix("data error: ")

    def test_non_utf8_offset_counts_the_byte_order_mark(self, tmp_path, capsys):
        data = codecs.BOM_UTF8 + FEATURES_CSV.encode() + b"# caf\xe9\n"
        bad = tmp_path / "bad"
        bad.write_bytes(data)
        assert main(["eda", "--features", str(bad)]) == 2
        assert f"{bad}: byte {data.index(0xE9)} is not UTF-8" in capsys.readouterr().err

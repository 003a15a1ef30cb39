"""Self-tests of the benchmark: every output check accepts a real output of
the program and rejects one corrupted value, and every generator's planted
truth agrees with what it wrote. Small sizes; runs in seconds.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import struct
import sys
import unittest
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import checks, inputs, spec  # noqa: E402
from perfbench.run import (ROOT, WORK_ROOT, Tally, TrainSpiky, cli, end_to_end,  # noqa: E402
                           launch, summarize)

WORK = WORK_ROOT / "selftest"
SMALL_SESSION = {"seed": 5, "duration_s": 3.0}


def run_ok(*args: str):
    proc = launch(cli(*args), WORK)
    if proc.code != 0:
        raise AssertionError(f"reslearn {' '.join(args)} exited {proc.code}: {proc.stderr}")
    return proc


def read_pcap(data: bytes) -> list[tuple[int, int, str | None]]:
    """(time us, length, 'down' / 'up' / None) per record, from the file
    format alone."""
    assert struct.unpack_from("<I", data, 0)[0] == 0xA1B2C3D4
    server = bytes(int(p) for p in inputs.SERVER.split("."))
    out, off = [], 24
    while off < len(data):
        sec, usec, incl, _ = struct.unpack_from("<IIII", data, off)
        frame = data[off + 16:off + 16 + incl]
        off += 16 + incl
        direction = None
        if struct.unpack_from("!H", frame, 12)[0] == inputs.ETH_IPV4:
            src, dst = frame[26:30], frame[30:34]
            direction = "down" if src == server else "up" if dst == server else None
        out.append((sec * 1_000_000 + usec, incl, direction))
    return out


class GeneratorTruth(unittest.TestCase):
    def test_feature_csv_carries_the_series_exactly(self):
        values = inputs.spiky_series(300, 3)
        lines = inputs.feature_csv(values).splitlines()
        self.assertEqual(lines[0], inputs.FEATURE_HEADER)
        back = np.array([float(ln.split(",")[2]) for ln in lines[1:]])
        self.assertTrue(np.array_equal(back, values))
        self.assertTrue(np.array_equal(values, inputs.spiky_series(300, 3)))
        self.assertFalse(np.array_equal(values, inputs.spiky_series(300, 4)))

    def test_spikes_are_planted(self):
        spikes = inputs.spike_component(2000)
        self.assertTrue(np.all(spikes >= 0.0))
        self.assertGreater(spikes.max(), 0.8 * inputs.SPIKE_HEIGHT)
        self.assertEqual(np.count_nonzero(spikes),
                         2000 // inputs.SPIKE_EVERY * len(inputs.SPIKE_SHAPE))
        # what is left after the spikes and the smooth part is the seed's noise
        t = np.arange(2000)
        smooth = inputs.LEVEL + inputs.AMPLITUDE * np.sin(2 * np.pi * t / inputs.PERIOD)
        noise = inputs.spiky_series(2000, 3) - spikes - smooth
        self.assertLess(abs(noise.std() - inputs.NOISE_STD), 0.1)
        self.assertLess(abs(noise.mean()), 0.1)

    def test_session_truth_matches_its_capture(self):
        session = inputs.xr_session(**SMALL_SESSION)
        records = read_pcap(session.pcap)
        kept = [(t, ln, d) for t, ln, d in records if d is not None]
        self.assertEqual(len(kept), session.kept)
        self.assertEqual(len(records) - len(kept), session.skipped)
        t0 = kept[0][0]
        first = [ln for t, ln, _ in kept if t - t0 < inputs.SEGMENT_US]
        self.assertEqual(max(first), session.first_segment_max_len)
        # frames: downlink packets of at least a quarter of the largest
        # length, split where the gap exceeds the intra-frame spacing
        th = session.first_segment_max_len / 4
        frames = []
        for t, ln, d in kept:
            if d != "down" or ln < th:
                continue
            if frames and t - frames[-1][1] <= inputs.INTRA_US:
                frames[-1][1], frames[-1][2] = t, frames[-1][2] + ln
            else:
                frames.append([t, t, ln])
        got = np.array(frames) - [t0, t0, 0]
        self.assertTrue(np.array_equal(got[:, 0], session.frame_starts_us))
        self.assertTrue(np.array_equal(got[:, 1], session.frame_ends_us))
        self.assertTrue(np.array_equal(got[:, 2], session.frame_sizes))
        self.assertEqual(session.last_rel_us, kept[-1][0] - t0)
        self.assertGreater(session.min_frame_gap_us(), 10 * inputs.INTRA_US)


class ChecksRejectCorruption(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)

    def test_features_csv_cell(self):
        session = inputs.xr_session(**SMALL_SESSION)
        (WORK / "cap.pcap").write_bytes(session.pcap)
        (WORK / "frames.cfg").write_text("segment_duration = 0.25\n")
        run_ok("frames", "--pcap", "cap.pcap", "--server", inputs.SERVER,
               "--config", "frames.cfg", "--out", "frames")
        out = WORK / "frames"
        self.assertEqual(checks.check_features(out, session), [])
        path = out / "features.csv"
        lines = path.read_text().splitlines()
        seg, f_c, f_s, f_iat = lines[3].split(",")
        lines[3] = ",".join([seg, f_c, str(int(f_s) + 1), f_iat])
        path.write_text("\n".join(lines) + "\n")
        self.assertTrue(checks.check_features(out, session))

    def test_plot_prediction_and_report_metric(self):
        series = inputs.spiky_series(240, 9)
        (WORK / "s.csv").write_text(inputs.feature_csv(series))
        (WORK / "run.cfg").write_text(
            "input_kind = features\ninput_path = s.csv\nmodels = fcnn\nsegment_size = 120\n"
            "lookback = 8\nepochs = 3\nresidual_epochs = 3\nhidden_width = 8\n")
        run_ok("run", "--config", "run.cfg", "--seed", "2", "--out", "run")
        out = WORK / "run"
        errors, acc = checks.check_run(out, ["fcnn"], series, 120, 8)
        self.assertEqual(errors, [])
        self.assertEqual(set(acc), {"test_smape", "base_test_smape"})

        plot = out / "plot_fcnn_reslearn_seg1.csv"
        original = plot.read_text()
        lines = original.splitlines()
        actual, predicted = lines[5].split(",")
        lines[5] = f"{actual},{float(predicted) * 1.05:.6g}"
        plot.write_text("\n".join(lines) + "\n")
        self.assertTrue(checks.check_run(out, ["fcnn"], series, 120, 8)[0])
        plot.write_text(original)

        report = out / "report_fcnn.csv"
        rows = report.read_text().splitlines()
        i = next(k for k, r in enumerate(rows) if ",fcnn,test," in r)
        cells = rows[i].split(",")
        cells[5] = format(float(cells[5]) * 1.001, ".6g")          # smape
        rows[i] = ",".join(cells)
        report.write_text("\n".join(rows) + "\n")
        self.assertTrue(checks.check_run(out, ["fcnn"], series, 120, 8)[0])

    def test_evaluate_printed_metric(self):
        (WORK / "train.csv").write_text(inputs.feature_csv(inputs.spiky_series(120, 1)))
        long = inputs.spiky_series(300, 2)
        (WORK / "long.csv").write_text(inputs.feature_csv(long))
        (WORK / "train.cfg").write_text(
            "input_kind = features\ninput_path = train.csv\nmodels = transformer\n"
            "segment_size = 120\nlookback = 8\nepochs = 2\nresidual_epochs = 2\n"
            "d_model = 8\nn_heads = 2\nn_layers = 2\nffn_width = 16\nhidden_width = 8\n")
        run_ok("train", "--config", "train.cfg", "--seed", "4", "--out", "ckpt")
        ckpt = WORK / "ckpt" / "ckpt_transformer_seg0.npz"
        stdout = run_ok("evaluate", "--model", str(ckpt), "--features", "long.csv").stdout
        errors, acc = checks.check_evaluate(stdout, ckpt, long)
        self.assertEqual(errors, [])
        lines = stdout.splitlines()
        name, rmse, mape, smape = lines[2].split(",")
        lines[2] = ",".join([name, rmse, mape, format(float(smape) * 1.0001, ".6g")])
        self.assertTrue(checks.check_evaluate("\n".join(lines), ckpt, long)[0])


class Bookkeeping(unittest.TestCase):
    def test_benchmark_json_matches_spec(self):
        on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(on_disk, spec.benchmark_json())

    def test_metric_without_sample_is_left_out(self):
        # a run whose operation failed has set-up samples only, no accuracy
        metrics = end_to_end(TrainSpiky(WORK, 1), [0.3, 0.5, 0.4], [], Tally())
        self.assertEqual(metrics, {"setup_s": 0.4})

    def test_self_time_subtracts_direct_children(self):
        spans = [["a", 0.0, 10.0, -1, "r"], ["b", 1.0, 4.0, 0, "r"],
                 ["c", 2.0, 3.0, 1, "r"], ["b", 5.0, 6.0, 0, "r"]]
        s = summarize(spans)
        self.assertEqual(s["a"], {"calls": 1, "total_s": 10.0, "self_s": 6.0})
        self.assertEqual(s["b"], {"calls": 2, "total_s": 4.0, "self_s": 3.0})
        self.assertEqual(s["c"]["self_s"], 1.0)


if __name__ == "__main__":
    unittest.main()

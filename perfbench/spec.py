"""The fixed form of the benchmark: what BENCHMARK.json holds.

`python3 perfbench/run.py --write-spec` writes it; selftest.py checks that
the file in the repository still matches.
"""

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

WORKLOADS = [
    {"name": "train-spiky",
     "why": "the README example's spiky series and models as a features CSV, 10 fixed "
            "epochs: transformer, LSTM and residual FCNN training do nearly all of the "
            "work, ingest none"},
    {"name": "ingest-pcap",
     "why": "a 480 s XR capture of 0.44 M packets, frames shaped as synth.TraceSpec, "
            "through pcap parsing, thresholds, frame grouping and features; one cheap "
            "FCNN, so ingest dominates"},
    {"name": "infer-long",
     "why": "evaluate of a transformer+FCNN checkpoint on 2000 rows, trained in set-up: "
            "forward only on large batches, the opposite use of models to train-spiky"},
]

# bound: the share of the parent's median by which a metric may worsen.
# README.md gives the spreads they were set from: the largest allowed on the
# times, whose host moves in phases; on accuracy, whose medians repeat
# exactly between sets, about three times the largest spread across seeds.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "test_smape", "unit": "fraction", "better": "lower", "bound": 0.12},
    {"name": "base_test_smape", "unit": "fraction", "better": "lower", "bound": 0.12},
]

MODEL_KINDS = ("transformer", "lstm", "fcnn")


def _per_layer():
    rows = [
        ("ingest.parse_pcap_s", "s", "lower"),
        ("ingest.packets_per_s", "1/s", "higher"),
        ("ingest.packets", "count", "higher"),
        ("ingest.skipped", "count", "higher"),
        ("viewframe.thresholds_s", "s", "lower"),
        ("viewframe.identify_frames_s", "s", "lower"),
        ("viewframe.segment_features_s", "s", "lower"),
        ("viewframe.frames", "count", "higher"),
        ("harness.feature_series_self_s", "s", "lower"),
        ("harness.read_feature_csv_s", "s", "lower"),
        ("harness.eda_s", "s", "lower"),
        ("harness.run_experiment_self_s", "s", "lower"),
        ("seriesprep.s", "s", "lower"),
        ("seriesprep.windows", "count", "lower"),
    ]
    for kind in MODEL_KINDS:
        p = f"models.{kind}."
        rows += [
            (p + "fit_s", "s", "lower"),
            (p + "fit_self_s", "s", "lower"),
            (p + "steps", "count", "lower"),
            (p + "loss_and_grad_s", "s", "lower"),
            (p + "predict_s", "s", "lower"),
            (p + "predict_calls", "count", "lower"),
            (p + "predict_windows", "count", "lower"),
        ]
    rows += [
        ("residual.train_reslearn_s", "s", "lower"),
        ("residual.predict_combined_s", "s", "lower"),
        ("residual.predict_combined_calls", "count", "lower"),
        ("residual.save_s", "s", "lower"),
        ("residual.load_s", "s", "lower"),
        ("metrics.evaluate_s", "s", "lower"),
        ("metrics.evaluate_calls", "count", "lower"),
        ("report.s", "s", "lower"),
        ("report.bytes", "count", "lower"),
        ("process.sys_s", "s", "lower"),
        ("process.minor_faults", "count", "lower"),
        ("process.spans", "count", "lower"),
        ("process.traced_run_s", "s", "lower"),
        ("process.tracing_overhead_s", "s", "lower"),
    ]
    return [{"name": n, "unit": u, "better": b} for n, u, b in rows]


PER_LAYER = _per_layer()


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }

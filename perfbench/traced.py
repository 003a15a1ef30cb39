"""Run one reslearn CLI command in this process with every layer traced.

    python3 perfbench/traced.py SPANS.json RUN_ID -- <reslearn arguments>

The public functions of each reslearn module, and the fit / predict /
loss_and_grad methods of the predictors, are wrapped from outside: src/ is
not touched. Each call records a span (name, start, end, parent, run id) and
some calls add counts at the same boundary. Spans stay in memory and are
written as one JSON file when the command ends, with the measured cost of
one span. The exit code is the CLI's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

MODULES = ("config", "ingest", "viewframe", "harness", "seriesprep", "residual",
           "metrics", "report", "cli")
# layer names for the metrics: this one lives in harness but estimates thresholds
RENAMED = {"harness.estimate_session_thresholds": "viewframe.thresholds"}
TEXT_OUTPUTS = {"report.render_csv", "report.render_json", "report.plot_data_csv",
                "report.comparison_csv"}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []          # [name, start, end, parent, run_id]
        self.counts: dict[str, float] = {}
        self.stack: list[int] = []

    def count(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def call(self, name: str, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        span = [name, time.perf_counter(), 0.0, parent, self.run_id]
        self.spans.append(span)
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def function(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if counter is not None:
                counter(self, result, args)
            if name in TEXT_OUTPUTS:
                self.count("report.bytes", len(result))
            return result

        return wrapper

    def method(self, attr: str, fn):
        def wrapper(model, *args, **kwargs):
            kind = model.config.kind
            result = self.call(f"models.{kind}.{attr}", fn, (model,) + args, kwargs)
            if attr == "predict":
                self.count(f"models.{kind}.predict_windows", len(args[0]))
            return result

        return functools.wraps(fn)(wrapper)


COUNTERS = {
    "ingest.parse_pcap": lambda t, r, a: (t.count("ingest.packets", len(r.records)),
                                          t.count("ingest.skipped", r.skipped)),
    "viewframe.identify_frames": lambda t, r, a: t.count("viewframe.frames", len(r)),
    "seriesprep.make_windows": lambda t, r, a: t.count("seriesprep.windows", len(r[1])),
}


def install(tracer: Tracer) -> None:
    """Replace every public function of the listed modules, in every reslearn
    namespace that holds it, and the predictor methods, with traced wrappers."""
    mods = {m: importlib.import_module(f"reslearn.{m}") for m in MODULES}
    wrapped = {}
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                name = RENAMED.get(f"{short}.{attr}", f"{short}.{attr}")
                wrapped[obj] = tracer.function(name, obj)
    for mod in list(mods.values()) + [importlib.import_module("reslearn.models")]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    base = importlib.import_module("reslearn.models.base").Predictor
    for attr in ("fit", "predict", "loss_and_grad"):
        setattr(base, attr, tracer.method(attr, getattr(base, attr)))


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds that tracing adds to one call: a wrapped empty function
    against the bare one, the median of a few repeats."""
    def empty():
        return None

    wrapped = Tracer("calibration").function("calibration", empty)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            empty()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(max((t2 - t1) - (t1 - t0), 0.0) / calls)
    return statistics.median(costs)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    install(tracer)
    cli = importlib.import_module("reslearn.cli")
    start = time.perf_counter()
    code = cli.main(cli_args)
    wall = time.perf_counter() - start
    with open(spans_path, "w") as fh:
        json.dump({"run_id": run_id, "argv": cli_args, "wall_s": wall,
                   "span_cost_s": span_cost(), "spans": tracer.spans,
                   "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

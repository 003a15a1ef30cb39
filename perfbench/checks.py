"""Output checks computed apart from the program.

Each check recomputes what an output must say from the benchmark's own
inputs, formulas and numpy forward passes, never from a stored copy of an
earlier output. Every check returns a list of error strings; empty means
the output passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from perfbench import inputs

# the program prints floats with 6 significant digits
SIG6 = 5e-6
# infer-long: 6-digit printing plus float64 reordering between two forwards
FORWARD_RTOL = 1e-5
ZERO = 1e-12


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol


# --- metric formulas ------------------------------------------------------

def metrics(actual: np.ndarray, predicted: np.ndarray) -> dict[str, float]:
    """RMSE, MAPE and SMAPE as fractions; zero-denominator terms skipped."""
    err = predicted - actual
    a_mask = np.abs(actual) > ZERO
    denom = (np.abs(actual) + np.abs(predicted)) / 2.0
    s_mask = denom > ZERO
    return {
        "rmse": math.sqrt(float(np.mean(err * err))),
        "mape": float(np.mean(np.abs(err[a_mask]) / np.abs(actual[a_mask]))),
        "smape": float(np.mean(np.abs(err[s_mask]) / denom[s_mask])),
    }


def metric_tolerance(actual: np.ndarray, predicted: np.ndarray) -> dict[str, float]:
    """Worst-case change of each metric when every input value carries the
    rounding of 6 significant digits, plus the rounding of the printed
    metric itself."""
    e = SIG6 * (np.abs(actual) + np.abs(predicted))      # bound on |d err_i|
    m = metrics(actual, predicted)
    a_mask = np.abs(actual) > ZERO
    denom = (np.abs(actual) + np.abs(predicted)) / 2.0
    s_mask = denom > ZERO
    mape_terms = np.abs(predicted - actual)[a_mask] / np.abs(actual[a_mask])
    smape_terms = np.abs(predicted - actual)[s_mask] / denom[s_mask]
    tol = {
        "rmse": math.sqrt(float(np.mean(e * e))),
        "mape": float(np.mean(e[a_mask] / np.abs(actual[a_mask]) + 2 * SIG6 * mape_terms)),
        "smape": float(np.mean(e[s_mask] / denom[s_mask] + 2 * SIG6 * smape_terms)),
    }
    return {k: 2.0 * (tol[k] + SIG6 * abs(m[k])) + ZERO for k in tol}


# --- reslearn run outputs --------------------------------------------------

def expected_test_targets(series: np.ndarray, segment_size: int, lookback: int) -> list:
    """Per segment, the one-step targets of its test half (the README's
    chronological 50/50 split)."""
    out = []
    for i in range(series.size // segment_size):
        seg = series[i * segment_size:(i + 1) * segment_size]
        out.append(seg[segment_size // 2:][lookback:])
    return out


def check_run(out: Path, kinds: list[str], series: np.ndarray, segment_size: int,
              lookback: int) -> tuple[list[str], dict[str, float]]:
    """Check a `reslearn run` output directory against the series the
    benchmark handed over. Returns (errors, {test_smape, base_test_smape})."""
    errors: list[str] = []
    targets = expected_test_targets(series, segment_size, lookback)
    n_seg = len(targets)
    if n_seg == 0:
        return [f"series of {series.size} fills no segment"], {}
    means: dict[tuple[str, str, str], float] = {}
    for kind in kinds:
        report_path = out / f"report_{kind}.csv"
        if not report_path.exists():
            errors.append(f"missing {report_path.name}")
            continue
        rows = read_rows(report_path)
        failed = [r["segment"] for r in rows if r["stage"] == "failed"]
        if failed:
            errors.append(f"{kind}: segments {failed} failed")
        by_key = {(int(r["segment"]), r["model"], r["stage"]): r for r in rows
                  if r["stage"] != "failed"}
        for variant, model, plot_tag in (("base", kind, kind),
                                         ("reslearn", f"{kind}+reslearn", f"{kind}_reslearn")):
            for stage in ("val", "test"):
                vals = [float(by_key[(i, model, stage)]["smape"]) for i in range(n_seg)
                        if (i, model, stage) in by_key]
                if len(vals) != n_seg:
                    errors.append(f"{kind}: {len(vals)} {model} {stage} rows, want {n_seg}")
                    continue
                means[(kind, variant, stage)] = sum(vals) / n_seg
            for i in range(n_seg):
                errors += _check_plot(out / f"plot_{plot_tag}_seg{i}.csv", targets[i],
                                      by_key.get((i, model, "test")))
    errors += _check_comparison(out / "comparison.csv", kinds, means)
    if errors:
        return errors, {}
    return errors, {
        "test_smape": sum(means[(k, "reslearn", "test")] for k in kinds) / len(kinds),
        "base_test_smape": sum(means[(k, "base", "test")] for k in kinds) / len(kinds),
    }


def _check_plot(path: Path, want_actual: np.ndarray, report_row: dict | None) -> list[str]:
    if not path.exists():
        return [f"missing {path.name}"]
    rows = read_rows(path)
    actual = np.array([float(r["actual"]) for r in rows])
    predicted = np.array([float(r["predicted"]) for r in rows])
    if actual.size != want_actual.size:
        return [f"{path.name}: {actual.size} rows, want {want_actual.size}"]
    bad = np.abs(actual - want_actual) > SIG6 * np.abs(want_actual) + ZERO
    if bad.any():
        i = int(np.argmax(bad))
        return [f"{path.name}: actual[{i}] = {actual[i]!r}, want {want_actual[i]!r}"]
    if not np.all(np.isfinite(predicted)):
        return [f"{path.name}: non-finite prediction"]
    if report_row is None:
        return [f"{path.name}: no matching test row in the report"]
    mine = metrics(actual, predicted)
    tol = metric_tolerance(actual, predicted)
    return [f"{path.name}: report {k} {report_row[k]} vs {mine[k]:.9g} from the plot"
            for k in ("rmse", "mape", "smape")
            if not close(float(report_row[k]), mine[k], tol[k])]


def _check_comparison(path: Path, kinds: list[str], means: dict) -> list[str]:
    if not path.exists():
        return ["missing comparison.csv"]
    rows = {(r["model"], r["variant"]): r for r in read_rows(path)}
    errors = []
    for kind in kinds:
        for variant in ("base", "reslearn"):
            row = rows.get((kind, variant))
            if row is None:
                errors.append(f"comparison.csv: no {kind},{variant} row")
                continue
            for stage in ("val", "test"):
                want = means.get((kind, variant, stage))
                if want is None:
                    continue
                got = float(row[f"{stage}_smape"])
                if not close(got, want, 2 * SIG6 * (abs(want) + abs(got)) + ZERO):
                    errors.append(f"comparison.csv: {kind} {variant} {stage}_smape {got!r}, "
                                  f"mean of report rows {want!r}")
    return errors


# --- capture features ------------------------------------------------------

def check_features(out: Path, session: inputs.Session) -> list[str]:
    """features.csv and thresholds.json against the planted session."""
    errors = []
    th = json.loads((out / "thresholds.json").read_text())
    want_len = session.first_segment_max_len / 4
    if not close(th["len_th"], want_len, 1e-9 * want_len):
        errors.append(f"len_th {th['len_th']!r}, want {want_len!r}")
    lo = inputs.INTRA_US / 1e6
    hi = session.min_frame_gap_us() / 1e6
    if not lo < th["dur_th"] < hi:
        errors.append(f"dur_th {th['dur_th']!r} outside ({lo!r}, {hi!r})")
    rows = read_rows(out / "features.csv")
    planted = session.features()
    if len(rows) < len(planted):
        return errors + [f"features.csv has {len(rows)} rows, want >= {len(planted)}"]
    for i, (f_c, f_s, f_iat) in enumerate(planted):
        row = rows[i]
        got_iat = row["f_iat"]
        if int(row["segment"]) != i or int(row["f_c"]) != f_c or int(row["f_s"]) != f_s:
            errors.append(f"features.csv row {i}: {row}, want f_c={f_c} f_s={f_s}")
        elif f_iat is None:
            if got_iat != "NA":
                errors.append(f"features.csv row {i}: f_iat {got_iat}, want NA")
        elif got_iat == "NA" or not close(float(got_iat), f_iat, 2 * SIG6 * f_iat + 1e-9):
            errors.append(f"features.csv row {i}: f_iat {got_iat}, want {f_iat!r}")
        if len(errors) > 5:
            break
    return errors


# --- infer-long: an independent forward of the checkpoint ------------------

LN_EPS = 1e-5


def _layer_norm(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return gain * (x - mu) / np.sqrt(var + LN_EPS) + bias


def _sinusoids(length: int, d: int) -> np.ndarray:
    pos = np.arange(length)[:, None]
    freq = 10000.0 ** (-(2 * (np.arange(d) // 2)) / d)
    angle = pos * freq[None, :]
    return np.where(np.arange(d) % 2 == 0, np.sin(angle), np.cos(angle))


def encoder_forward(p: dict, cfg: dict, x: np.ndarray) -> np.ndarray:
    """Post-norm transformer encoder, mean-pooled, linear head: (n, w) -> (n,)."""
    d, heads = cfg["d_model"], cfg["n_heads"]
    dh = d // heads
    n, w = x.shape
    h = x[:, :, None] * p["in_W"][0] + p["in_b"] + _sinusoids(w, d)
    for layer in range(cfg["n_layers"]):
        g = lambda name: p[f"l{layer}_{name}"]  # noqa: E731
        q, k, v = ((h @ g(f"W{c}") + g(f"b{c}")).reshape(n, w, heads, dh).transpose(0, 2, 1, 3)
                   for c in "qkv")
        s = np.einsum("nhid,nhjd->nhij", q, k) / math.sqrt(dh)
        s = np.exp(s - s.max(axis=-1, keepdims=True))
        s /= s.sum(axis=-1, keepdims=True)
        ctx = np.einsum("nhij,nhjd->nhid", s, v).transpose(0, 2, 1, 3).reshape(n, w, d)
        h = _layer_norm(h + ctx @ g("Wo") + g("bo"), g("ln1_g"), g("ln1_b"))
        ffn = np.maximum(h @ g("ffn_W1") + g("ffn_b1"), 0.0) @ g("ffn_W2") + g("ffn_b2")
        h = _layer_norm(h + ffn, g("ln2_g"), g("ln2_b"))
    return (h.mean(axis=1) @ p["head_W"] + p["head_b"])[:, 0]


def fcnn_forward(p: dict, x: np.ndarray) -> np.ndarray:
    a = np.maximum(x @ p["W1"] + p["b1"], 0.0)
    a = np.maximum(a @ p["W2"] + p["b2"], 0.0)
    return (a @ p["W3"] + p["b3"])[:, 0]


def reference_forecast(ckpt: Path, series: np.ndarray, chunk: int = 256):
    """(actual, base, combined) in physical units for one-step windows over
    `series`, from the checkpoint's saved weights."""
    with np.load(ckpt, allow_pickle=False) as data:
        meta = json.loads(str(data["__meta__"]))
        base = {k[len("base__"):]: data[k] for k in data.files if k.startswith("base__")}
        res = {k[len("residual__"):]: data[k] for k in data.files if k.startswith("residual__")}
    cfg, rcfg = meta["base_config"], meta["residual_config"]
    if cfg["kind"] != "transformer" or rcfg["kind"] != "fcnn":
        raise ValueError(f"reference covers transformer+fcnn, got {cfg['kind']}+{rcfg['kind']}")
    sc = meta["scaler"]
    span = 1.0 if sc["identity"] else sc["hi"] - sc["lo"]
    shift = 0.0 if sc["identity"] else sc["lo"]
    scaled = (series - shift) / span
    w = cfg["lookback"]
    x = np.lib.stride_tricks.sliding_window_view(scaled[:-1], w)
    b = np.concatenate([encoder_forward(base, cfg, x[i:i + chunk])
                        for i in range(0, x.shape[0], chunk)])
    r = fcnn_forward(res, x)
    comb = b + r if meta["paper_literal_combine"] else b + r - meta["res_b"]
    return series[w:], b * span + shift, comb * span + shift


def check_evaluate(stdout: str, ckpt: Path, series: np.ndarray):
    """The rows `reslearn evaluate` printed against the reference forecast.
    Returns (errors, {test_smape, base_test_smape})."""
    lines = [ln.strip() for ln in stdout.strip().splitlines()]
    if not lines or lines[0] != "model,rmse,mape,smape":
        return [f"unexpected evaluate output {stdout[:80]!r}"], {}
    printed = {}
    for ln in lines[1:]:
        name, *vals = ln.split(",")
        printed[name] = dict(zip(("rmse", "mape", "smape"), map(float, vals)))
    actual, base, comb = reference_forecast(ckpt, series)
    errors = []
    for name, pred in (("base", base), ("reslearn", comb)):
        if name not in printed:
            errors.append(f"evaluate printed no {name} row")
            continue
        mine = metrics(actual, pred)
        for k, want in mine.items():
            got = printed[name][k]
            if not close(got, want, FORWARD_RTOL * abs(want) + ZERO):
                errors.append(f"evaluate {name} {k} {got!r}, reference {want!r}")
    if errors:
        return errors, {}
    return errors, {"test_smape": printed["reslearn"]["smape"],
                    "base_test_smape": printed["base"]["smape"]}

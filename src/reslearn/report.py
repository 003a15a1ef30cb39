"""Deterministic rendering of per-segment reports, comparison tables, and
plot data. Floats are printed with 6 significant digits, LF endings; the x100
display scaling of SMAPE/MAPE appears only here, in columns labeled _pct."""

from __future__ import annotations

import json

from .metrics import smape_improvement
from .residual import SegmentReport

ROW_HEADER = "segment,model,stage,rmse,mape,smape,res_b,epochs"


def _f(x: float) -> str:
    return format(x, ".6g")


def report_rows(reports: list[SegmentReport], model_name: str) -> list[dict]:
    rows = []
    for r in reports:
        if r.failed is not None:
            rows.append({"segment": r.segment_index, "model": model_name,
                         "stage": "failed", "error": r.failed})
            continue
        both = r.base_epochs + r.residual_epochs
        for model, stage, metrics, epochs in (
            (model_name, "val", r.base_val, r.base_epochs),
            (model_name, "test", r.base_test, r.base_epochs),
            (f"{model_name}+reslearn", "val", r.combined_val, both),
            (f"{model_name}+reslearn", "test", r.combined_test, both),
        ):
            rows.append(_row(r, model, stage, metrics, epochs))
    return rows


def _row(r: SegmentReport, model: str, stage: str, metrics, epochs: int) -> dict:
    return {
        "segment": r.segment_index,
        "model": model,
        "stage": stage,
        "rmse": float(_f(metrics.rmse)),
        "mape": float(_f(metrics.mape)),
        "smape": float(_f(metrics.smape)),
        "res_b": float(_f(r.res_b)),
        "epochs": epochs,
    }


def render_csv(rows: list[dict]) -> str:
    lines = [ROW_HEADER]
    for row in rows:
        if row["stage"] == "failed":
            lines.append(f"{row['segment']},{row['model']},failed,NA,NA,NA,NA,NA")
        else:
            lines.append(
                f"{row['segment']},{row['model']},{row['stage']},"
                f"{_f(row['rmse'])},{_f(row['mape'])},{_f(row['smape'])},"
                f"{_f(row['res_b'])},{row['epochs']}"
            )
    return "\n".join(lines) + "\n"


def render_json(rows: list[dict]) -> str:
    return json.dumps(rows, indent=2) + "\n"


def plot_data_csv(actual, predicted) -> str:
    lines = ["actual,predicted"]
    lines += [f"{_f(a)},{_f(p)}" for a, p in zip(actual, predicted)]
    return "\n".join(lines) + "\n"


def comparison_csv(kind_reports: dict[str, list[SegmentReport]]) -> str:
    """One base row and one reslearn row per model kind, with mean SMAPE over
    segments, its x100 display form, and the val-SMAPE improvement."""
    lines = [
        "model,variant,val_smape,val_smape_pct,test_smape,test_smape_pct,val_improvement_pct"
    ]
    for kind, reports in kind_reports.items():
        ok = [r for r in reports if r.failed is None]
        if not ok:
            lines.append(f"{kind},base,NA,NA,NA,NA,NA")
            lines.append(f"{kind},reslearn,NA,NA,NA,NA,NA")
            continue
        base_val = _mean(r.base_val.smape for r in ok)
        base_test = _mean(r.base_test.smape for r in ok)
        comb_val = _mean(r.combined_val.smape for r in ok)
        comb_test = _mean(r.combined_test.smape for r in ok)
        improvement = smape_improvement(base_val, comb_val)
        lines.append(
            f"{kind},base,{_f(base_val)},{_f(100 * base_val)},"
            f"{_f(base_test)},{_f(100 * base_test)},"
        )
        lines.append(
            f"{kind},reslearn,{_f(comb_val)},{_f(100 * comb_val)},"
            f"{_f(comb_test)},{_f(100 * comb_test)},{_f(improvement)}"
        )
    return "\n".join(lines) + "\n"


def _mean(values) -> float:
    vals = list(values)
    return sum(vals) / len(vals)

"""Deterministic rendering of per-segment reports, comparison tables, and
plot data. Floats are printed with 6 significant digits, LF endings; the x100
display scaling of SMAPE/MAPE appears only here, in columns labeled _pct."""

from __future__ import annotations

from dataclasses import dataclass

from .metrics import MetricsResult, smape_improvement, stage_metrics
from .residual import SegmentReport

ROW_HEADER = "segment,model,stage,rmse,mape,smape,res_b,epochs"


def _f(x: float) -> str:
    return format(x, ".6g")


def metric_cells(m: MetricsResult) -> str:
    """The rmse, mape and smape cells of one report row."""
    return f"{_f(m.rmse)},{_f(m.mape)},{_f(m.smape)}"


def render_csv(reports: list[SegmentReport], kind: str) -> str:
    """Four rows per segment that trained (base and combined, val and test)
    and one NA row per segment that failed, in segment order."""
    lines = [ROW_HEADER]
    for r in reports:
        i = r.segment_index
        if r.failed is not None:
            lines.append(f"{i},{kind},failed,NA,NA,NA,NA,NA")
            continue
        base = r.base_trace.epochs_run
        both = base + r.residual_trace.epochs_run
        res_b = _f(r.res_b)
        val, test = stage_metrics(*r.val), stage_metrics(*r.test)
        for model, epochs, v, t in zip((kind, f"{kind}+reslearn"), (base, both), val, test):
            lines.append(f"{i},{model},val,{metric_cells(v)},{res_b},{epochs}")
            lines.append(f"{i},{model},test,{metric_cells(t)},{res_b},{epochs}")
    return "\n".join(lines) + "\n"


def plot_data_csv(actual, predicted) -> str:
    lines = ["actual,predicted"]
    lines += [f"{_f(a)},{_f(p)}" for a, p in zip(actual, predicted)]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SmapeSummary:
    """The mean SMAPE of each stage and split over the segments of one model
    kind that trained, and the val-SMAPE improvement between the means."""

    segments_ok: int
    base_val: float
    base_test: float
    combined_val: float
    combined_test: float
    improvement: float


def smape_summary(reports: list[SegmentReport]) -> SmapeSummary | None:
    """The summary of one kind's reports; None when no segment trained."""
    # per segment: base val, combined val, base test, combined test
    ok = [stage_metrics(*r.val) + stage_metrics(*r.test) for r in reports if r.failed is None]
    if not ok:
        return None
    base_val, combined_val, base_test, combined_test = (
        _mean(m[k].smape for m in ok) for k in range(4))
    return SmapeSummary(len(ok), base_val, base_test, combined_val, combined_test,
                        smape_improvement(base_val, combined_val))


def comparison_csv(summaries: dict[str, SmapeSummary | None]) -> str:
    """One base row and one reslearn row per model kind, with mean SMAPE over
    segments, its x100 display form, and the val-SMAPE improvement."""
    lines = [
        "model,variant,val_smape,val_smape_pct,test_smape,test_smape_pct,val_improvement_pct"
    ]
    for kind, s in summaries.items():
        if s is None:
            lines.append(f"{kind},base,NA,NA,NA,NA,NA")
            lines.append(f"{kind},reslearn,NA,NA,NA,NA,NA")
            continue
        lines.append(
            f"{kind},base,{_f(s.base_val)},{_f(100 * s.base_val)},"
            f"{_f(s.base_test)},{_f(100 * s.base_test)},"
        )
        lines.append(
            f"{kind},reslearn,{_f(s.combined_val)},{_f(100 * s.combined_val)},"
            f"{_f(s.combined_test)},{_f(100 * s.combined_test)},{_f(s.improvement)}"
        )
    return "\n".join(lines) + "\n"


def _mean(values) -> float:
    vals = list(values)
    return sum(vals) / len(vals)

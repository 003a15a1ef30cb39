import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reslearn import harness
from reslearn.config import ExperimentConfig
from reslearn.metrics import MetricsResult
from reslearn.models import TrainTrace
from reslearn.report import (
    ROW_HEADER,
    _f,
    comparison_csv,
    metric_cells,
    plot_data_csv,
    render_csv,
    smape_summary,
)
from reslearn.residual import SegmentReport


def metrics(rmse, mape, smape):
    return MetricsResult(rmse=rmse, mape=mape, smape=smape,
                         n_used=10, n_skipped_zero_denominator=0)


def sample_report(idx=0, failed=None):
    if failed:
        return SegmentReport(segment_index=idx, failed=failed)
    return SegmentReport(
        segment_index=idx,
        res_b=0.123456789,
        base_trace=TrainTrace(train_loss=[0.5] * 12),
        residual_trace=TrainTrace(train_loss=[0.5] * 7),
        base_val=metrics(404.05, 0.40, 0.36),
        base_test=metrics(410.0, 0.41, 0.37),
        combined_val=metrics(0.36, 0.004, 0.00032),
        combined_test=metrics(0.40, 0.005, 0.00035),
    )


# rendered at the commit before the CSV was written straight from the reports,
# when every cell was parsed back to a float before it was printed
GOLDEN_CSV = (
    "segment,model,stage,rmse,mape,smape,res_b,epochs\n"
    "0,transformer,val,404.05,0.4,0.333333,0.123457,12\n"
    "0,transformer,test,1.23457e+06,2.5e-07,0.37,0.123457,12\n"
    "0,transformer+reslearn,val,0.36,0.004,0.00032,0.123457,19\n"
    "0,transformer+reslearn,test,4.94066e-324,1e+16,1,0.123457,19\n"
    "1,transformer,failed,NA,NA,NA,NA,NA\n"
)


class TestRows:
    def test_stages_and_names(self):
        lines = render_csv([sample_report()], "transformer").splitlines()[1:]
        assert [line.split(",")[1:3] for line in lines] == [
            ["transformer", "val"],
            ["transformer", "test"],
            ["transformer+reslearn", "val"],
            ["transformer+reslearn", "test"],
        ]
        assert [line.split(",")[-1] for line in lines] == ["12", "12", "19", "19"]

    def test_failed_row(self):
        """A failed segment is one row of NA cells; its cause, which may hold
        commas, stays out of the CSV."""
        text = render_csv([sample_report(failed="SplitTooSmall: too short, by 3")], "gru")
        assert text == ROW_HEADER + "\n0,gru,failed,NA,NA,NA,NA,NA\n"


class TestRendering:
    def test_csv_layout(self):
        text = render_csv([sample_report()], "lstm")
        lines = text.splitlines()
        assert lines[0] == ROW_HEADER
        assert lines[1].startswith("0,lstm,val,404.05,0.4,0.36,0.123457,12")
        assert text.endswith("\n")
        assert "\r" not in text

    def test_failed_csv_uses_na(self):
        text = render_csv([sample_report(failed="x")], "lstm")
        assert text.splitlines()[1] == "0,lstm,failed,NA,NA,NA,NA,NA"

    def test_metric_cells_are_the_row_cells(self):
        report = sample_report()
        lines = render_csv([report], "fcnn").splitlines()[1:]
        stages = (report.base_val, report.base_test, report.combined_val, report.combined_test)
        for line, m in zip(lines, stages):
            assert ",".join(line.split(",")[3:6]) == metric_cells(m)

    def test_six_significant_digits(self):
        report = sample_report()
        text = render_csv([report], "m")
        assert "0.123457" in text      # res_b rounded to 6 significant digits
        assert "0.123456789" not in text

    def test_deterministic(self):
        reports = [sample_report(0), sample_report(1, failed="y")]
        assert render_csv(reports, "m") == render_csv(reports, "m")

    def test_golden(self):
        good = SegmentReport(
            segment_index=0,
            res_b=0.123456789,
            base_trace=TrainTrace(train_loss=[0.5] * 12),
            residual_trace=TrainTrace(train_loss=[0.5] * 7),
            base_val=metrics(404.0500001, 0.40, 1 / 3),
            base_test=metrics(1234567.89, 2.5e-7, 0.37),
            combined_val=metrics(0.36, 0.004, 0.00032),
            combined_test=metrics(5e-324, 1e16, 0.999999951),
        )
        failed = SegmentReport(
            segment_index=1,
            failed="NonFiniteLoss: validation loss overflows float64 at epoch 0")
        assert render_csv([good, failed], "transformer") == GOLDEN_CSV

    @given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    @example(math.nan)
    @example(math.inf)
    @example(-math.inf)
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(2.2250738585072014e-308)
    @example(1.7976931348623157e308)
    def test_cell_format_is_idempotent(self, x):
        """A cell parsed back and printed again is the same cell, so printing a
        value once gives the bytes of a parse-and-print round trip."""
        assert _f(float(_f(x))) == _f(x)


class TestPlotData:
    def test_layout(self):
        text = plot_data_csv([1.0, 2.5], [1.1, 2.4])
        assert text == "actual,predicted\n1,1.1\n2.5,2.4\n"


class TestEmit:
    """The report files that run_experiment, the one report writer, emits."""

    @pytest.fixture
    def run(self, tmp_path, monkeypatch):
        def run(*reports):
            monkeypatch.setattr(harness, "train_models",
                                lambda cfg, segments: {"gru": list(reports)})
            cfg = ExperimentConfig(models="gru", synth_length=40, segment_size=40,
                                   lookback=3, eda_window=4)
            harness.run_experiment(cfg, tmp_path)
            return [p.name for p in tmp_path.iterdir()]

        return run

    def test_one_report_file(self, run, tmp_path):
        report = sample_report()
        written = run(report)
        assert sorted(written) == ["comparison.csv", "eda.csv", "report_gru.csv", "run.log"]
        assert (tmp_path / "report_gru.csv").read_text() == render_csv([report], "gru")

    def test_failed_segment_cause_in_log(self, run, tmp_path):
        run(sample_report(0, failed="NonFiniteLoss: a"), sample_report(1),
            sample_report(2, failed="InputOverflow: b"))
        log = (tmp_path / "run.log").read_text().splitlines()
        at = log.index("gru: segments_ok=1 val_smape_improvement=99.91%")
        assert log[at + 1:] == ["gru segment 0: NonFiniteLoss: a",
                                "gru segment 2: InputOverflow: b"]

    def test_log_and_comparison_share_the_summary(self, run, tmp_path):
        ok = sample_report(1)
        ok.combined_val = metrics(0.36, 0.004, 0.25)
        run(ok)
        log = (tmp_path / "run.log").read_text().splitlines()
        # 100 * (0.36 - 0.25) / 0.36, at 4 and 6 significant digits
        assert "gru: segments_ok=1 val_smape_improvement=30.56%" in log
        reslearn_row = (tmp_path / "comparison.csv").read_text().splitlines()[2]
        assert reslearn_row.endswith(",30.5556")

    def test_plotdata_files(self, run, tmp_path):
        actual, base, combined = [1.0, 2.0], [1.5, 2.5], [1.25, 2.25]
        report = sample_report(2)
        report.test_series = (actual, base, combined)
        plots = sorted(n for n in run(report) if n.startswith("plot_"))
        assert plots == ["plot_gru_reslearn_seg2.csv", "plot_gru_seg2.csv"]
        assert (tmp_path / plots[1]).read_text() == plot_data_csv(actual, base)
        assert (tmp_path / plots[0]).read_text() == plot_data_csv(actual, combined)


class TestComparison:
    def test_mean_and_improvement(self):
        text = comparison_csv({"transformer": smape_summary([sample_report(0), sample_report(1)])})
        lines = text.splitlines()
        assert lines[0].startswith("model,variant,val_smape")
        base = lines[1].split(",")
        res = lines[2].split(",")
        assert base[:2] == ["transformer", "base"]
        assert float(base[2]) == 0.36
        assert float(base[3]) == 36.0      # x100 display column
        assert res[:2] == ["transformer", "reslearn"]
        # improvement = 100*(0.36-0.00032)/0.36, then rendered at 6 digits
        assert float(res[6]) == float(format(100 * (0.36 - 0.00032) / 0.36, ".6g"))

    def test_all_failed_renders_na(self):
        text = comparison_csv({"gru": smape_summary([sample_report(failed="x")])})
        assert "gru,base,NA,NA,NA,NA,NA" in text

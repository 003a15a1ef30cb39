import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reslearn import harness
from reslearn.config import ExperimentConfig
from reslearn.metrics import MetricsResult, stage_metrics
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
        # (actual, base, combined); SAMPLE_CSV holds their metrics
        val=([4.0, 8.0], [5.0, 6.0], [4.0, 9.0]),
        test=([10.0, 20.0], [12.0, 16.0], [10.0, 21.0]),
    )


# sample_report's rows, by hand: base val errors 1 and -2 give RMSE
# sqrt(5/2), MAPE (1/4 + 2/8)/2 and SMAPE (1/4.5 + 2/7)/2 = 16/63; combined val
# errors 0 and 1 give sqrt(1/2), (1/8)/2 and (1/8.5)/2 = 1/17; base test errors
# 2 and -4 give sqrt(10), (2/10 + 4/20)/2 and (2/11 + 4/18)/2; combined test
# errors 0 and 1 give sqrt(1/2), (1/20)/2 and (1/20.5)/2
SAMPLE_CSV = (
    "segment,model,stage,rmse,mape,smape,res_b,epochs\n"
    "0,transformer,val,1.58114,0.25,0.253968,0.123457,12\n"
    "0,transformer,test,3.16228,0.2,0.20202,0.123457,12\n"
    "0,transformer+reslearn,val,0.707107,0.0625,0.0588235,0.123457,19\n"
    "0,transformer+reslearn,test,0.707107,0.025,0.0243902,0.123457,19\n"
)

# rendered at the commit before the CSV was written straight from the reports,
# when every cell was parsed back to a float before it was printed; its four
# rows' metrics are GOLDEN_METRICS
GOLDEN_CSV = (
    "segment,model,stage,rmse,mape,smape,res_b,epochs\n"
    "0,transformer,val,404.05,0.4,0.333333,0.123457,12\n"
    "0,transformer,test,1.23457e+06,2.5e-07,0.37,0.123457,12\n"
    "0,transformer+reslearn,val,0.36,0.004,0.00032,0.123457,19\n"
    "0,transformer+reslearn,test,4.94066e-324,1e+16,1,0.123457,19\n"
    "1,transformer,failed,NA,NA,NA,NA,NA\n"
)
GOLDEN_METRICS = (metrics(404.0500001, 0.40, 1 / 3), metrics(1234567.89, 2.5e-7, 0.37),
                  metrics(0.36, 0.004, 0.00032), metrics(5e-324, 1e16, 0.999999951))


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
        assert lines[1].startswith("0,lstm,val,1.58114,0.25,0.253968,0.123457,12")
        assert text.endswith("\n")
        assert "\r" not in text

    def test_rows_from_hand_computed_forecasts(self):
        assert render_csv([sample_report()], "transformer") == SAMPLE_CSV

    def test_failed_csv_uses_na(self):
        text = render_csv([sample_report(failed="x")], "lstm")
        assert text.splitlines()[1] == "0,lstm,failed,NA,NA,NA,NA,NA"

    def test_metric_cells_are_the_row_cells(self):
        report = sample_report()
        lines = render_csv([report], "fcnn").splitlines()[1:]
        (base_val, combined_val), (base_test, combined_test) = (
            stage_metrics(*report.val), stage_metrics(*report.test))
        stages = (base_val, base_test, combined_val, combined_test)
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
        """The golden rows' metric cells are metric_cells' text, and their
        other cells and its failed row are render_csv's."""
        rows = GOLDEN_CSV.splitlines()
        assert [",".join(row.split(",")[3:6]) for row in rows[1:5]] == [
            metric_cells(m) for m in GOLDEN_METRICS]
        failed = SegmentReport(
            segment_index=1,
            failed="NonFiniteLoss: validation loss overflows float64 at epoch 0")
        rendered = render_csv([sample_report(), failed], "transformer").splitlines()
        assert [row.split(",")[:3] + row.split(",")[6:] for row in rendered] == [
            row.split(",")[:3] + row.split(",")[6:] for row in rows]

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
        assert sorted(written) == ["comparison.csv", "eda.csv", "plot_gru_reslearn_seg0.csv",
                                   "plot_gru_seg0.csv", "report_gru.csv", "run.log"]
        assert (tmp_path / "report_gru.csv").read_text() == render_csv([report], "gru")

    def test_failed_segment_cause_in_log(self, run, tmp_path):
        run(sample_report(0, failed="NonFiniteLoss: a"), sample_report(1),
            sample_report(2, failed="InputOverflow: b"))
        log = (tmp_path / "run.log").read_text().splitlines()
        # 100 * (16/63 - 1/17) / (16/63), from sample_report's val SMAPEs
        at = log.index("gru: segments_ok=1 val_smape_improvement=76.84%")
        assert log[at + 1:] == ["gru segment 0: NonFiniteLoss: a",
                                "gru segment 2: InputOverflow: b"]

    def test_log_and_comparison_share_the_summary(self, run, tmp_path):
        ok = sample_report(1)
        actual, base, _ = ok.val
        ok.val = (actual, base, [4.0, 11.0])       # val SMAPE (3/9.5)/2 = 3/19
        run(ok)
        log = (tmp_path / "run.log").read_text().splitlines()
        # 100 * (16/63 - 3/19) / (16/63), at 4 and 6 significant digits
        assert "gru: segments_ok=1 val_smape_improvement=37.83%" in log
        reslearn_row = (tmp_path / "comparison.csv").read_text().splitlines()[2]
        assert reslearn_row.endswith(",37.8289")

    def test_plotdata_files(self, run, tmp_path):
        actual, base, combined = [1.0, 2.0], [1.5, 2.5], [1.25, 2.25]
        report = sample_report(2)
        report.test = (actual, base, combined)
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
        assert base[2:4] == ["0.253968", "25.3968"]     # 16/63, and its x100 display column
        assert res[:2] == ["transformer", "reslearn"]
        # improvement = 100*(16/63 - 1/17)/(16/63), then rendered at 6 digits
        assert res[6] == format(100 * (16 / 63 - 1 / 17) / (16 / 63), ".6g")

    def test_all_failed_renders_na(self):
        text = comparison_csv({"gru": smape_summary([sample_report(failed="x")])})
        assert "gru,base,NA,NA,NA,NA,NA" in text

import json

import pytest

from reslearn import harness
from reslearn.config import ExperimentConfig
from reslearn.metrics import MetricsResult
from reslearn.models import TrainTrace
from reslearn.report import (
    ROW_HEADER,
    comparison_csv,
    plot_data_csv,
    render_csv,
    render_json,
    report_rows,
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


class TestRows:
    def test_stages_and_names(self):
        rows = report_rows([sample_report()], "transformer")
        assert [(r["model"], r["stage"]) for r in rows] == [
            ("transformer", "val"),
            ("transformer", "test"),
            ("transformer+reslearn", "val"),
            ("transformer+reslearn", "test"),
        ]
        assert rows[0]["epochs"] == 12
        assert rows[2]["epochs"] == 19

    def test_failed_row(self):
        rows = report_rows([sample_report(failed="SplitTooSmall: too short")], "gru")
        assert rows == [{"segment": 0, "model": "gru", "stage": "failed",
                         "error": "SplitTooSmall: too short"}]


class TestRendering:
    def test_csv_layout(self):
        text = render_csv(report_rows([sample_report()], "lstm"))
        lines = text.splitlines()
        assert lines[0] == ROW_HEADER
        assert lines[1].startswith("0,lstm,val,404.05,0.4,0.36,0.123457,12")
        assert text.endswith("\n")
        assert "\r" not in text

    def test_failed_csv_uses_na(self):
        text = render_csv(report_rows([sample_report(failed="x")], "lstm"))
        assert text.splitlines()[1] == "0,lstm,failed,NA,NA,NA,NA,NA"

    def test_json_numbers_match_csv_strings(self):
        rows = report_rows([sample_report()], "fcnn")
        parsed = json.loads(render_json(rows))
        csv_lines = render_csv(rows).splitlines()[1:]
        for row, line in zip(parsed, csv_lines):
            fields = line.split(",")
            assert row["rmse"] == float(fields[3])
            assert row["smape"] == float(fields[5])
            assert row["res_b"] == float(fields[6])

    def test_six_significant_digits(self):
        report = sample_report()
        text = render_csv(report_rows([report], "m"))
        assert "0.123457" in text      # res_b rounded to 6 significant digits
        assert "0.123456789" not in text

    def test_deterministic(self):
        reports = [sample_report(0), sample_report(1, failed="y")]
        assert render_csv(report_rows(reports, "m")) == render_csv(report_rows(reports, "m"))
        assert render_json(report_rows(reports, "m")) == render_json(report_rows(reports, "m"))


class TestPlotData:
    def test_layout(self):
        text = plot_data_csv([1.0, 2.5], [1.1, 2.4])
        assert text == "actual,predicted\n1,1.1\n2.5,2.4\n"


class TestEmit:
    """The report files that run_experiment, the one report writer, emits."""

    @pytest.fixture
    def run(self, tmp_path, monkeypatch):
        def run(report):
            monkeypatch.setattr(harness, "train_models",
                                lambda cfg, segments: {"gru": [report]})
            cfg = ExperimentConfig(models="gru", synth_length=40, segment_size=40,
                                   lookback=3, eda_window=4)
            harness.run_experiment(cfg, tmp_path)
            return [p.name for p in tmp_path.iterdir()]

        return run

    def test_csv_and_json_files(self, run, tmp_path):
        report = sample_report()
        written = run(report)
        assert {"report_gru.csv", "report_gru.json"} <= set(written)
        rows = report_rows([report], "gru")
        assert (tmp_path / "report_gru.csv").read_text() == render_csv(rows)
        assert (tmp_path / "report_gru.json").read_text() == render_json(rows)
        assert (tmp_path / "report_gru.csv").read_text().startswith(ROW_HEADER)

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

"""SVG chart generation and plain-text summaries."""

import xml.etree.ElementTree as ET

import pytest

from fdcnet.errors import FileFormatError
from fdcnet.report import PALETTE, render_line_chart, summary_table, write_report
from fdcnet.trainer import EvalReport, EvalRow, read_eval_csv, write_eval_csv

SVG_NS = "{http://www.w3.org/2000/svg}"


def _report(scale=1.0):
    rows = [
        EvalRow(-3.0, 1.5 * scale, 80.0, 0.5, 0.6),
        EvalRow(0.0, 3.0 * scale, 85.0, 0.4, 0.55),
        EvalRow(3.0, 5.5 * scale, 90.0, 0.3, 0.5),
    ]
    avg = EvalRow(0.0, 10.0 / 3 * scale, 85.0, 0.4, 0.55)
    return EvalReport(grid=[-3.0, 0.0, 3.0], rows=rows, average=avg)


class TestLineChart:
    def test_valid_xml_with_one_polyline_per_series(self):
        svg = render_line_chart(
            [("a", [0, 1, 2], [1.0, 2.0, 3.0]), ("b", [0, 1, 2], [3.0, 2.0, 1.0])],
            "t", "x", "y",
        )
        root = ET.fromstring(svg)
        assert root.tag == f"{SVG_NS}svg"
        polylines = root.findall(f".//{SVG_NS}polyline")
        assert len(polylines) == 2
        assert polylines[0].get("stroke") == PALETTE[0]
        assert polylines[1].get("stroke") == PALETTE[1]

    def test_points_in_canvas(self):
        svg = render_line_chart([("s", [-3, 3], [10.0, -10.0])], "t", "x", "y")
        root = ET.fromstring(svg)
        for poly in root.findall(f".//{SVG_NS}polyline"):
            for pair in poly.get("points").split():
                x, y = map(float, pair.split(","))
                assert 0 <= x <= 640
                assert 0 <= y <= 420

    def test_labels_escaped(self):
        svg = render_line_chart([("a<b&c", [0, 1], [0.0, 1.0])], "t<&t", "x", "y")
        ET.fromstring(svg)  # would raise if unescaped
        assert "a<b&c" not in svg
        assert "a&lt;b&amp;c" in svg

    def test_flat_series_does_not_collapse(self):
        svg = render_line_chart([("s", [0, 1], [2.0, 2.0])], "t", "x", "y")
        root = ET.fromstring(svg)
        pts = root.find(f".//{SVG_NS}polyline").get("points").split()
        ys = [float(p.split(",")[1]) for p in pts]
        assert all(map(lambda v: v == ys[0], ys))

    def test_legend_lists_series_names(self):
        svg = render_line_chart(
            [("baseline", [0, 1], [0.0, 1.0]), ("ablation", [0, 1], [1.0, 0.0])],
            "t", "x", "y",
        )
        assert "baseline" in svg and "ablation" in svg


class TestSummaryTable:
    def test_one_row_per_grid_point_plus_average(self):
        text = summary_table([("run", _report())])
        lines = [ln for ln in text.splitlines() if ln.strip()]
        assert lines[0] == "run"
        data_lines = [ln for ln in lines if ln.lstrip()[0] in "-0123456789a"]
        assert sum("average" in ln for ln in lines) == 1

    def test_values_present(self):
        text = summary_table([("run", _report())])
        assert "-3.00" in text
        assert "80.000" in text

    def test_multiple_reports_stacked(self):
        text = summary_table([("full", _report()), ("ablated", _report(0.5))])
        assert text.index("full") < text.index("ablated")


class TestWriteReport:
    def test_emits_four_charts_and_summary(self, tmp_path):
        written = write_report(tmp_path, [("run", _report())])
        names = sorted(p.split("/")[-1] for p in written)
        assert names == sorted(
            ["output_snr_db.svg", "cc_percent.svg", "mse.svg", "acc_4class.svg", "summary.txt"]
        )
        for p in written:
            if p.endswith(".svg"):
                ET.parse(p)

    def test_series_order_follows_input(self, tmp_path):
        write_report(tmp_path, [("first", _report()), ("second", _report(2.0))])
        svg = (tmp_path / "output_snr_db.svg").read_text()
        assert svg.index("first") < svg.index("second")


class TestEvalCsvReader:
    def test_round_trip(self, tmp_path):
        report = _report()
        path = tmp_path / "e.csv"
        write_eval_csv(path, report)
        back = read_eval_csv(path)
        assert back.grid == report.grid
        assert back.rows == report.rows  # writer keeps 10 significant digits
        for field in ("input_snr_db", "output_snr_db", "cc_percent", "mse", "acc_4class"):
            assert getattr(back.average, field) == pytest.approx(
                getattr(report.average, field), rel=1e-9
            )

    # undecodable bytes; a field beyond the csv module's 128 KiB limit
    @pytest.mark.parametrize("content", [b"\xff\xfe", b"x" * 200_000 + b"\n"],
                             ids=["undecodable", "oversized"])
    def test_undecodable_or_oversized_file_names_path(self, tmp_path, content):
        path = tmp_path / "e.csv"
        path.write_bytes(content)
        with pytest.raises(FileFormatError, match="e.csv"):
            read_eval_csv(path)

    @pytest.mark.parametrize("row, col", [(1, 2), (2, 0), (4, 5)])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_field_names_path_and_line(self, tmp_path, row, col, value):
        path = tmp_path / "e.csv"
        write_eval_csv(path, _report())
        lines = path.read_text().splitlines()
        fields = lines[row].split(",")
        fields[col] = value
        lines[row] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match=f"e.csv:{row + 1}: non-finite"):
            read_eval_csv(path)

    def test_full_float_precision_survives(self, tmp_path):
        rows = [EvalRow(-3.0, 1.2345678901234567, 80.0, 1 / 3, 2 / 3)]
        report = EvalReport(grid=[-3.0], rows=rows, average=rows[0])
        path = tmp_path / "e.csv"
        write_eval_csv(path, report)
        back = read_eval_csv(path)
        assert back.rows[0].output_snr_db == pytest.approx(1.2345678901234567, rel=1e-9)
        assert back.rows[0].mse == pytest.approx(1 / 3, rel=1e-9)

"""Dependency-free SVG line charts and text summaries of evaluation sweeps."""

from __future__ import annotations

from pathlib import Path

from .fileio import write_text
from .trainer import EvalReport

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]

_METRICS = [
    ("output_snr_db", "Output SNR (dB)"),
    ("cc_percent", "CC (%)"),
    ("mse", "MSE"),
    ("acc_4class", "4-class accuracy"),
]


def escape(text: str) -> str:
    """XML character data: the same three replacements as xml.sax.saxutils.escape,
    whose import pulls urllib.request, http.client and email into every CLI start."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def render_line_chart(
    series: list[tuple[str, list[float], list[float]]],
    title: str,
    xlabel: str,
    ylabel: str,
    width: int = 640,
    height: int = 420,
) -> str:
    """One polyline per (label, xs, ys) series, with axes, ticks, and legend."""
    ml, mr, mt, mb = 64, 24, 40, 48
    pw, ph = width - ml - mr, height - mt - mb
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        pad = 1.0 if y_lo == 0 else abs(y_lo) * 0.1
        y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x: float) -> float:
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y: float) -> float:
        return mt + ph - (y - y_lo) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{escape(title)}</text>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        parts.append(f'<line x1="{x:.1f}" y1="{mt + ph}" x2="{x:.1f}" y2="{mt + ph + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{x:.1f}" y="{mt + ph + 18}" text-anchor="middle">{t:.4g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(f'<line x1="{ml - 5}" y1="{y:.1f}" x2="{ml}" y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{ml - 8}" y="{y + 4:.1f}" text-anchor="end">{t:.4g}</text>')
    parts.append(
        f'<text x="{ml + pw / 2:.1f}" y="{height - 10}" text-anchor="middle">{escape(xlabel)}</text>'
    )
    parts.append(
        f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {mt + ph / 2:.1f})">{escape(ylabel)}</text>'
    )
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3" fill="{color}"/>')
        ly = mt + 8 + i * 16
        parts.append(f'<line x1="{ml + pw - 130}" y1="{ly}" x2="{ml + pw - 110}" y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{ml + pw - 104}" y="{ly + 4}">{escape(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def summary_table(named_reports: list[tuple[str, EvalReport]]) -> str:
    """Plain-text table per report: one row per grid SNR plus the average."""
    lines = []
    header = f"{'SNR (dB)':>10s} {'in SNR':>10s} {'out SNR':>10s} {'CC (%)':>10s} {'MSE':>12s} {'acc(4)':>8s}"
    for name, report in named_reports:
        lines.append(name)
        lines.append(header)
        lines.append("-" * len(header))
        labels = [f"{snr:.2f}" for snr in report.grid] + ["average"]
        for label, r in zip(labels, report.rows + [report.average]):
            lines.append(
                f"{label:>10s} {r.input_snr_db:>10.3f} {r.output_snr_db:>10.3f} "
                f"{r.cc_percent:>10.3f} {r.mse:>12.5g} {r.acc_4class:>8.4f}"
            )
        lines.append("")
    return "\n".join(lines)


def write_report(out_dir, named_reports: list[tuple[str, EvalReport]]) -> list[str]:
    """Emit one SVG per metric (series ordered as the inputs) plus
    summary.txt; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for key, label in _METRICS:
        series = [
            (name, report.grid, [getattr(r, key) for r in report.rows])
            for name, report in named_reports
        ]
        svg = render_line_chart(series, f"{label} vs input SNR", "target input SNR (dB)", label)
        path = out / f"{key}.svg"
        write_text(path, svg)
        written.append(str(path))
    path = out / "summary.txt"
    write_text(path, summary_table(named_reports))
    written.append(str(path))
    return written

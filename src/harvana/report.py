"""File-based report emission: CSV tables, deterministic SVG plots, and the
run summary. Every writer takes a provenance mapping (seeds, config hash) and
embeds it as a comment so artifacts are traceable and byte-reproducible, and
writes through hyperspace.write_text, so a write cut short leaves no file."""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .fanova import ImportanceReport
from .hyperspace import write_text


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _prov_line(provenance: Mapping[str, object]) -> str:
    return " ".join(f"{k}={provenance[k]}" for k in sorted(provenance))


def write_csv(path: str | Path, header: Sequence[str], rows: Sequence[Sequence],
              provenance: Mapping[str, object] | None = None) -> None:
    lines = []
    if provenance:
        lines.append("# " + _prov_line(provenance))
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    write_text(path, "\n".join(lines) + "\n")


def importance_csv(report: ImportanceReport, path: str | Path,
                   provenance: Mapping[str, object] | None = None) -> None:
    """Machine-readable importance table: (param, F) rows, then pair rows."""
    rows = [[p, float(report.individual[p])] for p in report.params]
    rows.append(["param_u", "param_v", "pairwise_importance"])
    rows += [[u, v, float(w)] for (u, v), w in report.pairwise.items()]
    write_csv(path, ["param", "individual_importance"], rows, provenance)


# ---------------------------------------------------------------------------
# SVG: hand-rolled for byte determinism

def _color(t: float) -> str:
    """Three-stop map (dark blue -> teal -> yellow), t in [0,1]."""
    stops = [(68, 1, 84), (33, 145, 140), (253, 231, 37)]
    t = min(max(t, 0.0), 1.0)
    if t < 0.5:
        a, b, u = stops[0], stops[1], t * 2
    else:
        a, b, u = stops[1], stops[2], (t - 0.5) * 2
    rgb = [round(a[i] + (b[i] - a[i]) * u) for i in range(3)]
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def heatmap_svg(values: np.ndarray, path: str | Path, x_label: str, y_label: str,
                title: str = "", provenance: Mapping[str, object] | None = None,
                cell: int = 14) -> None:
    """Deterministic heat map of a (nx, ny) grid; row index runs along x."""
    values = np.asarray(values, dtype=float)
    nx, ny = values.shape
    vmin, vmax = float(values.min()), float(values.max())
    span = vmax - vmin if vmax > vmin else 1.0
    margin = 46
    width = margin + nx * cell + 20
    height = margin + ny * cell + 40
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">']
    if provenance:
        parts.append(f"<!-- {_prov_line(provenance)} -->")
    if title:
        parts.append(f'<text x="{margin}" y="16" font-size="12">{title}</text>')
    for i in range(nx):
        for j in range(ny):
            t = (values[i, j] - vmin) / span
            x = margin + i * cell
            y = margin + (ny - 1 - j) * cell
            parts.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                         f'fill="{_color(t)}"/>')
    parts.append(f'<text x="{margin + nx * cell // 2}" y="{height - 8}" '
                 f'font-size="11" text-anchor="middle">{x_label}</text>')
    parts.append(f'<text x="12" y="{margin + ny * cell // 2}" font-size="11" '
                 f'text-anchor="middle" transform="rotate(-90 12 {margin + ny * cell // 2})">'
                 f'{y_label}</text>')
    parts.append(f'<text x="{margin}" y="{margin - 6}" font-size="10">'
                 f'range [{_fmt(vmin)}, {_fmt(vmax)}]</text>')
    parts.append("</svg>")
    write_text(path, "\n".join(parts) + "\n")


def tau_sweep_svg(taus: Sequence[float], mean_f1: Sequence[float],
                  std_f1: Sequence[float], subset_sizes: Sequence[float],
                  path: str | Path,
                  provenance: Mapping[str, object] | None = None) -> None:
    """f1 (with std whiskers) and mean subset cardinality against tau_imp."""
    width, height, margin = 420, 260, 48
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    n = len(taus)
    t_lo, t_hi = min(taus), max(taus)
    t_span = (t_hi - t_lo) or 1.0
    size_hi = max(max(subset_sizes), 1.0)

    def x_of(t):
        return margin + (t - t_lo) / t_span * plot_w

    def y_f1(v):
        return margin + (1.0 - v) * plot_h

    def y_size(v):
        return margin + (1.0 - v / size_hi) * plot_h

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">']
    if provenance:
        parts.append(f"<!-- {_prov_line(provenance)} -->")
    parts.append(f'<rect x="{margin}" y="{margin}" width="{plot_w}" height="{plot_h}" '
                 'fill="none" stroke="#999"/>')
    f1_pts = " ".join(f"{_fmt(x_of(t))},{_fmt(y_f1(v))}" for t, v in zip(taus, mean_f1))
    parts.append(f'<polyline points="{f1_pts}" fill="none" stroke="#1f6f8b" stroke-width="2"/>')
    for t, v, s in zip(taus, mean_f1, std_f1):
        x = x_of(t)
        parts.append(f'<line x1="{_fmt(x)}" y1="{_fmt(y_f1(v - s))}" '
                     f'x2="{_fmt(x)}" y2="{_fmt(y_f1(v + s))}" stroke="#1f6f8b"/>')
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y_f1(v))}" r="3" fill="#1f6f8b"/>')
    size_pts = " ".join(f"{_fmt(x_of(t))},{_fmt(y_size(v))}"
                        for t, v in zip(taus, subset_sizes))
    parts.append(f'<polyline points="{size_pts}" fill="none" stroke="#c05640" '
                 'stroke-width="2" stroke-dasharray="5,3"/>')
    for t, v in zip(taus, subset_sizes):
        parts.append(f'<circle cx="{_fmt(x_of(t))}" cy="{_fmt(y_size(v))}" r="3" '
                     'fill="#c05640"/>')
    for t in taus:
        parts.append(f'<text x="{_fmt(x_of(t))}" y="{height - margin + 16}" '
                     f'font-size="10" text-anchor="middle">{_fmt(t)}</text>')
    parts.append(f'<text x="{width // 2}" y="{height - 8}" font-size="11" '
                 'text-anchor="middle">importance threshold</text>')
    parts.append(f'<text x="14" y="{height // 2}" font-size="11" text-anchor="middle" '
                 f'transform="rotate(-90 14 {height // 2})">macro f1</text>')
    parts.append(f'<text x="{width - 12}" y="{height // 2}" font-size="11" '
                 f'text-anchor="middle" transform="rotate(90 {width - 12} {height // 2})">'
                 'mean subset size</text>')
    parts.append(f'<text x="{margin}" y="{margin - 8}" font-size="10" fill="#1f6f8b">'
                 'f1 (solid)</text>')
    parts.append(f'<text x="{margin + 90}" y="{margin - 8}" font-size="10" fill="#c05640">'
                 'subset size (dashed)</text>')
    parts.append("</svg>")
    write_text(path, "\n".join(parts) + "\n")


def pairwise_grid_csv(theta_u: Sequence[float], theta_v: Sequence[float],
                      values: np.ndarray, u: str, v: str, path: str | Path,
                      provenance: Mapping[str, object] | None = None) -> None:
    rows = [[float(tu), float(tv), float(values[i, j])]
            for i, tu in enumerate(theta_u) for j, tv in enumerate(theta_v)]
    write_csv(path, [f"theta_{u}", f"theta_{v}", "marginal"], rows, provenance)


def confusion_csv(labels: Sequence[str], confusion: np.ndarray, path: str | Path,
                  provenance: Mapping[str, object] | None = None) -> None:
    rows = [[lab] + [int(v) for v in confusion[i]] for i, lab in enumerate(labels)]
    write_csv(path, ["true\\pred"] + list(labels), rows, provenance)


def summary_markdown(path: str | Path, sections: Mapping[str, str],
                     provenance: Mapping[str, object] | None = None) -> None:
    lines = ["# Run summary", ""]
    if provenance:
        lines += ["`" + _prov_line(provenance) + "`", ""]
    for title, body in sections.items():
        lines += [f"## {title}", "", body, ""]
    write_text(path, "\n".join(lines))

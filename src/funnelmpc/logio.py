"""CSV and SVG artifacts for closed-loop runs.

CSV files carry the fully resolved run configuration as a leading comment
block (lines prefixed '#'), a header row, and full double precision values
(17 significant digits) so reruns reproduce byte-identical files.  The SVG
plot is self-contained with two fixed 800x400 panels: tracking error
against the funnel envelope, and the applied input against the saturation
bounds.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errchain import chain_matrix

__all__ = [
    "TrajectoryTable",
    "closed_loop_table",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "write_records_csv",
    "write_closed_loop_svg",
]


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


@dataclass
class TrajectoryTable:
    """Column-oriented view of a run; e and e_r are signed for m = 1."""

    t: np.ndarray
    y: np.ndarray
    y_ref: np.ndarray
    e: np.ndarray
    psi: np.ndarray
    e_r: np.ndarray
    theta: np.ndarray
    u: np.ndarray

    @property
    def m(self) -> int:
        return self.y.shape[1]


def closed_loop_table(trajectory, chain, gains, yref) -> TrajectoryTable:
    grid = trajectory.grid
    K = grid.size
    r = chain.r
    m = trajectory.input.shape[1]
    jets = trajectory.output_jet.reshape(K, r, m)
    ref = yref.jet_array(grid)
    zeta = (jets - ref).reshape(K, r * m)
    gains = np.asarray(gains, dtype=float)
    top = zeta @ chain_matrix(gains, r, m)[(r - 1) * m :, :].T
    y = jets[:, 0, :]
    y_ref = ref[:, 0, :]
    if m == 1:
        e = (y - y_ref)[:, 0]
        e_r = top[:, 0]
    else:
        e = np.linalg.norm(y - y_ref, axis=1)
        e_r = np.linalg.norm(top, axis=1)
    return TrajectoryTable(
        t=grid,
        y=y,
        y_ref=y_ref,
        e=e,
        psi=np.asarray(chain.members[0].value(grid), dtype=float),
        e_r=e_r,
        theta=np.asarray(chain.theta.value(grid), dtype=float),
        u=trajectory.input,
    )


def _echo_lines(config_echo: dict) -> list:
    text = json.dumps(config_echo, indent=2, sort_keys=True)
    return ["# " + line for line in text.splitlines()]


def _vector_headers(base: str, m: int) -> list:
    return [base] if m == 1 else [f"{base}_{i + 1}" for i in range(m)]


def write_trajectory_csv(path, table: TrajectoryTable, config_echo: dict):
    m = table.m
    headers = (
        ["t"]
        + _vector_headers("y", m)
        + _vector_headers("y_ref", m)
        + ["e", "psi", "e_r", "theta"]
        + _vector_headers("u", m)
    )
    with open(path, "w", newline="") as fh:
        for line in _echo_lines(config_echo):
            fh.write(line + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(headers)
        for k in range(table.t.size):
            row = (
                [fmt(table.t[k])]
                + [fmt(v) for v in table.y[k]]
                + [fmt(v) for v in table.y_ref[k]]
                + [fmt(table.e[k]), fmt(table.psi[k]), fmt(table.e_r[k]), fmt(table.theta[k])]
                + [fmt(v) for v in table.u[k]]
            )
            writer.writerow(row)


def read_trajectory_csv(path):
    """Returns (columns dict of float arrays, echo comment lines)."""
    echo = []
    rows = []
    header = None
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                echo.append(line.rstrip("\n"))
                continue
            stripped = line.strip()
            if not stripped:
                continue
            fields = next(csv.reader([stripped]))
            if header is None:
                header = fields
            else:
                rows.append([float(v) for v in fields])
    if header is None or not rows:
        raise ValueError(f"no data rows found in {path}")
    data = np.asarray(rows, dtype=float)
    if data.shape[1] != len(header):
        raise ValueError("row width does not match the header")
    return {name: data[:, i] for i, name in enumerate(header)}, echo


def write_records_csv(path, records, config_echo: dict):
    with open(path, "w", newline="") as fh:
        for line in _echo_lines(config_echo):
            fh.write(line + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t_hat", "cost", "iters", "status"])
        for rec in records:
            writer.writerow([fmt(rec.t_hat), fmt(rec.cost), str(rec.iterations), rec.status])


def _scale(vals, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return out_lo + (np.asarray(vals) - lo) * (out_hi - out_lo) / span


def _polyline(xs, ys, color, width=1.5, dash=None):
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="{width}"{dash_attr} '
        f'points="{pts}"/>'
    )


def _panel(x0, y0, w, h, t, curves, title, ylim):
    """One framed panel; curves is a list of (values, color, dash, label)."""
    left, right, top, bottom = 62, 14, 26, 38
    px0, px1 = x0 + left, x0 + w - right
    py0, py1 = y0 + top, y0 + h - bottom
    lo, hi = ylim
    parts = [
        f'<rect x="{x0}" y="{y0}" width="{w}" height="{h}" fill="white" stroke="none"/>',
        f'<rect x="{px0}" y="{py0}" width="{px1 - px0}" height="{py1 - py0}" '
        f'fill="none" stroke="#444" stroke-width="1"/>',
        f'<text x="{x0 + w / 2:.0f}" y="{y0 + 17}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" fill="#222">{title}</text>',
    ]
    t0, t1 = float(t[0]), float(t[-1])
    for i in range(6):
        tv = t0 + (t1 - t0) * i / 5
        xpix = _scale([tv], t0, t1, px0, px1)[0]
        parts.append(
            f'<line x1="{xpix:.1f}" y1="{py1}" x2="{xpix:.1f}" y2="{py1 + 4}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{xpix:.1f}" y="{py1 + 17}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11" fill="#333">{tv:g}</text>'
        )
    for i in range(5):
        yv = lo + (hi - lo) * i / 4
        ypix = _scale([yv], lo, hi, py1, py0)[0]
        parts.append(
            f'<line x1="{px0 - 4}" y1="{ypix:.1f}" x2="{px0}" y2="{ypix:.1f}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{px0 - 7}" y="{ypix + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="#333">{yv:.3g}</text>'
        )
    xs = _scale(t, t0, t1, px0, px1)
    legend_x = px0 + 8
    for vals, color, dash, label in curves:
        ys = _scale(np.clip(vals, lo, hi), lo, hi, py1, py0)
        parts.append(_polyline(xs, ys, color, dash=dash))
        if label:
            parts.append(
                f'<text x="{legend_x}" y="{py0 + 14}" font-family="sans-serif" '
                f'font-size="11" fill="{color}">{label}</text>'
            )
            legend_x += 9 * len(label) + 14
    return "\n".join(parts)


def write_closed_loop_svg(path, table: TrajectoryTable, saturation=None):
    """Two stacked panels: error inside the funnel envelope, and the input."""
    W, H, GAP = 800, 400, 16
    e = table.e
    psi = table.psi
    u = table.u if table.m > 1 else table.u[:, 0]
    u_norm = np.linalg.norm(table.u, axis=1) if table.m > 1 else table.u[:, 0]
    lim1 = 1.06 * float(np.max(psi))
    curves1 = [
        (psi, "#1f5fa8", "6,4", "+psi"),
        (-psi, "#1f5fa8", "6,4", "-psi"),
        (e if table.m == 1 else np.abs(e), "#c02f1d", None, "e"),
    ]
    u_hi = float(np.max(np.abs(u_norm)))
    if saturation is not None:
        u_hi = max(u_hi, float(saturation))
    lim2 = 1.1 * u_hi if u_hi > 0 else 1.0
    curves2 = [(u_norm, "#2a7f3f", None, "u")]
    if saturation is not None:
        sat = float(saturation) * np.ones_like(table.t)
        curves2 += [(sat, "#888888", "3,3", "+M"), (-sat, "#888888", "3,3", "-M")]
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{2 * H + GAP}" '
        f'viewBox="0 0 {W} {2 * H + GAP}">',
        f'<rect x="0" y="0" width="{W}" height="{2 * H + GAP}" fill="white"/>',
        _panel(0, 0, W, H, table.t, curves1, "tracking error and funnel boundary", (-lim1, lim1)),
        _panel(0, H + GAP, W, H, table.t, curves2, "applied input", (-lim2, lim2)),
        "</svg>",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(body) + "\n")

"""Minimal SVG emission for eigenvalue trace plots.

Pure string assembly, no plotting dependency.  Eigenvalues are clipped to a
display window at render time only; the gap left where a trace runs through
a pole (or out of the window) breaks the polyline instead of drawing a
spurious vertical jump.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: display window applied to the eigenvalue axis unless overridden
DEFAULT_CLIP = (-20.0, 20.0)

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2")


@dataclass(frozen=True)
class Curve:
    x: np.ndarray
    y: np.ndarray
    name: str


@dataclass(frozen=True)
class Marker:
    x: float
    y: float
    text: str
    kind: str = "avoidance"      # or "crossing"


def _ticks(lo: float, hi: float, n: int = 5):
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / (n - 1)
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min(s * mag for s in (1, 2, 2.5, 5, 10) if s * mag >= raw)
    first = np.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-9 * span:
        out.append(0.0 if abs(v) < 1e-12 * span else float(v))
        v += step
    return out


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def render(curves, markers=(), x_label: str = "x", y_label: str = "y",
           y_clip=DEFAULT_CLIP, width: int = 720, height: int = 480,
           title: str | None = None) -> str:
    """Render curves and markers to an SVG document string."""
    curves = list(curves)
    if not curves:
        raise ValueError("nothing to plot")
    x_lo = min(float(np.min(c.x)) for c in curves)
    x_hi = max(float(np.max(c.x)) for c in curves)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    y_lo, y_hi = map(float, y_clip)
    ml, mr, mt, mb = 56, 150, 34 if title else 16, 44
    pw, ph = width - ml - mr, height - mt - mb

    def sx(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * pw

    def sy(v):
        return mt + (y_hi - v) / (y_hi - y_lo) * ph

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">',
           f'<rect width="{width}" height="{height}" fill="white"/>']
    if title:
        out.append(f'<text x="{ml + pw / 2:.1f}" y="20" font-size="14" '
                   f'text-anchor="middle" font-family="sans-serif">'
                   f'{title}</text>')
    out.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
               f'fill="none" stroke="black"/>')
    for v in _ticks(x_lo, x_hi):
        px = sx(v)
        out.append(f'<line x1="{px:.1f}" y1="{mt + ph}" x2="{px:.1f}" '
                   f'y2="{mt + ph + 5}" stroke="black"/>')
        out.append(f'<text x="{px:.1f}" y="{mt + ph + 18}" font-size="11" '
                   f'text-anchor="middle" font-family="sans-serif">'
                   f'{_fmt(v)}</text>')
    for v in _ticks(y_lo, y_hi):
        py = sy(v)
        out.append(f'<line x1="{ml - 5}" y1="{py:.1f}" x2="{ml}" '
                   f'y2="{py:.1f}" stroke="black"/>')
        out.append(f'<text x="{ml - 8}" y="{py + 4:.1f}" font-size="11" '
                   f'text-anchor="end" font-family="sans-serif">'
                   f'{_fmt(v)}</text>')
    out.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 8}" font-size="12" '
               f'text-anchor="middle" font-family="sans-serif">{x_label}</text>')
    out.append(f'<text x="14" y="{mt + ph / 2:.1f}" font-size="12" '
               f'text-anchor="middle" font-family="sans-serif" '
               f'transform="rotate(-90 14 {mt + ph / 2:.1f})">{y_label}</text>')

    for ci, c in enumerate(curves):
        color = _PALETTE[ci % len(_PALETTE)]
        x = np.asarray(c.x, dtype=float)
        y = np.asarray(c.y, dtype=float)
        inside = np.isfinite(y) & (y >= y_lo) & (y <= y_hi)
        run = []
        segments = []
        for i in range(len(x)):
            if inside[i]:
                run.append(f"{sx(x[i]):.2f},{sy(y[i]):.2f}")
            elif run:
                segments.append(run)
                run = []
        if run:
            segments.append(run)
        for seg in segments:
            if len(seg) == 1:
                px, py = seg[0].split(",")
                out.append(f'<circle cx="{px}" cy="{py}" r="1.5" '
                           f'fill="{color}"/>')
            else:
                out.append(f'<polyline points="{" ".join(seg)}" fill="none" '
                           f'stroke="{color}" stroke-width="1.5"/>')
        ly = mt + 14 + 16 * ci
        out.append(f'<line x1="{ml + pw + 10}" y1="{ly - 4}" '
                   f'x2="{ml + pw + 34}" y2="{ly - 4}" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        out.append(f'<text x="{ml + pw + 40}" y="{ly}" font-size="11" '
                   f'font-family="sans-serif">{c.name}</text>')

    for m in markers:
        if not (np.isfinite(m.y) and y_lo <= m.y <= y_hi):
            continue
        px, py = sx(m.x), sy(m.y)
        if m.kind == "crossing":
            out.append(f'<path d="M{px - 4:.1f} {py - 4:.1f} L{px + 4:.1f} '
                       f'{py + 4:.1f} M{px - 4:.1f} {py + 4:.1f} '
                       f'L{px + 4:.1f} {py - 4:.1f}" stroke="black" '
                       f'stroke-width="1.2"/>')
        else:
            out.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="6" '
                       f'fill="none" stroke="black" stroke-width="1.2" '
                       f'stroke-dasharray="2,2"/>')
        if m.text:
            out.append(f'<text x="{px + 8:.1f}" y="{py - 6:.1f}" '
                       f'font-size="10" font-family="sans-serif">'
                       f'{m.text}</text>')
    out.append("</svg>")
    return "\n".join(out)


def diagram_svg(diagram, crossings=(), avoidances=(),
                y_clip=DEFAULT_CLIP, title: str | None = None) -> str:
    """Plot analytic traces over kR/pi with crossing and avoidance marks."""
    curves = [Curve(tr.kr / np.pi, tr.lam,
                    f"{tr.source} [{tr.label}]") for tr in diagram]
    markers = []
    seen = set()
    for av in avoidances:
        ev = av.event
        markers.append(Marker(ev.kr_star / np.pi, ev.lam_star,
                              "+".join(av.affected)))
        seen.add((ev.index_a, ev.index_b, round(ev.kr_star, 9)))
    for ev in crossings:
        if (ev.index_a, ev.index_b, round(ev.kr_star, 9)) in seen:
            continue
        markers.append(Marker(ev.kr_star / np.pi, ev.lam_star, "",
                              kind="crossing"))
    return render(curves, markers, x_label="kR/pi", y_label="eigenvalue",
                  y_clip=y_clip, title=title)

"""Self-contained SVG figures, written byte-deterministically.

No timestamps, no external fonts, no randomness: the same analysis
produces the same bytes. Each figure is a vertical stack of fixed-size
panels; coordinates are rounded to hundredths of a pixel.
"""

from __future__ import annotations

import numpy as np

from .audio_io import SignalBuffer
from .demodulation import Track
from .lts import DOMAINS, LongTermSpectrum

PANEL_W = 640
PANEL_H = 130
PAD = 34
GAP = 14

_STYLE = (
    "text{font-family:monospace;font-size:10px;fill:#222}"
    ".frame{fill:none;stroke:#999;stroke-width:1}"
    ".trace{fill:none;stroke:#1f5fa8;stroke-width:1}"
    ".over{fill:none;stroke:#c43e3e;stroke-width:1}"
    ".bar{stroke:#c43e3e;stroke-width:1.5}"
    ".box{fill:#4a79b8;stroke:#1f3f66;stroke-width:0.5}"
)


def _n(x) -> str:
    return format(float(x), ".2f")


def _polyline(xs, ys, cls) -> str:
    pts = " ".join(f"{_n(x)},{_n(y)}" for x, y in zip(xs, ys))
    return f'<polyline class="{cls}" points="{pts}"/>'


def _scale(values, lo, hi, out_lo, out_hi):
    values = np.asarray(values, dtype=np.float64)
    if hi == lo:
        return np.full(values.shape, (out_lo + out_hi) / 2.0)
    return out_lo + (values - lo) * (out_hi - out_lo) / (hi - lo)


class Panel:
    """One titled plotting area with a frame and pixel mapping."""

    def __init__(self, title: str):
        self.title = title
        self.parts: list[str] = []
        self.x0, self.x1 = PAD, PANEL_W - 8
        self.y0, self.y1 = 16, PANEL_H - 18

    def xmap(self, v, lo, hi):
        return _scale(v, lo, hi, self.x0, self.x1)

    def ymap(self, v, lo, hi):
        return _scale(v, lo, hi, self.y1, self.y0)  # y grows downward

    def render(self, y_offset: int) -> str:
        frame = (
            f'<rect class="frame" x="{self.x0}" y="{self.y0}" '
            f'width="{self.x1 - self.x0}" height="{self.y1 - self.y0}"/>'
        )
        title = f'<text x="{self.x0}" y="11">{self.title}</text>'
        body = "".join(self.parts)
        return f'<g transform="translate(0,{y_offset})">{title}{frame}{body}</g>'

    def xlabel(self, lo_text: str, hi_text: str):
        y = self.y1 + 12
        self.parts.append(f'<text x="{self.x0}" y="{y}">{lo_text}</text>')
        self.parts.append(
            f'<text x="{self.x1}" y="{y}" text-anchor="end">{hi_text}</text>'
        )


def _decimate(x: np.ndarray, limit: int) -> np.ndarray:
    if x.size <= limit:
        return x
    step = int(np.ceil(x.size / limit))
    return x[::step]


def waveform_panel(sig: SignalBuffer, envelope: Track) -> Panel:
    p = Panel(f"waveform: {sig.label}")
    x = _decimate(sig.samples, 1600)
    t = np.arange(x.size) * (sig.duration / max(1, x.size - 1) if x.size > 1 else 0)
    p.parts.append(_polyline(p.xmap(t, 0, sig.duration), p.ymap(x, -1, 1), "trace"))
    et = envelope.times()
    p.parts.append(
        _polyline(p.xmap(et, 0, sig.duration), p.ymap(envelope.values, -1, 1), "over")
    )
    p.xlabel("0 s", f"{sig.duration:.2f} s")
    return p


def spectrum_panel(spec: LongTermSpectrum, bars) -> Panel:
    p = Panel(f"{spec.domain} spectrum: {spec.label}")
    y = spec.residual
    lo, hi = float(spec.freqs[0]), float(spec.freqs[-1])
    ylo, yhi = float(np.min(y)), float(np.max(y))
    for f in bars:
        bx = _n(p.xmap(f, lo, hi))
        p.parts.append(f'<line class="bar" x1="{bx}" y1="{p.y0}" x2="{bx}" y2="{p.y1}"/>')
    p.parts.append(_polyline(p.xmap(spec.freqs, lo, hi), p.ymap(y, ylo, yhi), "trace"))
    p.xlabel(f"{lo:g} Hz", f"{hi:g} Hz")
    return p


def histogram_panel(bins, band, title: str) -> Panel:
    p = Panel(title)
    bins = np.asarray(bins, dtype=np.float64)
    top = float(bins.max())
    width = (p.x1 - p.x0) / bins.size
    for i, b in enumerate(bins):
        h = (p.y1 - p.y0) * (b / top)
        x = p.x0 + i * width
        p.parts.append(
            f'<rect class="box" x="{_n(x + 1)}" y="{_n(p.y1 - h)}" '
            f'width="{_n(width - 2)}" height="{_n(h)}"/>'
        )
    p.xlabel(f"{band[0]:g} Hz", f"{band[1]:g} Hz")
    return p


def f0_panel(track: Track, f0_min: float, f0_max: float, label: str) -> Panel:
    p = Panel(f"F0 track: {label}")
    t = track.times()
    v = track.values
    xs = p.xmap(t, 0, float(t[-1]) if t.size > 1 else 1.0)
    ys = p.ymap(v, f0_min, f0_max)
    run_x, run_y = [], []
    for i in range(v.size):
        if v[i] > 0:
            run_x.append(xs[i])
            run_y.append(ys[i])
        elif run_x:
            p.parts.append(_seg(run_x, run_y))
            run_x, run_y = [], []
    if run_x:
        p.parts.append(_seg(run_x, run_y))
    p.xlabel(f"{f0_min:g} Hz", f"{f0_max:g} Hz")
    return p


def _seg(xs, ys) -> str:
    if len(xs) == 1:
        return f'<circle cx="{_n(xs[0])}" cy="{_n(ys[0])}" r="1.2" fill="#1f5fa8"/>'
    return _polyline(xs, ys, "trace")


def svg_document(panels) -> str:
    height = len(panels) * (PANEL_H + GAP) + GAP
    blocks = []
    y = GAP
    for panel in panels:
        blocks.append(panel.render(y))
        y += PANEL_H + GAP
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{PANEL_W}" '
        f'height="{height}" viewBox="0 0 {PANEL_W} {height}">'
        f"<style>{_STYLE}</style>" + "".join(blocks) + "</svg>\n"
    )


def clip_figure(report, config) -> str:
    """Panel stack for one analyzed clip."""
    panels = [waveform_panel(report.signal, report.envelope)]
    for domain in DOMAINS:
        if domain in report.spectra:
            panels.append(spectrum_panel(report.spectra[domain], report.bars[domain]))
    for domain in DOMAINS:
        if domain in report.profiles:
            panels.append(
                histogram_panel(
                    report.profiles[domain].bins,
                    report.band,
                    f"{domain} R-formant bins: {report.label}",
                )
            )
    panels.append(f0_panel(report.f0_track, config.f0_min_hz, config.f0_max_hz, report.label))
    return svg_document(panels)


def dendrogram_figure(tree, bins_by_label: dict, band) -> str:
    """Dendrogram with a small R-formant histogram under each leaf."""
    m = len(tree.labels)
    width = max(PANEL_W, 90 * m + 2 * PAD)
    tree_h, hist_h, label_h = 240, 70, 14
    height = tree_h + label_h + hist_h + 3 * GAP

    # left-to-right leaf order from the final tree structure
    children = {m + k: (li, ri) for k, (li, ri, _, _) in enumerate(tree.links)}

    def leaves(nid):
        if nid < m:
            return [nid]
        li, ri = children[nid]
        return leaves(li) + leaves(ri)

    order = leaves(2 * m - 2) if m > 1 else [0]
    xpos = {nid: PAD + (width - 2 * PAD) * (i + 0.5) / m for i, nid in enumerate(order)}
    top_d = tree.links[-1][2] if tree.links else 1.0
    if top_d <= 0:
        top_d = 1.0

    def ymap(dist):
        return GAP + (tree_h - GAP) * (1.0 - dist / top_d)

    parts = []
    heights = {nid: 0.0 for nid in range(m)}
    for k, (li, ri, dist, _) in enumerate(tree.links):
        nid = m + k
        heights[nid] = dist
        xl, xr = xpos[li], xpos[ri]
        y = ymap(dist)
        yl, yr = ymap(heights[li]), ymap(heights[ri])
        parts.append(
            f'<path class="trace" d="M {_n(xl)} {_n(yl)} V {_n(y)} '
            f'H {_n(xr)} V {_n(yr)}" fill="none"/>'
        )
        xpos[nid] = (xl + xr) / 2.0

    base = tree_h + GAP
    hist_top = base + label_h
    slot = (width - 2 * PAD) / m
    for i, nid in enumerate(order):
        label = tree.labels[nid]
        x = xpos[nid]
        parts.append(
            f'<text x="{_n(x)}" y="{base + 10}" text-anchor="middle">{label}</text>'
        )
        bins = np.asarray(bins_by_label[label], dtype=np.float64)
        top = float(bins.max())
        bw = (slot - 12) / bins.size
        left = PAD + i * slot + 6
        for bi, b in enumerate(bins):
            h = hist_h * (b / top)
            parts.append(
                f'<rect class="box" x="{_n(left + bi * bw)}" '
                f'y="{_n(hist_top + hist_h - h)}" width="{_n(max(bw - 1, 0.5))}" '
                f'height="{_n(h)}"/>'
            )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}"><style>{_STYLE}</style>'
        + "".join(parts)
        + "</svg>\n"
    )

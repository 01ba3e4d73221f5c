"""Self-contained SVG figures, written byte-deterministically.

No timestamps, no external fonts, no randomness: the same analysis
produces the same bytes. A clip's figure is a vertical stack of
fixed-size panels, each a (title, parts, lo_text, hi_text) tuple; a
cohort's is a dendrogram with each leaf's R-formant histogram under it.
Every text is escaped, so a label may hold &, < or >, and a character
that XML 1.0 forbids is written as U+FFFD. Coordinates are rounded to
hundredths of a pixel.
"""

from __future__ import annotations

import numpy as np

from .lts import DOMAINS

PANEL_W = 640
PANEL_H = 130
PAD = 34
GAP = 14
X0, X1 = PAD, PANEL_W - 8  # a panel's frame, in the panel's own pixels
Y0, Y1 = 16, PANEL_H - 18  # y grows downward: Y1 is the bottom

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


# each character XML 1.0 forbids: C0 controls but tab, LF and CR; surrogates; U+FFFE, U+FFFF
_NOT_XML = dict.fromkeys([*range(9), 11, 12, *range(14, 32), *range(0xD800, 0xE000),
                          0xFFFE, 0xFFFF], "\ufffd")


def _text(x, y, text: str, anchor: str = "") -> str:
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    text = text.translate(_NOT_XML)
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f'<text x="{x}" y="{y}"{anchor}>{text}</text>'


def _polyline(xs, ys, cls) -> str:
    pts = " ".join(f"{_n(x)},{_n(y)}" for x, y in zip(xs, ys))
    return f'<polyline class="{cls}" points="{pts}"/>'


def _boxes(bins, lefts, box_w, base, tall) -> list[str]:
    """One box per bin at its left edge, standing on y = base; the largest
    bin is tall pixels high."""
    bins = np.asarray(bins, dtype=np.float64)
    heights = tall * (bins / bins.max())
    return [f'<rect class="box" x="{_n(x)}" y="{_n(base - h)}" width="{_n(box_w)}" '
            f'height="{_n(h)}"/>' for x, h in zip(lefts.tolist(), heights.tolist())]


def _scale(values, lo, hi, out_lo, out_hi):
    values = np.asarray(values, dtype=np.float64)
    if hi == lo:
        return np.full(values.shape, (out_lo + out_hi) / 2.0)
    return out_lo + (values - lo) * (out_hi - out_lo) / (hi - lo)


def _svg(width, height, parts) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}"><style>{_STYLE}</style>' + "".join(parts) + "</svg>\n"
    )


def _panel(k: int, title: str, parts, lo_text: str, hi_text: str) -> str:
    """Panel k of a stack: title, frame, parts, then the x axis end labels."""
    frame = f'<rect class="frame" x="{X0}" y="{Y0}" width="{X1 - X0}" height="{Y1 - Y0}"/>'
    axis = _text(X0, Y1 + 12, lo_text) + _text(X1, Y1 + 12, hi_text, "end")
    return (f'<g transform="translate(0,{GAP + k * (PANEL_H + GAP)})">'
            + _text(X0, 11, title) + frame + "".join(parts) + axis + "</g>")


def waveform_panel(sig, envelope) -> tuple:
    x = sig.samples[::max(1, -(-sig.samples.size // 1600))]  # at most 1600 points
    t = np.arange(x.size) * (sig.duration / (x.size - 1) if x.size > 1 else 0)
    parts = [
        _polyline(_scale(t, 0, sig.duration, X0, X1), _scale(x, -1, 1, Y1, Y0), "trace"),
        _polyline(_scale(envelope.times(), 0, sig.duration, X0, X1),
                  _scale(envelope.values, -1, 1, Y1, Y0), "over"),
    ]
    return f"waveform: {sig.label}", parts, "0 s", f"{sig.duration:.2f} s"


def spectrum_panel(spec, bars) -> tuple:
    y = spec.residual
    lo, hi = float(spec.freqs[0]), float(spec.freqs[-1])
    parts = [f'<line class="bar" x1="{bx}" y1="{Y0}" x2="{bx}" y2="{Y1}"/>'
             for bx in (_n(_scale(f, lo, hi, X0, X1)) for f in bars)]
    ylo, yhi = float(np.min(y)), float(np.max(y))
    parts.append(_polyline(_scale(spec.freqs, lo, hi, X0, X1), _scale(y, ylo, yhi, Y1, Y0),
                           "trace"))
    return f"{spec.domain} spectrum: {spec.label}", parts, f"{lo:g} Hz", f"{hi:g} Hz"


def histogram_panel(bins, band, title: str) -> tuple:
    width = (X1 - X0) / len(bins)
    parts = _boxes(bins, X0 + np.arange(len(bins)) * width + 1, width - 2, Y1, Y1 - Y0)
    return title, parts, f"{band[0]:g} Hz", f"{band[1]:g} Hz"


def f0_panel(track, f0_min: float, f0_max: float, label: str) -> tuple:
    """Each run of voiced frames as a line, or as a dot when it is one frame."""
    t = track.times()
    xs = _scale(t, 0, float(t[-1]) if t.size > 1 else 1.0, X0, X1)
    ys = _scale(track.values, f0_min, f0_max, Y1, Y0)
    voiced = np.flatnonzero(track.values > 0)
    parts = []
    for run in np.split(voiced, np.flatnonzero(np.diff(voiced) > 1) + 1):
        if run.size > 1:
            parts.append(_polyline(xs[run], ys[run], "trace"))
        elif run.size:
            parts.append(f'<circle cx="{_n(xs[run[0]])}" cy="{_n(ys[run[0]])}" '
                         f'r="1.2" fill="#1f5fa8"/>')
    return f"F0 track: {label}", parts, f"{f0_min:g} Hz", f"{f0_max:g} Hz"


def clip_figure(report, config) -> str:
    """Panel stack for one analyzed clip."""
    panels = [waveform_panel(report.signal, report.envelope)]
    for domain in DOMAINS:
        if domain in report.spectra:
            panels.append(spectrum_panel(report.spectra[domain], report.bars[domain]))
    for domain in DOMAINS:
        if domain in report.profiles:
            panels.append(histogram_panel(report.profiles[domain].bins, report.band,
                                          f"{domain} R-formant bins: {report.label}"))
    panels.append(f0_panel(report.f0_track, config.f0_min_hz, config.f0_max_hz, report.label))
    return _svg(PANEL_W, len(panels) * (PANEL_H + GAP) + GAP,
                [_panel(k, *panel) for k, panel in enumerate(panels)])


def dendrogram_figure(tree, bins_by_label: dict, band) -> str:
    """Dendrogram with a small R-formant histogram under each leaf."""
    m = len(tree.labels)
    width = max(PANEL_W, 90 * m + 2 * PAD)
    tree_h, hist_h, label_h = 240, 70, 14
    height = tree_h + label_h + hist_h + 3 * GAP

    order = tree.groups[-1]  # the leaves left to right
    xpos = {nid: PAD + (width - 2 * PAD) * (i + 0.5) / m for i, nid in enumerate(order)}
    top_d = tree.links[-1][2] if tree.links else 1.0
    if top_d <= 0:
        top_d = 1.0

    def ymap(dist):
        return GAP + (tree_h - GAP) * (1.0 - dist / top_d)

    parts = []
    ypos = [ymap(0.0)] * m  # each node's y by id, leaves first
    for k, (li, ri, dist, _) in enumerate(tree.links):
        xl, xr = xpos[li], xpos[ri]
        y = ymap(dist)
        parts.append(
            f'<path class="trace" d="M {_n(xl)} {_n(ypos[li])} V {_n(y)} '
            f'H {_n(xr)} V {_n(ypos[ri])}" fill="none"/>'
        )
        xpos[m + k] = (xl + xr) / 2.0
        ypos.append(y)

    base = tree_h + GAP
    hist_top = base + label_h
    slot = (width - 2 * PAD) / m
    for i, nid in enumerate(order):
        label = tree.labels[nid]
        parts.append(_text(_n(xpos[nid]), base + 10, label, "middle"))
        bins = bins_by_label[label]
        bw = (slot - 12) / len(bins)
        lefts = PAD + i * slot + 6 + np.arange(len(bins)) * bw
        parts += _boxes(bins, lefts, max(bw - 1, 0.5), hist_top + hist_h, hist_h)
    return _svg(width, height, parts)

"""Minimal static SVG charts, no plotting dependencies.

These are for eyeballing runs; the CSV files remain the authoritative
output.  Only what the CLI needs: multi-series line charts and a heatmap.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["line_chart", "heatmap"]

_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
]
_W, _H = 880, 520
_ML, _MR, _MT, _MB = 70, 20, 40, 55
# _Frame starts with the opening tag, the background, the title and the two
# axis labels; rows handed to _Frame.save are written after them
_HEAD_PARTS = 5
# the heatmap colours this many drawn rows at a time and writes each row as
# it is filled in from its row template, so that no whole-grid array of
# colours or bytes is ever held: on the figure's 401 x 301 grid, about 0.5 MB
# at the peak
_HEATMAP_ROWS = 16


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    start = math.ceil(lo / step) * step
    ticks = []
    v = start
    while v <= hi + 1e-12 * abs(step):
        ticks.append(0.0 if abs(v) < 1e-15 else v)
        v += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:.6g}"


class _Frame:
    """Pixel mapping plus shared axis/label boilerplate."""

    def __init__(self, xlo, xhi, ylo, yhi, title, xlabel, ylabel):
        self.xlo, self.xhi = xlo, xhi
        self.ylo, self.yhi = ylo, yhi
        pad = 0.05 * (yhi - ylo or 1.0)
        self.ylo -= pad
        self.yhi += pad
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="13">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
            f'<text x="{_W / 2:.0f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
            f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>',
            f'<text x="18" y="{(_MT + _H - _MB) / 2:.0f}" text-anchor="middle" '
            f'transform="rotate(-90 18 {(_MT + _H - _MB) / 2:.0f})">{ylabel}</text>',
        ]

    def px(self, x: float) -> float:
        span = self.xhi - self.xlo or 1.0
        return _ML + (x - self.xlo) / span * (_W - _ML - _MR)

    def py(self, y: float) -> float:
        span = self.yhi - self.ylo or 1.0
        return _H - _MB - (y - self.ylo) / span * (_H - _MT - _MB)

    def axes(self) -> None:
        x0, x1 = _ML, _W - _MR
        y0, y1 = _MT, _H - _MB
        self.parts.append(
            f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" '
            f'fill="none" stroke="black"/>'
        )
        for v in _ticks(self.xlo, self.xhi):
            px = self.px(v)
            self.parts.append(f'<line x1="{px:.1f}" y1="{y1}" x2="{px:.1f}" y2="{y1 + 5}" stroke="black"/>')
            self.parts.append(f'<text x="{px:.1f}" y="{y1 + 20}" text-anchor="middle">{_fmt(v)}</text>')
        for v in _ticks(self.ylo, self.yhi):
            py = self.py(v)
            self.parts.append(f'<line x1="{x0 - 5}" y1="{py:.1f}" x2="{x0}" y2="{py:.1f}" stroke="black"/>')
            self.parts.append(f'<text x="{x0 - 8}" y="{py + 4:.1f}" text-anchor="end">{_fmt(v)}</text>')

    def save(self, path, rows=()) -> None:
        """Write the parts, one line each, with ``rows`` after the header parts.

        ``rows`` may be any iterable of bytes-like objects, each one or
        more lines that begin with a newline; each is written as it
        comes, and nothing is joined into one string first.
        """
        self.parts.append("</svg>")
        head, tail = self.parts[1:_HEAD_PARTS], self.parts[_HEAD_PARTS:]
        with open(path, "wb") as fh:
            fh.write(self.parts[0].encode())
            fh.writelines(b"\n" + part.encode() for part in head)
            fh.writelines(rows)
            fh.writelines(b"\n" + part.encode() for part in tail)


def line_chart(path, x, series: dict[str, np.ndarray], title="", xlabel="", ylabel="") -> None:
    """Write a multi-series line chart of every point given; ``series`` maps
    legend label to y values, and a caller thins a long trace first."""
    x = np.asarray(x, dtype=float)
    ylo = min(float(np.min(v)) for v in series.values())
    yhi = max(float(np.max(v)) for v in series.values())
    fr = _Frame(float(x[0]), float(x[-1]), ylo, yhi, title, xlabel, ylabel)
    fr.axes()
    px = fr.px(x)
    points = " ".join(["%.1f,%.1f"] * px.size)
    for k, (label, y) in enumerate(series.items()):
        color = _PALETTE[k % len(_PALETTE)]
        py = fr.py(np.asarray(y, dtype=float))
        pts = points % tuple(np.column_stack((px, py)).ravel().tolist())
        fr.parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MT + 16 + 16 * k
        fr.parts.append(f'<line x1="{_W - _MR - 130}" y1="{ly}" x2="{_W - _MR - 105}" y2="{ly}" stroke="{color}" stroke-width="2"/>')
        fr.parts.append(f'<text x="{_W - _MR - 100}" y="{ly + 4}">{label}</text>')
    fr.save(path)


_VIRIDIS = np.array([
    (0.267, 0.005, 0.329), (0.283, 0.141, 0.458), (0.254, 0.265, 0.530),
    (0.207, 0.372, 0.553), (0.164, 0.471, 0.558), (0.128, 0.567, 0.551),
    (0.135, 0.659, 0.518), (0.267, 0.749, 0.441), (0.478, 0.821, 0.318),
    (0.741, 0.873, 0.150), (0.993, 0.906, 0.144),
])


def _viridis_rgb(v: np.ndarray) -> np.ndarray:
    """24-bit RGB codes of the viridis colours for ``v``, clipped to [0, 1].

    Each channel blends the two neighbouring stops linearly and truncates
    ``255 * c`` to an integer.
    """
    v = np.clip(v, 0.0, 1.0) * (len(_VIRIDIS) - 1)
    i = np.minimum(v.astype(np.intp), len(_VIRIDIS) - 2)
    f = v - i
    g = 1 - f
    rgb = 0
    for stops in _VIRIDIS.T:  # a channel at a time: no (..., 3) temporaries
        rgb = (rgb << 8) | (255 * (stops[i] * g + stops[i + 1] * f)).astype(np.intp)
    return rgb


def heatmap(path, x, y, z: np.ndarray, title="", xlabel="", ylabel="") -> None:
    """Write a heatmap of z[j, i] over increasing columns x[i] and rows y[j].

    The rows are drawn in increasing order of y, whatever order they come in,
    and z is coloured on [0, 1], the range of a concurrence.  A NaN or infinite z has no colour, and raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    order = np.argsort(y, kind="stable")
    y = np.asarray(y, dtype=float)[order]
    z = np.asarray(z, dtype=float)
    bad = np.count_nonzero(~np.isfinite(z))
    if bad:
        raise ValueError(f"heatmap z must be finite, but {bad} value(s) are NaN or infinite")
    fr = _Frame(float(x[0]), float(x[-1]), float(y[0]), float(y[-1]), title, xlabel, ylabel)
    # an axis of n >= 440 points keeps every (n // 220)-th one; shorter axes
    # draw one cell per point.  The CSV holds the full grid either way.
    sx = max(1, x.size // 220)
    sy = max(1, y.size // 220)
    xs, ys = x[::sx], y[::sy]
    # a cell spans from its point to the next one, the last to the frame edge
    x0 = fr.px(xs)
    x1 = np.append(x0[1:], fr.px(fr.xhi))
    y0 = fr.py(ys)
    y1 = np.append(y0[1:], fr.py(fr.yhi))
    # one row's bytes: each column's <rect> with its x and width filled in,
    # and \x01, \x02 and six \x03 where the row's top, height and fill go
    template = bytearray("".join(
        f'\n<rect x="{left:.1f}" y="\x01" width="{width:.1f}" height="\x02" fill="#\x03\x03\x03\x03\x03\x03"/>'
        for left, width in zip(x0.tolist(), (np.abs(x1 - x0) + 0.5).tolist())
    ).encode())
    tops = [f"{v:.1f}".encode() for v in np.minimum(y0, y1).tolist()]
    heights = [f"{v:.1f}".encode() for v in (np.abs(y0 - y1) + 0.5).tolist()]
    drawn = order[::sy]  # z's rows, in the order they are drawn
    # the fills' positions depend only on how many bytes longer than the
    # template a row came out, since each fill follows its rect's top and height
    fill_at = {}

    def rows():
        for start in range(0, drawn.size, _HEATMAP_ROWS):
            # the fills' bytes, red first, as hex digit pairs
            rgb = _viridis_rgb(z[drawn[start:start + _HEATMAP_ROWS], ::sx]).astype(">u4")
            fills = _HEX.take(rgb.view(np.uint8).reshape(*rgb.shape, 4)[..., 1:], axis=0)
            for j, fill in enumerate(fills, start):
                row = template.replace(b"\x01", tops[j]).replace(b"\x02", heights[j])
                grown = len(row) - len(template)
                if grown not in fill_at:
                    fill_at[grown] = np.flatnonzero(np.frombuffer(row, dtype=np.uint8) == 3)
                np.frombuffer(row, dtype=np.uint8)[fill_at[grown]] = fill.ravel()
                yield row

    fr.axes()
    fr.save(path, rows())


# the two lowercase hex digits of each byte value
_HEX = np.frombuffer(bytes(range(256)).hex().encode(), dtype=np.uint8).reshape(256, 2)

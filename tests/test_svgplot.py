"""The array-at-a-time heatmap and line chart write the same bytes as the
per-cell and per-point loops they replaced."""

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from atompair import svgplot


def _viridis_reference(v: float) -> str:
    stops = [
        (0.267, 0.005, 0.329), (0.283, 0.141, 0.458), (0.254, 0.265, 0.530),
        (0.207, 0.372, 0.553), (0.164, 0.471, 0.558), (0.128, 0.567, 0.551),
        (0.135, 0.659, 0.518), (0.267, 0.749, 0.441), (0.478, 0.821, 0.318),
        (0.741, 0.873, 0.150), (0.993, 0.906, 0.144),
    ]
    v = min(max(v, 0.0), 1.0) * (len(stops) - 1)
    i = min(int(v), len(stops) - 2)
    f = v - i
    rgb = [stops[i][c] * (1 - f) + stops[i + 1][c] * f for c in range(3)]
    return "#" + "".join(f"{int(255 * c):02x}" for c in rgb)


def heatmap_reference(path, x, y, z, title="", xlabel="", ylabel=""):
    """The per-cell heatmap loop, kept as the byte-for-byte reference."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    fr = svgplot._Frame(float(x[0]), float(x[-1]), float(y[0]), float(y[-1]), title, xlabel, ylabel)
    sx = max(1, x.size // 220)
    sy = max(1, y.size // 220)
    xs, ys, zs = x[::sx], y[::sy], z[::sy, ::sx]
    for j in range(ys.size):
        y0 = fr.py(float(ys[j]))
        y1 = fr.py(float(ys[j + 1])) if j + 1 < ys.size else fr.py(fr.yhi)
        for i in range(xs.size):
            x0 = fr.px(float(xs[i]))
            x1 = fr.px(float(xs[i + 1])) if i + 1 < xs.size else fr.px(fr.xhi)
            v = zs[j, i]
            fr.parts.append(
                f'<rect x="{x0:.1f}" y="{min(y0, y1):.1f}" width="{abs(x1 - x0) + 0.5:.1f}" '
                f'height="{abs(y0 - y1) + 0.5:.1f}" fill="{_viridis_reference(v)}"/>'
            )
    fr.axes()
    fr.parts.append("</svg>")
    Path(path).write_text("\n".join(fr.parts), encoding="utf-8")


def _edge_values():
    """Out-of-range values, both ends, every colour-stop boundary and its neighbours."""
    stops = [k / 10 for k in range(11)]
    return np.array(
        [-1.0, -1e-300, -0.0, 0.0, 1.0, 1.0 + 1e-15, 2.0, 1e300]
        + stops
        + [np.nextafter(s, -np.inf) for s in stops]
        + [np.nextafter(s, np.inf) for s in stops]
    )


def _grid(nx, ny, seed):
    rng = np.random.default_rng(seed)
    z = rng.uniform(-0.25, 1.25, size=(ny, nx)).ravel()
    edges = _edge_values()
    z[: min(z.size, edges.size)] = edges[: z.size]
    return np.linspace(0.0, 15.0, nx), np.linspace(-20.0, 20.0, ny), z.reshape(ny, nx)


@pytest.mark.parametrize(
    "nx, ny",
    [(2, 2), (7, 5), (41, 3), (3, 450), (445, 2)],  # 440+ points thin the axis
)
def test_heatmap_bytes_match_per_cell_loop(tmp_path, nx, ny):
    x, y, z = _grid(nx, ny, seed=nx * 1000 + ny)
    heatmap_reference(tmp_path / "ref.svg", x, y, z, title="t", xlabel="tau", ylabel="K")
    svgplot.heatmap(tmp_path / "new.svg", x, y, z, title="t", xlabel="tau", ylabel="K")
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()


def test_heatmap_bytes_match_at_the_figure_shape(tmp_path):
    # the C(tau, K) figure: 401 dipole strengths by 301 times
    x, y, z = _grid(301, 401, seed=11)
    heatmap_reference(tmp_path / "ref.svg", x, y, z, title="t", xlabel="tau", ylabel="K")
    svgplot.heatmap(tmp_path / "new.svg", x, y, z, title="t", xlabel="tau", ylabel="K")
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()


def test_heatmap_bytes_match_on_a_descending_axis_across_blocks(tmp_path):
    # 37 drawn rows: two whole blocks of _HEATMAP_ROWS and a short one
    assert 37 % svgplot._HEATMAP_ROWS
    x, y, z = _grid(23, 37, seed=12)
    heatmap_reference(tmp_path / "ref.svg", x, y, z, title="t", xlabel="tau", ylabel="K")
    svgplot.heatmap(tmp_path / "new.svg", x, y[::-1], z[::-1], title="t", xlabel="tau", ylabel="K")
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()


def test_heatmap_bytes_match_thinned_on_both_axes(tmp_path):
    # 900 rows keep every 4th, 225 drawn rows; 450 columns keep every 2nd
    x, y, z = _grid(450, 900, seed=13)
    heatmap_reference(tmp_path / "ref.svg", x, y, z, title="t", xlabel="tau", ylabel="K")
    svgplot.heatmap(tmp_path / "new.svg", x, y, z, title="t", xlabel="tau", ylabel="K")
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()


def test_heatmap_bytes_match_when_row_strings_change_length_in_a_block(tmp_path):
    # gaps alternating 1 and 1.15 give heights either side of 10 px, and the
    # tops pass from 100.x to 99.x px inside one block of _HEATMAP_ROWS rows
    y = np.concatenate([[0.0], np.cumsum(np.tile([1.0, 1.15], 20))])
    x, _, z = _grid(9, y.size, seed=15)
    heatmap_reference(tmp_path / "ref.svg", x, y, z, title="t", xlabel="tau", ylabel="K")
    svgplot.heatmap(tmp_path / "new.svg", x, y, z, title="t", xlabel="tau", ylabel="K")
    svg = (tmp_path / "new.svg").read_text()
    assert svg.encode() == (tmp_path / "ref.svg").read_bytes()
    # one (top, height) per row, in drawn order, from each row's first cell
    rows = re.findall(r'<rect x="70.0" y="([0-9.]+)" width="[0-9.]+" height="([0-9.]+)"', svg)
    assert len(rows) == y.size
    blocks = [rows[k:k + svgplot._HEATMAP_ROWS] for k in range(0, len(rows), svgplot._HEATMAP_ROWS)]
    assert any({len(top) for top, _ in b} == {4, 5} for b in blocks)
    assert all({len(height) for _, height in b} == {3, 4} for b in blocks[:-1])


@pytest.mark.parametrize("nx, ny", [(1, 6), (6, 1), (1, 1)])
def test_heatmap_bytes_match_on_a_single_column_or_row(tmp_path, nx, ny):
    x, y, z = _grid(nx, ny, seed=16 + nx)
    heatmap_reference(tmp_path / "ref.svg", x, y, z, title="t", xlabel="tau", ylabel="K")
    svgplot.heatmap(tmp_path / "new.svg", x, y, z, title="t", xlabel="tau", ylabel="K")
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()


def test_heatmap_memory_does_not_span_the_grid(tmp_path):
    # the figure's grid; holding every row string and whole-grid colour
    # arrays took about 11 MB
    x, y, z = _grid(301, 401, seed=14)
    tracemalloc.start()
    try:
        svgplot.heatmap(tmp_path / "map.svg", x, y, z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


def test_heatmap_bytes_match_with_a_single_colour(tmp_path):
    x, y, _ = _grid(7, 5, seed=4)
    z = np.full((5, 7), 0.3)
    heatmap_reference(tmp_path / "ref.svg", x, y, z)
    svgplot.heatmap(tmp_path / "new.svg", x, y, z)
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()


def test_heatmap_draws_a_descending_axis_in_increasing_order(tmp_path):
    x, y, z = _grid(11, 5, seed=5)
    svgplot.heatmap(tmp_path / "up.svg", x, y, z)
    svgplot.heatmap(tmp_path / "down.svg", x, y[::-1], z[::-1])
    down = (tmp_path / "down.svg").read_text()
    assert down == (tmp_path / "up.svg").read_text()
    # the y ticks span [min y, max y] and sit inside the frame
    ticks = [float(m) for m in re.findall(r'y="([0-9.]+)" text-anchor="end"', down)]
    labels = [float(m) for m in re.findall(r'text-anchor="end">([^<]+)<', down)]
    assert labels[0] == -20.0 and labels[-1] == 20.0
    assert all(svgplot._MT <= v - 4 <= svgplot._H - svgplot._MB for v in ticks)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_heatmap_refuses_non_finite_z(tmp_path, bad):
    x, y, z = _grid(7, 5, seed=6)
    z[2, 3] = bad
    with pytest.raises(ValueError, match="must be finite, but 1 value"):
        svgplot.heatmap(tmp_path / "bad.svg", x, y, z)
    assert not (tmp_path / "bad.svg").exists()


def line_chart_reference(path, x, series, title="", xlabel="", ylabel=""):
    """The per-point line chart loop, kept as the byte-for-byte reference."""
    x = np.asarray(x, dtype=float)
    ylo = min(float(np.min(v)) for v in series.values())
    yhi = max(float(np.max(v)) for v in series.values())
    fr = svgplot._Frame(float(x[0]), float(x[-1]), ylo, yhi, title, xlabel, ylabel)
    fr.axes()
    for k, (label, y) in enumerate(series.items()):
        color = svgplot._PALETTE[k % len(svgplot._PALETTE)]
        pts = " ".join(
            f"{fr.px(float(xi)):.1f},{fr.py(float(yi)):.1f}"
            for xi, yi in zip(x, np.asarray(y, dtype=float))
        )
        fr.parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = svgplot._MT + 16 + 16 * k
        fr.parts.append(
            f'<line x1="{svgplot._W - svgplot._MR - 130}" y1="{ly}" x2="{svgplot._W - svgplot._MR - 105}" '
            f'y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        fr.parts.append(f'<text x="{svgplot._W - svgplot._MR - 100}" y="{ly + 4}">{label}</text>')
    fr.parts.append("</svg>")
    Path(path).write_text("\n".join(fr.parts), encoding="utf-8")


@pytest.mark.parametrize(
    "n, kind",
    [(2001, "run"), (4001, "run"), (1601, "run"), (50, "constant"), (3, "run")],
)
def test_line_chart_bytes_match_per_point_loop(tmp_path, n, kind):
    # 2001 samples is the run command's default; every point is drawn,
    # the run command thinning a long trace before it calls line_chart
    rng = np.random.default_rng(n)
    x = np.linspace(0.0, 10.0, n)
    if kind == "constant":
        series = {"c": np.full(n, 0.25)}
    else:
        series = {
            "concurrence": np.abs(np.sin(x)) * np.exp(-0.1 * x),
            "p1 + p2": np.exp(-0.2 * x),
            "pb": rng.uniform(-1e-3, 0.2, n),
            "p_leak": np.concatenate([[-0.0], 1.0 - np.exp(-0.2 * x[1:])]),
        }
    line_chart_reference(tmp_path / "ref.svg", x, series, title="t", xlabel="tau", ylabel="y")
    svgplot.line_chart(tmp_path / "new.svg", x, series, title="t", xlabel="tau", ylabel="y")
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()

"""Minimal SVG emission for scatter and histogram figures.

The CSV files written next to the figures are the data contract; these
renderings exist for quick visual inspection. Every scatter point is one
<circle class="point"> and every histogram bar one <rect class="bin">,
so the figures stay mechanically checkable.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

WIDTH, HEIGHT = 480, 360
MARGIN = 48


def _canvas(title: str) -> ET.Element:
    svg = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "width": str(WIDTH),
            "height": str(HEIGHT),
            "viewBox": f"0 0 {WIDTH} {HEIGHT}",
        },
    )
    t = ET.SubElement(svg, "text", {"x": str(WIDTH // 2), "y": "20", "text-anchor": "middle", "font-size": "14"})
    t.text = title
    # axes
    ET.SubElement(
        svg, "path",
        {"d": f"M {MARGIN} {MARGIN} V {HEIGHT - MARGIN} H {WIDTH - MARGIN}", "stroke": "black", "fill": "none"},
    )
    return svg


def _label(svg: ET.Element, xlabel: str, ylabel: str) -> None:
    x = ET.SubElement(svg, "text", {"x": str(WIDTH // 2), "y": str(HEIGHT - 10), "text-anchor": "middle", "font-size": "12"})
    x.text = xlabel
    y = ET.SubElement(
        svg, "text",
        {"x": "14", "y": str(HEIGHT // 2), "text-anchor": "middle", "font-size": "12",
         "transform": f"rotate(-90 14 {HEIGHT // 2})"},
    )
    y.text = ylabel


def _to_px(v: float, lo: float, hi: float, px0: float, px1: float) -> float:
    if hi <= lo:
        return px0
    return px0 + (v - lo) / (hi - lo) * (px1 - px0)


def scatter_svg(points: list[tuple[float, float]], title: str, xlabel: str, ylabel: str,
                xlim=(0.0, 1.0), ylim=(0.0, 1.0)) -> str:
    svg = _canvas(title)
    _label(svg, xlabel, ylabel)
    # the points are written as text, as ElementTree would serialise them:
    # building one element per point costs more than the rest of the figure
    circles = "".join(
        f'<circle class="point" cx="{_to_px(x, xlim[0], xlim[1], MARGIN, WIDTH - MARGIN):.2f}" '
        f'cy="{_to_px(y, ylim[0], ylim[1], HEIGHT - MARGIN, MARGIN):.2f}" '
        'r="2.5" fill="steelblue" fill-opacity="0.6" />'
        for x, y in points
    )
    return ET.tostring(svg, encoding="unicode").removesuffix("</svg>") + circles + "</svg>\n"


def histogram_svg(bin_edges: list[float], counts: list[int], title: str, xlabel: str) -> str:
    svg = _canvas(title)
    _label(svg, xlabel, "count")
    peak = max(counts) if counts and max(counts) > 0 else 1
    lo, hi = bin_edges[0], bin_edges[-1]
    for left, right, n in zip(bin_edges, bin_edges[1:], counts):
        x0 = _to_px(left, lo, hi, MARGIN, WIDTH - MARGIN)
        x1 = _to_px(right, lo, hi, MARGIN, WIDTH - MARGIN)
        top = _to_px(n, 0, peak, HEIGHT - MARGIN, MARGIN)
        ET.SubElement(
            svg, "rect",
            {
                "class": "bin",
                "x": f"{x0:.2f}",
                "y": f"{top:.2f}",
                "width": f"{max(x1 - x0 - 1.0, 0.5):.2f}",
                "height": f"{(HEIGHT - MARGIN) - top:.2f}",
                "fill": "darkorange",
            },
        )
    return ET.tostring(svg, encoding="unicode") + "\n"

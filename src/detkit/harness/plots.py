"""Minimal SVG emission for scatter and histogram figures.

The CSV files written next to the figures are the data contract; these
renderings exist for quick visual inspection. Every scatter point is one
<circle class="point"> and every histogram bar one <rect class="bin">,
so the figures stay mechanically checkable.

Each figure is one text template in ElementTree's serialisation: attributes
in insertion order, empty elements closed with " />", and the title and
labels, which are never empty, escaped as element text. Every attribute
value is a formatted number or a constant, so none needs escaping.
"""

from __future__ import annotations

WIDTH, HEIGHT = 480, 360
MARGIN = 48


def _text(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _figure(title: str, xlabel: str, ylabel: str, marks: str) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
        f'<text x="{WIDTH // 2}" y="20" text-anchor="middle" font-size="14">{_text(title)}</text>'
        f'<path d="M {MARGIN} {MARGIN} V {HEIGHT - MARGIN} H {WIDTH - MARGIN}" stroke="black" fill="none" />'
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 10}" text-anchor="middle" font-size="12">{_text(xlabel)}</text>'
        f'<text x="14" y="{HEIGHT // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {HEIGHT // 2})">{_text(ylabel)}</text>'
        f"{marks}</svg>\n"
    )


def _to_px(v: float, lo: float, hi: float, px0: float, px1: float) -> float:
    if hi <= lo:
        return px0
    return px0 + (v - lo) / (hi - lo) * (px1 - px0)


def scatter_svg(points: list[tuple[float, float]], title: str, xlabel: str, ylabel: str) -> str:
    """Points in [0, 1] x [0, 1]; points outside it fall outside the axes."""
    marks = "".join(
        f'<circle class="point" cx="{_to_px(x, 0.0, 1.0, MARGIN, WIDTH - MARGIN):.2f}" '
        f'cy="{_to_px(y, 0.0, 1.0, HEIGHT - MARGIN, MARGIN):.2f}" r="2.5" fill="steelblue" fill-opacity="0.6" />'
        for x, y in points
    )
    return _figure(title, xlabel, ylabel, marks)


def histogram_svg(bin_edges: list[float], counts: list[int], title: str, xlabel: str) -> str:
    peak = max(counts) if counts and max(counts) > 0 else 1
    lo, hi = bin_edges[0], bin_edges[-1]
    marks = []
    for left, right, n in zip(bin_edges, bin_edges[1:], counts):
        x0 = _to_px(left, lo, hi, MARGIN, WIDTH - MARGIN)
        x1 = _to_px(right, lo, hi, MARGIN, WIDTH - MARGIN)
        top = _to_px(n, 0, peak, HEIGHT - MARGIN, MARGIN)
        marks.append(
            f'<rect class="bin" x="{x0:.2f}" y="{top:.2f}" width="{max(x1 - x0 - 1.0, 0.5):.2f}" '
            f'height="{(HEIGHT - MARGIN) - top:.2f}" fill="darkorange" />'
        )
    return _figure(title, xlabel, "count", "".join(marks))

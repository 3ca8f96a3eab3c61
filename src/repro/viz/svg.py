"""SVG rendering of time-space diagrams (the graphical NTV analog).

Produces the figures of the paper as standalone SVG files: colored
construct bars per process row, angled message lines, the vertical
stopline indicator (Figure 2), and the slanted past/future frontier
polylines (Figure 8).  Output is deterministic text, so tests can assert
on its structure.
"""

from __future__ import annotations

from typing import Optional

from .layout import Viewport
from .timespace import TimeSpaceDiagram

#: Fill colors per construct category ("the bar is colored depending on
#: the type of the construct").
CATEGORY_COLORS = {
    "compute": "#4e79a7",
    "send": "#f28e2b",
    "recv": "#59a14f",
    "collective": "#b07aa1",
    "func": "#bab0ac",
    "other": "#d3d3d3",
}

ROW_HEIGHT = 24
BAR_HEIGHT = 12
MARGIN_LEFT = 40
MARGIN_TOP = 20


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class SvgCanvas:
    """Minimal deterministic SVG assembly."""

    def __init__(self, width: int, height: int) -> None:
        self.width = width
        self.height = height
        self._parts: list[str] = []

    def rect(self, x: float, y: float, w: float, h: float, fill: str, title: str = "") -> None:
        tooltip = f"<title>{_esc(title)}</title>" if title else ""
        self._parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{max(w, 1.0):.1f}" '
            f'height="{h:.1f}" fill="{fill}">{tooltip}</rect>'
        )

    def line(
        self, x1: float, y1: float, x2: float, y2: float,
        stroke: str, width: float = 1.0, dash: Optional[str] = None,
        title: str = "",
    ) -> None:
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        tooltip = f"<title>{_esc(title)}</title>" if title else ""
        self._parts.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            f'stroke="{stroke}" stroke-width="{width}"{dash_attr}>{tooltip}</line>'
        )

    def text(self, x: float, y: float, content: str, size: int = 10) -> None:
        self._parts.append(
            f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" '
            f'font-family="monospace">{_esc(content)}</text>'
        )

    def to_string(self) -> str:
        body = "\n".join(self._parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f'<rect width="100%" height="100%" fill="white"/>\n{body}\n</svg>'
        )


def render_svg(
    diagram: TimeSpaceDiagram,
    viewport: Optional[Viewport] = None,
    pixel_width: int = 900,
) -> str:
    """Render the diagram to an SVG string.

    Rows run highest rank at the top, matching the paper's figures
    ("Process 0 (at the bottom) distributes pairs of submatrices...").
    """
    if viewport is None:
        t_lo, t_hi = diagram.span
        viewport = Viewport.fit(t_lo, t_hi, columns=pixel_width)
    nprocs = diagram.nprocs
    height = MARGIN_TOP * 2 + ROW_HEIGHT * nprocs
    canvas = SvgCanvas(pixel_width + MARGIN_LEFT * 2, height)

    def x_of(t: float) -> float:
        frac = (t - viewport.t0) / viewport.width
        return MARGIN_LEFT + max(0.0, min(1.0, frac)) * pixel_width

    def y_of(proc: int) -> float:
        # top row = highest rank
        row = nprocs - 1 - proc
        return MARGIN_TOP + row * ROW_HEIGHT

    # process labels and baselines
    for p in range(nprocs):
        y = y_of(p)
        canvas.text(4, y + BAR_HEIGHT, f"p{p}")
        canvas.line(
            MARGIN_LEFT, y + ROW_HEIGHT / 2,
            MARGIN_LEFT + pixel_width, y + ROW_HEIGHT / 2,
            stroke="#eeeeee",
        )

    # construct bars
    for bar in diagram.bars:
        if not viewport.overlaps(bar.t0, bar.t1):
            continue
        x0 = x_of(bar.t0)
        x1 = x_of(bar.t1)
        canvas.rect(
            x0,
            y_of(bar.proc) + (ROW_HEIGHT - BAR_HEIGHT) / 2,
            x1 - x0,
            BAR_HEIGHT,
            CATEGORY_COLORS[bar.category],
            title=f"{bar.record.kind.value} {bar.record.location}",
        )

    # message lines: (t_sent, src) -> (t_received, dst)
    for msg in diagram.messages:
        canvas.line(
            x_of(msg.t_sent),
            y_of(msg.src) + ROW_HEIGHT / 2,
            x_of(msg.t_received),
            y_of(msg.dst) + ROW_HEIGHT / 2,
            stroke="#333333",
            title=(
                f"msg {msg.src}->{msg.dst} tag={msg.send.tag} "
                f"sent {msg.send.location} recv {msg.recv.location}"
            ),
        )

    # stopline: the Figure 2 vertical indicator
    if diagram.stopline_time is not None and viewport.contains(diagram.stopline_time):
        x = x_of(diagram.stopline_time)
        canvas.line(x, MARGIN_TOP - 6, x, height - MARGIN_TOP + 6,
                    stroke="#cc0000", width=2.0, title="stopline")

    # frontiers: the Figure 8 slanted polylines
    for frontier, color in (
        (diagram.past_frontier, "#000000"),
        (diagram.future_frontier, "#000000"),
    ):
        if not frontier:
            continue
        points = sorted(frontier.items())
        for (p1, t1), (p2, t2) in zip(points, points[1:]):
            canvas.line(
                x_of(t1), y_of(p1) + ROW_HEIGHT / 2,
                x_of(t2), y_of(p2) + ROW_HEIGHT / 2,
                stroke=color, width=1.5, dash="4,3",
                title="frontier",
            )

    canvas.text(MARGIN_LEFT, height - 4,
                f"t = {viewport.t0:.2f} .. {viewport.t1:.2f}")
    return canvas.to_string()


def save_svg(diagram: TimeSpaceDiagram, path, **kwargs) -> None:
    """Render and write to ``path``."""
    from pathlib import Path

    Path(path).write_text(render_svg(diagram, **kwargs))

"""Figure 2: "History displayed with NTV" -- full-trace view + stopline.

The figure shows the whole Strassen trace in NTV: construct bars per
process, angled message lines, and "the vertical line near the left side
represents the stopline".  The benchmark regenerates that display (ASCII
and SVG) with a stopline placed early in the run, and checks the NTV
interactions: full-file view, zoom, pan, and click-to-source.
"""

from __future__ import annotations

from repro.debugger import vertical_stopline_at_time
from repro.viz import Viewport, build_diagram, render_ascii, render_svg

from .conftest import write_artifact


def test_fig2_ntv_view(benchmark, strassen8_trace):
    trace = strassen8_trace
    diagram = build_diagram(trace)

    # The stopline "near the left side": 15% into the run.
    t_lo, t_hi = trace.span
    sl_time = t_lo + 0.15 * (t_hi - t_lo)
    stopline = vertical_stopline_at_time(trace, sl_time)
    diagram.set_stopline(stopline.time)

    render = lambda: render_svg(diagram)  # noqa: E731
    svg = benchmark(render)

    ascii_view = render_ascii(diagram, columns=100)
    write_artifact(
        "fig2_ntv_view.txt",
        ascii_view + "\n\n" + stopline.describe(),
    )
    write_artifact("fig2_ntv_view.svg", svg)

    # --- display shape ----------------------------------------------------
    lines = ascii_view.splitlines()
    assert lines[1].startswith("p7 |")  # 8 process rows, top rank first
    assert lines[8].startswith("p0 |")
    assert any("|" in ln[4:] for ln in lines[1:9]), "stopline indicator drawn"
    assert svg.count("<line") >= 21  # all message lines present
    assert "<title>stopline</title>" in svg

    # --- NTV interactions ---------------------------------------------------
    vp = Viewport.fit(t_lo, t_hi, columns=100)
    zoomed = vp.zoom(4.0, center=sl_time).pan((t_hi - t_lo) / 20)
    zoom_view = render_ascii(diagram, zoomed, columns=100)
    assert zoom_view  # zoom+pan renders
    # Click-through: a bar under the cursor names its source construct.
    bar = diagram.bars[0]
    src = diagram.source_of_click(bar.proc, (bar.t0 + bar.t1) / 2)
    assert src is not None and ".py" in src

    # Stopline thresholds exist for every process still active at the cut.
    assert len(stopline.thresholds) >= 1

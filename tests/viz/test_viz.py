"""Viewport math, time-space diagrams, SVG, and the animated view."""

from __future__ import annotations

import pytest

from repro.analysis.history import HistoryIndex
from repro.analysis.paged import OutOfCoreIndex
from repro.apps import strassen as st
from repro.debugger import vertical_stopline_at_time
from repro.trace import EventKind, TraceFileReader, TraceFileWriter, TraceRecord
from repro.viz import (
    AnimatedView,
    Viewport,
    build_diagram,
    build_window_diagram,
    render_ascii,
    render_svg,
    save_svg,
)
from tests.conftest import traced_run

FOOTER_PREFIX = b'{"__trace_index__'


@pytest.fixture(scope="module")
def strassen_diagram():
    cfg = st.StrassenConfig(n=8, nprocs=8)
    _, tr = traced_run(st.strassen_program(cfg), 8)
    return tr, build_diagram(tr)


class TestViewport:
    def test_column_mapping_roundtrip(self):
        vp = Viewport(0.0, 100.0, columns=101)
        assert vp.column_of(0.0) == 0
        assert vp.column_of(100.0) == 100
        assert vp.column_of(50.0) == 50
        assert vp.time_of(50) == pytest.approx(50.0)

    def test_clamping(self):
        vp = Viewport(10.0, 20.0, columns=10)
        assert vp.column_of(-5.0) == 0
        assert vp.column_of(99.0) == 9

    def test_zoom_in_halves_width(self):
        vp = Viewport(0.0, 100.0).zoom(2.0)
        assert vp.width == pytest.approx(50.0)
        assert (vp.t0 + vp.t1) / 2 == pytest.approx(50.0)

    def test_zoom_around_center(self):
        vp = Viewport(0.0, 100.0).zoom(4.0, center=10.0)
        assert vp.t0 == pytest.approx(-2.5)
        assert vp.t1 == pytest.approx(22.5)

    def test_pan(self):
        vp = Viewport(0.0, 10.0).pan(5.0)
        assert (vp.t0, vp.t1) == (5.0, 15.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Viewport(5.0, 5.0)
        with pytest.raises(ValueError):
            Viewport(0.0, 1.0, columns=1)
        with pytest.raises(ValueError):
            Viewport(0.0, 1.0).zoom(0.0)

    def test_fit_handles_degenerate_span(self):
        vp = Viewport.fit(3.0, 3.0)
        assert vp.width > 0


class TestDiagramModel:
    def test_bars_and_messages_built(self, strassen_diagram):
        tr, dia = strassen_diagram
        assert len(dia.messages) == 21
        assert len(dia.bars) > 0
        cats = {b.category for b in dia.bars}
        assert {"compute", "send", "recv"} <= cats

    def test_hit_test_bar(self, strassen_diagram):
        tr, dia = strassen_diagram
        some_bar = next(b for b in dia.bars if b.category == "compute")
        mid = (some_bar.t0 + some_bar.t1) / 2
        rec = dia.hit_test(some_bar.proc, mid)
        assert rec is not None
        assert rec.t0 <= mid <= rec.t1

    def test_hit_test_miss(self, strassen_diagram):
        _, dia = strassen_diagram
        assert dia.hit_test(0, -999.0) is None

    def test_click_to_source(self, strassen_diagram):
        """"Clicking on a bar ... can identify the location ... in the
        source code" (§3.1)."""
        _, dia = strassen_diagram
        send_bar = next(b for b in dia.bars if b.category == "send")
        src = dia.source_of_click(send_bar.proc, (send_bar.t0 + send_bar.t1) / 2)
        assert src is not None and "strassen.py" in src

    def test_message_hit_test(self, strassen_diagram):
        _, dia = strassen_diagram
        msg = dia.messages[0]
        mid = (msg.t_sent + msg.t_received) / 2
        hit = dia.hit_test_message(mid)
        assert hit is not None
        assert hit.t_sent <= mid <= hit.t_received


class TestAsciiRendering:
    def test_rows_highest_rank_first(self, strassen_diagram):
        _, dia = strassen_diagram
        text = render_ascii(dia, columns=60)
        lines = text.splitlines()
        assert lines[1].startswith("p7 |")
        assert lines[8].startswith("p0 |")

    def test_stopline_rendered(self, strassen_diagram):
        tr, dia = strassen_diagram
        t_lo, t_hi = tr.span
        dia.set_stopline((t_lo + t_hi) / 2)
        text = render_ascii(dia, columns=60)
        assert "|" in text.splitlines()[1][4:]  # beyond the row label

    def test_message_endpoints_marked(self, strassen_diagram):
        _, dia = strassen_diagram
        text = render_ascii(dia, columns=120)
        assert "s" in text and "r" in text

    def test_zoomed_view_smaller_time_per_col(self, strassen_diagram):
        tr, dia = strassen_diagram
        t_lo, t_hi = tr.span
        full = Viewport.fit(t_lo, t_hi, columns=60)
        zoomed = full.zoom(4.0)
        assert zoomed.time_per_column < full.time_per_column
        text = render_ascii(dia, zoomed, columns=60)
        assert text  # renders without error


class TestSvg:
    def test_svg_structure(self, strassen_diagram):
        _, dia = strassen_diagram
        svg = render_svg(dia)
        assert svg.startswith("<svg")
        assert svg.count("<line") >= len(dia.messages)
        assert svg.count("<rect") >= len(dia.bars)

    def test_stopline_and_tooltips(self, strassen_diagram):
        tr, dia = strassen_diagram
        sl = vertical_stopline_at_time(tr, tr.span[1] / 2)
        dia.set_stopline(sl.time)
        svg = render_svg(dia)
        assert "<title>stopline</title>" in svg
        assert "strassen.py" in svg  # click-through source info

    def test_frontier_overlay(self, strassen_diagram):
        _, dia = strassen_diagram
        dia.set_frontiers({p: 10.0 + p for p in range(8)}, None)
        svg = render_svg(dia)
        assert "<title>frontier</title>" in svg

    def test_save(self, tmp_path, strassen_diagram):
        _, dia = strassen_diagram
        out = tmp_path / "fig.svg"
        save_svg(dia, out)
        assert out.read_text().startswith("<svg")

    def test_escaping(self):
        from repro.viz.svg import _esc

        assert _esc("a<b&c>") == "a&lt;b&amp;c&gt;"


class TestAnimatedView:
    def test_frames_cover_history(self, strassen_diagram):
        tr, dia = strassen_diagram
        view = AnimatedView(dia, columns=40)
        frames = view.frames(step_fraction=0.5)
        assert len(frames) >= 3
        # Final frame window reaches the end of history.
        assert view.position + view.window >= tr.span[1] - 1e-9

    def test_scroll_both_directions(self, strassen_diagram):
        _, dia = strassen_diagram
        view = AnimatedView(dia, columns=40)
        p0 = view.position
        view.forward()
        assert view.position > p0
        view.backward()
        assert view.position == pytest.approx(p0)

    def test_rescale(self, strassen_diagram):
        _, dia = strassen_diagram
        view = AnimatedView(dia, columns=40)
        w = view.window
        view.rescale(2.0)
        assert view.window == pytest.approx(2 * w)
        with pytest.raises(ValueError):
            view.rescale(0)

    def test_seek_clamps(self, strassen_diagram):
        tr, dia = strassen_diagram
        view = AnimatedView(dia, columns=40)
        view.seek(-100.0)
        assert view.position == tr.span[0]
        view.seek(1e9)
        assert view.position + view.window <= tr.span[1] + 1e-9


def write_file(path, records, nprocs, index_block=16):
    with TraceFileWriter(path, nprocs, index_block=index_block) as w:
        for rec in records:
            w.write(rec)
    return path


class TestWindowDiagram:
    @pytest.fixture
    def plain_file(self, tmp_path):
        records = [
            TraceRecord(i, i % 2, EventKind.COMPUTE, i / 100, i / 100 + 0.5, i + 1)
            for i in range(2000)
        ]
        return write_file(tmp_path / "plain.trace", records, 2, index_block=64)

    def test_window_bars_keep_their_trace_index(self, plain_file):
        """A click in a zoomed window acts on the record's place in the
        whole trace, not on its place in the window."""
        reader = TraceFileReader(plain_file)
        for source in (reader, OutOfCoreIndex(reader)):
            diagram = build_window_diagram(source, 10.0, 20.0)
            assert [b.record for b in diagram.bars] == reader.seek_window(10.0, 20.0)
            assert diagram.bars[0].record.index == 950
            hit = diagram.hit_test(1, 15.0)
            assert (hit.index, hit.marker) == (1499, 1500)
            assert diagram.span == pytest.approx((9.5, 20.49))

    def test_window_diagram_builds_no_history_index(
        self, tmp_path, strassen_diagram, monkeypatch
    ):
        tr, dia = strassen_diagram
        path = write_file(tmp_path / "strassen.trace", tr, tr.nprocs)

        def refuse(*args, **kwargs):
            raise AssertionError("the window view built a HistoryIndex")

        monkeypatch.setattr(HistoryIndex, "__init__", refuse)
        reader = TraceFileReader(path)
        for source in (reader, OutOfCoreIndex(reader)):
            whole = build_window_diagram(source)
            assert [b.record for b in whole.bars] == [b.record for b in dia.bars]
            assert [(m.send, m.recv) for m in whole.messages] == [
                (m.send, m.recv) for m in dia.messages
            ]
            assert whole.span == dia.span

    def test_file_view_frames_match_the_window_diagrams(self, tmp_path, strassen_diagram):
        """The VK view over an indexed file (paged, cached) and over a
        footerless copy (the reader's linear walk) draw the same frames:
        each that window's ``build_window_diagram``."""
        tr, _ = strassen_diagram
        indexed = write_file(tmp_path / "indexed.trace", tr, tr.nprocs, index_block=8)
        data = indexed.read_bytes()
        footerless = tmp_path / "footerless.trace"
        footerless.write_bytes(data[: data.rindex(FOOTER_PREFIX) - 1])
        sessions = []
        for path in (indexed, footerless):
            reader = TraceFileReader(path)
            view = AnimatedView.from_file(reader, columns=60)
            frames = []
            for move in (
                view.frame, view.forward, view.forward, view.backward,
                lambda: view.seek(tr.span[1] / 3), lambda: view.rescale(0.5), view.forward,
            ):
                frames.append(move())
                window = build_window_diagram(
                    reader, view.position, view.position + view.window
                )
                assert frames[-1] == render_ascii(window, view.viewport(), view.columns)
            sessions.append((frames, view.source))
        (frames, paged), (frames_linear, linear) = sessions
        assert frames == frames_linear
        assert "s" in "".join(frames) and "r" in "".join(frames)
        assert isinstance(paged, OutOfCoreIndex) and isinstance(linear, TraceFileReader)
        assert paged.stats().cache_hits > 0

from bench.spans import NullSpans, Span, Spans


def _span(id, layer, start, end, parent=None, thread="MainThread"):
    return Span(id, f"s{id}", layer, start, end, parent, None, thread)


def test_self_time_subtracts_children_only():
    spans = Spans()
    spans.main_thread = "MainThread"
    spans.spans = [
        _span(0, "debugger", 0.0, 10.0),
        _span(1, "analysis", 2.0, 5.0, parent=0),
        _span(2, "trace", 3.0, 4.0, parent=1),
        _span(3, "analysis", 6.0, 7.0, parent=0),
        _span(4, "bench", 11.0, 12.0),
        _span(5, "trace", 2.0, 9.0, thread="repro-prefetch_0"),
    ]
    main = spans.self_times("MainThread")
    assert main == {"debugger": 6.0, "analysis": 3.0, "trace": 1.0, "bench": 1.0}
    # self times of one thread add up to what its root spans cover
    assert sum(main.values()) == spans.covered() == 11.0
    assert spans.self_times()["trace"] == 8.0


def test_recorded_nesting_and_requests():
    spans = Spans()
    spans.request = "r1"
    with spans.span("outer", "debugger"):
        spans.request = "r2"  # a root span fixes its request when it starts
        with spans.span("inner", "analysis"):
            pass
    spans.request = None
    with spans.span("next", "bench"):
        pass
    by_name = {s.name: s for s in spans.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["inner"].request == "r1"
    assert by_name["next"].parent is None and by_name["next"].request is None
    assert by_name["outer"].start <= by_name["inner"].start
    assert by_name["inner"].end <= by_name["outer"].end


def test_wrap_times_an_inner_call_on_one_instance():
    class Reader:
        def read(self, x):
            return [x]

    spans = Spans()
    seen = []
    reader, other = Reader(), Reader()
    spans.wrap(reader, "read", "read", "trace", result_hook=seen.append)
    with spans.span("build", "analysis"):
        assert reader.read(3) == [3]
    other.read(4)
    assert seen == [[3]]
    assert [s.name for s in spans.spans] == ["read", "build"]
    assert spans.spans[0].parent == spans.spans[1].id


def test_null_spans_record_nothing():
    spans = NullSpans()
    with spans.span("x", "bench"):
        pass
    assert spans.durations("x") == [] and not spans.enabled

import pytest

from spans import NO_PARENT, Recorder, percentile, self_times, summarize


def test_self_time_subtracts_nested_children():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [NO_PARENT, 0, 1, 0]
    assert self_times(start, end, parent) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    # Children [1, 4] and [3, 6] cover [1, 6]; [9, 12] counts only up to 10.
    start = [0.0, 1.0, 3.0, 9.0]
    end = [10.0, 4.0, 6.0, 12.0]
    parent = [NO_PARENT, 0, 0, 0]
    assert self_times(start, end, parent)[0] == pytest.approx(4.0)


def test_recorder_records_parents_and_summarize_gives_self_times():
    ticks = iter(range(100))
    rec = Recorder("run-1", clock=lambda: float(next(ticks)))
    seen = []
    inner = rec.wrap("inner", lambda x: x + 1, on_result=lambda args, r: seen.append((args, r)))
    outer = rec.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(2) == 9
    assert seen == [((2,), 3), ((2,), 3)]
    doc = rec.to_json({"counters": {}})
    assert doc["run_id"] == "run-1"
    names = [doc["names"][i] for i in doc["spans"]["name"]]
    assert names == ["outer", "inner", "inner"]
    assert doc["spans"]["parent"] == [NO_PARENT, 0, 0]
    rows = summarize(doc)
    # outer: ticks 0..5; inner: 1..2 and 3..4.
    assert rows["outer"]["calls"] == 1
    assert rows["outer"]["self_s"] == pytest.approx(3.0)
    assert rows["inner"]["calls"] == 2
    assert rows["inner"]["self_s"] == pytest.approx(2.0)


def test_recorder_closes_span_when_call_raises():
    ticks = iter(range(100))
    rec = Recorder("r", clock=lambda: float(next(ticks)))

    def boom():
        raise RuntimeError("x")

    f = rec.wrap("f", boom)
    with pytest.raises(RuntimeError):
        f()
    g = rec.wrap("g", lambda: None)
    g()
    assert rec.parent == [NO_PARENT, NO_PARENT]
    assert rec.end[0] == 1.0


def test_p99_needs_ten_samples_beyond_it():
    assert percentile(list(range(1000)), 0.99, 10) == 989
    assert percentile(list(range(999)), 0.99, 10) is None
    assert percentile(list(range(999)), 0.99) == 989


def test_percentile_nearest_rank_and_empty():
    assert percentile([5.0, 1.0, 3.0], 0.5) == 3.0
    assert percentile([2.0], 0.5) == 2.0
    assert percentile([], 0.5) is None

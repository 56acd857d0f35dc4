import pytest

import tracer as tracer_module
from tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(tracer_module, "perf_counter", fake)
    return fake


def test_self_time_of_nested_calls(clock):
    tr = Tracer()
    leaf = tr.wrap("leaf", lambda: clock.advance(0.5))

    def inner_body(seconds):
        clock.advance(seconds)
        leaf()

    inner = tr.wrap("inner", inner_body)

    def outer_body():
        clock.advance(1.0)
        inner(2.0)
        clock.advance(3.0)
        inner(4.0)

    tr.wrap("outer", outer_body)()

    summary = tr.summary()
    assert summary["outer"] == {"calls": 1, "s": 11.0, "self_s": 4.0, "max_s": 11.0}
    assert summary["inner"] == {"calls": 2, "s": 7.0, "self_s": 6.0, "max_s": 4.5}
    assert summary["leaf"] == {"calls": 2, "s": 1.0, "self_s": 1.0, "max_s": 0.5}
    # self times partition the root span
    assert sum(tr.self_times()) == pytest.approx(tr.root_seconds()) == pytest.approx(11.0)
    # a group counts nested members once
    assert tr.group_seconds({"outer", "inner"}) == pytest.approx(11.0)
    assert tr.group_seconds({"inner", "leaf"}) == pytest.approx(7.0)


def test_span_closes_when_the_call_raises(clock):
    tr = Tracer()

    def fail():
        clock.advance(2.0)
        raise ValueError("boom")

    wrapped = tr.wrap("fail", fail)
    with pytest.raises(ValueError):
        wrapped()
    assert tr.summary()["fail"]["s"] == 2.0
    assert not tr.inside({"fail"})


def test_hooks_run_outside_the_span(clock):
    tr = Tracer()
    seen = []
    wrapped = tr.wrap(
        "f",
        lambda x: clock.advance(x) or x * 2,
        on_enter=lambda args, kwargs: clock.advance(10.0),
        on_exit=lambda args, kwargs, result: seen.append(result) or clock.advance(10.0),
    )
    assert wrapped(1.0) == 2.0
    assert seen == [2.0]
    assert tr.summary()["f"]["s"] == 1.0

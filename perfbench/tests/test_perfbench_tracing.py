import itertools
from types import SimpleNamespace

import pytest

import tracing
from tracing import Tracer, aggregate, self_times


def span(name, start, end, parent, work=0):
    return [name, start, end, parent, work]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("leaf", 2.0, 3.0, 1),
        span("b", 5.0, 9.0, 0),
        span("leaf", 6.0, 8.5, 3),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 2.5])
    table = aggregate(spans)
    assert table["leaf"]["calls"] == 2
    assert table["leaf"]["self_s"] == pytest.approx(3.5)
    # self times partition the root span
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(10.0)


def test_self_time_of_recursive_layer_counts_each_level_once():
    spans = [span("x", 0.0, 6.0, -1), span("x", 1.0, 5.0, 0), span("x", 2.0, 3.0, 1)]
    assert aggregate(spans)["x"] == {"calls": 3, "self_s": pytest.approx(6.0), "work": 0}


def test_wrapper_records_parents_work_and_exceptions():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner(xs):
        return len(xs)

    traced_inner = tracer.wrap(inner, "inner", work=lambda a, k, r: r * 10)

    def outer(xs):
        traced_inner(xs)
        traced_inner(xs + xs)
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap(outer, lambda args: f"outer.{len(args[0])}")([1, 2])
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names == ["outer.2", "inner", "inner"]
    assert [s[tracing.PARENT] for s in tracer.spans] == [-1, 0, 0]
    assert [s[tracing.WORK] for s in tracer.spans] == [0, 20, 40]
    # clock ticks: outer 0..5, inner 1..2 and 3..4
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]


def test_patched_restores_every_attribute():
    points = tracing.wrap_points()
    before = [owner.__dict__[attr] for owner, attr, _, _ in points]
    with tracing.patched(Tracer()):
        assert all(owner.__dict__[attr] is not orig
                   for (owner, attr, _, _), orig in zip(points, before))
    assert [owner.__dict__[attr] for owner, attr, _, _ in points] == before


def test_every_wrapped_layer_is_declared():
    names = set()
    for owner, attr, name, _ in tracing.wrap_points():
        names |= ({name((SimpleNamespace(kind=k),)) for k in ("qq", "qc")}
                  if callable(name) else {name})
    assert names | {"cli.main"} == set(tracing.LAYERS)


def test_patched_skips_a_wrap_point_the_program_lost(monkeypatch, capsys):
    def present(self):
        return 1

    owner = type("Owner", (), {"present": present})
    points = [(owner, "present", "layer.present", None), (owner, "gone", "layer.gone", None)]
    monkeypatch.setattr(tracing, "wrap_points", lambda: points)
    with tracing.patched(Tracer()):
        assert owner.__dict__["present"].__wrapped__ is present
    assert "Owner.gone not found" in capsys.readouterr().err
    assert owner.__dict__["present"] is present

"""The benchmark's tracer wraps hamalg's layers by attribute name; a
refactor that renames or moves one must update the wrap table, or that
layer silently reads zero in every traced run."""

from tests.conftest import load_perfbench_module


def test_every_wrap_point_exists():
    tracing = load_perfbench_module("tracing")
    points = tracing.wrap_points()
    assert points
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in points
               if attr not in owner.__dict__]
    assert missing == []


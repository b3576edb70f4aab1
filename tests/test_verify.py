"""The example report's reduction checks fail when the search does."""

from __future__ import annotations

from tamedeg import reduction, verify_example

REDUCTION_CHECKS = ("reduction-g", "reduction-residual", "reduction-degree")


def test_missing_reduction_fails_every_reduction_check(example_map, monkeypatch):
    calls = []

    def no_reduction(*args):
        calls.append(args)
        return None

    monkeypatch.setattr(reduction, "find_elementary_reduction", no_reduction)
    report = verify_example(example_map)
    assert len(calls) == 1
    checks = {c.name: c for c in report.checks}
    for name in REDUCTION_CHECKS:
        assert checks[name].passed is False
        assert checks[name].computed == "none"
    assert report.passed is False
    assert [c.name for c in report.failures()] == list(REDUCTION_CHECKS)


def test_failing_search_is_reported_as_an_error(example_map, monkeypatch):
    def broken(*args):
        raise ValueError("no search")

    monkeypatch.setattr(reduction, "find_elementary_reduction", broken)
    report = verify_example(example_map)
    failed = report.failures()
    assert [c.name for c in failed] == list(REDUCTION_CHECKS)
    assert all(c.passed is False and c.computed == "error: no search" for c in failed)

"""Pin the shared byte-stable JSON dump contract.

Every exporter in the repo (metrics dumps, sanitizer reports, chaos
matrices, timelines, perf history) routes through
``repro.obs.stablejson`` — these tests pin the exact text convention so
a drive-by "cleanup" of the serializer shows up as a golden diff, not
as silently churned CI artifacts.
"""

import math

import pytest

from repro.obs.stablejson import dump_stable, dumps_stable


def test_key_ordering_is_sorted_at_every_level():
    text = dumps_stable({"b": 1, "a": {"z": 0, "y": {"q": 2, "p": 3}}})
    assert text == (
        '{\n'
        '  "a": {\n'
        '    "y": {\n'
        '      "p": 3,\n'
        '      "q": 2\n'
        '    },\n'
        '    "z": 0\n'
        '  },\n'
        '  "b": 1\n'
        '}\n'
    )


def test_float_formatting_is_shortest_roundtrip_repr():
    # repr-based rendering: equal values are equal text, no trailing-zero
    # or exponent drift between dump sites.
    text = dumps_stable({"a": 0.1, "b": 1.0, "c": 1e-07, "d": 2.5, "e": 1 / 3})
    assert '"a": 0.1' in text
    assert '"b": 1.0' in text
    assert '"c": 1e-07' in text
    assert '"d": 2.5' in text
    assert '"e": 0.3333333333333333' in text


def test_exactly_one_trailing_newline():
    text = dumps_stable([1, 2])
    assert text.endswith("\n")
    assert not text.endswith("\n\n")


def test_insertion_order_never_leaks():
    assert dumps_stable({"x": 1, "a": 2}) == dumps_stable({"a": 2, "x": 1})


def test_nan_and_infinity_rejected():
    with pytest.raises(ValueError):
        dumps_stable({"bad": math.nan})
    with pytest.raises(ValueError):
        dumps_stable({"bad": math.inf})


def test_dump_stable_writes_same_bytes(tmp_path):
    payload = {"counters": [{"name": "x", "value": 3}], "pi": 3.14159}
    path = dump_stable(payload, tmp_path / "out.json")
    assert path.read_text() == dumps_stable(payload)


def test_all_report_helpers_share_the_convention():
    from repro.faults.harness import render_report
    from repro.obs.metrics import MetricsRegistry
    from repro.sanitize.report import dumps_report

    payload = {"z": 1, "a": {"n": 2.5}}
    assert render_report(payload) == dumps_stable(payload)
    assert dumps_report(payload) == dumps_stable(payload)

    reg = MetricsRegistry()
    reg.counter("events", kind="test").inc(3)
    assert reg.to_json() == dumps_stable(reg.to_dict())

"""Tests for the ASCII table and chart renderers."""

import pytest

from repro.report import Table, bar_chart, line_chart


def test_table_basic():
    t = Table(["a", "b"], title="demo")
    t.add_row(["x", 1])
    t.add_row(["yyyy", 2.5])
    text = t.render()
    assert "demo" in text
    assert "a" in text and "b" in text
    assert "yyyy | 2.5" in text


def test_table_formats():
    t = Table(["v"])
    t.add_row([None])
    t.add_row([float("inf")])
    t.add_row([float("nan")])
    t.add_row([5818.7])
    t.add_row([0.001234])
    text = t.render()
    assert "-" in text
    assert "DNF" in text
    assert "5819" in text
    assert "0.00123" in text


def test_table_wrong_row_width():
    t = Table(["a", "b"])
    with pytest.raises(ValueError):
        t.add_row([1])


def test_table_needs_columns():
    with pytest.raises(ValueError):
        Table([])


def test_line_chart_renders_all_series():
    chart = line_chart(
        {"one": [(1, 10.0), (2, 20.0)], "two": [(1, 5.0), (2, 15.0)]},
        title="t",
        x_labels=["1k", "2k"],
    )
    assert "t" in chart
    assert "* one" in chart
    assert "o two" in chart
    assert "ymax = 20" in chart


def test_line_chart_empty_rejected():
    with pytest.raises(ValueError):
        line_chart({})


def test_bar_chart():
    chart = bar_chart({"a": 1.0, "b": 2.0, "dnf": float("inf")}, title="bars")
    assert "bars" in chart
    assert "DNF" in chart
    assert chart.count("#") > 0


def test_bar_chart_empty_rejected():
    with pytest.raises(ValueError):
        bar_chart({})


def test_bar_chart_reference_mark():
    chart = bar_chart({"a": 2.0}, reference=1.0)
    assert "ref=1" in chart

"""Minimal ASCII table renderer used by every experiment."""

from __future__ import annotations

from typing import Any, Iterable, Sequence


class Table:
    """Column-aligned text table.

    >>> t = Table(["name", "value"], title="demo")
    >>> t.add_row(["x", 1.5])
    >>> print(t.render())  # doctest: +NORMALIZE_WHITESPACE
    demo
    name | value
    -----+------
    x    | 1.5
    """

    def __init__(self, columns: Sequence[str], title: str = ""):
        if not columns:
            raise ValueError("a table needs at least one column")
        self.columns = [str(c) for c in columns]
        self.title = title
        self.rows: list[list[str]] = []

    @staticmethod
    def _format(value: Any) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            if value != value:  # NaN
                return "-"
            if value == float("inf"):
                return "DNF"
            if abs(value) >= 1e7 or (0 < abs(value) < 0.01):
                return f"{value:.3g}"
            if abs(value) >= 1000:
                return f"{value:.0f}"
            return f"{value:.4g}" if abs(value) >= 1 else f"{value:.3f}"
        return str(value)

    def add_row(self, values: Iterable[Any]) -> None:
        row = [self._format(v) for v in values]
        if len(row) != len(self.columns):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(row)

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        header = " | ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        rule = "-+-".join("-" * w for w in widths)
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(header)
        lines.append(rule)
        for row in self.rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(line.rstrip() for line in lines)

    def __str__(self) -> str:
        return self.render()

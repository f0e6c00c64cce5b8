"""Flamegraph rendering over the span aggregates.

Two deterministic renderers for :func:`repro.obs.aggregate.collapsed_stacks`:

* :func:`render_collapsed` — the standard ``a;b;c N`` text format every
  external flamegraph tool consumes (counts are virtual-microsecond
  ticks),
* :func:`render_svg` — a self-contained icicle SVG with no script and no
  randomness (colors are a hash of the frame name, children are laid out
  in name order), so two renders of the same payload are byte-identical.

:func:`experiment_payload` runs one experiment under the campaign runner
with spans on and returns the merged telemetry payload; the merge is
deterministic across worker counts, which is what makes
``repro flame <id>`` byte-identical serial vs ``--jobs N``.
"""

from __future__ import annotations

import hashlib

__all__ = [
    "render_collapsed",
    "render_svg",
    "experiment_payload",
]

_SVG_WIDTH = 1200.0
_ROW_HEIGHT = 16
_FONT_SIZE = 11
_MIN_TEXT_WIDTH = 40.0
_MIN_RECT_WIDTH = 0.1


def render_collapsed(stacks: dict[str, int]) -> str:
    """Collapsed-stack lines, sorted by path: ``a;b;c <ticks>``."""
    return "".join(f"{path} {count}\n" for path, count in sorted(stacks.items()))


class _Node:
    __slots__ = ("name", "self_ticks", "children")

    def __init__(self, name: str):
        self.name = name
        self.self_ticks = 0
        self.children: dict[str, _Node] = {}

    @property
    def cum(self) -> int:
        return self.self_ticks + sum(c.cum for c in self.children.values())

    def depth(self) -> int:
        if not self.children:
            return 1
        return 1 + max(c.depth() for c in self.children.values())


def _tree(stacks: dict[str, int]) -> _Node:
    root = _Node("all")
    for path, count in sorted(stacks.items()):
        node = root
        for part in path.split(";"):
            node = node.children.setdefault(part, _Node(part))
        node.self_ticks += count
    return root


def _color(name: str) -> str:
    """Deterministic warm flame color from the frame name."""
    digest = hashlib.md5(name.encode()).digest()
    r = 205 + digest[0] % 50
    g = digest[1] % 230
    b = digest[2] % 55
    return f"rgb({r},{g},{b})"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def render_svg(stacks: dict[str, int], title: str = "flamegraph") -> str:
    """Self-contained deterministic icicle SVG of the collapsed stacks."""
    root = _tree(stacks)
    total = root.cum
    levels = root.depth() if total else 1
    height = (levels + 2) * _ROW_HEIGHT + 2 * _ROW_HEIGHT
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_SVG_WIDTH)}" '
        f'height="{height}" font-family="monospace" font-size="{_FONT_SIZE}">\n',
        f'<rect width="100%" height="100%" fill="#f8f8f8"/>\n',
        f'<text x="{_SVG_WIDTH / 2:.1f}" y="{_ROW_HEIGHT}" '
        f'text-anchor="middle">{_escape(title)} '
        f"({total} ticks = virtual us)</text>\n",
    ]

    def emit(node: _Node, x: float, width: float, level: int):
        if width < _MIN_RECT_WIDTH:
            return
        y = (level + 2) * _ROW_HEIGHT
        fill = "#d0d0d0" if node.name == "all" else _color(node.name)
        label = f"{node.name} ({node.cum} ticks)"
        out.append(
            f'<g><title>{_escape(label)}</title>'
            f'<rect x="{x:.2f}" y="{y}" width="{width:.2f}" '
            f'height="{_ROW_HEIGHT - 1}" fill="{fill}" stroke="#eeeeee"/>'
        )
        if width >= _MIN_TEXT_WIDTH:
            shown = node.name[: max(1, int(width / (_FONT_SIZE * 0.62)))]
            out.append(
                f'<text x="{x + 3:.2f}" y="{y + _ROW_HEIGHT - 5}">'
                f"{_escape(shown)}</text>"
            )
        out.append("</g>\n")
        cursor = x
        for name in sorted(node.children):
            child = node.children[name]
            child_width = width * child.cum / node.cum if node.cum else 0.0
            emit(child, cursor, child_width, level + 1)
            cursor += child_width

    if total:
        emit(root, 0.0, _SVG_WIDTH, 0)
    else:
        out.append(
            f'<text x="{_SVG_WIDTH / 2:.1f}" y="{3 * _ROW_HEIGHT}" '
            f'text-anchor="middle">(no spans recorded)</text>\n'
        )
    out.append("</svg>\n")
    return "".join(out)


def experiment_payload(experiment_id: str, fast: bool = True, jobs: int = 1) -> dict:
    """Run one experiment with spans on; return the merged telemetry payload.

    Always a fresh simulation (the campaign runner disables the result
    cache under telemetry); the merged payload is byte-identical for any
    worker count.
    """
    from repro.obs.runtime import TelemetryConfig
    from repro.runner import ExperimentSpec, run_campaign

    campaign = run_campaign(
        [ExperimentSpec(experiment_id, fast=fast)],
        jobs=jobs,
        telemetry=TelemetryConfig(spans=True, metrics=True),
    )
    payload = campaign.runs[0].telemetry
    return payload if payload is not None else {"schema": 1, "tracks": {}}

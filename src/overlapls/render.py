"""ASCII and SVG rendering of Ferrers diagrams and labeled staircase walks."""

from __future__ import annotations

from .partitions import Partition
from .walks import StaircaseWalk

CELL = 28


def ferrers_ascii(lam: Partition) -> str:
    """Rows of boxes, one '[]' per cell; empty diagram renders as '(empty)'."""
    if not lam.parts:
        return "(empty)"
    return "\n".join("[]" * p for p in lam.parts)


def ferrers_svg(lam: Partition) -> str:
    width = (lam.part(1) + 1) * CELL
    height = (lam.length + 1) * CELL
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
    ]
    for r, p in enumerate(lam.parts):
        for c in range(p):
            out.append(
                f'<rect x="{c * CELL + 4}" y="{r * CELL + 4}" width="{CELL}" height="{CELL}" '
                'fill="none" stroke="black"/>'
            )
    out.append("</svg>")
    return "\n".join(out)


def walk_ascii(pi: StaircaseWalk, labels=None) -> str:
    """Grid picture of the walk with one character cell per unit square.

    Boxes above the walk are shaded '#', boxes below '.', the walk itself is
    drawn with '|' and '_'; labels, when given, annotate the steps in order
    on a separate line.
    """
    n, m = pi.n, pi.m
    mu = pi.mu().padded(m)
    lines = []
    for r in range(m):
        width = mu[r]
        lines.append("#" * width + "|" + "." * (n - width))
    lines.append("walk: " + pi)
    if labels is not None:
        labels = tuple(labels)
        if len(labels) != len(pi):
            raise ValueError("label count does not match step count")
        lines.append("labels: " + ",".join(str(x) for x in labels))
    return "\n".join(lines)


def walk_svg(pi: StaircaseWalk, labels=None) -> str:
    """Rectangle grid with the walk drawn thick, labels along the steps."""
    n, m = pi.n, pi.m
    if labels is not None:
        labels = tuple(labels)
        if len(labels) != len(pi):
            raise ValueError("label count does not match step count")
    width = (n + 2) * CELL
    height = (m + 2) * CELL

    def px(x):
        return (x + 1) * CELL

    def py(y):
        return (m - y + 1) * CELL

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">']
    mu = pi.mu().padded(m)
    for r in range(m):
        for c in range(n):
            above = c < mu[r]
            fill = "#cccccc" if above else "none"
            out.append(
                f'<rect x="{px(c)}" y="{py(m - r)}" width="{CELL}" height="{CELL}" '
                f'fill="{fill}" stroke="#999999"/>'
            )
    x, y = n, m
    path = [f"M {px(x)} {py(y)}"]
    marks = []
    for i, step in enumerate(pi):
        if step == "V":
            ny_, nx_ = y - 1, x
        else:
            ny_, nx_ = y, x - 1
        mx = (px(x) + px(nx_)) / 2
        my = (py(y) + py(ny_)) / 2
        if labels is not None:
            dx, dy = (8, 4) if step == "V" else (0, -6)
            marks.append(
                f'<text x="{mx + dx}" y="{my + dy}" font-size="12" '
                f'text-anchor="middle">{labels[i]}</text>'
            )
        x, y = nx_, ny_
        path.append(f"L {px(x)} {py(y)}")
    out.append(f'<path d="{" ".join(path)}" fill="none" stroke="black" stroke-width="3"/>')
    out.extend(marks)
    out.append("</svg>")
    return "\n".join(out)

"""Directed-graph text rendering of patterns, hierarchies and cores.

Strict le1 edges are solid, strict le2 edges bold; both relations are
transitively reduced before drawing.  Nodes keep the ascending term order,
so output is stable for fixed input.
"""

from __future__ import annotations

from typing import Iterable, Set, Tuple, Union

from .cores import Core
from .hierarchy import Hierarchy
from .ordinals import OrdinalTerm, format_term
from .patterns import Pattern, restrict_relation

Pair = Tuple[OrdinalTerm, OrdinalTerm]


def _transitive_reduction(pairs: Iterable[Pair]) -> Set[Pair]:
    strict = {(a, b) for a, b in pairs if a != b}
    nodes = {x for p in strict for x in p}
    return {
        (a, b)
        for a, b in strict
        if not any((a, c) in strict and (c, b) in strict for c in nodes)
    }


def export_dot(obj: Union[Pattern, Hierarchy, Core], sugar: bool = False) -> str:
    if isinstance(obj, Pattern):
        name = "pattern"
        nodes = obj.universe.elements
        le1, le2 = obj.le1, obj.le2
    elif isinstance(obj, Hierarchy):
        name = "hierarchy"
        nodes = obj.carrier.elements
        le1, le2 = obj.le1, obj.le2
    elif isinstance(obj, Core):
        name = "core"
        nodes = obj.members
        keep = set(nodes)
        le1 = restrict_relation(obj.host.le1, keep)
        le2 = restrict_relation(obj.host.le2, keep)
    else:
        raise TypeError(f"cannot render {type(obj).__name__}")

    red1 = _transitive_reduction(le1)
    red2 = _transitive_reduction(le2)
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for x in nodes:
        lines.append(f'  "{format_term(x, sugar)}";')
    for a, b in sorted(red1 | red2):
        attr = " [style=bold]" if (a, b) in red2 else ""
        lines.append(f'  "{format_term(a, sugar)}" -> "{format_term(b, sugar)}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"

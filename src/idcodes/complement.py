"""Constructive identifying code for the complement graph, at most twice
the size of a given code of the original graph.

Pipeline: partition vertices into classes sharing the same open
neighborhood trace of the base code (for a valid code such vertices are
non-adjacent: cliques of the complement), split all classes inside the
complement in one loop over a worklist of parts, then patch the
at-most-one vertex the union leaves undominated there.

The per-class budget sums to at most |base|, and on rare inputs it is
exhausted while the undominated patch is still needed, overshooting the
factor-2 target by one. A final trim pass removes redundant vertices
(re-verifying after each removal) until the budget is met again; the
only known overshoot shapes carry enough slack for this to succeed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .codes import InvalidCodeError, is_identifying_code
from .graphs import Graph, _members, complement, least_twins, vertex_mask
from .solvers import NotTwinFreeError, exact_min_idcode


class ComplementNotTwinFreeError(ValueError):
    """The complement has twins, so it admits no identifying code."""

    def __init__(self, pair: tuple[int, int]) -> None:
        super().__init__(
            f"vertices {pair[0]} and {pair[1]} are twins in the complement"
        )
        self.pair = pair


class NoSeparatorError(ValueError):
    """Two class members are twins in the complement (violated precondition)."""


@dataclass(frozen=True)
class EquivClassPartition:
    classes: tuple[frozenset[int], ...]

    def class_of(self, v: int) -> frozenset[int]:
        for cls in self.classes:
            if v in cls:
                return cls
        raise KeyError(v)


def equivalence_classes(g: Graph, c0: Iterable[int]) -> EquivClassPartition:
    """Partition V by equal open-neighborhood trace of c0, vertices in one
    class pairwise non-adjacent.

    For a verified code equal open traces already force non-adjacency
    (an adjacent pair either contradicts openness of the trace or is
    unseparated), so grouping by trace is the whole relation; adjacency
    inside a group is checked anyway and treated as an internal error.
    """
    c0 = frozenset(c0)
    verdict = is_identifying_code(g, c0)
    if not verdict.ok:
        raise InvalidCodeError(f"base code fails verification: {verdict.witness}")
    cmask = vertex_mask(g.n, c0)
    # equal open traces get equal ids, numbered in order of least member
    ids: dict[int, int] = {}
    label = np.array(
        [ids.setdefault(m & cmask & ~(1 << v), len(ids)) for v, m in enumerate(g.closed_masks)],
        dtype=np.int64,
    )
    es = g.edge_array()
    if np.any(label[es[:, 0]] == label[es[:, 1]]):
        raise RuntimeError(
            "adjacent vertices with equal open traces under a "
            "verified code; upstream verification is broken"
        )
    in_code = np.zeros(g.n, dtype=bool)
    in_code[list(c0)] = True
    sizes = np.bincount(label, minlength=len(ids))
    outside = np.bincount(label[~in_code], minlength=len(ids))
    if np.any(outside > 1):
        raise RuntimeError(
            "a multi-vertex class has two members outside the code; "
            "upstream verification is broken"
        )
    parts = np.split(np.argsort(label, kind="stable"), np.cumsum(sizes)[:-1])
    return EquivClassPartition(tuple(frozenset(p.tolist()) for p in parts if len(p)))


def separate_class(gbar: Graph, cls: Iterable[int]) -> frozenset[int]:
    """Separating set of size <= |cls|-1 for a class forming a clique in
    gbar: pick the lowest vertex of the closed-neighborhood symmetric
    difference of the two smallest members, split the class by adjacency
    to it, and split both sides the same way."""
    members = sorted(set(cls))
    _members(members, gbar.n)
    masks = gbar.closed_masks
    cmask = vertex_mask(gbar.n, members)
    for u in members:
        # partners below u were tested from their side, so miss holds only v > u
        miss = cmask & ~masks[u]
        if miss:
            v = (miss & -miss).bit_length() - 1
            raise ValueError(
                f"class is not a clique in the complement: {u} and {v} are non-adjacent"
            )
    return frozenset(_split(gbar, [cmask]))


def _split(gbar: Graph, parts: list[int]) -> set[int]:
    """Separators of the cliques in parts, given as vertex bitmasks, first
    class first, by one worklist of parts: the side adjacent to a
    separator goes first. A separator splits a part with two ANDs."""
    masks = gbar.closed_masks
    out: set[int] = set()
    todo = parts[::-1]
    while todo:
        part = todo.pop()
        if not part & (part - 1):  # at most one member
            continue
        low = part & -part
        rest = part ^ low
        u1, u2 = low.bit_length() - 1, (rest & -rest).bit_length() - 1
        diff = masks[u1] ^ masks[u2]
        if not diff:
            raise NoSeparatorError(
                f"vertices {u1} and {u2} are twins in the complement"
            )
        w = (diff & -diff).bit_length() - 1  # outside the clique, which N[u1] & N[u2] holds
        out.add(w)
        adj = masks[w]
        todo.append(part & ~adj)
        todo.append(part & adj)
    return out


def complement_code(g: Graph, c0: Optional[Iterable[int]] = None) -> frozenset[int]:
    """Identifying code of complement(g) of size at most 2*|c0|.

    When c0 is omitted the exact minimum code of g is used, so the factor-2
    bound is anchored at the true optimum. Output is verified before
    returning.
    """
    twins = least_twins(g)
    if twins:
        raise NotTwinFreeError(twins)
    gbar = complement(g)
    bar_twins = least_twins(gbar)
    if bar_twins:
        raise ComplementNotTwinFreeError(bar_twins)
    if c0 is None:
        base = exact_min_idcode(g).code
    else:
        base = frozenset(c0)
    # equivalence_classes checked that each class is a clique of gbar with
    # at most one member outside base, so extra holds at most |base| vertices
    # one bitmask per class; its bits are distinct, so the sum is the union
    classes = equivalence_classes(g, base).classes
    extra = _split(gbar, [sum(1 << v for v in cls) for cls in classes])
    combined = base | extra
    cmask = vertex_mask(gbar.n, combined)
    undominated = [v for v, m in enumerate(gbar.closed_masks) if not m & cmask]
    if len(undominated) > 1:
        raise RuntimeError(
            f"multiple vertices undominated in the complement: {undominated}; "
            "this contradicts the construction's guarantee"
        )
    result = frozenset(combined | set(undominated))
    if len(result) > 2 * len(base):
        # tight budget plus a forced patch overshoots by one; drop
        # redundant vertices (lowest index first) until the bound fits
        trimmed = set(result)
        for v in sorted(result):
            if len(trimmed) <= 2 * len(base):
                break
            if is_identifying_code(gbar, trimmed - {v}).ok:
                trimmed.discard(v)
        result = frozenset(trimmed)
    verdict = is_identifying_code(gbar, result)
    if not verdict.ok:
        raise RuntimeError(f"constructed code fails on the complement: {verdict}")
    if len(result) > 2 * len(base):
        raise RuntimeError("factor-2 size bound violated")
    return result

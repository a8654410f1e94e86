"""Exact minimum identifying-code and dominating-set search plus greedy
heuristics.

The exact solvers run branch and bound over include/exclude decisions on
vertices in descending-degree order, seeded with the greedy solution as
incumbent. Budgets count node expansions; an exhausted budget returns the
incumbent flagged non-optimal instead of failing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .bounds import ceil_log2, idcode_lower_bound
from .codes import is_identifying_code, mask_to_set
from .graphs import Graph, find_twins

DEFAULT_BUDGET = 10_000_000


class NotTwinFreeError(ValueError):
    """Twin vertices admit no identifying code."""

    def __init__(self, pair: tuple[int, int]) -> None:
        super().__init__(
            f"vertices {pair[0]} and {pair[1]} are twins; no identifying code exists"
        )
        self.pair = pair


@dataclass(frozen=True)
class SearchResult:
    code: frozenset[int]
    optimal: bool  # False: node budget ran out, code is the best incumbent
    nodes: int

    @property
    def size(self) -> int:
        return len(self.code)


class _Done(Exception):
    pass


def _branch_order(g: Graph) -> list[int]:
    """Vertices by descending degree, ties to the lower index."""
    return np.argsort(-g.degrees, kind="stable").tolist()


def _search(order: list[int], budget: int, expand) -> tuple[int, bool]:
    """Depth-first walk over include/exclude decisions on order[i].

    expand(i, chosen) visits one node and says whether to branch on
    order[i]; it raises _Done to stop the walk. The include branch is
    visited first. An explicit stack replaces recursion, so the depth is
    not bounded by the interpreter's recursion limit. Returns the nodes
    visited and False when the budget ran out.
    """
    nodes = 0
    stack = [(0, 0)]
    try:
        while stack:
            i, chosen = stack.pop()
            nodes += 1
            if nodes > budget:
                return nodes, False
            if expand(i, chosen):
                stack.append((i + 1, chosen))
                stack.append((i + 1, chosen | (1 << order[i])))
    except _Done:
        pass
    return nodes, True


def exact_min_idcode(g: Graph, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Minimum-cardinality identifying code by branch and bound.

    Prunes on infeasibility (some pair can no longer be separated, some
    vertex no longer dominated), on the ceil-log2 count of extra picks any
    unresolved signature class still needs, and stops early when the
    incumbent meets the global lower bound.
    """
    if g.n < 1:
        raise ValueError("exact_min_idcode needs n >= 1")
    twins = find_twins(g)
    if twins:
        raise NotTwinFreeError(twins[0])
    n = g.n
    masks = g.closed_masks
    order = _branch_order(g)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | (1 << order[i])

    incumbent = greedy_idcode(g)
    best_size = len(incumbent)
    best_mask = 0
    for v in incumbent:
        best_mask |= 1 << v
    lb = idcode_lower_bound(n)

    def expand(i: int, chosen: int) -> bool:
        nonlocal best_size, best_mask
        size = chosen.bit_count()
        if size >= best_size:
            return False
        undom = 0
        class_size: dict[int, int] = {}
        for v in range(n):
            sig = masks[v] & chosen
            if not sig:
                undom |= 1 << v
            class_size[sig] = class_size.get(sig, 0) + 1
        max_cls = max(class_size.values())
        if max_cls == 1 and not undom:
            best_size, best_mask = size, chosen
            if best_size <= lb:
                raise _Done
            return False
        pool = chosen | suffix[i]
        if undom & ~_dominable(masks, undom, pool):
            return False
        # two vertices of one class that no undecided vertex splits keep
        # equal traces on the pool; vertices of different classes already
        # differ on chosen
        if len({m & pool for m in masks}) < n:
            return False
        extra = ceil_log2(max_cls)
        if undom and extra == 0:
            extra = 1
        return size + extra < best_size

    nodes, optimal = _search(order, budget, expand) if best_size > lb else (0, True)
    return SearchResult(mask_to_set(best_mask), optimal, nodes)


def _dominable(masks, undom: int, pool: int) -> int:
    """Subset of undom whose closed neighborhood still meets pool."""
    out = 0
    m = undom
    while m:
        low = m & -m
        v = low.bit_length() - 1
        if masks[v] & pool:
            out |= low
        m ^= low
    return out


def exact_min_dominating(g: Graph, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Minimum dominating set by branch and bound (always exists)."""
    if g.n < 1:
        raise ValueError("exact_min_dominating needs n >= 1")
    n = g.n
    masks = g.closed_masks
    order = _branch_order(g)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | (1 << order[i])

    incumbent = greedy_dominating(g)
    best_size = len(incumbent)
    best_mask = 0
    for v in incumbent:
        best_mask |= 1 << v
    max_deg = int(g.degrees.max())
    lb = math.ceil(n / (max_deg + 1))

    def expand(i: int, chosen: int) -> bool:
        nonlocal best_size, best_mask
        size = chosen.bit_count()
        if size >= best_size:
            return False
        undom = 0
        for v in range(n):
            if not masks[v] & chosen:
                undom |= 1 << v
        if not undom:
            best_size, best_mask = size, chosen
            if best_size <= lb:
                raise _Done
            return False
        avail = suffix[i]
        pool = chosen | avail
        if undom & ~_dominable(masks, undom, pool):
            return False
        best_cover = 0
        a = avail
        while a:
            low = a & -a
            w = low.bit_length() - 1
            cov = (masks[w] & undom).bit_count()
            if cov > best_cover:
                best_cover = cov
            a ^= low
        if best_cover == 0:
            return False
        extra = -(-undom.bit_count() // best_cover)
        return size + extra < best_size

    nodes, optimal = _search(order, budget, expand) if best_size > lb else (0, True)
    return SearchResult(mask_to_set(best_mask), optimal, nodes)


def greedy_dominating(g: Graph) -> frozenset[int]:
    """Max-coverage greedy dominating set: repeatedly pick the vertex
    dominating the most currently-undominated vertices, ties to the lowest
    index."""
    if g.n < 1:
        raise ValueError("greedy_dominating needs n >= 1")
    picks = _kernels.greedy_cover(g.packed_closed, g.n)
    return frozenset(int(v) for v in picks)


def greedy_idcode(g: Graph) -> frozenset[int]:
    """Greedy identifying code: each step picks the vertex with the largest
    (newly dominated vertices + newly separated pairs), ties to the lowest
    index. Output is verified before returning.

    The still-unseparated pairs are never listed. The solver keeps the
    partition of V by current signature N[x] & C instead (label 0 holds the
    empty signature: the undominated vertices), so the gain of w is
    |N[w] & class 0| + sum over classes S of |S & N[w]| * |S - N[w]|. Each
    pick scores every vertex in one pass over the closed-neighborhood
    incidence, then refines label <- compact(2 * label + [x in N[w]]).
    Vertices alone in a nonzero class stay alone, so their incidence is
    dropped for good. Memory per pick is O(n + m).
    """
    if g.n < 1:
        raise ValueError("greedy_idcode needs n >= 1")
    twins = find_twins(g)
    if twins:
        raise NotTwinFreeError(twins[0])
    n = g.n
    es = g.edge_array()
    loops = np.arange(n, dtype=np.int64)
    # incidence (x, w) for w in N[x], sorted by w so N[w] is one slice
    ws = np.concatenate((loops, es[:, 0], es[:, 1]))
    xs = np.concatenate((loops, es[:, 1], es[:, 0]))
    order = np.argsort(ws, kind="stable")
    ws, xs = ws[order], xs[order]
    label = np.zeros(n, dtype=np.int64)
    code: list[int] = []
    while True:
        active = (label == 0) | (np.bincount(label)[label] >= 2)
        if not active.any():
            break
        keep = active[xs]
        xs, ws = xs[keep], ws[keep]
        gain = _kernels.separator_counts(label, xs, ws, n)
        gain += np.bincount(ws[label[xs] == 0], minlength=n)
        w = int(np.argmax(gain))  # argmax takes the first maximum
        assert gain[w] > 0, "twin-free graph must always offer progress"
        code.append(w)
        lo, hi = np.searchsorted(ws, (w, w + 1))
        label *= 2
        label[xs[lo:hi]] += 1
        values, label = np.unique(label, return_inverse=True)
        if values[0] != 0:  # label 0 stays the empty signature
            label += 1
    verdict = is_identifying_code(g, code, "full")
    assert verdict.ok, f"greedy produced an invalid code: {verdict}"
    return frozenset(code)

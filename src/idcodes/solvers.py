"""Exact minimum identifying-code and dominating-set search plus greedy
heuristics.

Both exact solvers are one hitting-set search, _min_hitting_set, and
each passes it four things: its hitting sets, its greedy start set, its
own lower bound and its rule. An identifying code must hit N[v] for
every v and N[u] ^ N[v] for every pair u, v at distance <= 2; a
dominating set must hit every N[v]. Branch and bound runs over
include/exclude decisions on vertices in descending-degree order. The
incumbent is the greedy start set after one reverse-delete pass, lowest
degree first, that drops a vertex when the rest still hits every set and
the rule calls it solved, the same test the walk applies at a leaf. At
each node the sets that the chosen vertices do not hit yet are
restricted to the undecided vertices. The shared prunes fire, in this
order, when the node cannot beat the incumbent (size), when one of those
sets is empty (infeasible), when the solver's own rule fires, or when a
greedy packing of pairwise disjoint ones, smallest first, needs as many
picks as the incumbent has left (packing), since one pick hits at most
one set of a packing. The identifying-code rule tests for two vertices
that no undecided vertex can split (class) and bounds the picks by
ceil(log2) of the largest signature class (log2); the dominating rule
bounds them by the undominated count over the best single coverage
(cover). Budgets count node expansions; an exhausted budget returns the
incumbent flagged non-optimal instead of failing.

The greedy identifying code scores every vertex per pick from the sizes
|S & N[w]| of the signature classes S inside each closed neighborhood.
It fills them per cell of the CSR incidence on sparse graphs and as a
(classes x n) table of unpacked closed rows on dense ones; both fills
make the same picks (greedy_idcode).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from . import _kernels, graphs
from .bounds import ceil_log2, idcode_lower_bound
from .codes import is_identifying_code
from .graphs import Graph, _dist2_blocks, least_twins
from .graphs import mask_to_set, unpack_rows, vertex_mask

DEFAULT_BUDGET = 10_000_000

# greedy_idcode sums unpacked class rows once the closed incidence n + 2m
# holds at least DENSE_DEGREE entries per vertex and 1/DENSE_FILL of n**2
DENSE_DEGREE = 40
DENSE_FILL = 12

# prune rules of each solver, in the order a node tests them
IDCODE_RULES = ("size", "infeasible", "class", "log2", "packing")
DOMINATING_RULES = ("size", "infeasible", "cover", "packing")

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
    # read-only: pruned nodes per rule, the first rule that fired counted
    prunes: Mapping[str, int] = field(hash=False)

    @property
    def size(self) -> int:
        return len(self.code)


def _hitting_sets(g: Graph) -> list[int]:
    """Sets every identifying code of g hits, as int bitmasks: N[v] for
    every v, then for each vertex u with a partner at distance <= 2 the set
    N[u] ^ N[w] of the partner w with the smallest (|N[u] ^ N[w]|, w).
    Duplicates are dropped; there are at most 2n sets."""
    n = g.n
    rows = g.packed_closed
    # per vertex the least key |N[u] ^ N[w]| * n + w over its partners w
    best = np.full(n, -1 + (1 << 63), dtype=np.int64)
    step = max(1, graphs._BLOCK_WORDS // rows.shape[1])
    for block in _dist2_blocks(g):
        for a in range(0, len(block), step):
            u, w = block[a : a + step, 0], block[a : a + step, 1]
            size = np.bitwise_count(rows[u] ^ rows[w]).sum(axis=1, dtype=np.int64)
            np.minimum.at(best, u, size * n + w)
            np.minimum.at(best, w, size * n + u)
    masks = g.closed_masks
    sets = dict.fromkeys(masks)
    for u in np.flatnonzero(best < n * (n + 1)).tolist():
        sets[masks[u] ^ masks[int(best[u]) % n]] = None
    return list(sets)


def _unhit_sets(sets: list[int], chosen: int, undecided: int) -> Optional[list[int]]:
    """The sets chosen does not hit, restricted to undecided; None when one
    of them misses undecided too, so that no completion hits it."""
    live = []
    for s in sets:
        if not s & chosen:
            r = s & undecided
            if not r:
                return None
            live.append(r)
    return live


def _packing_size(live: list[int]) -> int:
    """Size of a greedy packing of pairwise disjoint sets, smallest first:
    a lower bound on the picks that hit them all."""
    used = 0
    k = 0
    for r in sorted(live, key=int.bit_count):
        if not r & used:
            used |= r
            k += 1
    return k


def _min_hitting_set(
    g: Graph, sets: list[int], start: frozenset[int], bound: int, rule, rules: tuple[str, ...], budget: int
) -> SearchResult:
    """Smallest vertex set of g that hits every set in sets and that rule
    calls solved, by a depth-first walk over include/exclude decisions on
    the vertices by descending degree, ties to the lower index, the include
    branch first. A solver passes four things of its own: its hitting sets
    (sets), its greedy start set (start), its lower bound (bound) and its
    rule; rules names the prunes that SearchResult.prunes counts.

    At each node rule(chosen, undecided, live, room) sees the unhit sets
    restricted to the undecided vertices (live) and the picks left before
    the incumbent's size (room). It returns "solved", the name of the rule
    that prunes the node, or None; the size and infeasible prunes run
    before it and the packing prune after.

    The incumbent is start after one reverse-delete pass in the opposite
    order, lowest degree first: it drops v when rest = best without v is a
    leaf the walk would accept, that is rest hits every set and
    rule(rest, 0, [], 1) == "solved". The walk stops once the incumbent
    meets the larger of bound and the root packing bound. An explicit stack
    replaces recursion, so the depth is not bounded by the interpreter's
    recursion limit. Past budget nodes the incumbent is returned flagged
    non-optimal.
    """
    order = np.argsort(-g.degrees, kind="stable").tolist()
    # suffix[i]: bitmask of order[i:], the undecided vertices at depth i
    suffix = [0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | (1 << order[i])
    best = vertex_mask(g.n, start)
    for v in reversed(order):
        rest = best & ~(1 << v)
        if rest != best and all(s & rest for s in sets) and rule(rest, 0, [], 1) == "solved":
            best = rest
    lb = max(bound, _packing_size(sets))
    prunes = dict.fromkeys(rules, 0)
    best_size = best.bit_count()
    nodes, optimal = 0, True
    stack = [(0, 0)] if best_size > lb else []
    while stack:
        i, chosen = stack.pop()
        nodes += 1
        if nodes > budget:
            optimal = False
            break
        size = chosen.bit_count()
        room = best_size - size
        if room <= 0:
            fired = "size"
        elif (live := _unhit_sets(sets, chosen, suffix[i])) is None:
            fired = "infeasible"
        else:
            fired = rule(chosen, suffix[i], live, room)
            if fired is None and _packing_size(live) >= room:
                fired = "packing"
        if fired == "solved":
            best, best_size = chosen, size
            if best_size <= lb:
                break
        elif fired:
            prunes[fired] += 1
        else:
            stack.append((i + 1, chosen))
            stack.append((i + 1, chosen | (1 << order[i])))
    return SearchResult(mask_to_set(best), optimal, nodes, MappingProxyType(prunes))


def exact_min_idcode(g: Graph, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Minimum-cardinality identifying code by branch and bound.

    The walk of _min_hitting_set over the sets of _hitting_sets, with a
    rule that prunes a node when two vertices keep equal traces on the
    chosen and undecided vertices (class), or when the incumbent is no
    larger than the chosen vertices plus ceil(log2) of the largest
    signature class (log2). The walk stops early once the incumbent meets
    the larger of the counting bound idcode_lower_bound(n) and the root
    packing bound.
    """
    if g.n < 1:
        raise ValueError("exact_min_idcode needs n >= 1")
    start = greedy_idcode(g)  # raises NotTwinFreeError on twins
    n = g.n
    masks = g.closed_masks
    sets = _hitting_sets(g)

    def rule(chosen: int, undecided: int, live: list[int], room: int) -> Optional[str]:
        undom = False
        class_size: dict[int, int] = {}
        for m in masks:
            sig = m & chosen
            if not sig:
                undom = True
            class_size[sig] = class_size.get(sig, 0) + 1
        max_cls = max(class_size.values())
        if max_cls == 1 and not undom:
            return "solved"
        # two vertices of one class that no undecided vertex splits keep
        # equal traces on the pool; vertices of different classes already
        # differ on chosen
        pool = chosen | undecided
        if len({m & pool for m in masks}) < n:
            return "class"
        extra = ceil_log2(max_cls)
        if undom and extra == 0:
            extra = 1
        return "log2" if extra >= room else None

    return _min_hitting_set(g, sets, start, idcode_lower_bound(n), rule, IDCODE_RULES, budget)


def exact_min_dominating(g: Graph, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Minimum dominating set by branch and bound (always exists).

    The walk of _min_hitting_set over the closed neighborhoods, with a
    rule that prunes a node when the incumbent is no larger than the
    chosen vertices plus the undominated count over the largest number
    any one undecided vertex covers (cover). The walk stops early once the
    incumbent meets the larger of ceil(n / (max degree + 1)) and the root
    packing bound.
    """
    if g.n < 1:
        raise ValueError("exact_min_dominating needs n >= 1")
    masks = g.closed_masks

    def rule(chosen: int, undecided: int, live: list[int], room: int) -> Optional[str]:
        if not live:
            return "solved"
        undom = 0
        for v, m in enumerate(masks):
            if not m & chosen:
                undom |= 1 << v
        best_cover = max((masks[w] & undom).bit_count() for w in mask_to_set(undecided))
        return "cover" if -(-undom.bit_count() // best_cover) >= room else None

    bound = -(-g.n // (int(g.degrees.max()) + 1))
    return _min_hitting_set(g, masks, greedy_dominating(g), bound, rule, DOMINATING_RULES, budget)


def greedy_dominating(g: Graph) -> frozenset[int]:
    """Max-coverage greedy dominating set: repeatedly pick the vertex
    dominating the most currently-undominated vertices, ties to the lowest
    index.

    Gains never cross components, so a graph of several components runs
    the greedy in all of them at once over the component-local rows,
    ceil(s_max / 64) words each, and makes the same picks. A connected
    graph, or one of at most 64 vertices (one word per row in either
    layout: finding the components would cost more than it saves), runs
    one cover over the whole rows.
    """
    if g.n < 1:
        raise ValueError("greedy_dominating needs n >= 1")
    if g.n > 64:
        members, starts = g.component_order
        if len(starts) > 2:
            picks = _kernels.greedy_cover_segments(g.local_closed[members], np.diff(starts))
            return frozenset(members[picks].tolist())
    return frozenset(_kernels.greedy_cover(g.packed_closed, g.n).tolist())


def greedy_idcode(g: Graph) -> frozenset[int]:
    """Greedy identifying code: each step picks the vertex with the largest
    (newly dominated vertices + newly separated pairs), ties to the lowest
    index. Output is verified before returning; a failed check raises
    RuntimeError.

    The still-unseparated pairs are never listed. The solver keeps the
    partition of V by current signature N[x] & C instead. Class 0 holds
    the empty signature (the undominated vertices) plus one ghost vertex
    that no N[w] holds, so dominating x is separating x from the ghost.
    The gain of w is the sum over the classes S of
    |S & N[w]| * |S - N[w]|, which `_kernels.separator_counts` takes once
    per pick from the counts |S & N[w]|. A pick p splits every class S
    into S & N[p] and S - N[p]. The gains are exact, so the picks stop
    once they add up to the C(n + 1, 2) pairs of V and the ghost.

    On a twin-free graph every pick gains, since some N[w] splits any two
    vertices of a class. The picks stall, with no gain left, only on
    twins; only then is the graph searched for them, and
    NotTwinFreeError names the least twin pair (`least_twins`). A stall
    without twins raises RuntimeError. A twin graph thus costs the greedy
    up to its stall before it raises.

    Two fills compute those counts and make the same picks. `_cell_picks`
    keeps them per cell of the closed-neighborhood incidence, read from
    the CSR, and moves only the entries of the rows in N[p] per pick, in
    O(n + m) memory. `_table_picks` sums unpacked closed rows per class
    instead: O(n) per live vertex per pick, n**2 bytes and no CSR. The
    table fill runs on dense graphs (`_is_dense`), where n**2 bytes are
    O(m) and where it measured faster.
    """
    if g.n < 1:
        raise ValueError("greedy_idcode needs n >= 1")
    code = _table_picks(g) if _is_dense(g) else _cell_picks(g)
    if code is None:
        twins = least_twins(g)
        if twins:
            raise NotTwinFreeError(twins)
        raise RuntimeError("greedy_idcode found no progress on a twin-free graph")
    verdict = is_identifying_code(g, code)
    if not verdict.ok:
        raise RuntimeError(f"greedy produced an invalid code: {verdict}")
    return frozenset(code)


def _is_dense(g: Graph) -> bool:
    """Whether greedy_idcode takes the table fill: the closed incidence
    n + 2m holds at least DENSE_DEGREE entries per vertex and at least
    n**2 / DENSE_FILL in all."""
    n = g.n
    return n + 2 * g.m >= max(DENSE_DEGREE * n, n * n / DENSE_FILL)


def _cell_picks(g: Graph) -> Optional[list[int]]:
    """The greedy identifying code's picks, in order, from cell counts.

    Each class S is cut into cells, one per vertex w with N[w] meeting S,
    over the closed-neighborhood incidence (x, w), x in N[w], grouped in
    rows by x. A cell stores its owner w, its class and its size
    |S & N[w]|, and the kernel sums |S & N[w]| * |S - N[w]| over the
    cells of each owner.

    A pick p refines in place: the part S & N[p] of every class S that
    N[p] meets moves to a fresh class id, and so does the matching part
    of every cell, which only the entries of the rows x in N[p] hold.
    A pick thus moves O(sum of |N[x]| over x in N[p]) entries; the cell
    and class counts are updated without any sort. Once the cell ids
    outnumber the live entries, the empty cells and the cells of
    one-vertex classes are dropped, with their entries, and the rest
    renumbered. Memory is O(n + m). Beyond the moved entries, a pick makes
    a few passes over all cell ids (the kernel, the count of moved entries
    per cell). Returns None when no vertex gains, which only twins cause.
    """
    n = g.n
    indptr, nbrs = g._csr
    size = np.diff(indptr) + 1
    start = indptr[:-1] + np.arange(n)
    # row x of the closed incidence: x itself, then its neighbors
    hood = np.empty(n + len(nbrs), dtype=np.int64)
    hood[start] = np.arange(n)
    rest = np.ones(len(hood), dtype=bool)
    rest[start] = False
    hood[rest] = nbrs
    e = len(hood)
    # per entry (x, w): x and its cell; at first every vertex is in class
    # 0, so the cell of (x, w) is w
    xs = np.repeat(np.arange(n), size)
    cell = hood.copy()
    # row x of the closed incidence is hood[lo[x]:hi[x]], that is N[x];
    # its live entries end at row_end[x]
    row_len, row_end = size, start + size
    lo, hi = start.tolist(), row_end.tolist()
    # cells and classes get fresh ids at the end; between compactions
    # there are at most 2e cell ids, and at most e + 1 class ids in all
    count = np.zeros(2 * e, dtype=np.int64)
    owner = np.zeros(2 * e, dtype=np.int64)
    klass = np.zeros(2 * e, dtype=np.int64)
    count[:n], owner[:n] = size, np.arange(n)
    sizes = np.zeros(e + 1, dtype=np.int64)
    sizes[0] = n + 1
    new_class = np.empty(e + 1, dtype=np.int64)
    new_cell = np.empty(2 * e, dtype=np.int64)
    cells, classes = n, 1
    unseparated = n * (n + 1) // 2  # pairs of V plus the ghost
    code: list[int] = []
    while unseparated > 0:
        gain = _kernels.separator_counts(
            count[:cells], owner[:cells], klass[:cells], sizes[:classes], n
        )
        p = int(gain.argmax())  # argmax takes the first maximum
        best = int(gain[p])
        if best <= 0:
            return None
        code.append(p)
        unseparated -= best
        # the live entries of the rows x in N[p], row after row
        hp = hood[lo[p] : hi[p]]
        lens = row_len[hp]
        ends = lens.cumsum()
        at = np.repeat(row_end[hp] - ends, lens)
        at += np.arange(len(at))
        old = cell[at]
        moved = np.bincount(old, minlength=cells)
        hit = (moved > 0).nonzero()[0]
        moved, hit_owner, hit_class = moved[hit], owner[hit], klass[hit]
        # the cells of p are the parts S & N[p], all of whose entries
        # moved: each part moves to a fresh class
        mine = hit_owner == p
        split, part = hit_class[mine], moved[mine]
        k = len(split)
        new_class[split] = np.arange(classes, classes + k)
        sizes[split] -= part
        sizes[classes : classes + k] = part
        classes += k
        # and the part of every cell inside N[p] to a fresh cell
        k = len(hit)
        new_cell[hit] = np.arange(cells, cells + k)
        cell[at] = new_cell[old]
        count[hit] -= moved
        count[cells : cells + k] = moved
        owner[cells : cells + k] = hit_owner
        klass[cells : cells + k] = new_class[hit_class]
        cells += k
        if cells > len(cell):
            keep = count[:cells] > 0
            keep &= sizes[klass[:cells]] > 1
            kept = keep.nonzero()[0]
            live = keep[cell]
            cell = (keep.cumsum() - 1)[cell[live]]
            xs = xs[live]
            row_len = np.bincount(xs, minlength=n)
            row_end = row_len.cumsum()
            cells = len(kept)
            for arr in (count, owner, klass):
                arr[:cells] = arr[kept]
    return code


def _table_picks(g: Graph) -> Optional[list[int]]:
    """The greedy identifying code's picks, in order, from class tables.

    The closed rows are unpacked once into an n x n table of bools,
    and every vertex keeps a class id; the ghost counts only in the size
    of class 0, the class of the undominated vertices. Per pick, the
    vertices of the classes of two or more are sorted by class, the
    classes grouped by how many vertices they hold. A group of c classes
    of s vertices each is one (c, s, n) gather of rows summed over its
    middle axis, which fills the (classes x n) table of |S & N[w]| that
    the kernel scores. The pick p then splits every class by row p. A
    pick costs O(n) per live vertex; counts are int16 while n < 2**15.
    Returns None when no vertex gains, which only twins cause.
    """
    n = g.n
    rows = unpack_rows(g.packed_closed, n)
    wide = np.int16 if n < 1 << 15 else np.int32
    # class id per vertex, and class sizes with the ghost counted in class 0
    label = np.zeros(n, dtype=np.int64)
    sizes = np.array([n + 1])
    unseparated = n * (n + 1) // 2  # pairs of V plus the ghost
    code: list[int] = []
    while unseparated > 0:
        held = sizes.copy()
        held[0] -= 1  # the ghost holds no row
        live = (sizes[label] > 1).nonzero()[0]
        klass = label[live]
        # the live vertices by class, the classes by how many they hold
        order = live[np.argsort(held[klass] * len(sizes) + klass, kind="stable")]
        klass = label[order]
        first = np.ones(len(order), dtype=bool)
        np.not_equal(klass[1:], klass[:-1], out=first[1:])
        bounds = np.append(first.nonzero()[0], len(order))
        ids = klass[bounds[:-1]]  # the class of each table row
        counts = np.empty((len(ids), n), dtype=wide)
        # each run of classes of one size s is one (classes, s, n) block
        span = held[ids]
        runs = np.append((span[1:] != span[:-1]).nonzero()[0] + 1, len(ids))
        r = 0
        for r_end in runs.tolist():
            block = rows[order[bounds[r] : bounds[r_end]]].reshape(r_end - r, int(span[r]), n)
            np.sum(block, axis=1, dtype=wide, out=counts[r:r_end])
            r = r_end
        gain = _kernels.separator_counts(counts, None, None, sizes[ids], n)
        p = int(gain.argmax())  # argmax takes the first maximum
        best = int(gain[p])
        if best <= 0:
            return None
        code.append(p)
        unseparated -= best
        # S & N[p] takes the id of S plus the id count; then the ids are
        # compacted, keeping id 0 for the ghost's class
        label[rows[p]] += len(sizes)
        used = np.zeros(2 * len(sizes), dtype=bool)
        used[0] = True
        used[label] = True
        label = np.cumsum(used)[label] - 1
        sizes = np.bincount(label, minlength=1)
        sizes[0] += 1
    return code

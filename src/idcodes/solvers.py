"""Exact minimum identifying-code and dominating-set search plus greedy
heuristics.

Both exact solvers are one hitting-set search, _min_hitting_set, and
each passes it its hitting sets, its greedy start set, its own lower
bound and its rule. An identifying code must hit N[v] for every v and
N[u] ^ N[v] for every pair u, v at distance <= 2; a dominating set must
hit every N[v]. Branch and bound runs over include/exclude decisions on
vertices in descending-degree order. The incumbent is the greedy start
set after one reverse-delete pass, lowest degree first, that drops a
vertex when the rest still hits every set and the rule calls it solved,
the same test the walk applies at a leaf. The shared prunes fire, in
this order, when a set the chosen vertices miss has no undecided vertex
either (infeasible), when the solver's own rule fires, or when a greedy
packing of pairwise disjoint unhit sets, restricted to the undecided
vertices and taken smallest first, needs as many picks as the incumbent
has left (packing), since one pick hits at most one set of a packing.
No node needs a test that it can still beat the incumbent: every node
the walk reaches has fewer chosen vertices than the incumbent
(_min_hitting_set says why). The identifying-code rule tests for two
vertices that no undecided vertex can split (class) and bounds the
picks by ceil(log2) of the largest signature class (log2); the
dominating rule bounds them by the undominated count over the best
single coverage (cover). Budgets count node expansions; an exhausted
budget returns the incumbent flagged non-optimal instead of failing.

A node's state travels down the walk's stack with it. The sets its
chosen vertices miss are one bitmask over the set indices, so the
infeasible test is a few big-int operations, not a pass over the sets.
A rule summary that depends only on the chosen vertices (the largest
signature class; the undominated vertices) passes to the exclude child,
which has the same chosen vertices. The include child has its parent's
pool of chosen and undecided vertices, so the class test, which passed
there, is not run again. Every node but the root thus makes at most
one O(n) pass for its rule, not two, and only nodes that reach the
packing prune list their unhit sets.

The greedy identifying code scores every vertex per pick from the sizes
|S & N[w]| of the signature classes S inside each closed neighborhood.
It fills them per cell of the CSR incidence on sparse graphs and as a
(classes x n) table of unpacked closed rows on dense ones; both fills
make the same picks (greedy_idcode).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from . import _kernels, graphs
from .bounds import ceil_log2, idcode_lower_bound
from .codes import is_identifying_code
from .graphs import Graph, _dist2_blocks, least_twins
from .graphs import mask_to_set, transpose_masks, unpack_rows, vertex_mask

DEFAULT_BUDGET = 10_000_000

# greedy_idcode sums unpacked class rows once the closed incidence n + 2m
# holds at least DENSE_DEGREE entries per vertex and 1/DENSE_FILL of n**2
DENSE_DEGREE = 40
DENSE_FILL = 12

# _cell_picks compacts its cells once their ids exceed the live entries
# by this many
CELL_SLACK = 1024

# prune rules of each solver, in the order a node tests them
IDCODE_RULES = ("infeasible", "class", "log2", "packing")
DOMINATING_RULES = ("infeasible", "cover", "packing")

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


# bin() digits to the 0/1 bytes that itertools.compress reads as flags
_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _unhit_sets(sets: list[int], unhit: int, undecided: int) -> list[int]:
    """The sets whose indices the bitmask unhit names, in order, restricted
    to undecided."""
    return [s & undecided for s in compress(sets, bin(unhit)[:1:-1].encode().translate(_FLAGS))]


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
    g: Graph,
    sets: list[int],
    hits: list[int],
    start: frozenset[int],
    bound: int,
    part,
    prune,
    rules: tuple[str, ...],
    budget: int,
) -> SearchResult:
    """Smallest vertex set of g that hits every set in sets and that the
    solver calls solved, by a depth-first walk over include/exclude
    decisions on the vertices by descending degree, ties to the lower
    index, the include branch first. A solver passes its hitting sets
    (sets), per vertex v the bitmask of the indices of the sets v hits
    (hits[v]), its greedy start set (start), its lower bound (bound) and
    its rule as two functions, part and prune; rules names the prunes
    that SearchResult.prunes counts.

    Each entry of the walk's explicit stack carries its node's state: the
    depth i (the undecided vertices are order[i:]), the chosen vertices,
    the indices of the sets they do not hit yet (unhit, a bitmask) and
    the rule's summary of chosen, or None where it is still to be
    computed. part(chosen, unhit, room) computes that summary, an int
    that is 0 exactly when chosen solves the problem; it may return None
    when chosen does not solve it and prune has no use for the summary
    at this room, the picks left before the incumbent's size.
    prune(chosen, undecided, part, room, same_pool) returns the name of
    the rule that prunes the node or None. The prunes fire in
    order: infeasible, solved (part is 0), prune, then packing.

    Every node the walk pops has room >= 1, so none is tested for room
    <= 0. A node with room 1 never branches: the identifying-code part
    skips itself only at room > cap >= 1, and unless part is 0 (solved)
    the rule fires, log2 on a part >= 1 and cover on a quotient >= 1. So
    a node branches at room >= 2 and pushes children of room >= 1. The
    incumbent shrinks only at a solved include child, since an exclude
    child has the chosen vertices of its unsolved parent. Every node then
    on the stack is the exclude child of one of that child's ancestors
    and has fewer chosen vertices. A branching whose pending siblings
    each hold a pick of their own, such as a branch over the vertices of
    one unhit set, breaks this second step and needs the room test back.

    A node's state comes from its parent's in O(1) big-int operations:
    an include child of v clears hits[v] from unhit, and a node is
    infeasible iff unhit names a set that no vertex of order[i:] hits
    (stuck[i]). An exclude child keeps its
    parent's chosen vertices and hence its part. An include child keeps
    its parent's pool chosen | undecided, so prune learns that from
    same_pool and may skip its tests on the pool, which passed at the
    parent. Only nodes that reach the packing prune build the unhit sets
    restricted to the undecided vertices (_unhit_sets).

    The incumbent is start after one reverse-delete pass in the opposite
    order, lowest degree first: it drops v when rest = best without v is a
    leaf the walk would accept, that is rest hits every set and
    part(rest, 0, 1) == 0. The walk stops, before the root if need be,
    once the incumbent meets the larger of bound and the root packing
    bound. An explicit stack replaces recursion, so the depth is not
    bounded by the interpreter's recursion limit. Past budget nodes the
    incumbent is returned flagged non-optimal. The masks take O(n) ints
    of len(sets) bits, O(n W) words since there are at most 2n sets.
    """
    n = g.n
    order = np.argsort(-g.degrees, kind="stable").tolist()
    full = (1 << len(sets)) - 1
    # suffix[i]: bitmask of order[i:], the undecided vertices at depth i;
    # stuck[i]: the indices of the sets that none of them hits
    suffix = [0] * (n + 1)
    stuck = [full] * (n + 1)
    reach = 0
    for i in range(n - 1, -1, -1):
        v = order[i]
        suffix[i] = suffix[i + 1] | (1 << v)
        reach |= hits[v]
        stuck[i] = full ^ reach
    best = vertex_mask(n, start)
    members = [v for v in reversed(order) if best >> v & 1]
    # later[k]: the sets that members[k:] hit; those members are still in
    # best when members[k - 1] is tested, and kept holds what the tested
    # members that stayed hit
    later = [0] * (len(members) + 1)
    for k in range(len(members) - 1, -1, -1):
        later[k] = later[k + 1] | hits[members[k]]
    kept = 0
    for k, v in enumerate(members):
        rest = best & ~(1 << v)
        if kept | later[k + 1] == full and part(rest, 0, 1) == 0:
            best = rest
        else:
            kept |= hits[v]
    lb = max(bound, _packing_size(sets))
    prunes = dict.fromkeys(rules, 0)
    best_size = best.bit_count()
    nodes, optimal = 0, True
    stack = [(0, 0, full, None, False)]
    while stack and best_size > lb:
        i, chosen, unhit, known, same_pool = stack.pop()
        nodes += 1
        if nodes > budget:
            optimal = False
            break
        size = chosen.bit_count()
        room = best_size - size
        if unhit & stuck[i]:
            fired = "infeasible"
        else:
            if known is None:
                known = part(chosen, unhit, room)
            if known == 0:
                fired = "solved"
            else:
                fired = prune(chosen, suffix[i], known, room, same_pool)
                if fired is None and _packing_size(_unhit_sets(sets, unhit, suffix[i])) >= room:
                    fired = "packing"
        if fired == "solved":
            best, best_size = chosen, size
        elif fired:
            prunes[fired] += 1
        else:
            v = order[i]
            stack.append((i + 1, chosen, unhit, known, False))
            stack.append((i + 1, chosen | (1 << v), unhit & ~hits[v], None, True))
    return SearchResult(mask_to_set(best), optimal, nodes, MappingProxyType(prunes))


def exact_min_idcode(g: Graph, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Minimum-cardinality identifying code by branch and bound.

    The walk of _min_hitting_set over the sets of _hitting_sets. Its part
    is the partition of V by signature N[v] & chosen, summed up as
    ceil(log2) of the largest signature class, at least 1 while a vertex
    is undominated, so 0 exactly when chosen is an identifying code. Its
    prune fires when two vertices keep equal traces on the chosen and
    undecided vertices (class), or when the incumbent is no larger than
    the chosen vertices plus that part (log2). A node makes at most one
    pass over the closed neighborhoods, not two: an exclude child takes
    its parent's part and tests only the pool, and an include child,
    whose pool is its parent's, only computes its part. It skips even
    that while a hitting set is unhit, so that chosen is no code, and
    room exceeds max(1, ceil(log2(n))), the most the part can be, so that
    log2 cannot fire. The walk stops early once the incumbent meets the
    larger of the counting bound idcode_lower_bound(n) and the root
    packing bound.
    """
    if g.n < 1:
        raise ValueError("exact_min_idcode needs n >= 1")
    start = greedy_idcode(g)  # raises NotTwinFreeError on twins
    n = g.n
    masks = g.closed_masks
    sets = _hitting_sets(g)
    cap = max(1, ceil_log2(n))  # the largest part: every vertex in one class

    def part(chosen: int, unhit: int, room: int) -> Optional[int]:
        if unhit and room > cap:
            return None
        sizes = Counter(map(chosen.__and__, masks))
        extra = ceil_log2(max(sizes.values()))
        return 1 if extra == 0 and 0 in sizes else extra

    def prune(chosen: int, undecided: int, extra: Optional[int], room: int, same_pool: bool) -> Optional[str]:
        # two vertices of one class that no undecided vertex splits keep
        # equal traces on the pool; vertices of different classes already
        # differ on chosen
        if not same_pool and len(set(map((chosen | undecided).__and__, masks))) < n:
            return "class"
        return "log2" if extra is not None and extra >= room else None

    hits = transpose_masks(sets, n)
    return _min_hitting_set(g, sets, hits, start, idcode_lower_bound(n), part, prune, IDCODE_RULES, budget)


def exact_min_dominating(g: Graph, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Minimum dominating set by branch and bound (always exists).

    The walk of _min_hitting_set over the closed neighborhoods. Set j is
    N[j], so the unhit sets the walk carries are the undominated
    vertices, and they are its part. Its prune fires when the incumbent
    is no larger than the chosen vertices plus the undominated count over
    the largest number any one undecided vertex covers (cover), one pass
    over the undecided vertices. The walk stops early once the incumbent
    meets the larger of ceil(n / (max degree + 1)) and the root packing
    bound.
    """
    if g.n < 1:
        raise ValueError("exact_min_dominating needs n >= 1")
    masks = g.closed_masks

    def part(chosen: int, undom: int, room: int) -> int:
        return undom

    def prune(chosen: int, undecided: int, undom: int, room: int, same_pool: bool) -> Optional[str]:
        best_cover = max((masks[w] & undom).bit_count() for w in mask_to_set(undecided))
        return "cover" if -(-undom.bit_count() // best_cover) >= room else None

    bound = -(-g.n // (int(g.degrees.max()) + 1))
    # v is in N[j] iff j is in N[v], so the sets v hits are N[v] itself
    return _min_hitting_set(g, masks, masks, greedy_dominating(g), bound, part, prune, DOMINATING_RULES, budget)


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
    exceed the live entries by CELL_SLACK, the empty cells and the cells
    of one-vertex classes are dropped, with their entries, and the rest
    renumbered. Right after a compaction almost every cell holds one
    entry, so without the slack the fresh cells of the next few picks
    would trigger it again. Memory is O(n + m). Beyond the moved entries,
    a pick makes a few passes over all cell ids (the kernel, the count of
    moved entries per cell). Returns None when no vertex gains, which
    only twins cause.
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
    # cells and classes get fresh ids at the end; a pick adds at most one
    # cell per live entry, so there are at most 2e + CELL_SLACK cell ids
    # between compactions, and at most e + 1 class ids in all
    count = np.zeros(2 * e + CELL_SLACK, dtype=np.int64)
    owner = np.zeros(2 * e + CELL_SLACK, dtype=np.int64)
    klass = np.zeros(2 * e + CELL_SLACK, dtype=np.int64)
    count[:n], owner[:n] = size, np.arange(n)
    sizes = np.zeros(e + 1, dtype=np.int64)
    sizes[0] = n + 1
    new_class = np.empty(e + 1, dtype=np.int64)
    new_cell = np.empty(2 * e + CELL_SLACK, dtype=np.int64)
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
        if cells > len(cell) + CELL_SLACK:
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

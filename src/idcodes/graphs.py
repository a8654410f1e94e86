"""Immutable undirected graphs on vertices 0..n-1, generators, file formats.

A Graph stores one thing: its edges as a sorted (m, 2) int64 array, one
row (u, v) with u < v per edge, rows in ascending lexicographic order.
Every other form is derived from that array on first use and cached:

- the degrees and the connected components;
- `packed_closed`: closed neighborhoods as bit-packed uint64 rows, for the
  array kernels, the verifiers, `find_twins` and `least_twins`;
- `local_closed`: the same neighborhoods with each vertex's column set to
  its rank inside its component, ceil(s_max / 64) words per row for the
  largest component size s_max; on a connected graph it is `packed_closed`
  itself;
- `closed_masks`: the same rows as Python ints, for the exact solvers,
  `complement` and `watching` (not for the verifiers);
- the CSR adjacency (`indptr` and ascending neighbor lists);
- the `edges()` tuples, only when a caller asks for them.

The degrees (one bincount), the packed rows (two word passes over the
sorted edges) and `has_edge` (a lookup of the edge key) read the edge
array alone. The CSR comes from one sort of the 2m arc keys v * n + w;
only the readers of neighbor lists build it: the 2-balls of the
distance-2 pairs (`_dist2_blocks`, which reads the neighbors of a block
of consecutive vertices as one slice), `greedy_idcode` on sparse graphs,
`neighbor_counts`, `neighbors` and `closed_neighborhood`. The 2-balls
of theorem1 `sparsify`'s undominated tied vertices (`_local_balls`) read
each neighborhood from the set bits of the vertex's own local row
instead, so `sparsify` builds no CSR.

A child graph, made by deleting edges (`delete_edges`, and the sparsified
graph of `sparsify`), inherits the views its parent has already cached
and that are cheap to edit: `packed_closed`, copied with both bits of
every deleted edge cleared, and the degrees, less the deleted edges. It
builds any other view, and these two when the parent has none, from its
own edges on first use. `sparsify` caches the packed rows of a connected
parent (they are its `local_closed`), so that child packs nothing; a
parent of several components packs only its local rows, and its child
packs its own.

The components come from one union-find over the edge array
(`component_ids`).

The builders (the constructor, `delete_edges`, `complement`, the
generators, `parse_edge_list` on well-formed ASCII text), the 2-balls and
the distance-2 pair enumeration work on whole arrays; none of them loops
over the edges in Python.

This module alone lays out bits and text: packed rows, their keys and
equal pairs, int masks (the bit layouts section) and edge lines
(`edge_lines`). The other modules call these helpers instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

Edge = tuple[int, int]

# largest vertex count whose edge keys u * n + v fit in int64
MAX_VERTICES = 3_037_000_499


class FormatError(ValueError):
    """Malformed edge-list text."""


def _edge_rows(n: int, edges) -> tuple[np.ndarray, object]:
    """(rows, source): the edges as a (k, 2) int64 array, plus an indexable
    copy of the input for error messages.

    Endpoints beyond int64 are clamped to -1 or n, which keeps them out of
    range without changing any in-range value.
    """
    src = edges if isinstance(edges, (np.ndarray, list, tuple)) else list(edges)
    if len(src) == 0:
        return np.empty((0, 2), dtype=np.int64), src
    arr = np.asarray(src)
    if arr.dtype.kind not in "biu":
        # numpy reads Python ints past int64 as floats or objects
        arr = np.array(src, dtype=object)
        if not all(isinstance(x, (int, np.integer)) for x in arr.flat):
            raise TypeError("edge endpoints must be integers")
        arr = np.clip(arr, -1, n)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edges must be pairs of vertices")
    return arr.astype(np.int64, order="C"), src


def _pairs(u, v) -> np.ndarray:
    return np.stack((u, v), axis=1).astype(np.int64, copy=False)


def _word_bits(rows: np.ndarray, cols: np.ndarray, W: int) -> tuple[np.ndarray, np.ndarray]:
    """(words, bits): per entry, the flat index of the word that holds
    column cols[i] of row rows[i] in an (n, W) bit array, and the column's
    bit in that word."""
    words = rows * W
    words += cols >> 6
    bits = (cols & 63).view(np.uint64)
    np.left_shift(np.uint64(1), bits, out=bits)
    return words, bits


def _norm_edge(u, v) -> Edge:
    u, v = int(u), int(v)
    return (u, v) if u < v else (v, u)


class Graph:
    """Undirected simple graph, immutable after construction.

    Edge deletion and complementation return new graphs. Self-loops and
    duplicate edges are rejected at construction; the first bad edge in
    input order is reported.
    """

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if n > MAX_VERTICES:
            raise ValueError(f"vertex count {n} too large (at most {MAX_VERTICES})")
        rows, src = _edge_rows(n, edges)  # a fresh array
        u, v = rows[:, 0], rows[:, 1]
        keys = u * n + v
        # rows with 0 <= u < v < n whose keys strictly increase are already
        # sorted and unique, as parse_edge_list output usually is: keep them
        if len(rows) and not (
            u.min() >= 0 and v.max() < n and (u < v).all() and (keys[1:] > keys[:-1]).all()
        ):
            lo, hi = np.minimum(u, v), np.maximum(u, v)
            out = (lo < 0) | (hi >= n)
            loop = u == v
            # duplicates: a stable sort puts the later copies of a key after
            # the first; bad rows get distinct negative keys so they match
            # nothing
            keys = np.where(out | loop, -1 - np.arange(len(rows)), lo * n + hi)
            order = np.argsort(keys, kind="stable")
            dup = np.zeros(len(rows), dtype=bool)
            dup[order[1:]] = keys[order[1:]] == keys[order[:-1]]
            bad = out | loop | dup
            if bad.any():
                i = int(np.argmax(bad))
                a, b = src[i]
                if out[i]:
                    raise ValueError(f"edge ({a},{b}) out of range for n={n}")
                if loop[i]:
                    raise ValueError(f"self-loop at vertex {a}")
                raise ValueError(f"duplicate edge {_norm_edge(a, b)}")
            rows = np.stack((lo[order], hi[order]), axis=1)
        self._n = n
        self._edges = rows
        rows.setflags(write=False)

    @classmethod
    def _from_sorted(cls, n: int, rows: np.ndarray) -> "Graph":
        """Graph over int64 rows that are already valid, unique and sorted."""
        g = cls.__new__(cls)
        g._n = n
        g._edges = rows
        rows.setflags(write=False)
        return g

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return len(self._edges)

    def edge_array(self) -> np.ndarray:
        """The edges as a read-only (m, 2) int64 array, u < v, rows sorted."""
        return self._edges

    def edges(self) -> tuple[Edge, ...]:
        return self._edge_tuples

    def neighbors(self, v: int) -> frozenset[int]:
        indptr, nbrs = self._csr
        return frozenset(nbrs[indptr[v] : indptr[v + 1]].tolist())

    def closed_neighborhood(self, v: int) -> frozenset[int]:
        return self.neighbors(v) | {v}

    def degree(self, v: int) -> int:
        return int(self.degrees[v])

    def has_edge(self, u: int, v: int) -> bool:
        lo, hi = (u, v) if u < v else (v, u)
        return 0 <= lo and hi < self._n and bool(self._find(np.array([lo * self._n + hi]))[0])

    def is_spanning_subgraph_of(self, other: "Graph") -> bool:
        """Same vertex set as other, and every edge of self is an edge of other."""
        return self._n == other._n and bool(other._find(self._keys).all())

    @cached_property
    def _edge_tuples(self) -> tuple[Edge, ...]:
        return tuple(map(tuple, self._edges.tolist()))

    @cached_property
    def _keys(self) -> np.ndarray:
        """u * n + v per edge, ascending."""
        return self._edges[:, 0] * self._n + self._edges[:, 1]

    def _find(self, keys: np.ndarray) -> np.ndarray:
        """Per key, whether it is the key of an edge."""
        if not self.m:
            return np.zeros(len(keys), dtype=bool)
        pos = np.minimum(np.searchsorted(self._keys, keys), self.m - 1)
        return self._keys[pos] == keys

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, nbrs): the neighbors of v are nbrs[indptr[v]:indptr[v+1]],
        ascending."""
        n = self._n
        indptr = np.zeros(n + 1, dtype=np.int64)
        if not n:
            return indptr, np.empty(0, dtype=np.int64)
        np.cumsum(self.degrees, out=indptr[1:])
        # the arc keys v * n + w, one per direction of each edge, are
        # unique, so any sort puts them in (row, neighbor) order
        lo, hi = self._edges[:, 0], self._edges[:, 1]
        keys = np.empty((2, len(lo)), dtype=np.int64)
        np.multiply(lo, n, out=keys[0])
        keys[0] += hi
        np.multiply(hi, n, out=keys[1])
        keys[1] += lo
        keys = keys.reshape(-1)
        keys.sort()
        return indptr, np.remainder(keys, n, out=keys)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Read-only vertex degrees."""
        deg = np.bincount(self._edges.reshape(-1), minlength=self._n)
        deg.setflags(write=False)
        return deg

    @cached_property
    def closed_masks(self) -> tuple[int, ...]:
        """Closed neighborhoods as Python-int bitmasks (bit w set iff w in N[v])."""
        rows = self.packed_closed
        data = rows.astype("<u8", copy=False).tobytes()
        step = 8 * rows.shape[1]
        return tuple(
            int.from_bytes(data[i : i + step], "little")
            for i in range(0, len(data), step)
        )

    @cached_property
    def packed_closed(self) -> np.ndarray:
        """Closed neighborhoods packed into uint64 words, shape (n, W).

        Bit w of word w >> 6 in row v is set iff w in N[v].
        """
        return self._pack(np.arange(self._n), max(1, (self._n + 63) >> 6))

    @cached_property
    def local_closed(self) -> np.ndarray:
        """Closed neighborhoods packed by rank inside the component, shape
        (n, ceil(s_max / 64)) for the largest component size s_max.

        Bit ranks[w] of row v is set iff w in N[v]. On a connected graph the
        ranks are the vertices themselves and this is `packed_closed`.
        """
        starts = self.component_order[1]
        if len(starts) <= 2:
            return self.packed_closed
        return self._pack(self.ranks, (int(np.diff(starts).max()) + 63) >> 6)

    def _pack(self, cols: np.ndarray, W: int) -> np.ndarray:
        """Read-only (n, W) rows: bit cols[w] of row v is set iff w in N[v].

        cols must keep the vertex order inside every component.
        """
        n = self._n
        flat = np.zeros(n * W, dtype=np.uint64)
        words, bits = _word_bits(np.arange(n), cols, W)
        flat[words] = bits
        if self.m:
            lo, hi = self._edges[:, 0], self._edges[:, 1]
            # bit hi of row lo: the edges are sorted by (lo, hi) and cols
            # keeps the order of hi inside a run of lo, so the word index
            # never decreases; OR each run of equal words in one reduceat
            words, bits = _word_bits(lo, cols[hi], W)
            starts = np.flatnonzero(np.concatenate(([True], words[1:] != words[:-1])))
            flat[words[starts]] |= np.bitwise_or.reduceat(bits, starts)
            # bit lo of row hi, in no order. Every such bit is distinct and
            # still clear (cols is one-to-one inside a component), so adding
            # it sets it with no carry: numpy's add.at scatter runs about 5x
            # faster than bitwise_or.at
            np.add.at(flat, *_word_bits(hi, cols[lo], W))
        arr = flat.reshape(n, W)
        arr.setflags(write=False)
        return arr

    def neighbor_counts(self, flags: np.ndarray) -> np.ndarray:
        """Per vertex, how many of its neighbors are flagged: a segment sum
        over its CSR neighbor list."""
        indptr, nbrs = self._csr
        sums = np.concatenate(([0], np.cumsum(flags[nbrs], dtype=np.int64)))
        return sums[indptr[1:]] - sums[indptr[:-1]]

    @cached_property
    def component_ids(self) -> np.ndarray:
        """Per vertex, the index of its connected component (read-only
        int64); components are numbered in order of their least vertex.

        One union-find over the edge array: hook the larger root of every
        edge onto the smaller, then jump pointers until every vertex points
        at its root, the least vertex of its tree, and repeat until no edge
        joins two trees. The first hook needs no gathers, since every
        vertex is still its own root and u < v; later hooks run over all
        edges, where an edge inside one tree hooks its root onto itself and
        changes nothing. A graph whose vertices all reach root 0 is
        connected and stops there, without reading the edges again.
        """
        n = self._n
        lo, hi = self._edges[:, 0], self._edges[:, 1]
        parent = np.arange(n)
        np.minimum.at(parent, hi, lo)
        while True:
            while True:
                up = parent[parent]
                if (up == parent).all():
                    break
                parent = up
            if not parent.any():
                ids = np.zeros(n, dtype=np.int64)
                break
            ru, rv = parent[lo], parent[hi]
            if (ru == rv).all():
                # the roots, counted in vertex order, number the components
                ids = (np.cumsum(parent == np.arange(n), dtype=np.int64) - 1)[parent]
                break
            np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        ids.setflags(write=False)
        return ids

    @cached_property
    def component_order(self) -> tuple[np.ndarray, np.ndarray]:
        """(members, starts): the vertices ordered by component, ascending
        inside each, and the offset of each component in members, with
        len(members) appended. Both read-only."""
        ids = self.component_ids
        members = np.argsort(ids, kind="stable")
        k = int(ids.max()) + 1 if self._n else 0
        starts = np.searchsorted(ids[members], np.arange(k + 1))
        members.setflags(write=False)
        starts.setflags(write=False)
        return members, starts

    @cached_property
    def ranks(self) -> np.ndarray:
        """Per vertex, its position inside its sorted component (read-only)."""
        members, starts = self.component_order
        rank = np.empty(self._n, dtype=np.int64)
        rank[members] = np.arange(self._n) - np.repeat(starts[:-1], np.diff(starts))
        rank.setflags(write=False)
        return rank

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as sorted vertex tuples, ordered by least vertex."""
        members, starts = self.component_order
        parts = np.split(members, starts[1:-1]) if self._n else []
        return tuple(tuple(part.tolist()) for part in parts)

    def delete_edges(self, to_delete: Iterable[Edge]) -> "Graph":
        """New graph without the given edges (edges must exist). It
        inherits the packed rows and degrees of self when those are cached."""
        n = self._n
        rows, src = _edge_rows(n, to_delete)
        lo, hi = rows.min(axis=1), rows.max(axis=1)
        keys = lo * n + hi
        found = (lo >= 0) & (hi < n) & self._find(keys)
        if not found.all():
            missing = sorted({_norm_edge(*src[i]) for i in np.flatnonzero(~found)})
            raise ValueError(f"edges not in graph: {missing[:3]}")
        gone = np.zeros(self.m, dtype=bool)
        gone[np.searchsorted(self._keys, keys)] = True
        return self._without(gone)

    def _without(self, gone: np.ndarray) -> "Graph":
        """The child graph without the edges flagged in gone (one bool per
        edge, in edge order).

        The child inherits the views of self that are already cached:
        packed_closed as a copy with both bits of every deleted edge
        cleared, and the degrees less the deleted edges. Any other view it
        builds from its own edges on first use.
        """
        # compress copies whole rows, several times faster than a boolean
        # index of the 2-D edge array
        child = Graph._from_sorted(self._n, np.compress(~gone, self._edges, axis=0))
        views = vars(self)
        if "packed_closed" not in views and "degrees" not in views:
            return child
        dels = np.compress(gone, self._edges, axis=0)
        if "packed_closed" in views:
            rows = views["packed_closed"]
            flat = rows.reshape(-1).copy()
            lo, hi = dels[:, 0], dels[:, 1]
            at, cols = np.concatenate((lo, hi)), np.concatenate((hi, lo))
            words, bits = _word_bits(at, cols, rows.shape[1])
            # each deleted bit is distinct and set, so subtracting it clears
            # it with no borrow, about 5x faster than bitwise_and.at
            np.subtract.at(flat, words, bits)
            packed = flat.reshape(rows.shape)
            packed.setflags(write=False)
            vars(child)["packed_closed"] = packed
        if "degrees" in views:
            deg = views["degrees"] - np.bincount(dels.reshape(-1), minlength=self._n)
            deg.setflags(write=False)
            vars(child)["degrees"] = deg
        return child

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and np.array_equal(self._edges, other._edges)

    def __hash__(self) -> int:
        return hash((self._n, self._edges.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self.m})"


# ----------------------------------------------------------- bit layouts --

def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Bool rows of 64 * W columns (the last axis) as rows of W uint64 words
    in the layout of packed_closed: column v is bit v & 63 of word v >> 6."""
    return np.packbits(bits, axis=-1, bitorder="little").view("<u8")


def unpack_rows(rows: np.ndarray, count: int) -> np.ndarray:
    """The first count bits of each packed row (the last axis), as bools."""
    octets = rows.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(octets, axis=-1, count=count, bitorder="little").view(bool)


def vertex_mask(n: int, vs: Iterable[int]) -> int:
    """The subset vs of 0..n-1 as an int bitmask: bit v set iff v in vs."""
    flags = np.zeros(n, dtype=bool)
    flags[list(vs)] = True
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _members(vs: Iterable[int], n: int) -> np.ndarray:
    """Membership flags of the vertex set vs over 0..n-1; a ValueError
    names the first vertex of vs outside that range."""
    vals = list(vs)
    arr = np.asarray(vals) if vals else np.empty(0, dtype=np.int64)
    bad = (arr < 0) | (arr >= n)
    if bad.any():
        raise ValueError(f"vertex {vals[int(np.argmax(bad))]} out of range for n={n}")
    flags = np.zeros(n, dtype=bool)
    flags[arr.astype(np.int64)] = True
    return flags


def mask_to_set(mask: int) -> frozenset[int]:
    """The set bits of mask, one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def transpose_masks(masks: Sequence[int], n: int) -> list[int]:
    """Per bit v < n, the bitmask of the indices j with bit v set in
    masks[j]: the (len(masks) x n) bit matrix transposed, a block of masks
    at a time, each block unpacking at most _BLOCK_WORDS bits."""
    nbytes = (n + 7) // 8
    cols = np.zeros((n, (len(masks) + 7) // 8), dtype=np.uint8)
    step = max(8, _BLOCK_WORDS // n // 8 * 8)
    for a in range(0, len(masks), step):
        block = masks[a : a + step]
        raw = np.frombuffer(b"".join(m.to_bytes(nbytes, "little") for m in block), dtype=np.uint8)
        bits = np.unpackbits(raw.reshape(len(block), nbytes), axis=1, count=n, bitorder="little")
        packed = np.packbits(bits, axis=0, bitorder="little")
        cols[:, a // 8 : a // 8 + len(packed)] = packed.T
    return [int.from_bytes(row.tobytes(), "little") for row in cols]


def row_keys(rows: np.ndarray) -> np.ndarray:
    """Per packed row, a key that exactly the equal rows share: the word of
    a one-word row (ints sort faster than bytes), else the row's bytes."""
    if rows.shape[1] == 1:
        return rows[:, 0]
    return np.ascontiguousarray(rows).view(np.dtype((np.void, 8 * rows.shape[1])))[:, 0]


def row_runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, starts): the row indices in one stable sort of the rows by
    row_keys, so that equal rows form runs with ascending indices, and the
    offset of each run in order, with len(order) appended."""
    keys = row_keys(rows)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    heads = np.concatenate(([len(keys) > 0], keys[1:] != keys[:-1]))
    return order, np.append(np.flatnonzero(heads), len(keys))


def least_equal_rows(rows: np.ndarray) -> Optional[Edge]:
    """The least pair i < j with rows[i] == rows[j], or None: the first two
    members of the run of equal rows whose first member is least."""
    order, starts = row_runs(rows)
    heads = starts[:-1][np.diff(starts) > 1]
    if not len(heads):
        return None
    i = heads[np.argmin(order[heads])]
    return int(order[i]), int(order[i + 1])


# ------------------------------------------------------------ operations ---

def complement(g: Graph) -> Graph:
    """Complement graph: edge uv present iff absent in g."""
    n = g.n
    iu, iv = np.triu_indices(n, 1)
    keep = np.ones(len(iu), dtype=bool)
    u, v = g.edge_array()[:, 0], g.edge_array()[:, 1]
    keep[u * (2 * n - u - 1) // 2 + v - u - 1] = False  # row-major pair index
    return Graph._from_sorted(n, _pairs(iu[keep], iv[keep]))


def least_twins(g: Graph) -> Optional[Edge]:
    """The least pair u < v with N[u] = N[v], or None."""
    return least_equal_rows(g.packed_closed)


def find_twins(g: Graph) -> list[Edge]:
    """All pairs u < v with N[u] = N[v], sorted lexicographically."""
    order, starts = row_runs(g.packed_closed)
    if len(starts) > g.n:  # every run is a single vertex
        return []
    # u pairs with the later members of its run; taking u in order sorts the pairs
    pos = np.argsort(order)
    after = (np.repeat(starts[1:], np.diff(starts)) - np.arange(g.n) - 1)[pos]
    v = order[concat_ranges(pos + 1, after)]
    return list(zip(np.repeat(np.arange(g.n), after).tolist(), v.tolist()))


# per block: words of neighbor rows gathered by _dist2_blocks or rows
# XORed for the exact solver's pair sets, words of rows and unpacked bits
# of _local_balls, or doubles drawn by gnp (2 MiB), and bits, so pairs,
# unpacked by _dist2_blocks
_BLOCK_WORDS = 1 << 18


def concat_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The index ranges [starts[k], starts[k] + lens[k]), concatenated."""
    ends = np.cumsum(lens)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + lens, lens)


def _local_balls(g: Graph, vs: np.ndarray) -> np.ndarray:
    """Per vertex v of vs, its 2-ball in g as a component-local row (the
    layout of local_closed), as a new (len(vs), W) array: the OR of the
    local rows of N[v].

    N[v] is read from the set bits of v's own local row, so no neighbor
    list is built. A block holds at most _BLOCK_WORDS words of unpacked
    bits and gathered rows (at least one vertex's), so the memory beyond
    the graph and the result stays bounded.
    """
    rows = g.local_closed
    members, starts = g.component_order
    W = rows.shape[1]
    base = starts[g.component_ids[vs]]
    out = rows[vs]
    # a vertex's 64 * W unpacked bits take 8 * W words, its rows (d + 1) * W
    cost = np.cumsum((g.degrees[vs] + 9) * W)
    a = 0
    while a < len(vs):
        spent = cost[a - 1] if a else 0
        b = max(a + 1, int(np.searchsorted(cost, spent + _BLOCK_WORDS, side="right")))
        at, col = np.nonzero(unpack_rows(out[a:b], 64 * W))
        hood = rows[members[base[a:b][at] + col]]
        # every row holds its own bit, so no vertex's run is empty
        out[a:b] = np.bitwise_or.reduceat(hood, np.searchsorted(at, np.arange(b - a)))
        a = b
    return out


def _dist2_blocks(g: Graph) -> Iterator[np.ndarray]:
    """dist2_pairs as one (k, 2) int64 array per block of consecutive rows u.

    Row u of a block is the 2-ball of u in the component-local rows: the
    OR of the rows of N[u], whose neighbors the block reads as one slice
    of g's neighbor lists. Its bits above the rank of u are the partners v
    > u, since ranks follow the vertex order inside a component. Only
    s_max columns are unpacked per row, s_max the largest component size;
    graphs of at most 64 vertices keep the global rows, one word either
    way. A block gathers at most _BLOCK_WORDS words of neighbor rows (at
    least one row's) and unpacks at most max(_BLOCK_WORDS, s_max) bits, so
    it holds at most as many pairs and the memory beyond the graph stays
    bounded.
    """
    n = g.n
    if n > 64:
        rows, ranks = g.local_closed, g.ranks
        members, starts = g.component_order
        s_max = int(np.diff(starts).max())
    else:  # one word per row in either layout: skip finding the components
        rows, ranks, starts, s_max = g.packed_closed, np.arange(n), (), n
    spread = len(starts) > 2  # local columns differ from the vertices
    cols = np.arange(s_max)
    indptr, nbrs = g._csr
    step = max(1, _BLOCK_WORDS // max(1, s_max))  # s_max is 0 on the empty graph
    cap = max(1, _BLOCK_WORDS // rows.shape[1])  # neighbor rows per block
    a = 0
    while a < n:
        # rows a..b-1 have at most cap neighbors in all, or b is a + 1
        b = int(np.searchsorted(indptr, indptr[a] + cap, side="right")) - 1
        b = max(a + 1, min(a + step, b))
        reach = rows[a:b].copy()
        busy = np.flatnonzero(g.degrees[a:b])  # reduceat needs nonempty runs
        if len(busy):
            hood = rows[nbrs[indptr[a] : indptr[b]]]
            reach[busy] |= np.bitwise_or.reduceat(hood, indptr[a:b][busy] - indptr[a])
            del hood
        bits = unpack_rows(reach, s_max)
        pu, pv = np.nonzero(bits & (cols > ranks[a:b, None]))  # keep v > u, row-major
        pu += a
        if spread:
            pv = members[starts[g.component_ids[pu]] + pv]
        block = np.stack((pu, pv), axis=1)
        del reach, bits, pu, pv  # not held while the caller reads the block
        yield block
        a = b


def dist2_pairs(g: Graph) -> Iterator[Edge]:
    """Pairs u < v at distance 1 or 2, in ascending lexicographic order."""
    for block in _dist2_blocks(g):
        yield from map(tuple, block.tolist())


def degree_stats(g: Graph) -> tuple[int, int]:
    """(minimum degree, maximum degree)."""
    if g.n < 1:
        raise ValueError("degree_stats needs n >= 1")
    return int(g.degrees.min()), int(g.degrees.max())


# ------------------------------------------------------------- generators --

@dataclass(frozen=True)
class FamilySpec:
    """Parameters naming one generated graph; see generate()."""

    kind: str
    n: int = 0
    p: float = 0.0
    seed: int = 0
    r: int = 0
    s: int = 0
    delta: int = 0
    k: int = 0


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    vs = np.arange(n - 1)
    return Graph(n, _pairs(vs, vs + 1))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    vs = np.arange(n)
    return Graph(n, _pairs(vs, (vs + 1) % n))


def star(leaves: int) -> Graph:
    """Star K_{1,leaves} with the center at vertex 0."""
    if leaves < 1:
        raise ValueError("star needs >= 1 leaf")
    vs = np.arange(1, leaves + 1)
    return Graph(leaves + 1, _pairs(np.zeros_like(vs), vs))


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete needs n >= 1")
    return Graph(n, _pairs(*np.triu_indices(n, 1)))


def complete_bipartite(r: int, s: int) -> Graph:
    """K_{r,s}: left side 0..r-1, right side r..r+s-1."""
    if r < 1 or s < 1:
        raise ValueError("complete_bipartite needs r, s >= 1")
    return Graph(r + s, _pairs(np.repeat(np.arange(r), s), np.tile(np.arange(r, r + s), r)))


def disjoint_cliques(delta: int, k: int) -> Graph:
    """k disjoint cliques of order delta+1 (a (delta)-regular graph)."""
    if delta < 1 or k < 1:
        raise ValueError("disjoint_cliques needs delta, k >= 1")
    size = delta + 1
    iu, iv = np.triu_indices(size, 1)
    base = (np.arange(k) * size)[:, None]
    return Graph(k * size, _pairs((base + iu).ravel(), (base + iv).ravel()))


def connected_cliques(delta: int, k: int) -> Graph:
    """disjoint_cliques plus one edge joining the lowest-index vertices of
    consecutive cliques."""
    g = disjoint_cliques(delta, k)
    size = delta + 1
    firsts = np.arange(k - 1) * size
    return Graph(g.n, np.concatenate((g.edge_array(), _pairs(firsts, firsts + size))))


def gnp(n: int, p: float, seed: int) -> Graph:
    """G(n,p): each pair u < v kept independently with probability p.

    One uniform draw per pair in row-major order (u ascending, then v),
    so a fixed seed reproduces the same graph bit-for-bit. The draws come
    from the one generator at most _BLOCK_WORDS at a time, which gives the
    same doubles as one call.
    """
    if n < 1:
        raise ValueError("gnp needs n >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("gnp needs 0 <= p <= 1")
    rng = np.random.default_rng(seed)
    pairs = n * (n - 1) // 2
    hits = np.concatenate([
        start + np.flatnonzero(rng.random(min(_BLOCK_WORDS, pairs - start)) < p)
        for start in range(0, pairs + 1, _BLOCK_WORDS)
    ])
    vs = np.arange(n)
    row_start = vs * (2 * n - vs - 1) // 2  # index of the pair (u, u + 1)
    u = np.searchsorted(row_start, hits, side="right") - 1
    return Graph._from_sorted(n, _pairs(u, hits - row_start[u] + u + 1))


_FAMILY_BUILDERS = {
    "path": lambda s: path(s.n),
    "cycle": lambda s: cycle(s.n),
    "star": lambda s: star(s.s),
    "complete": lambda s: complete(s.n),
    "complete_bipartite": lambda s: complete_bipartite(s.r, s.s),
    "disjoint_cliques": lambda s: disjoint_cliques(s.delta, s.k),
    "connected_cliques": lambda s: connected_cliques(s.delta, s.k),
    "gnp": lambda s: gnp(s.n, s.p, s.seed),
}


def generate(spec: FamilySpec) -> Graph:
    """Build the graph described by a FamilySpec."""
    try:
        builder = _FAMILY_BUILDERS[spec.kind]
    except KeyError:
        raise ValueError(f"unknown family kind {spec.kind!r}") from None
    return builder(spec)


# ------------------------------------------------------------ file formats -

def edge_lines(edges, line: str = "%d %d\n") -> str:
    """line % (u, v) per edge of edges, an (m, 2) int array or a sequence
    of pairs, in order: one template over the flattened pairs (chained,
    not passed through numpy, for a sequence)."""
    chain = itertools.chain.from_iterable
    flat = edges.ravel().tolist() if isinstance(edges, np.ndarray) else chain(edges)
    return (line * len(edges)) % tuple(flat)


def write_edge_list(g: Graph) -> str:
    """Edge-list text: first line "n m", then one "u v" line per edge."""
    return f"{g.n} {g.m}\n" + edge_lines(g.edge_array())


# longest run of decimal digits whose value always fits in int64
_SHORT_DIGITS = 18


# characters per line-aligned block of parse_edge_list (128 KiB of ASCII
# text); a block grows past this only to hold a longer line
_BLOCK_CHARS = 1 << 17


def _classes(cp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(word, brk): per ASCII byte, whether str.split() keeps it in a
    token and whether str.splitlines() ends a line at it, by comparisons
    that wrap below 0 in uint8."""
    word = (cp > 32) | (cp < 9) | (cp - 14 < 14)
    return word, (cp - 10 < 4) | (cp - 28 < 3)


def _token_bounds(word: np.ndarray) -> np.ndarray:
    """ts[0], te[0], ts[1], te[1], ...: the starts and ends of the maximal
    runs of word characters, interleaved."""
    pad = np.zeros(len(word) + 2, dtype=bool)
    pad[1:-1] = word
    return np.flatnonzero(pad[1:] != pad[:-1])


def _token_values(cp, word, ts, te, text: str, start: int, out: np.ndarray) -> bool:
    """Reads the tokens cp[ts[i]:te[i]], that is
    text[start + ts[i] : start + te[i]], into out as int() reads them,
    clamped to [-1, 2**62]; False if int() fails on one. word flags the
    word characters of cp.

    Tokens of at most 18 digits are converted in right-aligned gathers,
    one per digit position over all tokens at once; any other token (sign,
    underscores, long runs, junk) goes through int() itself.
    """
    digit = cp - 48  # unsigned, so characters below "0" wrap to large values
    isdig = digit <= 9
    # shifted[j + 1] is the digit at j, 0 at any other character; the
    # character before a token is no digit, so shifted[ts[i]] is 0
    shifted = np.zeros(len(cp) + 1, dtype=np.uint8)
    np.multiply(digit, isdig, out=shifted[1:], casting="unsafe")
    length = te - ts
    plain = length <= _SHORT_DIGITS
    odd = np.flatnonzero(word & ~isdig)  # word characters other than digits
    if len(odd):
        plain &= np.searchsorted(odd, ts) == np.searchsorted(odd, te)
    out[:] = 0
    pos = te.copy()  # the k-th digit from the right, or the 0 before the token
    for k in range(min(int(length.max(initial=0)), _SHORT_DIGITS)):
        np.maximum(pos, ts, out=pos)
        out += shifted.take(pos) * np.int64(10**k)
        pos -= 1
    for i in np.flatnonzero(~plain).tolist():
        try:
            out[i] = min(max(int(text[start + ts[i] : start + te[i]]), -1), 1 << 62)
        except ValueError:
            return False
    return True


def _line_blocks(cp: np.ndarray) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """(start, block, word, brk) per block = cp[start:start + len(block)],
    with the _classes flags of its characters; every block but the last
    ends just after a line boundary, so no line straddles two blocks."""
    start, size = 0, _BLOCK_CHARS
    while start < len(cp):
        block = cp[start : start + size]
        word, brk = _classes(block)
        if start + size < len(cp):
            back = int(np.argmax(brk[::-1]))  # characters after the last boundary
            if not brk[-1 - back]:  # no boundary at all: widen the block
                size *= 2
                continue
            end = len(block) - back
            block, word, brk = block[:end], word[:end], brk[:end]
        yield start, block, word, brk
        start, size = start + len(block), _BLOCK_CHARS


def _read_rows(cp: np.ndarray, text: str):
    """(n, rows) of a well-formed edge list, or None as soon as a check
    fails.

    Well-formed: every non-blank line holds two tokens, so the token count
    is even and a line boundary lies between tokens 2k + 1 and 2k + 2 but
    never between 2k and 2k + 1; every token reads as an integer; the
    header n m has 0 <= n <= MAX_VERTICES and m >= 0 and is followed by m
    lines u v with 0 <= u < v < n.
    """
    rows = None
    filled = 0
    for start, block, word, brk in _line_blocks(cp):
        bounds = _token_bounds(word)
        if len(bounds) % 4:
            return None
        if not len(bounds):
            continue
        ts, te = bounds[0::2], bounds[1::2]
        # gap k: whether a line boundary lies between tokens k and k + 1;
        # its first character decides, unless the gap is wider
        gap = brk[te[:-1]]
        wide = np.flatnonzero(ts[1:] - te[:-1] > 1)
        if len(wide):
            rest = np.stack((te[wide] + 1, ts[wide + 1]), axis=1).reshape(-1)
            gap[wide] |= np.logical_or.reduceat(brk, rest)[::2]
        if gap[0::2].any() or not gap[1::2].all():
            return None
        if rows is None:  # the first tokens are the header
            try:
                n, m = (int(text[start + ts[i] : start + te[i]]) for i in (0, 1))
            except ValueError:
                return None
            # an edge line takes at least 4 characters
            if not (0 <= n <= MAX_VERTICES and 0 <= 4 * m <= len(cp)):
                return None
            rows = np.empty((m, 2), dtype=np.int64)
            ts, te = ts[2:], te[2:]
        if filled + len(ts) > 2 * m:
            return None
        flat = rows.reshape(-1)[filled : filled + len(ts)]
        filled += len(ts)
        if not _token_values(block, word, ts, te, text, start, flat):
            return None
        u, v = flat[0::2], flat[1::2]
        if len(flat) and (u.min() < 0 or v.max() >= n or not (u < v).all()):
            return None
    if rows is None or filled != 2 * m:
        return None
    return n, rows


def _graph(n: int, rows) -> Graph:
    """Graph(n, rows), which sorts the rows unless they are sorted and
    reports duplicates, with its ValueError raised as a FormatError."""
    try:
        return Graph(n, rows)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _parse_lines(text: str) -> Graph:
    """parse_edge_list line by line, raising the FormatError of the first
    bad line."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FormatError(f"bad header {lines[0]!r}") from exc
    if n < 0 or m < 0:
        raise FormatError("negative n or m")
    if len(lines) - 1 != m:
        raise FormatError(f"header says {m} edges, found {len(lines) - 1}")
    rows = []
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"line {i}: expected 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"line {i}: non-integer endpoint") from exc
        if not 0 <= u < v < n:
            raise FormatError(f"line {i}: need 0 <= u < v < n, got {u} {v}")
        rows.append((u, v))
    return _graph(n, rows)


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format; raises FormatError on any violation.

    Blank lines are skipped, lines and tokens split as str.splitlines() and
    str.split() split them, and endpoints are read as int() reads them.
    Line numbers in messages count the non-blank lines.

    ASCII text is read in one tokenising pass over line-aligned blocks of
    _BLOCK_CHARS characters, so the temporaries beyond the text and the
    rows stay bounded: the line shape is read from the gaps between
    tokens, runs of at most 18 digits are converted in array passes
    (int() sees only the other tokens), and the checked rows go straight
    to Graph, which keeps them as they are when they come out sorted.
    Other text, and text that fails a check of that pass, is read by a
    plain walk over its lines, which reports the first bad one.
    """
    if text.isascii():
        found = _read_rows(np.frombuffer(text.encode("ascii"), dtype=np.uint8), text)
        if found is not None:
            return _graph(*found)
    return _parse_lines(text)


def to_dot(g: Graph) -> str:
    """DOT text for visualization (undirected, default attributes)."""
    vertices = "".join(f"  {v};\n" for v in range(g.n))
    return "graph G {\n" + vertices + edge_lines(g.edge_array(), "  %d -- %d;\n") + "}\n"

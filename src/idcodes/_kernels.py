"""The numpy kernels of the greedy solvers.

Graphs store closed neighborhoods as rows of uint64 words (bit w of word
w >> 6 in row v is set iff w is in N[v]). `greedy_cover` is the greedy
max-coverage pick loop of the dominating set, and
`greedy_cover_segments` the same loop over many components at once, for
the sparsify rounds and the dominating set of a graph of several
components. `separator_counts` scores every vertex for one pick of the
greedy identifying code from the sizes |S & N[w]| of the current
signature classes S inside each closed neighborhood N[w], given per
cell (w, S) on sparse graphs or as a (classes x n) table on dense ones.

They live in a module of their own, apart from the solvers that call
them, because the benchmark tracer looks both up here by name
(`idcodes._kernels.greedy_cover`, `idcodes._kernels.separator_counts`)
to time them as their own layer.
"""

from __future__ import annotations

import numpy as np

from .graphs import pack_rows


def separator_counts(
    counts: np.ndarray,
    owner: np.ndarray | None,
    klass: np.ndarray | None,
    sizes: np.ndarray,
    n: int,
) -> np.ndarray:
    """For each vertex w < n, the still-unseparated pairs that w separates.

    The vertices are partitioned into classes, class k of sizes[k]
    vertices: a pair is unseparated while both ends share a class. w
    separates the pairs of a class S that have exactly one end in N[w],
    so its count is the sum over the classes of
    |S & N[w]| * (|S| - |S & N[w]|). The counts |S & N[w]| come in one of
    two forms:

    - cells: cell c is the part of class klass[c] inside N[owner[c]] and
      holds counts[c] vertices, at most one cell per (vertex, class).
      Empty cells and cells of one-vertex classes add 0 and may be left
      out or kept. One weighted bincount over the cell owners gives every
      count (exact while the counts stay below 2**53); nothing is sorted.
    - a table: counts is a (classes, n) integer array whose row k holds
      |S_k & N[w]| for every w, owner and klass are None. The products
      are taken in int32 while n < 2**15 and in int64 above, and summed
      over the rows.
    """
    if owner is None:
        wide = np.int32 if n < 1 << 15 else np.int64
        pairs = np.subtract(sizes[:, None], counts, dtype=wide)
        np.multiply(pairs, counts, out=pairs)
        return pairs.sum(axis=0, dtype=np.int64)
    pairs = sizes[klass]  # a fresh array, updated in place
    pairs -= counts
    pairs *= counts
    return np.bincount(owner, weights=pairs, minlength=n).astype(np.int64)


def greedy_cover(closed: np.ndarray, n: int) -> np.ndarray:
    """Greedy max-coverage over closed neighborhoods.

    Repeatedly picks the vertex covering the most still-uncovered
    vertices (ties go to the lowest index) until all n are covered.
    Returns the picks in selection order. This is greedy_cover_segments
    with one segment, in a loop of its own: with a single segment it needs
    no per-segment reductions, which would double its cost per pick.
    """
    uncovered = pack_rows(np.arange(64 * closed.shape[1]) < n)
    picks = []
    remaining = n
    while remaining > 0:
        gains = np.bitwise_count(closed & uncovered[None, :]).sum(axis=1)
        best = int(np.argmax(gains))  # argmax takes the first max: lowest index
        g = int(gains[best])
        uncovered &= ~closed[best]
        remaining -= g
        picks.append(best)
    return np.asarray(picks, dtype=np.int64)


def greedy_cover_segments(rows: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Greedy max-coverage in many independent segments at once.

    The rows come in consecutive segments of sizes[k] > 0 rows, and the
    bits of a segment's rows lie below sizes[k]. Every segment repeatedly
    picks its row covering the most of its still-uncovered columns (ties
    go to the lowest row) until all its sizes[k] columns are covered; the
    segments step together. Returns the picked row positions, step by
    step and segment by segment within a step.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    seg = np.repeat(np.arange(len(sizes)), sizes)
    uncovered = pack_rows(np.arange(64 * rows.shape[1]) < sizes[:, None])
    remaining = sizes.copy()
    # one key per row, gain * N + (N - 1 - row): a segment's largest key
    # is its best gain at its lowest row
    N = len(rows)
    tie = np.arange(N - 1, -1, -1)
    picks = []
    while remaining.any():
        gains = np.bitwise_count(rows & uncovered[seg]).sum(axis=1, dtype=np.int64)
        gain, low = np.divmod(np.maximum.reduceat(gains * N + tie, starts), N)
        live = gain > 0
        best = N - 1 - low[live]
        uncovered[live] &= ~rows[best]
        remaining -= gain
        picks.append(best)
    return np.concatenate(picks) if picks else np.empty(0, dtype=np.int64)


"""The two numpy kernels of the greedy solvers.

Graphs store closed neighborhoods as rows of uint64 words (bit w of word
w >> 6 in row v is set iff w is in N[v]). `greedy_cover` is the greedy
max-coverage pick loop of the dominating set; `separator_counts` gives
the per-pick separator counts of the greedy identifying code.

They live in a module of their own, apart from the solvers that call
them, because the benchmark tracer looks both up here by name
(`idcodes._kernels.greedy_cover`, `idcodes._kernels.separator_counts`)
to time them as their own layer.
"""

from __future__ import annotations

import numpy as np

_ONE = np.uint64(1)


def separator_counts(
    label: np.ndarray, xs: np.ndarray, ws: np.ndarray, n: int
) -> np.ndarray:
    """For each vertex w < n, the still-unseparated pairs that w separates.

    `label` partitions the vertices: a pair is unseparated while both ends
    share a label. `xs`, `ws` list the closed-neighborhood incidence, one
    entry (x, w) per w in N[x]; entries may be left out only for vertices
    x alone in their class. w separates the pairs of a class S that have
    exactly one end in N[w], so its count is the sum over S of
    |S & N[w]| * |S - N[w]|. The (w, class) counts are taken sparsely, by
    sorting the keys w * K + label[x] (K labels), never as a dense n-by-K
    table.
    """
    out = np.zeros(n, dtype=np.int64)
    sizes = np.bincount(label, minlength=1)
    lab = label[xs]
    keep = sizes[lab] >= 2
    k = len(sizes)
    keys, inside = np.unique(ws[keep] * k + lab[keep], return_counts=True)
    if len(keys) == 0:
        return out
    w = keys // k
    pairs = inside * (sizes[keys % k] - inside)
    starts = np.flatnonzero(np.concatenate(([True], w[1:] != w[:-1])))
    out[w[starts]] = np.add.reduceat(pairs, starts)
    return out


def greedy_cover(closed: np.ndarray, n: int) -> np.ndarray:
    """Greedy max-coverage over closed neighborhoods.

    Repeatedly picks the vertex covering the most still-uncovered
    vertices (ties go to the lowest index) until all n are covered.
    Returns the picks in selection order.
    """
    W = closed.shape[1]
    uncovered = _full_bitset(n, W)
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


def _full_bitset(n: int, W: int) -> np.ndarray:
    """All-ones bitset over n vertices packed into W words."""
    words = np.full(W, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    tail = n & 63
    if tail:
        words[W - 1] = (_ONE << np.uint64(tail)) - _ONE
    return words

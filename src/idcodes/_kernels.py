"""Hot array kernels over bit-packed vertex sets.

Graphs store closed neighborhoods as rows of uint64 words (bit w of word
w >> 6 in row v is set iff w is in N[v]).  The kernels below do the
inner-loop work: popcounts, greedy max-coverage selection, batched
signature comparisons, and the per-pick separator counts of the greedy
identifying code.  Each kernel but the last has a numba build and a
pure-numpy build; the active backend is chosen once at import time:

    IDCODES_BACKEND=numpy   force the numpy fallback
    IDCODES_BACKEND=numba   require numba (ImportError if missing)

unset -> numba when importable, numpy otherwise.  Both builds stay
importable under their _numpy/_numba names for the benchmark suite and
parity tests.
"""

from __future__ import annotations

import os

import numpy as np

_ENV = os.environ.get("IDCODES_BACKEND", "").strip().lower()

try:
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised via IDCODES_BACKEND=numpy
    njit = None
    NUMBA_AVAILABLE = False

if _ENV == "numba" and not NUMBA_AVAILABLE:  # pragma: no cover
    raise ImportError("IDCODES_BACKEND=numba but numba is not importable")

USE_NUMBA = NUMBA_AVAILABLE and _ENV != "numpy"
BACKEND = "numba" if USE_NUMBA else "numpy"

_ONE = np.uint64(1)


# ---------------------------------------------------------------- numpy ----

def row_popcounts_numpy(rows: np.ndarray) -> np.ndarray:
    """Number of set bits per row of a (m, W) uint64 array."""
    return np.bitwise_count(rows).sum(axis=1, dtype=np.int64)


def pairs_equal_rows_numpy(rows: np.ndarray, pu: np.ndarray, pv: np.ndarray) -> np.ndarray:
    """Boolean mask: rows[pu[i]] == rows[pv[i]] for each pair i."""
    if len(pu) == 0:
        return np.zeros(0, dtype=np.bool_)
    return (rows[pu] == rows[pv]).all(axis=1)


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


def greedy_cover_numpy(closed: np.ndarray, n: int) -> np.ndarray:
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


# ---------------------------------------------------------------- numba ----

if NUMBA_AVAILABLE:
    _M1 = np.uint64(0x5555555555555555)
    _M2 = np.uint64(0x3333333333333333)
    _M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    _H01 = np.uint64(0x0101010101010101)
    _U1 = np.uint64(1)

    @njit(cache=True)
    def _popcount64(x):
        x = x - ((x >> _U1) & _M1)
        x = (x & _M2) + ((x >> np.uint64(2)) & _M2)
        x = (x + (x >> np.uint64(4))) & _M4
        return (x * _H01) >> np.uint64(56)

    @njit(cache=True)
    def row_popcounts_numba(rows):
        m, W = rows.shape
        out = np.zeros(m, dtype=np.int64)
        for i in range(m):
            acc = np.uint64(0)
            for j in range(W):
                acc += _popcount64(rows[i, j])
            out[i] = np.int64(acc)
        return out

    @njit(cache=True)
    def pairs_equal_rows_numba(rows, pu, pv):
        m = len(pu)
        W = rows.shape[1]
        out = np.zeros(m, dtype=np.bool_)
        for i in range(m):
            eq = True
            for j in range(W):
                if rows[pu[i], j] != rows[pv[i], j]:
                    eq = False
                    break
            out[i] = eq
        return out

    @njit(cache=True)
    def greedy_cover_numba(closed, n):
        W = closed.shape[1]
        uncovered = np.empty(W, dtype=np.uint64)
        for j in range(W):
            uncovered[j] = np.uint64(0xFFFFFFFFFFFFFFFF)
        tail = n & 63
        if tail:
            uncovered[W - 1] = (_U1 << np.uint64(tail)) - _U1
        picks = np.empty(n, dtype=np.int64)
        npicks = 0
        remaining = n
        while remaining > 0:
            best = -1
            best_gain = np.int64(0)
            for v in range(n):
                g = np.int64(0)
                for j in range(W):
                    g += np.int64(_popcount64(closed[v, j] & uncovered[j]))
                if g > best_gain:
                    best_gain = g
                    best = v
            for j in range(W):
                uncovered[j] &= ~closed[best, j]
            remaining -= int(best_gain)
            picks[npicks] = best
            npicks += 1
        return picks[:npicks]


if USE_NUMBA:
    row_popcounts = row_popcounts_numba
    pairs_equal_rows = pairs_equal_rows_numba
    greedy_cover = greedy_cover_numba
else:
    row_popcounts = row_popcounts_numpy
    pairs_equal_rows = pairs_equal_rows_numpy
    greedy_cover = greedy_cover_numpy

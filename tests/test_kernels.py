import os
import subprocess
import sys

import numpy as np
import pytest

from idcodes import _kernels, gnp
from idcodes._kernels import (
    NUMBA_AVAILABLE,
    greedy_cover_numpy,
    pairs_equal_rows_numpy,
    row_popcounts_numpy,
    separator_counts,
)

from oracles import oracle_greedy_cover

needs_numba = pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")


def random_rows(m, n, seed):
    rng = np.random.default_rng(seed)
    W = max(1, (n + 63) >> 6)
    rows = rng.integers(0, 2**64, size=(m, W), dtype=np.uint64)
    tail = n & 63
    if tail:
        rows[:, -1] &= np.uint64((1 << tail) - 1)
    return rows


def test_row_popcounts_against_python_ints():
    rows = random_rows(50, 130, 0)
    got = row_popcounts_numpy(rows)
    for i in range(50):
        val = sum(int(w).bit_count() for w in rows[i])
        assert got[i] == val


def test_pairs_equal_rows_numpy_basics():
    rows = random_rows(6, 70, 1)
    rows[3] = rows[0]
    pu = np.array([0, 0, 1], dtype=np.int64)
    pv = np.array([3, 1, 2], dtype=np.int64)
    got = pairs_equal_rows_numpy(rows, pu, pv)
    assert got.tolist() == [True, False, False]
    assert pairs_equal_rows_numpy(rows, pu[:0], pv[:0]).shape == (0,)


def closed_incidence(g):
    """(xs, ws): one entry (x, w) per w in N[x]."""
    pairs = [(x, w) for x in range(g.n) for w in g.closed_neighborhood(x)]
    xs, ws = np.array(pairs, dtype=np.int64).T
    return xs, ws


def test_separator_counts_against_naive():
    rng = np.random.default_rng(2)
    for seed in range(8):
        g = gnp(int(rng.integers(5, 40)), float(rng.uniform(0.05, 0.6)), seed)
        n = g.n
        label = rng.integers(0, int(rng.integers(1, n + 1)), size=n)
        label = np.unique(label, return_inverse=True)[1]  # compact labels
        xs, ws = closed_incidence(g)
        got = separator_counts(label, xs, ws, n)
        unsep = [(u, v) for u in range(n) for v in range(u + 1, n) if label[u] == label[v]]
        for w in range(n):
            nw = g.closed_neighborhood(w)
            naive = sum(1 for u, v in unsep if (u in nw) != (v in nw))
            assert got[w] == naive, (seed, w)
        # entries of vertices alone in their class change nothing
        alone = np.bincount(label)[label] == 1
        keep = ~alone[xs]
        assert np.array_equal(separator_counts(label, xs[keep], ws[keep], n), got)
    assert not separator_counts(np.arange(5), *closed_incidence(gnp(5, 0.5, 0)), 5).any()


def test_greedy_cover_matches_python_oracle():
    for seed in range(6):
        g = gnp(40, 0.15, seed)
        picks = greedy_cover_numpy(g.packed_closed, g.n)
        assert picks.tolist() == oracle_greedy_cover(g.n, g.edges())


@needs_numba
def test_numba_parity_popcounts_and_equality():
    from idcodes._kernels import pairs_equal_rows_numba, row_popcounts_numba

    for seed in range(4):
        rows = random_rows(64, 150, seed)
        assert np.array_equal(row_popcounts_numba(rows), row_popcounts_numpy(rows))
        rng = np.random.default_rng(seed)
        pu = rng.integers(0, 64, size=200).astype(np.int64)
        pv = rng.integers(0, 64, size=200).astype(np.int64)
        rows[10] = rows[20]
        assert np.array_equal(
            pairs_equal_rows_numba(rows, pu, pv),
            pairs_equal_rows_numpy(rows, pu, pv),
        )


@needs_numba
def test_numba_parity_greedy_cover():
    from idcodes._kernels import greedy_cover_numba

    for seed in range(4):
        g = gnp(50, 0.12, seed)
        assert np.array_equal(
            greedy_cover_numba(g.packed_closed, g.n),
            greedy_cover_numpy(g.packed_closed, g.n),
        )


def _backend_in_subprocess(value):
    env = dict(os.environ)
    if value is None:
        env.pop("IDCODES_BACKEND", None)
    else:
        env["IDCODES_BACKEND"] = value
    out = subprocess.run(
        [sys.executable, "-c", "import idcodes; print(idcodes.BACKEND)"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_backend_env_dispatch():
    assert _backend_in_subprocess("numpy") == "numpy"
    if NUMBA_AVAILABLE:
        assert _backend_in_subprocess("numba") == "numba"
        assert _backend_in_subprocess(None) == "numba"


@needs_numba
def test_backends_agree_end_to_end():
    script = (
        "from idcodes import disjoint_cliques, sparsify, SparsifyParams, greedy_idcode, gnp\n"
        "res = sparsify(disjoint_cliques(7, 8), SparsifyParams(c=2.0, seed=4))\n"
        "print(sorted(res.deleted_edges))\n"
        "print(sorted(res.final_code))\n"
        "print(res.retries_used)\n"
        "print(sorted(greedy_idcode(gnp(30, 0.3, 1))))\n"
    )
    outs = {}
    for backend in ("numpy", "numba"):
        env = dict(os.environ, IDCODES_BACKEND=backend)
        r = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert r.returncode == 0, r.stderr
        outs[backend] = r.stdout
    assert outs["numpy"] == outs["numba"]
    assert _kernels.BACKEND in ("numpy", "numba")

import numpy as np

from idcodes import gnp
from idcodes._kernels import greedy_cover, separator_counts

from oracles import oracle_greedy_cover


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
        picks = greedy_cover(g.packed_closed, g.n)
        assert picks.tolist() == oracle_greedy_cover(g.n, g.edges())

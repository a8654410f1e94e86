import numpy as np

from idcodes import gnp
from idcodes._kernels import greedy_cover, greedy_cover_segments, separator_counts

from corpus import mixed_graph
from oracles import oracle_greedy_cover


def closed_incidence(g):
    """(xs, ws): one entry (x, w) per w in N[x]."""
    pairs = [(x, w) for x in range(g.n) for w in g.closed_neighborhood(x)]
    xs, ws = np.array(pairs, dtype=np.int64).T
    return xs, ws


def cells(xs, ws, label):
    """(counts, owner, klass) of the cells over the incidence entries
    (x, w): one cell per (w, label[x]), counting its entries."""
    k = int(label.max()) + 1
    keys, counts = np.unique(ws * k + label[xs], return_counts=True)
    return counts, keys // k, keys % k


def test_separator_counts_against_naive():
    rng = np.random.default_rng(2)
    for seed in range(8):
        g = gnp(int(rng.integers(5, 40)), float(rng.uniform(0.05, 0.6)), seed)
        n = g.n
        label = rng.integers(0, int(rng.integers(1, n + 1)), size=n)
        label = np.unique(label, return_inverse=True)[1]  # compact labels
        sizes = np.bincount(label)
        xs, ws = closed_incidence(g)
        got = separator_counts(*cells(xs, ws, label), sizes, n)
        unsep = [(u, v) for u in range(n) for v in range(u + 1, n) if label[u] == label[v]]
        for w in range(n):
            nw = g.closed_neighborhood(w)
            naive = sum(1 for u, v in unsep if (u in nw) != (v in nw))
            assert got[w] == naive, (seed, w)
        # entries of vertices alone in their class change nothing
        alone = sizes[label] == 1
        keep = ~alone[xs]
        assert np.array_equal(separator_counts(*cells(xs[keep], ws[keep], label), sizes, n), got)
    label = np.arange(5)
    xs, ws = closed_incidence(gnp(5, 0.5, 0))
    assert not separator_counts(*cells(xs, ws, label), np.ones(5, dtype=np.int64), 5).any()


def test_separator_counts_table_matches_cells():
    # the (classes x n) table form scores like the per-cell form, in int16
    # or int32 counts, with or without the one-vertex classes' rows
    rng = np.random.default_rng(5)
    for seed in range(8):
        g = gnp(int(rng.integers(5, 40)), float(rng.uniform(0.05, 0.9)), seed)
        n = g.n
        label = np.unique(rng.integers(0, int(rng.integers(1, n + 1)), size=n), return_inverse=True)[1]
        sizes = np.bincount(label)
        xs, ws = closed_incidence(g)
        want = separator_counts(*cells(xs, ws, label), sizes, n)
        table = np.zeros((len(sizes), n), dtype=np.int64)
        np.add.at(table, (label[xs], ws), 1)
        for dtype in (np.int16, np.int32):
            got = separator_counts(table.astype(dtype), None, None, sizes, n)
            assert got.dtype == np.int64 and np.array_equal(got, want), seed
        big = sizes > 1
        assert np.array_equal(separator_counts(table[big], None, None, sizes[big], n), want)


def test_greedy_cover_matches_python_oracle():
    for seed in range(6):
        g = gnp(40, 0.15, seed)
        picks = greedy_cover(g.packed_closed, g.n)
        assert picks.tolist() == oracle_greedy_cover(g.n, g.edges())


def test_greedy_cover_segments_step_every_component_like_the_oracle():
    # one segment per component over the component-local rows; segment k
    # makes the oracle's picks on its own component, step by step
    for seed in range(3):
        g = mixed_graph((1, 2, 9, 64, 65, 70), (1.0, 1.0, 0.5, 0.1, 0.2, 0.05), seed)
        members, starts = g.component_order
        sizes = np.diff(starts)
        got = greedy_cover_segments(g.local_closed[members], sizes).tolist()
        rank = g.ranks
        per_comp = []
        for k, comp in enumerate(g.components):
            inside = set(comp)
            edges = [(rank[u], rank[v]) for u, v in g.edges() if u in inside]
            per_comp.append([starts[k] + v for v in oracle_greedy_cover(len(comp), edges)])
        expected = [
            picks[t]
            for t in range(max(map(len, per_comp)))
            for picks in per_comp
            if t < len(picks)
        ]
        assert got == expected, seed

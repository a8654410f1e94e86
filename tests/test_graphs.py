import tracemalloc

import numpy as np
import pytest

from idcodes import (
    FamilySpec,
    FormatError,
    Graph,
    complement,
    complete,
    complete_bipartite,
    connected_cliques,
    cycle,
    degree_stats,
    disjoint_cliques,
    dist2_pairs,
    find_twins,
    generate,
    gnp,
    least_twins,
    parse_edge_list,
    path,
    star,
    to_dot,
    write_edge_list,
)
from idcodes import graphs as graphs_mod

from corpus import mixed_graph, small_corpus
from oracles import oracle_complement_edges, oracle_dist2_pairs, oracle_gnp_edges, oracle_twins


def test_graph_basics():
    g = Graph(4, [(0, 1), (2, 1), (2, 3)])
    assert g.n == 4 and g.m == 3
    assert g.edges() == ((0, 1), (1, 2), (2, 3))
    assert g.neighbors(1) == {0, 2}
    assert g.closed_neighborhood(1) == {0, 1, 2}
    assert g.degree(0) == 1 and g.degree(2) == 2
    assert g.has_edge(1, 0) and not g.has_edge(0, 3)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_graph_equality_and_hash():
    a = Graph(3, [(0, 1)])
    b = Graph(3, [(1, 0)])
    c = Graph(3, [(0, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != Graph(4, [(0, 1)])
    # another type is left to its own comparison, so the graph is unequal
    assert a.__eq__((3, [(0, 1)])) is NotImplemented and a != (3, [(0, 1)])


def test_delete_edges():
    g = cycle(4)
    h = g.delete_edges([(3, 0)])
    assert h.edges() == ((0, 1), (1, 2), (2, 3))
    assert g.m == 4, "delete_edges must not mutate the original"
    with pytest.raises(ValueError):
        g.delete_edges([(0, 2)])


def test_generators_exact_edge_sets():
    assert path(1).n == 1 and path(1).m == 0
    assert path(4).edges() == ((0, 1), (1, 2), (2, 3))
    assert cycle(3).edges() == ((0, 1), (0, 2), (1, 2))
    assert cycle(5).edges() == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
    assert star(3).edges() == ((0, 1), (0, 2), (0, 3))
    assert complete(4).m == 6
    assert complete_bipartite(2, 3).edges() == (
        (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
    )
    g = disjoint_cliques(2, 2)
    assert g.n == 6 and g.edges() == ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5))
    h = connected_cliques(2, 2)
    assert h.m == g.m + 1 and h.has_edge(0, 3)
    for make, args in (
        (path, (0,)),
        (star, (0,)),
        (complete, (0,)),
        (complete_bipartite, (0, 1)),
        (disjoint_cliques, (0, 1)),
    ):
        with pytest.raises(ValueError, match=f"^{make.__name__} needs"):
            make(*args)


def test_components():
    g = disjoint_cliques(2, 2)
    assert g.components == ((0, 1, 2), (3, 4, 5))
    assert connected_cliques(2, 2).components == ((0, 1, 2, 3, 4, 5),)
    lone = Graph(3, [(1, 2)])
    assert lone.components == ((0,), (1, 2))


def test_complement_matches_oracle():
    for name, g in list(small_corpus())[::25]:
        gbar = complement(g)
        assert gbar.n == g.n
        assert list(gbar.edges()) == oracle_complement_edges(g.n, g.edges()), name
    assert complement(complete(5)).m == 0
    assert complement(path(4)).edges() == ((0, 2), (0, 3), (1, 3))


def test_find_twins_matches_oracle():
    assert find_twins(complete(4)) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert find_twins(cycle(4)) == []
    assert find_twins(path(3)) == []
    assert find_twins(Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])) == [(0, 1)]
    for name, g in list(small_corpus())[::7]:
        assert find_twins(g) == oracle_twins(g.n, g.edges()), name


def test_find_twins_matches_oracle_on_multiword_rows():
    # twin classes of several sizes whose members straddle words
    for name, g in (
        ("cliques", disjoint_cliques(3, 30)),
        ("mixed", mixed_graph((40, 9, 30, 2), (0.3, 1.0, 0.9, 1.0), 6)),
    ):
        assert g.packed_closed.shape[1] > 1, name
        twins = find_twins(g)
        assert twins and twins == oracle_twins(g.n, g.edges()), name


def test_least_twins_is_the_first_twin_pair():
    graphs = list(small_corpus()) + [
        ("cliques", disjoint_cliques(31, 8)),
        ("mixed", mixed_graph((40, 9, 30, 2), (0.3, 1.0, 0.9, 1.0), 6)),
    ]
    assert graphs[-1][1].packed_closed.shape[1] > 1
    for name, g in graphs:
        twins = find_twins(g)
        assert least_twins(g) == (twins[0] if twins else None), name


def test_dist2_pairs_matches_oracle():
    assert list(dist2_pairs(path(4))) == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    assert list(dist2_pairs(disjoint_cliques(1, 2))) == [(0, 1), (2, 3)]
    for name, g in list(small_corpus())[::7]:
        assert list(dist2_pairs(g)) == oracle_dist2_pairs(g.n, g.edges()), name


def test_degree_stats():
    assert degree_stats(star(4)) == (1, 4)
    assert degree_stats(cycle(5)) == (2, 2)
    assert degree_stats(Graph(2)) == (0, 0)
    with pytest.raises(ValueError):
        degree_stats(Graph(0))


def test_packed_closed_popcounts():
    g = gnp(70, 0.3, 5)
    rows = g.packed_closed
    assert rows.shape == (70, 2) and rows.dtype == np.uint64
    pops = np.bitwise_count(rows).sum(axis=1)
    for v in range(g.n):
        assert pops[v] == g.degree(v) + 1
    with pytest.raises(ValueError):
        rows[0, 0] = 0


def test_closed_masks():
    g = path(3)
    assert g.closed_masks == (0b011, 0b111, 0b110)


def test_gnp_determinism_and_density():
    a = gnp(30, 0.2, 9)
    assert a == gnp(30, 0.2, 9)
    assert a != gnp(30, 0.2, 10)
    assert gnp(50, 0.0, 1).m == 0
    assert gnp(50, 1.0, 1).m == 50 * 49 // 2
    ms = [gnp(40, 0.25, s).m for s in range(30)]
    mean = sum(ms) / len(ms)
    assert abs(mean - 0.25 * 780) < 40


@pytest.mark.parametrize("block", [1, 7, 64])
def test_gnp_blocks_match_the_one_shot_draw(monkeypatch, block):
    # blocks of 7 or 64 uniforms split rows of the pair order
    monkeypatch.setattr(graphs_mod, "_BLOCK_WORDS", block)
    for n, p, seed in [(1, 0.5, 0), (2, 0.5, 1), (37, 0.3, 2), (50, 0.9, 3), (13, 1.0, 4)]:
        assert gnp(n, p, seed).edges() == oracle_gnp_edges(n, p, seed), (n, p, seed)


@pytest.mark.parametrize("block", [1, 2000, None])
def test_transpose_masks_matches_bit_loop(monkeypatch, block):
    # blocks of 8 masks (the fewest a block takes), of 24 masks for
    # n = 70 with a short last block, and one block for all
    if block is not None:
        monkeypatch.setattr(graphs_mod, "_BLOCK_WORDS", block)
    rng = np.random.default_rng(5)
    for n, k in [(1, 1), (3, 2), (9, 17), (70, 131), (130, 8)]:
        masks = [int(x) for x in rng.integers(0, 2, size=(k, n)) @ (1 << np.arange(n, dtype=object))]
        want = [sum(1 << j for j, m in enumerate(masks) if m >> v & 1) for v in range(n)]
        assert graphs_mod.transpose_masks(masks, n) == want, (n, k)


def test_gnp_memory_stays_within_a_block_and_the_edges():
    # 32e6 pairs but 16 044 edges: the pairs' uniforms are never all held
    tracemalloc.start()
    try:
        g = gnp(8000, 0.0005, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.m == 16_044
    assert peak <= 4 * 8 * graphs_mod._BLOCK_WORDS + 64 * (g.n + g.m), peak


def test_generate_dispatch():
    assert generate(FamilySpec(kind="path", n=4)) == path(4)
    assert generate(FamilySpec(kind="gnp", n=10, p=0.5, seed=3)) == gnp(10, 0.5, 3)
    assert generate(FamilySpec(kind="disjoint_cliques", delta=2, k=2)) == disjoint_cliques(2, 2)
    with pytest.raises(ValueError):
        generate(FamilySpec(kind="nope", n=3))


def test_edge_list_round_trip():
    for name, g in list(small_corpus())[::11]:
        assert parse_edge_list(write_edge_list(g)) == g, name
    assert write_edge_list(path(3)) == "3 2\n0 1\n1 2\n"
    assert parse_edge_list("2 0\n") == Graph(2)


@pytest.mark.parametrize(
    "g",
    [
        Graph(5),
        Graph(1),
        Graph(1001, [(0, 9), (3, 10), (9, 99), (10, 100), (99, 1000), (7, 123), (8, 9)]),
        gnp(440, 0.5, 3),
    ],
    ids=["no_edges", "one_vertex", "mixed_digit_widths", "gnp_440"],
)
def test_edge_writers_match_the_per_edge_form(g):
    # write_edge_list and to_dot keep the bytes of one f-string per line
    lines = [f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in g.edges()]
    assert write_edge_list(g).encode() == ("\n".join(lines) + "\n").encode()
    lines = ["graph G {"] + [f"  {v};" for v in range(g.n)]
    lines += [f"  {u} -- {v};" for u, v in g.edges()] + ["}"]
    assert to_dot(g).encode() == ("\n".join(lines) + "\n").encode()


def test_parse_edge_list_errors():
    for text in (
        "",
        "3\n",
        "x 2\n",
        "3 1\n0 0\n",
        "3 1\n1 0\n",
        "3 1\n0 4\n",
        "3 2\n0 1\n",
        "3 1\n0 1\n1 2\n",
        "3 1\n0 1 7\n",
    ):
        with pytest.raises(FormatError):
            parse_edge_list(text)
    with pytest.raises(FormatError, match="line 2"):
        parse_edge_list("3 1\n0 9\n")


@pytest.mark.parametrize("g", [gnp(600, 0.5, 1), cycle(100_000)], ids=["gnp600", "cycle100000"])
def test_parse_edge_list_memory_stays_within_ten_times_the_text(g):
    # the parser's temporaries are bounded per block, so its peak is the
    # text, its bytes and the rows plus a bounded remainder
    text = write_edge_list(g)
    tracemalloc.start()
    try:
        parsed = parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == g
    assert peak <= 10 * len(text), peak / len(text)


@pytest.mark.parametrize("view, bound", [("degrees", 1.5), ("packed_closed", 4)])
def test_view_memory_stays_within_a_few_edge_arrays(view, bound):
    # both views are read off the edge array, without the CSR's 2m arcs
    g = parse_edge_list(write_edge_list(gnp(600, 0.5, 1)))
    tracemalloc.start()
    try:
        getattr(g, view)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * g.edge_array().nbytes, peak / g.edge_array().nbytes


def test_to_dot():
    text = to_dot(path(3))
    assert text.startswith("graph")
    assert "0 -- 1;" in text and "1 -- 2;" in text
    assert "2;" in to_dot(Graph(3, [(0, 1)])), "isolated vertices must appear"

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from idcodes import (
    Graph,
    NotTwinFreeError,
    UndominatedVertex,
    Verdict,
    complete,
    complete_bipartite,
    cycle,
    disjoint_cliques,
    exact_min_dominating,
    exact_min_idcode,
    find_twins,
    gnp,
    greedy_dominating,
    greedy_idcode,
    idcode_lower_bound,
    is_dominating,
    is_identifying_code,
    least_twins,
    path,
    star,
)
from idcodes import _kernels, graphs, solvers
from idcodes.graphs import mask_to_set

from corpus import greedy_pick_graphs, interleaved_graphs, mixed_graph, small_corpus, twin_graphs
from oracles import (
    oracle_fewest_extra_picks,
    oracle_greedy_cover,
    oracle_greedy_idcode,
    oracle_hitting_sets,
    oracle_min_dominating,
    oracle_min_idcode,
)
from strategies import twin_free_edge_lists

GOLDEN = Path(__file__).parent / "golden"


def test_exact_idcode_known_sizes():
    assert exact_min_idcode(path(3)).size == 2
    assert exact_min_idcode(cycle(4)).size == 3
    assert exact_min_idcode(star(4)).size == 4
    assert exact_min_idcode(path(7)).size == 4
    res = exact_min_idcode(cycle(7))
    assert res.size == 5 and res.optimal
    assert is_identifying_code(cycle(7), res.code).ok


def test_exact_idcode_rejects_twins():
    with pytest.raises(NotTwinFreeError) as err:
        exact_min_idcode(complete(4))
    assert err.value.pair == (0, 1)
    with pytest.raises(NotTwinFreeError):
        exact_min_idcode(Graph(2, [(0, 1)]))


def test_exact_idcode_matches_oracle_sample():
    for name, g in list(small_corpus())[::6]:
        expected = oracle_min_idcode(g.n, g.edges())
        if expected is None:
            with pytest.raises(NotTwinFreeError):
                exact_min_idcode(g)
            continue
        res = exact_min_idcode(g)
        assert res.optimal, name
        assert res.size == len(expected), name
        assert is_identifying_code(g, res.code).ok, name


def test_exact_dominating_matches_oracle_sample():
    assert exact_min_dominating(complete(7)).size == 1
    assert exact_min_dominating(path(6)).size == 2
    assert exact_min_dominating(Graph(3)).size == 3
    for name, g in list(small_corpus())[::6]:
        res = exact_min_dominating(g)
        assert res.optimal and res.size == len(
            oracle_min_dominating(g.n, g.edges())
        ), name
        assert is_dominating(g, res.code).ok, name


def test_budget_exhaustion_returns_incumbent():
    g = gnp(12, 0.4, 0)
    res = exact_min_idcode(g, budget=5)
    assert not res.optimal
    assert res.nodes >= 5
    assert is_identifying_code(g, res.code).ok, "incumbent must still be valid"
    full = exact_min_idcode(g)
    assert full.optimal and full.size <= res.size
    dom = exact_min_dominating(g, budget=5)
    assert not dom.optimal and is_dominating(g, dom.code).ok


def test_exact_search_node_counts_pinned():
    # node counts, codes and prune counts of the hitting-set search
    # (include branch first, reverse-delete incumbent, packing bound)
    res = exact_min_idcode(cycle(23))
    assert (res.nodes, sorted(res.code)) == (129, [0, 2, 4, 6, 8, 9, 10, 11, 13, 15, 17, 19, 21])
    assert dict(res.prunes) == {"infeasible": 26, "class": 3, "log2": 5, "packing": 31}
    g = gnp(16, 0.3, 5)
    res = exact_min_idcode(g)
    assert (res.nodes, sorted(res.code)) == (137, [4, 5, 7, 8, 11, 13])
    res = exact_min_dominating(g)
    assert (res.nodes, sorted(res.code)) == (5, [6, 7, 8, 10])
    assert dict(res.prunes) == {"infeasible": 0, "cover": 0, "packing": 3}
    res = exact_min_dominating(gnp(40, 0.2, 1), budget=50)
    assert (res.nodes, res.optimal, sorted(res.code)) == (51, False, [0, 1, 6, 7, 9, 10, 37])


def test_budget_exhaustion_deep_search_returns_incumbent(monkeypatch):
    # the walk passes depth 1000 before this budget runs out; a recursive
    # walk dies there with RecursionError
    depth = 0
    build = solvers._unhit_sets
    g = gnp(1050, 0.3, 0)

    def spy(sets, unhit, undecided):
        nonlocal depth
        depth = max(depth, g.n - undecided.bit_count())
        return build(sets, unhit, undecided)

    monkeypatch.setattr(solvers, "_unhit_sets", spy)
    res = exact_min_idcode(g, budget=2200)
    assert not res.optimal and res.nodes == 2201
    assert depth > 1000
    assert is_identifying_code(g, res.code).ok
    assert res.size <= len(greedy_idcode(g))


def test_exact_walk_memory_stays_linear_in_rows_and_edges():
    # the walk on a path is ~n/2 include decisions deep; a node that keeps
    # its unhit sets for the nodes below it holds O(n) sets per level of the
    # stack, O(n^2 W) in all, where the walk must stay within O(n W + m)
    g = path(400)
    g.packed_closed, g.degrees, g._csr
    words = (g.n + 63) // 64
    tracemalloc.start()
    try:
        res = exact_min_idcode(g, budget=500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not res.optimal and is_identifying_code(g, res.code).ok
    base = g.n * words * 8 + 16 * g.m
    assert peak <= 40 * base, peak / base


def test_exact_pair_sets_memory_stays_linear_in_rows_and_edges():
    # every bit a block of _dist2_blocks unpacks can become a 16-byte pair,
    # so a block that unpacks 8 * _BLOCK_WORDS bits holds 128 bytes per word;
    # K_{2,3000} has ~4.5M pairs and must stay within O(n W + m)
    g = complete_bipartite(2, 3000)
    g.packed_closed, g.closed_masks, g.local_closed, g.ranks, g.component_order, g._csr
    words = (g.n + 63) // 64
    tracemalloc.start()
    try:
        solvers._hitting_sets(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    base = g.n * words * 8 + 16 * g.m
    assert peak <= 16 * base, peak / base


@pytest.mark.parametrize("block_words", [1, 8, None])
def test_hitting_sets_match_oracle_across_blocks(monkeypatch, block_words):
    # the order of the family feeds the packing bound, so the list must
    # match exactly, also when blocks split the rows and their pairs
    if block_words is not None:
        monkeypatch.setattr(graphs, "_BLOCK_WORDS", block_words)
    for name, g in list(small_corpus())[::4] + list(interleaved_graphs()):
        got = [mask_to_set(s) for s in solvers._hitting_sets(g)]
        assert got == oracle_hitting_sets(g.n, g.edges()), name


def test_start_incumbent_is_valid_and_minimal():
    # with budget 0 the search returns its start incumbent: a valid code
    # (dominating set) from which no single vertex can be dropped
    extra = [(repr(g), g) for g in (cycle(23), path(28), gnp(28, 0.3, 1), gnp(40, 0.2, 1))]
    for name, g in list(small_corpus())[::3] + extra:
        cases = [(exact_min_dominating, is_dominating)]
        if not find_twins(g):
            cases.append((exact_min_idcode, is_identifying_code))
        for solver, verify in cases:
            code = solver(g, budget=0).code
            assert verify(g, code).ok, (name, solver.__name__)
            for v in code:
                assert not verify(g, code - {v}).ok, (name, solver.__name__, v)


def test_exact_search_matches_golden():
    # the whole search, not only its sizes: nodes, optimal flag, code and
    # prune counts of both solvers, the slow case included
    doc = json.loads((GOLDEN / "exact_search.json").read_text())
    families = {"cycle": cycle, "path": path, "gnp": gnp}
    for case in doc["cases"]:
        g = families[case["family"]](*case["args"])
        for solver, kind in ((exact_min_idcode, "idcode"), (exact_min_dominating, "dominating")):
            res = solver(g)
            got = {"nodes": res.nodes, "optimal": res.optimal, "code": sorted(res.code), "prunes": dict(res.prunes)}
            assert got == case[kind], (case["family"], case["args"], kind)


def test_exact_idcode_proves_long_cycles_and_paths():
    # gamma_ID(C_n) = n/2 for even n, gamma_ID(P_n) = ceil((n+1)/2)
    for g, size in ((cycle(40), 20), (cycle(200), 100), (path(200), 101)):
        res = exact_min_idcode(g)
        assert res.optimal and res.size == size, g
        assert is_identifying_code(g, res.code).ok, g


def test_search_result_prunes():
    for g in (cycle(23), path(28), gnp(16, 0.3, 5)):
        res = exact_min_idcode(g)
        assert tuple(res.prunes) == solvers.IDCODE_RULES
        assert 0 < sum(res.prunes.values()) < res.nodes
        with pytest.raises(TypeError):
            res.prunes["packing"] = 1
        dom = exact_min_dominating(g)
        assert tuple(dom.prunes) == solvers.DOMINATING_RULES
        assert sum(dom.prunes.values()) <= dom.nodes
    # an incumbent that meets the lower bound needs no search at all
    res = exact_min_idcode(path(3))
    assert res.nodes == 0 and not any(res.prunes.values())


def test_exact_sizes_match_golden():
    doc = json.loads((GOLDEN / "exact_sizes.json").read_text())
    graphs = dict(small_corpus())
    graphs.update((f"C{n}", cycle(n)) for n in range(4, 31))
    graphs.update((f"P{n}", path(n)) for n in range(2, 31))
    assert graphs.keys() == doc["idcode"].keys() == doc["dominating"].keys()
    for name, g in graphs.items():
        if doc["idcode"][name] is None:
            with pytest.raises(NotTwinFreeError):
                exact_min_idcode(g)
        else:
            res = exact_min_idcode(g)
            assert res.optimal and res.size == doc["idcode"][name], name
        res = exact_min_dominating(g)
        assert res.optimal and res.size == doc["dominating"][name], name


def test_hitting_sets_are_hit_by_every_code():
    for name, g in list(small_corpus())[::4]:
        if find_twins(g):
            continue
        sets = solvers._hitting_sets(g)
        assert len(sets) == len(set(sets)) <= 2 * g.n, name
        assert set(g.closed_masks) <= set(sets), name
        code = sum(1 << v for v in oracle_min_idcode(g.n, g.edges()))
        assert all(s & code for s in sets), name


@settings(max_examples=500, deadline=None)
@given(twin_free_edge_lists(10), st.data())
def test_packing_bound_never_exceeds_fewest_extra_picks(graph, data):
    n, edges = graph
    g = Graph(n, edges)
    # per vertex: 0 excluded, 1 included, 2 undecided
    state = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    included = [v for v in range(n) if state[v] == 1]
    excluded = [v for v in range(n) if state[v] == 0]
    chosen = sum(1 << v for v in included)
    undecided = sum(1 << v for v in range(n) if state[v] == 2)
    for sets, kind in ((solvers._hitting_sets(g), "idcode"), (list(g.closed_masks), "dominating")):
        fewest = oracle_fewest_extra_picks(n, edges, included, excluded, kind)
        unhit = sum(1 << j for j, s in enumerate(sets) if not s & chosen)
        live = solvers._unhit_sets(sets, unhit, undecided)
        if not all(live):
            assert fewest is None, kind
        elif fewest is not None:
            assert solvers._packing_size(live) <= fewest, kind


def test_greedy_dominating_matches_maxcover_oracle():
    # over 64 vertices and several components the picks come from the
    # segmented cover over the component-local rows
    split = [
        mixed_graph((3, 17, 64, 65, 130), (1.0, 0.3, 0.2, 0.1, 0.05), 3),
        mixed_graph((2, 70, 9), (1.0, 0.1, 0.5), 1),
        disjoint_cliques(7, 12),
        Graph(70, [(0, 69), (2, 3), (3, 5)]),  # isolated vertices: one-vertex components
        gnp(90, 0.2, 2),
    ]
    for name, g in list(small_corpus())[::5] + [(repr(g), g) for g in split]:
        got = greedy_dominating(g)
        assert is_dominating(g, got).ok, name
        assert got == set(oracle_greedy_cover(g.n, g.edges())), name
    assert greedy_dominating(star(5)) == {0}


def test_greedy_idcode_validity_and_quality():
    code6 = greedy_idcode(star(6))
    assert len(code6) == 6 and is_identifying_code(star(6), code6).ok
    with pytest.raises(NotTwinFreeError):
        greedy_idcode(complete(3))
    for name, g in list(small_corpus())[::6]:
        if find_twins(g):
            continue
        code = greedy_idcode(g)
        assert is_identifying_code(g, code).ok, name
        assert len(code) >= exact_min_idcode(g).size, name


def test_greedy_idcode_larger_graph():
    g = gnp(60, 0.3, 2)
    code = greedy_idcode(g)
    assert is_identifying_code(g, code).ok
    assert len(code) < 30


def test_greedy_idcode_matches_golden():
    doc = json.loads((GOLDEN / "greedy_idcode.json").read_text())
    families = {"cycle": cycle, "path": path, "gnp": gnp}
    assert len(doc["cases"]) == 17
    for case in doc["cases"]:
        g = families[case["family"]](*case["args"])
        assert sorted(greedy_idcode(g)) == case["code"], case
        # both fills, whichever greedy_idcode takes, make the same picks
        cells = solvers._cell_picks(g)
        assert sorted(cells) == case["code"], case
        assert solvers._table_picks(g) == cells, case


def test_greedy_picks_match_golden():
    # the ordered picks on the greedy-sparse benchmark shapes and C4000
    doc = json.loads((GOLDEN / "greedy_picks.json").read_text())
    cases = greedy_pick_graphs()
    assert len(doc["cases"]) == len(cases) == 22
    for case, (family, args, g) in zip(doc["cases"], cases):
        assert [case["family"], case["args"]] == [family, list(args)]
        assert not solvers._is_dense(g)
        assert solvers._cell_picks(g) == case["picks"], case["args"]
        assert greedy_idcode(g) == set(case["picks"]), case["args"]
        if g.n <= 400:
            assert solvers._table_picks(g) == case["picks"], case["args"]


def test_greedy_idcode_checks_for_twins_only_at_a_stall(monkeypatch):
    calls = []
    monkeypatch.setattr(solvers, "least_twins", lambda g: calls.append(g) or least_twins(g))
    # a twin-free graph: every pick gains, so no twin search, on either fill
    for g, dense in ((cycle(40), False), (gnp(100, 0.5, 0), True)):
        assert solvers._is_dense(g) == dense and not find_twins(g)
        assert is_identifying_code(g, greedy_idcode(g)).ok
    assert calls == []
    # twins stall the picks of either fill, and only then are searched for
    for name, g in twin_graphs():
        assert solvers._cell_picks(g) is None and solvers._table_picks(g) is None, name
        calls.clear()
        with pytest.raises(NotTwinFreeError) as err:
            greedy_idcode(g)
        assert err.value.pair == least_twins(g) and calls == [g], name
        with pytest.raises(NotTwinFreeError) as err:
            exact_min_idcode(g)
        assert err.value.pair == least_twins(g), name
    assert {solvers._is_dense(g) for _, g in twin_graphs()} == {False, True}


def test_greedy_idcode_matches_pair_oracle():
    checked = 0
    for name, g in small_corpus():
        if find_twins(g):
            continue
        assert greedy_idcode(g) == set(oracle_greedy_idcode(g.n, g.edges())), name
        checked += 1
    assert checked > 100


@settings(max_examples=300, deadline=None)
@given(twin_free_edge_lists(14))
def test_greedy_idcode_matches_pair_oracle_on_random_graphs(graph):
    n, edges = graph
    assert greedy_idcode(Graph(n, edges)) == set(oracle_greedy_idcode(n, edges))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.floats(0.5, 0.8), st.integers(0, 2**32 - 1))
def test_greedy_idcode_matches_pair_oracle_on_dense_graphs(n, p, seed):
    # dense graphs are where tied gains pile up
    g = gnp(n, p, seed)
    assume(not find_twins(g))
    assert greedy_idcode(g) == set(oracle_greedy_idcode(n, g.edges()))


def test_greedy_idcode_raises_on_failed_checks(monkeypatch):
    # the checks must hold under python -O too, so they are not asserts;
    # cycle(9) takes the cell fill and G(100, 1/2) the table fill
    for g, dense in ((cycle(9), False), (gnp(100, 0.5, 0), True)):
        assert solvers._is_dense(g) == dense
        with monkeypatch.context() as m:
            m.setattr(solvers, "is_identifying_code", lambda *a: Verdict(False, UndominatedVertex(0)))
            with pytest.raises(RuntimeError, match="invalid code"):
                greedy_idcode(g)
        with monkeypatch.context() as m:
            m.setattr(_kernels, "separator_counts", lambda *a: np.zeros(g.n, dtype=np.int64))
            with pytest.raises(RuntimeError, match="no progress"):
                greedy_idcode(g)


def _fill_parity_graphs():
    """(name, graph): twin-free graphs for the two greedy fills."""
    graphs = [(f"C{n}", cycle(n)) for n in (4, 5, 7, 9, 16, 40)]
    # dense graphs, where tied gains pile up
    for n, p in ((12, 0.5), (20, 0.6), (30, 0.7), (40, 0.8), (60, 0.5)):
        graphs += [(f"G({n},{p},{s})", gnp(n, p, s)) for s in range(4)]
    # the exact-small sizes
    for n in (16, 18, 23, 28):
        graphs += [(f"G({n},0.3,{s})", gnp(n, 0.3, s)) for s in range(3)]
    return [(name, g) for name, g in graphs if not find_twins(g)]


def test_greedy_fills_make_the_oracle_picks_in_order():
    checked = 0
    for name, g in _fill_parity_graphs():
        picks = oracle_greedy_idcode(g.n, g.edges())
        assert solvers._cell_picks(g) == picks, name
        assert solvers._table_picks(g) == picks, name
        checked += 1
    assert checked > 30


def test_greedy_fills_agree_either_side_of_the_cut_over():
    # at n = 300 the degree floor decides (n + 2m >= 40 n), at n = 900 the
    # fill floor (n + 2m >= n**2 / 12)
    sides = {}
    for n, ps in ((300, (0.1, 0.12, 0.14, 0.2)), (900, (0.06, 0.075, 0.095, 0.12))):
        for p in ps:
            g = gnp(n, p, 1)
            assert not find_twins(g)
            cells = solvers._cell_picks(g)
            assert solvers._table_picks(g) == cells, (n, p)
            assert greedy_idcode(g) == set(cells)
            sides.setdefault(n, set()).add(solvers._is_dense(g))
    assert sides == {300: {False, True}, 900: {False, True}}


def test_dense_greedy_idcode_reads_no_csr(monkeypatch):
    built = []
    csr = Graph.__dict__["_csr"]
    monkeypatch.setattr(Graph, "_csr", property(lambda self: built.append(self) or csr.func(self)))
    scores = []
    counts = _kernels.separator_counts
    monkeypatch.setattr(_kernels, "separator_counts", lambda *a: scores.append(a[1]) or counts(*a))
    g = gnp(300, 0.5, 0)
    assert solvers._is_dense(g)
    code = greedy_idcode(g)
    assert built == [] and is_identifying_code(g, code).ok
    # one kernel call per pick, each on the table
    assert len(scores) == len(code) and all(owner is None for owner in scores)
    sparse = cycle(30)
    assert not solvers._is_dense(sparse)
    greedy_idcode(sparse)
    assert built == [sparse]


def test_greedy_idcode_memory_on_dense_graphs():
    # the table fill holds n**2 bytes, O(m) on the graphs it runs on
    g = gnp(1200, 0.5, 0)
    assert not find_twins(g) and solvers._is_dense(g)
    g.packed_closed, g.degrees
    words = (g.n + 63) // 64
    tracemalloc.start()
    try:
        code = greedy_idcode(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert is_identifying_code(g, code).ok
    base = g.n * words * 8 + 16 * g.m
    assert peak <= 8 * base, peak / base


def test_greedy_idcode_large_sparse_graphs():
    # far beyond the reach of an O(n^2) pair list
    c = cycle(1200)
    code = greedy_idcode(c)
    assert is_identifying_code(c, code).ok
    assert len(code) == 801  # gamma_ID(C_1200) = 600; greedy takes about 2n/3
    g = gnp(2000, 0.01, 3)
    assert not find_twins(g)
    code = greedy_idcode(g)
    assert is_identifying_code(g, code).ok
    assert idcode_lower_bound(g.n) <= len(code) == 234


def test_exact_beats_or_ties_greedy():
    for name, g in list(small_corpus())[100:400:23]:
        if find_twins(g):
            continue
        assert exact_min_idcode(g).size <= len(greedy_idcode(g)), name


def test_exact_idcode_long_cycle_budget_pinned():
    # the root packing bound is 549 and the reverse-delete incumbent 550,
    # so the hitting-set search proves the optimum in five nodes
    c = cycle(1100)
    res = exact_min_idcode(c, budget=3000)
    assert (res.size, res.nodes, res.optimal) == (550, 5, True)
    assert is_identifying_code(c, res.code).ok

import json
from pathlib import Path

import pytest

from idcodes import (
    Graph,
    NotTwinFreeError,
    complete,
    cycle,
    exact_min_dominating,
    exact_min_idcode,
    find_twins,
    gnp,
    greedy_dominating,
    greedy_idcode,
    idcode_lower_bound,
    is_dominating,
    is_identifying_code,
    path,
    star,
)

from corpus import small_corpus
from oracles import (
    oracle_greedy_cover,
    oracle_greedy_idcode,
    oracle_min_dominating,
    oracle_min_idcode,
)

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
    # node counts and codes of the recursive walk (include branch first);
    # the explicit-stack walk must visit the same nodes in the same order
    res = exact_min_idcode(cycle(23))
    assert (res.nodes, sorted(res.code)) == (3379, [0, 1, 2, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21])
    g = gnp(16, 0.3, 5)
    res = exact_min_idcode(g)
    assert (res.nodes, sorted(res.code)) == (693, [4, 5, 7, 8, 11, 13])
    res = exact_min_dominating(g)
    assert (res.nodes, sorted(res.code)) == (77, [6, 7, 8, 10])
    res = exact_min_dominating(gnp(40, 0.2, 1), budget=50)
    assert (res.nodes, res.optimal, sorted(res.code)) == (51, False, [0, 1, 6, 7, 9, 10, 37])


def test_budget_exhaustion_deep_search_returns_incumbent():
    # the walk passes depth 1000 before this budget runs out; a recursive
    # walk dies there with RecursionError
    g = gnp(1050, 0.3, 0)
    res = exact_min_idcode(g, budget=2200)
    assert not res.optimal and res.nodes == 2201
    assert is_identifying_code(g, res.code).ok
    assert res.code == greedy_idcode(g)


def test_greedy_dominating_matches_maxcover_oracle():
    for name, g in list(small_corpus())[::5]:
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


def test_greedy_idcode_matches_pair_oracle():
    checked = 0
    for name, g in small_corpus():
        if find_twins(g):
            continue
        assert greedy_idcode(g) == set(oracle_greedy_idcode(g.n, g.edges())), name
        checked += 1
    assert checked > 100


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
    # size, nodes and optimality pinned from the pairwise class check; the
    # single pass over the traces on the pool must prune the same nodes
    c = cycle(1100)
    res = exact_min_idcode(c, budget=3000)
    assert (res.size, res.nodes, res.optimal) == (732, 3001, False)
    assert is_identifying_code(c, res.code).ok

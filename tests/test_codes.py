import random
import tracemalloc
from itertools import combinations

import pytest

from idcodes import (
    Graph,
    InvalidCodeError,
    UndominatedVertex,
    UnseparatedPair,
    Verdict,
    complete,
    complete_bipartite,
    cycle,
    gnp,
    is_dominating,
    is_identifying_code,
    is_locating_dominating,
    is_separating,
    path,
    signature,
    star,
)

from corpus import mixed_graph, small_corpus
from oracles import (
    oracle_dist2_pairs,
    oracle_is_identifying,
    oracle_is_locating_dominating,
    oracle_signature,
    oracle_undominated,
    oracle_unseparated,
    oracle_witness,
)


def test_verdict_invariants():
    assert Verdict(True).ok
    assert Verdict(False, UndominatedVertex(2)).witness == UndominatedVertex(2)
    with pytest.raises(ValueError):
        Verdict(True, UndominatedVertex(0))
    with pytest.raises(ValueError):
        Verdict(False)


def test_signature_examples():
    g = path(3)
    assert signature(g, [0, 2], 1) == {0, 2}
    assert signature(g, [0, 2], 0) == {0}
    assert signature(g, [1], 0) == {1}
    assert signature(star(4), [0], 3) == {0}
    with pytest.raises(InvalidCodeError):
        signature(g, [5], 0)
    with pytest.raises(InvalidCodeError):
        signature(g, [-1], 0)


def test_is_dominating():
    g = path(4)
    assert is_dominating(g, [1, 2]).ok
    v = is_dominating(g, [0])
    assert not v.ok and v.witness == UndominatedVertex(2)
    assert is_dominating(Graph(1), []).witness == UndominatedVertex(0)


def test_is_separating_least_witness():
    g = path(3)
    v = is_separating(g, [1])
    assert not v.ok and v.witness == UnseparatedPair(0, 1)
    assert is_separating(g, [0, 2]).ok
    assert is_separating(g, []).witness == UnseparatedPair(0, 1)


def test_is_identifying_code_examples():
    assert is_identifying_code(path(3), [0, 2]).ok
    v = is_identifying_code(cycle(4), [0, 1])
    assert not v.ok and v.witness == UnseparatedPair(0, 1)
    c4 = is_identifying_code(cycle(4), [0, 1, 2])
    assert c4.ok
    assert signature(cycle(4), [0, 1, 2], 3) == {0, 2}
    assert is_locating_dominating(complete(4), [0, 1, 2]).ok
    v = is_identifying_code(complete(4), [0, 1, 2, 3])
    assert v.witness == UnseparatedPair(0, 1), "twins are never separated"
    assert is_identifying_code(star(4), [1, 2, 3, 4]).ok
    assert is_identifying_code(star(4), [0, 1, 2, 3]).ok
    v = is_identifying_code(star(4), [1, 2, 3])
    assert v.witness == UndominatedVertex(4)


def test_domination_checked_before_separation():
    g = Graph(3, [(0, 1)])
    v = is_identifying_code(g, [0])
    assert v.witness == UndominatedVertex(2)


def _random_codes(n, rng, count=3):
    for _ in range(count):
        yield [v for v in range(n) if rng.random() < 0.5]


def test_verdicts_match_oracle_across_corpus():
    rng = random.Random(7)
    for name, g in small_corpus():
        for code in _random_codes(g.n, rng):
            v = is_identifying_code(g, code)
            undom = oracle_undominated(g.n, g.edges(), code)
            unsep = oracle_unseparated(g.n, g.edges(), code)
            assert v.ok == (not undom and not unsep), (name, code)
            if undom:
                assert v.witness == UndominatedVertex(undom[0]), (name, code)
            elif unsep:
                assert v.witness == UnseparatedPair(*unsep[0]), (name, code)
            for u in range(g.n):
                assert signature(g, code, u) == oracle_signature(
                    g.n, g.edges(), code, u
                )


def test_locating_dominating_matches_oracle():
    g = path(3)
    assert is_locating_dominating(g, [0, 2]).ok
    assert is_locating_dominating(g, [1]).witness == UnseparatedPair(0, 2)
    rng = random.Random(13)
    for name, g in list(small_corpus())[::5]:
        for code in _random_codes(g.n, rng):
            got = is_locating_dominating(g, code)
            assert got.ok == oracle_is_locating_dominating(
                g.n, g.edges(), code
            ), (name, code)


def test_identifying_implies_locating_dominating():
    for name, g in list(small_corpus())[::17]:
        code = list(range(g.n))
        if is_identifying_code(g, code).ok:
            assert is_locating_dominating(g, code).ok, name


def test_full_vertex_set_is_identifying_iff_twin_free():
    from idcodes import find_twins

    for name, g in list(small_corpus())[::9]:
        ok = is_identifying_code(g, range(g.n)).ok
        assert ok == (not find_twins(g)), name
        assert ok == oracle_is_identifying(g.n, g.edges(), range(g.n)), name


def _witness(verdict):
    """A verdict in the form oracle_witness gives."""
    w = verdict.witness
    if w is None:
        return None
    if isinstance(w, UndominatedVertex):
        return ("undominated", w.v)
    return ("unseparated", w.u, w.v)


def _check_witnesses(name, g, code):
    n, edges = g.n, g.edges()
    outside = [v for v in range(n) if v not in set(code)]
    expect = {
        "full": oracle_witness(n, edges, code),
        "dist2": oracle_witness(n, edges, code, oracle_dist2_pairs(n, edges)),
        "ld": oracle_witness(n, edges, code, combinations(outside, 2)),
    }
    # one verdict, held to the least failure over all pairs and over the
    # pairs at distance <= 2 alone
    verdict = _witness(is_identifying_code(g, code))
    got = {
        "full": verdict,
        "dist2": verdict,
        "ld": _witness(is_locating_dominating(g, code)),
    }
    assert got == expect, (name, code)
    unsep = oracle_unseparated(n, edges, code)
    expect_sep = ("unseparated", *unsep[0]) if unsep else None
    assert _witness(is_separating(g, code)) == expect_sep, (name, code)


def test_dist2_and_locating_witnesses_match_oracle():
    rng = random.Random(17)
    for name, g in list(small_corpus())[::4]:
        for code in _random_codes(g.n, rng):
            _check_witnesses(name, g, code)


def _multiword_graphs():
    # components of up to 130 vertices, labels interleaved: 2 to 5 words
    # per row, and every component straddles several words
    yield "mixed95", mixed_graph((40, 30, 25), (0.2, 0.5, 0.8), 1)
    yield "mixed180", mixed_graph((3, 17, 64, 65, 31), (1.0, 0.3, 0.2, 0.1, 0.9), 2)
    yield "mixed260", mixed_graph((130, 70, 9, 51), (0.05, 0.1, 0.6, 0.3), 3)


def test_witnesses_match_oracle_on_multiword_rows():
    rng = random.Random(19)
    for name, g in _multiword_graphs():
        assert g.packed_closed.shape[1] > 1, name
        n = g.n
        codes = [list(range(n))]
        # near-complete codes fail late or pass; sparse ones fail early
        for drop in (1, 3, 10, 40):
            codes.append(sorted(set(range(n)) - set(rng.sample(range(n), drop))))
        for frac in (0.1, 0.5):
            codes.append([v for v in range(n) if rng.random() < frac])
        for code in codes:
            _check_witnesses(name, g, code)
            v = rng.randrange(n)
            assert signature(g, code, v) == oracle_signature(n, g.edges(), code, v), name


def test_identifying_check_memory_stays_linear_in_rows_and_edges():
    # K_{2,3000} has ~4.5e6 pairs at distance 2; the check must stay within
    # O(n W + m), never hold a list of those pairs
    g = complete_bipartite(2, 3000)
    words = (g.n + 63) // 64
    tracemalloc.start()
    try:
        v = is_identifying_code(g, range(g.n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.ok
    base = g.n * words * 8 + 16 * g.m
    assert peak <= 16 * base, peak / base

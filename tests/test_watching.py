import importlib
import random

import pytest

from idcodes import (
    Graph,
    InvalidCodeError,
    NotDominatingError,
    SparsifyParams,
    UndominatedVertex,
    UnseparatedPair,
    Verdict,
    Watcher,
    WatchingSystem,
    ZoneOutOfNeighborhoodError,
    complete,
    cycle,
    disjoint_cliques,
    exact_min_dominating,
    exact_min_idcode,
    find_twins,
    gnp,
    greedy_dominating,
    path,
    sparsify,
    star,
    verify_watching,
    watch_bounds,
    watching_binary,
    watching_from_subgraph_code,
)
from idcodes.watching import EXACT_GAMMA_LIMIT

from oracles import oracle_verify_watching


def disjoint_stars(leaves, copies):
    per = leaves + 1
    edges = []
    for k in range(copies):
        base = k * per
        edges += [(base, base + i) for i in range(1, per)]
    return Graph(per * copies, edges)


def test_structural_zone_errors():
    g = path(3)
    with pytest.raises(ZoneOutOfNeighborhoodError) as err:
        verify_watching(g, WatchingSystem((Watcher(5, frozenset({0})),)))
    assert err.value.index == 0
    with pytest.raises(ZoneOutOfNeighborhoodError):
        verify_watching(g, WatchingSystem((Watcher(0, frozenset()),)))
    with pytest.raises(ZoneOutOfNeighborhoodError) as err:
        verify_watching(
            g,
            WatchingSystem(
                (Watcher(0, frozenset({0})), Watcher(0, frozenset({0, 2})))
            ),
        )
    assert err.value.index == 1, "vertex 2 is outside N[0]"


def test_verify_watching_witnesses():
    g = path(3)
    empty = WatchingSystem(())
    v = verify_watching(g, empty)
    assert v.witness == UndominatedVertex(0)
    shared = WatchingSystem((Watcher(1, frozenset({0, 1, 2})),))
    v = verify_watching(g, shared)
    assert v.witness == UnseparatedPair(0, 1)
    ok = WatchingSystem(
        (Watcher(0, frozenset({0, 1})), Watcher(2, frozenset({1, 2})))
    )
    assert verify_watching(g, ok).ok


def test_verify_watching_matches_oracle_on_random_systems():
    rng = random.Random(5)
    for trial in range(40):
        g = gnp(8, 0.4, trial)
        watchers = []
        for _ in range(rng.randint(0, 5)):
            host = rng.randrange(8)
            hood = sorted(g.closed_neighborhood(host))
            zone = frozenset(u for u in hood if rng.random() < 0.6)
            if zone:
                watchers.append(Watcher(host, zone))
        system = WatchingSystem(tuple(watchers))
        undom, unsep = oracle_verify_watching(
            g.n, g.edges(), [(w.host, w.zone) for w in watchers]
        )
        got = verify_watching(g, system)
        assert got.ok == (not undom and not unsep), trial
        if undom:
            assert got.witness == UndominatedVertex(undom[0])
        elif unsep:
            assert got.witness == UnseparatedPair(*unsep[0])


def test_watching_from_subgraph_code():
    g = cycle(4)
    code = sorted(exact_min_idcode(g).code)
    system = watching_from_subgraph_code(g, g, code)
    assert system.size() == len(code)
    assert [w.host for w in system.watchers] == code
    for w in system.watchers:
        assert w.zone == g.closed_neighborhood(w.host)
    assert verify_watching(g, system).ok


def test_watching_from_subgraph_code_errors():
    g = cycle(4)
    with pytest.raises(InvalidCodeError):
        watching_from_subgraph_code(g, g, [0])
    with pytest.raises(ValueError):
        watching_from_subgraph_code(path(4), cycle(4), [0, 1, 2])


def test_watching_from_sparsified_subgraph():
    g = disjoint_cliques(7, 4)
    res = sparsify(g, SparsifyParams(c=2.0, seed=3))
    h = g.delete_edges(res.deleted_edges)
    system = watching_from_subgraph_code(g, h, sorted(res.final_code))
    assert system.size() == len(res.final_code)
    assert verify_watching(g, system).ok


def test_watching_binary_star():
    system = watching_binary(star(6), [0])
    assert system.size() == 3
    assert verify_watching(star(6), system).ok
    assert all(w.host == 0 for w in system.watchers)


def test_watching_binary_k2():
    system = watching_binary(complete(2), [0])
    assert system.size() <= 2
    assert verify_watching(complete(2), system).ok


def test_watching_binary_three_stars_exact_nine():
    g = disjoint_stars(6, 3)
    system = watching_binary(g, [0, 7, 14])
    assert system.size() == 9
    assert verify_watching(g, system).ok


def test_watching_binary_requires_domination():
    with pytest.raises(NotDominatingError):
        watching_binary(star(6), [1])


def test_watching_binary_size_bound_random():
    from idcodes.bounds import ceil_log2
    from idcodes import degree_stats, greedy_dominating

    for seed in range(8):
        g = gnp(12, 0.3, seed)
        if degree_stats(g)[0] == 0:
            continue
        dom = sorted(greedy_dominating(g))
        system = watching_binary(g, dom)
        _, dmax = degree_stats(g)
        assert system.size() <= len(dom) * ceil_log2(dmax + 2)
        assert verify_watching(g, system).ok


def test_watch_bounds_examples():
    wb = watch_bounds(complete(7))
    assert (wb.lower, wb.upper) == (3, 3)
    assert wb.gamma == 1 and wb.gamma_exact
    wb = watch_bounds(disjoint_stars(4, 3))
    assert (wb.lower, wb.upper) == (4, 9)
    assert wb.gamma == 3
    greedy = watch_bounds(complete(7), greedy_dominating(complete(7)))
    assert not greedy.gamma_exact
    big = watch_bounds(gnp(EXACT_GAMMA_LIMIT + 10, 0.3, 0))
    assert not big.gamma_exact
    with pytest.raises(ValueError, match="needs n >= 1"):
        watch_bounds(Graph(0))


def test_watch_bounds_requires_domination():
    # a set that leaves a vertex unwatched bounds nothing: its upper bound
    # would read 0 on P3, and 2 < lower 5 on C30
    with pytest.raises(NotDominatingError, match="not a dominating set"):
        watch_bounds(path(3), frozenset())
    with pytest.raises(NotDominatingError):
        watch_bounds(cycle(30), {0})
    assert watch_bounds(cycle(30), range(0, 30, 3)).upper == 20


def test_watching_sandwich_on_small_twin_free_graphs():
    for seed in range(10):
        g = gnp(9, 0.5, seed)
        if find_twins(g):
            continue
        gamma = exact_min_dominating(g).size
        gid = exact_min_idcode(g).size
        sizes = [
            watching_binary(g, sorted(exact_min_dominating(g).code)).size(),
            watching_from_subgraph_code(
                g, g, sorted(exact_min_idcode(g).code)
            ).size(),
        ]
        assert gamma <= min(sizes) <= max(sizes)
        assert min(sizes) <= gid or min(sizes) <= watch_bounds(g).upper
        assert watch_bounds(g).lower <= min(sizes)


def test_watching_checks_raise_runtime_error(monkeypatch):
    # the checks must hold under python -O too, so they are not asserts
    mod = importlib.import_module("idcodes.watching")
    g = cycle(7)
    monkeypatch.setattr(mod, "verify_watching", lambda *a: Verdict(False, UndominatedVertex(0)))
    with pytest.raises(RuntimeError, match="subgraph-code system failed"):
        watching_from_subgraph_code(g, g, exact_min_idcode(g).code)
    with pytest.raises(RuntimeError, match="binary labelling failed"):
        watching_binary(g, exact_min_dominating(g).code)


def test_watching_reads_the_closed_masks(monkeypatch):
    # the constructions and the verifier take N[v] from g.closed_masks, not
    # from one frozenset per watcher
    g = cycle(26)
    expected = watching_binary(g, greedy_dominating(g))
    code = exact_min_idcode(cycle(9)).code
    by_code = watching_from_subgraph_code(cycle(9), cycle(9), code)

    def forbidden(self, v):
        raise AssertionError("closed_neighborhood called")

    monkeypatch.setattr(Graph, "closed_neighborhood", forbidden)
    assert watching_binary(g, greedy_dominating(g)) == expected
    assert watching_from_subgraph_code(cycle(9), cycle(9), code) == by_code
    assert verify_watching(g, expected).ok

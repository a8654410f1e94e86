import hashlib
import importlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings

from idcodes import (
    ComplementNotTwinFreeError,
    Graph,
    InvalidCodeError,
    NoSeparatorError,
    NotTwinFreeError,
    UndominatedVertex,
    Verdict,
    complement,
    complement_code,
    complete,
    cycle,
    equivalence_classes,
    exact_min_idcode,
    find_twins,
    gnp,
    greedy_idcode,
    is_identifying_code,
    path,
    separate_class,
    star,
)

from corpus import small_corpus
from oracles import (
    adjacency,
    oracle_complement_edges,
    oracle_is_identifying,
    oracle_undominated,
    oracle_unseparated,
)
from strategies import twin_free_edge_lists

GOLDEN = Path(__file__).parent / "golden"


def hub_and_pendants(k):
    """Hub 0 joined to 1..k, vertex i also joined to its leaf k + i. With
    the code 0..k the vertices 1..k form one class, and each separator in
    the complement splits one member off it."""
    edges = [(0, i) for i in range(1, k + 1)] + [(i, k + i) for i in range(1, k + 1)]
    return Graph(2 * k + 1, edges)


def test_equivalence_classes_p3():
    part = equivalence_classes(path(3), [0, 2])
    assert part.classes == (frozenset({0, 2}), frozenset({1}))
    assert part.class_of(0) == {0, 2}
    assert part.class_of(1) == {1}
    with pytest.raises(KeyError):
        part.class_of(9)


def test_equivalence_classes_all_singletons():
    g = cycle(6)
    part = equivalence_classes(g, range(6))
    assert all(len(cls) == 1 for cls in part.classes)
    assert len(part.classes) == 6


def test_equivalence_classes_requires_valid_code():
    with pytest.raises(InvalidCodeError):
        equivalence_classes(path(3), [1])


def test_equivalence_classes_partition_properties():
    rng = random.Random(3)
    done = 0
    seed = 0
    while done < 12:
        g = gnp(9, 0.5, seed)
        seed += 1
        if find_twins(g):
            continue
        c0 = exact_min_idcode(g).code
        part = equivalence_classes(g, c0)
        done += 1
        cover = sorted(v for cls in part.classes for v in cls)
        assert cover == list(range(g.n)), "classes partition the vertex set"
        for cls in part.classes:
            for u in cls:
                for v in cls:
                    assert u == v or not g.has_edge(u, v)
            assert sum(1 for v in cls if v not in c0) <= 1
        # pairs in different classes are separated by c0 alone in the
        # complement
        gbar = complement(g)
        c0s = frozenset(c0)
        sig = {v: (gbar.closed_neighborhood(v) & c0s) for v in range(g.n)}
        for i, cls_a in enumerate(part.classes):
            for cls_b in part.classes[i + 1:]:
                for u in cls_a:
                    for v in cls_b:
                        assert sig[u] != sig[v], (seed - 1, u, v)
    assert rng is not None


def test_separate_class_base_cases():
    gbar = complement(path(4))
    assert separate_class(gbar, [0]) == frozenset()
    # class {0, 2}: gbar has the edge, and the symmetric difference of the
    # two closed neighborhoods starts at 1
    got = separate_class(gbar, [0, 2])
    assert len(got) == 1
    w = next(iter(got))
    assert gbar.closed_neighborhood(0) ^ gbar.closed_neighborhood(2) >= {w}


def test_separate_class_requires_clique():
    gbar = path(3)
    with pytest.raises(ValueError, match="^class is not a clique in the complement: 0 and 2 are non-adjacent$"):
        separate_class(gbar, [0, 2])
    with pytest.raises(ValueError, match="^vertex 9 out of range for n=3$"):
        separate_class(gbar, [0, 9])
    # the class is checked in sorted order, so the least bad vertex is named
    with pytest.raises(ValueError, match="^vertex -2 out of range for n=3$"):
        separate_class(gbar, [9, -2])


def test_separate_class_names_the_first_non_adjacent_pair():
    # the first pair in lexicographic order, not the first two members
    gbar = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    with pytest.raises(ValueError, match="^class is not a clique in the complement: 2 and 3 are non-adjacent$"):
        separate_class(gbar, [3, 2, 1, 0])
    # 0 misses 3 and 1 misses 2: the pair of the least member comes first
    gbar = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    with pytest.raises(ValueError, match="^class is not a clique in the complement: 0 and 3 are non-adjacent$"):
        separate_class(gbar, [0, 1, 2, 3])


def test_separate_class_twins_raise():
    gbar = complete(2)
    with pytest.raises(NoSeparatorError, match="^vertices 0 and 1 are twins in the complement$"):
        separate_class(gbar, [0, 1])


def test_class_of_1500_splits_without_recursion_limit():
    # the class 1..k loses one member per separator, so a split that
    # recursed per part would go k levels deep
    k = 1500
    g = hub_and_pendants(k)
    gbar = complement(g)
    code = complement_code(g, range(k + 1))
    assert is_identifying_code(gbar, sorted(code)).ok
    assert len(code) <= 2 * (k + 1)
    sep = separate_class(gbar, range(1, k + 1))
    assert len(sep) == k - 1
    mask = sum(1 << w for w in sep)
    assert len({gbar.closed_masks[v] & mask for v in range(1, k + 1)}) == k


def test_separate_class_size_four():
    # clique {0,1,2,3} plus attachments keeping the graph twin-free
    gbar = Graph(
        6,
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
         (0, 4), (1, 5), (2, 4), (2, 5), (4, 5)],
    )
    assert not find_twins(gbar)
    cls = [0, 1, 2, 3]
    w = separate_class(gbar, cls)
    assert len(w) <= 3
    traces = [frozenset(gbar.closed_neighborhood(v) & w) for v in cls]
    assert len(set(traces)) == len(cls), "separator must split every pair"


def test_complement_code_c4_rejected():
    with pytest.raises(ComplementNotTwinFreeError) as err:
        complement_code(cycle(4))
    assert err.value.pair == (0, 2)


def test_complement_code_twin_input_rejected():
    with pytest.raises(NotTwinFreeError):
        complement_code(complete(4))


def test_complement_code_p4():
    code = complement_code(path(4))
    gbar = complement(path(4))
    assert is_identifying_code(gbar, sorted(code)).ok
    assert len(code) <= 6
    base = exact_min_idcode(path(4)).code
    explicit = complement_code(path(4), base)
    assert is_identifying_code(gbar, sorted(explicit)).ok
    assert len(explicit) <= 2 * len(base)


def test_complement_code_rejects_invalid_base():
    with pytest.raises(InvalidCodeError):
        complement_code(path(4), [0])


def test_complement_code_star():
    # complement of K_{1,4} is K_4 plus an isolated center: twins
    with pytest.raises(ComplementNotTwinFreeError):
        complement_code(star(4))


def test_complement_code_random_instances():
    checked = 0
    seed = 0
    while checked < 20:
        g = gnp(10, 0.5, seed)
        seed += 1
        if find_twins(g) or find_twins(complement(g)):
            continue
        code = sorted(complement_code(g))
        gbar = complement(g)
        assert not oracle_undominated(gbar.n, gbar.edges(), code), seed - 1
        assert not oracle_unseparated(gbar.n, gbar.edges(), code), seed - 1
        assert len(code) <= 2 * exact_min_idcode(g).size, seed - 1
        checked += 1


def test_complement_code_tight_budget_instance():
    # every class carries exactly one non-base vertex, so the split
    # budget hits |base| exactly; the bound still holds with no trim
    g = gnp(10, 0.5, 87)
    base = exact_min_idcode(g).code
    code = complement_code(g, base)
    gbar = complement(g)
    assert is_identifying_code(gbar, sorted(code)).ok
    assert len(code) <= 2 * len(base)


def test_complement_code_overshoot_gets_trimmed():
    # base {0,1,2,3} on a 4-cycle, 4 ~ {1,3}, 5 ~ {0,2}, 7 ~ {0},
    # 8 ~ {1}, 6 adjacent to everything: the forced separators use the
    # full budget and vertex 6 (isolated in the complement) still needs
    # patching, so only the trim pass keeps the result at 2*|base|
    g = Graph(9, [(0, 1), (1, 2), (2, 3), (0, 3),
                  (1, 4), (3, 4), (0, 5), (2, 5), (0, 7), (1, 8),
                  (0, 6), (1, 6), (2, 6), (3, 6), (4, 6), (5, 6),
                  (7, 6), (8, 6)])
    gbar = complement(g)
    assert not find_twins(g) and not find_twins(gbar)
    base = frozenset({0, 1, 2, 3})
    assert exact_min_idcode(g).size == len(base)
    code = complement_code(g, base)
    assert len(code) == 2 * len(base)
    assert is_identifying_code(gbar, sorted(code)).ok
    assert 6 in code, "the complement-isolated vertex can never be dropped"
    # the un-trimmed union is provably one over budget here
    assert exact_min_idcode(gbar).size == 2 * len(base)


@settings(max_examples=200, deadline=None)
@given(twin_free_edge_lists(12, complement_twin_free=True))
def test_complement_code_property(graph):
    # valid on the complement and within twice the base, for the exact
    # base and for the greedy one
    n, edges = graph
    g = Graph(n, edges)
    bar = oracle_complement_edges(n, edges)
    adj = adjacency(n, edges)
    exact = exact_min_idcode(g).code
    assert complement_code(g) == complement_code(g, exact)
    for base in (exact, greedy_idcode(g)):
        code = complement_code(g, base)
        assert oracle_is_identifying(n, bar, code), sorted(base)
        assert len(code) <= 2 * len(base), sorted(base)
        # the classes group the vertices by open trace of the base
        traces = {}
        for v in range(n):
            traces.setdefault(frozenset(adj[v] & base), set()).add(v)
        assert set(equivalence_classes(g, base).classes) == set(map(frozenset, traces.values()))


def test_complement_checks_raise_runtime_error(monkeypatch):
    # the checks must hold under python -O too, so they are not asserts
    mod = importlib.import_module("idcodes.complement")
    real = mod.is_identifying_code
    g = path(4)

    def fails_off_g(h, c):
        return real(h, c) if h is g else Verdict(False, UndominatedVertex(0))

    with monkeypatch.context() as m:
        m.setattr(mod, "is_identifying_code", fails_off_g)
        with pytest.raises(RuntimeError, match="fails on the complement"):
            complement_code(g)
    # a verifier that passes a non-code trips the partition's own checks
    with monkeypatch.context() as m:
        m.setattr(mod, "is_identifying_code", lambda *a: Verdict(True))
        with pytest.raises(RuntimeError, match="adjacent vertices"):
            equivalence_classes(path(3), [])
        with pytest.raises(RuntimeError, match="two members outside"):
            equivalence_classes(Graph(2), [])


def test_complement_code_matches_golden():
    # pinned from the recursive class split that the worklist replaced
    doc = json.loads((GOLDEN / "complement_code.json").read_text())
    graphs = {
        name: g for name, g in small_corpus() if not find_twins(g) and not find_twins(complement(g))
    }
    assert [case["name"] for case in doc["cases"]] == list(graphs)
    for case in doc["cases"]:
        g = graphs[case["name"]]
        assert sorted(complement_code(g)) == case["exact"], case["name"]
        assert sorted(complement_code(g, greedy_idcode(g))) == case["greedy"], case["name"]
    hub = doc["hub_pendants"]
    code = sorted(complement_code(hub_and_pendants(hub["k"]), range(hub["k"] + 1)))
    assert len(code) == hub["size"]
    assert hashlib.sha256(" ".join(map(str, code)).encode()).hexdigest() == hub["sha256"]


def test_complement_code_trusts_the_partition(monkeypatch):
    # equivalence_classes already rejects adjacent members, so every class
    # is a clique of the complement and is not checked again
    mod = importlib.import_module("idcodes.complement")

    def rechecks(gbar, cls):
        raise AssertionError("complement_code called separate_class")

    monkeypatch.setattr(mod, "separate_class", rechecks)
    assert complement_code(path(4)) == complement_code(path(4), exact_min_idcode(path(4)).code)

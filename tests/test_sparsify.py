import hashlib
import importlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idcodes import (
    DegenerateGraphError,
    Graph,
    InfeasibleProbabilityError,
    RetriesExhaustedError,
    SparsifyParams,
    UndominatedVertex,
    Verdict,
    Violation,
    bounded_f,
    check_events,
    complete,
    complete_bipartite,
    cycle,
    disjoint_cliques,
    gnp,
    is_identifying_code,
    pair_collision_frequency,
    pick_code,
    sample_subgraph,
    sparsify,
    star,
)

from idcodes import graphs as graphs_mod
from idcodes.sparsify import _pcg64_state, _stream_words, _Streams

from corpus import SPARSIFY_STEP_CASES, interleaved_graphs, mixed_graph, sparsify_steps
from oracles import (
    adjacency,
    oracle_collision_probability,
    oracle_dist2_pairs,
    oracle_undominated,
    oracle_unseparated,
)


def test_params_validation():
    SparsifyParams()
    for bad in (
        dict(c=0.0),
        dict(c=-1.0),
        dict(max_retries=0),
        dict(seed=-1),
        dict(variant="nope"),
    ):
        with pytest.raises(ValueError):
            SparsifyParams(**bad)


def test_params_reject_nan_c():
    # NaN fails every comparison, so "c <= 0" let it through
    with pytest.raises(ValueError, match="c must be positive"):
        SparsifyParams(c=float("nan"))


def test_degenerate_graphs_rejected():
    lonely = Graph(3, [(0, 1)])
    with pytest.raises(DegenerateGraphError):
        pick_code(lonely, SparsifyParams())
    with pytest.raises(DegenerateGraphError):
        sparsify(lonely, SparsifyParams())


def test_pick_code_clamps_to_everything():
    g = disjoint_cliques(3, 2)
    assert pick_code(g, SparsifyParams(c=66.0, seed=5)) == set(range(8))


def test_pick_code_infeasible_without_clamp():
    g = disjoint_cliques(15, 32)
    with pytest.raises(InfeasibleProbabilityError):
        pick_code(g, SparsifyParams(c=66.0, clamp=False))
    pick_code(g, SparsifyParams(c=2.0, clamp=False))


def test_pick_code_mean_matches_binomial():
    # delta = Delta = 15, n = 160: p = 2*ln(15)/15, np = 57.8
    g = disjoint_cliques(15, 10)
    p = 2 * math.log(15) / 15
    sizes = [len(pick_code(g, SparsifyParams(c=2.0, seed=s))) for s in range(200)]
    mean = sum(sizes) / len(sizes)
    assert abs(mean - 160 * p) <= 0.15 * 160 * p
    assert pick_code(g, SparsifyParams(c=2.0, seed=3)) == pick_code(
        g, SparsifyParams(c=2.0, seed=3)
    )


def test_bounded_f_definition():
    g = disjoint_cliques(7, 2)
    code = [0, 1, 2, 3, 8]
    f = bounded_f(g, code, 0.7)
    cap = 0.7 * math.log(7)
    adj = adjacency(g.n, g.edges())
    for u in range(g.n):
        dcu = len(adj[u] & set(code))
        assert f[u] == pytest.approx(min(cap, dcu))
    assert bounded_f(g, [], 2.0).tolist() == [0.0] * g.n
    for bad in (math.nan, -1.0, math.inf):
        with pytest.raises(ValueError):
            bounded_f(g, code, bad)


def test_bounded_f_code_degrees_multiword():
    # n >= 130 packs each neighborhood into three words
    rng = np.random.default_rng(0)
    for seed in range(3):
        g = gnp(150, 0.1, seed)
        code = sorted(int(v) for v in np.flatnonzero(rng.random(g.n) < 0.4))
        adj = adjacency(g.n, g.edges())
        dc = [len(adj[u] & set(code)) for u in range(g.n)]
        # a cap above every degree leaves the code degrees themselves
        assert bounded_f(g, code, 1000.0).tolist() == dc
        cap = 2.0 * math.log(max(map(len, adj.values())))
        assert bounded_f(g, code, 2.0).tolist() == pytest.approx([min(cap, d) for d in dc])


def test_bounded_f_ratio_monotone():
    g = disjoint_cliques(7, 4)
    code = list(range(0, 32, 3))
    f = bounded_f(g, code, 0.9)
    adj = adjacency(g.n, g.edges())
    ratios = {}
    for u in range(g.n):
        dcu = len(adj[u] & set(code))
        if dcu:
            ratios.setdefault(dcu, f[u] / dcu)
    items = sorted(ratios.items())
    for (d1, r1), (d2, r2) in zip(items, items[1:]):
        assert d1 < d2 and r1 >= r2 - 1e-12


def test_sample_subgraph_empty_code_keeps_everything():
    g = cycle(5)
    h, deleted = sample_subgraph(g, [], bounded_f(g, [], 2.0), seed=1)
    assert h == g and deleted == frozenset()


def test_sample_subgraph_structure_and_determinism():
    g = disjoint_cliques(7, 4)
    code = sorted(pick_code(g, SparsifyParams(c=2.0, seed=0)))
    f = bounded_f(g, code, 2.0)
    h1, f1 = sample_subgraph(g, code, f, seed=9)
    h2, f2 = sample_subgraph(g, code, f, seed=9)
    assert h1 == h2 and f1 == f2
    assert h1.n == g.n
    assert set(h1.edges()) | f1 == set(g.edges())
    cs = set(code)
    for u, v in f1:
        assert u in cs or v in cs, "non-incident edges must survive"


def test_sample_subgraph_rejects_unbounded_f():
    g = cycle(4)
    code = [0, 2]
    f = bounded_f(g, code, 2.0)
    with pytest.raises(ValueError):
        sample_subgraph(g, code, f + 1.0, seed=0)
    with pytest.raises(ValueError):
        sample_subgraph(g, code, f[:2], seed=0)


def test_sample_subgraph_rejects_nan_f():
    g = cycle(4)
    code = [0, 2]
    f = bounded_f(g, code, 2.0)
    f[1] = np.nan
    with pytest.raises(ValueError, match="not bounded"):
        sample_subgraph(g, code, f, seed=0)


def test_sample_subgraph_deletion_rates():
    # code = {1..10}; vertex 0 sits outside with code degree 10 and code
    # vertex 1 has code degree 5, so with cap c*ln(11) = 4 the edge (0,1)
    # is deleted with probability (4/10 + 4/5)/4 = 0.3. Code vertex 7 has
    # no code neighbor, so its term is 0 and p(0,7) = 0.1. The code-free
    # edge (0,11) must never be deleted.
    edges = [(0, w) for w in range(1, 12)] + [(1, w) for w in range(2, 7)]
    g = Graph(12, edges)
    code = list(range(1, 11))
    c = 4 / math.log(11)
    f = bounded_f(g, code, c)
    assert f[0] == pytest.approx(4.0) and f[1] == pytest.approx(4.0)
    trials = 4000
    hits_01 = hits_07 = 0
    for s in range(trials):
        _, deleted = sample_subgraph(g, code, f, seed=s)
        hits_01 += (0, 1) in deleted
        hits_07 += (0, 7) in deleted
        assert (0, 11) not in deleted
    assert abs(hits_01 / trials - 0.3) < 4 * math.sqrt(0.3 * 0.7 / trials)
    assert abs(hits_07 / trials - 0.1) < 4 * math.sqrt(0.1 * 0.9 / trials)


def test_sample_subgraph_halfcap_rate():
    # triangle with full code: f = d_C, so every edge sits at the 1/2 cap
    g = complete(3)
    code = [0, 1, 2]
    f = bounded_f(g, code, 3.0)
    assert f.tolist() == [2.0, 2.0, 2.0]
    dels = sum(len(sample_subgraph(g, code, f, seed=s)[1]) for s in range(2000))
    rate = dels / (2000 * 3)
    assert abs(rate - 0.5) < 0.03


def test_check_events_clean_case():
    g = cycle(6)
    assert check_events(g, g, range(6), 10.0) == []


def test_check_events_twins_give_b_violations():
    g = Graph(2, [(0, 1)])
    out = check_events(g, g, [0], 1.0)
    assert Violation("B", 0, 1) in out


def test_check_events_a_violation_on_starved_center():
    # code {0} on a star: the center has no code neighbor, so its code
    # degree 0 deviates from d*p by d*p >= d*p/2 on every pair it joins
    g = star(4)
    out = check_events(g, g, [0], 0.5)
    a_pairs = [(v.u, v.v) for v in out if v.kind == "A"]
    assert a_pairs == [(0, 1), (0, 2), (0, 3), (0, 4)]


def test_check_events_b_violations_multiword():
    # n >= 130 packs each neighborhood into three words
    found = 0
    for seed in range(3):
        g = gnp(140, 0.08, seed)
        code = sorted(pick_code(g, SparsifyParams(c=0.5, seed=seed)))
        h, _ = sample_subgraph(g, code, bounded_f(g, code, 0.5), seed=seed)
        got = [(x.u, x.v) for x in check_events(g, h, code, 0.5) if x.kind == "B"]
        pairs = oracle_dist2_pairs(g.n, g.edges())
        assert got == oracle_unseparated(h.n, h.edges(), code, pairs)
        found += len(got)
    assert found > 0


@pytest.mark.parametrize(
    "call",
    [
        lambda g, code: bounded_f(g, code, 2.0),
        lambda g, code: sample_subgraph(g, code, np.zeros(g.n), seed=0),
        lambda g, code: check_events(g, g, code, 2.0),
    ],
    ids=["bounded_f", "sample_subgraph", "check_events"],
)
@pytest.mark.parametrize("bad", [-1, 130])
def test_code_vertex_out_of_range_rejected(call, bad):
    with pytest.raises(ValueError, match="out of range"):
        call(cycle(130), [0, bad])


def test_check_events_rejects_non_subgraph():
    with pytest.raises(ValueError):
        check_events(path_graph_4(), cycle(4), [0], 1.0)


@pytest.mark.parametrize("c", [float("nan"), -1.0, float("inf"), float("-inf")])
def test_check_events_rejects_bad_c(c):
    # NaN fails every comparison and would drop every A-violation; a
    # negative c would flag every pair
    g = star(4)
    with pytest.raises(ValueError, match="c must be >= 0 and finite"):
        check_events(g, g, [0], c)


def test_check_events_memory_stays_linear_in_rows_and_edges():
    # K_{2,3000} has ~4.5e6 pairs at distance 2; check_events must meet
    # them one bounded block at a time, never as one list
    g = complete_bipartite(2, 3000)
    words = (g.n + 63) // 64
    tracemalloc.start()
    try:
        out = check_events(g, g, range(g.n), 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == []
    base = g.n * words * 8 + 16 * g.m
    assert peak <= 16 * base, peak / base


def _golden_graphs():
    """The graphs of the three sparsify goldens."""
    docs = {
        name: json.loads((GOLDEN / f"{name}.json").read_text())
        for name in ("sparsify", "sparsify_mixed", "sparsify_streams")
    }
    families = {"disjoint_cliques": disjoint_cliques, "gnp": gnp}
    graphs = [families[fam](*args) for fam, args in docs["sparsify"]["graphs"].values()]
    graphs += [mixed_graph(**spec) for spec in docs["sparsify_mixed"]["graphs"].values()]
    streams = docs["sparsify_streams"]["graphs"]
    graphs.append(mixed_graph(**{k: v for k, v in streams["mixed"].items() if k != "family"}))
    graphs.append(disjoint_cliques(*streams["cliques"]["args"]))
    return graphs


@pytest.mark.parametrize("variant", ["theorem1", "uniform"])
def test_check_events_finds_no_separation_failure_after_sparsify(variant):
    # the rounds' tied-class count and check_events' pair scan agree on
    # the accepted draw
    graphs = _golden_graphs() + [gnp(n, 0.3, seed) for n in (40, 90) for seed in range(3)]
    for g in graphs:
        params = SparsifyParams(c=2.0, seed=5, variant=variant)
        res = sparsify(g, params)
        h = g.delete_edges(res.deleted_edges)
        code = res.code if variant == "theorem1" else res.code | res.dominating
        assert not [x for x in check_events(g, h, code, 2.0) if x.kind == "B"], (g.n, g.m)


@pytest.mark.parametrize("block_words", [None, 8])
def test_check_events_b_pairs_on_interleaved_components(monkeypatch, block_words):
    # the pair blocks map component-local ranks back to vertices, and
    # small blocks split the rows inside components and across them
    if block_words is not None:
        monkeypatch.setattr(graphs_mod, "_BLOCK_WORDS", block_words)
    rng = np.random.default_rng(2)
    found = 0
    for name, g in interleaved_graphs():
        assert len(g.components) > 1
        pairs = oracle_dist2_pairs(g.n, g.edges())
        for seed in range(2):
            code = sorted(rng.choice(g.n, size=g.n // 4, replace=False).tolist())
            h, _ = sample_subgraph(g, code, bounded_f(g, code, 0.5), seed)
            got = [(x.u, x.v) for x in check_events(g, h, code, 0.5) if x.kind == "B"]
            assert got == oracle_unseparated(h.n, h.edges(), code, pairs), (name, seed)
            found += len(got)
    assert found > 0


def path_graph_4():
    return Graph(4, [(0, 1), (1, 2), (2, 3)])


def test_sparsify_h15_seed7_contract():
    g = disjoint_cliques(15, 32)
    res = sparsify(g, SparsifyParams(c=2.0, seed=7, max_retries=1000, variant="theorem1"))
    assert len(res.deleted_edges) > 0
    assert res.retries_used <= 1000
    assert res.final_code == res.code | res.dominating
    h = g.delete_edges(res.deleted_edges)
    assert is_identifying_code(h, sorted(res.final_code)).ok
    cs = res.code
    for u, v in res.deleted_edges:
        assert u in cs or v in cs
    assert res.stats.deleted_edges == len(res.deleted_edges)
    assert res.stats.code_size == len(res.final_code)
    assert res.stats.n_ln_dmax == pytest.approx(512 * math.log(15))
    assert res.stats.n_ln_dmax_over_dmin == pytest.approx(512 * math.log(15) / 15)
    assert len(res.trials) == res.retries_used + 1
    assert [t.trial for t in res.trials] == list(range(len(res.trials)))


def test_sparsify_result_passes_independent_oracle():
    g = disjoint_cliques(7, 4)
    res = sparsify(g, SparsifyParams(c=2.0, seed=1))
    h = g.delete_edges(res.deleted_edges)
    code = sorted(res.final_code)
    assert not oracle_undominated(h.n, h.edges(), code)
    assert not oracle_unseparated(h.n, h.edges(), code)


def test_sparsify_complete_graph():
    g = complete(64)
    res = sparsify(g, SparsifyParams(c=2.0, seed=0))
    assert len(res.final_code) < 64
    h = g.delete_edges(res.deleted_edges)
    assert is_identifying_code(h, sorted(res.final_code)).ok


def test_sparsify_determinism():
    g = disjoint_cliques(7, 8)
    a = sparsify(g, SparsifyParams(c=2.0, seed=5))
    b = sparsify(g, SparsifyParams(c=2.0, seed=5))
    assert a == b
    c = sparsify(g, SparsifyParams(c=2.0, seed=6))
    assert a.deleted_edges != c.deleted_edges or a.code != c.code


def test_sparsify_retries_exhausted():
    g = complete(64)
    with pytest.raises(RetriesExhaustedError) as err:
        sparsify(g, SparsifyParams(c=2.0, seed=0, max_retries=1))
    last = err.value.last_trial
    assert last.trial == 1
    assert last.b_violations > 0


def test_sparsify_infeasible_without_clamp():
    g = disjoint_cliques(15, 32)
    with pytest.raises(InfeasibleProbabilityError):
        sparsify(g, SparsifyParams(c=66.0, clamp=False))


def test_sparsify_uniform_contract_and_deletion_mean():
    g = disjoint_cliques(15, 32)
    fs, quarters = [], []
    for s in range(200):
        res = sparsify(g, SparsifyParams(c=2.0, seed=s, variant="uniform"))
        h = g.delete_edges(res.deleted_edges)
        assert res.final_code == res.code | res.dominating
        fs.append(len(res.deleted_edges))
        cs = res.code
        incident = sum(1 for u, v in g.edges() if u in cs or v in cs)
        quarters.append(incident / 4)
    mean_f = sum(fs) / len(fs)
    mean_q = sum(quarters) / len(quarters)
    assert abs(mean_f - mean_q) <= 0.15 * mean_q
    res = sparsify(g, SparsifyParams(c=2.0, seed=0, variant="uniform"))
    assert res == sparsify(g, SparsifyParams(c=2.0, seed=0, variant="uniform"))


def test_sparsify_uniform_clamped_code_is_everything():
    g = disjoint_cliques(3, 2)
    res = sparsify(g, SparsifyParams(c=66.0, seed=2, variant="uniform"))
    assert res.code == set(range(8))


def test_pair_collision_frequency_validation():
    g = cycle(6)
    with pytest.raises(ValueError):
        pair_collision_frequency(g, [2], 2.0, 0, 1)  # adjacent
    with pytest.raises(ValueError):
        pair_collision_frequency(g, [2], 2.0, 0, 3)  # distance 3
    with pytest.raises(ValueError, match="distance exactly 2"):
        pair_collision_frequency(g, [2, 5], 2.0, 1, 1, 2000, 0)  # u == v
    with pytest.raises(ValueError):
        pair_collision_frequency(g, [2], 2.0, 0, 2, trials=0)
    for bad in (math.nan, -1.0):
        with pytest.raises(ValueError):
            pair_collision_frequency(g, [2, 5], bad, 1, 3)


def test_pair_collision_frequency_rejects_out_of_range_vertices():
    g = cycle(6)
    for u, v in ((-1, 1), (1, -1), (0, 9), (9, 0)):
        with pytest.raises(ValueError, match="out of range"):
            pair_collision_frequency(g, [2], 2.0, u, v)


def test_pair_collision_frequency_code_endpoint_is_zero():
    g = cycle(6)
    assert pair_collision_frequency(g, [1, 3], 2.0, 1, 3) == 0.0


def _terms(g, code, c):
    adj = adjacency(g.n, g.edges())
    cap = c * math.log(max(len(adj[v]) for v in range(g.n)))
    term = {}
    for v in range(g.n):
        dcv = len(adj[v] & set(code))
        term[v] = min(cap, dcv) / dcv if dcv else 0.0
    return term


@pytest.mark.parametrize(
    "code,pair",
    [
        ([2, 5], (1, 3)),
        ([0, 2, 4], (1, 3)),
        ([2], (1, 3)),
    ],
)
def test_pair_collision_frequency_matches_exact_oracle(code, pair):
    g = cycle(6)
    u, v = pair
    exact = oracle_collision_probability(
        g.n, g.edges(), code, _terms(g, code, 2.0), u, v
    )
    freq = pair_collision_frequency(g, code, 2.0, u, v, trials=10_000, seed=0)
    se = math.sqrt(max(exact * (1 - exact), 1e-9) / 10_000)
    assert abs(freq - exact) <= 4 * se + 1e-9
    again = pair_collision_frequency(g, code, 2.0, u, v, trials=10_000, seed=0)
    assert freq == again


def test_pair_collision_frequency_nontrivial_band():
    # common neighbor only: survive-survive plus drop-drop = 0.625
    g = cycle(6)
    freq = pair_collision_frequency(g, [2, 5], 2.0, 1, 3, trials=10_000, seed=1)
    assert 0.58 <= freq <= 0.67


GOLDEN = Path(__file__).parent / "golden"


def test_sparsify_matches_golden():
    # pinned from the per-edge Python Graph before the array-backed one
    doc = json.loads((GOLDEN / "sparsify.json").read_text())
    families = {"disjoint_cliques": disjoint_cliques, "gnp": gnp}
    graphs = {key: families[fam](*args) for key, (fam, args) in doc["graphs"].items()}
    assert len(doc["results"]) == 12
    for case in doc["results"]:
        params = SparsifyParams(c=case["c"], seed=case["seed"], variant=case["variant"])
        res = sparsify(graphs[case["graph"]], params)
        got = {
            **case,
            "final_code": sorted(res.final_code),
            "deleted_edges": [list(e) for e in sorted(res.deleted_edges)],
            "trials": [
                [t.trial, t.code_size, t.deleted, t.a_violations, t.b_violations]
                for t in res.trials
            ],
        }
        assert json.dumps(got) == json.dumps(case), (case["graph"], case["variant"], case["seed"])


def test_sparsify_mixed_components_match_golden():
    # pinned from the per-component Python round loop; component sizes
    # straddle the 64-bit word boundaries
    doc = json.loads((GOLDEN / "sparsify_mixed.json").read_text())
    graphs = {key: mixed_graph(**spec) for key, spec in doc["graphs"].items()}
    for key, spec in doc["graphs"].items():
        assert sorted(map(len, graphs[key].components)) == sorted(spec["sizes"])
    assert len(doc["results"]) == 12
    for case in doc["results"]:
        params = SparsifyParams(c=case["c"], seed=case["seed"], variant=case["variant"])
        res = sparsify(graphs[case["graph"]], params)
        got = {
            **case,
            "final_code": sorted(res.final_code),
            "code": sorted(res.code),
            "dominating": sorted(res.dominating),
            "deleted_edges": [list(e) for e in sorted(res.deleted_edges)],
            "retries_used": res.retries_used,
            "trials": [
                [t.trial, t.code_size, t.deleted, t.a_violations, t.b_violations]
                for t in res.trials
            ],
        }
        assert json.dumps(got) == json.dumps(case), (case["graph"], case["variant"], case["seed"])
    assert len(doc["exhausted"]) == 2
    for case in doc["exhausted"]:
        params = SparsifyParams(
            c=case["c"], seed=case["seed"], max_retries=case["max_retries"], variant=case["variant"]
        )
        with pytest.raises(RetriesExhaustedError) as err:
            sparsify(graphs[case["graph"]], params)
        t = err.value.last_trial
        assert str(err.value) == case["message"]
        got = [t.trial, t.code_size, t.deleted, t.a_violations, t.b_violations]
        assert got == case["last_trial"]


def test_sparsify_steps_match_golden():
    # pinned from the step-by-step API before its deletion rule was shared
    # with the sparsify round and check_events streamed its pair blocks
    doc = json.loads((GOLDEN / "sparsify_steps.json").read_text())
    assert [
        (case["family"], tuple(case["args"]), case["c"], case["seed"]) for case in doc["cases"]
    ] == list(SPARSIFY_STEP_CASES)
    for case in doc["cases"]:
        got = sparsify_steps(case["family"], case["args"], case["c"], case["seed"])
        assert json.dumps(got) == json.dumps(case), (case["family"], case["args"])


def _stream_digest(res):
    doc = {
        "code": sorted(res.code),
        "final_code": sorted(res.final_code),
        "deleted_edges": [list(e) for e in sorted(res.deleted_edges)],
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def test_sparsify_streams_match_golden():
    # pinned from one default_rng((seed, component, round)) per active
    # component per round; seeds past 2**32 seed with several words
    doc = json.loads((GOLDEN / "sparsify_streams.json").read_text())
    specs = doc["graphs"]
    graphs = {
        "mixed": mixed_graph(**{k: v for k, v in specs["mixed"].items() if k != "family"}),
        "cliques": disjoint_cliques(*specs["cliques"]["args"]),
    }
    assert len(doc["results"]) == 4 * len(doc["seeds"]) == 272
    for case in doc["results"]:
        params = SparsifyParams(c=doc["c"], seed=case["seed"], variant=case["variant"])
        res = sparsify(graphs[case["graph"]], params)
        got = {
            **case,
            "accept_rounds": list(res.accept_rounds),
            "trials": [
                [t.trial, t.code_size, t.deleted, t.a_violations, t.b_violations]
                for t in res.trials
            ],
            "sha256": _stream_digest(res),
        }
        assert got == case, (case["graph"], case["variant"], case["seed"])
    assert len(doc["exhausted"]) == 2
    for case in doc["exhausted"]:
        params = SparsifyParams(
            c=doc["c"], seed=case["seed"], max_retries=case["max_retries"], variant=case["variant"]
        )
        with pytest.raises(RetriesExhaustedError) as err:
            sparsify(graphs[case["graph"]], params)
        t = err.value.last_trial
        assert str(err.value) == case["message"]
        assert [t.trial, t.code_size, t.deleted, t.a_violations, t.b_violations] == case["last_trial"]


# seeds of one entropy word, two, and many
STREAM_SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64]),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**200),
)
WORD = st.integers(0, 2**32 - 1)


@settings(max_examples=300, deadline=None)
@given(STREAM_SEEDS, WORD, WORD)
def test_stream_state_equals_default_rng(seed, i, r):
    words = _stream_words(seed, np.array([i]), np.array([r]))
    want = np.random.default_rng((seed, i, r)).bit_generator.state
    assert _pcg64_state(words[0, 0].tolist()) == want


@settings(max_examples=150, deadline=None)
@given(
    STREAM_SEEDS,
    st.lists(WORD, min_size=1, max_size=6, unique=True),
    st.integers(0, 10**6),
    st.data(),
)
def test_streams_draw_what_default_rng_draws(seed, comps, r, data):
    # two rounds of one block, the second over a subset of the components
    active = np.array(sorted(comps))
    streams = _Streams(seed)
    for rnd in (r, r + 1):
        k = len(active)
        heads = np.array(data.draw(st.lists(st.integers(0, 40), min_size=k, max_size=k)))
        spare = np.array(data.draw(st.lists(st.integers(0, 600), min_size=k, max_size=k)))
        counts = np.array([data.draw(st.integers(0, s)) for s in spare.tolist()])
        first, rest = streams.start(active, rnd, heads, spare), streams.rest(counts)
        gens = [np.random.default_rng((seed, i, rnd)) for i in active.tolist()]
        want_first = np.concatenate([g.random(h) for g, h in zip(gens, heads)])
        want_rest = np.concatenate([g.random(c) for g, c in zip(gens, counts)])
        assert first.tolist() == want_first.tolist()
        assert rest.tolist() == want_rest.tolist()
        active = active[::2]


def test_sparsify_builds_no_generator_per_stream(monkeypatch):
    # 32 components redrawn over several rounds, and not one default_rng
    real = np.random.default_rng
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", spy)
    g = disjoint_cliques(15, 32)
    for seed in (1, 2**32 + 1):
        for variant in ("theorem1", "uniform"):
            res = sparsify(g, SparsifyParams(c=2.0, seed=seed, variant=variant))
            assert len(res.trials) > 1
    assert calls == []


@pytest.mark.parametrize("variant", ["theorem1", "uniform"])
def test_accept_rounds_replay_the_trials(variant):
    # component i keeps the draw of round min(r, accept_rounds[i]) at round
    # r, so redrawing those codes must give every trial's code size
    g = mixed_graph((3, 17, 64, 65, 130), (1.0,) * 5, 11)
    comps = g.components
    dmin, dmax = min(g.degrees), max(g.degrees)
    for seed in range(3):
        params = SparsifyParams(c=2.0, seed=seed, variant=variant)
        res = sparsify(g, params)
        acc = res.accept_rounds
        assert len(acc) == len(comps)
        assert max(acc) == res.retries_used == len(res.trials) - 1
        scale = math.log(dmax) if variant == "theorem1" else math.log(g.n)
        p = min(1.0, 2.0 * scale / dmin)
        for t in res.trials:
            r = t.trial
            active = [i for i in range(len(comps)) if acc[i] >= r]
            assert active, r
            assert (t.b_violations == 0) == (r == res.retries_used)
            size = 0
            for i, comp in enumerate(comps):
                draw_round = min(r, acc[i])
                draws = np.random.default_rng((seed, i, draw_round)).random(len(comp))
                size += int(np.count_nonzero(draws < p))
            assert t.code_size == size, (seed, r)


def test_sparsify_raises_when_its_final_check_fails(monkeypatch):
    # the check must hold under python -O too, so it is not an assert;
    # `idcodes.sparsify` itself names the function, hence the import
    module = importlib.import_module("idcodes.sparsify")
    monkeypatch.setattr(
        module, "is_identifying_code", lambda *a: Verdict(False, UndominatedVertex(0))
    )
    with pytest.raises(RuntimeError, match="valid code"):
        sparsify(disjoint_cliques(4, 8), SparsifyParams(c=2.0, seed=1))


def test_sparsify_child_inherits_the_parents_rows(monkeypatch):
    # on a connected graph the parent's rows are its component-local rows,
    # and the sparsified child copies them with the deleted bits cleared:
    # one pack per run. A graph of several components never builds its
    # global rows before the child, so the child packs its own: the
    # parent's local rows, its global rows for the greedy dominating set
    # (at most 64 vertices), and the child's
    packs = []
    real = Graph._pack

    def spy(self, *args):
        packs.append(self.n)
        return real(self, *args)

    monkeypatch.setattr(Graph, "_pack", spy)
    for g, want in ((gnp(60, 0.5, 1), 1), (disjoint_cliques(9, 4), 3)):
        assert (len(g.components) == 1) == (want == 1)
        for seed in range(3):
            packs.clear()
            res = sparsify(Graph(g.n, g.edge_array()), SparsifyParams(c=2.0, seed=seed))
            assert res.stats.deleted_edges > 0
            assert len(packs) == want, (g, seed, packs)


def test_sparsify_final_check_reads_rows_apart_from_the_round_edits(monkeypatch):
    # with the round loop's bit edits switched off, no round sees a
    # separation failure, so round 0 is accepted unchecked; the final
    # verification reads the child's own rows, not the loop's, and so
    # catches the invalid code
    module = importlib.import_module("idcodes.sparsify")
    g = gnp(60, 0.5, 1)
    params = [SparsifyParams(c=0.5, seed=seed) for seed in range(4)]
    for prm in params:
        sparsify(g, prm)  # valid codes while the edits are in place
    monkeypatch.setattr(module, "_toggle_bits", lambda rows, at, cols: None)
    failed = 0
    for prm in params:
        try:
            res = sparsify(g, prm)
        except RuntimeError as exc:
            assert str(exc).startswith("accepted rounds must yield a valid code"), exc
            failed += 1
        else:
            assert res.retries_used == 0
    assert failed >= 1


def test_sparsify_counts_code_degrees_without_neighbor_counts(monkeypatch):
    # a round takes its code degrees from the local rows it gathers anyway,
    # never from a CSR segment sum
    calls = []
    real = Graph.neighbor_counts

    def spy(self, *args):
        calls.append(len(args))
        return real(self, *args)

    monkeypatch.setattr(Graph, "neighbor_counts", spy)
    mixed = mixed_graph((3, 17, 64, 65, 130), (1.0, 0.5, 0.3, 0.6, 0.2), 11)
    for g in (disjoint_cliques(15, 32), mixed):
        for variant in ("theorem1", "uniform"):
            res = sparsify(g, SparsifyParams(c=2.0, seed=1, variant=variant))
            assert len(res.trials) > 1
    assert calls == []


@pytest.mark.parametrize("variant", ["theorem1", "uniform"])
def test_sparsify_memory_stays_linear_in_rows_and_edges(variant):
    # K_{2,3000} has ~4.5e6 pairs at distance 2, all between leaves; the
    # run must stay within O(n W + m), never hold a list of those pairs
    g = complete_bipartite(2, 3000)
    words = (g.n + 63) // 64
    tracemalloc.start()
    try:
        res = sparsify(g, SparsifyParams(variant=variant))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.retries_used == 0
    base = g.n * words * 8 + 16 * g.m
    assert peak <= 16 * base, peak / base

"""Acceptance checks, one test per numbered criterion.

Every test computes its verdict first, records a PASS/FAIL line through
the conftest reporter (so the scorecard prints even when a criterion
fails), then asserts. Tolerances and sample counts are stated inline;
seeded operations use fixed seeds so reruns are byte-identical.
"""

import itertools
import json
import math
import statistics
import subprocess
import sys
import time

import numpy as np
import pytest

from idcodes import (
    Graph,
    NotTwinFreeError,
    SparsifyParams,
    UndominatedVertex,
    alpha0,
    bipartite_subgraph_bound,
    bounded_f,
    chernoff_constant,
    complement,
    complement_code,
    cycle,
    degree_stats,
    disjoint_cliques,
    exact_min_idcode,
    find_twins,
    gnp,
    gnp_idcode_prediction,
    greedy_idcode,
    idcode_lower_bound,
    is_identifying_code,
    pair_collision_frequency,
    path,
    pick_code,
    sample_subgraph,
    sparsify,
    star,
    to_dot,
    verify_watching,
    watching_binary,
    watching_from_subgraph_code,
    write_edge_list,
)
from corpus import small_corpus
from oracles import oracle_dist2_pairs, oracle_min_idcode, oracle_witness


@pytest.fixture(scope="module")
def corpus_gamma():
    """Exact optimum for every corpus graph, solver vs enumeration.

    Yields (rows, mismatches, elapsed): rows holds (name, graph, size)
    with size None where the graph has twins. A mismatch is any
    disagreement between the branch-and-bound solver and plain
    smallest-first subset enumeration, including twin detection.
    """
    start = time.perf_counter()
    rows = []
    mismatches = 0
    for name, g in small_corpus():
        ref = oracle_min_idcode(g.n, g.edges())
        try:
            res = exact_min_idcode(g)
            got = len(res.code)
            valid = res.optimal and is_identifying_code(g, sorted(res.code)).ok
        except NotTwinFreeError:
            got = None
            valid = True
        if (ref is None) != (got is None):
            mismatches += 1
        elif ref is not None and (got != len(ref) or not valid):
            mismatches += 1
        rows.append((name, g, None if ref is None else len(ref)))
    return rows, mismatches, time.perf_counter() - start


def test_criterion_01_exact_matches_enumeration(criterion_log, corpus_gamma):
    rows, mismatches, elapsed = corpus_gamma
    twin_free = sum(1 for _, _, size in rows if size is not None)
    ok = len(rows) >= 500 and mismatches == 0 and elapsed < 60.0
    criterion_log(
        1,
        ok,
        f"solver == enumeration on {twin_free} twin-free of {len(rows)} "
        f"corpus graphs, mismatches={mismatches}, {elapsed:.1f}s (< 60s)",
    )
    assert len(rows) >= 500
    assert mismatches == 0
    assert elapsed < 60.0


def test_criterion_02_log_sandwich(criterion_log, corpus_gamma):
    rows, _, _ = corpus_gamma
    violations = 0
    checked = 0
    for _, g, size in rows:
        if size is None:
            continue
        checked += 1
        if not idcode_lower_bound(g.n) <= size <= g.n - 1:
            violations += 1
    ok = violations == 0 and checked > 0
    criterion_log(
        2,
        ok,
        f"ceil(log2(n+1)) <= optimum <= n-1 on {checked} twin-free "
        f"corpus graphs, violations={violations}",
    )
    assert ok


def test_criterion_03_dist2_equivalence(criterion_log):
    # both modes run one check, so each verdict is also held to the
    # oracle's least failure, once over all pairs and once over the pairs
    # at distance <= 2 only: the distance-2 lemma (Karpovsky, Chakrabarty
    # and Levitin 1998) checked against code the library does not share
    disagreements = 0
    checked = 0

    def as_oracle(verdict):
        w = verdict.witness
        if w is None:
            return None
        if isinstance(w, UndominatedVertex):
            return ("undominated", w.v)
        return ("unseparated", w.u, w.v)

    def agree(g, code, near_pairs):
        full = is_identifying_code(g, code, "full")
        near = is_identifying_code(g, code, "dist2")
        edges = g.edges()
        want = oracle_witness(g.n, edges, code)
        want_near = oracle_witness(g.n, edges, code, near_pairs)
        return (
            (full.ok, full.witness) == (near.ok, near.witness)
            and as_oracle(full) == want == want_near
            and full.ok == (want is None)
        )

    for _, g in small_corpus():
        near_pairs = oracle_dist2_pairs(g.n, g.edges())
        for k in range(5):
            for code in itertools.combinations(range(g.n), k):
                checked += 1
                if not agree(g, code, near_pairs):
                    disagreements += 1
    for i in range(1000):
        g = gnp(30, 0.2, seed=20_000 + i)
        rng = np.random.default_rng((3, i))
        size = int(rng.integers(0, g.n + 1))
        code = sorted(int(v) for v in rng.choice(g.n, size=size, replace=False))
        checked += 1
        if not agree(g, code, oracle_dist2_pairs(g.n, g.edges())):
            disagreements += 1
    ok = disagreements == 0
    criterion_log(
        3,
        ok,
        f"full vs dist2 verdicts identical, and equal to the oracle's over all "
        f"pairs and over distance-2 pairs, on {checked} (graph, code) pairs, "
        f"disagreements={disagreements}",
    )
    assert ok


def test_criterion_04_edge_deletion_sensitivity(criterion_log, corpus_gamma):
    rows, _, _ = corpus_gamma
    violations = 0
    checked = 0
    for _, g, size in rows:
        if size is None:
            continue
        for e in g.edges():
            h = g.delete_edges([e])
            if find_twins(h):
                continue
            checked += 1
            if size > len(exact_min_idcode(h).code) + 2:
                violations += 1
    ok = violations == 0 and checked > 0
    criterion_log(
        4,
        ok,
        f"optimum(g) <= optimum(g minus e) + 2 on {checked} "
        f"(graph, edge) pairs, violations={violations}",
    )
    assert ok


def test_criterion_05_sparsify_soundness(criterion_log):
    g = disjoint_cliques(15, 32)
    assert g.n == 512
    start = time.perf_counter()
    invalid = 0
    prompt = 0
    for seed in range(100):
        res = sparsify(g, SparsifyParams(c=2.0, seed=seed))
        h = g.delete_edges(res.deleted_edges)
        if not is_identifying_code(h, sorted(res.final_code), "full").ok:
            invalid += 1
        if res.retries_used <= 50:
            prompt += 1
    elapsed = time.perf_counter() - start
    ok = invalid == 0 and prompt >= 95 and elapsed < 30.0
    criterion_log(
        5,
        ok,
        f"100 seeded runs on 32 disjoint 16-cliques: invalid={invalid}, "
        f"retries<=50 in {prompt}/100 (>=95), {elapsed:.1f}s (< 30s)",
    )
    assert invalid == 0
    assert prompt >= 95
    assert elapsed < 30.0


def test_criterion_06_scaling_trend(criterion_log):
    medians = {}
    for delta, cliques in ((7, 64), (15, 32), (31, 16)):
        g = disjoint_cliques(delta, cliques)
        assert 384 <= g.n <= 640
        _, dmax = degree_stats(g)
        norm = []
        for seed in range(20):
            res = sparsify(g, SparsifyParams(c=2.0, seed=seed))
            norm.append(len(res.final_code) * delta / (g.n * math.log(dmax)))
        medians[delta] = statistics.median(norm)
    in_band = all(0.5 <= m <= 20.0 for m in medians.values())
    m7, m15, m31 = medians[7], medians[15], medians[31]
    runaway = m7 < m15 < m31 and m31 > 2.0 * m7
    ok = in_band and not runaway
    criterion_log(
        6,
        ok,
        "median normalized code size "
        f"{m7:.2f}/{m15:.2f}/{m31:.2f} for degree 7/15/31, "
        f"band [0.5, 20], no monotone blowup past 2x",
    )
    assert in_band
    assert not runaway


def _circulant_15_regular() -> Graph:
    """48 vertices, offsets 1..7 plus the antipode: 15-regular."""
    edges = set()
    for v in range(48):
        for off in (1, 2, 3, 4, 5, 6, 7, 24):
            w = (v + off) % 48
            edges.add((min(v, w), max(v, w)))
    return Graph(48, sorted(edges))


def test_criterion_07_collision_tail(criterion_log):
    g = _circulant_15_regular()
    assert degree_stats(g) == (15, 15)
    u, v = 0, 9
    configs = (
        ({2, 3, 4, 5, 6, 7}, 101),
        ({1, 2, 3, 4, 5, 6, 7, 10}, 102),
        ({2, 3, 4}, 103),
        ({1, 2, 3, 4, 5, 6, 7, 10, 14, 45}, 104),
        ({5, 6, 7, 24, 33}, 105),
    )
    trials = 10_000
    passes = 0
    worst = 0.0
    for code, seed in configs:
        nbr_u = set(g.closed_neighborhood(u)) - {u}
        nbr_v = set(g.closed_neighborhood(v)) - {v}
        assert len(nbr_u & code) == len(nbr_v & code), "configs keep code degrees equal"
        f = bounded_f(g, sorted(code), 2.0)
        freq = pair_collision_frequency(g, sorted(code), 2.0, u, v, trials, seed)
        bound = math.exp(-3.0 * f[u] / 16.0)
        se = math.sqrt(max(freq * (1.0 - freq), 1e-12) / trials)
        if freq <= bound + 3.0 * se:
            passes += 1
        worst = max(worst, freq - bound)
    ok = passes == len(configs)
    criterion_log(
        7,
        ok,
        f"collision frequency under exp(-3f/16) + 3se in {passes}/5 "
        f"configurations (10k draws each), worst margin {worst:+.3f}",
    )
    assert ok


def test_criterion_08_complement_code(criterion_log):
    start = time.perf_counter()
    seed = 0
    collected = 0
    bad = 0
    while collected < 100:
        g = gnp(10, 0.5, seed)
        seed += 1
        gc = complement(g)
        if find_twins(g) or find_twins(gc):
            continue
        collected += 1
        code = complement_code(g)
        base = len(exact_min_idcode(g).code)
        best = len(exact_min_idcode(gc).code)
        valid = is_identifying_code(gc, sorted(code)).ok
        if not valid or len(code) > 2 * base or len(code) < best:
            bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < 60.0
    criterion_log(
        8,
        ok,
        f"100 double twin-free G(10, 1/2) draws: complement code valid "
        f"and <= 2x optimum, failures={bad}, {elapsed:.1f}s (< 60s)",
    )
    assert bad == 0
    assert elapsed < 60.0


def test_criterion_09_star_subgraph_floor(criterion_log):
    base = star(4)
    all_edges = base.edges()
    assert len(all_edges) == 4
    twin_free = 0
    violations = 0
    for mask in range(16):
        kept = [e for i, e in enumerate(all_edges) if mask >> i & 1]
        h = Graph(5, kept)
        if find_twins(h):
            continue
        twin_free += 1
        got = len(exact_min_idcode(h).code)
        ref = oracle_min_idcode(5, kept)
        if ref is None or got != len(ref) or got < bipartite_subgraph_bound(1):
            violations += 1
    ok = violations == 0 and bipartite_subgraph_bound(1) == 2
    criterion_log(
        9,
        ok,
        f"optimum >= 2 on all {twin_free} twin-free spanning subgraphs "
        f"of the 4-leaf star (16 total), violations={violations}",
    )
    assert ok


def test_criterion_10_numeric_windows(criterion_log):
    checks = [
        1.0 / 3.0 < chernoff_constant(1.0) < 0.3864,
        1.0 / 10.0 < chernoff_constant(0.5) < 0.1083,
        abs(alpha0(0.0) - 0.5) <= 1e-9,
        abs(alpha0(1.0) - 0.171) <= 1e-3,
        abs(gnp_idcode_prediction(1000, 0.5) - 19.93) <= 0.01,
    ]
    ok = all(checks)
    criterion_log(
        10,
        ok,
        f"{sum(checks)}/5 numeric windows hit: chernoff constants, "
        f"alpha0 endpoints, random-graph size prediction",
    )
    assert ok


def test_criterion_11_gnp_bracketing(criterion_log):
    lo, hi = 6.66, 3 * 13.29
    passes = 0
    sizes = []
    for seed in range(20):
        size = len(greedy_idcode(gnp(100, 0.5, seed)))
        sizes.append(size)
        if lo <= size <= hi:
            passes += 1
    ok = passes == 20
    criterion_log(
        11,
        ok,
        f"greedy size on G(100, 1/2) within [6.66, 39.87] in "
        f"{passes}/20 samples (sizes {min(sizes)}..{max(sizes)})",
    )
    assert ok


def _disjoint_stars(leaves: int, copies: int) -> Graph:
    per = leaves + 1
    edges = [
        (c * per, c * per + i) for c in range(copies) for i in range(1, per)
    ]
    return Graph(per * copies, edges)


def test_criterion_12_watching(criterion_log):
    g = _disjoint_stars(6, 3)
    centers = [0, 7, 14]
    binary = watching_binary(g, centers)
    binary_ok = binary.size() == 9 and verify_watching(g, binary).ok

    big = disjoint_cliques(15, 32)
    res = sparsify(big, SparsifyParams(c=2.0, seed=5))
    h = big.delete_edges(res.deleted_edges)
    from_code = watching_from_subgraph_code(big, h, res.final_code)
    code_ok = verify_watching(big, from_code).ok

    ok = binary_ok and code_ok
    criterion_log(
        12,
        ok,
        f"binary system on 3 disjoint 6-leaf stars has size "
        f"{binary.size()} (= 9) and verifies; sparsified-code system "
        f"on 512 vertices verifies={code_ok}",
    )
    assert binary_ok
    assert code_ok


def test_criterion_13_determinism(criterion_log, tmp_path):
    g = disjoint_cliques(7, 8)
    params = SparsifyParams(c=2.0, seed=11)
    f = bounded_f(g, range(g.n), 2.0)
    hexa = cycle(6)

    def cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "idcodes.cli", *args],
            capture_output=True,
            text=True,
            check=True,
        ).stdout

    cfg = tmp_path / "exp.json"
    cfg.write_text(
        json.dumps(
            {
                "families": [{"kind": "hdelta", "delta": 7, "cliques": 8}],
                "c": 2.0,
                "trials": 2,
                "master_seed": 4,
            }
        )
    )
    spars_args = (
        "sparsify", "--family", "hdelta", "--delta", "7", "--cliques", "8",
        "--const-c", "2", "--seed", "6",
    )
    checks = {
        "gnp edges": gnp(50, 0.3, 7).edges() == gnp(50, 0.3, 7).edges(),
        "pick_code": pick_code(g, params) == pick_code(g, params),
        "sample_subgraph": sample_subgraph(g, range(g.n), f, 3)
        == sample_subgraph(g, range(g.n), f, 3),
        "sparsify result": sparsify(g, params) == sparsify(g, params),
        "collision frequency": pair_collision_frequency(hexa, [2, 5], 2.0, 1, 3)
        == pair_collision_frequency(hexa, [2, 5], 2.0, 1, 3),
        "greedy code": greedy_idcode(cycle(7)) == greedy_idcode(cycle(7)),
        "exact code": exact_min_idcode(path(7)).code
        == exact_min_idcode(path(7)).code,
        "serialization": (write_edge_list(g), to_dot(hexa))
        == (write_edge_list(g), to_dot(hexa)),
        "cli sparsify": cli(*spars_args) == cli(*spars_args),
        "cli experiment": cli("experiment", "--config", str(cfg))
        == cli("experiment", "--config", str(cfg)),
    }
    good = sum(checks.values())
    ok = good == len(checks)
    failed = [k for k, val in checks.items() if not val]
    criterion_log(
        13,
        ok,
        f"{good}/{len(checks)} repeated seeded runs byte-identical"
        + (f" (failed: {', '.join(failed)})" if failed else ""),
    )
    assert ok, failed

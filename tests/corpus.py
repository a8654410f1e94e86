"""Fixed corpus of small labeled graphs shared across tests.

Contents: every tree on 2..7 vertices (networkx's nonisomorphic
enumeration, one labeling each), classic families up to 7 vertices, and a
seeded G(n,p) sweep; `mixed_graph` builds larger graphs whose components
interleave. Every graph has at least one edge, so the classical
identifying-code bounds apply whenever the graph is twin-free; empty
random draws are redrawn with a deterministic seed offset.
"""

import hashlib
import json
from functools import lru_cache

import networkx as nx
import numpy as np

from idcodes import (
    Graph,
    SparsifyParams,
    bounded_f,
    check_events,
    complete,
    complete_bipartite,
    connected_cliques,
    cycle,
    disjoint_cliques,
    dist2_pairs,
    gnp,
    pair_collision_frequency,
    path,
    pick_code,
    sample_subgraph,
    star,
)

GNP_SIZES = (4, 5, 6, 7)
GNP_PROBS = (0.25, 0.5, 0.75)
GNP_SEEDS = 40


def trees_up_to_7():
    out = []
    for n in range(2, 8):
        for i, t in enumerate(nx.nonisomorphic_trees(n)):
            edges = sorted(tuple(sorted(e)) for e in t.edges())
            out.append((f"tree{n}_{i}", Graph(n, edges)))
    return out


def classic_families():
    out = []
    for n in range(2, 8):
        out.append((f"path{n}", path(n)))
        out.append((f"complete{n}", complete(n)))
    for n in range(3, 8):
        out.append((f"cycle{n}", cycle(n)))
    for s in range(1, 7):
        out.append((f"star{s}", star(s)))
    for r in range(1, 4):
        for s in range(r, 8 - r):
            out.append((f"bipartite{r}_{s}", complete_bipartite(r, s)))
    out.append(("cliques1x2", disjoint_cliques(1, 2)))
    out.append(("cliques1x3", disjoint_cliques(1, 3)))
    out.append(("cliques2x2", disjoint_cliques(2, 2)))
    out.append(("chain2x2", connected_cliques(2, 2)))
    return out


def gnp_sweep():
    out = []
    for n in GNP_SIZES:
        for p in GNP_PROBS:
            for i in range(GNP_SEEDS):
                seed = i
                g = gnp(n, p, seed)
                while g.m == 0:
                    seed += 1000
                    g = gnp(n, p, seed)
                out.append((f"gnp{n}_{int(p * 100)}_{i}", g))
    return out


@lru_cache(maxsize=1)
def small_corpus():
    """All (name, graph) pairs; at least 500 of them, n <= 7 throughout."""
    return tuple(trees_up_to_7() + classic_families() + gnp_sweep())


def mixed_graph(sizes, densities, seed):
    """One random connected subgraph per component (each pair kept with the
    component's density, plus a Hamiltonian path), with the vertex labels
    randomly permuted so that the components interleave."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    perm = rng.permutation(n)
    parts, base = [], 0
    for s, d in zip(sizes, densities):
        iu, iv = np.triu_indices(s, 1)
        keep = (rng.random(len(iu)) < d) | (iv == iu + 1)
        parts.append(np.stack((perm[base + iu[keep]], perm[base + iv[keep]]), axis=1))
        base += s
    return Graph(n, np.concatenate(parts))


def interleaved_graphs():
    """(name, graph) pairs of over 64 vertices whose components
    interleave, some of them wider than one 64-bit word."""
    yield "straddle", mixed_graph((3, 17, 64, 65, 130), (1.0, 0.3, 0.2, 0.1, 0.05), 3)
    yield "sparse_big", mixed_graph((70, 129, 5), (0.02, 0.02, 0.5), 4)
    # one component is a single edge
    yield "single_edge", mixed_graph((2, 66, 9, 131), (1.0, 0.1, 0.4, 0.04), 5)


# the cycles and G(n, p) shapes of the greedy-sparse benchmark workload,
# plus one long cycle; seeds 0-2 of each shape are twin-free
GREEDY_PICK_CASES = (
    [("cycle", (n,)) for n in (190, 230, 240, 4000)]
    + [
        ("gnp", (n, p, seed))
        for n, p in ((300, 0.03), (330, 0.04), (350, 0.05), (380, 0.05), (400, 0.03), (400, 0.02))
        for seed in range(3)
    ]
)


def greedy_pick_graphs():
    """(family, args, graph) for each of GREEDY_PICK_CASES."""
    families = {"cycle": cycle, "gnp": gnp}
    return [(family, args, families[family](*args)) for family, args in GREEDY_PICK_CASES]


def twin_graphs():
    """(name, graph) pairs with twins, for the cell and the table fill of
    the greedy identifying code: a cycle with two pendant twin pairs (a
    triangle hung on vertex 5 and one on vertex 17), and G(100, 1/2) with
    a twin added to vertex 7 (vertex 100) and to vertex 3 (vertex 101)."""
    c = cycle(30)
    pendants = Graph(34, list(c.edges()) + [(5, 30), (5, 31), (30, 31), (17, 32), (17, 33), (32, 33)])
    g = gnp(100, 0.5, 0)
    copies = [(100 + i, w) for i, v in enumerate((7, 3)) for w in g.closed_neighborhood(v)]
    return [("C30+pendant twins", pendants), ("G(100,0.5,0)+twins", Graph(102, list(g.edges()) + copies))]


# the step-by-step sparsify API's cases: (family, args, c, seed); C130
# packs three words per row, star(4) has a starved center, the cliques
# have no pair at distance exactly 2
SPARSIFY_STEP_CASES = (
    ("cycle", (130,), 0.5, 0),
    ("star", (4,), 0.5, 1),
    *(("gnp", (140, 0.08, seed), 0.5, seed) for seed in range(3)),
    ("disjoint_cliques", (5, 7), 1.0, 2),
    ("complete_bipartite", (2, 40), 0.2, 3),
)


def sparsify_steps(family, args, c, seed):
    """The outputs of pick_code, bounded_f, sample_subgraph, check_events
    and pair_collision_frequency on one of SPARSIFY_STEP_CASES, as JSON
    values. The frequency is taken on the first pair at distance exactly 2
    with no endpoint in the code (else the first such pair, else none)."""
    families = {
        "cycle": cycle,
        "star": star,
        "gnp": gnp,
        "disjoint_cliques": disjoint_cliques,
        "complete_bipartite": complete_bipartite,
    }
    g = families[family](*args)
    code = sorted(pick_code(g, SparsifyParams(c=c, seed=seed)))
    f = bounded_f(g, code, c)
    h, deleted = sample_subgraph(g, code, f, seed)
    dels = json.dumps([list(e) for e in sorted(deleted)])
    far = [pr for pr in dist2_pairs(g) if not g.has_edge(*pr)]
    pair = ([pr for pr in far if not set(pr) & set(code)] or far or [None])[0]
    return {
        "family": family,
        "args": list(args),
        "c": c,
        "seed": seed,
        "code": code,
        "bounded_f": f.tobytes().hex(),
        "deleted_sha256": hashlib.sha256(dels.encode()).hexdigest(),
        "events": [[x.kind, x.u, x.v] for x in check_events(g, h, code, c)],
        "pair": list(pair) if pair else None,
        "frequency": pair_collision_frequency(g, code, c, *pair, 4000, seed) if pair else None,
    }

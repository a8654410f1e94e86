"""Fixed corpus of small labeled graphs shared across tests.

Contents: every tree on 2..7 vertices (networkx's nonisomorphic
enumeration, one labeling each), classic families up to 7 vertices, and a
seeded G(n,p) sweep; `mixed_graph` builds larger graphs whose components
interleave. Every graph has at least one edge, so the classical
identifying-code bounds apply whenever the graph is twin-free; empty
random draws are redrawn with a deterministic seed offset.
"""

import contextlib
import hashlib
import io
import json
from functools import lru_cache
from pathlib import Path

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
    write_edge_list,
)
from idcodes.cli import run_cli

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


@lru_cache(maxsize=None)
def cli_inputs():
    """File name -> text of every input file that CLI_CASES read: edge
    lists (a cycle, a path, two G(n, 0.3), a disconnected graph, the 0- and
    1-vertex graphs, K4 and the pendant-twin cycle of twin_graphs, and two
    malformed lists), set files and an experiment config."""
    union = Graph(13, list(cycle(5).edges()) + [(5, 6), (6, 7), (7, 8), (9, 10), (10, 11)])
    graphs = {
        "c7": cycle(7),
        "p6": path(6),
        "gnp20": gnp(20, 0.3, 1),
        "gnp28": gnp(28, 0.3, 2),
        "union": union,
        "k4": complete(4),
        "pendants": twin_graphs()[0][1],
    }
    out = {f"{name}.txt": write_edge_list(g) for name, g in graphs.items()}
    out["empty.txt"] = "0 0\n"
    out["one.txt"] = "1 0\n"
    out["bad_vertex.txt"] = "3 2\n0 1\n1 5\n"
    out["bad_line.txt"] = "3 2\n0 1 2\n"
    sets = {
        "c7_ok": (0, 1, 2, 3, 4),
        "c7_short": (0, 1, 2, 4, 5),
        "c7_undominated": (0, 1),
        "c7_unseparated": (0, 2, 4, 6),
        "k4_all": (0, 1, 2, 3),
        "union_ok": (0, 1, 2, 5, 6, 7, 9, 11, 12),
        "union_twins": (0, 1, 2, 5, 6, 7, 9, 10, 12),
        "none": (),
        "zero": (0,),
        "range": (0, 9),
        "p6_base": (1, 2, 3, 4),
    }
    out.update({f"{name}.set": "".join(f"{v}\n" for v in vs) for name, vs in sets.items()})
    out["bad.set"] = "0\nx\n"
    out["exp.json"] = json.dumps({
        "families": [
            {"kind": "hdelta", "delta": 7, "cliques": 4},
            {"kind": "gnp", "n": 24, "p": 0.5},
            {"kind": "path", "n": 6},
        ],
        "c": 2.0,
        "trials": 2,
        "master_seed": 5,
    })
    return out


_FAMILY_ARGVS = (
    ["--family", "path", "--n", "5"],
    ["--family", "cycle", "--n", "7"],
    ["--family", "star", "--leaves", "6"],
    ["--family", "complete_bipartite", "--r", "2", "--s", "3"],
    ["--family", "hdelta", "--delta", "3", "--cliques", "2"],
    ["--family", "gnp", "--n", "12", "--p", "0.3", "--graph-seed", "3"],
)
_GRAPH_FILES = ("c7", "p6", "gnp20", "gnp28", "union", "empty", "one")

# argv of each pinned CLI transcript; files are named relative to a
# directory that holds cli_inputs()
CLI_CASES = (
    *(["gen", *a] for a in _FAMILY_ARGVS),
    ["gen", "--family", "cycle", "--n", "6", "--format", "dot"],
    ["gen", "--family", "hdelta_connected", "--delta", "2", "--cliques", "3", "--out", "out.txt"],
    ["gen", "--family", "complete", "--n", "4", "--format", "dot", "--out", "out.dot"],
    ["gen", "--in", "union.txt"],
    ["gen", "--in", "empty.txt", "--format", "dot"],
    ["gen", "--in", "one.txt"],
    ["gen", "--in", "bad_vertex.txt"],
    ["gen", "--in", "bad_line.txt"],
    ["gen", "--in", "missing.txt"],
    ["gen"],
    ["verify", "--in", "c7.txt", "--code", "c7_ok.set"],
    ["verify", "--in", "c7.txt", "--code", "c7_undominated.set"],
    ["verify", "--in", "c7.txt", "--code", "c7_unseparated.set"],
    ["verify", "--in", "k4.txt", "--code", "k4_all.set"],
    ["verify", "--in", "union.txt", "--code", "union_ok.set"],
    ["verify", "--in", "c7.txt", "--code", "c7_short.set"],
    ["verify", "--in", "union.txt", "--code", "union_twins.set"],
    ["verify", "--in", "union.txt", "--code", "c7_ok.set"],
    ["verify", "--in", "empty.txt", "--code", "none.set"],
    ["verify", "--in", "one.txt", "--code", "zero.set"],
    ["verify", "--in", "one.txt", "--code", "none.set"],
    ["verify", "--in", "c7.txt", "--code", "range.set"],
    ["verify", "--in", "c7.txt", "--code", "bad.set"],
    ["verify", "--in", "bad_vertex.txt", "--code", "zero.set"],
    ["verify", "--family", "cycle", "--n", "7", "--code", "c7_ok.set"],
    *(["solve", "--in", f"{name}.txt"] for name in _GRAPH_FILES),
    *(["solve", "--dominating", "--in", f"{name}.txt"] for name in _GRAPH_FILES),
    ["solve", "--in", "gnp28.txt", "--out", "out.set"],
    ["solve", "--in", "gnp28.txt", "--budget", "5", "--out", "out.set"],
    ["solve", "--dominating", "--in", "union.txt", "--out", "out.set"],
    ["solve", "--in", "k4.txt"],
    ["solve", "--in", "pendants.txt"],
    ["solve", "--in", "bad_line.txt"],
    *(["greedy", "--in", f"{name}.txt"] for name in _GRAPH_FILES),
    *(["greedy", "--dominating", "--in", f"{name}.txt"] for name in _GRAPH_FILES),
    ["greedy", "--in", "gnp28.txt", "--out", "out.set"],
    ["greedy", "--in", "c7.txt", "--out", "out.set"],
    ["greedy", "--in", "union.txt", "--out", "out.set"],
    ["greedy", "--dominating", "--in", "gnp20.txt", "--out", "out.set"],
    ["greedy", "--family", "gnp", "--n", "60", "--p", "0.3", "--graph-seed", "2"],
    ["greedy", "--in", "k4.txt"],
    ["greedy", "--in", "pendants.txt"],
    ["sparsify", "--family", "hdelta", "--delta", "7", "--cliques", "4", "--const-c", "2",
     "--seed", "3", "--out-code", "code.set", "--out-deleted", "deleted.txt"],
    ["sparsify", "--in", "gnp28.txt", "--const-c", "1", "--variant", "uniform", "--seed", "1",
     "--out-code", "code.set"],
    ["sparsify", "--in", "gnp28.txt", "--const-c", "0.5", "--no-clamp"],
    ["sparsify", "--in", "p6.txt", "--const-c", "2", "--max-retries", "3"],
    ["sparsify", "--family", "path", "--n", "40", "--max-retries", "2"],
    ["sparsify", "--in", "union.txt", "--const-c", "2"],
    ["sparsify", "--in", "one.txt"],
    ["sparsify", "--in", "empty.txt"],
    ["complement-code", "--family", "path", "--n", "4", "--out", "out.set"],
    ["complement-code", "--in", "p6.txt"],
    ["complement-code", "--in", "p6.txt", "--code", "p6_base.set", "--out", "out.set"],
    ["complement-code", "--in", "c7.txt", "--code", "c7_ok.set"],
    ["complement-code", "--in", "gnp20.txt"],
    ["complement-code", "--in", "union.txt", "--code", "union_ok.set"],
    ["complement-code", "--in", "c7.txt", "--code", "c7_unseparated.set"],
    ["complement-code", "--in", "k4.txt"],
    ["complement-code", "--family", "star", "--leaves", "3"],
    *(["watch", "--in", f"{name}.txt", "--method", m]
      for name in ("c7", "gnp20", "gnp28", "union", "one") for m in ("binary", "code")),
    ["watch", "--family", "star", "--leaves", "6"],
    ["watch", "--in", "empty.txt"],
    ["watch", "--in", "k4.txt", "--method", "code"],
    ["watch", "--in", "pendants.txt"],
    ["bounds", "idcode_lower_bound", "--n", "1000"],
    ["bounds", "chernoff_constant", "--eps", "1"],
    ["bounds", "alpha0", "--mp", "0.3"],
    ["bounds", "sparse_edge_threshold", "--mp", "0.3"],
    ["bounds", "gnp_idcode_prediction", "--n", "1000", "--p", "0.5"],
    ["bounds", "bipartite_subgraph_bound", "--r", "5"],
    ["bounds", "edge_deletion_sensitivity_bound"],
    ["bounds", "gnp_idcode_prediction", "--n", "1000"],
    ["bounds", "alpha0", "--mp", "-1"],
    ["experiment", "--config", "exp.json"],
    ["experiment", "--config", "exp.json", "--out", "out.csv"],
    ["experiment", "--config", "c7.txt"],
)


def cli_transcript(argv):
    """run_cli(argv) in the current directory, which holds cli_inputs():
    the SHA-256 of each input file argv names, the exit code, stdout,
    stderr and the text of each file written through an --out flag."""
    files = {arg for arg in argv if arg in cli_inputs()}
    outs = [val for flag, val in zip(argv, argv[1:]) if flag.startswith("--out")]
    digests = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in sorted(files)}
    for name in outs:
        Path(name).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(list(argv))
    written = {name: Path(name).read_text() for name in outs if Path(name).exists()}
    return {"argv": list(argv), "inputs": digests, "exit": code,
            "stdout": out.getvalue(), "stderr": err.getvalue(), "files": written}

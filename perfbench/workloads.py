"""Workload inputs, made from the workload seed with numpy alone.

A workload is a sequence of rounds. Round r holds the same kinds of
operations in every run; its graphs and sparsify seeds are drawn from
`numpy.random.default_rng([seed, r, i])` for operation i, so one seed
always gives the same inputs. An operation is a graph plus one or more
`idcodes` command lines that all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass
class BGraph:
    """The benchmark's own copy of an input graph."""

    family: str  # "cliques", "gnp", "cycle" or "path"
    n: int
    edges: np.ndarray  # (m, 2) int64, u < v, rows sorted

    @cached_property
    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=bool)
        a[self.edges[:, 0], self.edges[:, 1]] = True
        a[self.edges[:, 1], self.edges[:, 0]] = True
        return a

    @cached_property
    def closed(self) -> np.ndarray:
        return self.adjacency | np.eye(self.n, dtype=bool)

    @cached_property
    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)

    def complement(self) -> "BGraph":
        iu, iv = np.triu_indices(self.n, 1)
        keep = ~self.adjacency[iu, iv]
        return BGraph(self.family + "-complement", self.n, np.stack([iu[keep], iv[keep]], axis=1))

    def edge_list_text(self) -> str:
        lines = [f"{self.n} {len(self.edges)}"]
        lines.extend(f"{u} {v}" for u, v in self.edges.tolist())
        return "\n".join(lines) + "\n"


def _sorted_edges(u, v) -> np.ndarray:
    e = np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1).astype(np.int64)
    return e[np.lexsort((e[:, 1], e[:, 0]))]


def cliques(delta: int, k: int) -> BGraph:
    """k disjoint cliques of delta+1 vertices each."""
    size = delta + 1
    iu, iv = np.triu_indices(size, 1)
    base = (np.arange(k) * size)[:, None]
    return BGraph("cliques", k * size, _sorted_edges((base + iu).ravel(), (base + iv).ravel()))


def gnp(n: int, p: float, rng: np.random.Generator) -> BGraph:
    iu, iv = np.triu_indices(n, 1)
    keep = rng.random(len(iu)) < p
    return BGraph("gnp", n, _sorted_edges(iu[keep], iv[keep]))


def cycle(n: int) -> BGraph:
    u = np.arange(n)
    return BGraph("cycle", n, _sorted_edges(u, (u + 1) % n))


def path(n: int) -> BGraph:
    u = np.arange(n - 1)
    return BGraph("path", n, _sorted_edges(u, u + 1))


def distinct_rows(rows: np.ndarray) -> int:
    return len({row.tobytes() for row in rows})


def twin_free(g: BGraph) -> bool:
    """No two vertices share a closed neighbourhood."""
    return distinct_rows(np.packbits(g.closed, axis=1)) == g.n


def twin_free_gnp(n: int, p: float, rng: np.random.Generator, complement_too: bool = False) -> BGraph:
    """Redraw G(n,p) from the same stream until it (and, if asked, its
    complement) is twin-free, so an identifying code exists."""
    while True:
        g = gnp(n, p, rng)
        if twin_free(g) and (not complement_too or twin_free(g.complement())):
            return g


@dataclass
class Command:
    """One `idcodes` command line; `--in` and the output flags get paths
    from the runner."""

    kind: str  # "sparsify", "greedy", "solve", "dominating", "complement" or "watch"
    argv: list[str]
    outputs: tuple[str, ...] = ()
    variant: str = ""


@dataclass
class Op:
    graph: BGraph
    commands: list[Command]


def _sparsify(variant: str, seed: int) -> Command:
    return Command(
        "sparsify",
        ["sparsify", "--variant", variant, "--const-c", "2", "--seed", str(seed)],
        ("--out-code", "--out-deleted"),
        variant,
    )


def _greedy() -> Command:
    return Command("greedy", ["greedy"], ("--out",))


def _exact_commands() -> list[Command]:
    return [
        Command("solve", ["solve"], ("--out",)),
        Command("dominating", ["solve", "--dominating"], ("--out",)),
        Command("complement", ["complement-code"], ("--out",)),
        Command("watch", ["watch"]),
    ]


# Every run completes at least this many rounds; the output-size metrics
# come from them, so they repeat exactly for a seed.
QUALITY_ROUNDS = 2

_CLIQUES = cliques(31, 64)  # n = 2048, 64 components

# Fixed rotations. The operation times of the middle members lie close
# together, so the median operation does not jump between families.
GREEDY_ROTATION = (
    ("cycle", 190, None),
    ("gnp", 300, 0.03),
    ("gnp", 330, 0.04),
    ("cycle", 230, None),
    ("gnp", 350, 0.05),
    ("cycle", 240, None),
    ("gnp", 380, 0.05),
    ("gnp", 400, 0.03),
    ("gnp", 400, 0.02),
)
EXACT_ROTATION = (
    ("gnp", 16, 0.3),
    ("path", 23, None),
    ("cycle", 23, None),
    ("path", 25, None),
    ("cycle", 24, None),
    ("path", 26, None),
    ("cycle", 26, None),
    ("gnp", 18, 0.3),
    ("cycle", 28, None),
)


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _rotation_graph(spec, rng, complement_too=False) -> BGraph:
    family, n, p = spec
    if family == "gnp":
        return twin_free_gnp(n, p, rng, complement_too)
    return cycle(n) if family == "cycle" else path(n)


def _round_sparsify_cliques(seed: int, r: int) -> list[Op]:
    ops = []
    for i in range(3):
        s = _seed(np.random.default_rng([seed, r, i]))
        ops.append(Op(_CLIQUES, [_sparsify("theorem1", s), _sparsify("uniform", s)]))
    return ops


def _round_sparsify_gnp(seed: int, r: int) -> list[Op]:
    ops = []
    for i in range(5):
        rng = np.random.default_rng([seed, r, i])
        g = twin_free_gnp(440, 0.5, rng)
        ops.append(Op(g, [_sparsify("theorem1", _seed(rng)), _greedy()]))
    return ops


def _round_greedy_sparse(seed: int, r: int) -> list[Op]:
    return [
        Op(_rotation_graph(spec, np.random.default_rng([seed, r, i])), [_greedy()])
        for i, spec in enumerate(GREEDY_ROTATION)
    ]


def _round_exact_small(seed: int, r: int) -> list[Op]:
    return [
        Op(_rotation_graph(spec, np.random.default_rng([seed, r, i]), True), _exact_commands())
        for i, spec in enumerate(EXACT_ROTATION)
    ]


WORKLOADS = {
    "sparsify-cliques": _round_sparsify_cliques,
    "sparsify-gnp": _round_sparsify_gnp,
    "greedy-sparse": _round_greedy_sparse,
    "exact-small": _round_exact_small,
}

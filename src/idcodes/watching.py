"""Watching systems: watchers sit on a host vertex and watch a zone inside
the host's closed neighborhood; every vertex must be watched by a
non-empty, unique set of watchers.

Two constructions are provided: one watcher per vertex of an identifying
code of a spanning subgraph, and the binary-labelling scheme that turns a
dominating set into at most ceil(log2(max_degree+2)) watchers per member.
Both are re-verified before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Union

from .bounds import ceil_log2
from .codes import (
    InvalidCodeError,
    UndominatedVertex,
    UnseparatedPair,
    Verdict,
    is_dominating,
    is_identifying_code,
)
from .graphs import Graph, degree_stats, mask_to_set
from .solvers import SearchResult, exact_min_dominating, greedy_dominating

# largest graph on which `watch` and watch_bounds use the exact dominating set
EXACT_GAMMA_LIMIT = 24


class ZoneOutOfNeighborhoodError(ValueError):
    def __init__(self, index: int, message: str) -> None:
        super().__init__(f"watcher {index}: {message}")
        self.index = index


class NotDominatingError(ValueError):
    """The binary-labelling construction needs a dominating set."""


@dataclass(frozen=True)
class Watcher:
    host: int
    zone: frozenset[int]


@dataclass(frozen=True)
class WatchingSystem:
    watchers: tuple[Watcher, ...]

    def size(self) -> int:
        return len(self.watchers)


@dataclass(frozen=True)
class WatchBounds:
    lower: int
    upper: int
    gamma: int
    gamma_exact: bool


def verify_watching(g: Graph, system: WatchingSystem) -> Verdict:
    """ok iff every vertex lies in a non-empty and pairwise-distinct set of
    zones. Zones must sit inside their host's closed neighborhood; that is
    a structural error, not a failing verdict."""
    masks = g.closed_masks
    membership = [0] * g.n  # bit i of membership[v]: watcher i sees v
    for idx, w in enumerate(system.watchers):
        if not 0 <= w.host < g.n:
            raise ZoneOutOfNeighborhoodError(idx, f"host {w.host} out of range")
        if not w.zone:
            raise ZoneOutOfNeighborhoodError(idx, "zone is empty")
        stray = w.zone - mask_to_set(masks[w.host])
        if stray:
            raise ZoneOutOfNeighborhoodError(
                idx, f"zone members {sorted(stray)} outside N[{w.host}]"
            )
        bit = 1 << idx
        for v in w.zone:
            membership[v] |= bit
    for v in range(g.n):
        if not membership[v]:
            return Verdict(False, UndominatedVertex(v))
    first: dict[int, int] = {}
    pairs = [
        (first[m], v) for v, m in enumerate(membership) if first.setdefault(m, v) != v
    ]
    if pairs:
        return Verdict(False, UnseparatedPair(*min(pairs)))
    return Verdict(True)


def watching_from_subgraph_code(
    g: Graph, h: Graph, c: Iterable[int]
) -> WatchingSystem:
    """One watcher per code vertex, hosted there, zone = its closed
    neighborhood in the spanning subgraph h. Since N_h[v] is contained in
    N_g[v], the system is legal for g and has size exactly |c|."""
    if not h.is_spanning_subgraph_of(g):
        raise ValueError("h must be a spanning subgraph of g")
    code = sorted(set(c))
    verdict = is_identifying_code(h, code, "full")
    if not verdict.ok:
        raise InvalidCodeError(
            f"code is not identifying on the subgraph: {verdict.witness}"
        )
    masks = h.closed_masks
    watchers = tuple(Watcher(host=v, zone=mask_to_set(masks[v])) for v in code)
    system = WatchingSystem(watchers)
    check = verify_watching(g, system)
    if not check.ok:
        raise RuntimeError(f"subgraph-code system failed verification: {check}")
    return system


def watching_binary(g: Graph, d: Iterable[int]) -> WatchingSystem:
    """Binary-labelling construction: each dominating vertex v labels its
    closed neighborhood 1..|N[v]| (ascending vertex order) and hosts one
    watcher per label bit, the zone being the members with that bit set.
    Empty zones are dropped, so the size is at most |d| * ceil(log2(D+2))
    with D the maximum degree."""
    dom = sorted(set(d))
    verdict = is_dominating(g, dom)
    if not verdict.ok:
        raise NotDominatingError(f"not a dominating set: {verdict.witness}")
    _, dmax = degree_stats(g)
    levels = ceil_log2(dmax + 2)
    masks = g.closed_masks
    watchers = []
    for v in dom:
        hood = sorted(mask_to_set(masks[v]))
        for bit in range(levels):
            zone = frozenset(
                u for label, u in enumerate(hood, start=1) if label >> bit & 1
            )
            if zone:
                watchers.append(Watcher(host=v, zone=zone))
    system = WatchingSystem(tuple(watchers))
    check = verify_watching(g, system)
    if not check.ok:
        raise RuntimeError(f"binary labelling failed verification: {check}")
    return system


def watch_bounds(
    g: Graph, dominating: Union[SearchResult, Collection[int], None] = None
) -> WatchBounds:
    """Lower bound ceil(log2(n+1)) and upper bound
    gamma * ceil(log2(max_degree+2)) on the minimum watcher count.

    gamma is the size of a dominating set: either the SearchResult of
    exact_min_dominating(g), exact iff the search finished, or a plain
    vertex set such as greedy_dominating(g), never exact. Without one,
    the set is exact_min_dominating(g) for n <= EXACT_GAMMA_LIMIT and
    greedy_dominating(g) above. gamma_exact reports which kind the upper
    bound uses.
    """
    if g.n < 1:
        raise ValueError("watch_bounds needs n >= 1")
    if dominating is None:
        small = g.n <= EXACT_GAMMA_LIMIT
        dominating = exact_min_dominating(g) if small else greedy_dominating(g)
    if isinstance(dominating, SearchResult):
        gamma, gamma_exact = dominating.size, dominating.optimal
    else:
        gamma, gamma_exact = len(dominating), False
    _, dmax = degree_stats(g)
    return WatchBounds(
        lower=ceil_log2(g.n + 1),
        upper=gamma * ceil_log2(dmax + 2),
        gamma=gamma,
        gamma_exact=gamma_exact,
    )

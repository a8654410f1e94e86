"""Independent reference implementations used as test oracles.

Everything here works on (n, edges) pairs with plain Python sets and
exhaustive enumeration. Nothing imports the package under test, so an
agreement failure always points at the implementation, not at shared
helper code.
"""

from itertools import combinations
from math import prod

import numpy as np


def adjacency(n, edges):
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def closed(adj, v):
    return adj[v] | {v}


def oracle_signature(n, edges, code, v):
    adj = adjacency(n, edges)
    return closed(adj, v) & set(code)


def oracle_undominated(n, edges, code):
    """All vertices with empty signature, ascending."""
    adj = adjacency(n, edges)
    cs = set(code)
    return [v for v in range(n) if not (closed(adj, v) & cs)]


def oracle_unseparated(n, edges, code, pairs=None):
    """All pairs u < v with equal signatures, lexicographic."""
    adj = adjacency(n, edges)
    cs = set(code)
    sig = {v: frozenset(closed(adj, v) & cs) for v in range(n)}
    if pairs is None:
        pairs = combinations(range(n), 2)
    return [(u, v) for u, v in pairs if sig[u] == sig[v]]


def oracle_witness(n, edges, code, pairs=None):
    """The least failure of code: ("undominated", v) for the least vertex
    with an empty signature, else ("unseparated", u, v) for the first of
    pairs (all pairs u < v by default, lexicographic) with equal
    signatures, else None."""
    undom = oracle_undominated(n, edges, code)
    if undom:
        return ("undominated", undom[0])
    unsep = oracle_unseparated(n, edges, code, pairs)
    if unsep:
        return ("unseparated", *unsep[0])
    return None


def oracle_is_identifying(n, edges, code):
    return not oracle_undominated(n, edges, code) and not oracle_unseparated(
        n, edges, code
    )


def oracle_is_locating_dominating(n, edges, code):
    if oracle_undominated(n, edges, code):
        return False
    outside = [v for v in range(n) if v not in set(code)]
    return not oracle_unseparated(n, edges, code, combinations(outside, 2))


def oracle_twins(n, edges):
    """Pairs with equal closed neighborhoods, lexicographic."""
    adj = adjacency(n, edges)
    return [
        (u, v)
        for u, v in combinations(range(n), 2)
        if closed(adj, u) == closed(adj, v)
    ]


def oracle_distances(n, edges, src):
    adj = adjacency(n, edges)
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def oracle_component_ids(n, edges):
    """Per vertex, the index of its component: a breadth-first search from
    each still unlabelled vertex in increasing order, so the components are
    numbered in order of their least vertex."""
    adj = adjacency(n, edges)
    ids = [None] * n
    k = 0
    for s in range(n):
        if ids[s] is not None:
            continue
        ids[s] = k
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if ids[w] is None:
                        ids[w] = k
                        nxt.append(w)
            frontier = nxt
        k += 1
    return ids


def oracle_dist2_pairs(n, edges):
    """Pairs at graph distance 1 or 2, lexicographic."""
    out = []
    for u in range(n):
        dist = oracle_distances(n, edges, u)
        for v in range(u + 1, n):
            if dist.get(v, 99) <= 2:
                out.append((u, v))
    return out


def oracle_hitting_sets(n, edges):
    """The exact solver's sets, in order: N[v] for every v, then for each
    vertex u with a partner w at distance <= 2 (N[u] and N[w] meet) the
    set N[u] ^ N[w] of the partner with the least (|N[u] ^ N[w]|, w);
    each set kept only where it first appears."""
    adj = adjacency(n, edges)
    hood = [frozenset(closed(adj, v)) for v in range(n)]
    out = list(hood)
    for u in range(n):
        partners = [w for w in range(n) if w != u and hood[u] & hood[w]]
        if partners:
            w = min(partners, key=lambda w: (len(hood[u] ^ hood[w]), w))
            out.append(hood[u] ^ hood[w])
    return list(dict.fromkeys(out))


def oracle_min_idcode(n, edges):
    """Smallest identifying code by subset enumeration, or None when twins
    make the instance infeasible. Ties resolve to the lexicographically
    least combination, which is the first one itertools yields."""
    if oracle_twins(n, edges):
        return None
    for k in range(1, n + 1):
        for cand in combinations(range(n), k):
            if oracle_is_identifying(n, edges, cand):
                return set(cand)
    return None


def oracle_min_dominating(n, edges):
    for k in range(0, n + 1):
        for cand in combinations(range(n), k):
            if not oracle_undominated(n, edges, cand):
                return set(cand)
    return None


def oracle_fewest_extra_picks(n, edges, included, excluded, kind="idcode"):
    """Fewest vertices, outside both included and excluded, whose union
    with included is an identifying code (kind "idcode") or a dominating
    set (kind "dominating"), by subset enumeration; None when no subset
    completes it."""
    if kind == "idcode":
        valid = oracle_is_identifying
    elif kind == "dominating":
        valid = lambda n, edges, code: not oracle_undominated(n, edges, code)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    base = set(included)
    free = [v for v in range(n) if v not in base and v not in set(excluded)]
    for k in range(len(free) + 1):
        for extra in combinations(free, k):
            if valid(n, edges, base | set(extra)):
                return k
    return None


def oracle_complement_edges(n, edges):
    es = {tuple(sorted(e)) for e in edges}
    return [(u, v) for u, v in combinations(range(n), 2) if (u, v) not in es]


def oracle_collision_probability(n, edges, code, term, u, v):
    """Exact probability that a distance-2 pair gets equal signatures when
    each code-incident edge ab is deleted independently with probability
    (term[a] + term[b]) / 4.

    Bits at common code neighbors stay equal when both edges survive or
    both drop; a bit at an exclusive code neighbor must drop. Code
    membership of an endpoint separates the pair outright.
    """
    adj = adjacency(n, edges)
    cs = set(code)
    if v in adj[u] or not (adj[u] & adj[v]):
        raise ValueError("pair must be at distance exactly 2")
    if u in cs or v in cs:
        return 0.0

    def p_edge(a, b):
        return (term[a] + term[b]) / 4.0

    factors = []
    for w in (adj[u] & adj[v]) & cs:
        pu, pv = p_edge(u, w), p_edge(v, w)
        factors.append((1 - pu) * (1 - pv) + pu * pv)
    for w in (adj[u] - adj[v]) & cs:
        factors.append(p_edge(u, w))
    for w in (adj[v] - adj[u]) & cs:
        factors.append(p_edge(v, w))
    return prod(factors) if factors else 1.0


def oracle_greedy_cover(n, edges):
    """Max-coverage greedy dominating set, ties to the lowest vertex."""
    adj = adjacency(n, edges)
    undom = set(range(n))
    picks = []
    while undom:
        best = max(range(n), key=lambda v: (len(closed(adj, v) & undom), -v))
        picks.append(best)
        undom -= closed(adj, best)
    return picks


def oracle_greedy_idcode(n, edges):
    """Greedy identifying code over an explicit pair list, picks in order.

    Each pick maximises (newly dominated vertices + newly separated pairs),
    ties to the lowest vertex; w separates u, v when exactly one of them
    lies in N[w]. Raises ValueError when no vertex makes progress (twins).
    """
    adj = adjacency(n, edges)
    nb = [closed(adj, v) for v in range(n)]
    undom = set(range(n))
    unsep = list(combinations(range(n), 2))
    picks = []

    def gain(w):
        split = sum(1 for u, v in unsep if (u in nb[w]) != (v in nb[w]))
        return len(nb[w] & undom) + split

    while undom or unsep:
        best = max(range(n), key=lambda w: (gain(w), -w))
        if gain(best) == 0:
            raise ValueError("no vertex makes progress: the graph has twins")
        picks.append(best)
        undom -= nb[best]
        unsep = [(u, v) for u, v in unsep if (u in nb[best]) == (v in nb[best])]
    return picks


def oracle_verify_watching(n, edges, watchers):
    """(undominated list, unseparated list) for (host, zone) pairs assumed
    structurally legal."""
    membership = {
        v: frozenset(i for i, (_, zone) in enumerate(watchers) if v in zone)
        for v in range(n)
    }
    undom = [v for v in range(n) if not membership[v]]
    unsep = [
        (u, v)
        for u, v in combinations(range(n), 2)
        if membership[u] == membership[v]
    ]
    return undom, unsep


class OracleFormatError(ValueError):
    """Malformed edge-list text, as the oracle parser reports it."""


def oracle_graph_edges(n, edges):
    """Sorted normalised edge tuples of a simple graph on 0..n-1, checked
    one edge at a time in input order; raises ValueError with the message
    of the first bad edge."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
    return sorted(seen)


def oracle_parse_edge_list(text):
    """(n, sorted edges) of an edge-list text, read line by line; raises
    OracleFormatError with the message of the first violation."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise OracleFormatError("empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise OracleFormatError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise OracleFormatError(f"bad header {lines[0]!r}") from exc
    if n < 0 or m < 0:
        raise OracleFormatError("negative n or m")
    if len(lines) - 1 != m:
        raise OracleFormatError(f"header says {m} edges, found {len(lines) - 1}")
    edges = []
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise OracleFormatError(f"line {i}: expected 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise OracleFormatError(f"line {i}: non-integer endpoint") from exc
        if not (0 <= u < v < n):
            raise OracleFormatError(f"line {i}: need 0 <= u < v < n, got {u} {v}")
        edges.append((u, v))
    try:
        return n, oracle_graph_edges(n, edges)
    except ValueError as exc:
        raise OracleFormatError(str(exc)) from exc


def oracle_closed_masks(n, edges):
    """Closed neighborhoods as Python-int bitmasks."""
    adj = adjacency(n, edges)
    return tuple(sum(1 << w for w in closed(adj, v)) for v in range(n))


def oracle_packed_rows(n, edges):
    """Closed-neighborhood bitmasks split into 64-bit words, W = max(1,
    ceil(n / 64)) words per row, lowest word first."""
    words = max(1, (n + 63) // 64)
    return [
        [(mask >> (64 * j)) & (2**64 - 1) for j in range(words)]
        for mask in oracle_closed_masks(n, edges)
    ]


def oracle_delete_edges(n, edges, drop):
    """Sorted edges left after removing drop; ValueError listing the first
    three missing edges when some pair of drop is not an edge."""
    drop = {(u, v) if u < v else (v, u) for u, v in drop}
    missing = drop - set(edges)
    if missing:
        raise ValueError(f"edges not in graph: {sorted(missing)[:3]}")
    return sorted(e for e in edges if e not in drop)


def oracle_gnp_edges(n, p, seed):
    """G(n, p) from one call for all n(n-1)/2 uniforms: the pair u < v, in
    row-major order, is kept where its uniform is below p."""
    draws = np.random.default_rng(seed).random(n * (n - 1) // 2)
    return tuple(pair for pair, x in zip(combinations(range(n), 2), draws.tolist()) if x < p)

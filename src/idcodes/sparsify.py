"""Randomized edge-deletion sparsification with Las-Vegas retries.

The public building blocks (pick_code, bounded_f, sample_subgraph,
check_events) operate on whole graphs exactly as defined. The driver,
sparsify, runs the construction per connected component in synchronized
rounds, redrawing only components that still fail: component draws are
independent, so the output law equals whole-graph retrying while needing
far fewer rounds. Acceptance is gated on separation failures only;
degree-deviation counts are tallied per round as diagnostics.

Randomness is derived per (seed, component, round) through the numpy
seed-sequence splitter, so results are reproducible and independent of
which components are still active.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .codes import is_dominating, is_identifying_code
from .graphs import Edge, Graph, degree_stats, dist2_pair_array
from .solvers import greedy_dominating


class DegenerateGraphError(ValueError):
    """Isolated vertices can never be dominated by others, nor separated
    from a second isolated vertex."""


class InfeasibleProbabilityError(ValueError):
    """Unclamped inclusion probability exceeds 1."""


class RetriesExhaustedError(RuntimeError):
    def __init__(self, message: str, last_trial: "TrialRecord") -> None:
        super().__init__(message)
        self.last_trial = last_trial


@dataclass(frozen=True)
class SparsifyParams:
    c: float = 66.0
    seed: int = 0
    max_retries: int = 1000
    clamp: bool = True
    variant: str = "theorem1"

    def __post_init__(self) -> None:
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.variant not in ("theorem1", "uniform"):
            raise ValueError(f"unknown variant {self.variant!r}")


@dataclass(frozen=True)
class TrialRecord:
    """One synchronized retry round. Violation counts cover only the
    components that redrew this round: a_violations counts the vertices
    whose code degree strays from deg * p by deg * p / 2 or more (always 0
    for the uniform variant), b_violations the pairs at distance <= 2
    with equal signatures."""

    trial: int
    code_size: int
    deleted: int
    a_violations: int
    b_violations: int


@dataclass(frozen=True)
class SparsifyStats:
    deleted_edges: int
    code_size: int
    n_ln_dmax: float
    n_ln_dmax_over_dmin: float


@dataclass(frozen=True)
class Violation:
    kind: str  # "A" degree deviation, "B" equal code signatures
    u: int
    v: int


@dataclass(frozen=True)
class SparsifyResult:
    deleted_edges: frozenset[Edge]
    code: frozenset[int]
    dominating: frozenset[int]
    final_code: frozenset[int]
    retries_used: int
    stats: SparsifyStats
    trials: tuple[TrialRecord, ...]


def _degree_checks(g: Graph) -> tuple[int, int]:
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    dmin, dmax = degree_stats(g)
    if dmin < 1:
        raise DegenerateGraphError("graph has an isolated vertex")
    return dmin, dmax


def _inclusion_prob(raw: float, clamp: bool) -> float:
    if raw > 1.0:
        if not clamp:
            raise InfeasibleProbabilityError(
                f"inclusion probability {raw:.4g} > 1; lower c or enable clamp"
            )
        return 1.0
    return raw


def _pack_set(vs: Iterable[int], n: int) -> np.ndarray:
    row = np.zeros(max(1, (n + 63) >> 6), dtype=np.uint64)
    for v in vs:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range for n={n}")
        row[v >> 6] |= np.uint64(1 << (v & 63))
    return row


def _code_degrees(g: Graph, code_row: np.ndarray) -> np.ndarray:
    """Number of neighbors each vertex has inside the packed code."""
    counts = np.bitwise_count(g.packed_closed & code_row).sum(axis=1, dtype=np.int64)
    vs = np.arange(g.n)
    self_bits = (code_row[vs >> 6] >> (vs & 63).astype(np.uint64)) & np.uint64(1)
    return counts - self_bits.astype(np.int64)


def pick_code(g: Graph, params: SparsifyParams) -> frozenset[int]:
    """Each vertex joins the code independently with probability
    min(1, c*ln(dmax)/dmin); one uniform draw per vertex in index order."""
    dmin, dmax = _degree_checks(g)
    p = _inclusion_prob(params.c * math.log(dmax) / dmin, params.clamp)
    draws = np.random.default_rng(params.seed).random(g.n)
    return frozenset(int(v) for v in np.nonzero(draws < p)[0])


def bounded_f(g: Graph, code: Iterable[int], c: float) -> np.ndarray:
    """f(u) = min(c*ln(dmax), code-degree of u), as a float array.

    The result satisfies f(u) <= code-degree(u) with f/degree
    non-increasing in the degree, which caps every deletion probability
    at 1/2.
    """
    _, dmax = degree_stats(g)
    cap = c * math.log(dmax) if dmax >= 1 else 0.0
    dc = _code_degrees(g, _pack_set(code, g.n))
    return np.minimum(cap, dc.astype(np.float64))


def sample_subgraph(
    g: Graph, code: Iterable[int], f: np.ndarray, seed: int
) -> tuple[Graph, frozenset[Edge]]:
    """Draw the random spanning subgraph: each edge with an endpoint in
    the code is deleted independently with probability
    (f(u)/dc(u) + f(v)/dc(v))/4 (a zero-degree term contributes 0);
    other edges always survive. One uniform per code-incident edge in
    ascending edge order."""
    n = g.n
    code_row = _pack_set(code, n)
    dc = _code_degrees(g, code_row)
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (n,):
        raise ValueError(f"f must have one value per vertex, got shape {f.shape}")
    if np.any(f < 0) or np.any(f > dc):
        raise ValueError("f is not bounded by the code degrees")
    if not g.m:
        return g, frozenset()
    terms = np.divide(f, dc, out=np.zeros(n), where=dc > 0)
    es = g.edge_array()
    in_code = (code_row[es >> 6] >> (es & 63).astype(np.uint64)) & np.uint64(1)
    incident = (in_code[:, 0] | in_code[:, 1]).astype(bool)
    inc = es[incident]
    p_edge = (terms[inc[:, 0]] + terms[inc[:, 1]]) / 4.0
    assert np.all(p_edge <= 0.5), "deletion probability exceeded 1/2"
    draws = np.random.default_rng(seed).random(len(inc))
    dropped = inc[draws < p_edge]
    return g.delete_edges(dropped), frozenset(map(tuple, dropped.tolist()))


def check_events(
    g: Graph, h: Graph, code: Iterable[int], c: float
) -> list[Violation]:
    """Scan every pair at distance <= 2 in g, in lexicographic order.

    A-violation: an endpoint's code-degree in g lands outside the open
    interval (d*p/2, 3*d*p/2) around its mean d*p, p = min(1, c*ln(dmax)/dmin).
    B-violation: the pair's closed neighborhoods in h trace the same code
    subset. An empty list is exactly the good event the construction
    retries for.
    """
    dmin, dmax = _degree_checks(g)
    if not h.is_spanning_subgraph_of(g):
        raise ValueError("h must be a spanning subgraph of g")
    p = _inclusion_prob(c * math.log(dmax) / dmin, True)
    code_row = _pack_set(code, g.n)
    dc = _code_degrees(g, code_row).astype(np.float64)
    dg = g.degrees.astype(np.float64)
    aflag = np.abs(dc - dg * p) >= dg * p / 2.0
    ps = dist2_pair_array(g)
    aeq = aflag[ps[:, 0]] | aflag[ps[:, 1]]
    rows = h.packed_closed & code_row
    beq = (rows[ps[:, 0]] == rows[ps[:, 1]]).all(axis=1)
    out: list[Violation] = []
    for k in np.flatnonzero(aeq | beq).tolist():
        u, v = ps[k].tolist()
        if aeq[k]:
            out.append(Violation("A", u, v))
        if beq[k]:
            out.append(Violation("B", u, v))
    return out


def _greedy_cover_masks(comp: tuple[int, ...], hmask: dict[int, int]) -> set[int]:
    """Max-coverage greedy dominating set of one component, given closed
    neighborhoods as int masks; ties to the lowest index. Matches the
    whole-graph greedy because gains never cross components."""
    undom = 0
    for v in comp:
        undom |= 1 << v
    picks: set[int] = set()
    while undom:
        best, best_gain = -1, 0
        for v in comp:
            gain = (hmask[v] & undom).bit_count()
            if gain > best_gain:
                best, best_gain = v, gain
        picks.add(best)
        undom &= ~hmask[best]
    return picks


def _by_component(rows: np.ndarray, comp_ids: np.ndarray, k: int) -> list[np.ndarray]:
    """Split vertex-pair rows by the component of their first vertex,
    keeping the row order inside each component."""
    if k == 1:
        return [rows]
    lab = comp_ids[rows[:, 0]]
    order = np.argsort(lab, kind="stable")
    return np.split(rows[order], np.searchsorted(lab[order], np.arange(1, k)))


def sparsify(g: Graph, params: SparsifyParams) -> SparsifyResult:
    """Sparsify g and return an identifying code of the sparsified graph.

    params.variant picks the construction:

    - "theorem1": random code, degree-capped edge deletion, retry until
      every pair at distance <= 2 is separated by the code, then complete
      with a greedy dominating set.
    - "uniform": p = min(1, c*ln(n)/dmin) and a flat 1/4 deletion
      probability for code-incident edges; retries until the code plus a
      greedy dominating set identifies the sparsified component.

    The returned code is verified on the sparsified graph before
    returning.
    """
    variant = params.variant
    dmin, dmax = _degree_checks(g)
    if variant == "theorem1" and dmax < 2:
        raise ValueError("construction needs max degree >= 2")
    n = g.n
    if variant == "theorem1":
        raw_p = params.c * math.log(dmax) / dmin
    else:
        raw_p = params.c * math.log(n) / dmin
    p = _inclusion_prob(raw_p, params.clamp)
    cap = params.c * math.log(dmax)
    masks = g.closed_masks
    deg = g.degrees.tolist()

    comps = g.components
    comp_vs = [np.asarray(comp) for comp in comps]
    comp_ids = g.component_ids
    comp_edges = _by_component(g.edge_array(), comp_ids, len(comps))
    comp_pairs = _by_component(dist2_pair_array(g), comp_ids, len(comps))
    # per-vertex scratch; a component's round writes only its own vertices
    in_code = np.zeros(n, dtype=bool)
    term = np.zeros(n)
    sig_id = np.zeros(n, dtype=np.int64)

    accepted = [False] * len(comps)
    cur_c: list[set[int]] = [set() for _ in comps]
    cur_f: list[list[Edge]] = [[] for _ in comps]
    cur_d: list[set[int]] = [set() for _ in comps]
    trials: list[TrialRecord] = []

    rounds = 0
    for r in range(params.max_retries + 1):
        if all(accepted):
            break
        rounds = r + 1
        a_total = b_total = 0
        for i, comp in enumerate(comps):
            if accepted[i]:
                continue
            rng = np.random.default_rng((params.seed, i, r))
            vdraws = rng.random(len(comp))
            c_i = {v for v, d in zip(comp, vdraws) if d < p}
            cmask = 0
            for v in c_i:
                cmask |= 1 << v
            in_code[comp_vs[i]] = vdraws < p
            es = comp_edges[i]
            incident = es[in_code[es[:, 0]] | in_code[es[:, 1]]]
            if variant == "theorem1":
                dc = {w: (masks[w] & cmask).bit_count() - (w in c_i) for w in comp}
                term[comp_vs[i]] = [min(cap, dc[w]) / dc[w] if dc[w] else 0.0 for w in comp]
                pe = (term[incident[:, 0]] + term[incident[:, 1]]) / 4.0
            else:
                pe = 0.25
            edraws = rng.random(len(incident))
            f_i: list[Edge] = list(map(tuple, incident[edraws < pe].tolist()))
            hmask = {v: masks[v] for v in comp}
            for eu, ev in f_i:
                hmask[eu] ^= 1 << ev
                hmask[ev] ^= 1 << eu
            if variant == "theorem1":
                d_i: set[int] = set()
                gate_mask = cmask
                a_cnt = sum(
                    1 for w in comp if abs(dc[w] - deg[w] * p) >= deg[w] * p / 2.0
                )
            else:
                d_i = _greedy_cover_masks(comp, hmask)
                gate_mask = cmask
                for v in d_i:
                    gate_mask |= 1 << v
                a_cnt = 0
            # equal signatures get equal ids; then count the pairs that share one
            ids: dict[int, int] = {}
            sig_id[comp_vs[i]] = [ids.setdefault(hmask[w] & gate_mask, len(ids)) for w in comp]
            ps = comp_pairs[i]
            b_cnt = int(np.count_nonzero(sig_id[ps[:, 0]] == sig_id[ps[:, 1]]))
            a_total += a_cnt
            b_total += b_cnt
            cur_c[i], cur_f[i], cur_d[i] = c_i, f_i, d_i
            if b_cnt == 0:
                accepted[i] = True
        trials.append(
            TrialRecord(
                r,
                sum(len(s) for s in cur_c),
                sum(len(s) for s in cur_f),
                a_total,
                b_total,
            )
        )
    if not all(accepted):
        last = trials[-1]
        raise RetriesExhaustedError(
            f"no success within {params.max_retries} retries; last round: "
            f"{last.a_violations} degree deviations, "
            f"{last.b_violations} separation failures",
            last,
        )

    code = set().union(*cur_c)
    deleted = sorted(e for f_i in cur_f for e in f_i)
    h = g.delete_edges(deleted)
    if variant == "theorem1":
        dom = set(greedy_dominating(g))
        if not is_dominating(h, sorted(code | dom)).ok:
            dom = set(greedy_dominating(h))
    else:
        dom = set().union(*cur_d)
    final = code | dom
    verdict = is_identifying_code(h, sorted(final), "full")
    assert verdict.ok, f"accepted rounds must yield a valid code: {verdict}"
    stats = SparsifyStats(
        deleted_edges=len(deleted),
        code_size=len(final),
        n_ln_dmax=n * math.log(dmax),
        n_ln_dmax_over_dmin=n * math.log(dmax) / dmin,
    )
    return SparsifyResult(
        deleted_edges=frozenset(deleted),
        code=frozenset(code),
        dominating=frozenset(dom),
        final_code=frozenset(final),
        retries_used=rounds - 1,
        stats=stats,
        trials=tuple(trials),
    )


def pair_collision_frequency(
    g: Graph,
    code: Iterable[int],
    c: float,
    u: int,
    v: int,
    trials: int = 10_000,
    seed: int = 0,
) -> float:
    """Empirical probability that a fixed distance-2 pair traces the same
    code subset in a random subgraph draw.

    Only the code edges at u and v influence the two signatures, so each
    trial draws exactly those (one uniform per edge, u's edges then v's,
    ascending neighbor order). If either endpoint is in the code its own
    self-bit already separates the pair and the frequency is exactly 0.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    code_set = frozenset(code)
    if g.has_edge(u, v) or not (g.neighbors(u) & g.neighbors(v)):
        raise ValueError("pair must be at distance exactly 2")
    if u in code_set or v in code_set:
        return 0.0
    f = bounded_f(g, code_set, c)
    dc = _code_degrees(g, _pack_set(code_set, g.n))
    terms = np.divide(f, dc.astype(np.float64), out=np.zeros(g.n), where=dc > 0)
    su = sorted(g.neighbors(u) & code_set)
    sv = sorted(g.neighbors(v) & code_set)
    rng = np.random.default_rng(seed)
    keep_u = rng.random((trials, len(su))) >= (terms[u] + terms[su]) / 4.0
    keep_v = rng.random((trials, len(sv))) >= (terms[v] + terms[sv]) / 4.0
    iu = {w: j for j, w in enumerate(su)}
    iv = {w: j for j, w in enumerate(sv)}
    same = np.ones(trials, dtype=bool)
    for w in su:
        if w in iv:
            same &= keep_u[:, iu[w]] == keep_v[:, iv[w]]
        else:
            same &= ~keep_u[:, iu[w]]
    for w in sv:
        if w not in iu:
            same &= ~keep_v[:, iv[w]]
    return float(same.mean())

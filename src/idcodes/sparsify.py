"""Randomized edge-deletion sparsification with Las-Vegas retries.

The public building blocks (pick_code, bounded_f, sample_subgraph,
check_events, pair_collision_frequency) operate on whole graphs exactly
as defined. sample_subgraph and pair_collision_frequency delete edges by
the rule of the driver's theorem1 rounds (_deleted), each with its own
random draws. The driver, sparsify, runs the construction per connected
component in synchronized rounds, redrawing only components that still
fail: component draws are independent, so the output law equals
whole-graph retrying while needing far fewer rounds. Acceptance is gated
on separation failures only; degree-deviation counts are tallied per
round as diagnostics.

A round is a fixed sequence of array passes over all still-active
components at once, never a loop over their vertices or edges. Vertices
and edges are kept grouped by component, so a round gathers only the
active ranges. The round gathers the active vertices' component-local
packed rows (Graph.local_closed: a vertex's column is its rank inside its
component) and packs each component's code into one local row. The code
degrees are popcounts of the gathered rows masked by their component's
code row, less the vertex's own bit, and the deletion probabilities are
gathered per code-incident edge. Clearing the deleted edges' bits in the
gathered rows gives the surviving closed neighborhoods. Each active
vertex gets the exact id of its row masked by the code row (np.unique,
no hashing). A pair at distance <= 2 fails when its two ids agree, so
only the vertices whose id repeats can fail: they alone are sorted into
classes of equal (component, id), each class packed into one local row.
A tied vertex u fails with every other member of its class inside its
2-ball in g, so its partner count is one popcount of the ball masked by
the class row, less u itself; bincount tallies half the partner counts
per component. The 2-balls (graphs.ball_rows) never change between
rounds, so each is computed the first time its vertex ties and kept in
one n x W array; no list of the distance-2 pairs is ever built, and a run
in which no vertex ties never reads the neighbor lists. The uniform
variant's dominating sets come from one greedy cover stepping through
all active components together, and its members outside the code are
added to the code row before the ids are taken.

After the last round the deletion flags are mapped back to g's sorted
edge order (on a connected graph they are in it already): the kept rows
build the sparsified graph directly, and the deleted rows are the
result's sorted tuple of deleted edges. The sparsified graph inherits g's
packed rows and degrees when g has them cached, as a connected g does
(its component-local rows are its packed rows): a copy with the deleted
edges' bits cleared by the graphs module's own bit helper, never by
_toggle_bits, so the final verification reads rows that share no code
with the rounds' row edits.

Randomness is derived per (seed, component, round): component i draws in
round r from the stream of numpy.random.default_rng((seed, i, r)), its
vertex draws before its edge draws, so results are reproducible and
independent of which components are still active. No generator is built
per stream. The seed-sequence hash and the PCG64 seeding step run as
array passes over a block of (component, round) keys at once (the
components active at the block's first round, for enough rounds to make
about 64 keys), and one reused PCG64 is set to each stream's state in
turn. Each stream is drawn in one call: its vertex doubles and one double
per edge of its component, of which the code-incident edges take the
first ones.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._kernels import greedy_cover_segments
from .codes import is_dominating, is_identifying_code
from .graphs import Edge, Graph, _dist2_blocks, ball_rows, concat_ranges, degree_stats
from .graphs import pack_rows, row_keys
from .solvers import greedy_dominating

_ONE = np.uint64(1)

# numpy's SeedSequence (pool of four uint32 words) and PCG64 constants
_U32 = 0xFFFFFFFF
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U128 = (1 << 128) - 1
# keys per derived block
_BLOCK = 64


@functools.cache
def _hash_consts(init: int, mult: int, k: int) -> np.ndarray:
    """init * mult**j mod 2**32 for j = 0..k: the seed-sequence hash
    constants, which do not depend on the entropy."""
    out = [init]
    for _ in range(k):
        out.append(out[-1] * mult & _U32)
    consts = np.array(out, dtype=np.uint32)[:, None]
    consts.setflags(write=False)
    return consts


def _stream_words(seed: int, comps: np.ndarray, rounds: np.ndarray) -> np.ndarray:
    """The PCG64 seed words of default_rng((seed, i, r)) for every round r
    in rounds and component i in comps, shape (len(rounds), len(comps), 4):
    the initial state's high and low halves, then the sequence's, as uint64.

    This is SeedSequence.generate_state(4, uint64) over the entropy words
    of (seed, i, r), run for all keys at once: the seed's little-endian
    32-bit words, then i, then r.
    """
    if max(int(comps[-1]), int(rounds[-1])) > _U32:
        raise OverflowError("component and round indices must be below 2**32")
    head = []
    while True:
        head.append(seed & _U32)
        seed >>= 32
        if not seed:
            break
    ent = np.empty((len(head) + 2, len(rounds), len(comps)), dtype=np.uint32)
    ent[: len(head)] = np.array(head, dtype=np.uint32)[:, None, None]
    ent[-2], ent[-1] = comps, rounds[:, None]
    ent = ent.reshape(len(ent), -1)
    # one constant per hashmix call below, then one more
    hash_a = _hash_consts(0x43B0D7E5, 0x931E8875, 16 + 4 * max(0, len(ent) - 4))
    k = 0

    def hashmix(v: np.ndarray) -> np.ndarray:
        nonlocal k
        v = (v ^ hash_a[k : k + len(v)]) * hash_a[k + 1 : k + len(v) + 1]
        k += len(v)
        return v ^ (v >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = x * _MIX_L - y * _MIX_R
        return r ^ (r >> 16)

    pool = np.zeros((4, ent.shape[1]), dtype=np.uint32)
    pool[: len(ent)] = ent[:4]
    pool = hashmix(pool)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[[src] * 3]))
    for src in range(4, len(ent)):
        pool = mix(pool, hashmix(ent[[src] * 4]))
    hash_b = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)
    out = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ hash_b[:8]) * hash_b[1:]
    out ^= out >> 16
    return np.ascontiguousarray(out.T).view("<u8").reshape(len(rounds), len(comps), 4)


def _pcg64_state(words: list[int]) -> dict:
    """The PCG64 state dict seeded from one key's _stream_words."""
    s_hi, s_lo, i_hi, i_lo = words
    inc = ((i_hi << 65) | (i_lo << 1) | 1) & _U128
    state = ((((s_hi << 64) | s_lo) + inc) * _PCG_MULT + inc) & _U128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


class _Streams:
    """The round streams of one sparsify run, drawn through one reused
    PCG64: start(...) gives each active component's first doubles of the
    round, rest(...) the doubles that follow them in the same stream."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.bits = np.random.PCG64(0)
        self.gen = np.random.Generator(self.bits)
        self.stop = 0

    def start(
        self, active: np.ndarray, r: int, heads: np.ndarray, spare: np.ndarray
    ) -> np.ndarray:
        """Round r's first heads[j] doubles of each stream j, concatenated
        in the order of active; rest may then take up to spare[j] more.
        Rounds come in increasing order, and active only loses components
        from one round to the next, as in sparsify."""
        if r >= self.stop:
            rounds = np.arange(r, r + max(1, _BLOCK // len(active)))
            self.words = _stream_words(self.seed, active, rounds)
            self.comps, self.first, self.stop = active, r, r + len(rounds)
        keys = self.words[r - self.first, np.searchsorted(self.comps, active)].tolist()
        # one call per stream draws its heads and every spare double
        take = heads + spare
        ends = np.cumsum(take)
        offs = ends - take
        self.buf = np.empty(int(ends[-1]))
        self.tails = offs + heads
        for key, a, b in zip(keys, offs.tolist(), ends.tolist()):
            self.bits.state = _pcg64_state(key)
            self.gen.random(out=self.buf[a:b])
        return self.buf[concat_ranges(offs, heads)]

    def rest(self, counts: np.ndarray) -> np.ndarray:
        """The next counts[j] doubles of each stream j of the round,
        concatenated."""
        return self.buf[concat_ranges(self.tails, counts)]


class DegenerateGraphError(ValueError):
    """Isolated vertices can never be dominated by others, nor separated
    from a second isolated vertex."""


class MaxDegreeError(ValueError):
    """theorem1 needs max degree >= 2 (its c*ln(dmax) is 0 below that)."""


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
        if not self.c > 0:  # NaN too
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
    # lexicographically sorted, no duplicates
    deleted_edges: tuple[Edge, ...]
    code: frozenset[int]
    dominating: frozenset[int]
    final_code: frozenset[int]
    retries_used: int
    stats: SparsifyStats
    trials: tuple[TrialRecord, ...]
    # per component (ordered by least vertex), the round that accepted it
    accept_rounds: tuple[int, ...]


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


def _members(vs: Iterable[int], n: int) -> np.ndarray:
    """Membership flags of the vertex set vs over 0..n-1."""
    vals = list(vs)
    arr = np.asarray(vals) if vals else np.empty(0, dtype=np.int64)
    bad = (arr < 0) | (arr >= n)
    if bad.any():
        raise ValueError(f"vertex {vals[int(np.argmax(bad))]} out of range for n={n}")
    flags = np.zeros(n, dtype=bool)
    flags[arr.astype(np.int64)] = True
    return flags


def pick_code(g: Graph, params: SparsifyParams) -> frozenset[int]:
    """Each vertex joins the code independently with probability
    min(1, c*ln(dmax)/dmin); one uniform draw per vertex in index order."""
    dmin, dmax = _degree_checks(g)
    p = _inclusion_prob(params.c * math.log(dmax) / dmin, params.clamp)
    draws = np.random.default_rng(params.seed).random(g.n)
    return frozenset(int(v) for v in np.nonzero(draws < p)[0])


def _check_c(c: float) -> None:
    if not (c >= 0 and math.isfinite(c)):  # NaN too
        raise ValueError("c must be >= 0 and finite")


def _deleted(terms: np.ndarray, eu, ev, draws: np.ndarray) -> np.ndarray:
    """The edge-deletion rule of the theorem1 rounds, sample_subgraph and
    pair_collision_frequency: the code-incident edge (eu[j], ev[j]) is
    deleted when its uniform draws[j] falls below (terms[eu[j]] +
    terms[ev[j]]) / 4, where terms[x] = f(x)/dc(x) (0 where dc(x) = 0).
    With f <= dc every probability is at most 1/2."""
    return draws < (terms[eu] + terms[ev]) / 4.0


def bounded_f(g: Graph, code: Iterable[int], c: float) -> np.ndarray:
    """f(u) = min(c*ln(dmax), code-degree of u), as a float array.

    The result satisfies f(u) <= code-degree(u) with f/degree
    non-increasing in the degree, which caps every deletion probability
    at 1/2.
    """
    _check_c(c)
    _, dmax = degree_stats(g)
    cap = c * math.log(dmax) if dmax >= 1 else 0.0
    dc = g.neighbor_counts(_members(code, g.n))
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
    in_code = _members(code, n)
    dc = g.neighbor_counts(in_code)
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (n,):
        raise ValueError(f"f must have one value per vertex, got shape {f.shape}")
    if not np.all((0 <= f) & (f <= dc)):  # NaN too
        raise ValueError("f is not bounded by the code degrees")
    if not g.m:
        return g, frozenset()
    terms = np.divide(f, dc, out=np.zeros(n), where=dc > 0)
    es = g.edge_array()
    inc = np.compress(in_code[es[:, 0]] | in_code[es[:, 1]], es, axis=0)
    draws = np.random.default_rng(seed).random(len(inc))
    dropped = np.compress(_deleted(terms, inc[:, 0], inc[:, 1], draws), inc, axis=0)
    return g.delete_edges(dropped), frozenset(map(tuple, dropped.tolist()))


def check_events(
    g: Graph, h: Graph, code: Iterable[int], c: float
) -> list[Violation]:
    """Scan every pair at distance <= 2 in g, in lexicographic order, one
    block of pairs at a time (graphs._dist2_blocks), so the list of all
    pairs is never held. c must be >= 0 and finite.

    A-violation: an endpoint's code-degree in g lands outside the open
    interval (d*p/2, 3*d*p/2) around its mean d*p, p = min(1, c*ln(dmax)/dmin).
    B-violation: the pair's closed neighborhoods in h trace the same code
    subset. An empty list is exactly the good event the construction
    retries for.
    """
    _check_c(c)
    dmin, dmax = _degree_checks(g)
    if not h.is_spanning_subgraph_of(g):
        raise ValueError("h must be a spanning subgraph of g")
    p = _inclusion_prob(c * math.log(dmax) / dmin, True)
    in_code = _members(code, g.n)
    mean = g.degrees * p
    aflag = np.abs(g.neighbor_counts(in_code) - mean) >= mean / 2.0
    rows = h.packed_closed
    code_row = pack_rows(np.pad(in_code, (0, 64 * rows.shape[1] - g.n)))
    sig = np.unique(row_keys(rows & code_row), return_inverse=True)[1]
    out: list[Violation] = []
    for ps in _dist2_blocks(g):
        aeq = aflag[ps[:, 0]] | aflag[ps[:, 1]]
        beq = sig[ps[:, 0]] == sig[ps[:, 1]]
        for k in np.flatnonzero(aeq | beq).tolist():
            u, v = ps[k].tolist()
            if aeq[k]:
                out.append(Violation("A", u, v))
            if beq[k]:
                out.append(Violation("B", u, v))
    return out


def _toggle_bits(rows: np.ndarray, at: np.ndarray, cols: np.ndarray) -> None:
    """Flip bit cols[j] of packed row at[j], for every j, in place; the
    (row, bit) targets must be distinct."""
    W = rows.shape[1]
    bits = _ONE << (cols & 63).astype(np.uint64)
    np.bitwise_xor.at(rows.reshape(-1), at * W + (cols >> 6), bits)


def _grouped(
    rows: np.ndarray, comp: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(first, second, starts, order): vertex-pair rows ordered by the
    component of their first vertex, keeping the row order inside each
    component, as two column views, each component's offset with
    len(rows) appended, and the grouped position of every input row
    (grouped row j is input row order[j])."""
    if k == 1:
        starts = np.array([0, len(rows)])
        order = np.arange(len(rows))
    else:
        lab = comp[rows[:, 0]]
        order = np.argsort(lab, kind="stable")
        rows = np.take(rows, order, axis=0)
        starts = np.searchsorted(lab[order], np.arange(k + 1))
    return rows[:, 0], rows[:, 1], starts, order


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
        raise MaxDegreeError("construction needs max degree >= 2")
    n = g.n
    if variant == "theorem1":
        raw_p = params.c * math.log(dmax) / dmin
    else:
        raw_p = params.c * math.log(n) / dmin
    p = _inclusion_prob(raw_p, params.clamp)
    cap = params.c * math.log(dmax)

    members, starts = g.component_order
    sizes = np.diff(starts)
    k = len(sizes)
    ranks, local = g.ranks, g.local_closed
    W = local.shape[1]
    edges = g.edge_array()
    eu, ev, e_starts, e_order = _grouped(edges, g.component_ids, k)
    deg = g.degrees.astype(np.float64)
    # the current draw of every component, as vertex and edge flags; a
    # round rewrites only the entries of its active components
    in_code = np.zeros(n, dtype=bool)
    in_dom = np.zeros(n, dtype=bool)
    deleted = np.zeros(len(eu), dtype=bool)
    # per-vertex scratch, read only at the active vertices
    term = np.zeros(n)
    pos = np.zeros(n, dtype=np.int64)
    # the 2-balls in g as local rows, each filled when first needed
    ball = np.empty((n, W), dtype=np.uint64)
    has_ball = np.zeros(n, dtype=bool)

    accept = np.full(k, -1)
    active = np.arange(k)
    streams = _Streams(params.seed)
    trials: list[TrialRecord] = []
    for r in range(params.max_retries + 1):
        if not len(active):
            break
        size_a = sizes[active]
        e_len = e_starts[active + 1] - e_starts[active]
        if len(active) == k:
            vs, e_at = members, slice(None)
        else:
            vs = members[concat_ranges(starts[active], size_a)]
            e_at = concat_ranges(e_starts[active], e_len)
        drawn = streams.start(active, r, size_a, e_len) < p
        in_code[vs] = drawn

        au, av = eu[e_at], ev[e_at]
        inc = np.flatnonzero(in_code[au] | in_code[av])
        inc_len = np.diff(np.searchsorted(inc, np.concatenate(([0], np.cumsum(e_len)))))
        # the active rows of g, and each component's code as one local row
        h = local[vs]
        seg = np.repeat(np.arange(len(active)), size_a)
        gates = np.zeros((len(active), W), dtype=np.uint64)
        _toggle_bits(gates, seg[drawn], ranks[vs[drawn]])
        draws = streams.rest(inc_len)
        if variant == "theorem1":
            # the rows are closed, so a code vertex also counts its own bit
            dc = np.bitwise_count(h & gates[seg]).sum(1, dtype=np.int64) - drawn
            term[vs] = np.minimum(cap, dc) / np.maximum(dc, 1)
            mean = deg[vs] * p
            a_cnt = int(np.count_nonzero(np.abs(dc - mean) >= mean / 2.0))
            drop = inc[_deleted(term, au[inc], av[inc], draws)]
        else:
            a_cnt, drop = 0, inc[draws < 0.25]
        flags = np.zeros(len(au), dtype=bool)
        flags[drop] = True
        deleted[e_at] = flags

        # the active rows of h: clear both bits of every deleted edge
        pos[vs] = np.arange(len(vs))
        du, dv = au[drop], av[drop]
        _toggle_bits(h, np.concatenate((pos[du], pos[dv])), ranks[np.concatenate((dv, du))])

        if variant == "uniform":
            dom = np.zeros(len(vs), dtype=bool)
            dom[greedy_cover_segments(h, size_a)] = True
            in_dom[vs] = dom
            extra = dom & ~drawn
            _toggle_bits(gates, seg[extra], ranks[vs[extra]])
        # equal gated rows of h get equal ids; only vertices whose id
        # repeats can fail, and u fails with the members of its class (same
        # component, same id) inside its 2-ball in g, other than u
        ids = np.unique(row_keys(h & gates[seg]), return_inverse=True)[1]
        tied = np.flatnonzero(np.bincount(ids)[ids] > 1)
        fails = np.zeros(len(active), dtype=np.int64)
        if len(tied):
            _, cls, cnt = np.unique(
                seg[tied] * len(vs) + ids[tied], return_inverse=True, return_counts=True
            )
            keep = cnt[cls] > 1
            tied, cls = tied[keep], cls[keep]
            tv = vs[tied]
            class_rows = np.zeros((len(cnt), W), dtype=np.uint64)
            _toggle_bits(class_rows, cls, ranks[tv])
            new = tv[~has_ball[tv]]
            if len(new):
                ball[new] = ball_rows(g, new, local)
                has_ball[new] = True
            partners = np.bitwise_count(ball[tv] & class_rows[cls]).sum(1, dtype=np.int64) - 1
            # every failing pair is counted from both of its ends
            fails = np.bincount(seg[tied], partners, minlength=len(active)).astype(np.int64) // 2

        accept[active[fails == 0]] = r
        active = active[fails > 0]
        trials.append(
            TrialRecord(
                r,
                int(np.count_nonzero(in_code)),
                int(np.count_nonzero(deleted)),
                a_cnt,
                int(fails.sum()),
            )
        )
    if len(active):
        last = trials[-1]
        raise RetriesExhaustedError(
            f"no success within {params.max_retries} retries; last round: "
            f"{last.a_violations} degree deviations, "
            f"{last.b_violations} separation failures",
            last,
        )

    # back in g's edge order, the deleted rows come out sorted
    if k == 1:
        gone = deleted
    else:
        gone = np.empty_like(deleted)
        gone[e_order] = deleted
    dels = np.compress(gone, edges, axis=0)
    h = g._without(gone)
    code = set(np.flatnonzero(in_code).tolist())
    if variant == "theorem1":
        dom = set(greedy_dominating(g))
        if not is_dominating(h, sorted(code | dom)).ok:
            dom = set(greedy_dominating(h))
    else:
        dom = set(np.flatnonzero(in_dom).tolist())
    final = code | dom
    verdict = is_identifying_code(h, sorted(final))
    if not verdict.ok:
        raise RuntimeError(f"accepted rounds must yield a valid code: {verdict}")
    stats = SparsifyStats(
        deleted_edges=len(dels),
        code_size=len(final),
        n_ln_dmax=n * math.log(dmax),
        n_ln_dmax_over_dmin=n * math.log(dmax) / dmin,
    )
    return SparsifyResult(
        deleted_edges=tuple(zip(dels[:, 0].tolist(), dels[:, 1].tolist())),
        code=frozenset(code),
        dominating=frozenset(dom),
        final_code=frozenset(final),
        retries_used=len(trials) - 1,
        stats=stats,
        trials=tuple(trials),
        accept_rounds=tuple(accept.tolist()),
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
    for x in (u, v):
        if not 0 <= x < g.n:
            raise ValueError(f"vertex {x} out of range for n={g.n}")
    code_set = frozenset(code)
    if u == v or g.has_edge(u, v) or not (g.neighbors(u) & g.neighbors(v)):
        raise ValueError("pair must be at distance exactly 2")
    if u in code_set or v in code_set:
        return 0.0
    f = bounded_f(g, code_set, c)
    dc = g.neighbor_counts(_members(code_set, g.n))
    terms = np.divide(f, dc.astype(np.float64), out=np.zeros(g.n), where=dc > 0)
    su, sv = (np.array(sorted(g.neighbors(x) & code_set), dtype=np.int64) for x in (u, v))
    rng = np.random.default_rng(seed)
    keep_u = ~_deleted(terms, u, su, rng.random((trials, len(su))))
    keep_v = ~_deleted(terms, v, sv, rng.random((trials, len(sv))))
    # the signatures agree when each shared code neighbor's two edges
    # share a fate and no other code edge at u or v survives
    in_v, in_u = np.isin(su, sv), np.isin(sv, su)
    same = (keep_u[:, in_v] == keep_v[:, in_u]).all(1)
    return float((same & ~keep_u[:, ~in_v].any(1) & ~keep_v[:, ~in_u].any(1)).mean())

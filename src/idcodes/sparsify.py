"""Randomized edge-deletion sparsification with Las-Vegas retries.

The public building blocks (pick_code, bounded_f, sample_subgraph,
check_events, pair_collision_frequency) operate on whole graphs exactly
as defined. Every edge deletion, in both variants of the driver's
rounds and in sample_subgraph and pair_collision_frequency (each with
its own random draws), goes through one rule, _deleted. The driver,
sparsify, runs the construction per connected component in synchronized
rounds, redrawing only components that still fail: component draws are
independent, so the output law equals whole-graph retrying while needing
far fewer rounds. Acceptance is gated on separation failures only;
degree-deviation counts are tallied per round as diagnostics.

Round r of component i depends only on component i of g and its stream
(below), not on any other round, so the rounds are evaluated in passes
over (component, round) keys: a pass starting at round r takes rounds
r..r+B-1 of every still-active component, keeps each component's first
accepting round and discards its later ones. B is the largest count,
at most r and at most what is left of the retry budget, for which the
pass holds no more vertices and edges than round 0 (_pass_rounds): so
memory stays at O(n W + m), round 0 and every round of a connected
graph are passes of their own, and the long tail of rounds in which few
components still fail takes a few passes, not one per round. The trials
are then rebuilt round by round, as one round at a time would record
them: the frozen draws of the components accepted earlier plus the draws
of that round's active ones, up to the round where the last component
accepts.

A pass is a fixed sequence of array operations over all its keys at
once, never a loop over their vertices or edges. Vertices and edges are
kept grouped by component, so a pass gathers only the active ranges, one
copy per key, and indexes every array by position among its keys'
vertices or edges, never by vertex, since a vertex appears once per
round. The pass gathers the keys' component-local packed rows
(Graph.local_closed: a vertex's column is its rank inside its component)
and packs each key's code into one local row. The code degrees are
popcounts of the gathered rows masked by their key's code row, less the
vertex's own bit, and the deletion probabilities are gathered per
code-incident edge. Clearing the deleted edges' bits in the gathered
rows gives the surviving closed neighborhoods. A pair at distance <= 2
fails when its two rows masked by the code row (traces) are equal, so
the vertices are sorted into classes of equal (key, trace) by one stable
sort of the exact trace keys (row_keys, no hashing), and only classes of
two or more can fail. Two vertices with the same nonempty trace share a
code vertex, which lies in both closed neighborhoods in g, so they are
within distance 2: a class of s members whose trace is nonempty fails
C(s, 2) pairs, counted from s alone. Only a key's class of undominated
vertices (empty traces) needs distances: it is packed into one local
row, and its member u fails with every other member inside u's 2-ball in
g, so its partner count is one popcount of the ball masked by the class
row, less u itself; bincount tallies half the partner counts per key.
The 2-balls (graphs._local_balls, which reads each neighborhood from the
set bits of the vertex's own local row) never change between rounds, so
each is computed the first time its vertex ties undominated and kept in
one n x W array; no list of the distance-2 pairs and no neighbor list
is ever built. The uniform variant's dominating sets come from one
greedy cover stepping through all keys together, and its members
outside the code are added to the code row before the traces are taken,
so every vertex is dominated and its runs compute no 2-ball. Its terms
f/dc stay at 1/2 at every vertex, so each code-incident edge goes with
probability 1/4.

The passes edit packed rows only with _set_bits and _clear_bits, which
add or subtract each bit to or from its word (numpy's add.at and
subtract.at scatters run about 5x faster than the bitwise ones); every
target bit is distinct and clear before a set, or set before a clear, so
the words come out as with OR and AND-NOT.

After the last pass the deletion flags are mapped back to g's sorted
edge order (on a connected graph they are in it already): the kept rows
build the sparsified graph directly, and the deleted rows are the
result's sorted tuple of deleted edges. The sparsified graph inherits g's
packed rows and degrees when g has them cached, as a connected g does
(its component-local rows are its packed rows): a copy with the deleted
edges' bits cleared by the graphs module's own code (Graph._without),
never by _set_bits or _clear_bits, so the final verification reads rows
that share no code with the passes' row edits. The passes' arrays are
freed before that verification.

Randomness is derived per (seed, component, round): component i draws in
round r from the stream of numpy.random.default_rng((seed, i, r)), its
vertex draws before its edge draws, so results are reproducible and
independent of which components are still active and of how the rounds
are grouped into passes. No generator is built per stream. The
seed-sequence hash and the PCG64 seeding step run as array passes over
a grid of (component, round) keys at once: the active components of a
pass by three times its B rounds, or by enough rounds to make a block of
about 64 keys if that is more. The passes run in ascending rounds and
the active components only shrink, so the grid holds every key of the
next pass as long as that pass ends within its rounds, and the next
pass usually derives none. One reused PCG64 is set to each stream's
state in turn. Each stream is drawn in one call into the pass's one
buffer: its vertex doubles and one double per edge of its component, of
which the code-incident edges take the first ones.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._kernels import greedy_cover_segments
from .codes import UndominatedVertex, is_identifying_code
from .graphs import Edge, Graph, _dist2_blocks, _local_balls, _members, _word_bits, concat_ranges
from .graphs import degree_stats, pack_rows, row_keys
from .solvers import greedy_dominating

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
    if max(int(comps.max()), int(rounds.max())) > _U32:
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
    """The streams of one sparsify run, drawn through one reused PCG64."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.bits = np.random.PCG64(0)
        self.gen = np.random.Generator(self.bits)
        self.stop = 0

    def draw(
        self, active: np.ndarray, r: int, B: int, take: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One pass's doubles: the first take[j] of the stream of each key
        j = t * L + i, component active[i] in round r + t for t < B (L =
        len(active)), concatenated in key order into one buffer, and each
        key's offset in it. A run's passes come in ascending rounds, and
        active is sorted and only loses components from pass to pass.

        The seed words are read from a grid of components by consecutive
        rounds: the last grid derived, if it runs to round r + B - 1, else
        a new one over active from round r on, for 3 * B rounds (room for a
        next pass of up to twice as many rounds) or about _BLOCK keys,
        whichever is more, and never past round 2**32 - 1."""
        if r + B > self.stop:
            count = max(B, min(max(3 * B, _BLOCK // len(active)), _U32 + 1 - r))
            self.words = _stream_words(self.seed, active, np.arange(r, r + count))
            self.comps, self.first, self.stop = active, r, r + count
        at = np.searchsorted(self.comps, active)
        keys = self.words[r - self.first : r + B - self.first, at].reshape(-1, 4).tolist()
        ends = np.cumsum(take)
        offs = ends - take
        buf = np.empty(int(ends[-1]))
        for key, a, b in zip(keys, offs.tolist(), ends.tolist()):
            self.bits.state = _pcg64_state(key)
            self.gen.random(out=buf[a:b])
        return buf, offs


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
        if not (self.c > 0 and math.isfinite(self.c)):  # NaN too
            raise ValueError("c must be positive and finite")
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
    """The one edge-deletion rule, of both variants' rounds,
    sample_subgraph and pair_collision_frequency: the code-incident edge
    (eu[j], ev[j]) is deleted when its uniform draws[j] falls below
    (terms[eu[j]] + terms[ev[j]]) / 4, where terms[x] = f(x)/dc(x) (0
    where dc(x) = 0; the uniform rounds keep it at 1/2, so their edges go
    with probability exactly 1/4). With f <= dc every probability is at
    most 1/2."""
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
    es = g.edge_array()
    inc = np.flatnonzero(in_code[es[:, 0]] | in_code[es[:, 1]])
    draws = np.random.default_rng(seed).random(len(inc))
    gone = np.zeros(g.m, dtype=bool)
    gone[inc[_deleted(f / np.maximum(dc, 1), es[inc, 0], es[inc, 1], draws)]] = True
    return g._without(gone), frozenset(map(tuple, np.compress(gone, es, axis=0).tolist()))


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


def _set_bits(rows: np.ndarray, at: np.ndarray, cols: np.ndarray) -> None:
    """Set bit cols[j] of packed row at[j], for every j, in place. The
    (row, bit) targets must be distinct and clear, so adding each bit to
    its word sets it and carries nothing: numpy's add.at scatter runs
    about 5x faster than bitwise_or.at."""
    np.add.at(rows.reshape(-1), *_word_bits(at, cols, rows.shape[1]))


def _clear_bits(rows: np.ndarray, at: np.ndarray, cols: np.ndarray) -> None:
    """Clear bit cols[j] of packed row at[j], for every j, in place. The
    (row, bit) targets must be distinct and set, so subtracting each bit
    from its word clears it and borrows nothing (subtract.at, as in
    _set_bits)."""
    np.subtract.at(rows.reshape(-1), *_word_bits(at, cols, rows.shape[1]))


def _pass_rounds(r: int, n: int, m: int, vertices: int, edges: int, max_retries: int) -> int:
    """How many rounds, from round r on, one pass evaluates for the
    still-active components, which hold the given numbers of g's n
    vertices and m edges: at most as many as fit in round 0's n vertices
    and m edges, at most r (so a pass at most doubles the rounds run so
    far) and none past max_retries. Round 0, and every round of a
    connected graph, is a pass of its own."""
    return max(1, min(r, n // vertices, m // edges, max_retries + 1 - r))


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


def _rounds(
    g: Graph, params: SparsifyParams, p: float, cap: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[TrialRecord], np.ndarray]:
    """The Las Vegas rounds of sparsify, in passes: the code flags,
    dominating flags and deletion flags (in g's edge order) of the
    accepted draws, the trials and the accept rounds. The arrays of the
    passes are freed on return, before sparsify verifies the code."""
    variant, max_retries = params.variant, params.max_retries
    n = g.n
    members, starts = g.component_order
    sizes = np.diff(starts)
    k = len(sizes)
    ranks, local = g.ranks, g.local_closed
    W = local.shape[1]
    eu, ev, e_starts, e_order = _grouped(g.edge_array(), g.component_ids, k)
    m = len(eu)
    e_sizes = np.diff(e_starts)
    # each edge's endpoints as positions in members (on a connected graph
    # they are the vertices)
    if k > 1:
        inv = np.empty(n, dtype=np.int64)
        inv[members] = np.arange(n)
        eu, ev = inv[eu], inv[ev]
    deg = g.degrees.astype(np.float64)
    # the kept draw of every component, as vertex and edge flags
    in_code = np.zeros(n, dtype=bool)
    in_dom = np.zeros(n, dtype=bool)
    deleted = np.zeros(m, dtype=bool)
    # the 2-balls in g as local rows, each filled when first needed
    ball = np.empty((n, W), dtype=np.uint64)
    has_ball = np.zeros(n, dtype=bool)

    accept = np.full(k, -1)
    active = np.arange(k)
    # the code vertices and deleted edges of the accepted components
    kept_code = kept_del = 0
    streams = _Streams(params.seed)
    trials: list[TrialRecord] = []
    r = 0
    while len(active) and r <= max_retries:
        # one pass: rounds r..r+B-1 of every active component, as keys
        # j = t * L + i (component active[i] in round r + t); every array
        # below is indexed by key, or by position among the keys' vertices
        # or edges, never by vertex or edge
        L = len(active)
        B = _pass_rounds(
            r, n, m, int(sizes[active].sum()), int(e_sizes[active].sum()), max_retries
        )
        comp = np.tile(active, B)
        size_a, e_len = sizes[comp], e_sizes[comp]
        v_off = np.cumsum(size_a) - size_a
        e_bounds = np.concatenate(([0], np.cumsum(e_len)))
        full = L == k  # then B is 1
        if full:
            vs, e_at = members, slice(None)
        else:
            vs = members[concat_ranges(starts[comp], size_a)]
            e_at = concat_ranges(e_starts[comp], e_len)
        buf, offs = streams.draw(active, r, B, size_a + e_len)
        drawn = buf[concat_ranges(offs, size_a)] < p
        seg = np.repeat(np.arange(len(comp)), size_a)
        col = ranks[vs]

        # each edge's endpoints as positions in the pass
        pu, pv = eu[e_at], ev[e_at]
        if not full:
            shift = np.repeat(v_off - starts[comp], e_len)
            pu += shift
            pv += shift
            del shift
        inc = np.flatnonzero(drawn[pu] | drawn[pv])
        inc_len = np.diff(np.searchsorted(inc, e_bounds))
        # the keys' rows of g, and each key's code as one local row
        h = local[vs]
        gates = np.zeros((len(comp), W), dtype=np.uint64)
        _set_bits(gates, seg[drawn], col[drawn])
        draws = buf[concat_ranges(offs + size_a, inc_len)]
        if variant == "theorem1":
            # the rows are closed, so a code vertex also counts its own bit
            dc = np.bitwise_count(h & gates[seg]).sum(1, dtype=np.int64) - drawn
            term = np.minimum(cap, dc) / np.maximum(dc, 1)
            mean = deg[vs] * p
            strays = np.bincount(seg[np.abs(dc - mean) >= mean / 2.0], minlength=len(comp))
        else:
            term = np.full(len(vs), 0.5)
            strays = np.zeros(len(comp), dtype=np.int64)
        drop = inc[_deleted(term, pu[inc], pv[inc], draws)]
        flags = np.zeros(len(pu), dtype=bool)
        flags[drop] = True

        # the keys' rows of h: clear both bits of every deleted edge
        du, dv = pu[drop], pv[drop]
        _clear_bits(h, np.concatenate((du, dv)), col[np.concatenate((dv, du))])

        if variant == "uniform":
            dom = np.zeros(len(vs), dtype=bool)
            dom[greedy_cover_segments(h, size_a)] = True
            extra = dom & ~drawn
            _set_bits(gates, seg[extra], col[extra])
        # a vertex fails with the members of its class (same key, same
        # gated row of h) within distance 2 in g. The members of a class
        # with a nonempty gated row share a code vertex, so all its C(s, 2)
        # pairs fail; only the class of a key's undominated vertices needs
        # their 2-balls. vs lists the keys in order, so one stable sort by
        # row key leaves each key's members of a row key together: a class
        # starts where the row key or the key changes
        gated = h & gates[seg]
        keys = row_keys(gated)
        order = np.argsort(keys, kind="stable")
        keys, owner = keys[order], seg[order]
        cut = np.flatnonzero(
            np.concatenate(([True], (keys[1:] != keys[:-1]) | (owner[1:] != owner[:-1])))
        )
        cnt = np.diff(np.append(cut, len(vs)))
        cut, cnt = cut[cnt > 1], cnt[cnt > 1]
        fails = np.zeros(len(comp), dtype=np.int64)
        if len(cut):
            empty = ~gated[order[cut]].any(1)
            pairs = np.where(empty, 0, cnt * (cnt - 1) // 2)
            fails = np.bincount(owner[cut], pairs, minlength=len(comp)).astype(np.int64)
            if empty.any():
                cut, cnt = cut[empty], cnt[empty]
                tied = order[concat_ranges(cut, cnt)]
                cls = np.repeat(np.arange(len(cut)), cnt)
                tv = vs[tied]
                class_rows = np.zeros((len(cut), W), dtype=np.uint64)
                _set_bits(class_rows, cls, col[tied])
                # a vertex tied in two rounds of the pass is filled twice
                new = tv[~has_ball[tv]]
                if len(new):
                    ball[new] = _local_balls(g, new)
                    has_ball[new] = True
                shared = np.bitwise_count(ball[tv] & class_rows[cls])
                partners = shared.sum(1, dtype=np.int64) - 1
                # every failing pair is counted from both of its ends
                tally = np.bincount(seg[tied], partners, minlength=len(comp))
                fails += tally.astype(np.int64) // 2

        # each component's first accepting round in the pass (B if none);
        # the trials stop at the round where the last component accepts
        ok = fails.reshape(B, L) <= 0
        first = np.where(ok.any(0), ok.argmax(0), B)
        T = min(B, int(first.max()) + 1)
        t = np.arange(T)[:, None]
        # the key whose draw component i holds at round t: its accepted
        # one once it has accepted, whose violations no longer count
        held = np.minimum(t, first) * L + np.arange(L)
        code_k = np.bincount(seg[drawn], minlength=len(comp))
        del_k = np.diff(np.searchsorted(drop, e_bounds))
        tallies = np.stack((code_k, del_k, strays, fails))[:, held]
        tallies[2:, first < t] = 0
        code_t, del_t, a_t, b_t = tallies.sum(2).tolist()
        trials += [
            TrialRecord(r + j, kept_code + code_t[j], kept_del + del_t[j], a_t[j], b_t[j])
            for j in range(T)
        ]

        # keep each accepted component's draw. A pass of one round draws
        # each component once and keeps every draw: a failing one is
        # replaced when its component is accepted
        done = np.flatnonzero(first < B)
        at_key = first[done] * L + done
        kept_code += int(code_k[at_key].sum())
        kept_del += int(del_k[at_key].sum())
        if B == 1:
            v_at = e_pos = slice(None)
        else:
            v_at = concat_ranges(v_off[at_key], size_a[at_key])
            e_pos = concat_ranges(e_bounds[at_key], e_len[at_key])
        in_code[vs[v_at]] = drawn[v_at]
        if variant == "uniform":
            in_dom[vs[v_at]] = dom[v_at]
        deleted[e_at if full else e_at[e_pos]] = flags[e_pos]
        # free the pass's edge arrays before the next pass allocates its
        # own: a pass of several rounds is about as large as round 0, and
        # holding two at once makes the heap grow over a long run
        del e_at, pu, pv, inc, buf, draws, flags
        accept[active[done]] = r + first[done]
        active = active[first == B]
        r += B
    if len(active):
        last = trials[-1]
        raise RetriesExhaustedError(
            f"no success within {max_retries} retries; last round: "
            f"{last.a_violations} degree deviations, "
            f"{last.b_violations} separation failures",
            last,
        )

    # back in g's edge order
    if k == 1:
        return in_code, in_dom, deleted, trials, accept
    gone = np.empty_like(deleted)
    gone[e_order] = deleted
    return in_code, in_dom, gone, trials, accept


def sparsify(g: Graph, params: SparsifyParams) -> SparsifyResult:
    """Sparsify g and return an identifying code of the sparsified graph.

    params.variant picks the construction:

    - "theorem1": random code, degree-capped edge deletion, retry until
      every pair at distance <= 2 is separated by the code, then complete
      with a greedy dominating set.
    - "uniform": p = min(1, c*ln(n)/dmin), and the same deletion rule
      (_deleted) with f/dc = 1/2 at every vertex, so each code-incident
      edge goes with probability 1/4; retries until the code plus a
      greedy dominating set identifies the sparsified component.

    The returned code is verified on the sparsified graph before
    returning.
    """
    variant = params.variant
    dmin, dmax = _degree_checks(g)
    if variant == "theorem1" and dmax < 2:
        raise MaxDegreeError("construction needs max degree >= 2")
    n = g.n
    p = _inclusion_prob(
        params.c * math.log(dmax if variant == "theorem1" else n) / dmin, params.clamp
    )
    cap = params.c * math.log(dmax)

    in_code, in_dom, gone, trials, accept = _rounds(g, params, p, cap)
    edges = g.edge_array()
    dels = np.compress(gone, edges, axis=0)
    h = g._without(gone)
    code = set(np.flatnonzero(in_code).tolist())
    if variant == "theorem1":
        dom = set(greedy_dominating(g))
    else:
        dom = set(np.flatnonzero(in_dom).tolist())
    final = code | dom
    verdict = is_identifying_code(h, sorted(final))
    # the check tests domination first: g's dominating set may leave a
    # vertex of h undominated, and then h's own is taken instead
    if variant == "theorem1" and isinstance(verdict.witness, UndominatedVertex):
        dom = set(greedy_dominating(h))
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
    _members((u, v), g.n)
    code_set = frozenset(code)
    if u == v or g.has_edge(u, v) or not (g.neighbors(u) & g.neighbors(v)):
        raise ValueError("pair must be at distance exactly 2")
    if u in code_set or v in code_set:
        return 0.0
    f = bounded_f(g, code_set, c)
    terms = f / np.maximum(g.neighbor_counts(_members(code_set, g.n)), 1)
    su, sv = (np.array(sorted(g.neighbors(x) & code_set), dtype=np.int64) for x in (u, v))
    rng = np.random.default_rng(seed)
    keep_u = ~_deleted(terms, u, su, rng.random((trials, len(su))))
    keep_v = ~_deleted(terms, v, sv, rng.random((trials, len(sv))))
    # the signatures agree when each shared code neighbor's two edges
    # share a fate and no other code edge at u or v survives
    in_v, in_u = np.isin(su, sv), np.isin(sv, su)
    same = (keep_u[:, in_v] == keep_v[:, in_u]).all(1)
    return float((same & ~keep_u[:, ~in_v].any(1) & ~keep_v[:, ~in_u].any(1)).mean())

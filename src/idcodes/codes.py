"""Verifiers for domination, separation, identifying codes, and
locating-dominating sets.

All checks run on closed-neighborhood bitmasks, exact for any graph size.
Failing verdicts carry the lexicographically least witness so failures are
deterministic and re-checkable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from .graphs import Graph, dist2_pair_array


class InvalidCodeError(ValueError):
    """A vertex set required to be a verified code fails verification."""


@dataclass(frozen=True)
class UndominatedVertex:
    v: int


@dataclass(frozen=True)
class UnseparatedPair:
    u: int
    v: int


Witness = Union[UndominatedVertex, UnseparatedPair]


@dataclass(frozen=True)
class Verdict:
    ok: bool
    witness: Optional[Witness] = None

    def __post_init__(self) -> None:
        # ok verdicts carry no witness; failures carry exactly one
        if self.ok == (self.witness is not None):
            raise ValueError("witness must be present iff not ok")


_OK = Verdict(True)


def code_mask(g: Graph, c: Iterable[int]) -> int:
    """Validate c as a subset of V(g) and pack it into an int bitmask."""
    mask = 0
    for v in c:
        if not 0 <= v < g.n:
            raise InvalidCodeError(f"code vertex {v} out of range for n={g.n}")
        mask |= 1 << v
    return mask


def mask_to_set(mask: int) -> frozenset[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def signature(g: Graph, c: Iterable[int], v: int) -> frozenset[int]:
    """N[v] intersected with the code: the trace that identifies v."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    return mask_to_set(g.closed_masks[v] & code_mask(g, c))


def is_dominating(g: Graph, c: Iterable[int]) -> Verdict:
    """Every vertex has a code member in its closed neighborhood."""
    cmask = code_mask(g, c)
    for v in range(g.n):
        if not g.closed_masks[v] & cmask:
            return Verdict(False, UndominatedVertex(v))
    return _OK


def _least_equal_pair(groups: dict[int, list[int]]) -> Optional[tuple[int, int]]:
    """Lex-least pair among groups of vertices sharing a signature.

    Each group's vertex list must be ascending; the least pair within a
    group is then its first two members.
    """
    best = None
    for members in groups.values():
        if len(members) > 1:
            pair = (members[0], members[1])
            if best is None or pair < best:
                best = pair
    return best


def is_separating(g: Graph, c: Iterable[int]) -> Verdict:
    """All n signatures pairwise distinct."""
    cmask = code_mask(g, c)
    masks = g.closed_masks
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(masks[v] & cmask, []).append(v)
    pair = _least_equal_pair(groups)
    if pair is not None:
        return Verdict(False, UnseparatedPair(*pair))
    return _OK


def is_identifying_code(g: Graph, c: Iterable[int], mode: str = "full") -> Verdict:
    """Dominating and separating.

    mode "full" checks separation over all vertex pairs; mode "dist2" only
    over pairs at distance <= 2. The two agree: vertices farther apart have
    disjoint closed neighborhoods, and once both are dominated their
    non-empty signatures cannot coincide.
    """
    if mode not in ("full", "dist2"):
        raise ValueError(f"mode must be 'full' or 'dist2', got {mode!r}")
    dom = is_dominating(g, c)
    if not dom.ok:
        return dom
    if mode == "full":
        return is_separating(g, c)
    cmask = code_mask(g, c)
    ids: dict[int, int] = {}
    sig = np.array([ids.setdefault(m & cmask, len(ids)) for m in g.closed_masks])
    pairs = dist2_pair_array(g)
    same = np.flatnonzero(sig[pairs[:, 0]] == sig[pairs[:, 1]])
    if len(same):
        return Verdict(False, UnseparatedPair(*pairs[same[0]].tolist()))
    return _OK


def is_locating_dominating(g: Graph, c: Iterable[int]) -> Verdict:
    """Dominating, and signatures of vertices outside the code distinct."""
    dom = is_dominating(g, c)
    if not dom.ok:
        return dom
    cmask = code_mask(g, c)
    masks = g.closed_masks
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        if not cmask >> v & 1:
            groups.setdefault(masks[v] & cmask, []).append(v)
    pair = _least_equal_pair(groups)
    if pair is not None:
        return Verdict(False, UnseparatedPair(*pair))
    return _OK

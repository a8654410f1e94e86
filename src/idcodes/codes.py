"""Verifiers for domination, separation, identifying codes, and
locating-dominating sets.

All checks are array passes over `Graph.packed_closed` with every row
gated by the code's row, exact for any graph size: an all-zero gated row
is undominated, and the least pair of equal gated rows is the least
unseparated pair. Failing verdicts carry the lexicographically least
witness so failures are deterministic and re-checkable.

The module holds only the verifiers and the checks of their input; the
row layout is the graphs module's, and the code checked here imports
from this module only the verifiers and their result and error types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from .graphs import Graph, least_equal_rows, pack_rows, unpack_rows


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


def _code_row(g: Graph, c: Iterable[int]) -> np.ndarray:
    """Validate c as a subset of V(g) and pack it as a row of g.packed_closed."""
    vals = list(c)
    arr = np.asarray(vals) if vals else np.empty(0, dtype=np.int64)
    bad = (arr < 0) | (arr >= g.n)
    if bad.any():
        raise InvalidCodeError(f"code vertex {vals[int(np.argmax(bad))]} out of range for n={g.n}")
    bits = np.zeros(64 * g.packed_closed.shape[1], dtype=bool)
    bits[arr] = True
    return pack_rows(bits)


def _undominated(rows: np.ndarray) -> Optional[Verdict]:
    """The failing verdict for the first all-zero gated row, if any."""
    dominated = rows.any(axis=1)
    if dominated.all():
        return None
    return Verdict(False, UndominatedVertex(int(np.argmin(dominated))))


def _separation(rows: np.ndarray, vs: Optional[np.ndarray] = None) -> Verdict:
    """ok iff the gated rows are pairwise distinct, else the lex-least pair
    i < j with equal rows, read through vs when given."""
    pair = least_equal_rows(rows)
    if pair is None:
        return _OK
    if vs is not None:
        pair = vs[list(pair)].tolist()
    return Verdict(False, UnseparatedPair(*pair))


def signature(g: Graph, c: Iterable[int], v: int) -> frozenset[int]:
    """N[v] intersected with the code: the trace that identifies v."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    return frozenset(np.flatnonzero(unpack_rows(g.packed_closed[v] & _code_row(g, c), g.n)).tolist())


def is_dominating(g: Graph, c: Iterable[int]) -> Verdict:
    """Every vertex has a code member in its closed neighborhood."""
    return _undominated(g.packed_closed & _code_row(g, c)) or _OK


def is_separating(g: Graph, c: Iterable[int]) -> Verdict:
    """All n signatures pairwise distinct."""
    return _separation(g.packed_closed & _code_row(g, c))


def is_identifying_code(g: Graph, c: Iterable[int]) -> Verdict:
    """Dominating and separating.

    Separation is checked over all vertex pairs. Once every vertex is
    dominated, two equal signatures share a code vertex, so any unseparated
    pair lies within distance 2 and the check needs no distance-2 list.
    """
    rows = g.packed_closed & _code_row(g, c)
    return _undominated(rows) or _separation(rows)


def is_locating_dominating(g: Graph, c: Iterable[int]) -> Verdict:
    """Dominating, and signatures of vertices outside the code distinct."""
    row = _code_row(g, c)
    rows = g.packed_closed & row
    outside = np.flatnonzero(~unpack_rows(row, g.n))
    return _undominated(rows) or _separation(rows[outside], outside)

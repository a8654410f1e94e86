"""Closed-form bounds and numeric roots used across the package.

All logarithms are natural except the explicitly base-2 ceiling quantities.
Root finding is plain bisection; no solver dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Union


@dataclass(frozen=True)
class BoundReport:
    name: str
    value: Union[int, float]
    inputs: dict[str, Any] = field(default_factory=dict)


def ceil_log2(m: int) -> int:
    """Smallest t with 2**t >= m, for m >= 1."""
    if m < 1:
        raise ValueError("ceil_log2 needs m >= 1")
    return (m - 1).bit_length()


def idcode_lower_bound(n: int) -> int:
    """ceil(log2(n+1)): n distinct non-empty code signatures need this many
    code vertices."""
    if n < 1:
        raise ValueError("idcode_lower_bound needs n >= 1")
    return ceil_log2(n + 1)


def chernoff_constant(eps: float) -> float:
    """min((1+eps)ln(1+eps) - eps, eps^2/2), the binomial tail exponent
    constant for relative deviation eps."""
    if not (eps > 0 and math.isfinite(eps)):  # NaN too
        raise ValueError("eps must be positive and finite")
    return min((1.0 + eps) * math.log1p(eps) - eps, eps * eps / 2.0)


def _sparse_root_fn(mp: float, a: float) -> float:
    # a * ln((mp + a) * e / a) - 1/2, expanded to avoid overflow in the ratio
    return a * (math.log(mp + a) + 1.0 - math.log(a)) - 0.5


def alpha0(mp: float) -> float:
    """Smallest positive root of a*ln((mp+a)e/a) = 1/2 on (0, 1].

    The left side minus 1/2 is strictly increasing in a, tends to -1/2 at
    0+ and equals ln(mp+1) + 1/2 at a=1, so the root is unique and
    bisection brackets it. 60 halvings put the error far below 1e-9.
    """
    if not (mp >= 0 and math.isfinite(mp)):  # NaN too
        raise ValueError("mp must be >= 0 and finite")
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if _sparse_root_fn(mp, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def sparse_edge_threshold(mp: float) -> float:
    """alpha0(mp)/4: graphs whose minimum identifying code is at most
    mp*ln(n) have at least this coefficient times n*ln(n) edges."""
    return alpha0(mp) / 4.0


def gnp_idcode_prediction(n: int, p: float) -> float:
    """Asymptotic minimum identifying code size of G(n,p):
    2 ln n / ln(1/q) with q = p^2 + (1-p)^2."""
    if n < 2:
        raise ValueError("prediction needs n >= 2")
    if not 0.0 < p < 1.0:
        raise ValueError("prediction needs 0 < p < 1")
    q = p * p + (1.0 - p) * (1.0 - p)
    return 2.0 * math.log(n) / math.log(1.0 / q)


# cap keeps the exact power computation desk-sized
_MAX_BIPARTITE_R = 10_000


def bipartite_subgraph_bound(r: int) -> int:
    """2^(2r) - 2^r: lower bound on the minimum identifying code of every
    twin-free spanning subgraph of the complete bipartite graph with sides
    r and 2^(2r)."""
    if r < 1:
        raise ValueError("bipartite_subgraph_bound needs r >= 1")
    if r > _MAX_BIPARTITE_R:
        raise OverflowError(f"r={r} exceeds supported range {_MAX_BIPARTITE_R}")
    return (1 << (2 * r)) - (1 << r)


def edge_deletion_sensitivity_bound() -> int:
    """Deleting one edge can lower the minimum identifying code size by at
    most this constant."""
    return 2


_BOUND_OPS: dict[str, tuple[Any, tuple[str, ...]]] = {
    "idcode_lower_bound": (idcode_lower_bound, ("n",)),
    "chernoff_constant": (chernoff_constant, ("eps",)),
    "alpha0": (alpha0, ("mp",)),
    "sparse_edge_threshold": (sparse_edge_threshold, ("mp",)),
    "gnp_idcode_prediction": (gnp_idcode_prediction, ("n", "p")),
    "bipartite_subgraph_bound": (bipartite_subgraph_bound, ("r",)),
    "edge_deletion_sensitivity_bound": (edge_deletion_sensitivity_bound, ()),
}


def bound_names() -> tuple[str, ...]:
    return tuple(_BOUND_OPS)


def evaluate(name: str, **params: Any) -> BoundReport:
    """Dispatch a named bound with keyword parameters; used by the CLI."""
    if name not in _BOUND_OPS:
        raise ValueError(f"unknown bound {name!r}; choose from {sorted(_BOUND_OPS)}")
    fn, wanted = _BOUND_OPS[name]
    missing = [k for k in wanted if k not in params]
    extra = [k for k in params if k not in wanted]
    if missing or extra:
        raise ValueError(
            f"bound {name!r} takes {wanted}, missing {missing}, extra {extra}"
        )
    value = fn(**{k: params[k] for k in wanted})
    return BoundReport(name=name, value=value, inputs={k: params[k] for k in wanted})

"""Hypothesis strategies shared across tests. Like `oracles.py`, nothing
here imports the package under test: graphs come out as (n, edges)."""

from itertools import combinations

from hypothesis import assume
from hypothesis import strategies as st

from oracles import oracle_complement_edges, oracle_twins


@st.composite
def twin_free_edge_lists(draw, max_n, complement_twin_free=False):
    """(n, edges) of a twin-free graph on 1..max_n vertices, each pair an
    edge or not; with complement_twin_free its complement is twin-free
    too."""
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, k in zip(pairs, keep) if k]
    assume(not oracle_twins(n, edges))
    if complement_twin_free:
        assume(not oracle_twins(n, oracle_complement_edges(n, edges)))
    return n, edges

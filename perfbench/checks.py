"""Output checks computed apart from the program.

Everything here works on the benchmark's own copy of the graph (a numpy
adjacency matrix) and on the text the commands print or write; nothing
is imported from idcodes. Each check returns a list of problems, empty
when the output is correct.
"""

from __future__ import annotations

import csv
import io
from functools import lru_cache

import numpy as np

from workloads import BGraph, distinct_rows


def ceil_log2(x: int) -> int:
    """Smallest k with 2**k >= x, for x >= 1."""
    return (x - 1).bit_length()


def parse_vertices(text: str) -> list[int]:
    return [int(tok) for tok in text.split()]


def parse_edges(text: str) -> np.ndarray:
    """One "u v" pair per line, as an (m, 2) array."""
    lines = [ln for ln in text.split("\n") if ln.strip()]
    tokens = text.split()
    if len(tokens) != 2 * len(lines):
        raise ValueError("an edge line does not hold two vertices")
    return np.array(tokens, dtype=np.int64).reshape(-1, 2)


def _vertex_problem(g: BGraph, vs: list[int], what: str) -> str | None:
    if len(set(vs)) != len(vs):
        return f"{what} repeats a vertex"
    if any(not 0 <= v < g.n for v in vs):
        return f"{what} has a vertex outside 0..{g.n - 1}"
    return None


def identifying_problem(g: BGraph, code: list[int], deleted=()) -> str | None:
    """None if `code` identifies g minus `deleted`: every trace N[v] & code
    is non-empty and all n traces are distinct."""
    bad = _vertex_problem(g, code, "code")
    if bad:
        return bad
    closed = g.closed
    if len(deleted):
        closed = closed.copy()
        d = np.asarray(deleted, dtype=np.int64)
        closed[d[:, 0], d[:, 1]] = False
        closed[d[:, 1], d[:, 0]] = False
    traces = closed[:, np.asarray(code, dtype=np.int64)]
    empty = np.flatnonzero(~traces.any(axis=1))
    if len(empty):
        return f"vertex {int(empty[0])} has an empty trace"
    if distinct_rows(np.packbits(traces, axis=1)) != g.n:
        return "two vertices share a trace"
    return None


def dominating_problem(g: BGraph, dom: list[int]) -> str | None:
    bad = _vertex_problem(g, dom, "dominating set")
    if bad:
        return bad
    hit = g.closed[:, np.asarray(dom, dtype=np.int64)].any(axis=1)
    if not hit.all():
        return f"vertex {int(np.flatnonzero(~hit)[0])} is not dominated"
    return None


# ------------------------------------------------------------ references --

def brute_force(g: BGraph) -> tuple[int, int]:
    """(gamma_ID, gamma) by trying every vertex subset; n <= 20."""
    if g.n > 20:
        raise ValueError("brute force is for n <= 20")
    bits = np.int64(1) << np.arange(g.n, dtype=np.int64)
    masks = (g.closed * bits[None, :]).sum(axis=1)  # bitmask of N[v]
    best_id = best_dom = g.n + 1
    chunk = 1 << 15
    for lo in range(0, 1 << g.n, chunk):
        subsets = np.arange(lo, min(lo + chunk, 1 << g.n), dtype=np.int64)
        traces = subsets[:, None] & masks[None, :]
        size = np.bitwise_count(subsets)
        dom = (traces != 0).all(axis=1)
        if dom.any():
            best_dom = min(best_dom, int(size[dom].min()))
        srt = np.sort(traces[dom], axis=1)
        distinct = (np.diff(srt, axis=1) != 0).all(axis=1)
        if distinct.any():
            best_id = min(best_id, int(size[dom][distinct].min()))
    return best_id, best_dom


@lru_cache(maxsize=64)
def _brute_force_cached(n: int, edge_bytes: bytes) -> tuple[int, int]:
    edges = np.frombuffer(edge_bytes, dtype=np.int64).reshape(-1, 2)
    return brute_force(BGraph("gnp", n, edges))


def gamma_id(g: BGraph) -> int:
    """Minimum identifying code size: closed forms for cycles (n >= 7) and
    paths (n >= 3), brute force for small G(n,p)."""
    if g.family == "cycle":
        return g.n // 2 if g.n % 2 == 0 else (g.n + 3) // 2
    if g.family == "path":
        return (g.n + 2) // 2  # ceil((n+1)/2)
    return _brute_force_cached(g.n, g.edges.tobytes())[0]


def gamma(g: BGraph) -> int:
    """Domination number: ceil(n/3) on cycles and paths, brute force else."""
    if g.family in ("cycle", "path"):
        return -(-g.n // 3)
    return _brute_force_cached(g.n, g.edges.tobytes())[1]


# --------------------------------------------------------- per command ---

def _printed_int(stdout: str) -> int | None:
    lines = stdout.split()
    if len(lines) != 1 or not lines[0].isdigit():
        return None
    return int(lines[0])


def check_sparsify(g: BGraph, variant: str, stdout: str, code_text: str, deleted_text: str):
    """Problems, the final code size and the deleted edge count."""
    problems = []
    rows = list(csv.DictReader(io.StringIO(stdout)))
    code = parse_vertices(code_text)
    deleted = parse_edges(deleted_text)
    if len(rows) != 1:
        return [f"expected one CSV row, got {len(rows)}"], len(code), len(deleted)
    row = rows[0]
    expect = {
        "status": "ok",
        "variant": variant,
        "code_size": str(len(code)),
        "edges_deleted": str(len(deleted)),
        "n": str(g.n),
        "delta": str(int(g.degrees.min())),
        "Delta": str(int(g.degrees.max())),
    }
    for key, want in expect.items():
        if row.get(key) != want:
            problems.append(f"CSV {key} is {row.get(key)!r}, expected {want!r}")
    u, v = deleted[:, 0], deleted[:, 1]
    if len(np.unique(u * g.n + v)) != len(deleted):
        problems.append("deleted list repeats an edge")
    if len(deleted) and (deleted.min() < 0 or deleted.max() >= g.n or not g.adjacency[u, v].all()):
        problems.append("a deleted pair is not an edge of G")
        return problems, len(code), len(deleted)
    bad = _vertex_problem(g, code, "code")
    if bad:
        return problems + [bad], len(code), len(deleted)
    in_code = np.zeros(g.n, dtype=bool)
    in_code[code] = True
    if not (in_code[u] | in_code[v]).all():
        problems.append("a deleted edge touches no code vertex")
    bad = identifying_problem(g, code, deleted)
    if bad:
        problems.append(f"final code on G minus the deleted edges: {bad}")
    return problems, len(code), len(deleted)


def check_greedy(g: BGraph, stdout: str, code_text: str):
    """Problems and the code size."""
    code = parse_vertices(code_text)
    problems = []
    size = _printed_int(stdout)
    if size != len(code):
        problems.append(f"printed size {size} but the code file holds {len(code)}")
    bad = identifying_problem(g, code)
    if bad:
        problems.append(f"greedy code: {bad}")
    if len(code) < g.n.bit_length():
        problems.append(f"greedy size {len(code)} below ceil(log2(n+1))")
    if g.family == "cycle" and len(code) < gamma_id(g):
        problems.append(f"greedy size {len(code)} below gamma_ID(C_{g.n})")
    return problems, len(code)


def check_exact(g: BGraph, outputs: dict):
    """Checks the four commands of an exact-small operation. `outputs` maps
    a command kind to (stdout, file text). Returns problems and the size of
    the identifying code `solve` found."""
    problems = []
    gid, gdom = gamma_id(g), gamma(g)

    stdout, text = outputs["solve"]
    code = parse_vertices(text)
    if _printed_int(stdout) != len(code) or len(code) != gid:
        problems.append(f"solve printed {stdout.strip()!r} and wrote {len(code)}; gamma_ID is {gid}")
    bad = identifying_problem(g, code)
    if bad:
        problems.append(f"solve: {bad}")

    stdout, text = outputs["dominating"]
    dom = parse_vertices(text)
    if _printed_int(stdout) != len(dom) or len(dom) != gdom:
        problems.append(f"solve --dominating printed {stdout.strip()!r} and wrote {len(dom)}; gamma is {gdom}")
    bad = dominating_problem(g, dom)
    if bad:
        problems.append(f"solve --dominating: {bad}")

    stdout, text = outputs["complement"]
    cc = parse_vertices(text)
    if _printed_int(stdout) != len(cc):
        problems.append(f"complement-code printed {stdout.strip()!r} but wrote {len(cc)}")
    if len(cc) > 2 * gid:
        problems.append(f"complement code of size {len(cc)} exceeds 2*gamma_ID = {2 * gid}")
    bad = identifying_problem(g.complement(), cc)
    if bad:
        problems.append(f"complement code on the complement: {bad}")

    size = _printed_int(outputs["watch"][0])
    lower = g.n.bit_length()
    upper = gdom * ceil_log2(int(g.degrees.max()) + 2)
    if size is None or not lower <= size <= upper:
        problems.append(f"watch size {size} outside [{lower}, {upper}]")
    return problems, len(code)

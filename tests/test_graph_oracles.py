"""The array-backed Graph builders against the per-edge oracles of
`oracles.py`: parsing, construction, edge deletion, distance-2 pairs and
components must give the same graphs, or fail with the same message."""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idcodes import (
    FormatError,
    Graph,
    complement,
    dist2_pairs,
    gnp,
    parse_edge_list,
    path,
)
from idcodes import graphs as graphs_mod

from corpus import interleaved_graphs, mixed_graph, small_corpus
from oracles import (
    OracleFormatError,
    adjacency,
    oracle_closed_masks,
    oracle_component_ids,
    oracle_delete_edges,
    oracle_dist2_pairs,
    oracle_distances,
    oracle_graph_edges,
    oracle_packed_rows,
    oracle_parse_edge_list,
)

DIGIT_SETS = ("0123456789", "٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９", "०१२३४५६७८९")
# "/" and ":" sit just below and above the ASCII digits
JUNK = ("x", "1.0", "0x1", "_1", "1_", "1__0", "--1", "²", "1e3", "+-1", "١x", "9" * 25, ":", "1:", "1/", "/2")
SEPARATORS = (" ", "  ", "\t", " \t ", "\u3000", "\xa0", "\x1f", "\u2003")
LINE_ENDS = ("\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028")
BLANKS = ("", " ", "\t", "\xa0 ")


@st.composite
def tokens(draw, value):
    """value spelled the way int() may read it, or now and then junk."""
    style = draw(st.sampled_from(
        ("plain",) * 6 + ("plus", "zeros", "underscore", "digits", "junk")
    ))
    text = str(value)
    if style == "plus" and value >= 0:
        return "+" + text
    if style == "zeros":
        return text.replace(text.lstrip("-"), "00" + text.lstrip("-"))
    if style == "underscore" and len(text.lstrip("-")) >= 2:
        return text[:-1] + "_" + text[-1]
    if style == "digits":
        digits = draw(st.sampled_from(DIGIT_SETS))
        return text.translate(str.maketrans("0123456789", digits))
    if style == "junk":
        return draw(st.sampled_from(JUNK))
    return text


@st.composite
def line_text(draw, values):
    sep = draw(st.sampled_from(SEPARATORS))
    words = [draw(tokens(v)) for v in values]
    lead = draw(st.sampled_from(("", "", " ", "\t")))
    trail = draw(st.sampled_from(("", "", " ", "\u3000")))
    return lead + sep.join(words) + trail


@st.composite
def edge_list_texts(draw):
    n = draw(st.integers(0, 12))
    pairs = draw(st.lists(st.tuples(st.integers(-1, n + 1), st.integers(-1, n + 1)), max_size=8))
    if pairs and draw(st.booleans()):
        pairs.append(draw(st.sampled_from(pairs)))  # a duplicate line
    lines = []
    for u, v in pairs:
        shape = draw(st.sampled_from(("pair",) * 8 + ("one", "three")))
        values = {"pair": [u, v], "one": [u], "three": [u, v, n]}[shape]
        lines.append(draw(line_text(values)))
    m = len(pairs) + draw(st.sampled_from((0, 0, 0, 0, 1, -1)))
    header = draw(line_text([n, m]))
    body = [header] + lines
    out = ""
    for ln in body:
        if draw(st.integers(0, 4)) == 0:
            out += draw(st.sampled_from(BLANKS)) + draw(st.sampled_from(LINE_ENDS))
        out += ln + draw(st.sampled_from(LINE_ENDS))
    return out


RANDOM_TEXT = st.text(alphabet="0123456789  \n\r\t+-_x/:١\u3000\x85", max_size=40)


def _check_parse(text):
    try:
        n, edges = oracle_parse_edge_list(text)
    except OracleFormatError as exc:
        # a duplicate edge is the one oracle error that can follow the line
        # checks, and Graph checks n before the edges
        n = int(text.split()[0]) if str(exc).startswith("duplicate edge") else 0
        if n <= graphs_mod.MAX_VERTICES:
            with pytest.raises(FormatError) as err:
                parse_edge_list(text)
            assert str(err.value) == str(exc)
            return
    if n > graphs_mod.MAX_VERTICES:
        # edge keys u * n + v must fit in int64; a graph this large could
        # not be built before either (its adjacency exhausts memory)
        with pytest.raises(FormatError, match="too large"):
            parse_edge_list(text)
        return
    g = parse_edge_list(text)
    assert g.n == n and g.edges() == tuple(edges)
    assert g == Graph(n, edges)
    assert g.edge_array().tolist() == [list(e) for e in edges]
    if n <= 64:
        assert g.closed_masks == oracle_closed_masks(n, edges)
        assert g.packed_closed.tolist() == oracle_packed_rows(n, edges)


@settings(max_examples=400, deadline=None)
@given(edge_list_texts())
def test_parse_edge_list_matches_oracle(text):
    _check_parse(text)


@settings(max_examples=200, deadline=None)
@given(RANDOM_TEXT)
def test_parse_edge_list_random_text_matches_oracle(text):
    _check_parse(text)


def test_parse_edge_list_fixed_cases_match_oracle():
    for text in (
        "3 2\r\n0 1\r\n\r\n1 2\r\n",
        "3 1\n0 +1\n",
        "12 1\n0 1_0\n",
        "3 1\n٠ ١\n",
        "3 1\n0 ²\n",
        "3 1\n0 1 \x85",
        "3 2\n0 1\n0 1\n",
        "3 2\n1 2\n0 1\n",
        "\n\n  \n",
        "3 1\n0 " + "9" * 30 + "\n",
        "12 1\n: 11\n",
        "12 1\n1/ 11\n",
        "3 1\n-0 1\n",
        "3 0\n",
        "2\u20280\u2029",
        "9999999999999999999999999 0\n",
        "3037000500 0\n",
        "3037000499 0\n",
        "\n9999999999999999999999999 2\n0 1\n0 1\n",
    ):
        _check_parse(text)


EDGE_VALUES = st.one_of(st.integers(-2, 9), st.sampled_from((2**63, -(2**63) - 1, 2**70)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 7), st.lists(st.tuples(EDGE_VALUES, EDGE_VALUES), max_size=10))
def test_graph_constructor_matches_oracle(n, edges):
    try:
        expected = oracle_graph_edges(n, edges)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            Graph(n, edges)
        assert str(err.value) == str(exc)
        return
    g = Graph(n, edges)
    assert g.edges() == tuple(expected)
    assert g.closed_masks == oracle_closed_masks(n, expected)
    assert g.packed_closed.tolist() == oracle_packed_rows(n, expected)
    assert g == Graph(n, iter(expected)) == Graph(n, np.array(expected, dtype=np.int64).reshape(-1, 2))


def test_graph_constructor_rejects_non_integer_endpoints():
    with pytest.raises(TypeError):
        Graph(3, [(0.0, 1.0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1, 2)])


def _extra_graphs():
    yield "empty0", Graph(0)
    yield "single", Graph(1)
    yield "isolated", Graph(6, [(1, 3), (3, 4)])
    yield "lonely_pairs", Graph(9, [(0, 8), (2, 5)])
    yield "gnp70", gnp(70, 0.05, 2)  # two words per row, isolated vertices
    yield "gnp150", gnp(150, 0.02, 1)


def test_dist2_pairs_and_components_match_oracle():
    for name, g in list(small_corpus()) + list(_extra_graphs()):
        expected = oracle_dist2_pairs(g.n, g.edges())
        assert list(dist2_pairs(g)) == expected, name
        comps = sorted({tuple(sorted(oracle_distances(g.n, g.edges(), v))) for v in range(g.n)})
        assert list(g.components) == comps, name


def test_dist2_pairs_in_small_blocks_match_oracle(monkeypatch):
    # force many row blocks, each gathering a handful of neighbor rows or
    # one row's, in the global rows (n <= 64) and the component-local ones
    graphs = list(small_corpus())[::4] + list(_extra_graphs()) + list(interleaved_graphs())
    for block_words in (1, 8):
        monkeypatch.setattr(graphs_mod, "_BLOCK_WORDS", block_words)
        for name, g in graphs:
            expected = oracle_dist2_pairs(g.n, g.edges())
            assert list(dist2_pairs(g)) == expected, (name, block_words)


def test_delete_edges_matches_oracle():
    rng = np.random.default_rng(7)
    for name, g in list(small_corpus())[::3] + list(_extra_graphs()):
        edges = list(g.edges())
        for _ in range(3):
            drop = [edges[i] for i in rng.permutation(len(edges))[: rng.integers(0, len(edges) + 1)]]
            drop = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in drop]
            if rng.random() < 0.3:
                drop.append((int(rng.integers(-1, g.n + 1)), int(rng.integers(-1, g.n + 1))))
            try:
                expected = oracle_delete_edges(g.n, edges, drop)
            except ValueError as exc:
                with pytest.raises(ValueError) as err:
                    g.delete_edges(drop)
                assert str(err.value) == str(exc), name
                continue
            h = g.delete_edges(drop)
            assert h.edges() == tuple(expected), name
            assert h.closed_masks == oracle_closed_masks(g.n, expected), name
            assert h == g.delete_edges(np.array(drop, dtype=np.int64).reshape(-1, 2)), name
            assert h.is_spanning_subgraph_of(g), name
            assert g.is_spanning_subgraph_of(h) == (h.m == g.m), name


@pytest.mark.parametrize("block_words", [None, 1, 64, 256])
def test_dist2_pairs_on_interleaved_components_match_oracle(monkeypatch, block_words):
    # small blocks split the rows inside components and across them
    if block_words is not None:
        monkeypatch.setattr(graphs_mod, "_BLOCK_WORDS", block_words)
    for name, g in interleaved_graphs():
        assert len(g.components) > 1 and g.local_closed.shape[1] < g.packed_closed.shape[1]
        expected = oracle_dist2_pairs(g.n, g.edges())
        assert list(dist2_pairs(g)) == expected, name


@pytest.mark.parametrize("block_words", [None, 1, 8, 100])
def test_local_balls_match_oracle_without_neighbor_lists(monkeypatch, block_words):
    # the 2-balls read from the component-local rows set exactly the
    # vertices at distance <= 2 and the vertex itself, for any order of the
    # requested vertices, repeats too, and build no CSR
    if block_words is not None:
        monkeypatch.setattr(graphs_mod, "_BLOCK_WORDS", block_words)
    rng = np.random.default_rng(12)
    graphs = list(small_corpus())[::4] + list(_extra_graphs()) + list(interleaved_graphs())
    for name, g in graphs:
        g = Graph(g.n, g.edge_array())
        near = {v: {v} for v in range(g.n)}
        for u, v in oracle_dist2_pairs(g.n, g.edges()):
            near[u].add(v)
            near[v].add(u)
        members, starts = g.component_order
        picked = rng.permutation(g.n)[: rng.integers(0, g.n + 1)]
        picked = np.concatenate((picked, picked[:2]))
        balls = graphs_mod._local_balls(g, picked)
        assert balls.shape == (len(picked), g.local_closed.shape[1]), name
        for v, ball in zip(picked.tolist(), balls):
            bits = np.unpackbits(ball.astype("<u8").view(np.uint8), bitorder="little")
            base = starts[g.component_ids[v]]
            assert {int(members[base + col]) for col in np.flatnonzero(bits)} == near[v], (name, v)
        assert "_csr" not in g.__dict__, name


def test_local_closed_rows_follow_component_ranks():
    for name, g in interleaved_graphs():
        comps = g.components
        members, starts = g.component_order
        assert members.tolist() == [v for comp in comps for v in comp], name
        assert [starts[i + 1] - starts[i] for i in range(len(comps))] == list(map(len, comps))
        rank = {v: i for comp in comps for i, v in enumerate(comp)}
        assert g.ranks.tolist() == [rank[v] for v in range(g.n)], name
        masks = oracle_closed_masks(g.n, g.edges())
        width = g.local_closed.shape[1]
        assert width == (max(map(len, comps)) + 63) // 64, name
        for v in range(g.n):
            local = sum(1 << rank[w] for w in range(g.n) if masks[v] >> w & 1)
            row = int.from_bytes(g.local_closed[v].astype("<u8").tobytes(), "little")
            assert row == local, (name, v)
    connected = gnp(70, 0.3, 1)
    assert len(connected.components) == 1
    assert connected.local_closed is connected.packed_closed


def _view_graphs():
    yield "edgeless", Graph(5)
    bases = list(_extra_graphs()) + list(interleaved_graphs())
    yield from bases
    for name, g in bases:
        # the constructor's sorting path: rows reversed, endpoints swapped
        yield f"{name}/unsorted", Graph(g.n, g.edge_array()[::-1, ::-1])
        yield f"{name}/complement", complement(g)
        # children of delete_edges: the child inherits the views its
        # parent has cached (none, the packed rows alone, or the packed
        # rows and degrees) and builds any other from its own edges
        for what, drop in (("half", g.edge_array()[::2]), ("none", []), ("all", g.edge_array())):
            for cached in ((), ("packed_closed",), ("packed_closed", "degrees")):
                parent = Graph(g.n, g.edge_array())
                for view in cached:
                    getattr(parent, view)
                child = parent.delete_edges(drop)
                assert {"packed_closed", "degrees"} & vars(child).keys() == set(cached)
                yield f"{name}/child-{what}-{'+'.join(cached) or 'cold'}", child


def _oracle_ranks(n, adj):
    """Per vertex, its position inside its sorted component."""
    rank = [None] * n
    for s in range(n):
        if rank[s] is None:
            comp, todo = {s}, [s]
            while todo:
                new = adj[todo.pop()] - comp
                comp |= new
                todo.extend(new)
            for i, v in enumerate(sorted(comp)):
                rank[v] = i
    return rank


def test_views_match_oracle():
    # degrees, CSR, packed_closed and local_closed of every builder's
    # graphs, down to n = 0 and up to multi-word and component-local rows
    for name, g in _view_graphs():
        n, edges = g.n, g.edges()
        adj = adjacency(n, edges)
        masks = oracle_closed_masks(n, edges)
        fresh = Graph(n, g.edge_array())
        for view, dtype in (("degrees", np.int64), ("packed_closed", np.uint64), ("local_closed", np.uint64)):
            got = getattr(g, view)
            assert got.dtype == dtype and not got.flags.writeable, (name, view)
            assert np.array_equal(got, getattr(fresh, view)), (name, view)
        assert all(np.array_equal(a, b) for a, b in zip(g._csr, fresh._csr)), name
        assert g.degrees.tolist() == [len(adj[v]) for v in range(n)], name
        indptr, nbrs = g._csr
        assert indptr.dtype == nbrs.dtype == np.int64, name
        assert len(indptr) == n + 1 and indptr[0] == 0 and indptr[-1] == len(nbrs), name
        assert (np.diff(indptr) >= 0).all(), name
        rows = [nbrs[indptr[v] : indptr[v + 1]] for v in range(n)]
        assert all((np.diff(row) > 0).all() for row in rows), name
        got = tuple(sum(1 << w for w in row.tolist()) | 1 << v for v, row in enumerate(rows))
        assert got == masks, name
        assert g.packed_closed.tolist() == oracle_packed_rows(n, edges), name
        rank = _oracle_ranks(n, adj)
        assert g.local_closed.shape == (n, max(1, (max(rank, default=0) + 64) // 64)), name
        for v in range(n):
            local = sum(1 << rank[w] for w in range(n) if masks[v] >> w & 1)
            row = int.from_bytes(g.local_closed[v].astype("<u8").tobytes(), "little")
            assert row == local, (name, v)


def _component_graphs():
    yield from small_corpus()
    yield from _extra_graphs()
    yield from interleaved_graphs()
    for n in (1, 2, 7, 100):
        yield f"edgeless{n}", Graph(n)
    yield "isolated_ends", Graph(9, [(2, 3), (3, 5), (4, 6), (6, 7)])
    yield "path20000", path(20000)
    # relabelled at random, a long path takes many hook rounds
    perm = np.random.default_rng(3).permutation(20000)
    yield "shuffled_path20000", Graph(20000, np.stack((perm[:-1], perm[1:]), axis=1))


def test_component_ids_match_oracle_bfs():
    for name, g in _component_graphs():
        ids = g.component_ids
        assert ids.dtype == np.int64 and not ids.flags.writeable, name
        assert ids.tolist() == oracle_component_ids(g.n, g.edges()), name


def test_component_ids_of_connected_graphs_are_read_only_zeros():
    for g in (Graph(1), Graph(2, [(0, 1)]), gnp(440, 0.5, 1), path(20000), mixed_graph((300,), (0.01,), 2)):
        ids = g.component_ids
        assert ids.dtype == np.int64 and not ids.flags.writeable, g
        assert ids.shape == (g.n,) and not ids.any(), g


def test_has_edge_matches_oracle_adjacency():
    for name, g in list(small_corpus()) + list(_extra_graphs()):
        adj = adjacency(g.n, g.edges())
        got = [[g.has_edge(u, v) for v in range(g.n)] for u in range(g.n)]
        assert got == [[v in adj[u] for v in range(g.n)] for u in range(g.n)], name
    g = gnp(70, 0.05, 2)
    assert not any(g.has_edge(u, v) for u, v in ((-1, 3), (3, 70), (70, 140), (0, 0)))


# every ASCII separator: inside a line, then at its end
ASCII_SEPARATORS = (" ", " ", "\t", "\x1f", "  \t")
ASCII_LINE_ENDS = ("\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e")


@st.composite
def well_formed_texts(draw):
    """Edge lists every line of which holds two ASCII digit runs: ids up to
    10**6, leading zeros up to 18 and 19 digits, blank lines, no final
    newline now and then, rows unsorted or duplicated."""
    n = draw(st.sampled_from((1, 2, 9, 10, 101, 4096, 999_999, 1_000_000)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    rows = [(min(u, v), max(u, v)) for u, v in pairs if u != v]
    if rows and draw(st.booleans()):
        rows.sort()
    if rows and draw(st.integers(0, 4)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(rows)))

    def spell(value):
        width = draw(st.sampled_from((0, 0, 0, 3, 18, 19)))
        return str(value).zfill(width)

    out = ""
    for a, b in [(n, len(rows))] + rows:
        if draw(st.integers(0, 4)) == 0:
            out += draw(st.sampled_from(("", " ", "\x1f"))) + draw(st.sampled_from(ASCII_LINE_ENDS))
        lead = draw(st.sampled_from(("", "", " ", "\t")))
        out += lead + spell(a) + draw(st.sampled_from(ASCII_SEPARATORS)) + spell(b)
        out += draw(st.sampled_from(("", "", " "))) + draw(st.sampled_from(ASCII_LINE_ENDS))
    if draw(st.integers(0, 3)) == 0:
        out = out.rstrip("".join(ASCII_LINE_ENDS))
    return out


def _check_array_pass(text):
    """_check_parse, and the array pass alone reads every text the oracle
    reads, up to duplicate rows, which the constructor reports."""
    _check_parse(text)
    try:
        oracle_parse_edge_list(text)
        accepted = True
    except OracleFormatError as exc:
        accepted = str(exc).startswith("duplicate edge")
    cp = np.frombuffer(text.encode("ascii"), np.uint8)
    assert (graphs_mod._read_rows(cp, text) is not None) == accepted


@settings(max_examples=300, deadline=None)
@given(well_formed_texts())
def test_parse_edge_list_well_formed_matches_oracle(text):
    _check_array_pass(text)


def test_parser_ascii_classes_match_kind():
    # the kind of each ASCII byte (word, space or line break) as str sees it
    word, brk = graphs_mod._classes(np.arange(128, dtype=np.uint8))
    assert word.tolist() == [not chr(c).isspace() for c in range(128)]
    assert brk.tolist() == [len(f"a{chr(c)}b".splitlines()) == 2 for c in range(128)]


def test_parser_character_classes_match_str():
    # every character str.split() splits at, between tokens and between
    # lines, and some it keeps in a token, are read as the oracle reads them
    spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    assert len(spaces) >= 25
    for c in spaces + ["\x1f\x1f", "\u200b", "\ufeff", "\x00"]:
        _check_parse(f"3 2{c}0 1\n1{c}2\n")
        _check_parse(f"3{c}2\n0 1{c}1 2{c}")
        _check_parse(f"{c}3 1{c}{c}0{c}2{c}\n")


def _block_texts():
    text = graphs_mod.write_edge_list(gnp(30, 0.3, 2))
    lines = text.splitlines()
    yield text
    yield text.replace("\n", "\r\n")
    yield text.replace(" ", " \t ").rstrip("\n")
    yield "\n" * 40 + text  # the header lies past the first blocks
    yield text.replace("\n", "\n\x1f\x1f\x1f\x1f\x1f\n")
    # a long zero-padded endpoint, read by int()
    yield "\n".join(lines[:9] + ["0" * 40 + lines[9]] + lines[10:])
    yield "\n".join(lines[:1] + lines[:0:-1]) + "\n"  # rows in descending order
    # bad lines in a later block: three tokens, an endpoint out of range
    yield "\n".join(lines[:-1] + [lines[-1] + " 2"]) + "\n"
    yield "\n".join(lines[:-1] + ["0 " + "9" * 40]) + "\n"
    yield text + "7 8\n"  # one edge more than the header says


@pytest.mark.parametrize("block_chars", [1, 3, 16, 100])
def test_parse_edge_list_in_small_blocks_matches_oracle(monkeypatch, block_chars):
    # lines straddle the block targets, so every block is cut back or widened
    monkeypatch.setattr(graphs_mod, "_BLOCK_CHARS", block_chars)
    for text in _block_texts():
        _check_array_pass(text)


def test_parse_edge_list_huge_edge_count_allocates_no_rows():
    # the header's m is checked against the text length before the rows
    # are allocated
    text = "2 " + "9" * 15 + "\n0 1\n"
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="header says 999999999999999 edges, found 1"):
            parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20

import functools
import hashlib
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from idcodes import (
    Graph,
    SparsifyParams,
    complement,
    cycle,
    disjoint_cliques,
    gnp,
    greedy_idcode,
    is_dominating,
    is_identifying_code,
    least_twins,
    path,
    sparsify,
    write_edge_list,
)
from idcodes import cli, solvers, watching
from idcodes import graphs as graphs_mod
from idcodes.cli import run_cli

from corpus import CLI_CASES, cli_inputs, cli_transcript, twin_graphs

GOLDEN = Path(__file__).parent / "golden"


def run(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "idcodes.cli"] + list(args),
        capture_output=True,
        text=True,
        env=dict(os.environ),
        **kw,
    )


def test_run_cli_callable_directly(capsys):
    assert run_cli(["gen", "--family", "path", "--n", "3"]) == 0
    assert capsys.readouterr().out == "3 2\n0 1\n1 2\n"


def test_gen_solve_pipeline(tmp_path):
    gfile = tmp_path / "p3.txt"
    assert run(["gen", "--family", "path", "--n", "3", "--out", str(gfile)]).returncode == 0
    r = run(["solve", "--in", str(gfile)])
    assert r.returncode == 0 and r.stdout.strip() == "2"
    cfile = tmp_path / "code.txt"
    assert run(["solve", "--in", str(gfile), "--out", str(cfile)]).returncode == 0
    assert cfile.read_text().split() == ["0", "2"]
    r = run(["verify", "--in", str(gfile), "--code", str(cfile)])
    assert r.returncode == 0 and r.stdout.strip() == "ok"
    r = run(["verify", "--in", str(gfile), "--code", str(cfile), "--mode", "full"])
    assert r.returncode == 2 and "usage:" in r.stderr


def test_gen_dot_format():
    r = run(["gen", "--family", "cycle", "--n", "4", "--format", "dot"])
    assert r.returncode == 0 and r.stdout.startswith("graph")
    assert "0 -- 1;" in r.stdout
    # the README's example
    r = run(["gen", "--family", "gnp", "--n", "40", "--p", "0.5", "--graph-seed", "12", "--format", "dot"])
    assert r.returncode == 0 and r.stdout.startswith("graph")


def test_readme_command_lines_parse():
    # every `idcodes ...` line of the README is accepted by the parser
    from idcodes import cli

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [ln.split("#")[0].split()[1:] for ln in readme.splitlines() if ln.startswith("idcodes ")]
    assert len(lines) >= 10
    for argv in lines:
        cli.build_parser().parse_args(argv)


def test_readme_examples_print_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    # every README line but `experiment` runs, verify on g.txt (the first
    # line's path) and c.txt (its exact code); a "# prints X" or numeric
    # comment is the whole stdout, and the sparsify CSV row is shown in full
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    monkeypatch.chdir(tmp_path)
    assert run_cli(["gen", "--family", "path", "--n", "5", "--out", "g.txt"]) == 0
    assert run_cli(["solve", "--in", "g.txt", "--out", "c.txt"]) == 0
    capsys.readouterr()
    shown, outs = [], {}
    for ln in readme:
        if ln.startswith("idcodes ") and not ln.startswith("idcodes experiment"):
            argv = ln.split("#")[0].split()[1:]
            assert run_cli(argv) == 0, ln
            outs[argv[0]] = capsys.readouterr().out
            note = re.search(r"#\s*(?:prints (\S+)|([\d.]+))\s*$", ln)
            if note:
                shown.append(note[1] or note[2])
                assert outs[argv[0]] == shown[-1] + "\n", ln
    assert shown == ["5", "ok", "3", "19.9316", "0.386294"]
    header = readme.index(next(ln for ln in readme if ln.startswith("family,n,p,")))
    assert outs["sparsify"] == "\n".join(readme[header : header + 2]) + "\n"


def test_verify_twins_exit_code(tmp_path):
    gfile = tmp_path / "k4.txt"
    run(["gen", "--family", "complete", "--n", "4", "--out", str(gfile)])
    cfile = tmp_path / "full.txt"
    cfile.write_text("0\n1\n2\n3\n")
    r = run(["verify", "--in", str(gfile), "--code", str(cfile)])
    assert r.returncode == 1
    assert "unseparated pair (0, 1)" in r.stdout and "twins" in r.stdout


def test_solve_twin_graph_exit_code(tmp_path):
    gfile = tmp_path / "k4.txt"
    run(["gen", "--family", "complete", "--n", "4", "--out", str(gfile)])
    r = run(["solve", "--in", str(gfile)])
    assert r.returncode == 1 and "twins" in r.stderr


def test_greedy_and_solve_name_the_least_twins(tmp_path, capsys):
    # the greedy looks for twins only once its picks stall, and names the
    # least pair on either fill
    for i, (name, g) in enumerate(twin_graphs()):
        gfile = tmp_path / f"twins{i}.txt"
        gfile.write_text(write_edge_list(g))
        u, v = least_twins(g)
        for cmd in ("greedy", "solve"):
            assert run_cli([cmd, "--in", str(gfile)]) == 1, (name, cmd)
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"not ok: vertices {u} and {v} are twins; no identifying code exists\n"


def test_greedy_subcommand(tmp_path):
    from idcodes import greedy_idcode

    r = run(["greedy", "--family", "cycle", "--n", "6"])
    assert r.returncode == 0
    assert int(r.stdout.strip()) == len(greedy_idcode(cycle(6)))
    r = run(["greedy", "--family", "cycle", "--n", "6", "--dominating"])
    assert r.returncode == 0 and int(r.stdout.strip()) == 2
    # the README's example
    r = run(["greedy", "--family", "gnp", "--n", "60", "--p", "0.3", "--graph-seed", "2"])
    assert r.returncode == 0 and int(r.stdout.strip()) == len(greedy_idcode(gnp(60, 0.3, 2)))


def test_run_cli_reuses_parser_without_leaking_state(tmp_path, capsys):
    from idcodes import cli

    gfile = tmp_path / "g.txt"
    assert run(["gen", "--family", "gnp", "--n", "40", "--p", "0.2",
                "--graph-seed", "3", "--out", str(gfile)]).returncode == 0
    fresh_out = tmp_path / "fresh.txt"
    fresh = run(["greedy", "--in", str(gfile), "--out", str(fresh_out)])
    assert fresh.returncode == 0

    dom_out = tmp_path / "dom.txt"
    assert run_cli(["greedy", "--dominating", "--in", str(gfile), "--out", str(dom_out)]) == 0
    dom_stdout = capsys.readouterr().out
    parser = cli._parser()
    again_out = tmp_path / "again.txt"
    assert run_cli(["greedy", "--in", str(gfile), "--out", str(again_out)]) == 0
    assert cli._parser() is parser
    assert capsys.readouterr().out == fresh.stdout
    assert again_out.read_text() == fresh_out.read_text()
    assert dom_out.read_text() != fresh_out.read_text() and dom_stdout != fresh.stdout


def test_parse_errors_exit_two(tmp_path):
    r = run(["verify", "--in", str(tmp_path / "nope.txt"), "--code", str(tmp_path / "c")])
    assert r.returncode == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n0 9\n")
    code = tmp_path / "c.txt"
    code.write_text("0\n")
    r = run(["verify", "--in", str(bad), "--code", str(code)])
    assert r.returncode == 2 and "line 2" in r.stderr
    badcode = tmp_path / "bc.txt"
    badcode.write_text("zero\n")
    g = tmp_path / "g.txt"
    run(["gen", "--family", "path", "--n", "3", "--out", str(g)])
    r = run(["verify", "--in", str(g), "--code", str(badcode)])
    assert r.returncode == 2


def test_missing_graph_source_exits_two():
    assert run(["solve"]).returncode == 2


def test_sparsify_pinned_invocation(tmp_path):
    args = [
        "sparsify", "--family", "hdelta", "--delta", "15", "--cliques", "32",
        "--const-c", "2", "--seed", "7",
    ]
    r = run(args)
    assert r.returncode == 0
    header, row = r.stdout.splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["status"] == "ok"
    assert cells["n"] == "512" and cells["delta"] == "15" and cells["Delta"] == "15"
    assert int(cells["edges_deleted"]) > 0 and int(cells["code_size"]) > 0
    assert int(cells["retries"]) >= 0
    diag = r.stderr.splitlines()
    assert diag[0] == "trial,code_size,deleted,a_violations,b_violations"
    assert len(diag) == int(cells["retries"]) + 2
    assert run(args).stdout == r.stdout, "same seed must give identical bytes"


def test_sparsify_output_files_reverify(tmp_path):
    cfile, dfile = tmp_path / "c.txt", tmp_path / "d.txt"
    r = run([
        "sparsify", "--family", "hdelta", "--delta", "7", "--cliques", "8",
        "--const-c", "2", "--seed", "3",
        "--out-code", str(cfile), "--out-deleted", str(dfile),
    ])
    assert r.returncode == 0
    g = disjoint_cliques(7, 8)
    code = [int(x) for x in cfile.read_text().split()]
    deleted = [tuple(map(int, ln.split())) for ln in dfile.read_text().splitlines()]
    h = g.delete_edges(deleted)
    assert is_identifying_code(h, code).ok
    res = sparsify(g, SparsifyParams(c=2.0, seed=3))
    assert set(code) == set(res.final_code)
    assert set(deleted) == set(res.deleted_edges)


def test_sparsify_output_files_are_sorted_joins(tmp_path, monkeypatch):
    # deleted_edges is the sorted edge tuple itself, and the files hold
    # exactly one line per vertex or edge in that order
    monkeypatch.chdir(tmp_path)
    g = disjoint_cliques(15, 32)
    (tmp_path / "g.txt").write_text(write_edge_list(g))
    for variant in ("theorem1", "uniform"):
        argv = [
            "sparsify", "--in", "g.txt", "--const-c", "2", "--seed", "9", "--variant", variant,
            "--out-code", "c.txt", "--out-deleted", "d.txt",
        ]
        assert run_cli(argv) == 0
        res = sparsify(g, SparsifyParams(c=2.0, seed=9, variant=variant))
        edges = res.deleted_edges
        assert type(edges) is tuple and edges and edges == tuple(sorted(set(edges)))
        want = "".join(f"{u} {v}\n" for u, v in sorted(edges))
        assert (tmp_path / "d.txt").read_bytes() == want.encode()
        want = "".join(f"{v}\n" for v in sorted(res.final_code))
        assert (tmp_path / "c.txt").read_bytes() == want.encode()
        again = sparsify(g, SparsifyParams(c=2.0, seed=9, variant=variant))
        assert again == res and hash(again) == hash(res)


@pytest.mark.parametrize(
    "edges",
    [(), ((0, 1),), ((0, 9), (3, 10), (9, 99), (10, 100), (99, 1000), (7, 123456789), (8, 9))],
)
def test_deleted_edge_lines_match_the_per_edge_form(edges):
    # the --out-deleted writer (graphs.edge_lines over the result's tuple
    # of pairs) keeps the bytes of one f-string per edge
    want = "".join(f"{u} {v}\n" for u, v in edges)
    assert graphs_mod.edge_lines(edges).encode() == want.encode()


def test_watch_solves_domination_once(tmp_path, monkeypatch, capsys):
    # the binary system and its upper bound share one dominating set, exact
    # up to EXACT_GAMMA_LIMIT vertices and greedy above, and the system is
    # verified once, by its constructor
    calls = {"exact": 0, "greedy": 0, "verify": 0}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    exact = spy("exact", solvers.exact_min_dominating)
    greedy = spy("greedy", solvers.greedy_dominating)
    monkeypatch.setattr(cli, "exact_min_dominating", exact)
    monkeypatch.setattr(watching, "exact_min_dominating", exact)
    monkeypatch.setattr(cli, "greedy_dominating", greedy)
    monkeypatch.setattr(watching, "greedy_dominating", greedy)
    monkeypatch.setattr(
        watching, "verify_watching", spy("verify", watching.verify_watching)
    )
    p20 = tmp_path / "p20.txt"
    p20.write_text(write_edge_list(path(20)))
    assert run_cli(["watch", "--in", str(p20)]) == 0
    out, err = capsys.readouterr()
    assert calls == {"exact": 1, "greedy": 0, "verify": 1}
    assert (out, err) == ("14\n", "bounds: lower 5 upper 14 (gamma 7, exact)\n")
    assert run_cli(["watch", "--in", str(p20), "--method", "code"]) == 0
    assert calls == {"exact": 2, "greedy": 0, "verify": 2}
    capsys.readouterr()
    c26 = tmp_path / "c26.txt"
    c26.write_text(write_edge_list(cycle(26)))
    assert run_cli(["watch", "--in", str(c26)]) == 0
    out, err = capsys.readouterr()
    assert calls == {"exact": 2, "greedy": 1, "verify": 3}
    assert (out, err) == ("18\n", "bounds: lower 5 upper 18 (gamma 9, greedy)\n")


def test_sparsify_uniform_flag():
    r = run([
        "sparsify", "--family", "hdelta", "--delta", "7", "--cliques", "8",
        "--const-c", "2", "--seed", "3", "--variant", "uniform",
    ])
    assert r.returncode == 0 and ",uniform," in r.stdout.splitlines()[1]


def test_sparsify_retries_exhausted_exit_one():
    r = run([
        "sparsify", "--family", "complete", "--n", "64",
        "--const-c", "2", "--seed", "0", "--max-retries", "1",
    ])
    assert r.returncode == 1
    assert "retries_exhausted" in r.stdout


def test_sparsify_nan_const_c_exits_two():
    r = run([
        "sparsify", "--family", "complete", "--n", "8",
        "--const-c", "nan", "--seed", "0",
    ])
    assert r.returncode == 2 and "c must be positive" in r.stderr
    assert r.stdout == ""


def test_infinite_const_c_exits_two_from_the_cli_and_a_config(tmp_path, capsys):
    # c = inf ran (p clamped to 1, "inf" in the c column); JSON reads
    # Infinity and 1e400 as inf too
    assert run_cli(["sparsify", "--family", "cycle", "--n", "12", "--const-c", "inf"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: c must be positive and finite\n"
    for c in ("Infinity", "1e400"):
        cfg = tmp_path / "exp.json"
        cfg.write_text('{"families": [{"kind": "cycle", "n": 9}], "c": %s}' % c)
        assert run_cli(["experiment", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: c must be positive and finite\n"


def test_sparsify_rejected_graph_prints_no_header(tmp_path, capsys):
    # a perfect matching has max degree 1, which theorem1 rejects before
    # drawing anything: exit 2 with nothing on stdout
    graph = tmp_path / "m2.txt"
    graph.write_text("4 2\n0 1\n2 3\n")
    assert run_cli(["sparsify", "--in", str(graph)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: construction needs max degree >= 2\n"


def test_complement_code_subcommand(tmp_path):
    gfile = tmp_path / "p4.txt"
    run(["gen", "--family", "path", "--n", "4", "--out", str(gfile)])
    out = tmp_path / "cc.txt"
    r = run(["complement-code", "--in", str(gfile), "--out", str(out)])
    assert r.returncode == 0
    code = [int(x) for x in out.read_text().split()]
    assert len(code) == int(r.stdout.strip())
    assert is_identifying_code(complement(path(4)), code).ok
    c4 = tmp_path / "c4.txt"
    run(["gen", "--family", "cycle", "--n", "4", "--out", str(c4)])
    assert run(["complement-code", "--in", str(c4)]).returncode == 1


def test_watch_subcommand(tmp_path):
    r = run(["watch", "--family", "star", "--leaves", "6"])
    assert r.returncode == 0 and r.stdout.strip() == "3"
    assert "lower 3" in r.stderr
    c4 = tmp_path / "c4.txt"
    run(["gen", "--family", "cycle", "--n", "4", "--out", str(c4)])
    r = run(["watch", "--in", str(c4), "--method", "code"])
    assert r.returncode == 0 and r.stdout.strip() == "3"


def test_bounds_subcommand():
    assert run(["bounds", "gnp_idcode_prediction", "--n", "1000", "--p", "0.5"]).stdout.strip() == "19.9316"
    assert run(["bounds", "chernoff_constant", "--eps", "1"]).stdout.strip() == "0.386294"
    assert run(["bounds", "idcode_lower_bound", "--n", "7"]).stdout.strip() == "3"
    assert run(["bounds", "bipartite_subgraph_bound", "--r", "2"]).stdout.strip() == "12"
    assert run(["bounds", "gnp_idcode_prediction", "--n", "1000"]).returncode == 2
    for mp in ("nan", "inf"):
        r = run(["bounds", "alpha0", "--mp", mp])
        assert r.returncode == 2 and r.stdout == "", mp


EXP_CFG = {
    "families": [
        {"kind": "hdelta", "delta": 7, "cliques": 8},
        {"kind": "gnp", "n": 40, "p": 0.5},
    ],
    "c": 2.0,
    "variant": "theorem1",
    "max_retries": 1000,
    "trials": 3,
    "master_seed": 12,
}


def test_experiment_schema_and_determinism(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(EXP_CFG))
    r = run(["experiment", "--config", str(cfg)])
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    header = lines[0].split(",")
    for col in ("n", "delta", "Delta", "c", "seed", "edges_deleted",
                "code_size", "retries", "norm_edges", "norm_code", "status"):
        assert col in header
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 6
    for i, row in enumerate(rows[:3]):
        assert int(row["seed"]) == 12 ^ i and int(row["trial"]) == i
        assert row["greedy_ratio"] == ""
    for row in rows[3:]:
        assert row["p"] == "0.5"
        if row["status"] == "ok":
            assert float(row["greedy_ratio"]) > 0
    assert run(["experiment", "--config", str(cfg)]).stdout == r.stdout
    out = tmp_path / "exp.csv"
    assert run(["experiment", "--config", str(cfg), "--out", str(out)]).returncode == 0
    assert out.read_text() == r.stdout


def test_experiment_row_reverifies(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(EXP_CFG))
    lines = run(["experiment", "--config", str(cfg)]).stdout.splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[4].split(",")))
    g = gnp(40, 0.5, int(row["seed"]))
    res = sparsify(g, SparsifyParams(c=2.0, seed=int(row["seed"])))
    assert len(res.deleted_edges) == int(row["edges_deleted"])
    assert len(res.final_code) == int(row["code_size"])
    assert res.retries_used == int(row["retries"])


def test_experiment_keeps_rows_without_a_prediction(tmp_path, capsys):
    # G(12, 0) has no edges and p = 0 has no asymptotic prediction: the row
    # keeps the status sparsify gives it, with an empty greedy_ratio
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"families": [
        {"kind": "cycle", "n": 12},
        {"kind": "gnp", "n": 12, "p": 0.0},
        {"kind": "cycle", "n": 9},
    ]}))
    assert run_cli(["experiment", "--config", str(cfg)]) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    assert [r["status"] for r in rows] == ["ok", "degenerate", "ok"]
    assert rows[1]["greedy_ratio"] == "" and err == ""


def test_experiment_checks_every_family_before_any_output(tmp_path, capsys):
    # a family the generators reject used to stop the sweep midway, after
    # the header and the rows before it, and --out truncated an existing
    # file to that partial CSV
    cfg = tmp_path / "exp.json"
    res = tmp_path / "results.csv"
    res.write_bytes(b"earlier results\n")
    cases = (
        ([{"kind": "cycle", "n": 9}, {"kind": "cycle", "n": 2}], "cycle needs n >= 3"),
        ([{"kind": "cycle", "n": 9}, {"kind": "gnp", "n": 12, "p": 1.5}], "gnp needs 0 <= p <= 1"),
        ([{"kind": "gnp", "n": 0, "p": 0.5}], "gnp needs n >= 1"),
    )
    for families, msg in cases:
        cfg.write_text(json.dumps({"families": families, "c": 2}))
        for out_args in ([], ["--out", str(res)]):
            assert run_cli(["experiment", "--config", str(cfg)] + out_args) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == f"error: {msg}\n"
            assert res.read_bytes() == b"earlier results\n"


def test_experiment_runs_no_greedy_on_a_draw_with_twins(tmp_path, monkeypatch, capsys):
    # a draw with twins has no identifying code: its greedy_ratio is empty
    # and greedy never runs on it, to a stall or otherwise
    real = cli.greedy_idcode
    seen = []

    def spy(g):
        assert least_twins(g) is None
        seen.append(g)
        return real(g)

    monkeypatch.setattr(cli, "greedy_idcode", spy)
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "families": [{"kind": "gnp", "n": 10, "p": 0.8}], "trials": 6, "master_seed": 1,
    }))
    assert run_cli(["experiment", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    twins = [least_twins(gnp(10, 0.8, 1 ^ t)) is not None for t in range(6)]
    assert twins == [False, False, True, True, True, False]
    assert [r["greedy_ratio"] == "" for r in rows] == twins
    assert len(seen) == 3


def test_experiment_keeps_rows_of_low_degree_families(tmp_path, capsys):
    # theorem1 rejects a perfect matching (max degree 1); in a sweep that
    # family gets a degenerate row and the families after it still run
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"families": [
        {"kind": "cycle", "n": 9},
        {"kind": "hdelta", "delta": 1, "cliques": 4},
        {"kind": "cycle", "n": 12},
    ]}))
    assert run_cli(["experiment", "--config", str(cfg)]) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    assert [r["status"] for r in rows] == ["ok", "degenerate", "ok"]
    assert rows[1]["Delta"] == "1" and err == ""


def test_experiment_bad_config_exits_two(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    assert run(["experiment", "--config", str(broken)]).returncode == 2
    broken.write_text(json.dumps({"families": [{"kind": "wat"}]}))
    assert run(["experiment", "--config", str(broken)]).returncode == 2
    broken.write_text(json.dumps({"families": [], "trials": 1}))
    assert run(["experiment", "--config", str(broken)]).returncode == 2
    cycle5 = {"kind": "cycle", "n": 5}
    for cfg in (
        [1],
        {"families": [3]},
        {"families": [cycle5], "trials": "2"},
        {"families": [{"kind": "cycle", "n": "5"}]},
        {"families": [{"kind": "cycle", "n": 5.5}]},
    ):
        broken.write_text(json.dumps(cfg))
        r = run(["experiment", "--config", str(broken)])
        assert (r.returncode, r.stdout) == (2, ""), cfg
        assert "Traceback" not in r.stderr, cfg


def _assert_prints_lower_bound(r):
    assert r.returncode == 0 and r.stdout.strip() == "10", r.stderr


def test_console_script_installed():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        entry = tomllib.load(f)["project"]["scripts"]["idcodes"]
    module, func = entry.split(":")
    args = ["bounds", "idcode_lower_bound", "--n", "512"]
    # The same body pip writes into the generated `idcodes` wrapper.
    wrapper = (
        "import sys\n"
        f"from {module} import {func}\n"
        "sys.argv[0] = 'idcodes'\n"
        f"sys.exit({func}())\n"
    )
    _assert_prints_lower_bound(
        subprocess.run([sys.executable, "-c", wrapper] + args, capture_output=True, text=True)
    )
    installed = shutil.which("idcodes")
    if installed is not None:
        _assert_prints_lower_bound(
            subprocess.run([installed] + args, capture_output=True, text=True)
        )


def test_sparsify_and_experiment_output_match_golden(tmp_path, monkeypatch, capsys):
    # exact stdout CSV and stderr trial lines, pinned from the per-edge
    # Python Graph before the array-backed one
    doc = json.loads((GOLDEN / "sparsify.json").read_text())
    families = {"disjoint_cliques": disjoint_cliques, "gnp": gnp}
    monkeypatch.chdir(tmp_path)
    assert len(doc["cli"]) == 7
    for case in doc["cli"]:
        if "input" in case:
            fam, args = doc["graphs"][case["input"]]
            text = write_edge_list(families[fam](*args))
            assert hashlib.sha256(text.encode()).hexdigest() == case["input_sha256"]
            (tmp_path / "graph.txt").write_text(text)
        if "config" in case:
            (tmp_path / "exp.json").write_text(json.dumps(case["config"]))
        code = run_cli(case["argv"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"]), case["argv"]


def test_cli_transcripts_match_golden(tmp_path, monkeypatch):
    # every subcommand's exit code, stdout, stderr and --out files on
    # small inputs, run in-process in one directory
    doc = json.loads((GOLDEN / "cli.json").read_text())
    assert [case["argv"] for case in doc["cases"]] == [list(argv) for argv in CLI_CASES]
    monkeypatch.chdir(tmp_path)
    for name, text in cli_inputs().items():
        (tmp_path / name).write_text(text)
    for case in doc["cases"]:
        assert cli_transcript(case["argv"]) == case, case["argv"]


def test_sparsify_and_greedy_commands_build_no_per_edge_forms(tmp_path, monkeypatch):
    # the hot path reads the edge array and its derived arrays only: no
    # edges() tuples and no Python-int neighborhood masks
    graph = tmp_path / "g.txt"
    graph.write_text(write_edge_list(gnp(60, 0.5, 4)))

    def forbidden(self):
        raise AssertionError("per-vertex Python form built on the sparsify/greedy path")

    monkeypatch.setattr(Graph, "_edge_tuples", property(forbidden))
    monkeypatch.setattr(Graph, "closed_masks", property(forbidden))
    for variant in ("theorem1", "uniform"):
        argv = ["sparsify", "--in", str(graph), "--const-c", "2", "--variant", variant]
        assert run_cli(argv + ["--out-code", str(tmp_path / "c.txt")]) == 0
    assert run_cli(["greedy", "--in", str(graph), "--out", str(tmp_path / "g.out")]) == 0


def test_verify_tags_only_twin_pairs(tmp_path, capsys):
    # an unseparated pair is tagged " (twins)" iff N[u] = N[v]
    argv = ["verify", "--in", str(tmp_path / "g.txt"), "--code", str(tmp_path / "c.txt")]
    for edges, code, out in (
        ("2 1\n0 1\n", "0\n", "not ok: unseparated pair (0, 1) (twins)\n"),
        ("3 2\n0 1\n1 2\n", "1\n", "not ok: unseparated pair (0, 1)\n"),
    ):
        (tmp_path / "g.txt").write_text(edges)
        (tmp_path / "c.txt").write_text(code)
        assert run_cli(argv) == 1
        assert capsys.readouterr() == (out, "")


def _count_csr_builds(monkeypatch) -> list:
    """Wrap the cached Graph._csr so that each build appends its graph to
    the returned list."""
    build = Graph.__dict__["_csr"].func
    built = []

    def counted(self):
        built.append(self)
        return build(self)

    prop = functools.cached_property(counted)
    prop.__set_name__(Graph, "_csr")
    monkeypatch.setattr(Graph, "_csr", prop)
    return built


def test_verifiers_twins_degrees_and_verify_command_build_no_csr(tmp_path, monkeypatch, capsys):
    # these read the edge array and the packed rows only; the CSR is for
    # the code that reads neighbor lists
    code = sorted(greedy_idcode(gnp(60, 0.5, 4)))
    built = _count_csr_builds(monkeypatch)
    g = gnp(60, 0.5, 4)
    assert least_twins(g) is None
    assert is_identifying_code(g, code).ok and is_dominating(g, code).ok
    assert int(g.degrees.sum()) == 2 * g.m
    assert [g.has_edge(0, v) for v in range(g.n)].count(True) == g.degree(0)
    h = g.delete_edges(g.edge_array()[::3])
    assert not is_identifying_code(h, code[:1]).ok
    assert is_dominating(complement(g), range(g.n)).ok
    (tmp_path / "g.txt").write_text(write_edge_list(path(2)))
    (tmp_path / "c.txt").write_text("0\n")
    argv = ["verify", "--in", str(tmp_path / "g.txt"), "--code", str(tmp_path / "c.txt")]
    assert run_cli(argv) == 1
    assert capsys.readouterr().out == "not ok: unseparated pair (0, 1) (twins)\n"
    assert built == []


def test_sparsify_builds_the_csr_of_its_graph_only(monkeypatch):
    # no CSR is built at all: the 2-balls of undominated tied vertices are
    # read from the packed component-local rows, and the verified child is
    # checked on its packed rows. The theorem1 run on the cliques reads
    # such 2-balls, the uniform variant's code and dominating set dominate
    # every vertex, and at p = 1 every vertex is in the code and no two
    # vertices tie here
    module = importlib.import_module("idcodes.sparsify")
    real = module._local_balls
    balls = []

    def spy(g, vs):
        balls.append(len(vs))
        return real(g, vs)

    monkeypatch.setattr(module, "_local_balls", spy)
    cases = (
        (gnp(60, 0.5, 4), "theorem1", 2.0, False),
        (disjoint_cliques(9, 4), "uniform", 2.0, False),
        (disjoint_cliques(9, 4), "theorem1", 2.0, True),
        (gnp(60, 0.5, 4), "theorem1", 66.0, False),
        (gnp(60, 0.5, 4), "uniform", 66.0, False),
    )
    for g, variant, c, tied in cases:
        built = _count_csr_builds(monkeypatch)
        balls.clear()
        res = sparsify(g, SparsifyParams(c=c, seed=3, variant=variant))
        assert built == [], (variant, c)
        assert bool(balls) == tied, (variant, c)
        assert not tied or res.trials[0].b_violations > 0, (variant, c)


def test_sparsify_lists_no_distance_2_pairs(monkeypatch):
    # separation failures come from the sizes of tied classes and the
    # 2-balls of undominated tied vertices, never from a list of every
    # pair at distance <= 2
    def refuse(*args):
        raise AssertionError("sparsify listed the distance-2 pairs")

    # the module, not the function of the same name that idcodes exports
    sparsify_mod = importlib.import_module("idcodes.sparsify")
    monkeypatch.setattr(sparsify_mod, "_dist2_blocks", refuse)
    monkeypatch.setattr(graphs_mod, "_dist2_blocks", refuse)
    for g in (disjoint_cliques(9, 4), gnp(60, 0.5, 4)):
        for variant in ("theorem1", "uniform"):
            res = sparsify(g, SparsifyParams(c=2.0, seed=3, variant=variant))
            assert is_identifying_code(g.delete_edges(res.deleted_edges), res.final_code).ok

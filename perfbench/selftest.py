"""Show that every output check accepts real outputs and rejects corrupted ones.

    python3 perfbench/selftest.py

Runs the idcodes commands from src/ on small graphs, passes their outputs
through checks.py, then corrupts each output in one place (a code vertex
dropped, a non-edge added to the deleted list, a size off by one) and
requires the check to reject it. Exits 1 if any case goes the wrong way.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

import numpy as np

import checks
import workloads as wl

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
from idcodes.cli import run_cli  # noqa: E402

FAILURES = []


def expect(name: str, problems, want_ok: bool) -> None:
    ok = not problems
    verdict = "PASS" if ok == want_ok else "FAIL"
    if ok != want_ok:
        FAILURES.append(name)
    detail = "accepted" if ok else f"rejected: {problems[0] if isinstance(problems, list) else problems}"
    print(f"{verdict} {name}: {detail}")


def reference_identifies(g: wl.BGraph, code) -> bool:
    """Set-based reference used to confirm that a corruption is invalid."""
    nbrs = [{v} for v in range(g.n)]
    for u, v in g.edges.tolist():
        nbrs[u].add(v)
        nbrs[v].add(u)
    traces = [frozenset(nb & set(code)) for nb in nbrs]
    return all(traces) and len(set(traces)) == g.n


class Runner:
    def __init__(self, workdir: Path):
        self.dir = workdir

    def __call__(self, g: wl.BGraph, argv, outputs=()):
        inpath = self.dir / "g.txt"
        inpath.write_text(g.edge_list_text(), encoding="utf-8")
        paths = {flag: self.dir / f"out{flag}" for flag in outputs}
        full = list(argv) + ["--in", str(inpath)]
        for flag, path in paths.items():
            full += [flag, str(path)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = run_cli(full)
        assert rc == 0, (argv, rc)
        return out.getvalue(), {f: p.read_text(encoding="utf-8") for f, p in paths.items()}


def lines(vs) -> str:
    return "".join(f"{v}\n" for v in vs)


def sparsify_cases(run: Runner) -> None:
    g = wl.cliques(7, 4)
    stdout, files = run(g, ["sparsify", "--const-c", "2", "--seed", "3"], ("--out-code", "--out-deleted"))
    code_text, del_text = files["--out-code"], files["--out-deleted"]
    expect("sparsify: real output", checks.check_sparsify(g, "theorem1", stdout, code_text, del_text)[0], True)

    deleted = checks.parse_edges(del_text).tolist()
    assert deleted, "the test graph should lose some edges"
    non_edge = (0, 8)  # two different cliques
    bumped = stdout.replace(f",{len(deleted)},", f",{len(deleted) + 1},")
    expect("sparsify: non-edge added to the deleted list",
           checks.check_sparsify(g, "theorem1", bumped, code_text,
                                 del_text + f"{non_edge[0]} {non_edge[1]}\n")[0], False)

    size = len(checks.parse_vertices(code_text))
    off = stdout.replace(f",ok,{len(deleted)},{size},", f",ok,{len(deleted)},{size + 1},")
    assert off != stdout
    expect("sparsify: CSV code_size off by one",
           checks.check_sparsify(g, "theorem1", off, code_text, del_text)[0], False)

    code = set(checks.parse_vertices(code_text))
    u, v = next((u, v) for u, v in deleted if (u in code) != (v in code))
    dropped = sorted(code - {u, v})
    shrunk = stdout.replace(f",ok,{len(deleted)},{size},", f",ok,{len(deleted)},{size - 1},")
    expect("sparsify: code vertex dropped",
           checks.check_sparsify(g, "theorem1", shrunk, lines(dropped), del_text)[0], False)


def greedy_cases(run: Runner) -> None:
    g = wl.twin_free_gnp(40, 0.2, np.random.default_rng(5))
    stdout, files = run(g, ["greedy"], ("--out",))
    expect("greedy: real output", checks.check_greedy(g, stdout, files["--out"])[0], True)
    size = int(stdout)
    expect("greedy: printed size off by one", checks.check_greedy(g, f"{size + 1}\n", files["--out"])[0], False)

    c = wl.cycle(12)
    stdout, files = run(c, ["solve"], ("--out",))
    code = checks.parse_vertices(files["--out"])
    expect("greedy: cycle code one below gamma_ID",
           checks.check_greedy(c, f"{len(code) - 1}\n", lines(code[1:]))[0], False)


def exact_cases(run: Runner) -> None:
    for g in (wl.cycle(11), wl.path(10), wl.twin_free_gnp(12, 0.3, np.random.default_rng(2), True)):
        label = f"{g.family}({g.n})"
        outputs = {}
        for kind, argv, flags in (
            ("solve", ["solve"], ("--out",)),
            ("dominating", ["solve", "--dominating"], ("--out",)),
            ("complement", ["complement-code"], ("--out",)),
            ("watch", ["watch"], ()),
        ):
            stdout, files = run(g, argv, flags)
            outputs[kind] = (stdout, files.get("--out", ""))
        expect(f"exact {label}: real outputs", checks.check_exact(g, outputs)[0], True)

        code = checks.parse_vertices(outputs["solve"][1])
        bad = dict(outputs, solve=(f"{len(code) - 1}\n", lines(code[1:])))
        expect(f"exact {label}: solve code vertex dropped", checks.check_exact(g, bad)[0], False)

        dom = checks.parse_vertices(outputs["dominating"][1])
        extra = next(v for v in range(g.n) if v not in dom)
        bad = dict(outputs, dominating=(f"{len(dom) + 1}\n", lines(dom + [extra])))
        expect(f"exact {label}: dominating size off by one", checks.check_exact(g, bad)[0], False)

        cc = checks.parse_vertices(outputs["complement"][1])
        gbar = g.complement()
        drop = next(v for v in cc if not reference_identifies(gbar, set(cc) - {v}))
        kept = [v for v in cc if v != drop]
        bad = dict(outputs, complement=(f"{len(kept)}\n", lines(kept)))
        expect(f"exact {label}: complement code vertex dropped", checks.check_exact(g, bad)[0], False)

        upper = checks.gamma(g) * checks.ceil_log2(int(g.degrees.max()) + 2)
        for size in (g.n.bit_length() - 1, upper + 1):
            bad = dict(outputs, watch=(f"{size}\n", ""))
            expect(f"exact {label}: watch size {size} outside its bounds", checks.check_exact(g, bad)[0], False)


def reference_cases() -> None:
    for n in range(7, 13):
        for make in (wl.cycle, wl.path):
            g = make(n)
            brute = checks.brute_force(wl.BGraph("gnp", n, g.edges))
            closed = (checks.gamma_id(g), checks.gamma(g))
            expect(f"closed forms {g.family}({n}) = brute force {brute}",
                   [] if brute == closed else [f"closed forms give {closed}"], True)


def main() -> int:
    workdir = HERE / "work" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = Runner(workdir)
        reference_cases()
        sparsify_cases(run)
        greedy_cases(run)
        exact_cases(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} case(s) went the wrong way" if FAILURES else "all cases as expected")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: graph generation and I/O, verification, exact
and greedy solving, sparsification runs, complement codes, watching
systems, bound evaluation, and batch experiments with CSV output.

Exit codes: 0 success, 1 verification failure (including infeasible or
exhausted runs), 2 parse or I/O errors. CSV uses a header row, comma
separators, '.' decimals, and 6 significant digits for reals. Set files
hold one vertex index per line.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, replace
from typing import Iterable, Optional, TextIO

from . import bounds as bounds_mod
from . import graphs, watching
from .codes import is_identifying_code
from .complement import ComplementNotTwinFreeError, complement_code
from .graphs import FamilySpec, FormatError, Graph
from .solvers import NotTwinFreeError, exact_min_dominating, exact_min_idcode, greedy_dominating, greedy_idcode
from .sparsify import (
    DegenerateGraphError,
    InfeasibleProbabilityError,
    RetriesExhaustedError,
    SparsifyParams,
    SparsifyResult,
    sparsify,
)

_FAMILY_ALIASES = {
    "path": "path",
    "cycle": "cycle",
    "star": "star",
    "complete": "complete",
    "complete_bipartite": "complete_bipartite",
    "hdelta": "disjoint_cliques",
    "hdelta_connected": "connected_cliques",
    "gnp": "gnp",
}

_CSV_COLUMNS = (
    "family,n,p,delta,Delta,c,variant,seed,trial,status,"
    "edges_deleted,code_size,retries,norm_edges,norm_code,greedy_ratio"
)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return format(x, ".6g")
    return str(x)


def _family_from_args(args: argparse.Namespace) -> FamilySpec:
    kind = _FAMILY_ALIASES.get(args.family)
    if kind is None:
        raise FormatError(f"unknown family {args.family!r}")
    return FamilySpec(
        kind=kind,
        n=args.n or 0,
        p=args.p if args.p is not None else 0.0,
        seed=args.graph_seed,
        r=args.r or 0,
        s=args.leaves or args.s or 0,
        delta=args.delta or 0,
        k=args.cliques or 0,
    )


def _family_label(spec: FamilySpec) -> str:
    """Comma-free label so it stays a single CSV cell."""
    if spec.kind == "gnp":
        return f"gnp(n={spec.n};p={_fmt(spec.p)};seed={spec.seed})"
    if spec.kind in ("disjoint_cliques", "connected_cliques"):
        return f"{spec.kind}(delta={spec.delta};k={spec.k})"
    if spec.kind == "complete_bipartite":
        return f"complete_bipartite(r={spec.r};s={spec.s})"
    if spec.kind == "star":
        return f"star(leaves={spec.s})"
    return f"{spec.kind}(n={spec.n})"


def _load_graph(args: argparse.Namespace) -> tuple[Graph, str]:
    if getattr(args, "family", None):
        spec = _family_from_args(args)
        return graphs.generate(spec), _family_label(spec)
    if getattr(args, "infile", None):
        with open(args.infile, "r", encoding="utf-8") as fh:
            return graphs.parse_edge_list(fh.read()), args.infile
    raise FormatError("provide a graph via --family ... or --in FILE")


def _read_set(path: str) -> list[int]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(int(line))
            except ValueError as exc:
                raise FormatError(f"{path}:{i}: not a vertex index: {line!r}") from exc
    return out


def _write_set(path: str, vs: Iterable[int]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v in sorted(vs):
            fh.write(f"{v}\n")


def _graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", metavar="FILE", help="edge-list file")
    p.add_argument("--family", choices=sorted(_FAMILY_ALIASES), help="generate instead of reading")
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--graph-seed", type=int, default=0, help="seed for gnp generation")
    p.add_argument("--r", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--leaves", type=int, help="alias of --s for star")
    p.add_argument("--delta", type=int)
    p.add_argument("--cliques", type=int)


def _sparsify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--const-c", type=float, default=66.0, dest="const_c")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-retries", type=int, default=1000)
    p.add_argument("--variant", choices=("theorem1", "uniform"), default="theorem1")
    p.add_argument("--no-clamp", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="idcodes")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a generated graph")
    _graph_args(p)
    p.add_argument("--format", choices=("edgelist", "dot"), default="edgelist")
    p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("verify", help="check a code against a graph")
    _graph_args(p)
    p.add_argument("--code", required=True, metavar="FILE")
    p.add_argument("--mode", choices=("full", "dist2"), default="full")

    p = sub.add_parser("solve", help="exact minimum identifying code")
    _graph_args(p)
    p.add_argument("--dominating", action="store_true", help="solve domination instead")
    p.add_argument("--budget", type=int, default=10_000_000)
    p.add_argument("--out", metavar="FILE", help="write the set, one vertex per line")

    p = sub.add_parser("greedy", help="greedy identifying code")
    _graph_args(p)
    p.add_argument("--dominating", action="store_true")
    p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("sparsify", help="randomized edge-deletion run")
    _graph_args(p)
    _sparsify_args(p)
    p.add_argument("--out-code", metavar="FILE")
    p.add_argument("--out-deleted", metavar="FILE")

    p = sub.add_parser("complement-code", help="code for the complement graph")
    _graph_args(p)
    p.add_argument("--code", metavar="FILE", help="base code (default: exact minimum)")
    p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("watch", help="construct and verify a watching system")
    _graph_args(p)
    p.add_argument("--method", choices=("binary", "code"), default="binary")

    p = sub.add_parser("bounds", help="evaluate a named bound")
    p.add_argument("name", choices=sorted(bounds_mod.bound_names()))
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--mp", type=float)
    p.add_argument("--r", type=int)

    p = sub.add_parser("experiment", help="batch sweep to CSV")
    p.add_argument("--config", required=True, metavar="FILE")
    p.add_argument("--out", metavar="FILE")
    return top


def _cmd_gen(args) -> int:
    g, _ = _load_graph(args)
    text = graphs.to_dot(g) if args.format == "dot" else graphs.write_edge_list(g)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    g, _ = _load_graph(args)
    code = _read_set(args.code)
    verdict = is_identifying_code(g, code, args.mode)
    if verdict.ok:
        print("ok")
        return 0
    w = verdict.witness
    if hasattr(w, "u"):
        twins = graphs.find_twins(g)
        tag = " (twins)" if (w.u, w.v) in twins else ""
        print(f"not ok: unseparated pair ({w.u}, {w.v}){tag}")
    else:
        print(f"not ok: undominated vertex {w.v}")
    return 1


def _cmd_solve(args) -> int:
    g, _ = _load_graph(args)
    try:
        res = (
            exact_min_dominating(g, args.budget)
            if args.dominating
            else exact_min_idcode(g, args.budget)
        )
    except NotTwinFreeError as exc:
        print(f"not ok: {exc}", file=sys.stderr)
        return 1
    if args.out:
        _write_set(args.out, res.code)
    print(res.size)
    if not res.optimal:
        print(f"budget exhausted after {res.nodes} nodes; size is an upper bound",
              file=sys.stderr)
        return 1
    return 0


def _cmd_greedy(args) -> int:
    g, _ = _load_graph(args)
    try:
        code = greedy_dominating(g) if args.dominating else greedy_idcode(g)
    except NotTwinFreeError as exc:
        print(f"not ok: {exc}", file=sys.stderr)
        return 1
    if args.out:
        _write_set(args.out, code)
    print(len(code))
    return 0


def _result_row(
    label: str,
    g: Graph,
    params: SparsifyParams,
    trial: int,
    res: Optional[SparsifyResult],
    status: str,
    p_value: Optional[float],
    ratio: Optional[float],
) -> str:
    dmin, dmax = graphs.degree_stats(g) if g.n else (0, 0)
    cells = [
        label,
        str(g.n),
        _fmt(p_value) if p_value is not None else "",
        str(dmin),
        str(dmax),
        _fmt(params.c),
        params.variant,
        str(params.seed),
        str(trial),
        status,
    ]
    if res is not None:
        scale = res.stats.n_ln_dmax
        cells += [
            str(res.stats.deleted_edges),
            str(res.stats.code_size),
            str(res.retries_used),
            _fmt(res.stats.deleted_edges / scale),
            _fmt(res.stats.code_size * dmin / scale),
        ]
    else:
        cells += ["", "", "", "", ""]
    cells.append(_fmt(ratio) if ratio is not None else "")
    return ",".join(cells)


def _cmd_sparsify(args) -> int:
    g, label = _load_graph(args)
    params = SparsifyParams(
        c=args.const_c,
        seed=args.seed,
        max_retries=args.max_retries,
        clamp=not args.no_clamp,
        variant=args.variant,
    )
    print(_CSV_COLUMNS)
    print("trial,code_size,deleted,a_violations,b_violations", file=sys.stderr)
    try:
        res = sparsify(g, params)
    except (DegenerateGraphError, InfeasibleProbabilityError) as exc:
        print(f"not ok: {exc}", file=sys.stderr)
        print(_result_row(label, g, params, 0, None, "infeasible", args.p, None))
        return 1
    except RetriesExhaustedError as exc:
        t = exc.last_trial
        print(f"{t.trial},{t.code_size},{t.deleted},{t.a_violations},{t.b_violations}",
              file=sys.stderr)
        print(_result_row(label, g, params, 0, None, "retries_exhausted", args.p, None))
        return 1
    for t in res.trials:
        print(f"{t.trial},{t.code_size},{t.deleted},{t.a_violations},{t.b_violations}",
              file=sys.stderr)
    print(_result_row(label, g, params, 0, res, "ok", args.p, None))
    if args.out_code:
        _write_set(args.out_code, res.final_code)
    if args.out_deleted:
        with open(args.out_deleted, "w", encoding="utf-8") as fh:
            for u, v in sorted(res.deleted_edges):
                fh.write(f"{u} {v}\n")
    return 0


def _cmd_complement(args) -> int:
    g, _ = _load_graph(args)
    base = _read_set(args.code) if args.code else None
    try:
        code = complement_code(g, base)
    except (NotTwinFreeError, ComplementNotTwinFreeError) as exc:
        print(f"not ok: {exc}", file=sys.stderr)
        return 1
    if args.out:
        _write_set(args.out, code)
    print(len(code))
    return 0


def _cmd_watch(args) -> int:
    g, _ = _load_graph(args)
    if args.method == "binary":
        if g.n <= watching.EXACT_GAMMA_LIMIT:
            dom = exact_min_dominating(g).code
        else:
            dom = greedy_dominating(g)
        system = watching.watching_binary(g, dom)
    else:
        try:
            code = (
                exact_min_idcode(g).code
                if g.n <= watching.EXACT_GAMMA_LIMIT
                else greedy_idcode(g)
            )
        except NotTwinFreeError as exc:
            print(f"not ok: {exc}", file=sys.stderr)
            return 1
        system = watching.watching_from_subgraph_code(g, g, code)
    verdict = watching.verify_watching(g, system)
    if not verdict.ok:
        print(f"not ok: {verdict.witness}", file=sys.stderr)
        return 1
    wb = watching.watch_bounds(g)
    print(system.size())
    print(f"bounds: lower {wb.lower} upper {wb.upper} "
          f"(gamma {wb.gamma}, {'exact' if wb.gamma_exact else 'greedy'})",
          file=sys.stderr)
    return 0


def _cmd_bounds(args) -> int:
    params = {}
    for key in ("n", "p", "eps", "mp", "r"):
        val = getattr(args, key)
        if val is not None:
            params[key] = val
    report = bounds_mod.evaluate(args.name, **params)
    print(_fmt(report.value))
    return 0


@dataclass(frozen=True)
class ExperimentConfig:
    families: tuple[FamilySpec, ...]
    params: SparsifyParams
    trials: int = 1

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.families:
            raise ValueError("at least one family is required")


def load_experiment_config(text: str) -> ExperimentConfig:
    raw = json.loads(text)
    fams = []
    for item in raw.get("families", []):
        kind = _FAMILY_ALIASES.get(item.get("kind", ""))
        if kind is None:
            raise FormatError(f"unknown family kind {item.get('kind')!r}")
        fams.append(
            FamilySpec(
                kind=kind,
                n=item.get("n", 0),
                p=item.get("p", 0.0),
                seed=item.get("seed", 0),
                r=item.get("r", 0),
                s=item.get("s", item.get("leaves", 0)),
                delta=item.get("delta", 0),
                k=item.get("cliques", item.get("k", 0)),
            )
        )
    params = SparsifyParams(
        c=raw.get("c", 66.0),
        seed=raw.get("master_seed", 0),
        max_retries=raw.get("max_retries", 1000),
        clamp=raw.get("clamp", True),
        variant=raw.get("variant", "theorem1"),
    )
    return ExperimentConfig(tuple(fams), params, raw.get("trials", 1))


def run_experiment(cfg: ExperimentConfig, out: TextIO) -> None:
    """One CSV row per (family, trial); trial seed = master xor trial index.

    gnp families redraw the graph with the trial seed and fill the
    greedy_ratio column (greedy code size over the asymptotic prediction);
    fixed families reuse one graph and vary only the run seed. Rows are
    flushed as they complete; failures keep their row with a status.
    """
    out.write(_CSV_COLUMNS + "\n")
    for spec in cfg.families:
        fixed = graphs.generate(spec) if spec.kind != "gnp" else None
        for trial in range(cfg.trials):
            seed = cfg.params.seed ^ trial
            if spec.kind == "gnp":
                g = graphs.gnp(spec.n, spec.p, seed)
                label = _family_label(replace(spec, seed=seed))
                p_value: Optional[float] = spec.p
            else:
                g = fixed
                label = _family_label(spec)
                p_value = None
            params = replace(cfg.params, seed=seed)
            ratio: Optional[float] = None
            if spec.kind == "gnp":
                try:
                    ratio = len(greedy_idcode(g)) / bounds_mod.gnp_idcode_prediction(
                        spec.n, spec.p
                    )
                except NotTwinFreeError:
                    ratio = None
            try:
                res = sparsify(g, params)
                row = _result_row(label, g, params, trial, res, "ok", p_value, ratio)
            except DegenerateGraphError:
                row = _result_row(label, g, params, trial, None, "degenerate", p_value, ratio)
            except InfeasibleProbabilityError:
                row = _result_row(label, g, params, trial, None, "infeasible", p_value, ratio)
            except RetriesExhaustedError:
                row = _result_row(
                    label, g, params, trial, None, "retries_exhausted", p_value, ratio
                )
            out.write(row + "\n")
            out.flush()


def _cmd_experiment(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = load_experiment_config(fh.read())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            run_experiment(cfg, fh)
    else:
        run_experiment(cfg, sys.stdout)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "verify": _cmd_verify,
    "solve": _cmd_solve,
    "greedy": _cmd_greedy,
    "sparsify": _cmd_sparsify,
    "complement-code": _cmd_complement,
    "watch": _cmd_watch,
    "bounds": _cmd_bounds,
    "experiment": _cmd_experiment,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `run_cli`, built on its first call and reused after."""
    return build_parser()


def run_cli(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()

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
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional

from . import bounds as bounds_mod
from . import graphs, watching
from .codes import is_identifying_code
from .complement import ComplementNotTwinFreeError, complement_code
from .graphs import FamilySpec, FormatError, Graph
from .solvers import (
    DEFAULT_BUDGET,
    NotTwinFreeError,
    exact_min_dominating,
    exact_min_idcode,
    greedy_dominating,
    greedy_idcode,
)
from .sparsify import (
    DegenerateGraphError,
    InfeasibleProbabilityError,
    MaxDegreeError,
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


def _fmt(x: float) -> str:
    return format(x, ".6g") if isinstance(x, float) else str(x)


def _family_from_args(args: argparse.Namespace) -> FamilySpec:
    # argparse has already checked args.family against the aliases
    return FamilySpec(
        kind=_FAMILY_ALIASES[args.family],
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
        fh.write("".join(f"{v}\n" for v in sorted(vs)))


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
    defaults = SparsifyParams()
    p.add_argument("--const-c", type=float, default=defaults.c, dest="const_c")
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--max-retries", type=int, default=defaults.max_retries)
    p.add_argument("--variant", choices=("theorem1", "uniform"), default=defaults.variant)
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

    p = sub.add_parser("solve", help="exact minimum identifying code")
    _graph_args(p)
    p.add_argument("--dominating", action="store_true", help="solve domination instead")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
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
    verdict = is_identifying_code(g, code)
    if verdict.ok:
        print("ok")
        return 0
    w = verdict.witness
    if hasattr(w, "u"):
        rows = g.packed_closed
        tag = " (twins)" if (rows[w.u] == rows[w.v]).all() else ""
        print(f"not ok: unseparated pair ({w.u}, {w.v}){tag}")
    else:
        print(f"not ok: undominated vertex {w.v}")
    return 1


def _cmd_solve(args) -> int:
    g, _ = _load_graph(args)
    solver = exact_min_dominating if args.dominating else exact_min_idcode
    res = solver(g, args.budget)
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
    code = greedy_dominating(g) if args.dominating else greedy_idcode(g)
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
    res, note, trials = None, None, ()
    try:
        res = sparsify(g, params)
        status, trials = "ok", res.trials
    except (DegenerateGraphError, InfeasibleProbabilityError) as exc:
        status, note = "infeasible", f"not ok: {exc}"
    except RetriesExhaustedError as exc:
        status, trials = "retries_exhausted", (exc.last_trial,)
    # the headers go out only once sparsify has accepted the graph; any
    # other ValueError leaves through run_cli with nothing on stdout
    print(_CSV_COLUMNS)
    print("trial,code_size,deleted,a_violations,b_violations", file=sys.stderr)
    if note:
        print(note, file=sys.stderr)
    for t in trials:
        print(f"{t.trial},{t.code_size},{t.deleted},{t.a_violations},{t.b_violations}",
              file=sys.stderr)
    print(_result_row(label, g, params, 0, res, status, args.p, None))
    if res is None:
        return 1
    if args.out_code:
        _write_set(args.out_code, res.final_code)
    if args.out_deleted:
        with open(args.out_deleted, "w", encoding="utf-8") as fh:
            fh.write(graphs.edge_lines(res.deleted_edges))
    return 0


def _cmd_complement(args) -> int:
    g, _ = _load_graph(args)
    base = _read_set(args.code) if args.code else None
    code = complement_code(g, base)
    if args.out:
        _write_set(args.out, code)
    print(len(code))
    return 0


def _cmd_watch(args) -> int:
    g, _ = _load_graph(args)
    exact = g.n <= watching.EXACT_GAMMA_LIMIT
    if args.method == "code":
        code = exact_min_idcode(g).code if exact else greedy_idcode(g)
        system = watching.watching_from_subgraph_code(g, g, code)
    # one dominating set for both the binary system and the upper bound
    dom = exact_min_dominating(g) if exact else greedy_dominating(g)
    if args.method == "binary":
        system = watching.watching_binary(g, dom.code if exact else dom)
    wb = watching.watch_bounds(g, dom)
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


def _field(obj: dict, key: str, default, kind: type):
    """obj[key], or default when absent; FormatError unless it is of the
    JSON type kind (an int counts as a float, a bool as neither)."""
    val = obj.get(key, default)
    kinds = (int, float) if kind is float else kind
    if not isinstance(val, kinds) or (isinstance(val, bool) and kind is not bool):
        raise FormatError(f"config field {key!r} must be a JSON {kind.__name__}, got {val!r}")
    return val


def load_experiment_config(text: str) -> ExperimentConfig:
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise FormatError("config must be a JSON object")
    fams = []
    for item in _field(raw, "families", [], list):
        if not isinstance(item, dict):
            raise FormatError(f"family entry must be a JSON object, got {item!r}")
        kind = _FAMILY_ALIASES.get(_field(item, "kind", "", str))
        if kind is None:
            raise FormatError(f"unknown family kind {item.get('kind')!r}")
        fams.append(
            FamilySpec(
                kind=kind,
                n=_field(item, "n", 0, int),
                p=_field(item, "p", 0.0, float),
                seed=_field(item, "seed", 0, int),
                r=_field(item, "r", 0, int),
                s=_field(item, "s", _field(item, "leaves", 0, int), int),
                delta=_field(item, "delta", 0, int),
                k=_field(item, "cliques", _field(item, "k", 0, int), int),
            )
        )
    defaults = SparsifyParams()
    params = SparsifyParams(
        c=_field(raw, "c", defaults.c, float),
        seed=_field(raw, "master_seed", defaults.seed, int),
        max_retries=_field(raw, "max_retries", defaults.max_retries, int),
        clamp=_field(raw, "clamp", defaults.clamp, bool),
        variant=_field(raw, "variant", defaults.variant, str),
    )
    return ExperimentConfig(tuple(fams), params, _field(raw, "trials", 1, int))


def run_experiment(cfg: ExperimentConfig) -> Iterator[str]:
    """The sweep's CSV lines, header first, then one row per (family,
    trial); trial seed = master xor trial index.

    Every family is checked before the header is yielded, so a family the
    generators reject raises before any line: the fixed families are
    built, and gnp checks each family's n and p on at most one vertex.
    gnp families redraw the graph with the trial seed and fill the
    greedy_ratio column (greedy code size over the asymptotic prediction,
    left empty where the graph has twins or the prediction is undefined);
    fixed families reuse one graph and vary only the run seed. Each row is
    yielded as it completes; failures keep their row with a status.
    """
    fixed = [
        graphs.gnp(min(spec.n, 1), spec.p, 0) if spec.kind == "gnp" else graphs.generate(spec)
        for spec in cfg.families
    ]
    yield _CSV_COLUMNS + "\n"
    for spec, g in zip(cfg.families, fixed):
        prediction: Optional[float] = None
        if spec.kind == "gnp":
            try:
                prediction = bounds_mod.gnp_idcode_prediction(spec.n, spec.p)
            except ValueError:  # undefined for n < 2 or p outside (0, 1)
                pass
        for trial in range(cfg.trials):
            seed = cfg.params.seed ^ trial
            if spec.kind == "gnp":
                g = graphs.gnp(spec.n, spec.p, seed)
                label = _family_label(replace(spec, seed=seed))
                p_value: Optional[float] = spec.p
            else:
                label = _family_label(spec)
                p_value = None
            params = replace(cfg.params, seed=seed)
            ratio: Optional[float] = None
            # a draw with twins has no code, so greedy never runs to its stall
            if prediction is not None and graphs.least_twins(g) is None:
                ratio = len(greedy_idcode(g)) / prediction
            res, status = None, "ok"
            try:
                res = sparsify(g, params)
            except (DegenerateGraphError, MaxDegreeError):
                status = "degenerate"
            except InfeasibleProbabilityError:
                status = "infeasible"
            except RetriesExhaustedError:
                status = "retries_exhausted"
            yield _result_row(label, g, params, trial, res, status, p_value, ratio) + "\n"


def _cmd_experiment(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = load_experiment_config(fh.read())
    lines = run_experiment(cfg)
    # the header comes once every family is checked: a rejected family
    # leaves stdout empty and an existing --out file as it was
    header = next(lines)
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out:
        out.write(header)
        for line in lines:
            out.write(line)
            out.flush()
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
    except (NotTwinFreeError, ComplementNotTwinFreeError) as exc:
        print(f"not ok: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()

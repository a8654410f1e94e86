"""The benchmark's span tracer (`perfbench/spans.py`) against this source
tree. The tracer wraps library names from outside (`Graph.__init__`, the
`packed_closed` and `closed_masks` cached properties,
`idcodes._kernels.greedy_cover`, `idcodes._kernels.separator_counts`,
`idcodes.sparsify.sparsify`, ...), so a change that drops or moves one
breaks every traced benchmark run. Here a traced run must record the
expected spans, print what an untraced run prints, and leave every
wrapped name restored."""

import importlib.util
import sys
from pathlib import Path

import idcodes.cli  # noqa: F401  (the tracer patches the loaded idcodes modules)
from idcodes import Graph, cycle, disjoint_cliques, gnp, write_edge_list
from idcodes.cli import run_cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _commands(tmp_path):
    files = {
        "cliques": disjoint_cliques(7, 6),
        "gnp": gnp(40, 0.5, 4),
        "cycle": cycle(9),
    }
    for name, g in files.items():
        (tmp_path / f"{name}.txt").write_text(write_edge_list(g))
    path = {name: str(tmp_path / f"{name}.txt") for name in files}
    commands = []
    for variant in ("theorem1", "uniform"):
        for graph in ("cliques", "gnp"):
            argv = ["sparsify", "--in", path[graph], "--const-c", "2", "--seed", "3"]
            commands.append(argv + ["--variant", variant])
    commands.append(["greedy", "--in", path["gnp"]])
    commands.append(["solve", "--in", path["cycle"]])
    commands.append(["solve", "--dominating", "--in", path["cycle"]])
    return commands


def _run(commands, capsys):
    outputs = []
    for argv in commands:
        code = run_cli(argv)
        out, err = capsys.readouterr()
        outputs.append((code, out, err))
    return outputs


def test_tracer_records_spans_and_changes_no_output(tmp_path, capsys):
    spans = _load_spans()
    commands = _commands(tmp_path)
    untraced = _run(commands, capsys)
    assert all(code == 0 for code, _, _ in untraced)
    wrapped = ("__init__", "delete_edges", "packed_closed", "closed_masks")
    originals = {name: Graph.__dict__[name] for name in wrapped}
    loaded = {
        name: dict(vars(mod)) for name, mod in sys.modules.items() if name.startswith("idcodes")
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = _run(commands, capsys)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"sparsify", "graphs.pack", "graphs.build", "kernels.greedy_cover"} <= names
    # the greedy identifying code calls the kernel once per pick, looked up
    # on the module, so the tracer sees every call
    assert {"solvers.greedy_idcode", "kernels.separator_counts"} <= names
    picks = [span[4]["picks"] for span in tracer.spans if span[0] == "solvers.greedy_idcode"]
    calls = sum(span[0] == "kernels.separator_counts" for span in tracer.spans)
    assert calls == sum(picks) > 0
    sparsify_counts = [span[4] for span in tracer.spans if span[0] == "sparsify"]
    assert len(sparsify_counts) == 4 and all(c["rounds"] >= 1 for c in sparsify_counts)
    assert traced == untraced
    assert {name: Graph.__dict__[name] for name in originals} == originals
    for name, namespace in loaded.items():
        assert dict(vars(sys.modules[name])) == namespace, name

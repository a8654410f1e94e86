import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import idcodes
from idcodes import codes, solvers

from corpus import CLI_CASES, cli_inputs

TESTS = Path(__file__).parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "idcodes"
GOLDEN = TESTS / "golden"


def test_no_assert_statements_in_library():
    # python -O strips assert statements, so a contract written as one
    # silently stops holding; library checks raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_no_bitwise_ufunc_at_scatter_in_library():
    # numpy 2.4 runs bitwise_or.at, bitwise_and.at and bitwise_xor.at about
    # 5x slower than add.at and subtract.at (48 000 scattered uint64 words:
    # 0.38-0.43 ms against 0.08 ms); packed-row edits set clear bits by
    # adding them and clear set bits by subtracting them instead
    slow = {"bitwise_or", "bitwise_and", "bitwise_xor"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "at"
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr in slow
    ]
    assert not found, found


def test_public_names_are_the_names_the_package_imports():
    # __init__.py names each public object once, in its import lists, and
    # __all__ is read off them; the submodules it loads are not public
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [
        a.asname or a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for a in node.names
    ]
    assert len(set(imported)) == len(imported) == 75
    assert idcodes.__all__ == sorted(imported)


def test_verifiers_import_none_of_the_code_they_check():
    # codes.py checks what sparsify, the solvers, complement and watching
    # produce, so it may share no helper with them
    checked = {"sparsify", "solvers", "complement", "watching"}
    tree = ast.parse((SRC / "codes.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [(node.module or "").split(".")[-1]] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name.split(".")[-1] for a in node.names]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names if name in checked]
    assert not found, found


def _callee(call):
    """The name a call reaches without leaving its scope: a plain name, or
    an attribute of self or cls."""
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls"):
        return f.attr
    return None


def test_no_library_function_calls_itself():
    # a call per level of recursion hits the interpreter's stack limit on
    # deep but valid input and raises RecursionError; loops over a
    # worklist do not
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{call.lineno}: {node.name}"
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call) and _callee(call) == node.name
                ]
    assert not found, found


# the calls and views that lay out bits: only graphs.py may use them
BIT_LAYOUT = {"packbits", "unpackbits", "from_bytes", "void"}
# what the code that codes.py checks may import from it, besides the is_*
# verifiers
VERIFIER_NAMES = {
    "signature",
    "Verdict",
    "UndominatedVertex",
    "UnseparatedPair",
    "InvalidCodeError",
}


def _imported_from_codes(node):
    """Names an import statement takes from idcodes.codes, or ["*codes"]
    when it imports the module itself."""
    if isinstance(node, ast.ImportFrom):
        module = "." * node.level + (node.module or "")
        if module in (".codes", "idcodes.codes"):
            return [a.name for a in node.names]
        if module in (".", "idcodes"):
            return ["*codes" for a in node.names if a.name == "codes"]
    if isinstance(node, ast.Import):
        return ["*codes" for a in node.names if a.name == "idcodes.codes"]
    return []


def test_graphs_owns_the_bit_layout_and_codes_lends_only_verifiers():
    found = []
    # no module but graphs.py packs or unpacks bits, turns bytes into ints
    # or views rows as raw bytes
    for path in sorted(SRC.glob("*.py")):
        if path.name == "graphs.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in BIT_LAYOUT:
                found.append(f"{path.name}:{node.lineno}: {node.attr}")
            elif isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names if a.name in BIT_LAYOUT]
                found += [f"{path.name}:{node.lineno}: {name}" for name in names]
    # the other direction of test_verifiers_import_none_of_the_code_they_check:
    # the code the verifiers check borrows no helper from codes.py
    for name in ("sparsify", "solvers", "complement", "watching", "cli"):
        path = SRC / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            found += [
                f"{path.name}:{node.lineno}: codes.{got}"
                for got in _imported_from_codes(node)
                if not (got.startswith("is_") or got in VERIFIER_NAMES)
            ]
    # the int-mask pair lives in graphs.py, and codes.py does not pass it on
    found += [f"codes.{name}" for name in ("code_mask", "mask_to_set") if hasattr(codes, name)]
    assert not found, found


def _absolute_imports(path):
    """(line, top-level package) of every absolute import in a file, at
    any depth."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, a.name.split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_library_imports_only_the_standard_library_and_numpy():
    # numpy is the one runtime dependency (pyproject.toml); scipy and
    # networkx may be importable where the tests run, but the library must
    # not need them
    found = [
        f"{path.name}:{line}: {root}"
        for path in sorted(SRC.glob("*.py"))
        for line, root in _absolute_imports(path)
        if root != "numpy" and root not in sys.stdlib_module_names
    ]
    assert not found, found


def test_tests_import_only_declared_dependencies():
    # pip install -e '.[test]' must be enough to run the tests offline, so
    # every third-party module they import is a runtime dependency or in
    # the test extra of pyproject.toml
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    specs = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec)[0].lower() for spec in specs}
    local = {path.stem for path in TESTS.glob("*.py")} | {"idcodes"}
    found = {
        f"{path.name}:{line}: {root}": root
        for path in sorted(TESTS.rglob("*.py"))
        for line, root in _absolute_imports(path)
        if root not in local and root not in sys.stdlib_module_names
    }
    assert {"numpy", "pytest"} <= set(found.values())
    undeclared = sorted(where for where, root in found.items() if root.lower() not in declared)
    assert not undeclared, undeclared


# Runs each argv read from stdin through run_cli in a process where every
# import of a module that is not numpy, the standard library or idcodes
# fails, and prints the exit codes, output and written files as JSON
_ISOLATED_CLI = """
import contextlib, io, json, sys
from pathlib import Path
import numpy

allowed = set(sys.stdlib_module_names) | {"numpy", "idcodes"}


class Refuse:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name.partition(".")[0] not in allowed:
            raise ImportError(f"{name} is not numpy, the standard library or idcodes")


sys.meta_path.insert(0, Refuse)
from idcodes.cli import run_cli

runs = []
for argv in json.load(sys.stdin):
    outs = [val for flag, val in zip(argv, argv[1:]) if flag.startswith("--out")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    files = {name: Path(name).read_text() for name in outs if Path(name).exists()}
    runs.append({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files})
json.dump(runs, sys.stdout)
"""


def test_every_command_runs_with_numpy_and_the_standard_library_alone(tmp_path):
    # pyproject.toml declares numpy as the one runtime dependency, while
    # scipy, networkx and hypothesis may import where the tests run. The
    # static scan above misses an import made by name at run time, so every
    # golden CLI transcript also runs where nothing else can be imported
    for name, text in cli_inputs().items():
        (tmp_path / name).write_text(text)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC.parent), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", _ISOLATED_CLI],
        input=json.dumps([list(argv) for argv in CLI_CASES]),
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    want = json.loads((GOLDEN / "cli.json").read_text())["cases"]
    assert len(runs) == len(want) == len(CLI_CASES)
    for run, case in zip(runs, want):
        assert run == {key: case[key] for key in run}, case["argv"]


def _private_definitions(tree):
    """The underscore-named functions, classes and methods of a module,
    at any depth, and its module-level underscore constants; dunder names
    are not private."""
    found = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for t in targets:
            found += [n.id for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in found if n.startswith("_") and not n.endswith("__")]


def test_every_private_name_is_used_in_the_library():
    # a private helper, method or constant that nothing in the library
    # reads is dead code: a change that stops using it must delete it.
    # Uses are read names and attributes, not text matches, so neither
    # the definition nor an import counts
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name in _private_definitions(tree):
            defined.setdefault(name, path.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert "_deleted" in defined and "_members" in defined
    unused = sorted(f"{where}: {name}" for name, where in defined.items() if name not in used)
    assert not unused, unused


def test_every_prune_rule_fires_in_the_golden_search():
    # a prune rule whose count stays 0 over every pinned search guards a
    # branch the walk never takes
    cases = json.loads((GOLDEN / "exact_search.json").read_text())["cases"]
    for kind, rules in (("idcode", solvers.IDCODE_RULES), ("dominating", solvers.DOMINATING_RULES)):
        idle = [rule for rule in rules if not sum(case[kind]["prunes"][rule] for case in cases)]
        assert not idle, (kind, idle)

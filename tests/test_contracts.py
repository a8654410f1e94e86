import ast
import sys
from pathlib import Path

import idcodes
from idcodes import codes

SRC = Path(__file__).parent.parent / "src" / "idcodes"


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


def test_library_imports_only_the_standard_library_and_numpy():
    # numpy is the one runtime dependency (pyproject.toml); scipy and
    # networkx may be importable where the tests run, but the library must
    # not need them
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                roots = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno}: {root}"
                for root in roots
                if root != "numpy" and root not in sys.stdlib_module_names
            ]
    assert not found, found

import ast
from pathlib import Path

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

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

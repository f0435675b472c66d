"""Guards on ``tests/shared.py``, the one module of helpers that tests share."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_shared_reads_no_private_numrep_name_and_no_test_module_imports_another():
    # a reference that read a private name could run the code it checks
    nodes = list(ast.walk(ast.parse((TESTS / "shared.py").read_text())))
    modules, private = {"numrep"}, []
    for node in nodes:
        if isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names if a.asname and a.name.split(".")[0] == "numrep")
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "numrep":
            if node.module == "numrep":
                modules.update(a.asname or a.name for a in node.names)
            private += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    for node in nodes:
        root = node
        while isinstance(root, ast.Attribute):
            root = root.value
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and getattr(root, "id", None) in modules:
            private.append(f"{ast.unparse(node)} at line {node.lineno}")
    assert private == []
    # a helper that two test modules need goes in shared.py; test_cli runs test_console's table
    crossed = []
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
                crossed += [f"{path.name} imports {n}" for n in names if n.startswith("test_") and n != "test_console"]
    assert crossed == []

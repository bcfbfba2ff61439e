"""Source hygiene: no module of the package imports a name it never uses."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bvgraph"


def unused_imports(path):
    """Imported names that no expression of the module reads, as 'file:line name'."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    # an attribute chain such as linalg.rank starts with a Name node
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in used and name not in exported]


def test_no_unused_imports():
    hits = [hit for path in sorted(SRC.glob("*.py")) for hit in unused_imports(path)]
    assert hits == []

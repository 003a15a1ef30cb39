"""Every public module-level function and class of the package has a caller
inside the package: API that only tests call is deleted, not kept."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "reslearn"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_every_public_definition_has_a_caller():
    defined: list[tuple[str, str]] = []
    used: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = path.relative_to(SRC).as_posix()
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, DEFINITIONS) and not node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [f"{module}: {name}" for module, name in defined if name not in used]
    assert not unused, "public definitions with no caller in src/reslearn:\n" + "\n".join(unused)

"""Every public module-level function and class of the package, and every
public method of a module-level class, has a caller inside the package: API
that only tests call is deleted, not kept. And packets reach the frame files
by one path: one reader and one writer."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "reslearn"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def public_definitions(tree: ast.Module):
    """(name, label) of each public module-level function or class, and of
    each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS) and not item.name.startswith("_"):
                    yield item.name, f"{node.name}.{item.name}"


def test_every_public_definition_has_a_caller():
    defined: list[tuple[str, str, str]] = []
    used: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = path.relative_to(SRC).as_posix()
        defined += [(module, name, label) for name, label in public_definitions(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [f"{module}: {label}" for module, name, label in defined if name not in used]
    assert not unused, "public definitions with no caller in src/reslearn:\n" + "\n".join(unused)


# the packet parsers, the endpoint filter of a pcap input, and the frame-file
# texts: each is called from one place, harness.load_packets and
# harness.write_frame_files, so a second reader or writer cannot creep back in
SINGLE_CALL_SITE = ("parse_pcap", "parse_csv", "EndpointFilter", "threshold_report",
                    "features_csv")


def test_one_packet_reader_and_one_frame_writer():
    calls: Counter[str] = Counter()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                calls[getattr(func, "id", None) or getattr(func, "attr", None)] += 1
    assert {name: calls[name] for name in SINGLE_CALL_SITE} == dict.fromkeys(SINGLE_CALL_SITE, 1)

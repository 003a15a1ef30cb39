"""Every public module-level function and class of the package, and every
public method of a module-level class, has a caller inside the package: API
that only tests call is deleted, not kept. Likewise every defaulted parameter
of that API is passed by some call in the package: one that none passes is a
constant. Packets reach the frame files by one path: one reader and one
writer. And work runs in parallel one way: through `placement.spread`, the
one fan-out, with no threads or pools."""

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


# the console entry point: its default (the process's arguments) is for users
ENTRY_POINTS = {("cli.py", "main")}


def defaulted_parameters(tree: ast.Module):
    """(name, label, position, parameter) of each defaulted parameter of each
    public module-level function and public method of a module-level class.
    `position` is the parameter's index among a call's positional arguments,
    a method's `self` not counted; None for a keyword-only parameter."""
    funcs = [(node, node.name, 0) for node in tree.body if isinstance(node, FUNCTIONS)]
    funcs += [(item, f"{node.name}.{item.name}", 1) for node in tree.body
              if isinstance(node, ast.ClassDef) for item in node.body
              if isinstance(item, FUNCTIONS)]
    for func, label, bound in funcs:
        if func.name.startswith("_"):
            continue
        args = func.args.posonlyargs + func.args.args
        for i, arg in enumerate(args[len(args) - len(func.args.defaults):],
                                start=len(args) - len(func.args.defaults)):
            yield func.name, label, i - bound, arg.arg
        for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
            if default is not None:
                yield func.name, label, None, arg.arg


def passes(call: ast.Call, position: int | None, parameter: str) -> bool:
    """Whether `call` passes the parameter, by name, by position or through
    * or ** unpacking."""
    if any(kw.arg in (parameter, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return (len(call.args) > position
            or any(isinstance(a, ast.Starred) for a in call.args[:position + 1]))


def test_every_default_is_overridden_by_a_caller():
    defaulted, calls = [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = path.relative_to(SRC).as_posix()
        defaulted += [(module, *d) for d in defaulted_parameters(tree)
                      if (module, d[0]) not in ENTRY_POINTS]
        calls += [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    constant = [
        f"{module}: {label}({parameter})"
        for module, name, label, position, parameter in defaulted
        if not any(passes(call, position, parameter) for call in calls
                   if (getattr(call.func, "id", None) or getattr(call.func, "attr", None)) == name)
    ]
    assert not constant, ("defaulted parameters that no call in src/reslearn passes, "
                          "constants in effect:\n" + "\n".join(constant))


# the modules that would start threads or a process pool
CONCURRENCY_MODULES = ("threading", "multiprocessing", "concurrent", "_thread")
# what the rest of the package may use of `placement`: the fan-out and how
# many processes it runs, never a fork, a CPU pin or a wait of its own
PLACEMENT_API = {"spread", "workers", "usable_cpus"}


def test_only_placement_forks_and_nothing_starts_threads():
    forks, imports, placement = [], [], []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "fork":
                forks.append(module)
            elif isinstance(node, ast.Import):
                imports += [f"{module}: {a.name}" for a in node.names
                            if a.name.split(".")[0] in CONCURRENCY_MODULES]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module.split(".")[0] in CONCURRENCY_MODULES:
                    imports.append(f"{module}: {node.module}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("placement"):
                placement += [f"{module}: {a.name}" for a in node.names
                              if a.name not in PLACEMENT_API]
            elif isinstance(node, ast.Attribute) and node.attr in ("sched_setaffinity", "waitpid"):
                forks.append(module)
    assert set(forks) == {"placement.py"}
    assert not imports, "modules that import threads or pools:\n" + "\n".join(imports)
    assert not placement, ("modules that import more of placement than "
                           f"{sorted(PLACEMENT_API)}:\n" + "\n".join(placement))

"""Every function and method of the package is reached from an entry point.

A name-based walk over the ASTs of ``src/cregcert``.  A definition is
reached when a reached body names it (as a name or as an attribute), so
two definitions that share a name are reached together; a function's
own locals do not count.  A reached class reaches its dunder methods,
and a method is reached by any attribute of its name.  The roots are
the CLI, the report steps and the replay:

- ``cli.main``, ``verify_report``, ``classify`` and ``certify_theorem``;
- every function a package decorator registers (``@_step(...)``), and
  every name used at module level (tables such as ``_READERS``);
- every name ``tests/test_acceptance.py`` imports from the package;
- ``transitivity_by_stabilizer``, which states the slice lemma that the
  complete-transitivity certificate is to call.

What nothing reaches is code kept only for its unit tests.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cregcert"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"

ROOTS = {
    "main",
    "verify_report",
    "classify",
    "certify_theorem",
    "transitivity_by_stabilizer",
}


def _names(nodes) -> set[str]:
    """Every name and attribute the nodes use."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
    return found


def _body_names(function) -> set[str]:
    """What a function names, less the names it binds itself (arguments,
    assignment targets, nested definitions): a local that shares its name
    with a definition does not reach it."""
    loaded, attrs, bound = set(), set(), set()
    for sub in ast.walk(function):
        if isinstance(sub, ast.Name):
            (bound if isinstance(sub.ctx, ast.Store) else loaded).add(sub.id)
        elif isinstance(sub, ast.Attribute):
            attrs.add(sub.attr)
        elif isinstance(sub, ast.arg):
            bound.add(sub.arg)
        elif _is_def(sub) and sub is not function:
            bound.add(sub.name)
    return loaded - bound | attrs


def _is_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def _header(node) -> list:
    """What a definition evaluates where it is defined: decorators,
    defaults and base classes."""
    if isinstance(node, ast.ClassDef):
        return node.decorator_list + node.bases + node.keywords
    return node.decorator_list + node.args.defaults + node.args.kw_defaults


def reachability(src: Path = SRC, acceptance: Path = ACCEPTANCE):
    """(reached, unreached): qualified names of the package's functions,
    classes and methods."""
    defs = {}  # qualified name -> (simple name, uses when reached)
    roots = set(ROOTS)
    package_defs = set()
    registering = []  # (decorator names, function name)
    for path in sorted(src.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not _is_def(node):
                roots |= _names([node])
                continue
            roots |= _names(_header(node))
            package_defs.add(node.name)
            qual = f"{module}.{node.name}"
            if isinstance(node, ast.ClassDef):
                methods = [n for n in node.body if _is_def(n)]
                rest = [n for n in node.body if not _is_def(n)]
                protocol = {m.name for m in methods if m.name.startswith("__")}
                uses = _names(rest) | protocol
                for method in methods:
                    uses |= _names(_header(method))
                    defs[f"{qual}.{method.name}"] = (method.name, _body_names(method))
                defs[qual] = (node.name, uses)
            else:
                defs[qual] = (node.name, _body_names(node))
                calls = [d.func for d in node.decorator_list if isinstance(d, ast.Call)]
                registering.append((_names(calls), node.name))
    roots |= {name for used, name in registering if used & package_defs}
    tree = ast.parse(acceptance.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("cregcert"):
            roots |= {alias.name for alias in node.names}

    reached_names, frontier = set(), set(roots)
    while frontier:
        reached_names |= frontier
        used = set()
        for simple, uses in defs.values():
            if simple in frontier:
                used |= uses
        frontier = used - reached_names
    reached = {q for q, (simple, _) in defs.items() if simple in reached_names}
    return sorted(reached), sorted(defs.keys() - reached)


def test_every_definition_is_reached():
    reached, unreached = reachability()
    assert "cli.main" in reached and "classify.verify_report" in reached
    assert not unreached, "reached by no entry point: " + ", ".join(unreached)

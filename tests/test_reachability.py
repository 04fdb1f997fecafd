"""Every function and method of the package is reached from an entry point.

A name-based walk over the ASTs of ``src/cregcert``.  A function or
class is reached when a reached body names it (as a name or as an
attribute), so two definitions that share a name are reached together;
a function's own locals do not count.  A method is reached only by an
attribute of its name (``x.compose``, not ``compose(...)``), and a
reached class reaches its dunder methods.  The roots are the CLI, the
report steps and the replay, and nothing else:

- ``cli.main``, ``verify_report``, ``classify`` and ``certify_theorem``;
- every function a package decorator registers (``@_step(...)``), and
  every name used at module level (tables such as ``_READERS``).

What nothing reaches is code kept only for its tests; a second route a
test needs lives in ``tests/oracles.py``.
"""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cregcert"

ROOTS = {"main", "verify_report", "classify", "certify_theorem"}


def _names(nodes) -> set[str]:
    """Every name the nodes use, and every attribute as ``.attr``."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add("." + sub.attr)
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
            attrs.add("." + sub.attr)
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


def reachability(src: Path = SRC):
    """(reached, unreached): qualified names of the package's functions,
    classes and methods."""
    defs = {}  # qualified name -> (what reaches it, uses when reached)
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
                protocol = {"." + m.name for m in methods if m.name.startswith("__")}
                uses = _names(rest) | protocol
                for method in methods:
                    uses |= _names(_header(method))
                    defs[f"{qual}.{method.name}"] = (
                        {"." + method.name},
                        _body_names(method),
                    )
                defs[qual] = ({node.name, "." + node.name}, uses)
            else:
                defs[qual] = ({node.name, "." + node.name}, _body_names(node))
                calls = [d.func for d in node.decorator_list if isinstance(d, ast.Call)]
                registering.append((_names(calls), node.name))
    roots |= {name for used, name in registering if used & package_defs}

    reached_names, frontier = set(), set(roots)
    while frontier:
        reached_names |= frontier
        used = set()
        for keys, uses in defs.values():
            if keys & frontier:
                used |= uses
        frontier = used - reached_names
    reached = {q for q, (keys, _) in defs.items() if keys & reached_names}
    return sorted(reached), sorted(defs.keys() - reached)


def test_every_definition_is_reached():
    reached, unreached = reachability()
    assert "cli.main" in reached and "classify.verify_report" in reached
    assert not unreached, "reached by no entry point: " + ", ".join(unreached)


def unused_imports(src: Path = SRC) -> list[str]:
    """``module.name`` for each name a module-level import binds that its
    module never loads, nor lists in ``__all__``."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = [
            alias.asname or alias.name.partition(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                listed = ast.walk(node.value)
                used |= {c.value for c in listed if isinstance(c, ast.Constant)}
        found += [f"{path.stem}.{name}" for name in bound if name not in used]
    return found


def test_every_import_is_used():
    assert unused_imports() == []


# every parameter with a default in a package function or method, and
# every class field with a default (a dataclass field is a parameter of
# the generated __init__), so that a new option shows in this set's diff
DEFAULTED_PARAMETERS = {
    "classify.classify(size_bound)",
    "classify.build_report(theorem_certs)",
    "classify.build_report(runtime_seconds)",
    "cli.main(argv)",
    "designs.blocks_are_canonical(node_budget)",
    "symmetry.StabilizerChain.__init__(generators)",
    "symmetry.GroupHandle.chain",
}


def defaulted_parameters(src: Path = SRC) -> set[str]:
    """``module.qualname(parameter)`` for every parameter with a default,
    and ``module.Class.field`` for every annotated class field with a
    value that is not a ``ClassVar``."""
    found = set()

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if not _is_def(child):
                visit(child, prefix)
                continue
            qual = f"{prefix}.{child.name}"
            if isinstance(child, ast.ClassDef):
                found.update(
                    f"{qual}.{a.target.id}"
                    for a in child.body
                    if isinstance(a, ast.AnnAssign)
                    and a.value is not None
                    and "ClassVar" not in ast.unparse(a.annotation)
                )
            else:
                args = child.args
                positional = args.posonlyargs + args.args
                named = positional[len(positional) - len(args.defaults) :] + [
                    a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
                ]
                found.update(f"{qual}({a.arg})" for a in named)
            visit(child, qual)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_parameters_with_defaults_are_pinned():
    assert defaulted_parameters() == DEFAULTED_PARAMETERS


# every module-level ``*_BUDGET`` constant the package defines, by name and
# value, so that a new or changed budget shows in this table's diff
BUDGETS = {
    "codes.SCAN_BUDGET": 1 << 23,
    "codes.WORD_LINE_BUDGET": 1 << 18,
    "designs.BLOCK_BUDGET": 64,
    "designs.TABLE_BUDGET": 10**6,
    "designs.CANON_NODE_BUDGET": 100,
    "symmetry.ELEMENT_BUDGET": 10**6,
    "symmetry.GENERATOR_BUDGET": 64,
    "symmetry.MATCHER_BUDGET": 10**7,
}


def defined_budgets(src: Path = SRC) -> dict[str, int]:
    """``module.NAME`` -> value for each module-level assignment to a name
    ending in ``_BUDGET`` (an imported budget is not a definition)."""
    found = {}
    for path in sorted(src.glob("*.py")):
        module = importlib.import_module(f"cregcert.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name) and t.id.endswith("_BUDGET"):
                        found[f"{path.stem}.{t.id}"] = getattr(module, t.id)
    return found


def test_budgets_are_pinned():
    assert defined_budgets() == BUDGETS


# each subcommand's option strings, so that an option no command reads
# shows in this table's diff; each certify mode is a subcommand of its own
CLI_OPTIONS = {
    "construct": {"--out"},
    "analyze": {"--out", "--report"},
    "certify": set(),
    "certify creg": {"--out", "--report"},
    "certify ct": {"--generators", "--out", "--report"},
    "classify": {"--size-bound", "--out", "--report"},
    "enumerate-designs": {"--out"},
    "aut": {"--out"},
}


def _subcommand_options(parser, prefix: str = "") -> dict[str, set[str]]:
    import argparse

    options = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                path = f"{prefix} {name}".strip()
                options[path] = {
                    s for a in sub._actions for s in a.option_strings
                } - {"-h", "--help"}
                options.update(_subcommand_options(sub, path))
    return options


def test_cli_options_are_pinned():
    from cregcert.cli import build_parser

    assert _subcommand_options(build_parser()) == CLI_OPTIONS


def _step_literals() -> list[int]:
    """The integer literals above 2 in the bodies of the ``@_step``
    certificate builders: numbers the chain states instead of deriving
    from (m, delta) and the size bound."""
    tree = ast.parse((SRC / "classify.py").read_text(encoding="utf-8"))
    builders = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_step"
            for d in node.decorator_list
        )
    ]
    return [
        sub.value
        for node in builders
        for sub in ast.walk(node)
        if isinstance(sub, ast.Constant) and type(sub.value) is int and sub.value > 2
    ]


def test_step_builders_state_no_chain_numbers():
    # the one left is the 12 that names the reference code's label
    assert _step_literals() == [12]

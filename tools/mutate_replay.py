"""A mutation sweep of the replay's own checks in ``classify.py``, of
the design search in ``designs.py``, of the permutation backtracking
in ``symmetry.py`` or of the vertex scan in ``codes.py``.

    python3 tools/mutate_replay.py [replay|designs|matcher|scan]

Each mutant changes one operator in one target function: ``<`` becomes
``<=`` and ``>`` becomes ``>=`` or back, an equality, identity or
membership test is negated, ``and`` becomes ``or`` or back, or a ``not``
is dropped.  The ``replay`` target (the default) takes the ``_read_*``
readers, ``_replay``, ``_differences``, ``_field_faults``,
``_chain_faults`` and ``verify_report``; the ``designs`` target takes
``Design``, ``check_t_design``, ``blocks_are_canonical`` and
``enumerate_designs``; the ``matcher`` target takes ``BlockFamily`` and
``setwise_stabilizer_perms``; the ``scan`` target takes the method
``Code.outer_distribution``, its field-width rule ``_field_bytes``,
``_lowest_nonzero_fields`` and ``OuterDistribution``.  Each mutant is
written into a copy of the checkout and the target's tests run against
it; a failing test kills it.  A survivor is a check no test needs: kill
it with a test, delete the check as redundant, or, for a prune that
changes no output, show its value by a work counter.  A sweep takes
from under a minute to several minutes, so it is not part of the test
suite.  Exit 0 when every mutant is killed, 1
otherwise.
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REPLAY = {"_replay", "_differences", "_field_faults", "_chain_faults", "verify_report"}
SEARCH = {"Design", "check_t_design", "blocks_are_canonical", "enumerate_designs"}
MATCHER = {"BlockFamily", "setwise_stabilizer_perms"}
SCAN = {"Code.outer_distribution", "_field_bytes", "_lowest_nonzero_fields",
        "OuterDistribution"}  # fmt: skip
# target -> (its file, which definitions it mutates, its tests)
TARGETS = {
    "replay": ("src/cregcert/classify.py",
               lambda name: name.startswith("_read_") or name in REPLAY,
               ["tests/test_classify.py", "tests/test_trust.py", "tests/test_cli.py",
                "tests/test_acceptance.py"]),
    "designs": ("src/cregcert/designs.py", SEARCH.__contains__,
                ["tests/test_designs.py", "tests/test_acceptance.py"]),
    "matcher": ("src/cregcert/symmetry.py", MATCHER.__contains__,
                ["tests/test_symmetry.py", "tests/test_stabilizer_chain.py",
                 "tests/test_acceptance.py"]),
    "scan": ("src/cregcert/codes.py", SCAN.__contains__,
             ["tests/test_codes.py", "tests/test_regularity.py",
              "tests/test_spectral.py"]),
}  # fmt: skip
SWAPPED = {ast.Lt: ast.LtE, ast.Gt: ast.GtE, ast.Eq: ast.NotEq, ast.Is: ast.IsNot,
           ast.In: ast.NotIn}  # fmt: skip
SWAPPED.update({v: k for k, v in SWAPPED.items()})


class Mutator(ast.NodeTransformer):
    """Numbers the operators of the selected definitions in visiting order
    and rewrites the one numbered ``target``, recording its ``label``.
    A top-level definition is selected by its name, a method of a class
    that is not by ``Class.method``."""

    def __init__(self, target: int, selected):
        self.target, self.selected, self.count, self.label = target, selected, 0, None

    def _hit(self, node, change: str) -> bool:
        self.count += 1
        if self.count - 1 == self.target:
            self.label = f"line {node.lineno}: {ast.unparse(node)}  [{change}]"
        return self.count - 1 == self.target

    def visit_Module(self, node):
        for fn in node.body:
            if isinstance(fn, (ast.FunctionDef, ast.ClassDef)) and self.selected(fn.name):
                self.generic_visit(fn)
            elif isinstance(fn, ast.ClassDef):
                for method in fn.body:
                    if isinstance(method, ast.FunctionDef) and self.selected(
                        f"{fn.name}.{method.name}"
                    ):
                        self.generic_visit(method)
        return node

    def visit_Compare(self, node):
        self.generic_visit(node)
        for i, op in enumerate(node.ops):
            new = SWAPPED.get(type(op))
            if new and self._hit(node, f"operator {i + 1} -> {new.__name__}"):
                node.ops[i] = new()
        return node

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        new = ast.Or if isinstance(node.op, ast.And) else ast.And
        if self._hit(node, f"-> {new.__name__}"):
            node.op = new()
        return node

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        drop = isinstance(node.op, ast.Not) and self._hit(node, "not dropped")
        return node.operand if drop else node


def main(target: str) -> int:
    path, selected, tests = TARGETS[target]
    source = (ROOT / path).read_text(encoding="utf-8")
    survived, k = 0, -1
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "perfbench"))
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        while True:  # k = -1 re-prints the source unmutated: it must pass
            mutator = Mutator(k, selected)
            text = ast.unparse(mutator.visit(ast.parse(source)))
            if k == mutator.count:
                break
            (copy / path).write_text(text + "\n", encoding="utf-8")
            command = [sys.executable, "-m", "pytest", "-x", "-q", *tests]
            try:
                run = subprocess.run(command, cwd=copy, env=env, capture_output=True,
                                     timeout=900)  # fmt: skip
                alive = run.returncode == 0
            except subprocess.TimeoutExpired:  # a hang kills the mutant too
                alive = False
            if k < 0 and not alive:
                print("the unmutated source, re-printed, fails its tests")
                return 2
            if k >= 0:
                survived += alive
                print("SURVIVED" if alive else "killed  ", mutator.label, flush=True)
            k += 1
    print(f"{k - survived} killed, {survived} survived of {k} mutants")
    return 1 if survived else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="a mutation sweep")
    parser.add_argument("target", nargs="?", default="replay", choices=TARGETS)
    sys.exit(main(parser.parse_args().target))

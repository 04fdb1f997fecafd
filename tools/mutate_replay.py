"""A mutation sweep of the replay's own checks in ``classify.py``.

    python3 tools/mutate_replay.py

Each mutant changes one operator in one replay function (the ``_read_*``
readers, ``_replay``, ``_differences``, ``_field_faults``,
``_chain_faults`` and ``verify_report``): ``<`` becomes ``<=`` and ``>``
becomes ``>=`` or back, an equality, identity or membership test is
negated, ``and`` becomes ``or`` or back, or a ``not`` is dropped.  Each
is written into a copy of the checkout and the replay's tests run
against it; a failing test kills it.  A survivor is a check no test
needs: kill it with a test, or delete the check as redundant.  The sweep
takes several minutes, so it is not part of the test suite.  Exit 0
when every mutant is killed, 1 otherwise.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TARGET = "src/cregcert/classify.py"
REPLAY = {"_replay", "_differences", "_field_faults", "_chain_faults", "verify_report"}
TESTS = ["tests/test_classify.py", "tests/test_trust.py", "tests/test_cli.py",
         "tests/test_acceptance.py"]  # fmt: skip
SWAPPED = {ast.Lt: ast.LtE, ast.Gt: ast.GtE, ast.Eq: ast.NotEq, ast.Is: ast.IsNot,
           ast.In: ast.NotIn}  # fmt: skip
SWAPPED.update({v: k for k, v in SWAPPED.items()})


class Mutator(ast.NodeTransformer):
    """Numbers the operators of the replay functions in visiting order and
    rewrites the one numbered ``target``, recording its ``label``."""

    def __init__(self, target: int):
        self.target, self.count, self.label = target, 0, None

    def _hit(self, node, change: str) -> bool:
        self.count += 1
        if self.count - 1 == self.target:
            self.label = f"line {node.lineno}: {ast.unparse(node)}  [{change}]"
        return self.count - 1 == self.target

    def visit_Module(self, node):
        for fn in node.body:
            if isinstance(fn, ast.FunctionDef) and (
                fn.name.startswith("_read_") or fn.name in REPLAY
            ):
                self.generic_visit(fn)
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


def main() -> int:
    source = (ROOT / TARGET).read_text(encoding="utf-8")
    survived, k = 0, -1
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "perfbench"))
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        while True:  # k = -1 re-prints the source unmutated: it must pass
            mutator = Mutator(k)
            text = ast.unparse(mutator.visit(ast.parse(source)))
            if k == mutator.count:
                break
            (copy / TARGET).write_text(text + "\n", encoding="utf-8")
            command = [sys.executable, "-m", "pytest", "-x", "-q", *TESTS]
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
    sys.exit(main())

"""The three workloads: inputs, one iteration, and the gates on its outputs.

Each iteration runs in fresh child processes, one at a time, so no
``lru_cache`` (``enumerate_designs``, ``reference_code``) and no cached
``Code`` property carries over from one iteration to the next.  An
operation is one classification, one replayed report, or one analyzed
code; it fails on a crash, a timeout, or a wrong output.

An iteration also records its timed parts: each child process, or each
operation inside a child plus that child's start-up, so that the run can
sum each part's fastest time over its iterations, and the host speed
while it ran (see ``calibrate``).
"""

from __future__ import annotations

import compileall
import json
import random
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import inputs
from .procs import ChildRun, run_child
from .reports import (
    CLASSIFICATIONS,
    HarnessError,
    classify_argv,
    genuine_reports,
    normalized_report,
    tamper,
    tamper_plan,
)

ANALYZE_BATCH = 150


@dataclass
class Context:
    root: Path
    work: Path  # this workload's scratch directory
    cache: Path  # shared by workloads: verified genuine reports
    seed: int
    env: dict
    deadline: float  # time.perf_counter() value the run must end by

    def timeout(self, cap: float) -> float:
        return min(cap, self.deadline - time.perf_counter())

    def child_argv(self, mode: str, *args) -> list[str]:
        return [sys.executable, "-m", "cregbench.child", mode, *map(str, args)]


@dataclass
class Iteration:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    maxrss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)
    parts: dict[str, tuple[float, float]] = field(default_factory=dict)  # (wall, cpu)
    scale: float = 1.0  # host speed while it ran: reference seconds per second

    def add_child(self, run: ChildRun, part: str | None = None) -> None:
        self.wall_s += run.wall_s
        self.cpu_s += run.cpu_s
        self.maxrss_mb = max(self.maxrss_mb, run.maxrss_mb)
        if part is not None:
            self.parts[part] = (run.wall_s, run.cpu_s)

    def add_operations(self, run: ChildRun, results: list[dict]) -> None:
        """Split one batch child into its operations and its start-up."""
        walls = [entry.get("wall_s", 0.0) for entry in results]
        cpus = [entry.get("cpu_s", 0.0) for entry in results]
        for i, times in enumerate(zip(walls, cpus)):
            self.parts[f"op{i:03d}"] = times
        self.parts["startup"] = (run.wall_s - sum(walls), run.cpu_s - sum(cpus))

    def operation(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)


def fastest(iterations: list[Iteration], index: int) -> float:
    """Sum over timed parts of each part's least wall (``index`` 0) or
    CPU (1) time across the iterations, in reference seconds."""
    keys = sorted({key for it in iterations for key in it.parts})
    return sum(
        min(it.parts[key][index] * it.scale for it in iterations if key in it.parts) for key in keys
    )


def _child_problem(run: ChildRun, what: str) -> str | None:
    if run.timed_out:
        return f"{what}: timed out after {run.wall_s:.1f} s"
    if run.returncode != 0:
        return f"{what}: exit {run.returncode}"
    return None


def compile_dir(directory: Path) -> None:
    if not compileall.compile_dir(str(directory), force=True, quiet=1):
        raise HarnessError(f"cannot byte-compile {directory}")


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Workload:
    name = ""
    why = ""
    ops_unit = "operations"
    # a run measures for --seconds, and at least this many iterations
    min_iterations = 1

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def prepare(self) -> None:
        """One-time, untimed work shared across runs of one checkout."""

    def build_inputs(self) -> None:
        """Untimed: byte-compile the harness and build this run's inputs
        (and their expected outputs) from the seed."""
        compile_dir(self.ctx.root / "perfbench" / "cregbench")
        _fresh(self.ctx.work / "out")

    def setup(self) -> None:
        """Timed as setup_s: byte-compile the program, so no timed child
        does, and start its command line cold once (interpreter start-up
        and every ``cregcert`` import)."""
        compile_dir(self.ctx.root / "src" / "cregcert")
        run = run_child(
            [sys.executable, "-c", "import cregcert.cli"],
            env=self.ctx.env, cwd=self.ctx.root,
            output_path=self.ctx.work / "setup-log.txt", timeout=self.ctx.timeout(60.0),
        )
        if not run.ok:
            raise HarnessError(f"cannot import cregcert.cli: exit {run.returncode}")

    def run(self, trace_dir: Path | None) -> Iteration:
        raise NotImplementedError

    def _run_batch(self, trace_dir: Path | None) -> tuple[Iteration, list, str | None]:
        """One child over this run's manifest: the iteration so far, the
        per-item results, and why there are none if the child failed."""
        it = Iteration()
        out_dir = _fresh(self.ctx.work / "out")
        results_path = out_dir / "results.json"
        trace = "-" if trace_dir is None else trace_dir / f"{self.name}.json"
        run = run_child(
            self.ctx.child_argv(self.name, self.ctx.work / "inputs" / "manifest.json", results_path, trace),
            env=self.ctx.env, cwd=self.ctx.root, output_path=out_dir / "log.txt",
            timeout=self.ctx.timeout(self.timeout),
        )
        it.add_child(run)
        what = f"{self.name} child"
        problem = _child_problem(run, what)
        if problem is not None:
            return it, [], problem
        try:
            results = json.loads(results_path.read_text())
        except (OSError, ValueError) as exc:
            return it, [], f"{what}: unreadable results ({exc})"
        it.add_operations(run, results)
        return it, results, None


class Classify(Workload):
    name = "classify"
    why = (
        "the paper's deliverable: cregcert classify 12 6 and 11 5 through the CLI, the only "
        "workload with the orderly design search and the permutation backtracking"
    )
    ops_unit = "classifications"
    timeouts = {12: 150.0, 11: 40.0}

    def prepare(self) -> None:
        paths = genuine_reports(self.ctx.root, self.ctx.cache, self.ctx.env)
        self.genuine = {m: normalized_report(p.read_text()) for m, p in paths.items()}

    def run(self, trace_dir: Path | None) -> Iteration:
        it = Iteration()
        out_dir = _fresh(self.ctx.work / "out")
        report_bytes = 0
        for m, delta in CLASSIFICATIONS:
            report, text = out_dir / f"report{m}.json", out_dir / f"out{m}.txt"
            argv = classify_argv(m, delta, report, text)
            if trace_dir is not None:
                trace = trace_dir / f"classify{m}.json"
                argv = self.ctx.child_argv("cli", f"classify{m}", trace, *argv[3:])
            run = run_child(
                argv, env=self.ctx.env, cwd=self.ctx.root,
                output_path=out_dir / f"log{m}.txt", timeout=self.ctx.timeout(self.timeouts[m]),
            )
            it.add_child(run, f"classify{m}")
            what = f"classify {m} {delta}"
            problem = _child_problem(run, what)
            if problem is None and not report.is_file():
                problem = f"{what}: no report written"
            if problem is None:
                if "verdict: PASS" not in text.read_text().splitlines():
                    problem = f"{what}: verdict is not PASS"
                elif normalized_report(report.read_text()) != self.genuine[m]:
                    problem = f"{what}: report differs from the verified report of this source"
                report_bytes += report.stat().st_size
            it.operation(problem)
        it.facts["cli.report_bytes"] = report_bytes
        return it


class Replay(Workload):
    name = "replay"
    why = (
        "an independent verifier's job: verify_report on both genuine reports (the 12-6 "
        "replay is all closure) plus seeded tampered copies of the 11-5 report"
    )
    ops_unit = "reports"
    timeout = 170.0

    def prepare(self) -> None:
        self.genuine = genuine_reports(self.ctx.root, self.ctx.cache, self.ctx.env)

    def build_inputs(self) -> None:
        super().build_inputs()
        inputs_dir = _fresh(self.ctx.work / "inputs")
        report11 = json.loads(self.genuine[11].read_text())
        rng = random.Random(self.ctx.seed)
        manifest = [
            {"label": f"report{m}", "marker": f"report{m}", "path": str(self.genuine[m]), "tampered": False}
            for m, _ in CLASSIFICATIONS
        ]
        for i, kind in enumerate(tamper_plan(self.ctx.seed)):
            path = inputs_dir / f"tampered{i}-{kind}.json"
            path.write_text(json.dumps(tamper(report11, kind, rng), sort_keys=True, indent=2) + "\n")
            manifest.append({"label": f"tampered-{kind}", "marker": "tampered", "path": str(path), "tampered": True})
        self.manifest = manifest
        (inputs_dir / "manifest.json").write_text(json.dumps(manifest))

    def run(self, trace_dir: Path | None) -> Iteration:
        it, results, problem = self._run_batch(trace_dir)
        failed_steps = 0
        for i, item in enumerate(self.manifest):
            if problem is not None or i >= len(results):
                it.operation(problem or f"{item['label']}: no result")
                continue
            entry = results[i]
            if entry["error"]:
                it.operation(f"{item['label']}: verify_report raised\n{entry['error']}")
                continue
            failed = [anchor for anchor, ok, _ in entry["steps"] if not ok]
            if item["tampered"]:
                failed_steps += len(failed)
                it.operation(None if failed else f"{item['label']}: every step passed")
            else:
                it.operation(f"{item['label']}: failed steps {failed}" if failed else None)
        it.facts["classify.replay_failed_steps"] = failed_steps
        return it


class Analyze(Workload):
    name = "analyze"
    why = (
        "the workbench user checking code files: analyze and certify creg over 150 seeded "
        "automorphism images of the reference codes and of fixed random codes, all 2^m vertex scans"
    )
    ops_unit = "codes"
    # a pass is short, so every code's fastest time has two samples
    min_iterations = 2
    timeout = 90.0

    def build_inputs(self) -> None:
        super().build_inputs()
        inputs_dir = _fresh(self.ctx.work / "inputs")
        manifest, expected = [], []
        for i, (m, words) in enumerate(inputs.make_codes(self.ctx.seed, ANALYZE_BATCH)):
            code = inputs_dir / f"code{i:03d}.txt"
            code.write_text(inputs.format_code(m, words))
            manifest.append({
                "code": str(code),
                "report": str(self.ctx.work / "out" / f"analysis{i:03d}.json"),
                "out": str(self.ctx.work / "out" / "text.txt"),
            })
            expected.append(inputs.oracle(m, words))
        self.manifest, self.expected = manifest, expected
        (inputs_dir / "manifest.json").write_text(json.dumps(manifest))

    def run(self, trace_dir: Path | None) -> Iteration:
        it, results, problem = self._run_batch(trace_dir)
        for i, (item, expected) in enumerate(zip(self.manifest, self.expected)):
            it.operation(problem or self._check(item, expected, results[i] if i < len(results) else None))
        return it

    @staticmethod
    def _check(item: dict, expected: dict, entry: dict | None) -> str | None:
        name = Path(item["code"]).name
        if entry is None:
            return f"{name}: no result"
        if entry["error"]:
            return f"{name}: raised\n{entry['error']}"
        if entry["analyze"] != 0:
            return f"{name}: analyze exit {entry['analyze']}"
        want = 0 if expected["completely_regular"] else 1
        if entry["certify"] != want:
            return f"{name}: certify creg exit {entry['certify']}, oracle expects {want}"
        try:
            report = json.loads(Path(item["report"]).read_text())
        except (OSError, ValueError) as exc:
            return f"{name}: unreadable analysis report ({exc})"
        mismatches = inputs.analysis_mismatches(report, expected)
        return f"{name}: {'; '.join(mismatches)}" if mismatches else None


WORKLOADS = {w.name: w for w in (Classify, Replay, Analyze)}

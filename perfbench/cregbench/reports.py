"""Genuine classification reports and seeded tampered copies of them.

The genuine reports are produced by the command line of the checkout
under test, once per source tree: they are kept under a key derived from
a digest of ``src/cregcert`` and replayed in full with ``verify_report``
before they are kept, so a report-format change is measured and never
read from a checked-in file.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import random
import re
import shutil
import sys
from pathlib import Path

from .procs import run_child

CLASSIFICATIONS = ((12, 6), (11, 5))

# kinds of tampering, by where verify_report notices them
EARLY_TAMPER = "generator"  # a generator moves the code: rejected before closure
LATE_TAMPERS = ("order", "sigma", "codeword", "intersection_table", "design_block")
TAMPER_KINDS = (EARLY_TAMPER,) + LATE_TAMPERS

_RUNTIME_LINE = re.compile(r'^  "runtime_seconds": [^\n]*\n', re.MULTILINE)


class HarnessError(RuntimeError):
    """The benchmark cannot run against this checkout."""


def normalized_report(text: str) -> str:
    """Report text without its wall-clock ``runtime_seconds`` line."""
    return _RUNTIME_LINE.sub("", text)


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "cregcert").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def classify_argv(m: int, delta: int, report: Path, out: Path) -> list[str]:
    return [
        sys.executable, "-m", "cregcert.cli", "classify", str(m), str(delta),
        "--report", str(report), "--out", str(out),
    ]


def genuine_reports(root: Path, work: Path, env: dict) -> dict[int, Path]:
    """Paths of the verified (12, 6) and (11, 5) reports, built if missing."""
    final = work / f"genuine-{source_digest(root)}"
    paths = {m: final / f"report{m}.json" for m, _ in CLASSIFICATIONS}
    if (final / "verified.json").exists():
        return paths
    staging = work / f"genuine-staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    manifest = []
    for m, delta in CLASSIFICATIONS:
        report = staging / f"report{m}.json"
        run = run_child(
            classify_argv(m, delta, report, staging / f"out{m}.txt"),
            env=env, cwd=root, output_path=staging / f"log{m}.txt", timeout=900,
        )
        if not run.ok:
            raise HarnessError(f"cregcert classify {m} {delta} failed: exit {run.returncode}")
        manifest.append({"label": f"report{m}", "marker": f"report{m}", "path": str(report)})
    (staging / "manifest.json").write_text(json.dumps(manifest))
    run = run_child(
        [sys.executable, "-m", "cregbench.child", "replay",
         str(staging / "manifest.json"), str(staging / "verified.json"), "-"],
        env=env, cwd=root, output_path=staging / "log-verify.txt", timeout=900,
    )
    results = json.loads((staging / "verified.json").read_text()) if run.ok else []
    for entry in results:
        if entry["error"] or not all(ok for _, ok, _ in entry["steps"]):
            raise HarnessError(f"genuine {entry['label']} does not replay")
    if len(results) != len(CLASSIFICATIONS):
        raise HarnessError(f"replay of the genuine reports failed: exit {run.returncode}")
    shutil.rmtree(final, ignore_errors=True)
    os.replace(staging, final)
    return paths


def _step(report: dict, anchor: str) -> dict:
    return next(s for s in report["steps"] if s["anchor"] == anchor)


def tamper(report: dict, kind: str, rng: random.Random) -> dict:
    """A copy of ``report`` with one seeded change of the given kind.

    Each change is one verify_report must reject: a flipped flip-bit
    moves the code off itself; the (11, 5) code's permutation
    automorphisms contain no transposition, so a swapped sigma misses
    the reference; every coordinate lies in some distance-5 difference,
    so a flipped codeword bit drops the minimum distance to 4; a moved
    point unbalances the pair counts of the design.
    """
    bad = copy.deepcopy(report)
    m = bad["parameters"]["length"]
    if kind == "generator":
        gens = _step(bad, "theorem/automorphism-group")["witness"]["generators"]
        i = rng.randrange(len(gens))
        flips, images = gens[i].split("|")
        j = rng.randrange(len(flips))
        gens[i] = flips[:j] + ("1" if flips[j] == "0" else "0") + flips[j + 1 :] + "|" + images
    elif kind == "order":
        witness = _step(bad, "theorem/automorphism-group")["witness"]
        witness["order"] += rng.choice((-1, 1)) * rng.randint(1, 1000)
    elif kind == "sigma":
        sigma = _step(bad, "classification/equivalence-witness")["witness"]["sigma"]
        a, b = rng.sample(range(len(sigma)), 2)
        sigma[a], sigma[b] = sigma[b], sigma[a]
    elif kind == "codeword":
        words = _step(bad, "classification/code-structure")["witness"]["words"]
        i = rng.randrange(len(words))
        j = rng.randrange(m)
        words[i] = words[i][:j] + ("1" if words[i][j] == "0" else "0") + words[i][j + 1 :]
    elif kind == "intersection_table":
        table = _step(bad, "theorem/complete-regularity")["witness"]["intersection_table"]
        row = table[rng.randrange(len(table))]
        row[rng.randrange(len(row))] += 1
    elif kind == "design_block":
        witness = _step(bad, "classification/design-uniqueness")["witness"]
        blocks = witness["representative_blocks"]
        i = rng.randrange(len(blocks))
        dropped = rng.choice(blocks[i])
        added = rng.choice([p for p in range(1, m + 1) if p not in blocks[i]])
        blocks[i] = sorted([p for p in blocks[i] if p != dropped] + [added])
    else:
        raise ValueError(f"unknown tamper kind {kind!r}")
    return bad


def tamper_plan(seed: int) -> list[str]:
    """One early-rejected copy and two late-rejected kinds chosen by seed,
    so every seed asks for the same amount of replay work."""
    rng = random.Random(seed)
    return [EARLY_TAMPER] + rng.sample(LATE_TAMPERS, 2)

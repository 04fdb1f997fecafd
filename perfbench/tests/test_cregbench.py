"""Tests of the benchmark harness itself: oracle, inputs, tampering, tracer."""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from cregbench import inputs  # noqa: E402
from cregbench.calibrate import REFERENCE_S, CalibrationError, Calibrator  # noqa: E402
from cregbench.layers import PER_LAYER, Profile  # noqa: E402
from cregbench.reports import TAMPER_KINDS, normalized_report, tamper, tamper_plan  # noqa: E402
from cregbench.procs import ChildRun  # noqa: E402
from cregbench.workloads import WORKLOADS, Iteration, fastest  # noqa: E402


def test_oracle_reproduces_code12_invariants():
    expected = inputs.oracle(12, inputs.hadamard12_words())
    assert expected["covering_radius"] == 4
    assert expected["cell_sizes"] == [24, 288, 1584, 1760, 440]
    assert expected["completely_regular"] and expected["uniformly_packed"]
    assert expected["antipodal"]


def test_oracle_reproduces_code11_invariants():
    expected = inputs.oracle(11, inputs.punctured(inputs.hadamard12_words()))
    assert expected["covering_radius"] == 3
    assert expected["cell_sizes"] == [24, 264, 1320, 440]
    assert expected["completely_regular"] and expected["uniformly_packed"]


def test_oracle_agrees_with_the_program():
    from cregcert.codes import Code
    from cregcert.regularity import certify_completely_regular
    from cregcert.spectral import certify_uniformly_packed

    for m, words in inputs.make_codes(7, 8):
        code = Code(m, words)
        expected = inputs.oracle(m, words)
        assert expected["covering_radius"] == code.covering_radius
        assert expected["cell_sizes"] == list(code.distance_partition().cell_sizes())
        assert expected["distance_distribution"] == [str(v) for v in code.distance_distribution]
        assert expected["antipodal"] == code.is_antipodal()
        assert expected["completely_regular"] == certify_completely_regular(code).completely_regular
        assert expected["uniformly_packed"] == certify_uniformly_packed(code).satisfied


def test_codes_are_seeded_with_a_fixed_work_schedule():
    a, b, c = (inputs.make_codes(seed, 20) for seed in (3, 3, 4))
    assert a == b and a != c
    assert sum(1 for m, words in a if len(words) == 24) >= 10

    def work(codes):
        """What the program's work depends on, up to the order of the batch."""
        facts = []
        for m, words in codes:
            expected = inputs.oracle(m, words)
            facts.append((m, len(words), expected["cell_sizes"], expected["distance_distribution"]))
        return sorted(facts)

    # seeds change every input but not the work they ask for
    assert {(m, tuple(w)) for m, w in a}.isdisjoint((m, tuple(w)) for m, w in c)
    assert work(a) == work(c)


def test_fastest_sums_each_parts_least_time():
    runs = [ChildRun(0, wall, cpu, 70.0, False) for wall, cpu in ((3.0, 2.5), (2.0, 1.8))]
    slow, quick = Iteration(), Iteration()
    slow.add_operations(runs[0], [{"wall_s": 1.0, "cpu_s": 1.0}, {"wall_s": 1.5, "cpu_s": 1.0}])
    quick.add_operations(runs[1], [{"wall_s": 0.5, "cpu_s": 0.4}, {"wall_s": 1.2, "cpu_s": 1.2}])
    assert slow.parts["startup"] == pytest.approx((0.5, 0.5))
    assert quick.parts["startup"] == pytest.approx((0.3, 0.2))
    # each part's least time, whichever iteration it came from
    assert fastest([slow, quick], 0) == pytest.approx(0.5 + 1.2 + 0.3)
    assert fastest([slow, quick], 1) == pytest.approx(0.4 + 1.0 + 0.2)
    # in reference seconds: the slow iteration ran on a host twice as fast
    slow.scale = 2.0
    assert fastest([slow, quick], 0) == pytest.approx(0.5 + 1.2 + 0.3)
    slow.scale = 0.25
    assert fastest([slow, quick], 0) == pytest.approx(0.25 + 0.375 + 0.125)


def test_calibrator_scale_is_reference_over_the_lower_quartile(tmp_path):
    samples = tmp_path / "samples.txt"
    lines = [f"{10.0 + i!r} {REFERENCE_S * (2 + i % 4)!r}" for i in range(40)]
    samples.write_text("\n".join(lines) + "\n12.5 0.00")  # a half-written last line
    cal = Calibrator(samples, env={}, cwd=tmp_path)
    assert len(cal.passes(10.0, 49.0)) == 40
    assert cal.scale(10.0, 49.0) == pytest.approx(1 / 3)
    with pytest.raises(CalibrationError):
        cal.scale(10.0, 12.0)


def test_calibrator_stops_with_its_block(tmp_path):
    env = dict(os.environ, PYTHONPATH=f"{BENCH}")
    with Calibrator(tmp_path / "samples.txt", env=env, cwd=tmp_path) as cal:
        start = time.perf_counter()
        time.sleep(0.8)
        assert cal.scale(start, time.perf_counter()) > 0
    assert cal.proc.returncode is not None


def test_normalized_report_drops_only_the_runtime():
    text = '{\n  "runtime_seconds": 16.204,\n  "schema": "creg-cert/1"\n}\n'
    assert normalized_report(text) == '{\n  "schema": "creg-cert/1"\n}\n'


@pytest.fixture(scope="module")
def report11():
    from cregcert.classify import build_report, certify_theorem, classify, report_json

    run = classify(11, 5)
    return json.loads(report_json(build_report(run, certify_theorem(11, 5))))


@pytest.mark.parametrize("kind", TAMPER_KINDS)
def test_every_tamper_kind_is_rejected(report11, kind):
    from cregcert.classify import verify_report

    bad = tamper(report11, kind, random.Random(5))
    assert bad != report11
    failed = [anchor for anchor, ok, _ in verify_report(bad) if not ok]
    assert failed
    if kind == "generator":
        assert "theorem/automorphism-group" in failed


def test_tamper_plan_has_one_early_and_two_late_kinds():
    for seed in range(10):
        plan = tamper_plan(seed)
        assert plan[0] == "generator" and len(set(plan)) == 3


def test_profile_self_time_markers_and_edges():
    trace = {
        "spans": [
            ["bench.report12", 0.0, 10.0, -1],
            ["classify.verify_report", 1.0, 9.0, 0],
            ["symmetry.closure", 2.0, 7.0, 1],
            ["symmetry.orbits", 7.0, 8.0, 1],
        ],
        "counts": {"symmetry.compose": 3},
        "extras": {"closure_elements": 2},
        "enumerate_cache_hits": 0,
    }
    profile = Profile([trace])
    assert profile.self_s("classify.verify_report", marker="bench.report12") == pytest.approx(2.0)
    assert profile.self_s(layer="symmetry") == pytest.approx(6.0)
    assert ("symmetry.closure", "bench.report12") in profile.edges
    assert profile.calls("symmetry.orbits") == 1


def test_tracer_wraps_every_import_site(tmp_path):
    script = """
import json, sys
from cregbench.tracer import Tracer
tracer = Tracer().install()
from cregcert import classify, regularity, symmetry
assert classify.closure is symmetry.closure and regularity.orbits is symmetry.orbits
g = symmetry.GraphAutomorphism(0, (1, 2, 0))
group = classify.closure([g], 3)
symmetry.orbits(group)
tracer.dump(sys.argv[1])
"""
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=f"{BENCH}:{ROOT / 'src'}")
    subprocess.run([sys.executable, "-c", script, str(out)], check=True, env=env, timeout=60)
    trace = json.loads(out.read_text())
    assert "cregcert.classify.closure" in trace["sites"]
    assert "cregcert.regularity.orbits" in trace["sites"]
    names = [span[0] for span in trace["spans"]]
    assert "symmetry.closure" in names and "symmetry.orbits" in names
    assert trace["counts"]["symmetry.compose"] > 0
    assert trace["extras"]["closure_elements"] == 3


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()
    }
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

import hashlib
import json
import random
import resource
import subprocess
import sys
from math import comb

import pytest

from cregcert.classify import verify_report
from cregcert.codes import Code
from cregcert.hadamard import HadamardMatrix


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "cregcert.cli", *argv],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="session")
def code12_file(workdir):
    path = workdir / "code12.txt"
    result = run_cli("construct", "code12", "--out", str(path))
    assert result.returncode == 0
    return path


@pytest.fixture(scope="session")
def code11_file(workdir):
    path = workdir / "code11.txt"
    result = run_cli("construct", "code11", "--out", str(path))
    assert result.returncode == 0
    return path


@pytest.fixture(scope="session")
def classify12_report(workdir):
    path = workdir / "report12.json"
    result = run_cli("classify", "12", "6", "--report", str(path))
    assert result.returncode == 0, result.stderr
    return json.loads(path.read_text())


@pytest.fixture(scope="session")
def classify11_report(workdir):
    path = workdir / "report11.json"
    result = run_cli("classify", "11", "5", "--report", str(path))
    assert result.returncode == 0, result.stderr
    return json.loads(path.read_text())


def test_construct_hadamard12(workdir, hadamard12):
    path = workdir / "h12.txt"
    result = run_cli("construct", "hadamard12", "--out", str(path))
    assert result.returncode == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "order=12"
    rows = tuple(tuple(1 if ch == "+" else -1 for ch in ln) for ln in lines[1:])
    assert HadamardMatrix(12, rows) == hadamard12


def test_construct_code_files(code12_file, code11_file, code12, code11):
    text12 = code12_file.read_text()
    assert text12.startswith("# (12,24,6)")
    assert Code.from_text(text12) == code12
    assert Code.from_text(code11_file.read_text()) == code11
    assert len([ln for ln in text12.splitlines() if ln and not ln.startswith("#")]) == 25


def test_analyze(code12_file, code11_file, workdir):
    report_path = workdir / "analysis12.json"
    result = run_cli("analyze", str(code12_file), "--report", str(report_path))
    assert result.returncode == 0
    payload = json.loads(report_path.read_text())
    assert payload["min_distance"] == 6
    assert payload["covering_radius"] == 4
    assert payload["external_distance"] == 4
    assert payload["uniformly_packed"] is True
    assert payload["antipodal"] is True

    result = run_cli("analyze", str(code11_file))
    assert result.returncode == 0
    assert "covering radius:  3" in result.stdout
    assert "external distance: 3" in result.stdout


def test_analyze_transforms_each_code_once(code11_file, workdir, monkeypatch):
    from cregcert import cli, spectral

    calls = []
    transform = spectral.macwilliams_transform

    def counting(a):
        calls.append(a)
        return transform(a)

    monkeypatch.setattr(cli, "macwilliams_transform", counting)
    monkeypatch.setattr(spectral, "macwilliams_transform", counting)
    report_path = workdir / "analysis11_once.json"
    assert cli.main(["analyze", str(code11_file), "--report", str(report_path)]) == 0
    assert len(calls) == 1
    payload = json.loads(report_path.read_text())
    nonzero = [v for v in payload["macwilliams_transform"] if v != "0"]
    assert payload["external_distance"] == len(nonzero) - 1 == 3


def test_analyze_single_word_code(workdir):
    path = workdir / "single.txt"
    path.write_text("m=5\n00000\n")
    result = run_cli("analyze", str(path))
    assert result.returncode == 0
    assert "minimum distance: None" in result.stdout


def test_analyze_malformed_file(workdir):
    path = workdir / "broken.txt"
    path.write_text("m=4\n0101\n01x1\n")
    result = run_cli("analyze", str(path))
    assert result.returncode == 2
    assert "line 3" in result.stderr


def test_missing_file_is_usage_error():
    result = run_cli("analyze", "/nonexistent/code.txt")
    assert result.returncode == 2


def test_certify_creg(code12_file):
    result = run_cli("certify", str(code12_file), "creg")
    assert result.returncode == 0
    assert "completely regular: PASS" in result.stdout


def test_certify_creg_failure_exit_code(workdir, code12):
    victim = code12.weight_class(6)[0]
    smaller = Code(12, [w for w in code12.words if w != victim])
    path = workdir / "damaged.txt"
    path.write_text(smaller.to_text())
    result = run_cli("certify", str(path), "creg")
    assert result.returncode == 1
    assert "FAIL" in result.stdout


def test_certify_ct(code11_file):
    result = run_cli("certify", str(code11_file), "ct")
    assert result.returncode == 0
    assert "completely transitive: PASS" in result.stdout


def test_classify_pass_reports(classify12_report, classify11_report):
    assert classify12_report["verdict"] == "PASS"
    assert classify11_report["verdict"] == "PASS"
    assert classify12_report["schema"] == "creg-cert/1"
    assert "runtime_seconds" in classify12_report
    assert sorted(classify12_report["sigma"]) == list(range(1, 13))


def test_classify_reports_replay(classify12_report, classify11_report):
    for report in (classify12_report, classify11_report):
        for anchor, ok, detail in verify_report(report):
            assert ok, f"{anchor}: {detail}"


def test_classify_corrupted_bound(workdir):
    path = workdir / "bad.json"
    result = run_cli("classify", "12", "6", "--size-bound", "22", "--report", str(path))
    assert result.returncode == 1
    report = json.loads(path.read_text())
    assert report["verdict"] == "FAIL"
    assert report["steps"][-1]["anchor"] == "classification/antipodality-and-size"


def test_classify_bound_below_the_forced_size(workdir):
    # the premise N <= 23 cannot hold for the 24 forced words
    path = workdir / "bound23.json"
    result = run_cli("classify", "11", "5", "--size-bound", "23", "--report", str(path))
    assert result.returncode == 1
    assert result.stdout.endswith("verdict: FAIL\n") and "sigma" not in result.stdout
    report = json.loads(path.read_text())
    assert report["steps"][-1]["anchor"] == "classification/code-structure"
    assert all(ok for _, ok, _ in verify_report(report))


def test_classify_unsupported_parameters():
    result = run_cli("classify", "10", "4")
    assert result.returncode == 2


def test_enumerate_designs_fano():
    result = run_cli("enumerate-designs", "2", "7", "3", "1")
    assert result.returncode == 0
    assert result.stdout.startswith("1 isomorphism class(es)")


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "argv, reason",
    [
        (("1", "40", "1", "1"), "word length"),  # a 2^40-entry coverage table
        (("12", "24", "23", "12"), "table budget"),  # 24 x 4.2M subset entries
    ],
)
def test_enumerate_designs_refuses_before_allocating(argv, reason):
    # under a 1 GiB address-space cap a large allocation would die with a
    # MemoryError traceback (exit 1), not the usage exit code
    result = subprocess.run(
        [sys.executable, "-m", "cregcert.cli", "enumerate-designs", *argv],
        capture_output=True,
        text=True,
        preexec_fn=_limit_address_space,
        timeout=60,
    )
    assert result.returncode == 2
    assert reason in result.stderr


def test_analyze_refuses_a_scan_over_budget(workdir):
    # 2^24 vertices x 2 words is twice the scan budget; the scan would
    # also store 2^24 rows, so it must refuse before allocating
    path = workdir / "long24.txt"
    path.write_text("m=24\n" + "0" * 24 + "\n" + "1" * 24 + "\n")
    result = subprocess.run(
        [sys.executable, "-m", "cregcert.cli", "analyze", str(path)],
        capture_output=True,
        text=True,
        preexec_fn=_limit_address_space,
        timeout=60,
    )
    assert result.returncode == 2
    assert "scan budget" in result.stderr


def test_analyze_refuses_a_one_word_scan_over_budget(workdir):
    # one word is few vertex-word pairs, but the scan still holds
    # 2^24 x 25 distance fields, so the budget must refuse it
    path = workdir / "one24.txt"
    path.write_text("m=24\n" + "01" * 12 + "\n")
    result = subprocess.run(
        [sys.executable, "-m", "cregcert.cli", "analyze", str(path)],
        capture_output=True,
        text=True,
        preexec_fn=_limit_address_space,
        timeout=60,
    )
    assert result.returncode == 2
    assert "scan budget" in result.stderr


def test_analyze_admits_the_full_length_15_space(workdir):
    # 5.4e8 codeword pairs: the distribution is read from the one scan,
    # whose budget is the only size limit
    path = workdir / "full15.txt"
    path.write_text("m=15\n" + "".join(f"{v:015b}\n" for v in range(1 << 15)))
    result = subprocess.run(
        [sys.executable, "-m", "cregcert.cli", "analyze", str(path)],
        capture_output=True,
        text=True,
        preexec_fn=_limit_address_space,
        timeout=20,
    )
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    binomials = [str(comb(15, i)) for i in range(16)]
    assert f"distance distribution: {binomials}" in lines
    assert "covering radius:  0" in lines


def test_analyze_takes_only_an_ascii_header(workdir):
    # int() read m=+11 as 11, and analyze exited 0
    path = workdir / "signed_header.txt"
    path.write_text("m=+11\n00000000000\n")
    result = run_cli("analyze", str(path))
    assert result.returncode == 2
    assert "line 1" in result.stderr


# replays a report once per edit, each edit setting the field at a dotted
# path (list items by index) of a fresh copy to a JSON value, and prints
# each replay's results and its own seconds as JSON
_REPLAY_EDITED = """
import copy, json, sys, time
from cregcert.classify import verify_report
genuine = json.loads(open(sys.argv[1]).read())
replays = []
for dotted, value in json.loads(sys.argv[2]):
    report = copy.deepcopy(genuine)
    *keys, last = dotted.split(".")
    target = report
    for key in keys:
        target = target[int(key) if isinstance(target, list) else key]
    target[int(last) if isinstance(target, list) else last] = value
    started = time.perf_counter()
    results = verify_report(report)
    replays.append([results, time.perf_counter() - started])
print(json.dumps(replays))
"""


def _replay_edits(path, edits) -> list:
    result = subprocess.run(
        [sys.executable, "-c", _REPLAY_EDITED, str(path), json.dumps(edits)],
        capture_output=True,
        text=True,
        preexec_fn=_limit_address_space,
        timeout=20,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def _replay_edited(path, field: str, value) -> tuple[list, float]:
    (replay,) = _replay_edits(path, [(field, value)])
    return replay


@pytest.mark.parametrize("field", ["length", "min_distance"])
def test_replay_refuses_huge_parameters_before_reading(
    workdir, classify11_report, field
):
    # a length of 10^9 sent the design reader over 10^9 points, and a
    # min_distance of 10^9 sent the block count into the same range; each
    # replay must fail every step at once, under a 1 GiB address-space cap
    results, _ = _replay_edited(
        workdir / "report11.json", f"parameters.{field}", 10**9
    )
    assert len(results) == len(classify11_report["steps"])
    assert not any(ok for _, ok, _ in results)
    (detail,) = {detail for _, _, detail in results}
    assert detail.startswith("no classification chain for parameters")


@pytest.mark.parametrize("value", [10**9, -1, 2.5, "x", None, True])
def test_replay_of_a_tampered_size_bound_is_bounded(workdir, classify11_report, value):
    # the second weight class loops over its index up to a cap derived
    # from (m, delta), so no size bound can stretch the replay
    results, seconds = _replay_edited(workdir / "report11.json", "size_bound", value)
    assert results[0][:2] == ["classification/size-bound", False]
    assert seconds < 1.0


def test_replay_of_a_far_block_point_is_bounded(workdir, classify11_report):
    # a point is a shift count: 10^9 built a 125 MB mask, and took 2 s,
    # before the design check refused it
    anchor = "classification/design-uniqueness"
    i = [s["anchor"] for s in classify11_report["steps"]].index(anchor)
    results, seconds = _replay_edited(
        workdir / "report11.json", f"steps.{i}.witness.representative_blocks.0.0", 10**9
    )
    assert results[i][:2] == [anchor, False]
    assert "block point" in results[i][2]
    assert seconds < 1.0

# the values each edited leaf takes: wrong types, out-of-range numbers,
# empty containers
_EDIT_VALUES = [None, "x", -1, 10**9, 2.5, [], {}, True]


def _leaves(node, path=()):
    """(dotted path, value) of each leaf: every step, and the first three
    items of every other list."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node if path == ("steps",) else node[:3])
    else:
        yield ".".join(map(str, path)), node
        return
    for key, child in items:
        yield from _leaves(child, path + (key,))


def test_a_seeded_sample_of_leaf_edits_fails_a_step(workdir, classify11_report):
    # 24 of the report's leaf edits (no step reads runtime_seconds), in
    # one child under the address-space cap: no exception may escape the
    # replay, every edited report must fail a step, and each replay is bounded
    edits = [
        (path, value)
        for path, leaf in _leaves(classify11_report)
        if path != "runtime_seconds"
        for value in _EDIT_VALUES
        if json.dumps(value) != json.dumps(leaf)
    ]
    sample = random.Random(0).sample(edits, 24)
    replays = _replay_edits(workdir / "report11.json", sample)
    assert len(replays) == len(sample)
    for edit, (results, seconds) in zip(sample, replays):
        assert not all(ok for _, ok, _ in results), edit
        assert seconds < 2.0, edit


def test_aut_small_code(workdir):
    path = workdir / "rep3.txt"
    path.write_text("m=3\n000\n111\n")
    gen_path = workdir / "rep3.gens"
    result = run_cli("aut", str(path), "--out", str(gen_path))
    assert result.returncode == 0
    assert "order: 12" in result.stdout
    from cregcert.symmetry import parse_automorphism

    gens = [parse_automorphism(ln) for ln in gen_path.read_text().splitlines()]
    assert gens


def test_certify_ct_with_generator_file(workdir, code11_file, code11):
    from cregcert.symmetry import code_automorphism_group, format_automorphism

    group = code_automorphism_group(code11)
    gen_path = workdir / "c11.gens"
    gen_path.write_text(
        "".join(format_automorphism(g) + "\n" for g in group.generators)
    )
    result = run_cli(
        "certify", str(code11_file), "ct", "--generators", str(gen_path)
    )
    assert result.returncode == 0


def test_certify_ct_rejects_generators_of_another_degree(workdir, code12_file):
    gen_path = workdir / "degree11.gens"
    gen_path.write_text("00000000000|2 1 3 4 5 6 7 8 9 10 11\n")
    result = run_cli(
        "certify", str(code12_file), "ct", "--generators", str(gen_path)
    )
    assert result.returncode == 2
    assert "degree 11" in result.stderr


def test_certify_ct_takes_only_ascii_decimal_images(workdir, code11_file):
    # int() reads "+1" as 1, which made this the identity (exit 1, FAIL)
    gen_path = workdir / "signed.gens"
    gen_path.write_text("00000000000|+1 2 3 4 5 6 7 8 9 10 11\n")
    result = run_cli(
        "certify", str(code11_file), "ct", "--generators", str(gen_path)
    )
    assert result.returncode == 2
    assert "'+1'" in result.stderr


def test_certify_ct_takes_only_ascii_whitespace(workdir, code11_file):
    # str.split() read the ideographic space as a separator: the identity
    gen_path = workdir / "ideographic.gens"
    gen_path.write_text("00000000000|1\u30002 3 4 5 6 7 8 9 10 11\n", encoding="utf-8")
    result = run_cli(
        "certify", str(code11_file), "ct", "--generators", str(gen_path)
    )
    assert result.returncode == 2
    assert "'1\\u30002'" in result.stderr


def test_certify_ct_names_a_generator_that_moves_the_code(workdir, code12_file):
    # flipping coordinate 1 sends the zero word off the code; the text
    # names the generator and its stray image instead of empty partitions
    gen_path = workdir / "flip1.gens"
    gen_path.write_text("100000000000|1 2 3 4 5 6 7 8 9 10 11 12\n")
    result = run_cli(
        "certify", str(code12_file), "ct", "--generators", str(gen_path)
    )
    assert result.returncode == 1
    assert result.stdout.splitlines() == [
        "completely transitive: FAIL",
        "generator:   100000000000|1 2 3 4 5 6 7 8 9 10 11 12",
        "stray image: 100000000000",
    ]


def test_certify_ct_holds_the_generator_file_to_its_budget(workdir, code11_file):
    # the first line past the budget is refused before any line is parsed
    # (the malformed one leads); blank lines do not count, and a file at
    # the budget is certified: 64 identities move nothing, so FAIL
    from cregcert.symmetry import GENERATOR_BUDGET

    identity = "0" * 11 + "|" + " ".join(map(str, range(1, 12))) + "\n"
    cases = (
        ("not a generator\n" + identity * GENERATOR_BUDGET, 2),
        ((identity + "\n") * GENERATOR_BUDGET, 1),
    )
    for i, (text, exit_code) in enumerate(cases):
        gen_path = workdir / f"budget{i}.gens"
        gen_path.write_text(text)
        result = subprocess.run(
            [sys.executable, "-m", "cregcert.cli", "certify", str(code11_file), "ct"]
            + ["--generators", str(gen_path)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == exit_code, result.stderr
        if exit_code == 2:
            assert f"budget of {GENERATOR_BUDGET} generators" in result.stderr
        else:
            assert result.stdout.startswith("completely transitive: FAIL")


def test_usage_error_exit_code():
    result = run_cli("nonsense")
    assert result.returncode == 2


def test_certify_has_no_theorem_mode(workdir):
    # a (12, 2, 6) code that is not completely regular: a theorem mode
    # certified the reference code of the file's (m, delta) instead, and
    # passed; classify prints the theorem steps
    path = workdir / "two_words.txt"
    path.write_text("m=12\n000000000000\n111111000000\n")
    result = run_cli("certify", str(path), "theorem")
    assert result.returncode == 2
    assert "invalid choice: 'theorem'" in result.stderr
    result = run_cli("certify", str(path), "creg")
    assert result.returncode == 1
    assert result.stdout.startswith("completely regular: FAIL")


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "code12", "--report", "r.json"],
        ["enumerate-designs", "2", "7", "3", "1", "--report", "r.json"],
        ["aut", "{code}", "--report", "r.json"],
        ["analyze", "{code}", "--element-budget", "5"],
        ["classify", "11", "5", "--element-budget", "0"],
        ["certify", "{code}", "creg", "--generators", "gens.txt"],
        ["certify", "{code}", "creg", "--element-budget", "5"],
        ["aut", "{code}", "--element-budget", "5"],
        ["classify", "11", "5", "--element-budget", "5"],
        ["certify", "{code}", "ct", "--element-budget", "5"],
    ],
)
def test_an_option_the_command_does_not_read_is_a_usage_error(
    argv, code11_file, capsys
):
    from cregcert import cli

    args = [str(code11_file) if a == "{code}" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err


def test_aut_is_held_to_the_element_budget(workdir):
    # the repetition code's group has order 2 * 12!, so the stabilizer
    # search must stop at the budget, not reach the whole group
    path = workdir / "repetition12.txt"
    path.write_text("m=12\n" + "0" * 12 + "\n" + "1" * 12 + "\n")
    result = subprocess.run(
        [sys.executable, "-m", "cregcert.cli", "aut", str(path)],
        capture_output=True,
        text=True,
        preexec_fn=_limit_address_space,
        timeout=5,
    )
    assert result.returncode == 2
    assert "1000000" in result.stderr


def test_main_reuses_one_parser(workdir, code11_file, capsys):
    # successive in-process calls, different subcommands and failures among
    # them, answer as fresh processes do, and the parser is built once
    from cregcert import cli

    cli.build_parser.cache_clear()
    bad_gens = workdir / "reuse_degree11.gens"
    bad_gens.write_text("00000000000|2 1 3 4 5 6 7 8 9 10 11\n")
    codefile = str(code11_file)
    calls = [
        ["construct", "code11", "--out", "{out}"],
        ["analyze", codefile, "--report", "{out}"],
        ["certify", codefile, "creg"],
        ["enumerate-designs", "2", "7", "3", "1", "--out", "{out}"],
        ["analyze", str(workdir / "missing.txt")],
        ["nonsense"],
        ["certify", codefile, "ct", "--generators", str(bad_gens)],
        ["classify", "13", "6"],
        ["aut", codefile],
    ]
    for i, argv in enumerate(calls):
        outputs = []
        for side in ("fresh", "reused"):
            out = workdir / f"reuse_{side}_{i}.txt"
            args = [str(out) if a == "{out}" else a for a in argv]
            if side == "fresh":
                result = run_cli(*args)
                exit_code, stdout, stderr = result.returncode, result.stdout, result.stderr
            else:
                try:
                    exit_code = cli.main(args)
                except SystemExit as exc:  # argparse's usage error
                    exit_code = exc.code
                stdout, stderr = capsys.readouterr()
            written = out.read_text() if out.exists() else None
            outputs.append((exit_code, stdout, stderr, written))
        assert outputs[0] == outputs[1], argv
    assert cli.build_parser.cache_info().misses == 1


# SHA-256 of each command's text output, then its --report JSON, then its
# exit code, for the two reference codes and one fixed random code whose
# distance distribution has proper fractions (certify creg exits 1 on it).
# Outputs are part of the interface: a change to any byte needs an
# explicit schema bump.
PINNED_CLI_SHA256 = {
    "analyze code12": "67212ca3c4e7972920aa9999fb3d51cc6544eb541ff4424c3ce750d0a9474507",
    "analyze code11": "587e1769f8fe9d50f539a697051cf7d1d85fdf1470f57fe988aa2cac85911799",
    "analyze random12": "e7f4e940aa6b396aea696567e2879909bdb8c090c21e7b8fa0469df38d2f75db",
    "certify code12": "927be474090bf270e01c35aff85dce0d2e20dde6ffee38261e3808cc28d83663",
    "certify code11": "a25872ef6ac1e2db833d70553f11632581d304492db04ce524339a92720100bc",
    "certify random12": "14cd62f290ce8c71f69e731e242d0d1eb0fd2965774ff9ea0678ea34b0bcbb6f",
}


@pytest.mark.parametrize("case", sorted(PINNED_CLI_SHA256))
def test_analyze_and_certify_outputs_are_pinned(case, code12, code11, tmp_path):
    from cregcert import cli

    command, name = case.split()
    codes = {
        "code12": code12,
        "code11": code11,
        "random12": Code(12, random.Random(13).sample(range(1 << 12), 40)),
    }
    codefile, out, report = (tmp_path / f for f in ("code", "out", "report"))
    codefile.write_text(codes[name].to_text())
    argv = [command, str(codefile)] + (["creg"] if command == "certify" else [])
    exit_code = cli.main(argv + ["--out", str(out), "--report", str(report)])
    digest = hashlib.sha256(out.read_bytes() + report.read_bytes() + b"%d" % exit_code)
    assert digest.hexdigest() == PINNED_CLI_SHA256[case]

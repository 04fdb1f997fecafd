"""Command-line entry point.

Subcommands: construct, analyze, certify, classify, enumerate-designs,
aut.  All take ``--out``; analyze, certify and classify ``--report``.
Certify's options follow its mode.  Group orders are held to
``symmetry.ELEMENT_BUDGET``, group and equivalence searches to
``symmetry.MATCHER_BUDGET`` and code files to
``codes.WORD_LINE_BUDGET``; no option changes them.  Exit codes: 0 when
every certificate passes, 1 when a certificate fails, 2 for usage or
I/O errors and passed budgets.  Reports are deterministic given the
same inputs and configuration.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from itertools import islice

from .certs import SCHEMA
from .classify import build_report, certify_theorem, classify, reference_code, report_json
from .codes import Code
from .designs import check_t_design, enumerate_designs
from .hadamard import paley_hadamard_12
from .hamming import ASCII_SPACE
from .regularity import certify_completely_regular, certify_completely_transitive
from .spectral import certify_uniformly_packed, external_distance, macwilliams_transform
from .symmetry import (
    GENERATOR_BUDGET,
    GroupHandle,
    ResourceBudgetError,
    code_automorphism_group,
    format_automorphism,
    parse_automorphism,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_code(path: str) -> Code:
    # read line by line, each line ending at "\n" only
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        return Code.from_lines(fh)


_OPTIONS = {
    "--out": {"help": "output file (default: standard output)"},
    "--report": {"help": "write a JSON report to this path"},
}


def _add_options(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(name, **_OPTIONS[name])


def cmd_construct(args) -> int:
    if args.target == "hadamard12":
        _write_output(paley_hadamard_12().to_text(), args.out)
        return EXIT_OK
    code = reference_code(12, 6) if args.target == "code12" else reference_code(11, 5)
    header = (
        f"# ({code.length},{code.size},{code.min_distance}) "
        f"{'Hadamard 12 code' if args.target == 'code12' else 'punctured Hadamard 12 code'}\n"
    )
    _write_output(header + code.to_text(), args.out)
    return EXIT_OK


def _analysis_payload(code: Code) -> dict:
    dist = code.distance_distribution
    aprime = macwilliams_transform(dist)
    packed = certify_uniformly_packed(code)
    payload = {
        "schema": SCHEMA,
        "kind": "analysis",
        "length": code.length,
        "size": code.size,
        "min_distance": code.min_distance if code.size >= 2 else None,
        "covering_radius": code.covering_radius,
        "distance_distribution": [str(v) for v in dist],
        "macwilliams_transform": [str(v) for v in aprime],
        "external_distance": external_distance(aprime),
        "uniformly_packed": packed.satisfied,
        "packing_weights": [str(v) for v in packed.lambdas]
        if packed.lambdas
        else None,
        "packing_note": packed.note,
        "antipodal": code.is_antipodal(),
        "cell_sizes": list(code.distance_partition().cell_sizes()),
        "weight_classes": {},
    }
    if code.size >= 2:
        t = code.min_distance // 2
        for k in range(code.length + 1):
            wc = code.weight_class(k)
            if wc and 0 < k and t <= k:
                payload["weight_classes"][str(k)] = {
                    "size": len(wc),
                    "strength": t,
                    "index": check_t_design(wc, code.length, t)[0],
                }
        if all(w.bit_count() % 2 == 0 for w in code.words):
            # consistency note for even-weight codes: twice the external
            # distance less two against the minimum distance
            payload["even_weight_consistency"] = {
                "two_s_minus_two": 2 * payload["external_distance"] - 2,
                "min_distance": code.min_distance,
            }
    return payload


def cmd_analyze(args) -> int:
    code = _load_code(args.codefile)
    payload = _analysis_payload(code)
    lines = [
        f"length {payload['length']}, {payload['size']} codewords",
        f"minimum distance: {payload['min_distance']}",
        f"covering radius:  {payload['covering_radius']}",
        f"external distance: {payload['external_distance']}",
        f"antipodal: {payload['antipodal']}",
        f"uniformly packed (wide sense): {payload['uniformly_packed']}",
        f"distance distribution: {payload['distance_distribution']}",
        f"transform: {payload['macwilliams_transform']}",
        f"cell sizes: {payload['cell_sizes']}",
    ]
    for k, info in payload["weight_classes"].items():
        lines.append(
            f"weight-{k} class: {info['size']} words, "
            f"{info['strength']}-design index {info['index']}"
        )
    _write_output("\n".join(lines) + "\n", args.out)
    if args.report:
        _write_output(report_json(payload), args.report)
    return EXIT_OK


def cmd_certify(args) -> int:
    code = _load_code(args.codefile)
    if args.which == "creg":
        result = certify_completely_regular(code)
        cert = result.to_certificate(code)
        lines = [f"completely regular: {cert.verdict}"]
        if result.completely_regular:
            lines.append(f"covering radius: {result.covering_radius}")
            lines.append("intersection table (cells x radii):")
            for i, row in enumerate(result.intersection_table):
                lines.append(f"  cell {i}: {list(row)}")
        else:
            lines.append(f"counterexample: {cert.witness}")
        certs = [cert]
    else:  # ct
        if args.generators:
            # one past the budget, so an oversized file is refused unparsed
            with open(args.generators, "r", encoding="utf-8") as fh:
                listed = (ln for ln in fh if ln.strip(ASCII_SPACE))
                lines = list(islice(listed, GENERATOR_BUDGET + 1))
            if len(lines) > GENERATOR_BUDGET:
                raise ResourceBudgetError(
                    f"the file lists more than the budget of {GENERATOR_BUDGET} "
                    "generators"
                )
            gens = tuple(parse_automorphism(ln) for ln in lines)
            group = GroupHandle(code.length, gens)
        else:
            group = code_automorphism_group(code)
        cert = certify_completely_transitive(code, group)
        lines = [f"completely transitive: {cert.verdict}"]
        if "stray_image" in cert.witness:  # a generator moves the code
            lines.append(f"generator:   {cert.witness['generator']}")
            lines.append(f"stray image: {cert.witness['stray_image']}")
        else:
            lines.append(f"orbit sizes: {cert.witness['orbit_sizes']}")
            lines.append(f"cell sizes:  {cert.witness['cell_sizes']}")
        certs = [cert]
    _write_output("\n".join(lines) + "\n", args.out)
    if args.report:
        payload = {
            "schema": SCHEMA,
            "kind": f"certify-{args.which}",
            "steps": [c.to_dict() for c in certs],
        }
        _write_output(report_json(payload), args.report)
    return EXIT_OK if all(c.passed for c in certs) else EXIT_FAIL


def cmd_classify(args) -> int:
    started = time.monotonic()
    run = classify(args.length, args.min_distance, args.size_bound)
    theorem = certify_theorem(args.length, args.min_distance) if run.passed else []
    runtime = round(time.monotonic() - started, 3)
    report = build_report(run, theorem, runtime_seconds=runtime)
    lines = [f"{c['anchor']}: {c['verdict']}" for c in report["steps"]]
    lines.append(f"verdict: {report['verdict']}")
    if run.sigma:
        lines.append(f"sigma: {list(run.sigma)}")
    _write_output("\n".join(lines) + "\n", args.out)
    if args.report:
        _write_output(report_json(report), args.report)
    ok = run.passed and all(c.passed for c in theorem)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_enumerate_designs(args) -> int:
    classes = enumerate_designs(args.t, args.m, args.k, args.lam)
    lines = [f"{len(classes)} isomorphism class(es)"]
    out_text = []
    for d in classes:
        out_text.append(d.to_text())
        lines.extend("  " + " ".join(map(str, pts)) for pts in d.block_point_lists())
    _write_output("\n".join(lines) + "\n", None)
    if args.out:
        _write_output("".join(out_text), args.out)
    return EXIT_OK


def cmd_aut(args) -> int:
    code = _load_code(args.codefile)
    group = code_automorphism_group(code)
    lines = [
        f"order: {group.order}",
        f"generators: {len(group.generators)}",
    ]
    _write_output("\n".join(lines) + "\n", None)
    gen_text = "".join(format_automorphism(g) + "\n" for g in group.generators)
    if args.out:
        _write_output(gen_text, args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One parser per process, built at the first ``main`` call rather than
    at import, so it binds the ``cmd_*`` handlers the module holds then."""
    parser = argparse.ArgumentParser(
        prog="cregcert",
        description=(
            "construct, analyze, and certify the completely regular codes "
            "of lengths 12 and 11"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="write the reference matrix or codes")
    p.add_argument("target", choices=["hadamard12", "code12", "code11"])
    _add_options(p, "--out")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("analyze", help="parameters and transforms of a code file")
    p.add_argument("codefile")
    _add_options(p, "--out", "--report")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("certify", help="run a certifier against a code file")
    p.add_argument("codefile")
    which = p.add_subparsers(dest="which", required=True)
    _add_options(which.add_parser("creg"), "--out", "--report")
    q = which.add_parser("ct")
    q.add_argument("--generators", help="generator file for the ct certifier")
    _add_options(q, "--out", "--report")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("classify", help="replay the uniqueness classification")
    p.add_argument("length", type=int)
    p.add_argument("min_distance", type=int)
    p.add_argument("--size-bound", type=int, default=None)
    _add_options(p, "--out", "--report")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("enumerate-designs", help="isomorph-free design enumeration")
    p.add_argument("t", type=int)
    p.add_argument("m", type=int)
    p.add_argument("k", type=int)
    p.add_argument("lam", type=int, metavar="lambda")
    _add_options(p, "--out")
    p.set_defaults(func=cmd_enumerate_designs)

    p = sub.add_parser("aut", help="automorphism group of a code file")
    p.add_argument("codefile")
    _add_options(p, "--out")
    p.set_defaults(func=cmd_aut)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # a malformed code file raises CodeFormatError, a ValueError
    except (OSError, ValueError, ResourceBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

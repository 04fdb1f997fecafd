"""Per-layer metrics from the spans of one traced iteration.

A span's self time is its duration minus the time its child spans
cover; a ``_s`` metric sums the self time of the named function's
spans, so time spent in another traced function is charged there.
Spans opened by the benchmark itself (``bench.<label>``) tag the calls
made under them, which separates, say, the (12, 6) replay from the
(11, 5) one inside a single child process.
"""

from __future__ import annotations

from collections import Counter

LAYERS = ("cli", "classify", "designs", "symmetry", "regularity", "codes", "spectral")

# (metric, unit, better); the order is the order of BENCHMARK.json
PER_LAYER = (
    ("designs.enumerate_s", "s", "lower"),
    ("designs.enumerate_calls", "count", "lower"),
    ("designs.canon_calls", "count", "lower"),
    ("designs.canon_s", "s", "lower"),
    ("designs.canon_accept_ratio", "ratio", "higher"),
    ("designs.canon_undecided", "count", "lower"),
    ("symmetry.closure_s", "s", "lower"),
    ("symmetry.closure_calls", "count", "lower"),
    ("symmetry.closure_elements", "count", "lower"),
    ("symmetry.compose_calls", "count", "lower"),
    ("symmetry.compose_yield", "ratio", "higher"),
    ("symmetry.aut_group_s", "s", "lower"),
    ("symmetry.stabilizer_s", "s", "lower"),
    ("symmetry.stabilizer_elements", "count", "lower"),
    ("symmetry.family_iso_calls", "count", "lower"),
    ("symmetry.family_iso_s", "s", "lower"),
    ("symmetry.orbits_s", "s", "lower"),
    ("symmetry.orbits_calls", "count", "lower"),
    ("regularity.ct_s", "s", "lower"),
    ("regularity.creg_s", "s", "lower"),
    ("regularity.creg_calls", "count", "lower"),
    ("regularity.outer_distribution_calls", "count", "lower"),
    ("regularity.vertices_scanned", "count", "lower"),
    ("codes.distance_to_calls", "count", "lower"),
    ("codes.distance_to_s", "s", "lower"),
    ("spectral.packing_s", "s", "lower"),
    ("spectral.packing_calls", "count", "lower"),
    ("spectral.packing_rows", "count", "lower"),
    ("classify.chain_s", "s", "lower"),
    ("classify.theorem_s", "s", "lower"),
    ("classify.replay12_s", "s", "lower"),
    ("classify.replay11_s", "s", "lower"),
    ("classify.replay_tampered_s", "s", "lower"),
    ("classify.replay_failed_steps", "count", "higher"),
    ("cli.classify12_s", "s", "lower"),
    ("cli.classify11_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("cli.analyze_s", "s", "lower"),
    ("cli.certify_creg_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
) + tuple((f"layer.{layer}_s", "s", "lower") for layer in LAYERS)

# which end-to-end metric each layer metric should move, on which workload
PREDICTIONS = (
    ("designs.*", "wall_s and cpu_s on classify; no change on replay or analyze"),
    (
        "symmetry.closure_*, symmetry.compose_*",
        "wall_s and peak_rss_mb on replay (dominant) and on classify (about a third); "
        "no change on analyze",
    ),
    (
        "symmetry.aut_group_s, symmetry.stabilizer_*, symmetry.family_iso_*",
        "wall_s on classify only",
    ),
    (
        "symmetry.orbits_*, regularity.ct_s",
        "wall_s on classify and replay, by a few percent",
    ),
    (
        "regularity.creg_*, regularity.outer_distribution_calls, "
        "regularity.vertices_scanned (computed as 2^m per call), codes.*, spectral.*",
        "ops_per_s (codes per second) and wall_s on analyze; each is under 1% of "
        "classify and replay, so no change there",
    ),
    (
        "classify.chain_s, classify.theorem_s, cli.classify12_s, cli.classify11_s, "
        "cli.report_bytes",
        "wall_s on classify",
    ),
    ("classify.replay*", "wall_s on replay"),
    ("cli.analyze_s, cli.certify_creg_s", "wall_s and ops_per_s on analyze"),
    ("trace.overhead_ratio", "none: traced wall time over untraced wall time"),
    ("layer.<module>_s", "each layer's self time; its share of wall_s per workload"),
)

# spans that must have fired under the given ancestor, and counters that
# must be nonzero; a miss means an import site was not wrapped
COVERAGE = {
    "classify": (
        (
            ("classify.classify", "cli.main"),
            ("designs.enumerate_designs", "classify.classify"),
            ("designs.blocks_are_canonical", "designs.enumerate_designs"),
            ("symmetry.find_equivalence", "classify.classify"),
            ("symmetry.code_automorphism_group", "classify.certify_theorem"),
            ("symmetry.setwise_stabilizer_perms", "symmetry.code_automorphism_group"),
            ("symmetry.find_family_isomorphism", "symmetry.code_automorphism_group"),
            ("symmetry.closure", "symmetry.code_automorphism_group"),
            ("regularity.certify_completely_regular", "classify.certify_theorem"),
            ("symmetry.orbits", "regularity.certify_completely_transitive"),
        ),
        ("symmetry.compose", "regularity.outer_distribution"),
    ),
    "replay": (
        (
            ("classify.verify_report", "bench.report12"),
            ("classify.verify_report", "bench.tampered"),
            ("symmetry.closure", "classify.verify_report"),
            ("regularity.certify_completely_regular", "classify.verify_report"),
            ("regularity.certify_completely_transitive", "classify.verify_report"),
            ("symmetry.orbits", "regularity.certify_completely_transitive"),
        ),
        ("symmetry.compose", "regularity.outer_distribution"),
    ),
    "analyze": (
        (
            ("cli.cmd_analyze", "cli.main"),
            ("spectral.certify_uniformly_packed", "cli.main"),
            ("codes._cells", "cli.cmd_analyze"),
            ("regularity.certify_completely_regular", "cli.cmd_certify"),
        ),
        ("codes.distance_to", "regularity.outer_distribution"),
    ),
}


class Profile:
    """The spans and counters of every child of one traced iteration."""

    def __init__(self, traces: list[dict]) -> None:
        self.rows: list[tuple[str, float, str | None]] = []  # name, self, marker
        self.edges: set[tuple[str, str]] = set()  # (span, ancestor)
        self.counts: Counter = Counter()
        self.extras: Counter = Counter()
        self.cache_hits = 0
        for trace in traces:
            self._add(trace)

    def _add(self, trace: dict) -> None:
        spans = trace["spans"]
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        markers: list[str | None] = []
        ancestors: list[frozenset] = []
        for i, (name, start, end, parent) in enumerate(spans):
            # parents are recorded before their children
            above = ancestors[parent] | {spans[parent][0]} if parent >= 0 else frozenset()
            ancestors.append(above)
            inherited = markers[parent] if parent >= 0 else None
            markers.append(name if name.startswith("bench.") else inherited)
            self.rows.append((name, end - start - covered[i], markers[i]))
            self.edges.update((name, a) for a in above)
        self.counts.update(trace["counts"])
        self.extras.update(trace["extras"])
        self.cache_hits += trace["enumerate_cache_hits"]

    def self_s(self, name: str | None = None, *, layer: str | None = None, marker: str | None = None) -> float:
        prefix = None if layer is None else layer + "."
        return sum(
            s
            for n, s, mk in self.rows
            if (name is None or n == name)
            and (prefix is None or n.startswith(prefix))
            and (marker is None or mk == marker)
        )

    def calls(self, name: str) -> int:
        return sum(1 for n, _, _ in self.rows if n == name)

    def coverage_misses(self, workload: str) -> list[str]:
        edges, counters = COVERAGE[workload]
        misses = [f"{span} under {above}" for span, above in edges if (span, above) not in self.edges]
        misses += [f"counter {name}" for name in counters if not self.counts[name]]
        if self.cache_hits:
            misses.append(f"enumerate_designs served {self.cache_hits} cache hits")
        return misses


def per_layer_values(p: Profile, facts: dict) -> dict[str, float]:
    """Every PER_LAYER metric; ``facts`` carries the ones the workload
    observes itself (overhead ratio, report bytes, failed replay steps)."""
    ex, ct = p.extras, p.counts
    canon = p.calls("designs.blocks_are_canonical")
    compose = ct["symmetry.compose"]
    values = {
        "designs.enumerate_s": p.self_s("designs.enumerate_designs"),
        "designs.enumerate_calls": p.calls("designs.enumerate_designs"),
        "designs.canon_calls": canon,
        "designs.canon_s": p.self_s("designs.blocks_are_canonical"),
        "designs.canon_accept_ratio": (
            (ex["canon_true"] + ex["canon_undecided"]) / canon if canon else 0.0
        ),
        "designs.canon_undecided": ex["canon_undecided"],
        "symmetry.closure_s": p.self_s("symmetry.closure"),
        "symmetry.closure_calls": p.calls("symmetry.closure"),
        "symmetry.closure_elements": ex["closure_elements"],
        "symmetry.compose_calls": compose,
        "symmetry.compose_yield": ex["closure_elements"] / compose if compose else 0.0,
        "symmetry.aut_group_s": p.self_s("symmetry.code_automorphism_group"),
        "symmetry.stabilizer_s": p.self_s("symmetry.setwise_stabilizer_perms"),
        "symmetry.stabilizer_elements": ex["stabilizer_elements"],
        "symmetry.family_iso_calls": p.calls("symmetry.find_family_isomorphism"),
        "symmetry.family_iso_s": p.self_s("symmetry.find_family_isomorphism"),
        "symmetry.orbits_s": p.self_s("symmetry.orbits") + p.self_s("symmetry.orbit_of"),
        "symmetry.orbits_calls": p.calls("symmetry.orbits"),
        "regularity.ct_s": p.self_s("regularity.certify_completely_transitive"),
        "regularity.creg_s": p.self_s("regularity.certify_completely_regular"),
        "regularity.creg_calls": p.calls("regularity.certify_completely_regular"),
        "regularity.outer_distribution_calls": ct["regularity.outer_distribution"],
        "regularity.vertices_scanned": ex["vertices_scanned"],
        "codes.distance_to_calls": ct["codes.distance_to"],
        "codes.distance_to_s": p.self_s("codes._cells"),
        "spectral.packing_s": p.self_s("spectral.certify_uniformly_packed"),
        "spectral.packing_calls": p.calls("spectral.certify_uniformly_packed"),
        "spectral.packing_rows": ex["packing_rows"],
        "classify.chain_s": p.self_s("classify.classify"),
        "classify.theorem_s": p.self_s("classify.certify_theorem"),
        "classify.replay12_s": p.self_s("classify.verify_report", marker="bench.report12"),
        "classify.replay11_s": p.self_s("classify.verify_report", marker="bench.report11"),
        "classify.replay_tampered_s": p.self_s("classify.verify_report", marker="bench.tampered"),
        "classify.replay_failed_steps": facts.get("classify.replay_failed_steps", 0),
        "cli.classify12_s": p.self_s(layer="cli", marker="bench.classify12"),
        "cli.classify11_s": p.self_s(layer="cli", marker="bench.classify11"),
        "cli.report_bytes": facts.get("cli.report_bytes", 0),
        "cli.analyze_s": p.self_s(layer="cli", marker="bench.analyze"),
        "cli.certify_creg_s": p.self_s(layer="cli", marker="bench.certify"),
        "trace.overhead_ratio": facts["trace.overhead_ratio"],
    }
    for layer in LAYERS:
        values[f"layer.{layer}_s"] = p.self_s(layer=layer)
    return values

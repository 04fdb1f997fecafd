"""Spans and counters around calls into cregcert, recorded from outside.

``Tracer.install`` replaces each traced public function with a wrapper
at every loaded ``cregcert`` module that holds a reference to it, so a
call through any import site (``closure`` in both ``symmetry`` and
``classify``, ``orbits`` in ``regularity``) is seen.  A span is
``[name, start, end, parent]`` with the parent given as an index into
the span list; spans stay in memory until ``dump``.  Functions called
around 10^5 times or more per iteration get a call counter and no span.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, function): one span per call, named "<layer>.<function>"
SPAN_TARGETS = (
    ("cregcert.cli", "main"),
    ("cregcert.cli", "cmd_classify"),
    ("cregcert.cli", "cmd_analyze"),
    ("cregcert.cli", "cmd_certify"),
    ("cregcert.classify", "classify"),
    ("cregcert.classify", "certify_theorem"),
    ("cregcert.classify", "verify_report"),
    ("cregcert.designs", "enumerate_designs"),
    ("cregcert.designs", "blocks_are_canonical"),
    ("cregcert.symmetry", "closure"),
    ("cregcert.symmetry", "code_automorphism_group"),
    ("cregcert.symmetry", "setwise_stabilizer_perms"),
    ("cregcert.symmetry", "find_family_isomorphism"),
    ("cregcert.symmetry", "find_equivalence"),
    ("cregcert.symmetry", "orbits"),
    ("cregcert.symmetry", "orbit_of"),
    ("cregcert.regularity", "certify_completely_regular"),
    ("cregcert.regularity", "certify_completely_transitive"),
    ("cregcert.spectral", "certify_uniformly_packed"),
)

# (module, function): counted only; 5.1M compose calls in one (12, 6) replay
COUNT_TARGETS = (
    ("cregcert.symmetry", "compose"),
    ("cregcert.regularity", "outer_distribution"),
)


def _canon_outcome(extras: Counter, result) -> None:
    key = {True: "canon_true", False: "canon_false", None: "canon_undecided"}[result]
    extras[key] += 1


# work counters read off return values: name -> (extras, result) -> None
RESULT_HOOKS = {
    "designs.blocks_are_canonical": _canon_outcome,
    "symmetry.closure": lambda ex, r: ex.update(closure_elements=r.order),
    "symmetry.setwise_stabilizer_perms": lambda ex, r: ex.update(
        stabilizer_elements=r.order
    ),
    "spectral.certify_uniformly_packed": lambda ex, r: ex.update(
        packing_rows=len(r.rows)
    ),
    # computed, not observed: one outer distribution visits all 2^m vertices
    "regularity.outer_distribution": lambda ex, r: ex.update(
        vertices_scanned=1 << r.length
    ),
}


def span_name(module: str, function: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{function}"


class TracerCoverageError(RuntimeError):
    """An expected span or counter never fired: an import site was missed."""


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.extras: Counter = Counter()
        self.sites: list[str] = []
        self.originals: dict[str, object] = {}

    # ---- wrappers -------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = RESULT_HOOKS.get(name)
        extras = self.extras

        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if hook is not None:
                hook(extras, result)
            return result

        return traced

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        hook = RESULT_HOOKS.get(name)
        extras = self.extras
        if hook is None:

            def counted(*args):
                counts[name] += 1
                return fn(*args)

        else:

            def counted(*args):
                counts[name] += 1
                result = fn(*args)
                hook(extras, result)
                return result

        return counted

    @contextmanager
    def mark(self, label: str):
        """A span of the benchmark's own, tagging the calls made inside."""
        record = ["bench." + label, time.perf_counter(), 0.0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    # ---- installation ---------------------------------------------------

    def _rebind(self, modules, module: str, function: str, make) -> None:
        name = span_name(module, function)
        original = getattr(sys.modules[module], function)
        wrapper = make(name, original)
        self.originals[name] = original
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self.sites.append(f"{mod.__name__}.{attr}")

    def install(self) -> "Tracer":
        import cregcert.cli  # noqa: F401  (loads every traced module)

        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if key == "cregcert" or key.startswith("cregcert.")
        ]
        for module, function in SPAN_TARGETS:
            self._rebind(modules, module, function, self._span_wrapper)
        for module, function in COUNT_TARGETS:
            self._rebind(modules, module, function, self._count_wrapper)

        code_cls = sys.modules["cregcert.codes"].Code
        code_cls.distance_to = self._count_wrapper(
            "codes.distance_to", code_cls.distance_to
        )
        self.sites.append("cregcert.codes.Code.distance_to")
        # the 2^m distance_to scan behind covering radius and partition
        cells = code_cls.__dict__["_cells"]
        cells.func = self._span_wrapper("codes._cells", cells.func)
        self.sites.append("cregcert.codes.Code._cells")
        return self

    # ---- output ---------------------------------------------------------

    def enumerate_cache_hits(self) -> int:
        return self.originals["designs.enumerate_designs"].cache_info().hits

    def dump(self, path: str) -> None:
        payload = {
            "spans": self.spans,
            "counts": dict(self.counts),
            "extras": dict(self.extras),
            "sites": self.sites,
            "enumerate_cache_hits": self.enumerate_cache_hits(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

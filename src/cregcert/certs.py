"""Structured verdicts shared by all certifiers.

A Certificate is a claim, a stable anchor identifying the kind of check,
a witness payload rich enough to re-verify the claim without repeating
the search that produced it, and a PASS/FAIL verdict.  Witness payloads
are built from JSON-ready values only (ints, strings, lists, dicts) so
reports serialize deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

SCHEMA = "creg-cert/1"

PASS = "PASS"
FAIL = "FAIL"


class ResourceBudgetError(RuntimeError):
    """A scan, closure or search exceeded its budget."""


@dataclass(frozen=True)
class Certificate:
    claim: str
    anchor: str
    witness: dict
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "anchor": self.anchor,
            "witness": self.witness,
            "verdict": self.verdict,
        }


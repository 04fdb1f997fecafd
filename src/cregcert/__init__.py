"""Exact verification toolkit for completely regular binary codes.

Builds the Hadamard 12 code and its punctured companion, certifies their
combinatorial structure (regularity, transitivity, designs, symmetry
groups) with exhaustive exact computations, and replays the uniqueness
classification for lengths 12 and 11 as a chain of checkable certificates.

A word of length m is an int bitmask with coordinate i at bit i-1;
``hamming.format_mask`` and ``hamming.parse_mask`` give its text form.
"""

__version__ = "0.1.0"

from .codes import Code
from .hadamard import HadamardMatrix, paley_hadamard_12, code_of

__all__ = [
    "Code",
    "HadamardMatrix",
    "paley_hadamard_12",
    "code_of",
]

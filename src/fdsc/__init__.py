"""One-layer commuting-CX circuit synthesis and verification for CSS codes."""

from .css import CssCode, Supports, build_ghz, build_haah, build_toric, build_xcube
from .gf2 import BitMatrix
from .synth import FdscCircuit, SubsetS, synthesize
from .verify import verify_circuit

__all__ = [
    "BitMatrix", "CssCode", "FdscCircuit", "SubsetS", "Supports",
    "build_ghz", "build_haah", "build_toric", "build_xcube",
    "synthesize", "verify_circuit",
]

__version__ = "0.1.0"

"""Exact combinatorics of the symplectic fillings of lens spaces.

The minimal symplectic fillings of L(p, q) with its standard contact
structure are indexed by the admissible zero continued fractions bounded
by the expansion of p/(p-q); this package computes that indexing and all
the supporting invariants (continued-fraction calculus, spin structures
and plane-field invariants, rotation numbers, and integer-lattice
cross-checks of the structure theory) with exact arbitrary-precision
arithmetic throughout.

Each module declares its public names in its own ``__all__``; the package
re-exports those lists, plus ``build_report`` and ``__version__``.
"""

from .cfrac import *
from .exact import *
from .fillings import *
from .homology import *
from .lattice import *
from .report import build_report

__version__ = "0.1.0"

__all__ = [
    *cfrac.__all__,
    *exact.__all__,
    *fillings.__all__,
    *homology.__all__,
    *lattice.__all__,
    "build_report",
    "__version__",
]

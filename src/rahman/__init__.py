"""Exact-arithmetic Rahman polynomials and the sl3 structure around them.

Everything is computed over the rationals with zero tolerance.  The
package evaluates the two-variable Rahman family P(a, b, c, d), builds
the two Cartan subalgebras and the bilinear form that explain its
duality, and mechanically verifies every identity tying them together:
orthogonality, adjointness, basis transitions, and the four seven-term
recurrences.
"""

from .params import DerivedParams, ParameterSet, ValidationError, derive, validate
from .polynomials import eval_P
from .report import Report
from .scalars import Rational, multinomial
from .sl3 import StructureSet, build
from .theorems import run_suites

__all__ = [
    "DerivedParams",
    "ParameterSet",
    "Rational",
    "Report",
    "StructureSet",
    "ValidationError",
    "build",
    "derive",
    "eval_P",
    "multinomial",
    "run_suites",
    "validate",
]

__version__ = "0.1.0"

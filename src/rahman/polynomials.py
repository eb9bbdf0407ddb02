"""The Rahman polynomial kernel P(a, b, c, d).

P is the four-fold shifted-factorial sum over i+j+k+l <= N with weights
t^i u^j v^k w^l.  It is evaluated three ways: at integer arguments, as
a bivariate polynomial in one argument pair, and with a commuting pair
of module operators substituted for one pair.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .matrices import Mat
from .params import DerivedParams
from .scalars import format_rational, pochhammer

__all__ = [
    "NonCommutingOperators",
    "BivariatePoly",
    "term_weights",
    "eval_P",
    "as_bivariate",
    "eval_P_operator",
]


class NonCommutingOperators(ValueError):
    """Raised when an operator argument pair fails to commute."""


def term_weights(d: DerivedParams, n: int):
    """Yield ((i, j, k, l), weight) for every term of the defining sum.

    weight = t^i u^j v^k w^l / (i! j! k! l! (-N)_{i+j+k+l}); the
    shifted-factorial arguments are supplied by the caller.
    """
    for i in range(n + 1):
        for j in range(n + 1 - i):
            for k in range(n + 1 - i - j):
                for l in range(n + 1 - i - j - k):
                    weight = (
                        d.t**i * d.u**j * d.v**k * d.w**l
                        / (
                            Fraction(
                                factorial(i) * factorial(j) * factorial(k) * factorial(l)
                            )
                            * pochhammer(-n, i + j + k + l)
                        )
                    )
                    yield (i, j, k, l), weight


def eval_P(a: int, b: int, c: int, d: int, derived: DerivedParams, n: int) -> Fraction:
    """Exact value of P at nonnegative integer arguments."""
    for name, value in (("a", a), ("b", b), ("c", c), ("d", d)):
        if value < 0:
            raise ValueError(f"argument {name} must be a nonnegative integer")
    total = Fraction(0)
    for (i, j, k, l), weight in term_weights(derived, n):
        factor = (
            pochhammer(-a, i + j)
            * pochhammer(-b, k + l)
            * pochhammer(-c, i + k)
            * pochhammer(-d, j + l)
        )
        if factor != 0:
            total += factor * weight
    return total


class BivariatePoly:
    """Sparse polynomial in one symbolic argument pair of P."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        self.coeffs = {
            key: Fraction(value) for key, value in coeffs.items() if value != 0
        }

    def __eq__(self, other):
        return isinstance(other, BivariatePoly) and self.coeffs == other.coeffs

    def evaluate(self, first, second) -> Fraction:
        first, second = Fraction(first), Fraction(second)
        return sum(
            (
                value * first**dc * second**dd
                for (dc, dd), value in self.coeffs.items()
            ),
            Fraction(0),
        )

    def to_json(self) -> list:
        keys = sorted(self.coeffs)
        return [
            {"powers": list(key), "coeff": format_rational(self.coeffs[key])}
            for key in keys
        ]

    def __repr__(self):
        return f"BivariatePoly({self.coeffs})"


def _poch_coeffs(n: int) -> list:
    """Coefficients of (-X)_n = (-X)(-X+1)...(-X+n-1) as a polynomial in X.

    Returned as a list indexed by the power of X.
    """
    coeffs = [Fraction(1)]
    for q in range(n):
        # multiply by (q - X)
        shifted = [Fraction(0)] + [-c for c in coeffs]
        coeffs = [q * c for c in coeffs] + [Fraction(0)]
        coeffs = [a + b for a, b in zip(coeffs, shifted)]
    return coeffs


def as_bivariate(
    m: int, n_arg: int, derived: DerivedParams, n: int, which_pair: str = "cd"
) -> BivariatePoly:
    """P with one argument pair fixed at (m, n_arg) and the other symbolic.

    ``which_pair`` names the symbolic pair: "cd" gives the polynomial
    P(m, n_arg, c, d) in c, d; "ab" gives P(a, b, m, n_arg) in a, b,
    which is the "cd" polynomial of the dual parameters.
    """
    if which_pair not in ("cd", "ab"):
        raise ValueError(f"unknown pair {which_pair!r}")
    if which_pair == "ab":
        derived = derived.dual()
    out: dict = {}
    for (i, j, k, l), weight in term_weights(derived, n):
        scalar = pochhammer(-m, i + j) * pochhammer(-n_arg, k + l)
        if scalar == 0:
            continue
        scalar *= weight
        for da, ca in enumerate(_poch_coeffs(i + k)):  # in c
            if ca == 0:
                continue
            for db, cb in enumerate(_poch_coeffs(j + l)):  # in d
                if cb == 0:
                    continue
                key = (da, db)
                out[key] = out.get(key, Fraction(0)) + scalar * ca * cb
    return BivariatePoly(out)


def _operator_pochhammer(op: Mat, n: int) -> Mat:
    """(-C)(-C+I)...(-C+(n-1)I), computed left to right."""
    dim = op.nrows
    result = Mat.identity(dim)
    for q in range(n):
        result = result @ (Mat.identity(dim).scale(q) - op)
    return result


def eval_P_operator(
    int_pair: tuple,
    op_pair: tuple,
    derived: DerivedParams,
    n: int,
    slot: str = "back",
) -> Mat:
    """P with one argument pair replaced by commuting operators.

    slot="back" computes P(s, t, C, D) with (s, t) = int_pair and
    (C, D) = op_pair; slot="front" computes P(C, D, s, t), which is the
    "back" value of the dual parameters.  Shifted factorials of
    operators replace the corresponding scalar ones.
    """
    if slot not in ("front", "back"):
        raise ValueError(f"unknown slot {slot!r}")
    if slot == "front":
        derived = derived.dual()
    s_arg, t_arg = int_pair
    c_op, d_op = op_pair
    if c_op @ d_op != d_op @ c_op:
        raise NonCommutingOperators("operator pair does not commute")

    dim = c_op.nrows
    total = Mat.zero(dim)
    poch_cache: dict = {}

    def op_poch(which: str, op: Mat, order: int) -> Mat:
        if (which, order) not in poch_cache:
            poch_cache[which, order] = _operator_pochhammer(op, order)
        return poch_cache[which, order]

    for (i, j, k, l), weight in term_weights(derived, n):
        scalar = pochhammer(-s_arg, i + j) * pochhammer(-t_arg, k + l)
        if scalar == 0:
            continue
        operator = op_poch("c", c_op, i + k) @ op_poch("d", d_op, j + l)
        total = total + operator.scale(scalar * weight)
    return total

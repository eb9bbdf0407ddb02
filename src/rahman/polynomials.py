"""The Rahman polynomial kernel P(a, b, c, d).

P is the four-fold shifted-factorial sum

    P(a, b | c, d) = sum (-a)_{i+j} (-b)_{k+l} (-c)_{i+k} (-d)_{j+l}
                     t^i u^j v^k w^l / (i! j! k! l! (-N)_{i+j+k+l})

over i+j+k+l <= N.  It is evaluated three ways: at integer arguments, as
a bivariate polynomial in one argument pair, and with a commuting pair
of module operators substituted for one pair.

At integer arguments on the lattice (a+b <= N, c+d <= N) a term is
nonzero only inside the box i+j <= a, k+l <= b, i+k <= c, j+l <= d,
since (-m)_q = 0 for q > m; the box already implies i+j+k+l <= N.
``eval_P`` sums that box only.  Its factors, and the weights of
``term_weights``, are read from O(N) prefix tables built once per call:
the shifted factorials (-a)_q .. (-d)_q, the scaled powers t^i/i!,
u^j/j!, v^k/k!, w^l/l!, and 1/(-N)_m.
"""

from __future__ import annotations

from fractions import Fraction

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


def _falling(m: int) -> list:
    """[(-m)_0, (-m)_1, ..., (-m)_m]; (-m)_q is 0 for every q > m."""
    table = [1]
    for q in range(m):
        table.append(table[-1] * (q - m))
    return table


def _scaled_powers(x: Fraction, n: int) -> list:
    """[x^0/0!, x^1/1!, ..., x^n/n!]."""
    table = [Fraction(1)]
    for q in range(1, n + 1):
        table.append(table[-1] * x / q)
    return table


def _factor_tables(d: DerivedParams, n: int, top: tuple) -> tuple:
    """The per-index factors of the weight t^i u^j v^k w^l / (i! j! k! l! (-N)_m).

    Returns the scaled powers t^i/i!, u^j/j!, v^k/k!, w^l/l! and the
    inverses 1/(-N)_m, each as a list indexed by its exponent, up to the
    largest exponents ``top`` = (i, j, k, l, m); m must not exceed N.
    """
    top_i, top_j, top_k, top_l, top_m = top
    return (
        _scaled_powers(d.t, top_i),
        _scaled_powers(d.u, top_j),
        _scaled_powers(d.v, top_k),
        _scaled_powers(d.w, top_l),
        [Fraction(1, value) for value in _falling(n)[: top_m + 1]],
    )


def term_weights(d: DerivedParams, n: int):
    """Yield ((i, j, k, l), weight) for every term of the defining sum.

    weight = t^i u^j v^k w^l / (i! j! k! l! (-N)_{i+j+k+l}); the
    shifted-factorial arguments are supplied by the caller.
    """
    ts, us, vs, ws, inverse = _factor_tables(d, n, (n,) * 5)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            tu = ts[i] * us[j]
            for k in range(n + 1 - i - j):
                tuv = tu * vs[k]
                for l in range(n + 1 - i - j - k):
                    yield (i, j, k, l), tuv * ws[l] * inverse[i + j + k + l]


def eval_P(a: int, b: int, c: int, d: int, derived: DerivedParams, n: int) -> Fraction:
    """Exact value of P at a lattice point: a+b <= N and c+d <= N.

    Only the box i+j <= a, k+l <= b, i+k <= c, j+l <= d is summed; every
    other term has a vanishing shifted factorial.  Raises ValueError for
    a negative argument or N, and for arguments off the lattice.
    """
    for name, value in (("a", a), ("b", b), ("c", c), ("d", d)):
        if value < 0:
            raise ValueError(f"argument {name} must be a nonnegative integer")
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if a + b > n or c + d > n:
        raise ValueError(
            f"arguments off the lattice: need a+b <= N and c+d <= N (N={n})"
        )
    ts, us, vs, ws, inverse = _factor_tables(
        derived, n, (min(a, c), min(a, d), min(b, c), min(b, d), min(a + b, c + d))
    )
    fa, fb, fc, fd = _falling(a), _falling(b), _falling(c), _falling(d)
    total = Fraction(0)
    for i in range(min(a, c) + 1):
        for j in range(min(a - i, d) + 1):
            ij = fa[i + j] * ts[i] * us[j]
            for k in range(min(b, c - i) + 1):
                ijk = ij * fc[i + k] * vs[k]
                for l in range(min(b - k, d - j) + 1):
                    total += ijk * (fb[k + l] * fd[j + l]) * ws[l] * inverse[i + j + k + l]
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

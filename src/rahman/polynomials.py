"""The Rahman polynomial kernel P(a, b, c, d).

P is the four-fold shifted-factorial sum

    P(a, b | c, d) = sum (-a)_{i+j} (-b)_{k+l} (-c)_{i+k} (-d)_{j+l}
                     t^i u^j v^k w^l / (i! j! k! l! (-N)_{i+j+k+l})

over i+j+k+l <= N.  Grouping the terms by (p, q) = (i+k, j+l) gives one
coefficient table

    P(a, b | c, d) = sum A_pq (-c)_p (-d)_q,

and both evaluations read it: ``eval_P`` at integer c, d, and
``eval_P_operator`` with commuting module operators (C, D) for (c, d),
applied to one polynomial for many (a, b).  The other pair is the first
pair on the dual parameters, since P(a, b | c, d) is P(c, d | a, b) there.

At integer arguments on the lattice (a+b <= N, c+d <= N) a term is
nonzero only inside the box i+j <= a, k+l <= b, i+k <= c, j+l <= d,
since (-m)_q = 0 for q > m; the box already implies i+j+k+l <= N.
``_falling_coefficients`` sums that box only, reading its factors from
O(N) prefix tables built once per call.  Every table holds Python ints
over one denominator: the shifted factorials (-a)_q and (-b)_q (whole
numbers), the scaled powers x^q/q! for x = t, u, v, w as
x_n^q x_d^(top-q) top!/q! over x_d^top top!, and 1/(-N)_m as
(-N)_M/(-N)_m over (-N)_M.  So each term is an integer product, the
table A_pq is integers over the product of those denominators, and each
evaluation divides by it once: ``eval_P`` builds one Fraction per value,
and ``eval_P_operator`` reduces each image by one gcd.  The denominator
has the sign of (-N)_M, negative for odd M.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from operator import mul

from .params import DerivedParams
from .polymodule import Poly3, _require_degree, monomials

__all__ = [
    "NonCommutingOperators",
    "eval_P",
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


def _scaled_powers(x: Fraction, top: int) -> tuple:
    """(table, den) with x^q/q! = table[q] / den for q = 0, ..., top.

    For x = x_n/x_d, table[q] = x_n^q x_d^(top-q) top!/q! and
    den = x_d^top top!.
    """
    num, den = x.numerator, x.denominator
    top_factorial = factorial(top)
    table = [
        num**q * den ** (top - q) * (top_factorial // factorial(q))
        for q in range(top + 1)
    ]
    return table, den**top * top_factorial


def _check_lattice(n: int, *args: int) -> None:
    """Raise ValueError unless N and the arguments are nonnegative ints (not
    bools) and the pairs (a, b) and (c, d) each sum to at most N."""
    if any(isinstance(x, bool) or not isinstance(x, int) or x < 0 for x in args):
        raise ValueError("arguments must be nonnegative integers")
    _require_degree(n)
    if any(first + second > n for first, second in zip(args[::2], args[1::2])):
        raise ValueError(
            f"arguments off the lattice: need A+B <= N and C+D <= N (N={n})"
        )


def _falling_coefficients(
    a: int, b: int, derived: DerivedParams, n: int, top_c: int, top_d: int
) -> tuple:
    """(table, den) with P(a, b | c, d) = sum table[p][q] (-c)_p (-d)_q / den.

    table[p][q] is the integer numerator of A_pq.  Sums the box i+j <= a,
    k+l <= b, i+k <= top_c, j+l <= top_d once; the term (i, j, k, l) adds
    to A_{i+k, j+l}.  Coefficients with p > top_c or q > top_d are left
    out, so top = (c, d) suffices for integer c, d and top = (N, N) keeps
    every coefficient.

    Each factor is read from an integer prefix table over its own
    denominator: t^i/i!, u^j/j!, v^k/k!, w^l/l! from ``_scaled_powers``,
    and 1/(-N)_m as (-N)_M/(-N)_m over (-N)_M, with M the largest p+q.
    A term is (-a)_{i+j} t^i u^j, built once per (i, j), times
    (-b)_{k+l} v^k w^l, built once per (k, l); den is the product of the
    five denominators.
    """
    top_i, top_k = min(a, top_c), min(b, top_c)
    ts, t_den = _scaled_powers(derived.t, top_i)
    us, u_den = _scaled_powers(derived.u, min(a, top_d))
    vs, v_den = _scaled_powers(derived.v, top_k)
    ws, w_den = _scaled_powers(derived.w, min(b, top_d))
    top_m = min(a + b, top_c + top_d)
    falling_n = _falling(n)[: top_m + 1]
    inverse = [falling_n[top_m] // value for value in falling_n]
    fa, fb = _falling(a), _falling(b)
    front = [
        [fa[i + j] * ts[i] * us[j] for j in range(min(a - i, top_d) + 1)]
        for i in range(top_i + 1)
    ]
    back = [
        [fb[k + l] * vs[k] * ws[l] for l in range(min(b - k, top_d) + 1)]
        for k in range(top_k + 1)
    ]
    sums = [[0] * (top_m - p + 1) for p in range(min(top_i + top_k, top_c) + 1)]
    for i, front_row in enumerate(front):
        for j, x in enumerate(front_row):
            for k in range(min(top_k, top_c - i) + 1):
                row = sums[i + k]
                for q, y in enumerate(back[k][: top_d - j + 1], j):
                    row[q] += x * y
    table = [
        [value * inverse[p + q] for q, value in enumerate(row)]
        for p, row in enumerate(sums)
    ]
    return table, t_den * u_den * v_den * w_den * falling_n[top_m]


def eval_P(a: int, b: int, c: int, d: int, derived: DerivedParams, n: int) -> Fraction:
    """Exact value of P at a lattice point: a+b <= N and c+d <= N.

    Only the box i+j <= a, k+l <= b, i+k <= c, j+l <= d is summed; every
    other term has a vanishing shifted factorial.  The sum runs over the
    integers, and one Fraction is built at the end.  Raises ValueError
    unless N and the arguments are nonnegative ints on the lattice.
    """
    _check_lattice(n, a, b, c, d)
    table, den = _falling_coefficients(a, b, derived, n, c, d)
    fc, fd = _falling(c), _falling(d)
    total = sum(fc[p] * sum(map(mul, row, fd)) for p, row in enumerate(table))
    return Fraction(total, den)


def _falling_powers(op, vector: Poly3, top: int):
    """Yield (-op)_q v for q = 0, ..., top, by (-op)_{q+1} v = q w - op w
    with w = (-op)_q v."""
    w = vector
    yield w
    for q in range(top):
        w = w.scale(q) - op(w)
        yield w


def eval_P_operator(
    int_pairs: list, op_pair: tuple, vector: Poly3, derived: DerivedParams, n: int
) -> list:
    """[P(s, t | C, D) v for (s, t) in int_pairs], for a commuting pair (C, D).

    C and D map Poly3 to Poly3 on the degree-n module; CD = DC is checked
    once, on every monomial.  Each (-C)_p (-D)_q v with p+q <= max(s+t)
    is built once, and all of them are scaled to integers over one common
    denominator.  Each pair's image weights them by its integer table
    A_pq over the product of the two denominators, which ``Poly3._over``
    makes positive and reduces by one gcd.
    P(C, D | s, t) is this value on ``derived.dual()``.  Raises ValueError like
    ``eval_P``, and NonCommutingOperators unless CD = DC.
    """
    for s_arg, t_arg in int_pairs:
        _check_lattice(n, s_arg, t_arg)
    c_op, d_op = op_pair
    if any(c_op(d_op(m)) != d_op(c_op(m)) for m in monomials(n)):
        raise NonCommutingOperators("operator pair does not commute")

    top = max((s_arg + t_arg for s_arg, t_arg in int_pairs), default=0)
    powers = {}
    for q, d_power in enumerate(_falling_powers(d_op, vector, top)):
        for p, both in enumerate(_falling_powers(c_op, d_power, top - q)):
            powers[p, q] = both
    power_den = lcm(*(both.den for both in powers.values()))
    powers = {
        pq: [(key, x * (power_den // both.den)) for key, x in both.nums.items()]
        for pq, both in powers.items()
    }
    images = []
    for s_arg, t_arg in int_pairs:
        table, den = _falling_coefficients(s_arg, t_arg, derived, n, n, n)
        total: dict = {}
        for p, row in enumerate(table):
            for q, value in enumerate(row):
                if value:
                    for key, x in powers[p, q]:
                        total[key] = total.get(key, 0) + value * x
        images.append(Poly3._over(total, den * power_den, vector.degree))
    return images

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
O(N) prefix tables built once per call: the shifted factorials (-a)_q
and (-b)_q, the scaled powers t^i/i!, u^j/j!, v^k/k!, w^l/l!, and
1/(-N)_m.
"""

from __future__ import annotations

from fractions import Fraction

from .params import DerivedParams
from .polymodule import Poly3, lattice

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


def _scaled_powers(x: Fraction, n: int) -> list:
    """[x^0/0!, x^1/1!, ..., x^n/n!]."""
    table = [Fraction(1)]
    for q in range(1, n + 1):
        table.append(table[-1] * x / q)
    return table


def _check_lattice(n: int, *args: int) -> None:
    """Raise ValueError unless N >= 0 and the arguments, read as the pairs
    (a, b) and (c, d), are nonnegative with each pair summing to at most N."""
    if min(args) < 0:
        raise ValueError("arguments must be nonnegative integers")
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if any(first + second > n for first, second in zip(args[::2], args[1::2])):
        raise ValueError(
            f"arguments off the lattice: need A+B <= N and C+D <= N (N={n})"
        )


def _falling_coefficients(
    a: int, b: int, derived: DerivedParams, n: int, top_c: int, top_d: int
) -> dict:
    """{(p, q): A_pq} with P(a, b | c, d) = sum A_pq (-c)_p (-d)_q.

    Sums the box i+j <= a, k+l <= b, i+k <= top_c, j+l <= top_d once;
    the term (i, j, k, l) adds to A_{i+k, j+l}.  Coefficients with
    p > top_c or q > top_d are left out, so top = (c, d) suffices for
    integer c, d and top = (N, N) keeps every coefficient.
    """
    ts = _scaled_powers(derived.t, min(a, top_c))
    us = _scaled_powers(derived.u, min(a, top_d))
    vs = _scaled_powers(derived.v, min(b, top_c))
    ws = _scaled_powers(derived.w, min(b, top_d))
    top_m = min(a + b, top_c + top_d)
    inverse = [Fraction(1, value) for value in _falling(n)[: top_m + 1]]
    fa, fb = _falling(a), _falling(b)
    sums: dict = {}
    for i in range(min(a, top_c) + 1):
        for j in range(min(a - i, top_d) + 1):
            ij = fa[i + j] * ts[i] * us[j]
            for k in range(min(b, top_c - i) + 1):
                ijk = ij * vs[k]
                for l in range(min(b - k, top_d - j) + 1):
                    key = (i + k, j + l)
                    term = ijk * fb[k + l] * ws[l]
                    sums[key] = sums[key] + term if key in sums else term
    return {(p, q): value * inverse[p + q] for (p, q), value in sums.items()}


def eval_P(a: int, b: int, c: int, d: int, derived: DerivedParams, n: int) -> Fraction:
    """Exact value of P at a lattice point: a+b <= N and c+d <= N.

    Only the box i+j <= a, k+l <= b, i+k <= c, j+l <= d is summed; every
    other term has a vanishing shifted factorial.  Raises ValueError for
    a negative argument or N, and for arguments off the lattice.
    """
    _check_lattice(n, a, b, c, d)
    fc, fd = _falling(c), _falling(d)
    total = Fraction(0)
    for (p, q), value in _falling_coefficients(a, b, derived, n, c, d).items():
        total += value * (fc[p] * fd[q])
    return total


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
    is built once and weighted by every pair's table A_pq.  P(C, D | s, t)
    is this value on ``derived.dual()``.  Raises ValueError like
    ``eval_P``, and NonCommutingOperators unless CD = DC.
    """
    for s_arg, t_arg in int_pairs:
        _check_lattice(n, s_arg, t_arg)
    c_op, d_op = op_pair
    for point in lattice(n):
        m = Poly3.monomial(*point, kind=vector.kind)
        if c_op(d_op(m)) != d_op(c_op(m)):
            raise NonCommutingOperators("operator pair does not commute")

    top = max((s_arg + t_arg for s_arg, t_arg in int_pairs), default=0)
    powers = {}
    for q, d_power in enumerate(_falling_powers(d_op, vector, top)):
        for p, both in enumerate(_falling_powers(c_op, d_power, top - q)):
            powers[p, q] = both.coeffs
    images = []
    for s_arg, t_arg in int_pairs:
        total: dict = {}
        for (p, q), value in _falling_coefficients(s_arg, t_arg, derived, n, n, n).items():
            for key, x in powers[p, q].items():
                total[key] = total.get(key, 0) + value * x
        images.append(Poly3(total, vector.kind))
    return images

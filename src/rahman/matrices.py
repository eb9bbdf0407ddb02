"""Exact rational 3x3 matrices: the structural layer of sl3.

Every matrix here is 3x3 (U, W, W~, R, R^-1, the Cartan elements and the
matrix units); ``Mat(...)`` refuses any other shape.  Operators on the
degree-N module are applied by ``polymodule.action`` and never stored as
matrices.  A matrix is int row tuples ``nums`` over one int ``den`` > 0
with gcd(den, *nums) = 1, so equal matrices have equal (nums, den) and
zero has den 1.  Arithmetic is over the ints with one gcd per result
(``Mat._over``); the product and the commutator (``bracket``) are
straight-line integer expressions over the 9 + 9 numerators, with no loop
and no zero test.  ``rows``, ``m[i, j]``, ``to_json`` and ``repr`` give
Fractions.  ``Mat(...)`` refuses a float or bool entry and ``scale`` such
a factor.  A matrix is immutable and can be shared freely.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd

from .scalars import exact_rational, format_rational, over_common_denominator

__all__ = ["Mat"]


class Mat:
    __slots__ = ("nums", "den")

    def __init__(self, rows):
        rows = [[exact_rational(x, "matrix entry") for x in row] for row in rows]
        if len(rows) != 3 or any(len(row) != 3 for row in rows):
            raise ValueError(f"a Mat is 3x3, got rows of lengths {[len(row) for row in rows]}")
        nums, self.den = over_common_denominator(chain.from_iterable(rows))
        self.nums = (tuple(nums[:3]), tuple(nums[3:6]), tuple(nums[6:]))

    @classmethod
    def _over(cls, nums, den: int) -> "Mat":
        """nums / den in canonical form, for int row tuples and a den > 0."""
        if den != 1:
            (a, b, c), (d, e, f), (g, h, i) = nums
            k = gcd(den, a, b, c, d, e, f, g, h, i)
            if k != 1:
                nums = ((a // k, b // k, c // k), (d // k, e // k, f // k),
                        (g // k, h // k, i // k))
                den //= k
        result = object.__new__(cls)
        result.nums, result.den = nums, den
        return result

    @property
    def rows(self) -> tuple:
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.nums)

    @classmethod
    def zero(cls) -> "Mat":
        return cls.diag([0, 0, 0])

    @classmethod
    def identity(cls) -> "Mat":
        return cls.diag([1, 1, 1])

    @classmethod
    def diag(cls, entries) -> "Mat":
        entries = list(entries)
        return cls([[x if i == j else 0 for j in range(len(entries))] for i, x in enumerate(entries)])

    @classmethod
    def unit(cls, i: int, j: int) -> "Mat":
        """Matrix unit: 1 in position (i, j), zero elsewhere."""
        if not (0 <= i < 3 and 0 <= j < 3):
            raise IndexError(f"index ({i}, {j}) is outside 0..2")
        return cls([[int((a, b) == (i, j)) for b in range(3)] for a in range(3)])

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        if not (0 <= i < 3 and 0 <= j < 3):  # a negative index would wrap
            raise IndexError(f"index ({i}, {j}) is outside 0..2")
        return Fraction(self.nums[i][j], self.den)

    def __eq__(self, other):
        return isinstance(other, Mat) and self.den == other.den and self.nums == other.nums

    def _combine(self, other: "Mat", sign: int) -> "Mat":
        """self + sign * other, for sign = 1 or -1, over the lcm of the two dens."""
        g = gcd(self.den, other.den)
        a, b = other.den // g, sign * (self.den // g)
        return Mat._over(tuple(
            tuple(x * a + y * b for x, y in zip(ra, rb))
            for ra, rb in zip(self.nums, other.nums)
        ), self.den * a)

    def __add__(self, other: "Mat") -> "Mat":
        return self._combine(other, 1)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._combine(other, -1)

    def __neg__(self) -> "Mat":
        return Mat._over(tuple(tuple(-x for x in row) for row in self.nums), self.den)

    def scale(self, c) -> "Mat":
        c = exact_rational(c, "factor")
        nums = tuple(tuple(c.numerator * x for x in row) for row in self.nums)
        return Mat._over(nums, self.den * c.denominator)

    def __matmul__(self, other: "Mat") -> "Mat":
        """The integer product over self.den * other.den: nine explicit sums
        of three products each, and one gcd."""
        (a, b, c), (d, e, f), (g, h, i) = self.nums
        (A, B, C), (D, E, F), (G, H, I) = other.nums
        return Mat._over((
            (a * A + b * D + c * G, a * B + b * E + c * H, a * C + b * F + c * I),
            (d * A + e * D + f * G, d * B + e * E + f * H, d * C + e * F + f * I),
            (g * A + h * D + i * G, g * B + h * E + i * H, g * C + h * F + i * I),
        ), self.den * other.den)

    def apply(self, vector):
        """Multiply by a column 3-vector (list of Fractions)."""
        if len(vector) != 3:
            raise ValueError(f"expected a 3-vector, got {len(vector)} entries")
        return [Fraction(sum(a * b for a, b in zip(row, vector)), self.den) for row in self.nums]

    def transpose(self) -> "Mat":
        return Mat._over(tuple(zip(*self.nums)), self.den)

    def trace(self) -> Fraction:
        return Fraction(sum(self.nums[i][i] for i in range(3)), self.den)

    def bracket(self, other: "Mat") -> "Mat":
        """Commutator [self, other] = self other - other self over
        self.den * other.den, one integer expression per entry.

        In entry (r, s) the terms of k = r and k = s of the two products
        combine to other[r, s] (self[r, r] - self[s, s]) - self[r, s]
        (other[r, r] - other[s, s]), which vanishes on the diagonal, so
        every entry is four products.
        """
        (a, b, c), (d, e, f), (g, h, i) = self.nums
        (A, B, C), (D, E, F), (G, H, I) = other.nums
        ae, ai, ei, AE, AI, EI = a - e, a - i, e - i, A - E, A - I, E - I
        return Mat._over((
            (b * D - B * d + c * G - C * g,
             B * ae - b * AE + c * H - C * h,
             C * ai - c * AI + b * F - B * f),
            (d * AE - D * ae + f * G - F * g,
             d * B - D * b + f * H - F * h,
             F * ei - f * EI + d * C - D * c),
            (g * AI - G * ai + h * D - H * d,
             h * EI - H * ei + g * B - G * b,
             g * C - G * c + h * F - H * f),
        ), self.den * other.den)

    def inverse(self) -> "Mat":
        """den adj(nums) / det(nums), over the ints; raises ZeroDivisionError
        on a singular matrix."""
        m = self.nums
        adj = tuple(
            tuple(
                m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
                - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3]
                for j in range(3)
            )
            for i in range(3)
        )
        det = sum(m[0][k] * adj[k][0] for k in range(3))
        if det == 0:
            raise ZeroDivisionError("singular matrix")
        sign = 1 if det > 0 else -1
        return Mat._over(tuple(tuple(sign * self.den * x for x in row) for row in adj), abs(det))

    def to_json(self):
        """Row-major nested list of rational strings."""
        return [[format_rational(x) for x in row] for row in self.rows]

    def __repr__(self):
        return f"Mat({[[str(x) for x in row] for row in self.rows]})"

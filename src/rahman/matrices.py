"""Small exact rational matrices: the 3x3 structural layer only.

Operators on the degree-N module are applied by ``polymodule.action`` and
never stored as matrices.  Entries are Fractions (the public ``Mat(...)``
refuses a float or bool entry, and ``scale`` a float or bool factor);
rows are tuples, so a matrix is immutable and can be shared freely.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import exact_rational, format_rational

__all__ = ["Mat"]

_ZERO = Fraction(0)


class Mat:
    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(
            tuple(exact_rational(x, "matrix entry") for x in row) for row in rows
        )
        width = len(self.rows[0]) if self.rows else 0
        if any(len(row) != width for row in self.rows):
            raise ValueError("ragged rows")

    @classmethod
    def _of(cls, rows) -> "Mat":
        """Trusted constructor for arithmetic results: ``rows`` is a tuple
        of equal-length tuples of Fractions, stored as given."""
        result = object.__new__(cls)
        result.rows = rows
        return result

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @classmethod
    def zero(cls, n: int) -> "Mat":
        return cls([[0] * n for _ in range(n)])

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diag(cls, entries) -> "Mat":
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def unit(cls, n: int, i: int, j: int) -> "Mat":
        """Matrix unit: 1 in position (i, j), zero elsewhere."""
        return cls([[1 if (a, b) == (i, j) else 0 for b in range(n)] for a in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, Mat) and self.rows == other.rows

    def __add__(self, other: "Mat") -> "Mat":
        return Mat._of(tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)
        ))

    def __sub__(self, other: "Mat") -> "Mat":
        return Mat._of(tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)
        ))

    def __neg__(self) -> "Mat":
        return Mat._of(tuple(tuple(-a for a in row) for row in self.rows))

    def scale(self, c) -> "Mat":
        c = exact_rational(c, "factor")
        return Mat._of(tuple(tuple(c * a for a in row) for row in self.rows))

    def __matmul__(self, other: "Mat") -> "Mat":
        """Row-by-row product that skips every zero factor.

        The structural matrices are mostly matrix units and diagonals,
        so most of the n^3 products of the dense formula are by zero.
        """
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        width = other.ncols
        rows = []
        for row in self.rows:
            out = [_ZERO] * width
            for a, other_row in zip(row, other.rows):
                if not a:
                    continue
                for j, b in enumerate(other_row):
                    if b:
                        out[j] += a * b
            rows.append(tuple(out))
        return Mat._of(tuple(rows))

    def apply(self, vector):
        """Multiply by a column vector (list of Fractions)."""
        if self.ncols != len(vector):
            raise ValueError("dimension mismatch")
        return [sum(a * b for a, b in zip(row, vector)) for row in self.rows]

    def transpose(self) -> "Mat":
        return Mat._of(tuple(zip(*self.rows)))

    def trace(self):
        return sum(self.rows[i][i] for i in range(min(self.nrows, self.ncols)))

    def bracket(self, other: "Mat") -> "Mat":
        """Commutator [self, other] = self other - other self."""
        return self @ other - other @ self

    def inverse(self) -> "Mat":
        """Gauss-Jordan inverse; exact, raises on singular input."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("not square")
        work = [list(row) + [Fraction(int(i == j)) for j in range(n)]
                for i, row in enumerate(self.rows)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
            if pivot is None:
                raise ZeroDivisionError("singular matrix")
            work[col], work[pivot] = work[pivot], work[col]
            inv = 1 / work[col][col]
            work[col] = [x * inv for x in work[col]]
            for r in range(n):
                if r != col and work[r][col] != 0:
                    factor = work[r][col]
                    work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
        return Mat._of(tuple(tuple(row[n:]) for row in work))

    def to_json(self):
        """Row-major nested list of rational strings."""
        return [[format_rational(x) for x in row] for row in self.rows]

    def __repr__(self):
        return f"Mat({[[str(x) for x in row] for row in self.rows]})"

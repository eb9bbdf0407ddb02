from dataclasses import replace
from fractions import Fraction
from math import factorial

import pytest

import rahman.form
import rahman.theorems
from rahman.matrices import Mat
from rahman.params import DerivedParams, ParameterSet, ValidationError, derive
from rahman.polymodule import DegreeMismatch, Poly3, lattice
from rahman.scalars import format_rational
from rahman.sl3 import OFF_DIAGONAL, StructureSet, build

# The modules whose verifiers read eval_P: ``BilinearForm.p_matrix`` and
# the recurrences' own matrix.  A test that patches eval_P patches both.
EVAL_P_READERS = (rahman.form, rahman.theorems)

PARAM_MATRIX = [
    ParameterSet.of(1, 2, 3, 5),
    ParameterSet.of(2, 1, 7, 3),
    ParameterSet.of(1, -2, 3, 5),
]


@pytest.fixture(scope="session")
def reference_params():
    return PARAM_MATRIX[0]


@pytest.fixture(scope="session")
def structures():
    """One built StructureSet per parameter set in the test matrix."""
    return {p: build(p, derive(p)) for p in PARAM_MATRIX}


@pytest.fixture(scope="session")
def reference_structure(structures, reference_params):
    return structures[reference_params]


def with_corrupted_eta_t(s: StructureSet, index: int, delta) -> StructureSet:
    """s rebuilt with eta~_index shifted by delta: a corrupted constant
    that the verifiers must catch."""
    eta_t = list(s.d.eta_t)
    eta_t[index] += Fraction(delta)
    return build(s.p, replace(s.d, eta_t=tuple(eta_t)))


def shifted_entry(m: Mat) -> Mat:
    """m with 1 added to entry (0, 1): a corrupted R or R^-1."""
    rows = [list(row) for row in m.rows]
    rows[0][1] += 1
    return Mat(rows)


def fraction_structure(d: DerivedParams) -> dict:
    """U, W, W~, R = theta~ W~ U^t and R^-1 = theta W U from the constants,
    Fraction by Fraction: the oracle for the integer ``sl3.build``."""
    U = Dense([[1, 1, 1], [1, 1 - d.t, 1 - d.v], [1, 1 - d.u, 1 - d.w]])
    W, Wt = Dense.diag(d.eta), Dense.diag(d.eta_t)
    return {
        "U": U,
        "W": W,
        "Wt": Wt,
        "R": (Wt @ U.transpose()).scale(d.theta_t),
        "Rinv": (W @ U).scale(d.theta),
    }


def adjacent(a: tuple, b: tuple) -> bool:
    """True iff the componentwise difference is a permutation of (1, -1, 0):
    the oracle for ``polymodule._neighbours``."""
    if sum(a) != sum(b):
        raise DegreeMismatch(f"{a} and {b} have different degrees")
    diff = sorted(x - y for x, y in zip(a, b))
    return diff == [-1, 0, 1]


def dense_product(a, b):
    """Rows of the product a b of two 3x3 matrices by the dense triple loop
    over every entry: the oracle for the zero-skipping ``Mat.__matmul__``."""
    return [
        [sum((a[i, k] * b[k, j] for k in range(3)), Fraction(0)) for j in range(3)]
        for i in range(3)
    ]


class Dense:
    """A square matrix of Fractions of any size, by the textbook formulas:
    the oracle for operators on the degree-N module, which the library
    applies through ``polymodule.action`` and never stores."""

    def __init__(self, rows):
        self.rows = tuple(tuple(Fraction(x) for x in row) for row in rows)

    @classmethod
    def diag(cls, entries):
        entries = list(entries)
        return cls([[x if i == j else 0 for j in range(len(entries))]
                    for i, x in enumerate(entries)])

    @classmethod
    def identity(cls, n: int):
        return cls.diag([1] * n)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, Dense) and self.rows == other.rows

    def __repr__(self):
        return f"Dense({[[str(x) for x in row] for row in self.rows]})"

    def __add__(self, other):
        return Dense([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return Dense([[c * x for x in row] for row in self.rows])

    def transpose(self):
        return Dense(zip(*self.rows))

    def __matmul__(self, other):
        columns = list(zip(*other.rows))
        return Dense([[sum((x * y for x, y in zip(row, column)), Fraction(0))
                       for column in columns] for row in self.rows])

    def inverse(self):
        """Gauss-Jordan inverse; exact, raises on singular input."""
        n = len(self.rows)
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
        return Dense([row[n:] for row in work])


class FractionPoly:
    """A homogeneous polynomial as a dict of Fraction coefficients, zeros
    dropped and keys in first-term order, with every operation done
    Fraction by Fraction: the oracle for the integer ``Poly3``.  Its repr
    is the one a Poly3 with the same coefficients must print."""

    def __init__(self, coeffs: dict, degree):
        self.coeffs = {key: Fraction(value) for key, value in coeffs.items() if value}
        self.degree = degree if self.coeffs else None

    def __getitem__(self, key) -> Fraction:
        return self.coeffs.get(tuple(key), Fraction(0))

    def __eq__(self, other) -> bool:
        return self.coeffs == other.coeffs

    def _merge(self, other: "FractionPoly", sign: int) -> "FractionPoly":
        merged = dict(self.coeffs)
        for key, value in other.coeffs.items():
            value = value if sign > 0 else -value
            merged[key] = merged[key] + value if key in merged else value
        return FractionPoly(merged, self.degree if self.coeffs else other.degree)

    def __add__(self, other):
        return self._merge(other, 1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def scale(self, c) -> "FractionPoly":
        return FractionPoly({key: c * value for key, value in self.coeffs.items()}, self.degree)

    def __mul__(self, other: "FractionPoly") -> "FractionPoly":
        product: dict = {}
        for (a, b, c), u in self.coeffs.items():
            for (x, y, z), v in other.coeffs.items():
                key = (a + x, b + y, c + z)
                product[key] = product.get(key, Fraction(0)) + u * v
        return FractionPoly(product, (self.degree or 0) + (other.degree or 0))

    def power(self, n: int) -> "FractionPoly":
        result = FractionPoly({(0, 0, 0): 1}, 0)
        for _ in range(n):
            result = result * self
        return result

    def to_json(self) -> list:
        keys = sorted(self.coeffs, key=lambda k: (-k[0], -k[1]))
        return [{"index": list(key), "coeff": format_rational(self.coeffs[key])} for key in keys]

    def __repr__(self):
        return f"Poly3({self.coeffs})"


def fraction_derivation(matrix):
    """The derivation by which a 3x3 matrix acts on polynomials, summed
    Fraction by Fraction (every term its own Fraction): the oracle for
    the integer sums of ``polymodule._derivation``, keys included in
    their order.  It maps a Poly3 or a FractionPoly to a FractionPoly."""
    columns = [
        [
            (tuple(int(k == i) - int(k == j) for k in range(3)), matrix[i, j])
            for i in range(3)
            if matrix[i, j] != 0
        ]
        for j in range(3)
    ]

    def apply(xi: Poly3) -> Poly3:
        out: dict = {}
        for exps, coeff in xi.coeffs.items():
            for j, entries in enumerate(columns):
                if exps[j] == 0:
                    continue
                weight = coeff * exps[j]
                for (da, db, dc), entry in entries:
                    key = (exps[0] + da, exps[1] + db, exps[2] + dc)
                    term = weight * entry
                    out[key] = out[key] + term if key in out else term
        return FractionPoly(out, xi.degree)

    return apply


def tilde_variables(s: StructureSet) -> tuple:
    """The tilde variables as degree-1 plain polynomials (columns of R)."""
    return tuple(
        Poly3({(1, 0, 0): s.R[0, j], (0, 1, 0): s.R[1, j], (0, 0, 1): s.R[2, j]})
        for j in range(3)
    )


def expand_tilde_monomial_direct(rho: int, sigma: int, tau: int, s: StructureSet) -> Poly3:
    """Plain-basis expansion of a tilde monomial by symbolic substitution.

    Independent oracle for ``form.BilinearForm.tilde_columns``: substitute
    the degree-1 expressions for the tilde variables and multiply out
    over Fractions.  On ``s.dual()`` this is the tilde-basis expansion of
    the plain monomial x^rho y^sigma z^tau.
    """
    xt, yt, zt = (FractionPoly(variable.coeffs, 1) for variable in tilde_variables(s))
    product = xt.power(rho) * yt.power(sigma) * zt.power(tau)
    return Poly3(product.coeffs)


def fraction_validate(p: ParameterSet) -> ParameterSet:
    """``params.validate`` Fraction by Fraction on the parameters as given:
    the oracle for the check on the cleared integers."""
    p1, p2, p3, p4 = p.as_tuple()
    checks = [
        (p1, "p1"),
        (p2, "p2"),
        (p3, "p3"),
        (p4, "p4"),
        (p1 + p2, "p1+p2"),
        (p1 + p3, "p1+p3"),
        (p2 + p4, "p2+p4"),
        (p3 + p4, "p3+p4"),
        (p1 + p2 + p3 + p4, "p1+p2+p3+p4"),
        (p1 * p4 - p2 * p3, "p1p4-p2p3"),
    ]
    for value, name in checks:
        if value == 0:
            raise ValidationError(name)
    return p


def fraction_derive(p: ParameterSet) -> DerivedParams:
    """Every derived constant by the chain of Fraction operations the paper
    writes: the oracle for ``params.derive``, which reads one Fraction per
    constant off the cleared integers."""
    fraction_validate(p)
    p1, p2, p3, p4 = p.as_tuple()
    total = p1 + p2 + p3 + p4
    det = p2 * p3 - p1 * p4

    nu = (p1 + p2) * (p1 + p3) * (p2 + p4) * (p3 + p4) / det**2
    eta0 = 1 / nu
    eta = (
        eta0,
        p1 * p2 * total / ((p1 + p2) * (p1 + p3) * (p2 + p4)),
        p3 * p4 * total / ((p1 + p3) * (p2 + p4) * (p3 + p4)),
    )
    eta_t = (
        eta0,
        p1 * p3 * total / ((p1 + p2) * (p1 + p3) * (p3 + p4)),
        p2 * p4 * total / ((p1 + p2) * (p2 + p4) * (p3 + p4)),
    )
    return DerivedParams(
        t=(p1 + p2) * (p1 + p3) / (p1 * total),
        u=(p1 + p3) * (p3 + p4) / (p3 * total),
        v=(p1 + p2) * (p2 + p4) / (p2 * total),
        w=(p2 + p4) * (p3 + p4) / (p4 * total),
        nu=nu,
        eta=eta,
        eta_t=eta_t,
        theta=(p1 + p3) * (p2 + p4) / det,
        theta_t=(p1 + p2) * (p3 + p4) / det,
    )


# The plain basis {e_ij, varphi, phi}, keyed as the expansion tables are.
EXPANSION_BASIS = {
    **{f"e{i}{j}": StructureSet.e[i, j] for i, j in OFF_DIAGONAL},
    "h1": StructureSet.varphi,
    "h2": StructureSet.phi,
}


def varphi_t_table(p: ParameterSet) -> Mat:
    """varphi~ from the paper's table in the plain basis {e_ij, varphi, phi},
    transcribed entry by entry over Fractions and summed by ``Mat.scale``
    and ``+``: the oracle for ``expansion_coefficients``, which forms it
    over the cleared integers as one integer sum."""
    p1, p2, p3, p4 = p.as_tuple()
    total = p1 + p2 + p3 + p4
    a, b, c = p1 + p2, p1 + p3, p2 + p4
    g = p2 * p3 - p1 * p4
    table = {
        "e01": -p2 * g / (a * b * c),
        "e02": p1 * g / (a * b * c),
        "e10": -p1 * p2 * p3 * total / (a * b * g),
        "e12": -p1 * p3 / (a * b),
        "e20": p1 * p2 * p4 * total / (a * c * g),
        "e21": -p2 * p4 / (a * c),
        "h1": p2 * p3 / (a * b) - p1 * p2 * total / (a * b * c),
        "h2": p1 * p4 / (a * c) - p1 * p2 * total / (a * b * c),
    }
    return sum((EXPANSION_BASIS[key].scale(value) for key, value in table.items()), Mat.zero())


def phi_t_table(p: ParameterSet) -> Mat:
    """phi~ from the paper's table in the plain basis {e_ij, varphi, phi},
    transcribed entry by entry and summed by ``Mat.scale`` and ``+``: the
    oracle for ``expansion_coefficients``, which reads it off the varphi~
    table of (p3, p4, p1, p2) as one integer sum."""
    p1, p2, p3, p4 = p.as_tuple()
    total = p1 + p2 + p3 + p4
    b, c, dd = p1 + p3, p2 + p4, p3 + p4
    g = p2 * p3 - p1 * p4
    table = {
        "e01": p4 * g / (b * dd * c),
        "e02": -p3 * g / (b * dd * c),
        "e10": p1 * p3 * p4 * total / (b * dd * g),
        "e12": -p1 * p3 / (b * dd),
        "e20": -p2 * p3 * p4 * total / (c * dd * g),
        "e21": -p2 * p4 / (c * dd),
        "h1": p1 * p4 / (b * dd) - p3 * p4 * total / (b * dd * c),
        "h2": p2 * p3 / (c * dd) - p3 * p4 * total / (b * dd * c),
    }
    return sum((EXPANSION_BASIS[key].scale(value) for key, value in table.items()), Mat.zero())


def fraction_gram(d: DerivedParams, n: int) -> dict:
    """||x^r y^s z^t||^2 = r! s! t! theta^N / (eta~_0^r eta~_1^s eta~_2^t),
    Fraction by Fraction in lattice order: the oracle for
    ``BilinearForm.gram``.  A zero eta~ weight raises ZeroDivisionError."""
    eta_t = d.eta_t
    theta_n = d.theta**n
    return {
        (r, s, t): Fraction(factorial(r) * factorial(s) * factorial(t))
        * theta_n
        / (eta_t[0] ** r * eta_t[1] ** s * eta_t[2] ** t)
        for (r, s, t) in lattice(n)
    }

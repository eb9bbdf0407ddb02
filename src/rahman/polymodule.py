"""Degree-N homogeneous polynomials in three variables as an sl3 module.

A Poly3 maps exponent triples to int numerators over one denominator,
like ``Mat``, with no coordinate tag: the tilde variables of s are the
plain ones of ``s.dual()``.  One action rule drives everything: a 3x3
matrix m sends variable j to sum_i m[i][j] * variable i, extended to
monomials as a derivation, which ``action`` (m = beta) and
``_tilde_action`` (m = R^-1 beta R) apply as int sums over xi.den *
m.den, with no DxD matrix.  The per-generator tables are test vectors.

Arithmetic is over the ints with one gcd per result (the trusted
``Poly3._over``); ``coeffs``, ``p[key]``, ``to_json`` and ``repr`` give
Fractions.  The public ``Poly3(...)`` refuses a float or bool
coefficient and any exponent that is not a nonnegative int, and
``scale`` a float or bool factor.

``monomials`` builds the basis of V in ``lattice`` order, which
``_lattice_index`` inverts.  The six moves e_i - e_j of e_ij on
exponents are one table, ``_MOVES``, read by ``_neighbours`` and the
recurrences' off-lattice checks; ``_derivation`` and the action tables,
which those checks test, keep their own shifts.  The recurrences act by
``action`` itself.  The cross-Cartan actions act as in a rank-2 Leonard
pair: they vanish off the diagonal and the lattice neighbours
(``verify_block_structure``), and no neighbour entry vanishes
(``irreducibility_probe``), so V is irreducible.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd
from operator import add

from .matrices import Mat
from .report import Report, _mismatch
from .scalars import exact_rational, format_over, over_common_denominator
from .sl3 import OFF_DIAGONAL, StructureSet, _require_traceless

__all__ = [
    "DegreeMismatch",
    "NotHomogeneous",
    "Poly3",
    "lattice",
    "lattice_dimension",
    "monomials",
    "action",
    "verify_block_structure",
    "irreducibility_probe",
    "verify_action_tables",
    "verify_representation_law",
    "verify_weight_diagonality",
]


class DegreeMismatch(ValueError):
    """Raised when two lattice points or polynomials have different degrees."""


class NotHomogeneous(ValueError):
    """Raised when a polynomial mixes total degrees."""


def _require_degree(n: int) -> None:
    """Raise ValueError unless n is a nonnegative int; a bool is not one."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"degree must be an integer, got {n!r}")
    if n < 0:
        raise ValueError("degree must be nonnegative")


def lattice(n: int) -> list:
    """All (r, s, t) with r+s+t = n, ordered by descending r then s."""
    _require_degree(n)
    return [
        (r, s, n - r - s)
        for r in range(n, -1, -1)
        for s in range(n - r, -1, -1)
    ]


def lattice_dimension(n: int) -> int:
    _require_degree(n)
    return (n + 1) * (n + 2) // 2


def _lattice_index(point: tuple) -> int:
    """The position of (r, s, t) in its ``lattice``: a(a+1)/2 + t, a = s + t."""
    a = point[1] + point[2]
    return a * (a + 1) // 2 + point[2]


def monomials(n: int) -> list:
    """The degree-n monomial basis x^r y^s z^t, in lattice order."""
    return [Poly3._over({point: 1}, 1, n) for point in lattice(n)]


class Poly3:
    """Sparse homogeneous polynomial: int ``nums`` over ``den`` > 0, coprime."""

    __slots__ = ("nums", "den", "degree")

    def __init__(self, coeffs: dict):
        clean = {}
        degrees = set()
        for key, value in coeffs.items():
            value = exact_rational(value, "coefficient")
            if value == 0:
                continue
            key = tuple(key)
            if len(key) != 3 or any(type(x) is not int or x < 0 for x in key):
                raise ValueError(f"bad exponent triple {key!r}")
            degrees.add(sum(key))
            clean[key] = value
        if len(degrees) > 1:
            raise NotHomogeneous(f"mixed degrees {sorted(degrees)}")
        nums, self.den = over_common_denominator(clean.values())
        self.nums = dict(zip(clean, nums))
        self.degree = degrees.pop() if degrees else None

    @classmethod
    def _over(cls, nums: dict, den: int, degree) -> "Poly3":
        """Trusted: int nums (exponent triples of total degree ``degree``) over
        den != 0, made canonical by dropping zeros, the sign and one gcd."""
        if den < 0:
            nums, den = {key: -value for key, value in nums.items()}, -den
        values = nums.values()
        if 0 in values:
            nums = {key: value for key, value in nums.items() if value}
            values = nums.values()
        if not nums:
            den, degree = 1, None
        elif den != 1 and (g := gcd(den, *values)) != 1:
            nums, den = {key: value // g for key, value in nums.items()}, den // g
        result = object.__new__(cls)
        result.nums, result.den, result.degree = nums, den, degree
        return result

    @property
    def coeffs(self) -> dict:
        return {key: Fraction(value, self.den) for key, value in self.nums.items()}

    @classmethod
    def monomial(cls, r: int, s: int, t: int, coeff=1) -> "Poly3":
        return cls({(r, s, t): coeff})

    @classmethod
    def zero(cls) -> "Poly3":
        return cls({})

    def __getitem__(self, key) -> Fraction:
        return Fraction(self.nums.get(tuple(key), 0), self.den)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly3) and self.den == other.den and self.nums == other.nums

    def _merge(self, other: "Poly3", sign: int) -> "Poly3":
        """self + sign * other, for sign = 1 or -1."""
        if self.nums and other.nums and self.degree != other.degree:
            raise NotHomogeneous(f"mixed degrees {sorted([self.degree, other.degree])}")
        g = gcd(self.den, other.den)
        a, b = other.den // g, sign * (self.den // g)
        merged = {key: value * a for key, value in self.nums.items()}
        for key, value in other.nums.items():
            merged[key] = merged.get(key, 0) + value * b
        return Poly3._over(merged, self.den * a, self.degree if self.nums else other.degree)

    def __add__(self, other: "Poly3") -> "Poly3":
        return self._merge(other, 1)

    def __sub__(self, other: "Poly3") -> "Poly3":
        return self._merge(other, -1)

    def scale(self, c) -> "Poly3":
        c = exact_rational(c, "factor")
        nums = {key: c.numerator * value for key, value in self.nums.items()}
        return Poly3._over(nums, self.den * c.denominator, self.degree)

    def __mul__(self, other: "Poly3") -> "Poly3":
        product: dict = {}
        for (a, b, c), u in self.nums.items():
            for (x, y, z), v in other.nums.items():
                key = (a + x, b + y, c + z)
                product[key] = product.get(key, 0) + u * v
        return Poly3._over(product, self.den * other.den, (self.degree or 0) + (other.degree or 0))

    def power(self, n: int) -> "Poly3":
        result = Poly3({(0, 0, 0): 1})
        for _ in range(n):
            result = result * self
        return result

    def to_vector(self, n: int) -> list:
        """Coefficients in lattice order for degree n."""
        if self.nums and self.degree != n:
            raise DegreeMismatch(f"degree {self.degree}, expected {n}")
        return [self[key] for key in lattice(n)]

    def to_json(self) -> list:
        """Deterministic JSON form: list of {"index", "coeff"} in lattice order."""
        keys = sorted(self.nums, key=_lattice_index)
        return [
            {"index": list(key), "coeff": format_over(self.nums[key], self.den)}
            for key in keys
        ]

    def __repr__(self):
        return f"Poly3({self.coeffs})"


def action(matrix: Mat):
    """The derivation by which a traceless 3x3 matrix acts on polynomials,
    as a function from Poly3 to Poly3.

    The matrix m sends variable j to sum_i m[i][j] * variable i, extended
    to monomials as a derivation.  The trace is checked and the nonzero
    entries of m listed once, when the action is built.
    """
    _require_traceless(matrix)
    return _derivation(matrix)


def _tilde_action(beta: Mat, s: StructureSet):
    """The action of beta on the tilde coordinates of s: that of R^-1 beta R.

    The conjugated units act on tilde monomials exactly like the plain
    units act on plain monomials.  beta's own trace is checked, before
    conjugating, so a failure reports it: on a corrupted structure R^-1
    is no inverse of R, and R^-1 beta R can have another trace.
    """
    _require_traceless(beta)
    return _derivation(s.Rinv @ beta @ s.R)


# e_i - e_j for all nine units e_ij, read by ``_derivation`` alone: it is
# kept apart from ``_MOVES``, the band block structure checks it against.
_DERIVATION_SHIFTS = {(i, j): tuple(int(k == i) - int(k == j) for k in range(3))
                      for j in range(3) for i in range(3)}


def _derivation(matrix: Mat):
    """``action`` without the trace check, which each caller makes first.

    Each image numerator is an int sum over xi.den * matrix.den, reduced
    by one gcd; keys keep first-term order.
    """
    # (j, shift of the exponent triple, numerator of m[i][j]) for the
    # nonzero entries, variable j by variable j, each column in row order.
    terms = [
        (j, _DERIVATION_SHIFTS[i, j], matrix.nums[i][j])
        for j in range(3) for i in range(3) if matrix.nums[i][j]
    ]

    def apply(xi: Poly3) -> Poly3:
        out: dict = {}
        for exps, numerator in xi.nums.items():
            a, b, c = exps
            for j, (da, db, dc), entry in terms:
                if exps[j]:
                    key = (a + da, b + db, c + dc)
                    out[key] = out.get(key, 0) + numerator * exps[j] * entry
        return Poly3._over(out, xi.den * matrix.den, xi.degree)

    return apply


# The six moves of the lattice: the unit e_ij shifts an exponent triple
# by e_i - e_j.  Keyed by (i, j), in OFF_DIAGONAL order.
_MOVES = {(i, j): tuple(int(k == i) - int(k == j) for k in range(3)) for i, j in OFF_DIAGONAL}


def _neighbours(point: tuple) -> list:
    """The lattice points adjacent to ``point``, in lattice order."""
    shifted = (tuple(map(add, point, move)) for move in _MOVES.values())
    return sorted((mu for mu in shifted if min(mu) >= 0), key=_lattice_index)


def _cross_cartan_images(s: StructureSet, n: int):
    """Each cross-Cartan action with its images of the degree-n monomials.

    Yields (label, images), images in lattice order, for varphi~ and
    phi~ on plain monomials and varphi and phi on tilde monomials.  Each
    action is built when its turn comes, so a NotTraceless raised there
    surfaces inside the caller's Report.
    """
    on_tilde = partial(_tilde_action, s=s)
    cases = [
        ("varphi~ on plain", action, s.varphi_t),
        ("phi~ on plain", action, s.phi_t),
        ("varphi on tilde", on_tilde, s.varphi),
        ("phi on tilde", on_tilde, s.phi),
    ]
    basis = monomials(n)
    for label, make_action, beta in cases:
        yield label, list(map(make_action(beta), basis))


def verify_block_structure(s: StructureSet, n: int) -> Report:
    """Cross-Cartan action support: diagonal plus adjacent entries only.
    Any 3x3 derivation maps x^lam into x^lam and its neighbours, so this
    fails only by a raise, such as NotTraceless when an action is built.

    ``checked`` = 4(D^2 - D - 3N(N+1)), D = (N+1)(N+2)/2: per action, every
    (mu, lam) off lam's band, and the D points have 3N(N+1) neighbours in all.
    """
    points = lattice(n)
    bands = [{lam, *_neighbours(lam)} for lam in points]
    with Report(f"module.block_structure.N{n}") as rec:
        for label, images in _cross_cartan_images(s, n):
            for mu in points:
                for lam, band, image in zip(points, bands, images):
                    if mu in band:
                        continue
                    rec.check(
                        mu not in image.nums,
                        lambda: f"{label}: nonzero entry at row {mu}, column {lam}",
                    )
    return rec


def verify_action_tables(s: StructureSet, n: int) -> Report:
    """The eight per-generator action rows, reproduced from the one rule.

    Checks every monomial of degree n, in both coordinate systems; the
    tilde generators must act on tilde monomials exactly as the plain
    generators act on plain ones.  ``checked`` = 16D, D = (N+1)(N+2)/2.
    """
    def expected_rows(r, st, t):
        # (generator label, resulting monomial dict)
        return [
            ("e01", {(r + 1, st - 1, t): st} if st else {}),
            ("e12", {(r, st + 1, t - 1): t} if t else {}),
            ("e02", {(r + 1, st, t - 1): t} if t else {}),
            ("e10", {(r - 1, st + 1, t): r} if r else {}),
            ("e21", {(r, st - 1, t + 1): st} if st else {}),
            ("e20", {(r - 1, st, t + 1): r} if r else {}),
            ("varphi", {(r, st, t): Fraction(st) - Fraction(n, 3)}),
            ("phi", {(r, st, t): Fraction(t) - Fraction(n, 3)}),
        ]

    basis = s.cartan_basis()
    with Report(f"module.action_tables.N{n}") as rec:
        points = list(zip(lattice(n), monomials(n)))
        for kind, gens, make_action in (
            ("plain", basis, action),
            ("tilde", s.tilde_basis(), partial(_tilde_action, s=s)),
        ):
            actions = {label: make_action(beta) for label, beta in zip(basis, gens.values())}
            for point, monomial in points:
                for label, image in expected_rows(*point):
                    rec.equal(
                        actions[label](monomial),
                        Poly3(image),
                        lambda: f"{kind} table {label} at {point}",
                    )
    return rec


def verify_representation_law(s: StructureSet, n: int) -> Report:
    """The action is a Lie algebra homomorphism on the 8-element basis.

    For each pair, the 3x3 bracket acting on every plain monomial is
    compared with the module bracket of the two actions.  Also checks
    tilde compatibility: conjugated elements acting on tilde monomials
    give the coefficients of the plain elements on plain monomials.
    ``checked`` = 36: 28 pairs and 8 compatibility rows.
    """
    basis = s.cartan_basis()
    names = list(basis)
    plain = monomials(n)
    with Report(f"module.representation.N{n}") as rec:
        actions = {name: action(beta) for name, beta in basis.items()}
        # Each generator's image of each monomial, computed once and read
        # by every pair and by the tilde compatibility rows.
        images = {name: [apply(m) for m in plain] for name, apply in actions.items()}
        for a, name_b in enumerate(names):
            beta, on_beta = basis[name_b], actions[name_b]
            for name_g in names[a + 1:]:
                gamma, on_gamma = basis[name_g], actions[name_g]
                on_bracket = action(beta.bracket(gamma))
                rec.equal(
                    [on_bracket(m) for m in plain],
                    [
                        on_beta(gamma_m) - on_gamma(beta_m)
                        for gamma_m, beta_m in zip(images[name_g], images[name_b])
                    ],
                    lambda: f"bracket pair ({name_b}, {name_g})",
                )
        # Canonical Poly3s are equal iff their coefficients are, so each row
        # compares ints; the Fraction coefficients only describe a failure.
        for name, conjugated in zip(names, s.tilde_basis().values()):
            on_conjugated = _tilde_action(conjugated, s)
            left, right = [on_conjugated(m) for m in plain], images[name]
            rec.check(left == right, lambda: _mismatch(
                f"tilde compatibility for {name}",
                [image.coeffs for image in left], [image.coeffs for image in right],
            ))
    return rec


def verify_weight_diagonality(s: StructureSet, n: int) -> Report:
    """Both Cartan pairs are diagonal in their own basis, with s-N/3, t-N/3.
    ``checked`` = 4."""
    points = lattice(n)
    on_tilde = partial(_tilde_action, s=s)
    cases = [
        ("varphi plain", action, s.varphi, 1),
        ("phi plain", action, s.phi, 2),
        ("varphi~ tilde", on_tilde, s.varphi_t, 1),
        ("phi~ tilde", on_tilde, s.phi_t, 2),
    ]
    basis = monomials(n)
    with Report(f"module.weights.N{n}") as rec:
        for label, make_action, beta, slot in cases:
            apply = make_action(beta)
            rec.equal(
                [apply(m) for m in basis],
                [m.scale(point[slot] - Fraction(n, 3)) for m, point in zip(basis, points)],
                label,
            )
    return rec


def irreducibility_probe(s: StructureSet, n: int) -> Report:
    """V is irreducible: no cross-Cartan action has a zero neighbour entry.

    One check (``checked`` = 1).  H = span(varphi, phi) has distinct
    weights on the plain monomials (``verify_weight_diagonality``), so an
    H-invariant subspace is spanned by monomials.  If it is
    varphi~-invariant and holds x^lam, it holds x^mu for every mu in the
    support of varphi~ x^lam, which here is every lattice neighbour.  The lattice is connected, so V is
    irreducible under the algebra that H and H~ generate, hence under
    sl3, and x^N generates it.  The tilde side exchanges the two Cartans.

    A move lam + e_i - e_j stays on the lattice iff lam_j > 0.  Its entry is
    lam_j times the (i, j) entry of the operator's matrix, a nonzero entry
    of the expansion matrix (``expansion_coefficients``, nonzero by
    ``params.validate``), so the check reads the structure's own R and
    fails only on a corrupted one.
    """
    points = lattice(n)
    with Report(f"module.irreducibility.N{n}") as rec:
        zero = next(
            (
                f"{label}: zero entry at row {mu}, column {lam}"
                for label, images in _cross_cartan_images(s, n)
                for lam, image in zip(points, images)
                for mu in _neighbours(lam)
                if mu not in image.nums
            ),
            None,
        )
        rec.check(zero is None, zero)
    return rec

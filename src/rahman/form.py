"""The symmetric bilinear form on the degree-N module.

The form is defined once, by its diagonal Gram values on the plain
monomial basis (``BilinearForm.gram``), built on first use.  The tilde
monomials of ``d`` are the plain monomials of ``d.dual()``, so the one
source of every tilde quantity is ``BilinearForm.dual``, the form of
``s.dual()``: its ``gram`` holds the claimed tilde norms and the tilde
dual basis.  The verifiers check those claims through explicit
expansion into the plain basis.  Norms may be negative for some
parameter regimes: the form is bilinear, not an inner product.

That expansion is ``BilinearForm.tilde_columns``: the N-th symmetric
power of R, built once per form over the integers, degree by degree.
Column j of R, scaled by the lcm g_j of its denominators, is an integer
linear form, so x~^rho y~^sigma z~^tau is an integer polynomial over
the one denominator g_0^rho g_1^sigma g_2^tau.  ``p_table`` (what
``rahman table`` prints) weights those integer columns by the Gram
diagonal.  ``BilinearForm.tilde_gram`` pairs every two of them through
the Gram diagonal, scaled to integers over one denominator, so each of
its entries is one integer dot product: tilde_norms and the tilde
duality entries of dual_sums read it instead of calling ``inner``.

P by its defining sum, the side the theorems check ``p_table`` and
the pairings against, is ``BilinearForm.p_matrix``: one D x D matrix of
``eval_P`` values per form, built on first use and read by trans1 (as
the transpose), trans2, pcosines and orthogonality.

A Poly3 carries no coordinate tag.  ``inner`` reads both arguments as
plain coordinates and sums int products over the Gram diagonal, held
once per form as integers over one denominator (``gram_over``, which
``tilde_gram`` reads too); ``expand`` reads its argument as tilde coordinates
and sums their int columns.  The tilde dual basis is ``dual_basis(f.dual)``,
in tilde coordinates.  The tests keep an independent oracle for the
columns: the substitution of the tilde variables, multiplied out over
Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import factorial, lcm
from operator import mul

from .params import DerivedParams, _zero_weight
from .polymodule import (
    DegreeMismatch,
    Poly3,
    _require_degree,
    action,
    lattice,
    lattice_dimension,
    monomials,
)
from .polynomials import eval_P
from .report import Report
from .scalars import format_rational, over_common_denominator
from .sl3 import StructureSet, dagger

__all__ = [
    "BilinearForm",
    "pairing_scale",
    "inner",
    "dual_basis",
    "p_table",
    "verify_adjointness",
    "verify_tilde_norms",
    "verify_dual_sum_identities",
]


def pairing_scale(d: DerivedParams, n: int) -> Fraction:
    """N! nu^N: <x^r y^s z^t, x~^rho y~^sigma z~^tau> = N! nu^N P(s, t, sigma, tau)."""
    return Fraction(factorial(n)) * d.nu**n


class BilinearForm:
    """Diagonal Gram data for degree n: ||x^r y^s z^t||^2 by lattice point."""

    def __init__(self, s: StructureSet, n: int):
        _require_degree(n)
        self.n = n
        self.s = s

    @cached_property
    def gram(self) -> dict:
        """||x^r y^s z^t||^2 = r! s! t! theta^N / (eta~_0^r eta~_1^s eta~_2^t).

        Keyed by lattice point, and built on first use from the fields of
        ``s.d``, each as one Fraction of integer power tables (every factor
        is homogeneous of degree 0 in p1..p4, as in ``derive``).  At N > 0
        a zero eta~ weight raises ZeroDivisionError naming the first one,
        so the verifier reading the Gram fails.
        """
        n, eta_t, theta = self.n, self.s.d.eta_t, self.s.d.theta
        if n and 0 in eta_t:
            raise _zero_weight(eta_t.index(0))
        # k! / eta~_i^k is tops[i][k] / bottoms[i][k].
        tops = [[factorial(k) * e.denominator**k for k in range(n + 1)] for e in eta_t]
        bottoms = [[e.numerator**k for k in range(n + 1)] for e in eta_t]
        theta_top, theta_bottom = theta.numerator**n, theta.denominator**n
        return {
            (r, st, t): Fraction(theta_top * tops[0][r] * tops[1][st] * tops[2][t],
                                 theta_bottom * bottoms[0][r] * bottoms[1][st] * bottoms[2][t])
            for r, st, t in lattice(n)
        }

    @cached_property
    def p_matrix(self) -> list:
        """P(s, t | sigma, tau) by ``eval_P``, the defining sum: rows (s, t),
        columns (sigma, tau), in lattice order; built on first use.

        ``DerivedParams.dual`` swaps u and v, and the sum is symmetric under
        that swap with (s, t) and (sigma, tau) exchanged, so the dual form's
        P is this transpose, for any constants.  It shares no code with
        ``p_table`` or ``inner``, the other sides of its checks.
        """
        d, n, points = self.s.d, self.n, lattice(self.n)
        return [[eval_P(a, b, c, e, d, n) for (_, c, e) in points] for (_, a, b) in points]

    @cached_property
    def gram_over(self) -> tuple:
        """The Gram diagonal over the ints: ({lattice point: numerator}, den),
        den the lcm of its denominators.  Read by ``inner`` and
        ``tilde_gram``; reading it reads ``gram``."""
        points = lattice(self.n)
        numerators, den = over_common_denominator(self.gram[key] for key in points)
        return dict(zip(points, numerators)), den

    @cached_property
    def dual(self) -> "BilinearForm":
        """The form of ``s.dual()``: its ``gram`` holds the tilde norms."""
        return BilinearForm(self.s.dual(), self.n)

    @cached_property
    def tilde_columns(self) -> dict:
        """Sym^N(R) over the integers: every degree-N tilde monomial in the
        plain basis, as (numerators in lattice order, denominator).

        Each degree-k tilde monomial is a degree-(k-1) one times one tilde
        variable.  The lattice index of (r, s, t) is ``_lattice_index``,
        a(a+1)/2 + t with a = s + t, whatever the degree, so multiplying by
        x, y or z moves index i to i, i + a + 1 or i + a + 2.
        """
        R = self.s.R
        linear, scales = zip(
            *(over_common_denominator(R[i, j] for i in range(3)) for j in range(3))
        )
        level = {(0, 0, 0): ([1], 1)}
        for k in range(1, self.n + 1):
            shifts = [st + t + 1 for (_, st, t) in lattice(k - 1)]
            previous, level = level, {}
            for rho, sigma, tau in lattice(k):
                if rho:
                    j, source = 0, (rho - 1, sigma, tau)
                elif sigma:
                    j, source = 1, (0, sigma - 1, tau)
                else:
                    j, source = 2, (0, 0, tau - 1)
                numerators, denominator = previous[source]
                cx, cy, cz = linear[j]
                out = [0] * lattice_dimension(k)
                for i, (value, shift) in enumerate(zip(numerators, shifts)):
                    if value:
                        out[i] += cx * value
                        out[i + shift] += cy * value
                        out[i + shift + 1] += cz * value
                level[rho, sigma, tau] = (out, denominator * scales[j])
        return level

    @cached_property
    def tilde_gram(self) -> list:
        """<x~^lambda, x~^mu> for every two tilde monomials, rows and columns
        in lattice order: the tilde Gram matrix E^T G E.

        E is ``tilde_columns`` and G the Gram diagonal over one common
        denominator, so each entry is one integer dot product over one
        denominator; the matrix is symmetric, and each pair is summed once.
        Reading it reads ``gram``, so a zero eta~ weight fails the first
        check that reads it.
        """
        columns = list(self.tilde_columns.values())
        weights, den = self.gram_over
        weights = list(weights.values())
        table = [[None] * len(columns) for _ in columns]
        for i, (left, left_den) in enumerate(columns):
            weighted = list(map(mul, weights, left))
            for j in range(i, len(columns)):
                right, right_den = columns[j]
                table[i][j] = table[j][i] = Fraction(
                    sum(map(mul, weighted, right)), den * left_den * right_den
                )
        return table

    def expand(self, xi: Poly3) -> Poly3:
        """Plain coordinates of a degree-n polynomial in tilde coordinates."""
        self._require_its_degree(xi)
        points = lattice(self.n)
        den = lcm(*(self.tilde_columns[key][1] for key in xi.nums))
        out: dict = {}
        for key, value in xi.nums.items():
            numerators, column_den = self.tilde_columns[key]
            top = value * (den // column_den)
            for point, entry in zip(points, numerators):
                if entry:
                    out[point] = out.get(point, 0) + top * entry
        return Poly3._over(out, den * xi.den, self.n)

    def _require_its_degree(self, xi: Poly3) -> None:
        if xi.nums and xi.degree != self.n:
            raise DegreeMismatch(f"degree {xi.degree}, form has degree {self.n}")

    def gram_json(self) -> list:
        return [format_rational(self.gram[key]) for key in lattice(self.n)]


_ZERO = Fraction(0)


def inner(xi: Poly3, zeta: Poly3, f: BilinearForm) -> Fraction:
    """Evaluate the form on two polynomials in plain coordinates.

    One integer sum over the Gram diagonal of ``f.gram_over`` and one
    Fraction.  A polynomial in tilde coordinates is paired through
    ``f.expand``.
    """
    f._require_its_degree(xi)
    f._require_its_degree(zeta)
    keys = xi.nums.keys() & zeta.nums.keys()
    if not keys:  # the Gram is read only where the supports meet
        return _ZERO
    weights, den = f.gram_over
    left, right = xi.nums, zeta.nums
    total = sum(weights[key] * left[key] * right[key] for key in keys)
    return Fraction(total, den * xi.den * zeta.den)


def dual_basis(f: BilinearForm) -> list:
    """The basis dual to the monomial basis: each monomial over its norm.

    The tilde dual basis, in tilde coordinates, is ``dual_basis(f.dual)``.
    """
    gram = f.gram
    return [Poly3._over({point: gram[point].denominator}, gram[point].numerator, f.n)
            for point in lattice(f.n)]


def p_table(f: BilinearForm) -> list:
    """P(s, t, sigma, tau) for all index pairs, rows (s, t), columns (sigma, tau).

    By the pairing theorem <x^r y^s z^t, x~^rho y~^sigma z~^tau> =
    N! nu^N P(s, t, sigma, tau), so column (sigma, tau) is the plain
    expansion of x~^rho y~^sigma z~^tau weighted by the Gram diagonal:
    one integer column of ``f.tilde_columns`` and one division per entry.
    trans1 and trans2 check it by ``eval_P``.
    """
    scale = pairing_scale(f.s.d, f.n)
    weights = [f.gram[key] / scale for key in lattice(f.n)]
    columns = list(f.tilde_columns.values())
    return [
        [
            Fraction(weight.numerator * numerators[row], weight.denominator * denominator)
            for numerators, denominator in columns
        ]
        for row, weight in enumerate(weights)
    ]


def verify_adjointness(f: BilinearForm) -> Report:
    """<beta xi, zeta> = <xi, beta^dagger zeta> over the whole basis grid.

    ``checked`` = 8 D^2, D = (N+1)(N+2)/2: 8 basis elements beta, D
    monomials xi and D monomials zeta.
    """
    s, n = f.s, f.n
    basis = monomials(n)
    with Report(f"form.adjointness.N{n}") as rec:
        for name, beta in s.cartan_basis().items():
            on_beta = action(beta)
            on_dagger = action(dagger(beta, s))
            dagger_images = [on_dagger(zeta) for zeta in basis]
            for xi in basis:
                image = on_beta(xi)
                for zeta, zeta_image in zip(basis, dagger_images):
                    rec.equal(
                        inner(image, zeta, f),
                        inner(xi, zeta_image, f),
                        lambda: f"beta={name}, xi={xi.coeffs}, zeta={zeta.coeffs}",
                    )
    return rec


def verify_tilde_norms(f: BilinearForm) -> Report:
    """Tilde monomials are orthogonal, with the norms ``f.dual.gram``.

    Oracle: plain-basis expansion plus the defining Gram data, read off
    ``f.tilde_gram``.  ``checked`` = D(D+1)/2, one per pair lam <= mu.
    """
    n = f.n
    points = lattice(n)
    with Report(f"form.tilde_norms.N{n}") as rec:
        norms = f.dual.gram
        table = f.tilde_gram
        for i, lam in enumerate(points):
            for mu, value in zip(points[i:], table[i][i:]):
                if lam == mu:
                    rec.equal(value, norms[lam], lambda: f"norm at {lam}")
                else:
                    rec.equal(value, Fraction(0), lambda: f"orthogonality at {lam}, {mu}")
    return rec


def verify_dual_sum_identities(f: BilinearForm) -> Report:
    """Both uniform dual-sum identities, at scale N! nu^N, and both dualities.

    The sum of the plain dual basis reconstructs x~^N, and symmetrically
    the sum of the tilde dual basis reconstructs x^N: pairing x^N with
    any tilde monomial gives the same value N! nu^N, so its tilde-dual
    coordinates are constant (and the mirror argument on the plain side).
    The tilde side is the plain side of ``f.dual``, the form of the
    swapped structure; each duality check reads its side's Gram matrix.
    ``checked`` = 2 D^2 + 2: two sums and two D x D dualities.
    """
    n = f.n
    scale = pairing_scale(f.s.d, n)
    points = lattice(n)
    with Report(f"form.dual_sums.N{n}") as rec:
        plain_duals = dual_basis(f)
        rec.equal(
            f.expand(Poly3.monomial(n, 0, 0)),
            sum(plain_duals, Poly3.zero()).scale(scale),
            "plain dual sum vs x~^N",
        )
        tilde_duals = dual_basis(f.dual)
        rec.equal(
            Poly3.monomial(n, 0, 0),
            f.expand(sum(tilde_duals, Poly3.zero()).scale(scale)),
            "tilde dual sum vs x^N",
        )

        # Duality itself: pairing each basis with its claimed dual is the
        # identity matrix.  A dual vector is one monomial times one
        # coefficient, so each pairing is a Gram entry times it: the plain
        # Gram diagonal, or the tilde Gram matrix.
        zero = Fraction(0)
        plain_gram = [[f.gram[lam] if lam == mu else zero for mu in points] for lam in points]
        for side, gram, duals in (
            ("plain", plain_gram, plain_duals),
            ("tilde", f.tilde_gram, tilde_duals),
        ):
            for i, row in enumerate(gram):
                for j, (value, dual) in enumerate(zip(row, duals)):
                    (coefficient,) = dual.nums.values()
                    den = value.denominator * dual.den
                    rec.equal_over(
                        value.numerator * coefficient,
                        int(i == j) * den,
                        den,
                        lambda: f"{side} duality entry ({i},{j})",
                    )
    return rec

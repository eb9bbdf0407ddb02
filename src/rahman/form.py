"""The symmetric bilinear form on the degree-N module.

The form is defined once, by its diagonal Gram values on the plain
monomial basis (``gram_diagonal``), built on first use.  The tilde
monomials of ``d`` are the plain monomials of ``d.dual()``, so their
claimed norms and their dual basis come from the same formula on
``d.dual()``; the verifiers check those claims through explicit
expansion into the plain basis.  Norms may be negative for some
parameter regimes: the form is bilinear, not an inner product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import factorial

from .params import DerivedParams
from .polymodule import (
    DegreeMismatch,
    Poly3,
    action,
    expand_tilde_monomial_direct,
    lattice,
)
from .report import Recorder, Report
from .scalars import format_rational
from .sl3 import StructureSet, dagger

__all__ = [
    "BilinearForm",
    "gram_diagonal",
    "inner",
    "dual_basis",
    "p_table",
    "verify_adjointness",
    "verify_tilde_norms",
    "verify_dual_sum_identities",
]


def gram_diagonal(d: DerivedParams, n: int) -> dict:
    """||x^r y^s z^t||^2 = r! s! t! theta^N / (eta~_0^r eta~_1^s eta~_2^t).

    Keyed by lattice point.  On ``d.dual()`` these are the norms of the
    tilde monomials of ``d``.
    """
    eta_t = d.eta_t
    theta_n = d.theta**n
    return {
        (r, st, t): Fraction(factorial(r) * factorial(st) * factorial(t))
        * theta_n
        / (eta_t[0] ** r * eta_t[1] ** st * eta_t[2] ** t)
        for (r, st, t) in lattice(n)
    }


class BilinearForm:
    """Diagonal Gram data for degree n: ||x^r y^s z^t||^2 by lattice point."""

    def __init__(self, s: StructureSet, n: int):
        if n < 0:
            raise ValueError("degree must be nonnegative")
        self.n = n
        self.s = s
        # Cache for tilde-monomial expansions; they are dense and reused
        # heavily by the theorem verifiers.
        self._tilde_cache: dict = {}

    @cached_property
    def gram(self) -> dict:
        """Built on first use: a zero eta~ weight fails the verifier reading it."""
        return gram_diagonal(self.s.d, self.n)

    def expand(self, xi: Poly3) -> Poly3:
        """Plain-basis coordinates of a polynomial in either basis."""
        if xi.kind == "plain":
            return xi
        result = Poly3.zero()
        for key, coeff in xi.coeffs.items():
            if key not in self._tilde_cache:
                self._tilde_cache[key] = expand_tilde_monomial_direct(*key, self.s)
            result = result + self._tilde_cache[key].scale(coeff)
        return result

    def gram_json(self) -> list:
        return [format_rational(self.gram[key]) for key in lattice(self.n)]


def inner(xi: Poly3, zeta: Poly3, f: BilinearForm) -> Fraction:
    """Evaluate the form; tilde inputs are expanded to plain coordinates."""
    for arg in (xi, zeta):
        if not arg.is_zero() and arg.degree != f.n:
            raise DegreeMismatch(f"degree {arg.degree}, form has degree {f.n}")
    left = f.expand(xi)
    right = f.expand(zeta)
    keys = left.coeffs.keys() & right.coeffs.keys()
    return sum(
        (f.gram[key] * left.coeffs[key] * right.coeffs[key] for key in keys),
        Fraction(0),
    )


def dual_basis(f: BilinearForm, kind: str = "plain") -> list:
    """The basis dual to the monomial basis of the chosen kind.

    Each dual vector is a monomial over its norm: the Gram value of
    ``d`` for the plain kind, and of ``d.dual()`` for the tilde kind.
    """
    if kind == "plain":
        norms = f.gram
    elif kind == "tilde":
        norms = gram_diagonal(f.s.d.dual(), f.n)
    else:
        raise ValueError(f"unknown basis kind {kind!r}")
    return [
        Poly3.monomial(*point, 1 / norms[point], kind=kind) for point in lattice(f.n)
    ]


def p_table(f: BilinearForm) -> list:
    """P(s, t, sigma, tau) for all index pairs, rows (s, t), columns (sigma, tau).

    By the pairing theorem <x^r y^s z^t, x~^rho y~^sigma z~^tau> =
    N! nu^N P(s, t, sigma, tau), so column (sigma, tau) is the plain
    expansion of x~^rho y~^sigma z~^tau weighted by the Gram diagonal:
    the N-th symmetric power of R, one expansion per column instead of
    one defining sum per entry.  trans1 and trans2 check it by ``eval_P``.
    """
    points = lattice(f.n)
    scale = Fraction(factorial(f.n)) * f.s.d.nu**f.n
    weights = [f.gram[key] / scale for key in points]
    columns = [f.expand(Poly3.monomial(*point, kind="tilde")) for point in points]
    return [
        [weight * column[key] for column in columns]
        for key, weight in zip(points, weights)
    ]


def verify_adjointness(f: BilinearForm) -> Report:
    """<beta xi, zeta> = <xi, beta^dagger zeta> over the whole basis grid."""
    s, n = f.s, f.n
    monomials = [Poly3.monomial(*point) for point in lattice(n)]
    with Recorder(f"form.adjointness.N{n}") as rec:
        for name, beta in s.cartan_basis().items():
            on_beta = action(beta, s)
            on_dagger = action(dagger(beta, s), s)
            dagger_images = [on_dagger(zeta) for zeta in monomials]
            for xi in monomials:
                image = on_beta(xi)
                for zeta, zeta_image in zip(monomials, dagger_images):
                    rec.equal(
                        inner(image, zeta, f),
                        inner(xi, zeta_image, f),
                        f"beta={name}, xi={xi.coeffs}, zeta={zeta.coeffs}",
                    )
    return rec.report()


def verify_tilde_norms(f: BilinearForm) -> Report:
    """Tilde monomials are orthogonal, with the Gram values of ``d.dual()``.

    Oracle: plain-basis expansion plus the defining Gram data.
    """
    n = f.n
    points = lattice(n)
    with Recorder(f"form.tilde_norms.N{n}") as rec:
        norms = gram_diagonal(f.s.d.dual(), n)
        for i, lam in enumerate(points):
            for mu in points[i:]:
                value = inner(
                    Poly3.monomial(*lam, kind="tilde"),
                    Poly3.monomial(*mu, kind="tilde"),
                    f,
                )
                if lam == mu:
                    rec.equal(value, norms[lam], f"norm at {lam}")
                else:
                    rec.equal(value, Fraction(0), f"orthogonality at {lam}, {mu}")
    return rec.report()


def verify_dual_sum_identities(f: BilinearForm) -> Report:
    """Both uniform dual-sum identities, at scale N! nu^N.

    The sum of the plain dual basis reconstructs x~^N, and symmetrically
    the sum of the tilde dual basis reconstructs x^N: pairing x^N with
    any tilde monomial gives the same value N! nu^N, so its tilde-dual
    coordinates are constant (and the mirror argument on the plain side).
    """
    n = f.n
    scale = Fraction(factorial(n)) * f.s.d.nu**n
    with Recorder(f"form.dual_sums.N{n}") as rec:
        plain_sum = Poly3.zero()
        for vector in dual_basis(f, "plain"):
            plain_sum = plain_sum + vector
        rec.equal(
            f.expand(Poly3.monomial(n, 0, 0, kind="tilde")),
            plain_sum.scale(scale),
            "plain dual sum vs x~^N",
        )

        tilde_sum = Poly3.zero(kind="tilde")
        for vector in dual_basis(f, "tilde"):
            tilde_sum = tilde_sum + vector
        rec.equal(
            Poly3.monomial(n, 0, 0),
            f.expand(tilde_sum.scale(scale)),
            "tilde dual sum vs x^N",
        )

        # Duality itself: pairing each basis with its claimed dual is the
        # identity matrix.
        for kind in ("plain", "tilde"):
            duals = dual_basis(f, kind)
            monomials = [Poly3.monomial(*pt, kind=kind) for pt in lattice(n)]
            for i, xi in enumerate(monomials):
                for j, eta_vec in enumerate(duals):
                    rec.equal(
                        inner(xi, eta_vec, f),
                        Fraction(int(i == j)),
                        f"{kind} duality entry ({i},{j})",
                    )
    return rec.report()

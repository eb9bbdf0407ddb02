"""The 3x3 structural layer: both Cartan subalgebras and the dagger map.

A structure is p, its constants d, the transition matrix R between the
plain and tilde coordinates, and R^-1; U and the weight matrices W, W~
follow from d and are formed on first read.  Every one of them is formed
once, over the ints: ``build`` writes U, R = theta~ W~ U^t and
R^-1 = theta W U as integer rows over one denominator each, and the
integer factors k_i / k_j of eta~ that ``dagger`` reads on every call are
a per-structure ``cached_property``.  The plain Cartan basis
elements and the matrix units are ``StructureSet`` class constants
(``varphi``, ``phi``, ``psi``, ``e``).  Their tilde conjugates R m R^-1 are
built on first read from the structure's own R and R^-1, so a structure
that only feeds ``rahman table`` never forms them.  The paper's table of
varphi~ in the plain basis, transcribed over the cleared integers P1..P4
with its eight entries over one denominator, gives varphi~ and phi~ as
matrices (``expansion_coefficients``), which the recurrences apply to the
module.
The verifiers in this module check the identities that tie these objects
together, always comparing an independently computed left side against
a closed form.

Duality is one rule at every layer: ``dual()`` swaps, and nothing is
rebuilt.  ``StructureSet.dual()`` swaps p2 and p3, the plain and tilde
constants, and R and R^-1, so whatever a structure holds, corrupted or
not, its dual holds on the other side, U, W and W~ included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from types import MappingProxyType

from .matrices import Mat
from .params import DerivedParams, ParameterSet, _cleared, _zero_weight, derive, validate
from .report import Report
from .scalars import over_common_denominator

__all__ = [
    "NotTraceless",
    "StructureSet",
    "build",
    "dagger",
    "r_closed_form",
    "expansion_coefficients",
    "verify_matrices",
    "verify_dagger",
    "verify_expansions",
    "verify_generation",
]

OFF_DIAGONAL = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]

_THIRD = Fraction(1, 3)
_IDENTITY = Mat.identity()


class NotTraceless(ValueError):
    """Raised when an operation requires a trace-zero matrix."""


def _require_traceless(beta: Mat) -> None:
    """Raise NotTraceless unless beta has trace 0, read off the int diagonal."""
    nums = beta.nums
    if nums[0][0] + nums[1][1] + nums[2][2]:
        raise NotTraceless(f"trace is {beta.trace()}, expected 0")


@dataclass(frozen=True)
class StructureSet:
    p: ParameterSet
    d: DerivedParams
    R: Mat
    Rinv: Mat

    # Parameter-free, and shared: a Mat is immutable.
    varphi = Mat.diag([-_THIRD, 2 * _THIRD, -_THIRD])
    phi = Mat.diag([-_THIRD, -_THIRD, 2 * _THIRD])
    psi = -varphi - phi
    e = MappingProxyType({(i, j): Mat.unit(i, j) for i, j in OFF_DIAGONAL})  # e_ij, i != j

    # U, W = diag(eta) and W~ = diag(eta~) follow from the constants alone.
    @cached_property
    def U(self) -> Mat:
        return _u(self.d)

    @cached_property
    def W(self) -> Mat:
        return _weighted(1, self.d.eta, _IDENTITY)

    @cached_property
    def Wt(self) -> Mat:
        return _weighted(1, self.d.eta_t, _IDENTITY)

    @cached_property
    def dagger_factors(self) -> tuple:
        """(factors, scale, zeros), which ``dagger`` reads on every call:
        with eta~ = k / g over the ints and scale the lcm of the nonzero
        k_j, factors[i][j] = k_i (scale // k_j), and zeros lists the j with
        k_j = 0, whose factors are 0."""
        k, _ = over_common_denominator(self.d.eta_t)
        scale = lcm(*filter(None, k))
        factors = tuple(tuple(k[i] * (scale // k[j]) if k[j] else 0 for j in range(3))
                        for i in range(3))
        return factors, scale, tuple(j for j in range(3) if not k[j])

    @cached_property
    def e_t(self) -> dict:
        """(i, j) -> R e_ij R^-1."""
        return {key: self.R @ unit @ self.Rinv for key, unit in self.e.items()}

    @cached_property
    def varphi_t(self) -> Mat:
        """R varphi R^-1."""
        return self.R @ self.varphi @ self.Rinv

    @cached_property
    def phi_t(self) -> Mat:
        """R phi R^-1."""
        return self.R @ self.phi @ self.Rinv

    @cached_property
    def psi_t(self) -> Mat:
        """-varphi_t - phi_t."""
        return -self.varphi_t - self.phi_t

    def cartan_basis(self) -> dict:
        """The 8-element spanning set used by the dagger and bracket checks."""
        basis = {f"e{i}{j}": self.e[i, j] for i, j in OFF_DIAGONAL}
        basis["varphi"] = self.varphi
        basis["phi"] = self.phi
        return basis

    def tilde_basis(self) -> dict:
        basis = {f"e~{i}{j}": self.e_t[i, j] for i, j in OFF_DIAGONAL}
        basis["varphi~"] = self.varphi_t
        basis["phi~"] = self.phi_t
        return basis

    def dual(self) -> "StructureSet":
        """The structure of ``p.dual()``: every field swapped, nothing rebuilt.

        Read in this structure's tilde coordinates, it is this structure
        with the plain and tilde sides exchanged: the constants swap (as
        ``DerivedParams.dual``) and R and R^-1 swap, so U, W and W~, read
        off the constants, come out as U^t, W~ and W.  On a built structure
        this is ``build(p.dual(), d.dual())``; a replaced or corrupted field
        carries over, and ``s.dual().dual() == s``.
        """
        return StructureSet(self.p.dual(), self.d.dual(), self.Rinv, self.R)


def _u(d: DerivedParams) -> Mat:
    """U, the one source of ``build`` and ``StructureSet.U``: the entries
    1 - t, 1 - v, 1 - u, 1 - w as ints over the lcm of their denominators."""
    (t, u, v, w), den = over_common_denominator((d.t, d.u, d.v, d.w))
    return Mat._over(((den, den, den), (den, den - t, den - v), (den, den - u, den - w)), den)


def _weighted(c, weights, m: Mat) -> Mat:
    """c diag(weights) m, for rationals c and weights, as one integer
    product over one denominator."""
    k, g = over_common_denominator(weights)
    return Mat._over(
        tuple(tuple(c.numerator * w * x for x in row) for w, row in zip(k, m.nums)),
        c.denominator * g * m.den,
    )


def build(p: ParameterSet, d: DerivedParams | None = None) -> StructureSet:
    """The structure of p: d, R = theta~ W~ U^t and R^-1 = theta W U.

    U, W and W~ follow from d, which may be preset: an inconsistent ``d``
    is allowed on purpose, for the verifiers to catch a corrupted constant.
    """
    if d is None:
        d = derive(p)  # validates p
    else:
        validate(p)

    U = _u(d)
    R = _weighted(d.theta_t, d.eta_t, U.transpose())
    Rinv = _weighted(d.theta, d.eta, U)
    return StructureSet(p, d, R, Rinv)


def dagger(beta: Mat, s: StructureSet) -> Mat:
    """The antiautomorphism: beta -> W~ beta^t W~^-1.

    W~ is diagonal: with eta~ = k / g over the ints, entry (i, j) is
    k_i beta[j][i] / k_j, one product of beta[j][i] and the int
    k_i (scale // k_j) over beta's den times the lcm ``scale`` of the
    nonzero k_j (``s.dagger_factors``, formed once per structure).  A
    nonzero beta[j][i] over eta~_j = 0 raises ZeroDivisionError naming
    eta~_j, the first such in row-major order of the result; a zero one
    gives a zero entry with no division.  Requires a traceless argument;
    fixes both Cartan subalgebras.
    """
    _require_traceless(beta)
    factors, scale, zeros = s.dagger_factors
    if zeros:
        for i in range(3):
            for j in zeros:
                if beta.nums[j][i]:
                    raise _zero_weight(j)
    (f00, f01, f02), (f10, f11, f12), (f20, f21, f22) = factors
    (a, b, c), (d, e, f), (g, h, i) = beta.nums
    return Mat._over((
        (f00 * a, f01 * d, f02 * g),
        (f10 * b, f11 * e, f12 * h),
        (f20 * c, f21 * f, f22 * i),
    ), beta.den * scale)


def r_closed_form(p: ParameterSet) -> Mat:
    """The entrywise closed form of R, transcribed independently of build.

    R^-1 is the closed form of ``p.dual()``.
    """
    p1, p2, p3, p4 = p.as_tuple()
    total = p1 + p2 + p3 + p4
    det = p2 * p3 - p1 * p4
    top = det / ((p1 + p3) * (p2 + p4))
    return Mat([
        [top, top, top],
        [p1 * p3 * total / ((p1 + p3) * det), -p3 / (p1 + p3), p1 / (p1 + p3)],
        [p2 * p4 * total / ((p2 + p4) * det), p4 / (p2 + p4), -p2 / (p2 + p4)],
    ])


def expansion_coefficients(p: ParameterSet) -> tuple:
    """varphi~ and phi~ as matrices, read off their tables in the plain
    basis {e_ij, varphi, phi}: the one source of the expansion matrices.

    ``_varphi_t_table`` transcribes the paper's table of varphi~ over the
    cleared integers P1..P4 of ``p``, which is validated first.  The
    mirror (p3, p4, p1, p2) negates R and exchanges its columns 1 and 2,
    so y~ and z~ and with them varphi~ and phi~: phi~ is the mirror's
    varphi~.  The sides exchange under the dual, so varphi and phi in the
    tilde basis are ``expansion_coefficients(p.dual())``.
    """
    P1, P2, P3, P4 = _cleared(p)
    return tuple(
        _in_plain_basis(*_varphi_t_table(q)) for q in ((P1, P2, P3, P4), (P3, P4, P1, P2))
    )


def _varphi_t_table(p: tuple) -> tuple:
    """The paper's table of varphi~ in the plain basis, for the cleared
    integers p = (P1, .., P4), as (int numerators, den): every entry is
    homogeneous of degree 0, so it is that of p1..p4, and all eight lie
    over the one den a b c g.  "h1" and "h2" are the coefficients of
    varphi and phi."""
    p1, p2, p3, p4 = p
    total = p1 + p2 + p3 + p4
    a, b, c = p1 + p2, p1 + p3, p2 + p4
    g = p2 * p3 - p1 * p4
    return {
        "e01": -p2 * g * g,                   # -p2 g / (a b c)
        "e02": p1 * g * g,                    # p1 g / (a b c)
        "e10": -p1 * p2 * p3 * total * c,     # -p1 p2 p3 T / (a b g)
        "e12": -p1 * p3 * c * g,              # -p1 p3 / (a b)
        "e20": p1 * p2 * p4 * total * b,      # p1 p2 p4 T / (a c g)
        "e21": -p2 * p4 * b * g,              # -p2 p4 / (a c)
        "h1": (p2 * p3 * c - p1 * p2 * total) * g,  # p2 p3 / (a b) - p1 p2 T / (a b c)
        "h2": (p1 * p4 * b - p1 * p2 * total) * g,  # p1 p4 / (a c) - p1 p2 T / (a b c)
    }, a * b * c * g


def _in_plain_basis(table: dict, den: int) -> Mat:
    """The matrix of a table over {e_ij, varphi, phi}, its entries int
    numerators over ``den`` != 0, one int sum per entry: varphi and phi
    are diagonal, over one denominator."""
    sign = -1 if den < 0 else 1
    *units, h1, h2 = (sign * x for x in table.values())
    vp, ph = StructureSet.varphi, StructureSet.phi
    nums = [[h1 * x + h2 * y for x, y in zip(*rows)] for rows in zip(vp.nums, ph.nums)]
    for (i, j), c in zip(OFF_DIAGONAL, units):
        nums[i][j] = c * vp.den
    return Mat._over(tuple(map(tuple, nums)), sign * den * vp.den)


def verify_matrices(s: StructureSet) -> Report:
    """Cross-check R and R^-1 against their closed forms and the W
    identities.  ``checked`` = 5."""
    with Report("structure.matrices") as rec:
        rec.equal(s.R, r_closed_form(s.p), "R factored vs closed form")
        rec.equal(s.Rinv, r_closed_form(s.p.dual()), "R^-1 factored vs closed form")
        rec.equal(s.R @ s.Rinv, _IDENTITY, "R R^-1")
        rec.equal((s.W @ s.U @ s.Wt @ s.U.transpose()).scale(s.d.nu), _IDENTITY, "nu W U W~ U^t")
        rec.equal(s.R @ s.W @ s.R.transpose(), s.Wt.scale(s.d.theta_t / s.d.theta),
                  "R W R^t vs (theta~/theta) W~")
    return rec


def verify_dagger(s: StructureSet) -> Report:
    """Involution, both transformation tables, and the bracket law.

    ``checked`` = 113: involution and trace on 16 elements, 16 table
    entries, the bracket law on 64 pairs, and [varphi~, phi~] = 0.
    """
    plain = s.cartan_basis()
    tilde = s.tilde_basis()
    everything = {**plain, **tilde}

    with Report("structure.dagger") as rec:
        # Each basis element's dagger, computed once and read by every check.
        images = {}
        for name, beta in everything.items():
            images[name] = dagger(beta, s)
            rec.equal(dagger(images[name], s), beta, lambda: f"involution on {name}")
            rec.check(images[name].trace() == 0, lambda: f"trace preserved on {name}")

        # Table 1: e_ij -> e_ji * eta~_j / eta~_i, fixing varphi and phi.
        # Table 2, its tilde mirror: e~_ij -> e~_ji * eta_j / eta_i.
        for table, mark, units, weights in (
            ("table1", "", s.e, s.d.eta_t),
            ("table2", "~", s.e_t, s.d.eta),
        ):
            for (i, j) in OFF_DIAGONAL:
                expected = units[j, i].scale(weights[j] / weights[i])
                rec.equal(images[f"e{mark}{i}{j}"], expected, lambda: f"{table} e{mark}{i}{j}")
            for name in ("varphi" + mark, "phi" + mark):
                rec.equal(images[name], everything[name], f"{table} {name}")

        # Antiautomorphism law over all 64 ordered pairs of the plain basis:
        # [beta, gamma]^dagger = [gamma^dagger, beta^dagger].
        for name_b, beta in plain.items():
            for name_g, gamma in plain.items():
                rec.equal(
                    dagger(beta.bracket(gamma), s),
                    images[name_g].bracket(images[name_b]),
                    lambda: f"bracket law [{name_b},{name_g}]",
                )

        rec.equal(s.varphi_t.bracket(s.phi_t), Mat.zero(), "[varphi~, phi~]")
    return rec


def verify_expansions(s: StructureSet) -> Report:
    """The four long cross-basis expansion identities.

    Each side compares its varphi~ and phi~ (conjugation through its R)
    with the matrices of their tables (``expansion_coefficients``).  On
    ``s.dual()``, whose R is R^-1, that check is varphi and phi in the
    tilde basis.  ``checked`` = 4.
    """
    with Report("structure.expansions") as rec:
        for side, mark in ((s, "~"), (s.dual(), "")):
            tables = expansion_coefficients(side.p)
            for name, target, table in zip(("varphi", "phi"), (side.varphi_t, side.phi_t), tables):
                rec.equal(target, table, f"{name}{mark} expansion")
    return rec


def verify_generation(s: StructureSet) -> Report:
    """The six nested-bracket formulas producing the matrix units.
    ``checked`` = 6."""
    eta_t = s.d.eta_t
    vp, ph = s.varphi, s.phi
    inner_a = s.psi.bracket(s.psi_t)    # [psi, psi~]
    inner_b = ph.bracket(s.psi_t)       # [phi, psi~]

    cases = [
        ("e01", (0, 1), -vp.bracket(inner_a) + vp.bracket(vp.bracket(inner_a)), eta_t[0]),
        ("e10", (1, 0), -vp.bracket(inner_a) - vp.bracket(vp.bracket(inner_a)), eta_t[1]),
        ("e02", (0, 2), -ph.bracket(inner_a) + ph.bracket(ph.bracket(inner_a)), eta_t[0]),
        ("e20", (2, 0), -ph.bracket(inner_a) - ph.bracket(ph.bracket(inner_a)), eta_t[2]),
        ("e12", (1, 2), -vp.bracket(inner_b) - vp.bracket(vp.bracket(inner_b)), eta_t[1]),
        ("e21", (2, 1), -vp.bracket(inner_b) + vp.bracket(vp.bracket(inner_b)), eta_t[2]),
    ]
    with Report("structure.generation") as rec:
        for name, (i, j), numerator, weight in cases:
            rec.equal(numerator.scale(Fraction(1, 2) / weight), s.e[i, j], name)
    return rec

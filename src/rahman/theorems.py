"""One verifier per stated theorem: transitions, cosines, orthogonality,
recurrences, and the operator identities.

Every verifier pairs an independent computation path (symbolic
expansion, the bilinear form, or operator action on the module) against
the theorem's closed form; none compares a formula against itself.
trans1 and trans2 check ``p_table``, the table ``rahman table`` prints,
which reads Sym^N(R) (``f.tilde_columns``); pcosines lowers x~^N by the
sl3 action, which reads R^-1, and pairs by ``inner``; orthogonality weights P
by the Gram diagonals ``f.gram`` and ``f.dual.gram``.

P is read as one D x D matrix of ``eval_P`` values per verifier: rows
(s, t), columns (sigma, tau), in lattice order.  Each theorem about the
tilde side is its plain-side twin for the dual parameters (p2 and p3
swapped), whose P is the transpose: orthogonality relation 2 and
recurrence parts (iii) and (iv) read the transpose, and trans1 and the
front operator identity run the plain-side check on ``s.dual()``.

The orthogonality and recurrence sums run over the integers: each P
column or row, weight vector and coefficient table is scaled once to
integers over one common denominator (``over_common_denominator``), so
each checked value is one integer sum, compared exactly.  A failed check
still names the two Fractions it compared.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import add, mul

from .form import (
    BilinearForm,
    inner,
    p_table,
    pairing_scale,
    verify_adjointness,
    verify_dual_sum_identities,
    verify_tilde_norms,
)
from .params import DerivedParams, ParameterSet
from .polymodule import (
    _MOVES,
    Poly3,
    action,
    irreducibility_probe,
    lattice,
    verify_action_tables,
    verify_block_structure,
    verify_representation_law,
    verify_weight_diagonality,
)
from .polynomials import eval_P, eval_P_operator
from .report import Report
from .sl3 import (
    StructureSet,
    build,
    expansion_coefficients,
    verify_dagger,
    verify_expansions,
    verify_generation,
    verify_matrices,
)
from .scalars import multinomial, over_common_denominator

__all__ = [
    "verify_trans2",
    "verify_trans1",
    "verify_pcosines",
    "verify_orthogonality",
    "verify_recurrences",
    "verify_operator_identities",
    "SUITES",
    "run_suites",
]


def _pairs(n: int) -> list:
    """All (s, t) with s, t >= 0 and s + t <= n, in lattice order."""
    return [(s, t) for (_, s, t) in lattice(n)]


def _p_matrix(d: DerivedParams, n: int) -> list:
    """P(s, t | sigma, tau) by ``eval_P``: rows (s, t), columns (sigma, tau).

    The dual parameters' P is the transpose.
    """
    pairs = _pairs(n)
    return [[eval_P(a, b, c, dd, d, n) for (c, dd) in pairs] for (a, b) in pairs]


def _p_table_against_eval_P(name: str, f: BilinearForm) -> Report:
    """``p_table(f)`` against ``eval_P``, tilde monomial by tilde monomial."""
    points = lattice(f.n)
    with Report(name) as rec:
        p = _p_matrix(f.s.d, f.n)
        table = p_table(f)
        for column, point in enumerate(points):
            for row, key in enumerate(points):
                rec.equal(
                    table[row][column],
                    p[row][column],
                    lambda: f"monomial {point}, coefficient of {key}",
                )
    return rec


def verify_trans2(f: BilinearForm) -> Report:
    """Tilde monomials expanded in the plain basis (the trans2 formula).

    The coefficient of x^r y^s z^t in x~^rho y~^sigma z~^tau is
    N! nu^N P(s, t, sigma, tau) / ||x^r y^s z^t||^2: ``p_table``.
    """
    return _p_table_against_eval_P(f"transitions.trans2.N{f.n}", f)


def verify_trans1(f: BilinearForm) -> Report:
    """Plain monomials expanded in the tilde basis: trans2 on the dual."""
    return _p_table_against_eval_P(f"transitions.trans1.N{f.n}", f.dual)


def verify_pcosines(f: BilinearForm) -> Report:
    """<x^r y^s z^t, x~^rho y~^sigma z~^tau> = N! nu^N P(s, t, sigma, tau).

    Left side by ``inner``, on tilde monomials built by the sl3 action:
    x~^N = sum multinomial(N; r, s, t) R00^r R10^s R20^t x^r y^s z^t,
    lowered sigma times by e~10 = R e_10 R^-1, then tau times by e~20, each
    image divided by the exponent of x~ it lowered (at N = 0 nothing is
    lowered, and no lowering operator is built).  Right side through
    eval_P.  This reads R^-1 and the derivation, never Sym^N(R).
    """
    s, n = f.s, f.n
    scale = pairing_scale(s.d, n)
    points = lattice(n)
    with Report(f"transitions.pcosines.N{n}") as rec:
        p = _p_matrix(s.d, n)
        x0, y0, z0 = (s.R[i, 0] for i in range(3))
        tilde = {(n, 0, 0): Poly3({
            (a, b, c): multinomial(n, (a, b, c)) * x0**a * y0**b * z0**c for (a, b, c) in points
        })}
        by_y, by_z = (action(s.e_t[i, 0]) for i in (1, 2)) if n else (None, None)
        for rho, sigma, tau in points[1:]:
            image = (by_z(tilde[rho + 1, sigma, tau - 1]) if tau
                     else by_y(tilde[rho + 1, sigma - 1, 0]))
            tilde[rho, sigma, tau] = image.scale(Fraction(1, rho + 1))
        for row, point in enumerate(points):
            monomial = Poly3.monomial(*point)
            for column, (key, xi) in enumerate(tilde.items()):
                lhs = inner(monomial, xi, f)
                rec.equal(lhs, scale * p[row][column], lambda: f"pair ({point}, {key})")
    return rec


def verify_orthogonality(f: BilinearForm) -> Report:
    """Both weighted orthogonality relations over all index pairs.

    Relation 1 sums products of two columns of P, weighted by N! theta^N /
    ||x^lambda||^2 = eta~^lambda multinomial(N; lambda); its diagonal right
    side is ||x~^mu||^2 / (N! nu^N theta~^N) = 1 / (k~^mu multinomial(N; mu)).
    Relation 2 is relation 1 with ``f`` and ``f.dual`` exchanged, so it sums
    products of two rows of P (the dual's P is the transpose).  The columns
    and the weights are scaled to integers over one denominator once, so each
    sum is one integer dot product, compared with its right side as integers.
    """
    n, points = f.n, lattice(f.n)
    with Report(f"orthogonality.N{n}") as rec:
        p = _p_matrix(f.s.d, n)
        unit = {g: factorial(n) * g.s.d.theta**n for g in (f, f.dual)}  # N! theta^N
        relations = []
        for label, side, other, columns in (
            ("relation 1", f, f.dual, list(zip(*p))),
            ("relation 2", f.dual, f, p),
        ):
            weights, weight_den = over_common_denominator(
                unit[side] / side.gram[key] for key in points)
            scaled = [over_common_denominator(column) for column in columns]
            weighted = [(list(map(mul, weights, numerators)), weight_den * den)
                        for numerators, den in scaled]
            diagonal = [other.gram[key] / (unit[other] * f.s.d.nu**n) for key in points]
            relations.append((label, scaled, weighted, diagonal))
        for a, (_, s_idx, t_idx) in enumerate(points):
            for b, (_, sigma, tau) in enumerate(points):
                for label, scaled, weighted, diagonal in relations:
                    (left, left_den), (right, right_den) = weighted[a], scaled[b]
                    top, bottom = diagonal[a].as_integer_ratio() if a == b else (0, 1)
                    den = left_den * right_den
                    rec.equal_over(sum(map(mul, left, right)) * bottom, top * den, den * bottom,
                                   lambda: f"{label} at {(s_idx, t_idx, sigma, tau)}")
    return rec


def verify_recurrences(s: StructureSet, n: int) -> Report:
    """The four seven-term recurrences, against direct P evaluation.

    Parts (i) and (ii) shift the back pair (sigma, tau) of P(s, t, sigma,
    tau).  Parts (iii) and (iv) are parts (i) and (ii) of the dual
    parameters, so their failures name the dual's indices (sigma, tau,
    s, t).  The shifted terms are the moves e_i - e_j of mu = (N - sigma -
    tau, sigma, tau), times mu_j.  A move leaves the lattice only if mu_j is
    0, so the zero-counter checks there cannot fail (kept for the count).

    Each P row and each coefficient table is scaled to integers over one
    denominator once, and both sides are multiplied by 3 (clearing the
    N/3 shifts) and by those denominators, so each check compares two
    integers.
    """
    points = lattice(n)
    index = {point: position for position, point in enumerate(points)}
    # Per column mu, per move (i, j): key, counter mu_j, column of the move.
    stencils = [
        [(f"e{i}{j}", mu[j], index.get(tuple(map(add, mu, move))))
         for (i, j), move in _MOVES.items()]
        for mu in points
    ]

    with Report(f"recurrences.N{n}") as rec:
        p = _p_matrix(s.d, n)
        # (part, scaled coefficient table and its denominator, index of
        # the eigenvalue in (s, t), scaled P rows).  Parts (i) and (ii)
        # expand varphi and phi in the tilde basis: the varphi~ and phi~
        # tables of the dual parameters.
        parts = []
        for (first, second), q, p_side in (
            (("i", "ii"), s.p.dual(), p),
            (("iii", "iv"), s.p, list(zip(*p))),
        ):
            rows = [over_common_denominator(p_row) for p_row in p_side]
            for name, coeffs, eig in zip((first, second), expansion_coefficients(q), (0, 1)):
                numerators, den = over_common_denominator(coeffs.values())
                parts.append((name, dict(zip(coeffs, numerators)), den, eig, rows))

        for row, (_, s_idx, t_idx) in enumerate(points):
            for column, ((_, sigma, tau), stencil) in enumerate(zip(points, stencils)):
                for name, coeffs, coeff_den, eig, rows in parts:
                    p_row, p_den = rows[row]
                    base = p_row[column]
                    total = (
                        (3 * sigma - n) * coeffs["h1"] + (3 * tau - n) * coeffs["h2"]
                    ) * base
                    for key, factor, shifted in stencil:
                        if shifted is None:
                            rec.check(
                                factor == 0,
                                lambda: f"part ({name}) at {(s_idx, t_idx, sigma, tau)}: "
                                f"out-of-range term {key} has nonzero counter {factor}",
                            )
                            continue
                        if factor == 0:
                            continue
                        total += 3 * factor * coeffs[key] * p_row[shifted]

                    rec.equal_over(
                        (3 * (s_idx, t_idx)[eig] - n) * coeff_den * base,
                        total,
                        3 * coeff_den * p_den,
                        lambda: f"part ({name}) at {(s_idx, t_idx, sigma, tau)}",
                    )
    return rec


def verify_operator_identities(s: StructureSet, n: int) -> Report:
    """P with Cartan-shifted operator arguments maps x^N onto each monomial.

    The back identity P(s, t, varphi~ + N/3, phi~ + N/3) x^N = x^r y^s z^t
    acts on plain monomials; the front identity is the back identity of
    the dual, which acts on tilde monomials.  Each side is one
    ``eval_P_operator`` call over every (s, t), so CD = DC is checked
    once per side.
    """
    pairs = _pairs(n)
    third = Fraction(n, 3)
    start = Poly3.monomial(n, 0, 0)

    def shifted(beta):
        apply = action(beta)
        return lambda m: apply(m) + m.scale(third)

    with Report(f"operators.N{n}") as rec:
        images = []
        for label, side in (("back", s), ("front", s.dual())):
            ops = (shifted(side.varphi_t), shifted(side.phi_t))
            images.append((label, eval_P_operator(pairs, ops, start, side.d, n)))
        for index, (s_idx, t_idx) in enumerate(pairs):
            target = Poly3.monomial(n - s_idx - t_idx, s_idx, t_idx)
            for label, side_images in images:
                rec.equal(
                    side_images[index],
                    target,
                    lambda: f"{label} identity at (s,t)={(s_idx, t_idx)}",
                )
    return rec


SUITES = {
    "structure": lambda s, f, n: [
        verify_matrices(s),
        verify_dagger(s),
        verify_expansions(s),
        verify_generation(s),
    ],
    "module": lambda s, f, n: [
        verify_action_tables(s, n),
        verify_representation_law(s, n),
        verify_weight_diagonality(s, n),
        verify_block_structure(s, n),
        irreducibility_probe(s, n),
    ],
    "form": lambda s, f, n: [
        verify_adjointness(f),
        verify_tilde_norms(f),
        verify_dual_sum_identities(f),
    ],
    "transitions": lambda s, f, n: [
        verify_trans1(f),
        verify_trans2(f),
        verify_pcosines(f),
    ],
    "orthogonality": lambda s, f, n: [verify_orthogonality(f)],
    "recurrence": lambda s, f, n: [verify_recurrences(s, n)],
    "operators": lambda s, f, n: [verify_operator_identities(s, n)],
}

def run_suites(p: ParameterSet, n: int, names=("all",)) -> list:
    """Run the named verification suites and return their Reports.

    "all" anywhere in ``names`` runs every suite.  An unknown name raises
    ValueError before anything is built.
    """
    names = list(names)
    for name in names:
        if name != "all" and name not in SUITES:
            raise ValueError(
                f"unknown suite {name!r}; choose from all, {', '.join(SUITES)}"
            )
    selected = list(SUITES) if "all" in names else names

    s = build(p)
    f = BilinearForm(s, n)
    reports = []
    for name in selected:
        reports.extend(SUITES[name](s, f, n))
    return reports

"""Each P and form verifier's Report on one targeted corruption, the
irreducibility probe's on an identity R, block structure's and the
representation law's on one shifted entry of R, the tilde side's trace
failure on a shifted eta~_0, and the dagger and adjointness Reports on a
zeroed eta~_i, pinned verbatim: name, status, checked count and
first-failure text.

The expected tuples were taken from the Fraction-by-Fraction verifiers
(every product its own Fraction); the integer sums over common
denominators must fail at the same check with the same text.
"""

import dataclasses
from fractions import Fraction
from math import lcm

import pytest

from rahman import theorems
from rahman.form import (
    BilinearForm,
    verify_adjointness,
    verify_dual_sum_identities,
    verify_tilde_norms,
)
from rahman.matrices import Mat
from rahman.params import ParameterSet
from rahman.polymodule import (
    irreducibility_probe,
    verify_action_tables,
    verify_block_structure,
    verify_representation_law,
    verify_weight_diagonality,
)
from rahman.sl3 import build, verify_dagger

from conftest import EVAL_P_READERS, EXPANSION_BASIS, with_corrupted_eta_t

REFERENCE = ParameterSet.of(1, 2, 3, 5)
NEGATIVE = ParameterSet.of(Fraction(-3, 2), 5, Fraction(1, 2), -3)


def _wrong_p_entry(patch):
    """P(1, 0 | 0, 1) off by one wherever the verifiers read eval_P."""
    eval_P = theorems.eval_P

    def wrong(a, b, c, d, derived, n):
        return eval_P(a, b, c, d, derived, n) + ((a, b, c, d) == (1, 0, 0, 1))

    for module in EVAL_P_READERS:
        patch(module, "eval_P", wrong)


def _wrong_expansion_coefficient(patch):
    """The varphi~ table's e01 entry off by one, for p and for p.dual()."""
    expansion_coefficients = theorems.expansion_coefficients

    def wrong(p):
        varphi, phi = expansion_coefficients(p)
        return varphi + EXPANSION_BASIS["e01"], phi

    patch(theorems, "expansion_coefficients", wrong)


def _doubled_tilde_norm(f):
    f.dual.gram[(0, 1, 1)] *= 2


def _doubled_plain_norm(f):
    """Adjointness reads no R, only the action and the plain Gram data."""
    f.gram[(1, 1, 0)] *= 2


def _balanced_tilde_columns(f):
    """Add ||x~^mu||^2 x^N to the column of x~^mu for mu = (0,2,0), and
    subtract it for mu = (0,1,1): the sum of the tilde dual basis and the
    column of x~^N stay as they are, so only the tilde pairings change."""
    for mu, sign in (((0, 2, 0), 1), ((0, 1, 1), -1)):
        numerators, den = f.tilde_columns[mu]
        values = [Fraction(value, den) for value in numerators]
        values[0] += sign * f.dual.gram[mu]
        scale = lcm(*(value.denominator for value in values))
        f.tilde_columns[mu] = ([int(value * scale) for value in values], scale)


def _zeroed_eta_t_0(p, n):
    s = build(p)
    return BilinearForm(with_corrupted_eta_t(s, 0, -s.d.eta_t[0]), n)


# id: (parameters, patch of the theorems module, corruption of the form,
# verifier); every case runs at N=2 unless its form says otherwise.
CASES = {
    "orthogonality-wrong-P": (
        _wrong_p_entry, None, theorems.verify_orthogonality),
    "recurrences-wrong-e01": (
        _wrong_expansion_coefficient, None, lambda f: theorems.verify_recurrences(f.s, f.n)),
    "pcosines-wrong-P": (_wrong_p_entry, None, theorems.verify_pcosines),
    "tilde_norms-doubled-norm": (None, _doubled_tilde_norm, verify_tilde_norms),
    "dual_sums-doubled-norm": (None, _doubled_tilde_norm, verify_dual_sum_identities),
    "dual_sums-balanced-columns": (
        None, _balanced_tilde_columns, verify_dual_sum_identities),
    "adjointness-doubled-plain-norm": (None, _doubled_plain_norm, verify_adjointness),
}


def run_case(case: str, p: ParameterSet, patch) -> tuple:
    patch_theorems, corrupt, verifier = CASES[case]
    if patch_theorems is not None:
        patch_theorems(patch)
    f = BilinearForm(build(p), 2)
    if corrupt is not None:
        corrupt(f)
    report = verifier(f)
    return report.name, report.status, report.checked, report.first_failure


EXPECTED = {
    ("orthogonality-wrong-P", "1,2,3,5"): (
        "orthogonality.N2", "fail", 72,
        "relation 2 at (0, 0, 1, 0): Fraction(55, 25088) != Fraction(0, 1)",
    ),
    ("orthogonality-wrong-P", "-3/2,5,1/2,-3"): (
        "orthogonality.N2", "fail", 72,
        "relation 2 at (0, 0, 1, 0): Fraction(-24, 175) != Fraction(0, 1)",
    ),
    ("recurrences-wrong-e01", "1,2,3,5"): (
        "recurrences.N2", "fail", 576,
        "part (i) at (0, 0, 1, 0): Fraction(-2, 3) != Fraction(1, 3)",
    ),
    ("recurrences-wrong-e01", "-3/2,5,1/2,-3"): (
        "recurrences.N2", "fail", 576,
        "part (i) at (0, 0, 1, 0): Fraction(-2, 3) != Fraction(1, 3)",
    ),
    ("pcosines-wrong-P", "1,2,3,5"): (
        "transitions.pcosines.N2", "fail", 36,
        "pair ((1, 1, 0), (1, 0, 1)): Fraction(5117952, 11) != Fraction(15052800, 11)",
    ),
    ("pcosines-wrong-P", "-3/2,5,1/2,-3"): (
        "transitions.pcosines.N2", "fail", 36,
        "pair ((1, 1, 0), (1, 0, 1)): Fraction(-3675, 64) != Fraction(-1225, 64)",
    ),
    ("tilde_norms-doubled-norm", "1,2,3,5"): (
        "form.tilde_norms.N2", "fail", 21,
        "norm at (0, 1, 1): Fraction(1806336, 605) != Fraction(3612672, 605)",
    ),
    ("tilde_norms-doubled-norm", "-3/2,5,1/2,-3"): (
        "form.tilde_norms.N2", "fail", 21,
        "norm at (0, 1, 1): Fraction(-8575, 144) != Fraction(-8575, 72)",
    ),
    ("dual_sums-doubled-norm", "1,2,3,5"): (
        "form.dual_sums.N2", "fail", 74,
        "tilde dual sum vs x^N: Poly3({(2, 0, 0): Fraction(1, 1)}) != "
        "Poly3({(2, 0, 0): Fraction(2531, 3136), (1, 1, 0): Fraction(605, 224), "
        "(1, 0, 1): Fraction(-1815, 784), (0, 2, 0): Fraction(1815, 64), "
        "(0, 1, 1): Fraction(-6655, 112), (0, 0, 2): Fraction(3025, 98)})",
    ),
    ("dual_sums-doubled-norm", "-3/2,5,1/2,-3"): (
        "form.dual_sums.N2", "fail", 74,
        "tilde dual sum vs x^N: Poly3({(2, 0, 0): Fraction(1, 1)}) != "
        "Poly3({(2, 0, 0): Fraction(37, 28), (1, 1, 0): Fraction(9, 14), "
        "(1, 0, 1): Fraction(-9, 7), (0, 2, 0): Fraction(27, 112), "
        "(0, 1, 1): Fraction(-9, 8), (0, 0, 2): Fraction(135, 112)})",
    ),
    ("dual_sums-balanced-columns", "1,2,3,5"): (
        "form.dual_sums.N2", "fail", 74,
        "tilde duality entry (0,3): Fraction(903168, 1) != Fraction(0, 1)",
    ),
    ("dual_sums-balanced-columns", "-3/2,5,1/2,-3"): (
        "form.dual_sums.N2", "fail", 74,
        "tilde duality entry (0,3): Fraction(1225, 32) != Fraction(0, 1)",
    ),
    ("adjointness-doubled-plain-norm", "1,2,3,5"): (
        "form.adjointness.N2", "fail", 288,
        "beta=e01, xi={(1, 1, 0): Fraction(1, 1)}, zeta={(2, 0, 0): Fraction(1, 1)}: "
        "Fraction(708083712, 1) != Fraction(1416167424, 1)",
    ),
    ("adjointness-doubled-plain-norm", "-3/2,5,1/2,-3"): (
        "form.adjointness.N2", "fail", 288,
        "beta=e01, xi={(1, 1, 0): Fraction(1, 1)}, zeta={(2, 0, 0): Fraction(1, 1)}: "
        "Fraction(1225, 32) != Fraction(1225, 16)",
    ),
}


PARAMETERS = {"1,2,3,5": REFERENCE, "-3/2,5,1/2,-3": NEGATIVE}


@pytest.mark.parametrize("label", list(PARAMETERS))
@pytest.mark.parametrize("case", list(CASES))
def test_failure_text_is_pinned(monkeypatch, case, label):
    assert run_case(case, PARAMETERS[label], monkeypatch.setattr) == EXPECTED[case, label]


ZEROED_EXPECTED = {
    1: (
        "transitions.pcosines.N1", "fail", 1,
        "raised NotTraceless: trace is -1/672, expected 0",
    ),
    2: (
        "transitions.pcosines.N2", "fail", 1,
        "raised NotTraceless: trace is -1/672, expected 0",
    ),
}


@pytest.mark.parametrize("n", [1, 2])
def test_pcosines_on_a_zeroed_eta_t_0(n):
    """eta~_0 = 0 empties row 0 of R, so R^-1 is no inverse of R, and the
    first lowering operator e~10 = R e_10 R^-1 has trace (R^-1 R)[0][1] =
    -1/672: the action refuses it before any pair is compared."""
    report = theorems.verify_pcosines(_zeroed_eta_t_0(REFERENCE, n))
    assert (report.name, report.status, report.checked, report.first_failure) == (
        ZEROED_EXPECTED[n]
    )


IDENTITY_R_EXPECTED = {
    1: (
        "module.irreducibility.N1", "fail", 1,
        "varphi~ on plain: zero entry at row (0, 1, 0), column (1, 0, 0)",
    ),
    2: (
        "module.irreducibility.N2", "fail", 1,
        "varphi~ on plain: zero entry at row (1, 1, 0), column (2, 0, 0)",
    ),
    3: (
        "module.irreducibility.N3", "fail", 1,
        "varphi~ on plain: zero entry at row (2, 1, 0), column (3, 0, 0)",
    ),
}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_irreducibility_on_an_identity_R(n):
    """With R = R^-1 = I, H~ is H: every cross-Cartan action is diagonal,
    so V splits into monomial lines.  The support stays in the band, so
    block structure passes, and only the irreducibility probe fails."""
    identity = Mat.identity()
    s = dataclasses.replace(build(REFERENCE), R=identity, Rinv=identity)
    assert verify_block_structure(s, n).ok
    report = irreducibility_probe(s, n)
    assert (report.name, report.status, report.checked, report.first_failure) == (
        IDENTITY_R_EXPECTED[n]
    )


SHIFTED_R_EXPECTED = {
    (verify_block_structure, "1,2,3,5"): (
        "module.block_structure.N2", "fail", 1,
        "raised NotTraceless: trace is 44/9, expected 0",
    ),
    (verify_block_structure, "-3/2,5,1/2,-3"): (
        "module.block_structure.N2", "fail", 1,
        "raised NotTraceless: trace is 5/7, expected 0",
    ),
    (verify_representation_law, "1,2,3,5"): (
        "module.representation.N2", "fail", 31,
        "tilde compatibility for e01: [{}, {(2, 0, 0): Fraction(25, 3)}, {}, "
        "{(1, 1, 0): Fraction(50, 3)}, {(1, 0, 1): Fraction(25, 3)}, {}] != "
        "[{}, {(2, 0, 0): Fraction(1, 1)}, {}, {(1, 1, 0): Fraction(2, 1)}, "
        "{(1, 0, 1): Fraction(1, 1)}, {}]",
    ),
    (verify_representation_law, "-3/2,5,1/2,-3"): (
        "module.representation.N2", "fail", 31,
        "tilde compatibility for e01: [{}, {(2, 0, 0): Fraction(29, 14)}, {}, "
        "{(1, 1, 0): Fraction(29, 7)}, {(1, 0, 1): Fraction(29, 14)}, {}] != "
        "[{}, {(2, 0, 0): Fraction(1, 1)}, {}, {(1, 1, 0): Fraction(2, 1)}, "
        "{(1, 0, 1): Fraction(1, 1)}, {}]",
    ),
}


@pytest.mark.parametrize(
    "verifier, label",
    list(SHIFTED_R_EXPECTED),
    ids=lambda value: getattr(value, "__name__", value),
)
def test_a_shifted_entry_of_R(verifier, label):
    """R[0][1] + 1 with R^-1 left as it is.  Any derivation maps x^lam into
    x^lam and its neighbours, so block structure can fail only by a raise:
    here varphi~ = R varphi R^-1 loses its zero trace.  The representation
    law fails by value, on the first tilde generator it conjugates."""
    s = build(PARAMETERS[label])
    rows = [list(row) for row in s.R.rows]
    rows[0][1] += 1
    report = verifier(dataclasses.replace(s, R=Mat(rows)), 2)
    assert (report.name, report.status, report.checked, report.first_failure) == (
        SHIFTED_R_EXPECTED[verifier, label]
    )


TRACE_EXPECTED = {
    verify_weight_diagonality: (
        "module.weights.N1", "fail", 3, "raised NotTraceless: trace is -48, expected 0",
    ),
    verify_action_tables: (
        "module.action_tables.N1", "fail", 25, "raised NotTraceless: trace is 176, expected 0",
    ),
}


@pytest.mark.parametrize("verifier", list(TRACE_EXPECTED), ids=lambda fn: fn.__name__)
def test_the_tilde_side_names_the_trace_of_beta(verifier):
    """On a shifted eta~_0, R^-1 is no inverse of R, so R^-1 beta R need
    not have the trace of beta.  The tilde side checks beta itself:
    varphi~ (trace -48) in the weights, e~01 (trace 176) in the tables."""
    s = with_corrupted_eta_t(build(REFERENCE), 0, 1)
    report = verifier(s, 1)
    assert (report.name, report.status, report.checked, report.first_failure) == (
        TRACE_EXPECTED[verifier]
    )


ZERO_ETA_T_EXPECTED = {
    (0, None): (
        "structure.dagger", "fail", 1, "raised ZeroDivisionError: zero denominator: eta~_0 = 0",
    ),
    (0, 0): (
        "form.adjointness.N0", "fail", 1, "raised ZeroDivisionError: zero denominator: eta~_0 = 0",
    ),
    (0, 1): (
        "form.adjointness.N1", "fail", 1, "raised ZeroDivisionError: zero denominator: eta~_0 = 0",
    ),
    (1, None): (
        "structure.dagger", "fail", 5,
        "involution on e01: Mat([['0', '0', '0'], ['0', '0', '0'], ['0', '0', '0']]) != "
        "Mat([['0', '1', '0'], ['0', '0', '0'], ['0', '0', '0']])",
    ),
    (1, 0): (
        "form.adjointness.N0", "fail", 3, "raised ZeroDivisionError: zero denominator: eta~_1 = 0",
    ),
    (1, 1): (
        "form.adjointness.N1", "fail", 4, "raised ZeroDivisionError: zero denominator: eta~_1 = 0",
    ),
    (2, None): (
        "structure.dagger", "fail", 9,
        "involution on e02: Mat([['0', '0', '0'], ['0', '0', '0'], ['0', '0', '0']]) != "
        "Mat([['0', '0', '1'], ['0', '0', '0'], ['0', '0', '0']])",
    ),
    (2, 0): (
        "form.adjointness.N0", "fail", 5, "raised ZeroDivisionError: zero denominator: eta~_2 = 0",
    ),
    (2, 1): (
        "form.adjointness.N1", "fail", 4, "raised ZeroDivisionError: zero denominator: eta~_2 = 0",
    ),
}


@pytest.mark.parametrize("index, n", list(ZERO_ETA_T_EXPECTED))
def test_dagger_on_a_zeroed_eta_t(index, n):
    """eta~_i = 0 makes W~ singular.  dagger gives a zero entry, with no
    division, wherever beta has one, and raises a ZeroDivisionError naming
    eta~_i at the first nonzero entry it must divide by it: e01 maps to
    zero when eta~_1 = 0, so the involution fails by value, and only the
    first raise ends the Report."""
    base = build(REFERENCE)
    s = with_corrupted_eta_t(base, index, -base.d.eta_t[index])
    report = verify_dagger(s) if n is None else verify_adjointness(BilinearForm(s, n))
    assert (report.name, report.status, report.checked, report.first_failure) == (
        ZERO_ETA_T_EXPECTED[index, n]
    )

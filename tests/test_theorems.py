import dataclasses
import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rahman import theorems
from rahman.form import (
    BilinearForm,
    dual_basis,
    inner,
    p_table,
    verify_adjointness,
    verify_dual_sum_identities,
    verify_tilde_norms,
)
from rahman.matrices import Mat
from rahman.params import ParameterSet, ValidationError, derive, validate
from rahman.polymodule import (
    _MOVES,
    action,
    lattice,
    lattice_dimension,
    irreducibility_probe,
    verify_action_tables,
    verify_block_structure,
    verify_representation_law,
    verify_weight_diagonality,
)
from rahman.polynomials import eval_P, eval_P_operator
from rahman.report import Report
from rahman.scalars import format_rational, multinomial
from rahman.sl3 import (
    build,
    expansion_coefficients,
    verify_dagger,
    verify_expansions,
    verify_generation,
    verify_matrices,
)
from rahman.theorems import (
    run_suites,
    verify_operator_identities,
    verify_orthogonality,
    verify_pcosines,
    verify_recurrences,
    verify_trans1,
    verify_trans2,
)

from conftest import (
    EVAL_P_READERS,
    EXPANSION_BASIS,
    PARAM_MATRIX,
    shifted_entry,
    with_corrupted_eta_t,
)
from test_failure_text import _doubled_plain_norm, _doubled_tilde_norm
from test_params import valid_parameter_sets


@pytest.fixture(scope="module")
def forms(structures):
    return {
        (p, n): BilinearForm(structures[p], n)
        for p in PARAM_MATRIX
        for n in range(0, 4)
    }


@pytest.mark.parametrize("n", [0, 2, 3])
@pytest.mark.parametrize("p", PARAM_MATRIX, ids=str)
def test_trans2(forms, p, n):
    report = verify_trans2(forms[p, n])
    assert report.ok, report.first_failure


@pytest.mark.parametrize("n", [0, 2, 3])
@pytest.mark.parametrize("p", PARAM_MATRIX, ids=str)
def test_trans1(forms, p, n):
    report = verify_trans1(forms[p, n])
    assert report.ok, report.first_failure


@pytest.mark.parametrize("n", [0, 1, 3])
@pytest.mark.parametrize("p", PARAM_MATRIX, ids=str)
def test_pcosines(forms, p, n):
    report = verify_pcosines(forms[p, n])
    assert report.ok, report.first_failure


# The verifiers that read P through eval_P, on a structure s and its form
# f of degree n.  The first four read ``f.p_matrix``; recurrences builds
# its own matrix.
P_VERIFIERS = {
    "verify_trans1": lambda s, f, n: verify_trans1(f),
    "verify_trans2": lambda s, f, n: verify_trans2(f),
    "verify_pcosines": lambda s, f, n: verify_pcosines(f),
    "verify_orthogonality": lambda s, f, n: verify_orthogonality(f),
    "verify_recurrences": lambda s, f, n: verify_recurrences(s, n),
}


@pytest.mark.parametrize("verifier", P_VERIFIERS.values(), ids=P_VERIFIERS)
def test_transition_verifiers_read_eval_P(monkeypatch, verifier):
    """Each P-based check compares against eval_P itself, not a table
    built by the code it checks: one wrong eval_P value must trip it.
    The form caches its P matrix, so each run takes a fresh form."""

    def perturbed(a, b, c, dd, derived, n):
        value = eval_P(a, b, c, dd, derived, n)
        return value + 1 if (a, b, c, dd) == (1, 0, 0, 1) else value

    for module in EVAL_P_READERS:
        monkeypatch.setattr(module, "eval_P", perturbed)
    s = build(PARAM_MATRIX[0])
    assert not verifier(s, BilinearForm(s, 2), 2).ok


@pytest.mark.parametrize("verifier", P_VERIFIERS.values(), ids=P_VERIFIERS)
def test_P_verifiers_evaluate_each_entry_once(monkeypatch, verifier):
    """On one fresh form at N=3 (D = 10), whichever P verifier runs first,
    the four readers of ``f.p_matrix`` together make D^2 eval_P calls, no
    two with the same arguments, and recurrences makes its own D^2."""
    calls = {module: [] for module in EVAL_P_READERS}

    def counting(module):
        def count(a, b, c, dd, derived, n):
            calls[module].append((a, b, c, dd))
            return eval_P(a, b, c, dd, derived, n)
        return count

    for module in EVAL_P_READERS:
        monkeypatch.setattr(module, "eval_P", counting(module))
    s = build(PARAM_MATRIX[0])
    f = BilinearForm(s, 3)
    assert verifier(s, f, 3).ok
    for other in P_VERIFIERS.values():
        if other is not verifier:
            assert other(s, f, 3).ok
    for module, made in calls.items():
        assert len(made) == len(set(made)) == 100, module.__name__


def test_transition_verifiers_check_the_printed_table(forms, monkeypatch):
    """trans1 and trans2 check p_table, the table ``rahman table`` prints:
    one wrong entry in it must trip both, at that entry."""

    def perturbed(f):
        table = p_table(f)
        table[1][2] += 1
        return table

    monkeypatch.setattr("rahman.theorems.p_table", perturbed)
    f = forms[PARAM_MATRIX[0], 2]
    for verifier in (verify_trans1, verify_trans2):
        report = verifier(f)
        assert not report.ok
        assert report.first_failure.startswith(
            "monomial (1, 0, 1), coefficient of (1, 1, 0): "
        )


def _tilde_column_plus_x_n(f):
    """Add x^N to the Sym^N(R) column of x~^mu, mu the last lattice point."""
    mu = lattice(f.n)[-1]
    numerators, den = f.tilde_columns[mu]
    f.tilde_columns[mu] = ([numerators[0] + den, *numerators[1:]], den)


def _reference_with(**matrices):
    return dataclasses.replace(build(ParameterSet.of(1, 2, 3, 5)), **matrices)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_wrong_tilde_column_trips_trans2_but_not_pcosines(n):
    """trans2 reads Sym^N(R) (``f.tilde_columns``); pcosines builds the
    tilde monomials by lowering x~^N, so a wrong column leaves it whole."""
    f = BilinearForm(_reference_with(), n)
    _tilde_column_plus_x_n(f)
    assert not verify_trans2(f).ok
    assert verify_pcosines(f).ok


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_wrong_entry_of_R_inverse_trips_pcosines_but_not_trans2(n):
    """R^-1[0][1] + 1: the lowering operators R e_i0 R^-1 lose their zero
    trace, and trans2, which never reads R^-1, still passes.  trans1 fails
    by value: the dual's R is this R^-1, the mirror of R[0][1] + 1 on trans2."""
    s = _reference_with()
    f = BilinearForm(dataclasses.replace(s, Rinv=shifted_entry(s.Rinv)), n)
    report = verify_pcosines(f)
    assert report.first_failure.startswith("raised NotTraceless: ")
    assert verify_trans2(f).ok
    report = verify_trans1(f)
    assert report.status == "fail"
    assert not report.first_failure.startswith("raised"), report.first_failure


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("half", [False, True], ids=["plus-1", "minus-half"])
@pytest.mark.parametrize("index", [0, 1, 2])
def test_a_corrupted_eta_t_trips_pcosines_but_not_trans2(index, half, n):
    """eta~_i shifted by 1 or by -eta~_i / 2.  trans2's Gram weights and
    Sym^N(R) carry the same powers of eta~, which cancel in p_table;
    pcosines' lowering operators read R^-1, which no longer inverts R."""
    s = _reference_with()
    s = with_corrupted_eta_t(s, index, -s.d.eta_t[index] / 2 if half else 1)
    f = BilinearForm(s, n)
    assert not verify_pcosines(f).ok
    assert verify_trans2(f).ok


@pytest.mark.parametrize("n", [1, 2, 3])
def test_an_identity_R_trips_pcosines_by_value(n):
    """With R = R^-1 = I, x~^N is x^N and lowering gives the plain
    monomials, which pair to the Gram diagonal, not to N! nu^N P."""
    identity = Mat.identity()
    report = verify_pcosines(BilinearForm(_reference_with(R=identity, Rinv=identity), n))
    assert report.status == "fail"
    assert not report.first_failure.startswith("raised"), report.first_failure


@pytest.mark.parametrize("n", [0, 2, 3])
@pytest.mark.parametrize("p", PARAM_MATRIX, ids=str)
def test_orthogonality(forms, p, n):
    report = verify_orthogonality(forms[p, n])
    assert report.ok, report.first_failure


def test_orthogonality_spot_values():
    """Hand-checkable entries of the first relation at N=2."""
    p = ParameterSet.of(1, 2, 3, 5)
    d = derive(p)
    n = 2

    def weighted_sum(s, t, sigma, tau):
        total = Fraction(0)
        for i in range(n + 1):
            for j in range(n + 1 - i):
                k = n - i - j
                total += (
                    eval_P(j, k, s, t, d, n)
                    * eval_P(j, k, sigma, tau, d, n)
                    * d.eta_t[0] ** i * d.eta_t[1] ** j * d.eta_t[2] ** k
                    * multinomial(n, [i, j, k])
                )
        return total

    assert weighted_sum(1, 0, 0, 1) == 0
    assert weighted_sum(1, 0, 1, 0) == 1 / (d.k_t[1] * multinomial(2, [1, 1, 0]))


@pytest.mark.parametrize("n", [0, 2, 3])
@pytest.mark.parametrize("p", PARAM_MATRIX, ids=str)
def test_recurrences(structures, p, n):
    report = verify_recurrences(structures[p], n)
    assert report.ok, report.first_failure


# The recurrence stencil written out by hand, the oracle for the moves
# table: (shift of the back pair (sigma, tau), the counter that multiplies
# the coefficient, expansion-coefficient key).  The counters are the back
# pair (A, B) and the complement C = N - A - B.
SHIFT_PATTERN = [
    ((-1, 0), "A", "e01"),
    ((0, -1), "B", "e02"),
    ((+1, 0), "C", "e10"),
    ((+1, -1), "B", "e12"),
    ((0, +1), "C", "e20"),
    ((-1, +1), "A", "e21"),
]


def test_the_moves_are_the_recurrence_shift_pattern():
    """On mu = (C, A, B), the move (i, j) shifts (sigma, tau) = (A, B) as
    the pattern says, and its counter mu_j is the pattern's counter."""
    assert [f"e{i}{j}" for i, j in _MOVES] == [key for _, _, key in SHIFT_PATTERN]
    for ((i, j), move), (shift, counter, key) in zip(_MOVES.items(), SHIFT_PATTERN):
        assert sum(move) == 0
        assert move[1:] == shift, key
        assert "CAB"[j] == counter, key


@pytest.mark.parametrize("key", list(EXPANSION_BASIS))
@pytest.mark.parametrize("table", [0, 1], ids=["varphi", "phi"])
@pytest.mark.parametrize(
    "p",
    [ParameterSet.of(1, 2, 3, 5), ParameterSet.of(Fraction(-3, 2), 5, Fraction(1, 2), -3)],
    ids=str,
)
def test_recurrences_read_every_expansion_coefficient(monkeypatch, p, table, key):
    """One coefficient of one expansion matrix off by one (its basis
    element added), for p and for p.dual(), fails the recurrences at N = 2
    by value.  Failure texts alone cannot tell e01 from e21 there, so each
    coefficient is corrupted on its own."""

    def wrong(q):
        tables = list(expansion_coefficients(q))
        tables[table] = tables[table] + EXPANSION_BASIS[key]
        return tuple(tables)

    monkeypatch.setattr(theorems, "expansion_coefficients", wrong)
    report = verify_recurrences(build(p), 2)
    assert report.status == "fail"
    assert not report.first_failure.startswith("raised"), report.first_failure


@pytest.mark.parametrize("n", [0, 1, 3])
@pytest.mark.parametrize("p", PARAM_MATRIX, ids=str)
def test_operator_identities(structures, p, n):
    report = verify_operator_identities(structures[p], n)
    assert report.ok, report.first_failure


def test_run_suites_selects_and_orders():
    p = ParameterSet.of(1, 2, 3, 5)
    reports = run_suites(p, 1, ["structure", "orthogonality"])
    names = [r.name for r in reports]
    assert names[0].startswith("structure.")
    assert names[-1].startswith("orthogonality")
    assert all(r.ok for r in reports)


def test_run_suites_rejects_unknown():
    with pytest.raises(ValueError):
        run_suites(ParameterSet.of(1, 2, 3, 5), 1, ["nope"])


def test_run_suites_rejects_negative_degree():
    with pytest.raises(ValueError):
        run_suites(ParameterSet.of(1, 2, 3, 5), -1, ["structure"])


DEGREE_REFUSALS = {
    "run-suites-bool": lambda p, d, s: run_suites(p, True, ["orthogonality"]),
    "run-suites-float": lambda p, d, s: run_suites(p, 2.0),
    "eval-P-float-degree": lambda p, d, s: eval_P(1, 0, 1, 0, d, 1.0),
    "eval-P-float-argument": lambda p, d, s: eval_P(0.5, 0, 0, 0, d, 1),
    "eval-P-bool-argument": lambda p, d, s: eval_P(True, 0, 0, 0, d, 1),
    "p-table-float": lambda p, d, s: p_table(BilinearForm(s, 1.0)),
    "form-bool": lambda p, d, s: BilinearForm(s, True),
    "lattice-bool": lambda p, d, s: lattice(False),
    "lattice-dimension-bool": lambda p, d, s: lattice_dimension(True),
    "lattice-dimension-float": lambda p, d, s: lattice_dimension(2.5),
    "lattice-dimension-negative": lambda p, d, s: lattice_dimension(-3),
}


@pytest.mark.parametrize("call", list(DEGREE_REFUSALS.values()), ids=list(DEGREE_REFUSALS))
def test_the_library_refuses_a_degree_that_is_not_an_int(call):
    """N and the lattice arguments are ints: a bool or a float is refused
    with ValueError, as the CLI refuses it, not read as 1 or truncated,
    and a negative degree is refused too."""
    p = ParameterSet.of(1, 2, 3, 5)
    with pytest.raises(
        ValueError,
        match="degree must be an integer|degree must be nonnegative|nonnegative integers",
    ):
        call(p, derive(p), build(p))


def test_suite_determinism():
    p = ParameterSet.of(2, 1, 7, 3)
    first = [r.to_json() for r in run_suites(p, 2, ["transitions"])]
    second = [r.to_json() for r in run_suites(p, 2, ["transitions"])]
    assert first == second


def test_corruption_sensitivity(structures):
    """Perturbing one derived constant must break at least one verifier."""
    p = ParameterSet.of(1, 2, 3, 5)
    corrupted = with_corrupted_eta_t(structures[p], 1, 1)
    assert not verify_matrices(corrupted).ok


@pytest.mark.parametrize("field", ["t", "u", "v", "w"])
@pytest.mark.parametrize(
    "p",
    [ParameterSet.of(1, 2, 3, 5), ParameterSet.of(Fraction(-3, 2), 5, Fraction(1, 2), -3)],
    ids=str,
)
def test_each_kernel_constant_is_caught(p, field):
    """Shifting t, u, v or w alone by 1 fails orthogonality, the recurrences
    and the operator identities at N = 1..3.  The first two read P through
    eval_P; the operator suite already fails on its tilde elements, built
    through U from the same constants, which lose their zero trace."""
    d = derive(p)
    s = build(p, dataclasses.replace(d, **{field: getattr(d, field) + 1}))
    for n in (1, 2, 3):
        assert not verify_orthogonality(BilinearForm(s, n)).ok
        assert not verify_recurrences(s, n).ok
        assert not verify_operator_identities(s, n).ok


def _wrong_kernel(patch, field: str):
    """eval_P and eval_P_operator, as the verifiers read them, with t, u, v
    or w shifted by 1; the structure and the form stay correct."""

    def shifted(derived):
        return dataclasses.replace(derived, **{field: getattr(derived, field) + 1})

    for module in EVAL_P_READERS:
        patch(
            module, "eval_P",
            lambda a, b, c, dd, derived, n: eval_P(a, b, c, dd, shifted(derived), n),
        )
    patch(
        theorems, "eval_P_operator",
        lambda pairs, ops, v, derived, n: eval_P_operator(pairs, ops, v, shifted(derived), n),
    )


# The verifiers that read the kernel, through eval_P or eval_P_operator.
KERNEL_READERS = {
    **P_VERIFIERS,
    "verify_operator_identities": lambda s, f, n: verify_operator_identities(s, n),
}


@pytest.mark.parametrize("field", ["t", "u", "v", "w"])
@pytest.mark.parametrize(
    "p",
    [ParameterSet.of(1, 2, 3, 5), ParameterSet.of(Fraction(-3, 2), 5, Fraction(1, 2), -3)],
    ids=str,
)
def test_every_kernel_reader_catches_a_wrong_kernel_constant(monkeypatch, p, field):
    """A kernel that reads t, u, v or w shifted by 1, under a correct
    structure and form, fails every verifier that reads P at N = 1 and 2,
    and each first failure is a value mismatch, not a raised error."""
    _wrong_kernel(monkeypatch.setattr, field)
    s = build(p)
    for n in (1, 2):
        f = BilinearForm(s, n)
        for name, verifier in KERNEL_READERS.items():
            report = verifier(s, f, n)
            assert not report.ok, (name, n)
            assert not report.first_failure.startswith("raised "), (name, n, report.first_failure)


def _with_eta_t(index: int, zeroed: bool):
    """The (1,2,3,5) structure with eta~_index shifted by 1, or set to 0."""
    s = build(ParameterSet.of(1, 2, 3, 5))
    return with_corrupted_eta_t(s, index, -s.d.eta_t[index] if zeroed else 1)


# Every verifier, on a structure s and its form f of degree n.
VERIFIERS = {
    "matrices": lambda s, f, n: verify_matrices(s),
    "dagger": lambda s, f, n: verify_dagger(s),
    "expansions": lambda s, f, n: verify_expansions(s),
    "generation": lambda s, f, n: verify_generation(s),
    "action_tables": lambda s, f, n: verify_action_tables(s, n),
    "representation": lambda s, f, n: verify_representation_law(s, n),
    "weights": lambda s, f, n: verify_weight_diagonality(s, n),
    "block_structure": lambda s, f, n: verify_block_structure(s, n),
    "irreducibility": lambda s, f, n: irreducibility_probe(s, n),
    "adjointness": lambda s, f, n: verify_adjointness(f),
    "tilde_norms": lambda s, f, n: verify_tilde_norms(f),
    "dual_sums": lambda s, f, n: verify_dual_sum_identities(f),
    "trans1": lambda s, f, n: verify_trans1(f),
    "trans2": lambda s, f, n: verify_trans2(f),
    "pcosines": lambda s, f, n: verify_pcosines(f),
    "orthogonality": lambda s, f, n: verify_orthogonality(f),
    "recurrences": lambda s, f, n: verify_recurrences(s, n),
    "operators": lambda s, f, n: verify_operator_identities(s, n),
}


def _run(name: str, s, n: int) -> Report:
    """VERIFIERS[name] on s and a fresh form, which builds its Gram
    diagonal on first use."""
    return VERIFIERS[name](s, BilinearForm(s, n), n)


@pytest.mark.parametrize(
    "name, zeroed, error",
    [
        ("dagger", False, "NotTraceless: trace is "),
        ("action_tables", False, "NotTraceless: trace is "),
        ("block_structure", False, "NotTraceless: trace is "),
        ("irreducibility", False, "NotTraceless: trace is "),
        ("representation", False, "NotTraceless: trace is "),
        ("weights", False, "NotTraceless: trace is "),
        ("operators", False, "NotTraceless: trace is "),
        ("generation", True, "ZeroDivisionError: "),
        ("trans2", True, "ZeroDivisionError: "),
        ("orthogonality", True, "ZeroDivisionError: "),
        ("pcosines", True, "NotTraceless: trace is 1/32, expected 0"),
    ],
    ids=["dagger", "action_tables", "block_structure", "irreducibility", "representation",
         "weights", "operators", "generation-zeroed", "trans2-zeroed",
         "orthogonality-zeroed", "pcosines-zeroed"],
)
def test_verifier_reports_a_raised_error_as_a_failure(name, zeroed, error):
    """On eta~_1 shifted by 1 the tilde elements lose their zero trace; on
    eta~_1 = 0 a Gram weight or 1/eta~_1 divides by zero, and pcosines'
    first lowering operator loses its zero trace.  Either way the verifier
    returns a failing Report naming the error instead of raising."""
    report = _run(name, _with_eta_t(1, zeroed), 2)
    assert report.status == "fail"
    assert report.checked >= 1
    assert report.first_failure.startswith(f"raised {error}")


@pytest.mark.parametrize("index", [1, 2])
def test_every_verifier_survives_a_zeroed_eta_t(index):
    """With eta~_1 or eta~_2 zero, every verifier returns a Report; none
    lets the ZeroDivisionError escape, and a form verifier's form builds."""
    s = _with_eta_t(index, zeroed=True)
    for name in VERIFIERS:
        assert isinstance(_run(name, s, 2), Report)


def _corrupted_structure(change):
    """The reference structure changed by ``change``, with its form at N = 2."""

    def corrupt(patch):
        s = change(_reference_with())
        return s, BilinearForm(s, 2)

    return corrupt


def _corrupted_form(change):
    """The reference form at N = 2, changed in place by ``change``."""

    def corrupt(patch):
        s = _reference_with()
        f = BilinearForm(s, 2)
        change(f)
        return s, f

    return corrupt


def _corrupted_kernel(patch):
    """The reference structure and form under ``_wrong_kernel`` with t + 1."""
    _wrong_kernel(patch, "t")
    s = _reference_with()
    return s, BilinearForm(s, 2)


IDENTITY = Mat.identity()

# label: (patch -> (structure, form)), one targeted corruption each.
CORRUPTIONS = {
    "eta~_1 + 1": _corrupted_structure(lambda s: with_corrupted_eta_t(s, 1, 1)),
    "dual of eta~_1 + 1": _corrupted_structure(lambda s: with_corrupted_eta_t(s, 1, 1).dual()),
    "R = R^-1 = I": _corrupted_structure(
        lambda s: dataclasses.replace(s, R=IDENTITY, Rinv=IDENTITY)),
    "R[0][1] + 1": _corrupted_structure(
        lambda s: dataclasses.replace(s, R=shifted_entry(s.R))),
    "R^-1[0][1] + 1": _corrupted_structure(
        lambda s: dataclasses.replace(s, Rinv=shifted_entry(s.Rinv))),
    "kernel t + 1": _corrupted_kernel,
    "plain norm doubled": _corrupted_form(_doubled_plain_norm),
    "tilde norm doubled": _corrupted_form(_doubled_tilde_norm),
    "tilde column + x^N": _corrupted_form(_tilde_column_plus_x_n),
}

# verifier: (the corruption that trips it, whether it fails by a raise).
# Any derivation maps x^lam into x^lam and its neighbours, so block
# structure can fail only by a raise.
CORRUPTION_MATRIX = {
    "matrices": ("eta~_1 + 1", False),
    "dagger": ("eta~_1 + 1", True),
    "expansions": ("eta~_1 + 1", False),
    "generation": ("R = R^-1 = I", False),
    "action_tables": ("eta~_1 + 1", True),
    "representation": ("R[0][1] + 1", False),
    "weights": ("eta~_1 + 1", True),
    "block_structure": ("R[0][1] + 1", True),
    "irreducibility": ("R = R^-1 = I", False),
    "adjointness": ("plain norm doubled", False),
    "tilde_norms": ("tilde norm doubled", False),
    "dual_sums": ("tilde norm doubled", False),
    "trans1": ("kernel t + 1", False),
    "trans2": ("tilde column + x^N", False),
    "pcosines": ("R^-1[0][1] + 1", True),
    "orthogonality": ("kernel t + 1", False),
    "recurrences": ("kernel t + 1", False),
    "operators": ("kernel t + 1", False),
}


def test_the_corruption_matrix_names_every_verifier():
    assert list(CORRUPTION_MATRIX) == list(VERIFIERS)


@pytest.mark.parametrize("name", list(CORRUPTION_MATRIX))
def test_each_verifier_is_tripped_by_its_corruption(monkeypatch, name):
    """Each of the 18 verifiers fails at N = 2 on one targeted corruption,
    by value or by a raise as the matrix says."""
    label, by_raise = CORRUPTION_MATRIX[name]
    s, f = CORRUPTIONS[label](monkeypatch.setattr)
    report = VERIFIERS[name](s, f, 2)
    assert report.status == "fail", label
    assert report.first_failure.startswith("raised ") == by_raise, (label, report.first_failure)


# corruption: the verifiers that read what it changes, so the exact set
# that fails on it at N = 2.  Every other verifier passes.
TRIPPED_BY = {
    # The tilde-side checks read the dual's constants, so the corruption
    # carries over to them; a dual derived again from p would repair it.
    "eta~_1 + 1": {
        "matrices", "dagger", "expansions", "action_tables", "representation", "weights",
        "block_structure", "irreducibility", "tilde_norms", "dual_sums", "pcosines",
        "orthogonality", "operators",
    },
    # A dual derived again from p would repair the corruption and let
    # these 13 pass.  On the dual the corrupted R sits in the R^-1 slot,
    # its row 1 scaled by the corrupted eta~_1: generation reads that row
    # through psi~, and pcosines reads only row 0.
    "dual of eta~_1 + 1": {
        "matrices", "dagger", "expansions", "generation", "block_structure",
        "action_tables", "representation", "weights", "irreducibility", "tilde_norms",
        "dual_sums", "orthogonality", "operators",
    },
    "R = R^-1 = I": {
        "matrices", "dagger", "expansions", "generation", "irreducibility", "tilde_norms",
        "dual_sums", "trans1", "trans2", "pcosines", "operators",
    },
    "R[0][1] + 1": {
        "matrices", "dagger", "expansions", "generation", "action_tables", "representation",
        "weights", "block_structure", "irreducibility", "tilde_norms", "dual_sums", "trans2",
        "pcosines", "operators",
    },
    "R^-1[0][1] + 1": {
        "matrices", "dagger", "expansions", "generation", "action_tables", "representation",
        "weights", "block_structure", "irreducibility", "trans1", "pcosines", "operators",
    },
    "kernel t + 1": {"trans1", "trans2", "pcosines", "orthogonality", "recurrences", "operators"},
    # Orthogonality reads its weights and right sides off both Gram
    # diagonals, so a doubled norm on either side trips it.
    "plain norm doubled": {
        "adjointness", "tilde_norms", "dual_sums", "trans2", "pcosines", "orthogonality",
    },
    "tilde norm doubled": {"tilde_norms", "dual_sums", "trans1", "orthogonality"},
    "tilde column + x^N": {"tilde_norms", "dual_sums", "trans2"},
}


@pytest.mark.parametrize("label", list(CORRUPTIONS))
def test_each_corruption_trips_only_the_verifiers_that_read_it(monkeypatch, label):
    """At N = 2 each corruption fails exactly the verifiers in TRIPPED_BY."""
    assert list(TRIPPED_BY) == list(CORRUPTIONS)
    s, f = CORRUPTIONS[label](monkeypatch.setattr)
    failing = {name for name, verifier in VERIFIERS.items() if not verifier(s, f, 2).ok}
    assert failing == TRIPPED_BY[label]


# Each verifier and form helper takes one carrier and nothing that carrier
# holds: a structure s carries p and d, a form f carries s and n.  The
# action takes only its matrix.
CARRIER_SIGNATURES = {
    verify_matrices: ("s",),
    verify_dagger: ("s",),
    verify_expansions: ("s",),
    verify_generation: ("s",),
    verify_action_tables: ("s", "n"),
    verify_representation_law: ("s", "n"),
    verify_weight_diagonality: ("s", "n"),
    verify_block_structure: ("s", "n"),
    irreducibility_probe: ("s", "n"),
    verify_trans1: ("f",),
    verify_trans2: ("f",),
    verify_recurrences: ("s", "n"),
    verify_operator_identities: ("s", "n"),
    verify_pcosines: ("f",),
    verify_adjointness: ("f",),
    verify_tilde_norms: ("f",),
    verify_dual_sum_identities: ("f",),
    verify_orthogonality: ("f",),
    inner: ("xi", "zeta", "f"),
    dual_basis: ("f",),
    action: ("matrix",),
}


@pytest.mark.parametrize(
    "fn, params",
    list(CARRIER_SIGNATURES.items()),
    ids=[fn.__name__ for fn in CARRIER_SIGNATURES],
)
def test_each_verifier_takes_one_carrier(fn, params):
    assert tuple(inspect.signature(fn).parameters) == params


def test_report_lets_other_errors_through():
    with pytest.raises(TypeError):
        with Report("probe"):
            raise TypeError("a programming error, not a failed check")


@given(valid_parameter_sets(), st.integers(min_value=0, max_value=3))
@settings(max_examples=15, deadline=None)
def test_every_suite_on_random_parameters(p, n):
    reports = run_suites(p, n)
    assert [r.name for r in reports if not r.ok] == []


@given(valid_parameter_sets())
@settings(max_examples=15, deadline=None)
def test_integer_sum_suites_on_random_parameters_at_degree_5(p):
    """The suites whose sums run over common denominators, and every
    reader of the integer P kernel, on random rationals (negative and
    non-integer ones included) at N=5."""
    reports = run_suites(
        p, 5, ["form", "transitions", "orthogonality", "recurrence", "operators"]
    )
    assert len(reports) == 9
    assert [r.name for r in reports if not r.ok] == []


def _seeded_parameter_set(seed: int) -> ParameterSet:
    """A valid parameter set with a negative and a non-integer entry,
    numerators up to 30 and denominators up to 6, drawn from ``seed``."""
    rng = random.Random(seed)
    while True:
        values = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 6))
                  for _ in range(4)]
        if min(values) > 0 or all(x.denominator == 1 for x in values):
            continue
        try:
            return validate(ParameterSet(*values))
        except ValidationError:
            continue


@pytest.mark.parametrize("seed", range(6))
def test_every_suite_on_seeded_parameters_at_degree_7(seed):
    """All 18 Reports pass at N = 7 on seeded random rationals.  At fixed N
    each identity is one of rational functions in p1..p4, so agreement at
    random points off the forbidden set is strong evidence for it
    (Schwartz-Zippel)."""
    reports = run_suites(_seeded_parameter_set(seed), 7)
    assert len(reports) == 18
    assert [r.name for r in reports if not r.ok] == []


def test_report_describes_values_past_the_str_digit_limit():
    """A failed check on an int too long for repr counts once and keeps
    its context; the value is printed exactly."""
    with Report("probe") as report:
        report.equal(Fraction(7**6000), 0, "ctx")
    assert report.checked == 1
    assert report.first_failure.startswith("ctx: ")
    assert report.first_failure.endswith(" != 0")
    assert format_rational(7**6000) in report.first_failure


def test_report_keeps_repr_text():
    with Report("probe") as rec:
        rec.equal(Fraction(1, 2), 0, "ctx")
        rec.equal_over(3, 4, 6, "later")
    assert rec == Report("probe", 2, "ctx: Fraction(1, 2) != 0")
    with Report("probe") as rec:
        rec.equal_over(3, 4, 6, "over")
    assert rec.first_failure == "over: Fraction(1, 2) != Fraction(2, 3)"

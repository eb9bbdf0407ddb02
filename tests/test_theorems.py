from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rahman.form import BilinearForm
from rahman.params import ParameterSet, derive
from rahman.polymodule import (
    verify_action_tables,
    verify_block_structure,
    verify_representation_law,
    verify_weight_diagonality,
)
from rahman.polynomials import eval_P
from rahman.report import Recorder
from rahman.scalars import multinomial
from rahman.sl3 import build, verify_dagger
from rahman.theorems import (
    run_suites,
    verify_operator_identities,
    verify_orthogonality,
    verify_pcosines,
    verify_recurrences,
    verify_trans1,
    verify_trans2,
)

from conftest import PARAM_MATRIX
from test_params import valid_parameter_sets


@pytest.fixture(scope="module")
def contexts(structures):
    out = {}
    for p in PARAM_MATRIX:
        s = structures[p]
        for n in range(0, 4):
            out[p, n] = (s, BilinearForm(s, n), s.d)
    return out


@pytest.mark.parametrize("n", [0, 2, 3])
@pytest.mark.parametrize("p", PARAM_MATRIX, ids=str)
def test_trans2(contexts, p, n):
    s, f, d = contexts[p, n]
    report = verify_trans2(s, f, d, n)
    assert report.ok, report.first_failure


@pytest.mark.parametrize("n", [0, 2, 3])
@pytest.mark.parametrize("p", PARAM_MATRIX, ids=str)
def test_trans1(contexts, p, n):
    s, f, d = contexts[p, n]
    report = verify_trans1(s, f, d, n)
    assert report.ok, report.first_failure


@pytest.mark.parametrize("n", [0, 1, 3])
@pytest.mark.parametrize("p", PARAM_MATRIX, ids=str)
def test_pcosines(contexts, p, n):
    s, f, d = contexts[p, n]
    report = verify_pcosines(s, f, d, n)
    assert report.ok, report.first_failure


@pytest.mark.parametrize("verifier", [verify_trans1, verify_trans2, verify_pcosines],
                         ids=lambda v: v.__name__)
def test_transition_verifiers_read_eval_P(contexts, monkeypatch, verifier):
    """Each transition check compares against eval_P itself, not a table
    built by the code it checks: one wrong eval_P value must trip it."""

    def perturbed(a, b, c, dd, derived, n):
        value = eval_P(a, b, c, dd, derived, n)
        return value + 1 if (a, b, c, dd) == (1, 0, 0, 1) else value

    monkeypatch.setattr("rahman.theorems.eval_P", perturbed)
    s, f, d = contexts[PARAM_MATRIX[0], 2]
    assert not verifier(s, f, d, 2).ok


@pytest.mark.parametrize("n", [0, 2, 3])
@pytest.mark.parametrize("p", PARAM_MATRIX, ids=str)
def test_orthogonality(contexts, p, n):
    report = verify_orthogonality(contexts[p, n][2], n)
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
def test_recurrences(contexts, p, n):
    report = verify_recurrences(p, contexts[p, n][2], n)
    assert report.ok, report.first_failure


@pytest.mark.parametrize("n", [0, 1, 3])
@pytest.mark.parametrize("p", PARAM_MATRIX, ids=str)
def test_operator_identities(contexts, p, n):
    s, f, d = contexts[p, n]
    report = verify_operator_identities(s, f, d, n)
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


def test_suite_determinism():
    p = ParameterSet.of(2, 1, 7, 3)
    first = [r.to_json() for r in run_suites(p, 2, ["transitions"])]
    second = [r.to_json() for r in run_suites(p, 2, ["transitions"])]
    assert first == second


def test_corruption_sensitivity(structures):
    """Perturbing one derived constant must break at least one verifier."""
    p = ParameterSet.of(1, 2, 3, 5)
    corrupted = structures[p].with_corrupted_eta_t(1, 1)
    from rahman.sl3 import verify_matrices

    assert not verify_matrices(corrupted).ok


@pytest.mark.parametrize(
    "verifier",
    [
        lambda s, n: verify_dagger(s),
        verify_action_tables,
        verify_block_structure,
        verify_representation_law,
        verify_weight_diagonality,
        lambda s, n: verify_operator_identities(s, None, s.d, n),
    ],
    ids=["dagger", "action_tables", "block_structure", "representation",
         "weights", "operators"],
)
def test_verifier_reports_a_raised_error_as_a_failure(verifier):
    """On a corrupted eta~_1 the tilde elements lose their zero trace; the
    verifier returns a failing Report naming the error instead of raising."""
    s = build(ParameterSet.of(1, 2, 3, 5)).with_corrupted_eta_t(1, 1)
    report = verifier(s, 2)
    assert report.status == "fail"
    assert report.checked >= 1
    assert report.first_failure.startswith("raised NotTraceless: trace is ")


def test_recorder_lets_other_errors_through():
    with pytest.raises(TypeError):
        with Recorder("probe"):
            raise TypeError("a programming error, not a failed check")


@given(valid_parameter_sets(), st.integers(min_value=0, max_value=3))
@settings(max_examples=15, deadline=None)
def test_module_and_operator_suites_on_random_parameters(p, n):
    reports = run_suites(p, n, ["module", "operators"])
    assert [r.name for r in reports if not r.ok] == []

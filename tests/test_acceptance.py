"""Acceptance suite: every criterion at zero tolerance.

Parameter matrix: (1,2,3,5), (2,1,7,3), (1,-2,3,5); degrees 0..5 where a
criterion calls for them.  Each test prints one PASS/FAIL line; run with
``pytest tests/test_acceptance.py -v -s`` to see them inline.
"""

from fractions import Fraction
import time

import pytest

from rahman.form import BilinearForm
from rahman.params import ParameterSet, derive
from rahman.polynomials import eval_P
from rahman.polymodule import (
    Poly3,
    irreducibility_probe,
    verify_action_tables,
    verify_block_structure,
    verify_representation_law,
    verify_weight_diagonality,
)
from rahman.sl3 import (
    build,
    verify_dagger,
    verify_expansions,
    verify_generation,
    verify_matrices,
)
from rahman.form import inner, verify_adjointness, verify_dual_sum_identities, verify_tilde_norms
from rahman.theorems import (
    verify_operator_identities,
    verify_orthogonality,
    verify_pcosines,
    verify_recurrences,
    verify_trans1,
    verify_trans2,
)

from conftest import with_corrupted_eta_t

PARAMS = [
    ParameterSet.of(1, 2, 3, 5),
    ParameterSet.of(2, 1, 7, 3),
    ParameterSet.of(1, -2, 3, 5),
]


@pytest.fixture(scope="module")
def ctx():
    """Structures and forms for the whole acceptance matrix."""
    out = {}
    for p in PARAMS:
        d = derive(p)
        s = build(p, d)
        forms = {n: BilinearForm(s, n) for n in range(6)}
        out[p] = (s, d, forms)
    return out


def _conclude(number: int, label: str, failures: list, started: float, budget: float):
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < budget
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict} criterion {number} ({label}): "
          f"{len(failures)} failures, {elapsed:.2f}s (budget {budget:.0f}s)")
    assert not failures, failures[0]
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def _collect(failures: list, report):
    if not report.ok:
        failures.append(f"{report.name}: {report.first_failure}")


def test_criterion_1_derived_constants(ctx):
    started = time.monotonic()
    failures = []
    for p in PARAMS:
        d = ctx[p][1]
        if sum(d.eta) != 1 or sum(d.eta_t) != 1:
            failures.append(f"{p}: weight triples do not sum to 1")
        if d.theta * d.theta_t != d.nu:
            failures.append(f"{p}: theta theta~ != nu")
        if d.k[0] != 1 or d.k_t[0] != 1:
            failures.append(f"{p}: k0 normalization broken")
        if d.eta[0] != 1 / d.nu or d.eta_t[0] != 1 / d.nu:
            failures.append(f"{p}: eta0 != 1/nu")
    d = ctx[PARAMS[0]][1]
    frozen = {
        "nu": (d.nu, Fraction(672)),
        "theta": (d.theta, Fraction(28)),
        "theta~": (d.theta_t, Fraction(24)),
        "eta": (d.eta, (Fraction(1, 672), Fraction(11, 42), Fraction(165, 224))),
        "eta~": (d.eta_t, (Fraction(1, 672), Fraction(11, 32), Fraction(55, 84))),
    }
    for name, (got, want) in frozen.items():
        if got != want:
            failures.append(f"(1,2,3,5): {name} = {got}, expected {want}")
    _conclude(1, "derived constants", failures, started, 1.0)


def test_criterion_2_structure_suite(ctx):
    started = time.monotonic()
    failures = []
    for p in PARAMS:
        s = ctx[p][0]
        for verifier in (verify_matrices, verify_dagger, verify_expansions, verify_generation):
            _collect(failures, verifier(s))
    _conclude(2, "sl3 structure", failures, started, 3.0)


def test_criterion_3_module_suite(ctx):
    started = time.monotonic()
    failures = []
    for p in PARAMS:
        s = ctx[p][0]
        for n in range(5):
            _collect(failures, verify_representation_law(s, n))
            _collect(failures, verify_action_tables(s, n))
            _collect(failures, verify_weight_diagonality(s, n))
        for n in range(6):
            _collect(failures, verify_block_structure(s, n))
            _collect(failures, irreducibility_probe(s, n))
    _conclude(3, "module action", failures, started, 30.0)


def test_criterion_4_form_suite(ctx):
    started = time.monotonic()
    failures = []
    for p in PARAMS:
        s, d, forms = ctx[p]
        for n in range(5):
            f = forms[n]
            if any(value == 0 for value in f.gram.values()):
                failures.append(f"{p} N={n}: zero Gram entry")
            _collect(failures, verify_adjointness(f))
            _collect(failures, verify_tilde_norms(f))
        for n in range(6):
            _collect(failures, verify_dual_sum_identities(forms[n]))
    _conclude(4, "bilinear form", failures, started, 60.0)


def test_criterion_5_theorem_suite(ctx):
    started = time.monotonic()
    failures = []
    for p in PARAMS:
        s, _, forms = ctx[p]
        for n in range(5):
            f = forms[n]
            _collect(failures, verify_trans1(f))
            _collect(failures, verify_trans2(f))
            _collect(failures, verify_pcosines(f))
            _collect(failures, verify_recurrences(s, n))
            _collect(failures, verify_operator_identities(s, n))
        for n in range(6):
            _collect(failures, verify_orthogonality(forms[n]))
    _conclude(5, "theorem verifiers", failures, started, 300.0)


def test_criterion_6_corruption_sensitivity(ctx):
    started = time.monotonic()
    s = with_corrupted_eta_t(ctx[PARAMS[0]][0], 1, 1)
    f = BilinearForm(s, 2)
    checks = [
        lambda: verify_matrices(s),
        lambda: verify_dagger(s),
        lambda: verify_expansions(s),
        lambda: verify_generation(s),
        lambda: verify_block_structure(s, 2),
        lambda: verify_adjointness(f),
        lambda: verify_tilde_norms(f),
        lambda: verify_dual_sum_identities(f),
        lambda: verify_trans2(f),
        lambda: verify_pcosines(f),
        lambda: verify_orthogonality(f),
    ]
    # every verifier reports a raised error as a failed check, so none raises
    failed = [report.name for report in (check() for check in checks) if not report.ok]
    ok = len(failed) >= 1
    print(f"{'PASS' if ok else 'FAIL'} criterion 6 (corruption sensitivity): "
          f"{len(failed)} verifiers tripped ({', '.join(failed) or 'none'}), "
          f"{time.monotonic() - started:.2f}s")
    assert ok, "corrupted eta~_1 went undetected"


def test_criterion_7_spot_values(ctx):
    started = time.monotonic()
    failures = []
    for p in PARAMS:
        d = ctx[p][1]
        for n in (1, 2):
            for c in range(n + 1):
                for dd in range(n + 1 - c):
                    if eval_P(0, 0, c, dd, d, n) != 1:
                        failures.append(f"{p}: P(0,0,{c},{dd}) != 1")
                    if eval_P(c, dd, 0, 0, d, n) != 1:
                        failures.append(f"{p}: P({c},{dd},0,0) != 1")
    d = ctx[PARAMS[0]][1]
    if eval_P(1, 0, 1, 0, d, 1) != Fraction(-1, 11):
        failures.append("P(1,0,1,0) != -1/11 at (1,2,3,5), N=1")
    s, _, forms = ctx[PARAMS[0]]
    value = inner(
        Poly3.monomial(0, 1, 0),
        forms[1].expand(Poly3.monomial(1, 0, 0)),
        forms[1],
    )
    if value != 672:
        failures.append(f"<y, x~> = {value}, expected 672")
    _conclude(7, "spot values", failures, started, 5.0)

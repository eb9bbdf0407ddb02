import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rahman import eval_P, run_suites
from rahman.params import (
    ParameterSet,
    ValidationError,
    derive,
    load_params_file,
    validate,
)
from rahman.scalars import parse_rational

from conftest import fraction_derive, fraction_validate

nonzero_rationals = st.fractions(
    min_value=-30, max_value=30, max_denominator=6
).filter(lambda q: q != 0)


def valid_parameter_sets():
    def accept(values):
        try:
            validate(ParameterSet(*values))
            return True
        except ValidationError:
            return False

    return st.tuples(
        nonzero_rationals, nonzero_rationals, nonzero_rationals, nonzero_rationals
    ).filter(accept).map(lambda v: ParameterSet(*v))


# Negative and non-integer, numerators up to 10^6, denominators up to 10^4.
wide_rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4))


def wide_parameter_sets():
    """Valid parameter sets of ``wide_rationals``."""
    def accept(values):
        try:
            fraction_validate(ParameterSet(*values))
            return True
        except ValidationError:
            return False

    return st.tuples(*[wide_rationals] * 4).filter(accept).map(lambda v: ParameterSet(*v))


# One forbidden combination made to vanish by solving for one parameter.
VANISHING = [
    lambda p1, p2, p3, p4: (0, p2, p3, p4),
    lambda p1, p2, p3, p4: (p1, 0, p3, p4),
    lambda p1, p2, p3, p4: (p1, p2, 0, p4),
    lambda p1, p2, p3, p4: (p1, p2, p3, 0),
    lambda p1, p2, p3, p4: (p1, -p1, p3, p4),
    lambda p1, p2, p3, p4: (p1, p2, -p1, p4),
    lambda p1, p2, p3, p4: (p1, p2, p3, -p2),
    lambda p1, p2, p3, p4: (p1, p2, p3, -p3),
    lambda p1, p2, p3, p4: (p1, p2, p3, -p1 - p2 - p3),
    lambda p1, p2, p3, p4: (p1, p2, p3, p2 * p3 / p1 if p1 else p4),
]


def test_validate_accepts_reference_set():
    validate(ParameterSet.of(1, 2, 3, 5))


def test_validate_zero_determinant():
    with pytest.raises(ValidationError) as err:
        validate(ParameterSet.of(1, 2, 3, 6))
    assert err.value.expression == "p1p4-p2p3"


def test_validate_zero_pair_sum():
    with pytest.raises(ValidationError) as err:
        validate(ParameterSet.of(1, -1, 3, 5))
    assert err.value.expression == "p1+p2"


def test_validate_zero_parameter():
    with pytest.raises(ValidationError) as err:
        validate(ParameterSet.of(0, 2, 3, 5))
    assert err.value.expression == "p1"


def test_derive_reference_constants():
    d = derive(ParameterSet.of(1, 2, 3, 5))
    assert d.nu == 672
    assert d.theta == 28
    assert d.theta_t == 24
    assert d.eta == (Fraction(1, 672), Fraction(11, 42), Fraction(165, 224))
    assert d.eta_t == (Fraction(1, 672), Fraction(11, 32), Fraction(55, 84))


def test_plain_int_parameters_stay_exact():
    p = ParameterSet(1, 2, 3, 5)
    assert all(type(x) is Fraction for x in p.as_tuple())
    assert p == ParameterSet.of(1, 2, 3, 5)
    d = derive(p)
    assert d == derive(ParameterSet.of(1, 2, 3, 5))
    value = eval_P(1, 0, 0, 1, d, 2)
    assert type(value) is Fraction and value == Fraction(17, 33)
    assert all(report.ok for report in run_suites(p, 2))


@pytest.mark.parametrize("bad", [0.5, 2.0, True, False])
def test_float_and_bool_parameters_are_refused(bad):
    with pytest.raises(ValueError):
        ParameterSet(bad, 2, 3, 5)
    with pytest.raises(ValueError):
        ParameterSet.of(1, 2, 3, bad)


def test_derive_rejects_invalid():
    with pytest.raises(ValidationError):
        derive(ParameterSet.of(1, 2, 3, 6))


@given(valid_parameter_sets())
def test_derived_invariants(p):
    d = derive(p)
    assert sum(d.eta) == 1
    assert sum(d.eta_t) == 1
    assert d.eta[0] == d.eta_t[0] == 1 / d.nu
    assert d.theta * d.theta_t == d.nu
    assert d.k[0] == 1 and d.k_t[0] == 1
    assert d.k == tuple(d.nu * e for e in d.eta_t)
    assert d.k_t == tuple(d.nu * e for e in d.eta)
    for group in (d.eta, d.eta_t, d.k, d.k_t, (d.t, d.u, d.v, d.w, d.nu, d.theta, d.theta_t)):
        assert all(x != 0 for x in group)


@given(wide_parameter_sets())
def test_derive_matches_the_fraction_chain(p):
    """One Fraction per constant off the cleared integers gives every field
    of the Fraction chain, by value and by repr (``export structure``
    prints them)."""
    d, expected = derive(p), fraction_derive(p)
    assert d == expected and repr(d) == repr(expected)
    for group in (d.eta, d.eta_t, d.k, d.k_t, (d.t, d.u, d.v, d.w, d.nu, d.theta, d.theta_t)):
        assert all(type(x) is Fraction for x in group)


def _first_vanishing(check, p):
    try:
        check(p)
    except ValidationError as err:
        return err.expression
    return None


@given(st.tuples(*[wide_rationals] * 4))
def test_validate_names_the_first_vanishing_combination(values):
    """On the cleared integers validate refuses exactly what the Fraction
    check refuses, naming the same first combination, also when two
    vanish at once; derive refuses the same."""
    for pair in itertools.product([None, *VANISHING], repeat=2):
        changed = values
        for vanish in filter(None, pair):
            changed = vanish(*changed)
        p = ParameterSet(*changed)
        expected = _first_vanishing(fraction_validate, p)
        assert _first_vanishing(validate, p) == expected
        if expected is not None:
            assert _first_vanishing(derive, p) == expected


def test_load_params_file(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"p": ["1", "2", "3", "5"], "N": 4}))
    p, n = load_params_file(path)
    assert p == ParameterSet.of(1, 2, 3, 5)
    assert n == 4


def test_load_params_file_without_n(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"p": ["-1/11", "2", "3", "5"]}))
    p, n = load_params_file(path)
    assert p.p1 == Fraction(-1, 11)
    assert n is None


@pytest.mark.parametrize("text", ["0.30000000000000001", "0.00001", "123456789012345678.5"])
def test_load_params_file_reads_a_json_decimal_as_written(tmp_path, text):
    """A JSON number in a parameter file keeps every digit it was written
    with, as the same text does in --p."""
    path = tmp_path / "params.json"
    path.write_text(f'{{"p": [{text}, 2, 3, 5]}}')
    p, _ = load_params_file(path)
    assert p == ParameterSet(*(parse_rational(x) for x in f"{text},2,3,5".split(",")))
    assert p.p1 == Fraction(text)

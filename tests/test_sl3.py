import dataclasses
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from rahman import params, sl3
from rahman.matrices import Mat
from rahman.params import ParameterSet, ValidationError, derive
from rahman.scalars import format_rational
from rahman.sl3 import (
    NotTraceless,
    build,
    dagger,
    expansion_coefficients,
    r_closed_form,
    verify_dagger,
    verify_expansions,
    verify_generation,
    verify_matrices,
)

from conftest import (
    EXPANSION_BASIS,
    PARAM_MATRIX,
    Dense,
    dense_product,
    fraction_structure,
    phi_t_table,
    varphi_t_table,
    with_corrupted_eta_t,
)
from test_params import valid_parameter_sets, wide_parameter_sets, wide_rationals


def test_r_corner_entry(reference_structure):
    # (p2 p3 - p1 p4) / ((p1+p3)(p2+p4)) at (1,2,3,5)
    assert reference_structure.R[0, 0] == Fraction(1, 28)


@pytest.mark.parametrize("p", PARAM_MATRIX, ids=str)
def test_matrix_identities(structures, p):
    report = verify_matrices(structures[p])
    assert report.ok, report.first_failure


@pytest.mark.parametrize("p", PARAM_MATRIX, ids=str)
def test_dagger_tables_and_bracket_law(structures, p):
    report = verify_dagger(structures[p])
    assert report.ok, report.first_failure


@pytest.mark.parametrize("p", PARAM_MATRIX, ids=str)
def test_expansions(structures, p):
    report = verify_expansions(structures[p])
    assert report.ok, report.first_failure


@pytest.mark.parametrize("p", PARAM_MATRIX, ids=str)
def test_generation(structures, p):
    report = verify_generation(structures[p])
    assert report.ok, report.first_failure


@given(valid_parameter_sets())
@settings(max_examples=60, deadline=None)
def test_the_phi_t_table_is_the_papers(p):
    assert expansion_coefficients(p)[1] == phi_t_table(p)


@given(valid_parameter_sets())
@settings(max_examples=60, deadline=None)
def test_both_integer_expansion_tables_are_the_papers(p):
    """The integer tables equal the Fraction transcriptions of the paper's
    varphi~ and phi~ tables, on negative and non-integer parameters too."""
    assert expansion_coefficients(p) == (varphi_t_table(p), phi_t_table(p))


@pytest.mark.parametrize(
    "values, expression",
    [((1, -1, 3, 5), "p1+p2"), ((1, 2, -1, 5), "p1+p3"), ((1, 2, 3, -2), "p2+p4"),
     ((1, 2, 3, 6), "p1p4-p2p3")],
)
def test_expansion_coefficients_refuses_an_invalid_p(values, expression):
    """A vanishing denominator of the tables is refused by name, before any
    table is formed, as ``validate`` names it."""
    with pytest.raises(ValidationError) as caught:
        expansion_coefficients(ParameterSet.of(*values))
    assert str(caught.value) == f"zero denominator: {expression} = 0"


@given(valid_parameter_sets())
@settings(max_examples=30, deadline=None)
def test_the_mirror_negates_r_and_exchanges_its_columns_1_and_2(p):
    """The mirror (p3, p4, p1, p2) of a valid p is valid, and its R is -R
    with columns 1 and 2 exchanged: it exchanges y~ and z~, so varphi~
    and phi~."""
    R = r_closed_form(p)
    mirror = ParameterSet.of(p.p3, p.p4, p.p1, p.p2)
    assert r_closed_form(mirror) == Mat([[-R[i, j] for j in (0, 2, 1)] for i in range(3)])
    s, t = build(p), build(mirror)
    assert (t.varphi_t, t.phi_t) == (s.phi_t, s.varphi_t)


@pytest.mark.parametrize("key", list(EXPANSION_BASIS))
def test_a_wrong_phi_t_entry_trips_the_expansions_at_phi_t(monkeypatch, reference_params, key):
    tables = sl3.expansion_coefficients

    def wrong(p):
        varphi_t, phi_t = tables(p)
        return varphi_t, phi_t + EXPANSION_BASIS[key]

    monkeypatch.setattr(sl3, "expansion_coefficients", wrong)
    report = verify_expansions(build(reference_params))
    assert report.first_failure.startswith("phi~ expansion: "), report.first_failure


def test_dagger_fixes_cartan_elements(reference_structure):
    s = reference_structure
    assert dagger(s.varphi, s) == s.varphi
    assert dagger(s.phi, s) == s.phi
    assert dagger(s.varphi_t, s) == s.varphi_t
    assert dagger(s.phi_t, s) == s.phi_t


def test_dagger_unit_example(reference_structure):
    s = reference_structure
    eta_t = s.d.eta_t
    assert dagger(s.e[0, 1], s) == s.e[1, 0].scale(eta_t[1] / eta_t[0])
    eta = s.d.eta
    assert dagger(s.e_t[0, 1], s) == s.e_t[1, 0].scale(eta[1] / eta[0])


@pytest.mark.parametrize("p", PARAM_MATRIX, ids=str)
def test_dagger_is_the_conjugated_transpose(structures, p):
    """The entrywise formula against W~ beta^t W~^-1, W~^-1 the diagonal of
    the reciprocals."""
    s = structures[p]
    wt_inverse = Mat.diag(1 / s.Wt[i, i] for i in range(3))
    for beta in {**s.cartan_basis(), **s.tilde_basis()}.values():
        assert dagger(beta, s) == s.Wt @ beta.transpose() @ wt_inverse


def test_dagger_requires_traceless(reference_structure):
    with pytest.raises(NotTraceless):
        dagger(Mat.identity(), reference_structure)


def test_tilde_conjugate(reference_structure):
    s = reference_structure
    assert s.R @ Mat.identity() @ s.Rinv == Mat.identity()
    assert s.R @ s.varphi @ s.Rinv == s.varphi_t
    assert s.R @ s.phi @ s.Rinv == s.phi_t


def test_tilde_cartan_is_abelian(reference_structure):
    s = reference_structure
    assert s.varphi_t.bracket(s.phi_t) == Mat.zero()


def test_trace_preserved_by_conjugation(reference_structure):
    s = reference_structure
    for beta in list(s.e.values()) + [s.varphi, s.phi]:
        assert (s.R @ beta @ s.Rinv).trace() == 0
        assert dagger(beta, s).trace() == 0


def test_corrupted_r_entry_is_caught(reference_params):
    """The expansion verifier must detect a perturbed transition matrix."""
    import dataclasses

    s = build(reference_params)
    rows = [list(row) for row in s.R.rows]
    rows[1][1] += 1
    bad_r = Mat(rows)
    corrupted = dataclasses.replace(s, R=bad_r)
    assert not verify_expansions(corrupted).ok


def test_conjugates_are_built_from_the_structures_own_r(reference_params):
    """The tilde generators are read off R and R^-1 of the structure they
    belong to, so a replaced R carries into every one of them."""
    import dataclasses

    s = build(reference_params)
    rows = [list(row) for row in s.R.rows]
    rows[0][2] -= 3
    bad_r = Mat(rows)
    corrupted = dataclasses.replace(s, R=bad_r)
    assert corrupted.varphi_t == bad_r @ s.varphi @ s.Rinv
    assert corrupted.phi_t == bad_r @ s.phi @ s.Rinv
    assert corrupted.psi_t == -(bad_r @ s.varphi @ s.Rinv) - bad_r @ s.phi @ s.Rinv
    for key, unit in s.e.items():
        assert corrupted.e_t[key] == bad_r @ unit @ s.Rinv
    assert s.varphi_t == s.R @ s.varphi @ s.Rinv


def test_build_validates_once(monkeypatch, reference_params):
    """With no preset constants, ``derive`` is the one validation."""
    calls = []
    cleared = params._cleared
    monkeypatch.setattr(params, "_cleared", lambda p: calls.append(p) or cleared(p))
    build(reference_params)
    assert calls == [reference_params]


@pytest.mark.parametrize("preset", [False, True], ids=["derived", "preset"])
@pytest.mark.parametrize(
    "values, expression",
    [
        ((0, 2, 3, 5), "p1"),
        ((1, -1, 3, 5), "p1+p2"),
        ((1, 2, 3, -6), "p1+p2+p3+p4"),
        ((2, 3, 4, 6), "p1p4-p2p3"),
    ],
)
def test_build_refuses_an_invalid_p_with_or_without_preset_constants(values, expression, preset):
    d = derive(ParameterSet.of(1, 2, 3, 5)) if preset else None
    with pytest.raises(ValidationError) as err:
        build(ParameterSet.of(*values), d)
    assert err.value.expression == expression


def _assert_structure_is_the_oracle(s):
    """U, W, W~, R and R^-1 of s, as Fractions, are the oracle's from s.d."""
    for name, expected in fraction_structure(s.d).items():
        assert Dense(getattr(s, name).rows) == expected, name


@given(st.one_of(valid_parameter_sets(), wide_parameter_sets()))
@settings(max_examples=150, deadline=None)
def test_build_matches_the_fraction_formula(p):
    """The integer rows of ``build`` are the Fraction products, on negative
    and non-integer parameters, and so are those of the dual."""
    s = build(p)
    _assert_structure_is_the_oracle(s)
    _assert_structure_is_the_oracle(s.dual())


@given(valid_parameter_sets(), st.integers(0, 2), st.one_of(wide_rationals, st.just(None)))
@settings(max_examples=100, deadline=None)
def test_build_on_corrupted_constants_matches_the_fraction_formula(p, index, delta):
    """``build(p, d)`` reads the preset constants, corrupted or zeroed."""
    s = build(p)
    delta = -s.d.eta_t[index] if delta is None else delta
    _assert_structure_is_the_oracle(with_corrupted_eta_t(s, index, delta))


def _dagger_oracle(beta, eta_t):
    """W~ beta^t W~^-1, Fraction by Fraction; a zero entry of beta stays
    zero with no division."""
    return Dense([
        [eta_t[i] * beta[j, i] / eta_t[j] if beta[j, i] else 0 for j in range(3)]
        for i in range(3)
    ])


@pytest.mark.parametrize("index", range(3))
def test_dagger_reads_the_weights_of_a_replaced_structure(reference_structure, index):
    """A structure replaced after its weights were read brings its own: a
    shifted eta~ gives its own W~ beta^t W~^-1, and a zeroed eta~_j raises
    on every entry that divides by it, naming eta~_j."""
    s = reference_structure
    beta = s.varphi_t + s.e[0, 1] + s.e[2, 1]
    dagger(beta, s)  # reads the reference weights first
    eta_t = list(s.d.eta_t)
    eta_t[index] += 3
    shifted = dataclasses.replace(s, d=dataclasses.replace(s.d, eta_t=tuple(eta_t)))
    assert Dense(dagger(beta, shifted).rows) == _dagger_oracle(beta, eta_t)
    assert Dense(dagger(beta, s).rows) == _dagger_oracle(beta, s.d.eta_t)

    eta_t[index] = Fraction(0)
    zeroed = dataclasses.replace(s, d=dataclasses.replace(s.d, eta_t=tuple(eta_t)))
    with pytest.raises(ZeroDivisionError) as err:
        dagger(beta, zeroed)
    assert type(err.value) is ZeroDivisionError
    assert str(err.value) == f"zero denominator: eta~_{index} = 0"
    # A matrix with no entry over eta~_index needs no division by it.
    others = [j for j in range(3) if j != index]
    unit = s.e[others[0], others[1]]
    assert Dense(dagger(unit, zeroed).rows) == _dagger_oracle(unit, eta_t)


def test_closed_form_matches_factored_form():
    p = ParameterSet.of(3, 4, 1, 9)
    assert build(p).R == r_closed_form(p)


# Rational entries, about half of them zero, as in the matrix units and
# diagonals of the structure.
half_zero_entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-20, max_value=20, max_denominator=9),
)
matrices_3x3 = st.lists(
    st.lists(half_zero_entries, min_size=3, max_size=3), min_size=3, max_size=3
).map(Mat)


@given(matrices_3x3, matrices_3x3)
@settings(max_examples=200, deadline=None)
def test_matmul_matches_the_dense_triple_loop(a, b):
    product = a @ b
    assert product == Mat(dense_product(a, b))
    assert all(type(x) is Fraction for row in product.rows for x in row)
    assert a.bracket(b) == Mat(dense_product(a, b)) - Mat(dense_product(b, a))


def _same(m: Mat, rows) -> None:
    """m holds exactly the Fraction rows ``rows``, in canonical form: a
    positive den coprime to the int numerators, so equal values have
    equal forms and zero has den 1."""
    assert type(m.den) is int and m.den > 0
    assert all(type(x) is int for row in m.nums for x in row)
    assert gcd(m.den, *(x for row in m.nums for x in row)) == 1
    if not any(any(row) for row in rows):
        assert m.den == 1
    assert m.rows == tuple(tuple(row) for row in rows)
    assert all(type(x) is Fraction for row in m.rows for x in row)
    assert all(
        type(m[i, j]) is Fraction and m[i, j] == rows[i][j]
        for i in range(len(rows)) for j in range(len(rows[0]))
    )
    rebuilt = Mat(rows)
    assert (m.nums, m.den) == (rebuilt.nums, rebuilt.den) and m == rebuilt


@given(matrices_3x3, matrices_3x3, half_zero_entries)
@settings(max_examples=200, deadline=None)
def test_mat_matches_the_fraction_entrywise_oracle(a, b, c):
    """Every operation equals its entrywise Fraction formula and leaves a
    canonical (nums, den); the Fraction views and texts read the same."""
    ra, rb = a.rows, b.rows
    idx = range(3)
    _same(a, ra)
    _same(a + b, [[ra[i][j] + rb[i][j] for j in idx] for i in idx])
    _same(a - b, [[ra[i][j] - rb[i][j] for j in idx] for i in idx])
    _same(-a, [[-ra[i][j] for j in idx] for i in idx])
    _same(a.scale(c), [[c * ra[i][j] for j in idx] for i in idx])
    _same(a @ b, dense_product(a, b))
    _same(a.transpose(), [[ra[j][i] for j in idx] for i in idx])
    _same(a.bracket(b), [
        [x - y for x, y in zip(row_ab, row_ba)]
        for row_ab, row_ba in zip(dense_product(a, b), dense_product(b, a))
    ])
    _same(a - a, [[Fraction(0)] * 3 for _ in idx])
    assert a.trace() == sum(ra[i][i] for i in idx) and type(a.trace()) is Fraction
    vector = [rb[0][j] for j in idx]
    assert a.apply(vector) == [sum(ra[i][j] * vector[j] for j in idx) for i in idx]
    assert a.to_json() == [[format_rational(x) for x in row] for row in ra]
    assert repr(a) == f"Mat({[[str(x) for x in row] for row in ra]})"
    assert (a == b) == (ra == rb)
    try:
        inverse = a.inverse()
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            Dense(ra).inverse()
        return
    _same(inverse, Dense(ra).inverse().rows)
    _same(inverse @ a, [[Fraction(int(i == j)) for j in idx] for i in idx])


@pytest.mark.parametrize("bad", [0.1, 2.0, True, False])
def test_mat_refuses_float_and_bool_entries(bad):
    with pytest.raises(ValueError, match="matrix entry"):
        Mat([[1, bad, 0], [0, 1, 0], [0, 0, 1]])
    assert Mat.diag([Fraction(1, 10), 0, 0])[0, 0] == Fraction(1, 10)


@pytest.mark.parametrize("bad", [0.1, 2.0, True, False])
def test_mat_scale_refuses_float_and_bool_factors(bad):
    m = Mat([[1, Fraction(1, 3), 0], [0, -2, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="factor"):
        m.scale(bad)
    assert m.scale(Fraction(1, 10)) == Mat(
        [[Fraction(1, 10), Fraction(1, 30), 0], [0, Fraction(-1, 5), 0], [0, 0, Fraction(1, 10)]]
    )
    assert m.scale(3) == Mat([[3, 1, 0], [0, -6, 0], [0, 0, 3]])


def test_matmul_of_units_and_zero():
    e01, e10 = Mat.unit(0, 1), Mat.unit(1, 0)
    assert e01 @ e10 == Mat.unit(0, 0)
    assert e01 @ e01 == Mat.zero()
    assert Mat.zero() @ e01 == Mat.zero()


@pytest.mark.parametrize(
    "make",
    [
        lambda: Mat([]),
        lambda: Mat([[1]]),
        lambda: Mat([[1, 2], [3, 4]]),
        lambda: Mat([[1, 2, 3], [4, 5, 6]]),
        lambda: Mat([[1, 2], [3, 4], [5, 6]]),
        lambda: Mat([[int(i == j) for j in range(4)] for i in range(4)]),
        lambda: Mat([[1, 2, 3], [4, 5], [6, 7, 8]]),
        lambda: Mat.identity().apply([Fraction(1)] * 2),
        lambda: Mat.identity().apply([Fraction(1)] * 4),
    ],
    ids=["empty", "1x1", "2x2", "2x3", "3x2", "4x4", "ragged", "apply-2", "apply-4"],
)
def test_mat_refuses_every_shape_but_3x3(make):
    with pytest.raises(ValueError, match="3x3|3-vector"):
        make()


@pytest.mark.parametrize(
    "read",
    [
        lambda: Mat.unit(3, 0),
        lambda: Mat.unit(0, 3),
        lambda: Mat.unit(-1, 0),
        lambda: Mat.unit(0, -1),
        lambda: Mat.identity()[-1, 2],
        lambda: Mat.identity()[2, -1],
        lambda: Mat.identity()[3, 0],
        lambda: Mat.identity()[0, 3],
    ],
    ids=["unit-3-0", "unit-0-3", "unit-neg-row", "unit-neg-column",
         "entry-neg-row", "entry-neg-column", "entry-3-0", "entry-0-3"],
)
def test_mat_indices_outside_0_to_2_raise(read):
    """An index outside 0..2 raises IndexError: a unit is never the zero
    matrix, and a negative index does not wrap around to row or column 2."""
    with pytest.raises(IndexError, match="outside 0..2"):
        read()

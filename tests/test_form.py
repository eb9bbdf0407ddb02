import dataclasses
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from rahman.form import (
    BilinearForm,
    dual_basis,
    inner,
    p_table,
    verify_adjointness,
    verify_dual_sum_identities,
    verify_tilde_norms,
)
from rahman.params import ParameterSet, derive
from rahman.polymodule import DegreeMismatch, Poly3, lattice
from rahman.polynomials import eval_P
from rahman.sl3 import build

from conftest import (
    PARAM_MATRIX,
    expand_tilde_monomial_direct,
    fraction_gram,
    with_corrupted_eta_t,
)
from test_params import valid_parameter_sets, wide_parameter_sets, wide_rationals


@pytest.fixture(scope="module")
def forms(structures):
    return {
        (p, n): BilinearForm(structures[p], n)
        for p in PARAM_MATRIX
        for n in range(0, 5)
    }


def test_monomial_norm_formula(reference_structure):
    s = reference_structure
    for n in range(0, 4):
        f = BilinearForm(s, n)
        xn = Poly3.monomial(n, 0, 0)
        expected = Fraction(factorial(n)) * s.d.theta**n / s.d.eta_t[0] ** n
        assert inner(xn, xn, f) == expected


def test_distinct_monomials_are_orthogonal(reference_structure):
    s = reference_structure
    f = BilinearForm(s, 3)
    points = lattice(3)
    for i, a in enumerate(points):
        for b in points[i + 1:]:
            assert inner(Poly3.monomial(*a), Poly3.monomial(*b), f) == 0


def test_gram_diagonal_nonzero(reference_structure):
    f = BilinearForm(reference_structure, 4)
    assert all(value != 0 for value in f.gram.values())


def test_mixed_basis_spot_value(reference_structure):
    s = reference_structure
    f = BilinearForm(s, 1)
    y = Poly3.monomial(0, 1, 0)
    xt = f.expand(Poly3.monomial(1, 0, 0))
    assert inner(y, xt, f) == 672


def test_degree_mismatch(reference_structure):
    f = BilinearForm(reference_structure, 2)
    with pytest.raises(DegreeMismatch):
        inner(Poly3.monomial(1, 0, 0), Poly3.monomial(1, 1, 0), f)
    with pytest.raises(DegreeMismatch):
        inner(Poly3.monomial(1, 1, 0), Poly3.monomial(1, 0, 0), f)
    with pytest.raises(DegreeMismatch):
        f.expand(Poly3.monomial(1, 0, 0))


@given(
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    st.sampled_from(lattice(2)),
    st.sampled_from(lattice(2)),
    st.sampled_from(lattice(2)),
)
@settings(max_examples=50, deadline=None)
def test_symmetry_and_bilinearity(a, b, pa, pb, pc):
    from rahman.params import ParameterSet
    from rahman.sl3 import build

    s = build(ParameterSet.of(1, 2, 3, 5))
    f = BilinearForm(s, 2)
    xi = Poly3.monomial(*pa, a if a != 0 else 1) + Poly3.monomial(*pb, b)
    zeta = Poly3.monomial(*pc)
    assert inner(xi, zeta, f) == inner(zeta, xi, f)
    assert inner(xi + zeta, zeta, f) == inner(xi, zeta, f) + inner(zeta, zeta, f)
    assert inner(xi.scale(3), zeta, f) == 3 * inner(xi, zeta, f)


def test_dual_basis_pairing_is_identity(reference_structure):
    s = reference_structure
    for n in (0, 2, 3):
        f = BilinearForm(s, n)
        monomials = [Poly3.monomial(*pt) for pt in lattice(n)]
        # The tilde side in tilde coordinates, paired through f.expand.
        for duals, to_plain in ((dual_basis(f), lambda xi: xi), (dual_basis(f.dual), f.expand)):
            for i, xi in enumerate(monomials):
                for j, dual in enumerate(duals):
                    assert inner(to_plain(xi), to_plain(dual), f) == int(i == j)


def _assert_table_matches_eval_P(s, n):
    pairs = [(st, t) for (_, st, t) in lattice(n)]
    table = p_table(BilinearForm(s, n))
    assert len(table) == len(pairs)
    for (st, t), row in zip(pairs, table):
        assert row == [eval_P(st, t, sigma, tau, s.d, n) for (sigma, tau) in pairs]


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("p", PARAM_MATRIX, ids=str)
def test_p_table_matches_eval_P(structures, p, n):
    _assert_table_matches_eval_P(structures[p], n)


@given(valid_parameter_sets(), st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_p_table_matches_eval_P_random(p, n):
    _assert_table_matches_eval_P(build(p, derive(p)), n)


def test_p_table_matches_eval_P_at_the_ceiling(reference_structure):
    """At the ceiling N=12, where the box bounds of eval_P cut the most
    terms: the four corners, the diagonal and the rows (6,6) and (0,12)."""
    s, n = reference_structure, 12
    pairs = [(st, t) for (_, st, t) in lattice(n)]
    table = p_table(BilinearForm(s, n))
    last = len(pairs) - 1
    sample = {(0, 0), (0, last), (last, 0), (last, last)}
    sample.update((i, i) for i in range(len(pairs)))
    for row in (pairs.index((6, 6)), pairs.index((0, 12))):
        sample.update((row, col) for col in range(len(pairs)))
    for row, col in sorted(sample):
        assert table[row][col] == eval_P(*pairs[row], *pairs[col], s.d, n)


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("p", PARAM_MATRIX, ids=str)
def test_p_matrix_is_eval_P_entry_by_entry(structures, p, n):
    s = structures[p]
    points = lattice(n)
    assert BilinearForm(s, n).p_matrix == [
        [eval_P(a, b, c, dd, s.d, n) for (_, c, dd) in points] for (_, a, b) in points
    ]


@given(valid_parameter_sets(), st.lists(wide_rationals, min_size=4, max_size=4),
       st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_the_dual_p_matrix_is_the_transpose_for_any_constants(p, kernel, n):
    """The dual swaps u and v, and the defining sum is symmetric under that
    swap with its two index pairs exchanged, so the dual form's P is the
    transpose for any t, u, v, w, not only derived ones: trans1 reads it so."""
    t, u, v, w = kernel
    s = build(p, dataclasses.replace(derive(p), t=t, u=u, v=v, w=w))
    f = BilinearForm(s, n)
    assert BilinearForm(s.dual(), n).p_matrix == [list(column) for column in zip(*f.p_matrix)]


def _columns_as_polys(f):
    """``f.tilde_columns`` as plain Poly3s, keyed by tilde monomial."""
    points = lattice(f.n)
    return {
        key: Poly3({point: Fraction(num, den) for point, num in zip(points, nums)})
        for key, (nums, den) in f.tilde_columns.items()
    }


def _assert_columns_match_direct_expansion(s, n, keys=None):
    columns = _columns_as_polys(BilinearForm(s, n))
    assert list(columns) == lattice(n)
    for key in lattice(n) if keys is None else keys:
        assert columns[key] == expand_tilde_monomial_direct(*key, s), key


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("p", PARAM_MATRIX, ids=str)
def test_tilde_columns_match_direct_expansion(structures, p, n):
    _assert_columns_match_direct_expansion(structures[p], n)


@pytest.mark.parametrize("index", range(3))
@pytest.mark.parametrize("shift", ["one", "half", "zero"])
def test_tilde_columns_match_direct_expansion_on_corrupted_eta_t(
    reference_structure, index, shift
):
    """A shifted eta~ changes R row by row; a zeroed one empties a row."""
    s = reference_structure
    delta = {"one": 1, "half": -s.d.eta_t[index] / 2, "zero": -s.d.eta_t[index]}[shift]
    corrupted = with_corrupted_eta_t(s, index, delta)
    for n in range(4):
        _assert_columns_match_direct_expansion(corrupted, n)


def test_tilde_columns_match_direct_expansion_at_the_ceiling():
    """N=12 on negative, non-integer parameters: the corners, both axes
    and a few interior tilde monomials."""
    p = ParameterSet.of(Fraction(-3, 2), 5, Fraction(1, 2), -3)
    keys = [(12, 0, 0), (0, 12, 0), (0, 0, 12), (4, 4, 4), (7, 1, 4), (0, 5, 7), (11, 0, 1)]
    _assert_columns_match_direct_expansion(build(p), 12, keys)


def _assert_tilde_gram_matches_inner(f):
    points = lattice(f.n)
    columns = [f.expand(Poly3.monomial(*point)) for point in points]
    assert f.tilde_gram == [[inner(a, b, f) for b in columns] for a in columns]


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("p", PARAM_MATRIX, ids=str)
def test_tilde_gram_matches_inner(forms, p, n):
    """The integer tilde Gram matrix against ``inner``, which expands both
    tilde monomials and sums Fraction products over the Gram diagonal."""
    _assert_tilde_gram_matches_inner(forms[p, n])


@pytest.mark.parametrize("index", range(3))
def test_tilde_gram_matches_inner_on_a_shifted_eta_t(reference_structure, index):
    corrupted = with_corrupted_eta_t(reference_structure, index, 1)
    for n in range(4):
        _assert_tilde_gram_matches_inner(BilinearForm(corrupted, n))


def test_gram_values_off_the_axis(reference_structure):
    """Mixed-exponent norms at (1,2,3,5), N=3, worked by hand from eta,
    eta~, theta = 28 and theta~ = 24: both sides of the one Gram formula."""
    s = reference_structure
    f = BilinearForm(s, 3)
    assert f.gram[(1, 1, 1)] == Fraction(39652687872, 605)
    assert f.gram[(0, 2, 1)] == Fraction(3776446464, 6655)
    xyz_t = f.expand(Poly3.monomial(1, 1, 1))
    assert inner(xyz_t, xyz_t, f) == Fraction(29132587008, 605)


def _with_constants(s, **fields):
    """s carrying its constants with ``fields`` replaced: the Gram reads
    ``s.d``, never the parameters."""
    return dataclasses.replace(s, d=dataclasses.replace(s.d, **fields))


def _assert_gram_is_the_oracle(s, n):
    gram, expected = BilinearForm(s, n).gram, fraction_gram(s.d, n)
    assert list(gram.items()) == list(expected.items())
    assert all(type(value) is Fraction for value in gram.values())


@given(wide_parameter_sets(), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_gram_matches_the_fraction_formula(p, n):
    """One Fraction per lattice point off integer power tables gives the
    Fraction formula's values, keys in lattice order, on both forms."""
    s = build(p)
    _assert_gram_is_the_oracle(s, n)
    _assert_gram_is_the_oracle(s.dual(), n)


@given(st.integers(0, 2), wide_rationals, wide_rationals, st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_gram_reads_corrupted_constants(index, delta, theta, n):
    """A changed eta~ weight or theta reaches the Gram through ``s.d``."""
    s = build(PARAM_MATRIX[0])
    eta_t = list(s.d.eta_t)
    eta_t[index] += delta
    if eta_t[index] == 0:
        eta_t[index] = delta
    _assert_gram_is_the_oracle(_with_constants(s, eta_t=tuple(eta_t), theta=theta), n)


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("index", range(3))
def test_gram_on_a_zeroed_eta_t_raises_as_the_fraction_formula(reference_structure, index, n):
    """eta~_index = 0 at N > 0 raises ZeroDivisionError naming the weight,
    where the Fraction formula raises its own."""
    s = reference_structure
    eta_t = list(s.d.eta_t)
    eta_t[index] = Fraction(0)
    s = _with_constants(s, eta_t=tuple(eta_t))
    with pytest.raises(ZeroDivisionError):
        fraction_gram(s.d, n)
    with pytest.raises(ZeroDivisionError) as err:
        BilinearForm(s, n).gram
    assert type(err.value) is ZeroDivisionError
    assert str(err.value) == f"zero denominator: eta~_{index} = 0"


@st.composite
def polynomial_pairs(draw, n):
    """Two degree-n polynomials on random lattice subsets, either possibly
    zero, with coefficients of mixed denominators."""
    points = st.lists(st.sampled_from(lattice(n)), max_size=6, unique=True)
    coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    return tuple(Poly3({point: draw(coefficients) for point in draw(points)}) for _ in range(2))


@given(wide_parameter_sets(), st.integers(0, 2), wide_rationals, st.data())
@settings(max_examples=100, deadline=None)
def test_inner_matches_the_fraction_sum_over_the_gram(p, index, delta, data):
    """``inner`` over the form's integer Gram is sum gram * xi * zeta over
    Fractions, on built and on shifted constants, and each form reads its
    own Gram."""
    n = data.draw(st.integers(0, 5))
    xi, zeta = data.draw(polynomial_pairs(n))
    s = build(p)
    shifted = with_corrupted_eta_t(s, index, delta if delta != -s.d.eta_t[index] else 1)
    for form in (BilinearForm(s, n), BilinearForm(shifted, n)):
        gram = fraction_gram(form.s.d, n)
        keys = xi.nums.keys() & zeta.nums.keys()
        expected = sum((gram[key] * xi[key] * zeta[key] for key in keys), Fraction(0))
        value = inner(xi, zeta, form)
        assert type(value) is Fraction and value == expected


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("index", range(3))
def test_inner_on_a_zeroed_eta_t_raises_only_where_the_supports_meet(
    reference_structure, index, n
):
    """With eta~_index = 0 the Gram cannot be built at N > 0: pairings of
    disjoint supports are 0 without it, and a pairing whose supports meet
    raises the Gram's ZeroDivisionError, every time it is asked."""
    s = with_corrupted_eta_t(reference_structure, index, -reference_structure.d.eta_t[index])
    f = BilinearForm(s, n)
    x_n, y_n = Poly3.monomial(n, 0, 0), Poly3.monomial(0, n, 0)
    assert inner(x_n, y_n, f) == 0
    assert inner(x_n, Poly3.zero(), f) == 0
    for _ in range(2):
        with pytest.raises(ZeroDivisionError) as err:
            inner(x_n + y_n, y_n, f)
        assert str(err.value) == f"zero denominator: eta~_{index} = 0"
    assert inner(y_n, x_n, f) == 0


def test_gram_at_degree_0_reads_no_eta_t_weight(reference_structure):
    """At N = 0 no weight has a positive power, so a zero one raises nothing."""
    s = _with_constants(reference_structure, eta_t=(Fraction(0),) * 3)
    assert BilinearForm(s, 0).gram == fraction_gram(s.d, 0) == {(0, 0, 0): 1}


def test_tilde_base_norm(reference_structure):
    s = reference_structure
    n = 3
    f = BilinearForm(s, n)
    xt_n = f.expand(Poly3.monomial(n, 0, 0))
    assert inner(xt_n, xt_n, f) == (
        Fraction(factorial(n)) * s.d.theta_t**n / s.d.eta[0] ** n
    )


@pytest.mark.parametrize("n", [0, 2, 3])
@pytest.mark.parametrize("p", PARAM_MATRIX, ids=str)
def test_adjointness(forms, p, n):
    report = verify_adjointness(forms[p, n])
    assert report.ok, report.first_failure


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("p", PARAM_MATRIX, ids=str)
def test_tilde_norms(forms, p, n):
    report = verify_tilde_norms(forms[p, n])
    assert report.ok, report.first_failure


@pytest.mark.parametrize("n", [0, 1, 3])
@pytest.mark.parametrize("p", PARAM_MATRIX, ids=str)
def test_dual_sum_identities(forms, p, n):
    report = verify_dual_sum_identities(forms[p, n])
    assert report.ok, report.first_failure

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from rahman.params import ParameterSet, derive
from rahman.polymodule import Poly3, action, lattice
from rahman.polynomials import (
    NonCommutingOperators,
    eval_P,
    eval_P_operator,
)

from conftest import PARAM_MATRIX, Dense
from test_params import valid_parameter_sets


def pochhammer(alpha, n: int) -> Fraction:
    """Shifted factorial alpha*(alpha+1)*...*(alpha+n-1), with empty product 1:
    the oracle of the defining sums below.

    For a nonpositive integer alpha = -m the result is 0 exactly when n > m.
    """
    if n < 0:
        raise ValueError(f"pochhammer order must be nonnegative, got {n}")
    result = Fraction(1)
    alpha = Fraction(alpha)
    for q in range(n):
        result *= alpha + q
        if result == 0:
            break
    return result


def test_pochhammer_negative_integer_truncates():
    assert pochhammer(-2, 3) == 0


def test_pochhammer_empty_product():
    assert pochhammer(Fraction(5, 2), 0) == 1


def test_pochhammer_direct_product():
    assert pochhammer(3, 2) == 12


def test_pochhammer_rejects_negative_order():
    with pytest.raises(ValueError):
        pochhammer(1, -1)


@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=20),
    st.integers(0, 20),
    st.integers(0, 20),
)
def test_pochhammer_addition_law(alpha, m, n):
    assert pochhammer(alpha, m + n) == pochhammer(alpha, m) * pochhammer(alpha + m, n)


@given(st.integers(0, 20), st.integers(0, 20))
def test_pochhammer_zero_law(m, n):
    value = pochhammer(-m, n)
    if n > m:
        assert value == 0
    else:
        assert value != 0


@pytest.fixture(scope="module")
def derived_matrix():
    return {p: derive(p) for p in PARAM_MATRIX}


@pytest.mark.parametrize("p", PARAM_MATRIX, ids=str)
def test_unit_values_first_pair_zero(derived_matrix, p):
    d = derived_matrix[p]
    for n in (1, 3):
        for c in range(n + 1):
            for dd in range(n + 1 - c):
                assert eval_P(0, 0, c, dd, d, n) == 1


@pytest.mark.parametrize("p", PARAM_MATRIX, ids=str)
def test_unit_values_second_pair_zero(derived_matrix, p):
    d = derived_matrix[p]
    for n in (1, 3):
        for a in range(n + 1):
            for b in range(n + 1 - a):
                assert eval_P(a, b, 0, 0, d, n) == 1


def test_reference_spot_value(derived_matrix):
    d = derived_matrix[ParameterSet.of(1, 2, 3, 5)]
    assert eval_P(1, 0, 1, 0, d, 1) == Fraction(-1, 11)
    assert eval_P(1, 0, 1, 0, d, 1) == 1 - d.t


def test_rejects_negative_arguments(derived_matrix):
    d = derived_matrix[ParameterSet.of(1, 2, 3, 5)]
    with pytest.raises(ValueError):
        eval_P(-1, 0, 0, 0, d, 2)


@pytest.mark.parametrize(
    "args, n",
    [((0, 0, 0, 0), -1), ((2, 1, 0, 0), 2), ((0, 0, 1, 2), 2), ((3, 0, 0, 3), 2)],
    ids=["negative-degree", "first-pair-off", "second-pair-off", "both-off"],
)
def test_rejects_arguments_off_the_lattice(derived_matrix, args, n):
    d = derived_matrix[ParameterSet.of(1, 2, 3, 5)]
    with pytest.raises(ValueError):
        eval_P(*args, d, n)


def _defining_term_weights(d, n):
    """The defining sum's weights, written out term by term: independent
    of the prefix tables in rahman.polynomials."""
    for i in range(n + 1):
        for j in range(n + 1 - i):
            for k in range(n + 1 - i - j):
                for l in range(n + 1 - i - j - k):
                    weight = (
                        d.t**i * d.u**j * d.v**k * d.w**l
                        / (
                            Fraction(
                                factorial(i) * factorial(j) * factorial(k) * factorial(l)
                            )
                            * pochhammer(-n, i + j + k + l)
                        )
                    )
                    yield (i, j, k, l), weight


def _defining_sums(entries, derived, n):
    """P at each (a, b, c, d) of ``entries``, summed over every i+j+k+l <= N,
    zero terms included; the weights are written out once."""
    weights = list(_defining_term_weights(derived, n))
    totals = []
    for a, b, c, d in entries:
        total = Fraction(0)
        for (i, j, k, l), weight in weights:
            factor = (
                pochhammer(-a, i + j)
                * pochhammer(-b, k + l)
                * pochhammer(-c, i + k)
                * pochhammer(-d, j + l)
            )
            if factor != 0:
                total += factor * weight
        totals.append(total)
    return totals


def _defining_sum(a, b, c, d, derived, n):
    """P summed over every i+j+k+l <= N, zero terms included."""
    return _defining_sums([(a, b, c, d)], derived, n)[0]


def _assert_eval_P_is_the_defining_sum(d, n):
    for a in range(n + 1):
        for b in range(n + 1 - a):
            for c in range(n + 1):
                for dd in range(n + 1 - c):
                    assert eval_P(a, b, c, dd, d, n) == _defining_sum(a, b, c, dd, d, n)


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("p", PARAM_MATRIX, ids=str)
def test_eval_P_is_the_defining_sum(derived_matrix, p, n):
    _assert_eval_P_is_the_defining_sum(derived_matrix[p], n)


@given(valid_parameter_sets(), st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_eval_P_is_the_defining_sum_random(p, n):
    _assert_eval_P_is_the_defining_sum(derive(p), n)


@st.composite
def lattice_entries(draw, n):
    """An argument tuple (a, b, c, d) with a+b <= N and c+d <= N."""
    a = draw(st.integers(0, n))
    b = draw(st.integers(0, n - a))
    c = draw(st.integers(0, n))
    return a, b, c, draw(st.integers(0, n - c))


@given(valid_parameter_sets(), st.integers(4, 12), st.data())
@settings(max_examples=15, deadline=None)
def test_eval_P_is_the_defining_sum_at_depth(p, n, data):
    """A few random entries at N = 4..12, on random rationals (negative and
    non-integer ones included): the depths at which the integer tables'
    denominators, powers of each x_d times factorials and (-N)_M, grow."""
    derived = derive(p)
    entries = [data.draw(lattice_entries(n)) for _ in range(3)]
    expected = _defining_sums(entries, derived, n)
    assert [eval_P(*entry, derived, n) for entry in entries] == expected


def test_extended_sum_range_changes_nothing(derived_matrix):
    """Terms beyond total order N vanish via the truncation law, so the
    bounded sum is exhaustive for arguments <= N."""
    d = derived_matrix[ParameterSet.of(1, 2, 3, 5)]
    n = 3
    import math

    def eval_with_range(limit):
        total = Fraction(0)
        for i in range(limit + 1):
            for j in range(limit + 1 - i):
                for k in range(limit + 1 - i - j):
                    for l in range(limit + 1 - i - j - k):
                        if i + j + k + l > n:
                            # would divide by (-N)_m = 0; the numerator
                            # must already vanish for in-lattice arguments
                            numerator = (
                                pochhammer(-2, i + j)
                                * pochhammer(-1, k + l)
                                * pochhammer(-1, i + k)
                                * pochhammer(-2, j + l)
                            )
                            assert numerator == 0
                            continue
                        total += (
                            pochhammer(-2, i + j)
                            * pochhammer(-1, k + l)
                            * pochhammer(-1, i + k)
                            * pochhammer(-2, j + l)
                            * d.t**i * d.u**j * d.v**k * d.w**l
                            / (
                                Fraction(
                                    math.factorial(i) * math.factorial(j)
                                    * math.factorial(k) * math.factorial(l)
                                )
                                * pochhammer(-n, i + j + k + l)
                            )
                        )
        return total

    assert eval_with_range(n) == eval_with_range(2 * n) == eval_P(2, 1, 1, 2, d, n)


def _matrix(op, n):
    """Dense matrix of a module operator, one basis monomial per column."""
    points = lattice(n)
    images = (op(Poly3.monomial(*point)) for point in points)
    return Dense([[image[key] for key in points] for image in images]).transpose()


def _diagonal(weight):
    """The module operator scaling x^r y^s z^t by weight(r, s, t)."""
    return lambda v: Poly3({key: weight(*key) * value for key, value in v.coeffs.items()})


def _shifted_action(beta, n):
    """The module operator beta + N/3 on plain polynomials."""
    apply = action(beta)
    return lambda v: apply(v) + v.scale(Fraction(n, 3))


def _operator_columns(int_pair, op_pair, derived, n):
    """The matrix of v -> P(s, t | C, D) v, one basis monomial per column."""
    return _matrix(
        lambda v: eval_P_operator([int_pair], op_pair, v, derived, n)[0], n
    )


def test_operator_identity_at_zero(derived_matrix):
    d = derived_matrix[ParameterSet.of(1, 2, 3, 5)]
    c_op = _diagonal(lambda r, s, t: r + 1)
    d_op = _diagonal(lambda r, s, t: s + 4)
    for derived in (d, d.dual()):
        assert _operator_columns((0, 0), (c_op, d_op), derived, 2) == Dense.identity(6)


def test_operator_noncommuting_rejected(reference_structure, derived_matrix):
    s = reference_structure
    d = derived_matrix[ParameterSet.of(1, 2, 3, 5)]
    c_op = action(s.e[0, 1])
    d_op = action(s.e[1, 0])
    with pytest.raises(NonCommutingOperators):
        eval_P_operator([(0, 0)], (c_op, d_op), Poly3.monomial(2, 0, 0), d, 2)


def test_operator_commutation_is_checked_on_the_whole_module(
    reference_structure, derived_matrix
):
    """e12 and e21 both annihilate x^N, so they commute on it, but not on
    the module: [e12, e21] = e11 - e22 does not vanish on y^N."""
    s = reference_structure
    d = derived_matrix[ParameterSet.of(1, 2, 3, 5)]
    c_op = action(s.e[1, 2])
    d_op = action(s.e[2, 1])
    start = Poly3.monomial(2, 0, 0)
    assert c_op(d_op(start)) == d_op(c_op(start))
    with pytest.raises(NonCommutingOperators):
        eval_P_operator([(0, 0), (1, 1)], (c_op, d_op), start, d, 2)


@pytest.mark.parametrize(
    "dual, scalar",
    [
        (False, lambda sigma, tau, d, n: _defining_sum(1, 1, sigma, tau, d, n)),
        (True, lambda sigma, tau, d, n: _defining_sum(sigma, tau, 1, 1, d, n)),
    ],
    ids=["back", "front"],
)
def test_diagonal_operator_consistency(derived_matrix, dual, scalar):
    """Commuting diagonal arguments reduce to scalar evaluation per eigenvalue."""
    p = ParameterSet.of(2, 1, 7, 3)
    d = derived_matrix[p]
    n = 2
    points = lattice(n)
    c_op = _diagonal(lambda r, sigma, tau: sigma)
    d_op = _diagonal(lambda r, sigma, tau: tau)
    op = _operator_columns((1, 1), (c_op, d_op), d.dual() if dual else d, n)
    expected = Dense.diag([scalar(sigma, tau, d, n) for (_, sigma, tau) in points])
    assert op == expected


def _operator_pochhammer(op, n):
    """(-C)(-C+I)...(-C+(n-1)I), computed left to right."""
    identity = Dense.identity(len(op.rows))
    result = identity
    for q in range(n):
        result = result @ (identity.scale(q) - op)
    return result


def _dense_operator(int_pair, op_pair, derived, n):
    """P(s, t | C, D) as a dense matrix: every term of the defining sum with
    its shifted factorials of C and D multiplied out as matrices."""
    s_arg, t_arg = int_pair
    c_op, d_op = op_pair
    total = Dense.diag([0] * len(c_op.rows))
    for (i, j, k, l), weight in _defining_term_weights(derived, n):
        scalar = pochhammer(-s_arg, i + j) * pochhammer(-t_arg, k + l)
        if scalar == 0:
            continue
        operator = _operator_pochhammer(c_op, i + k) @ _operator_pochhammer(d_op, j + l)
        total = total + operator.scale(scalar * weight)
    return total


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("p", PARAM_MATRIX, ids=str)
def test_operator_matches_dense_oracle(structures, derived_matrix, p, n):
    """With the module operators C = varphi~ + N/3 and D = phi~ + N/3 of
    both sides, every column of P(s, t | C, D) matches the dense sum, for
    all (s, t) of one batch call."""
    d = derived_matrix[p]
    pairs = [(s_arg, t_arg) for (_, s_arg, t_arg) in lattice(n)]
    for side, side_d in ((structures[p], d), (structures[p].dual(), d.dual())):
        ops = (
            _shifted_action(side.varphi_t, n),
            _shifted_action(side.phi_t, n),
        )
        dense_ops = tuple(_matrix(op, n) for op in ops)
        columns = [
            eval_P_operator(pairs, ops, Poly3.monomial(*point), side_d, n)
            for point in lattice(n)
        ]
        for index, pair in enumerate(pairs):
            batch = Dense(
                [[images[index][key] for key in lattice(n)] for images in columns]
            ).transpose()
            assert batch == _dense_operator(pair, dense_ops, side_d, n)


@pytest.mark.parametrize(
    "call, same_as",
    [
        (
            lambda d, ops: eval_P_operator([(3, 0)], ops, Poly3.monomial(1, 0, 0), d, 1),
            (3, 0, 0, 0, 1),
        ),
        (
            lambda d, ops: eval_P_operator(
                [(0, 0), (1, 0), (0, 2)], ops, Poly3.monomial(1, 0, 0), d, 1
            ),
            (0, 2, 0, 0, 1),
        ),
    ],
    ids=[
        "operator-off-the-lattice",
        "operator-batch-off-the-lattice",
    ],
)
def test_entry_points_share_the_range_contract(derived_matrix, call, same_as):
    """eval_P_operator rejects what eval_P rejects, with its message."""
    d = derived_matrix[ParameterSet.of(1, 2, 3, 5)]
    ops = (_diagonal(lambda r, s, t: r + 1), _diagonal(lambda r, s, t: s + 4))
    *args, n = same_as
    with pytest.raises(ValueError) as expected:
        eval_P(*args, d, n)
    with pytest.raises(ValueError) as raised:
        call(d, ops)
    assert str(raised.value) == str(expected.value)

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from rahman.form import BilinearForm, inner
from rahman.matrices import Mat
from rahman.polymodule import (
    DegreeMismatch,
    NotHomogeneous,
    Poly3,
    action,
    irreducibility_probe,
    lattice,
    lattice_dimension,
    monomials,
    verify_action_tables,
    verify_block_structure,
    verify_representation_law,
    verify_weight_diagonality,
)
from rahman.polymodule import _lattice_index, _neighbours, _tilde_action
from rahman.polynomials import _falling_coefficients, eval_P_operator
from rahman.scalars import format_rational
from rahman.sl3 import NotTraceless, build

from conftest import (
    PARAM_MATRIX,
    Dense,
    FractionPoly,
    adjacent,
    dense_product,
    expand_tilde_monomial_direct,
    fraction_derivation,
    tilde_variables,
    with_corrupted_eta_t,
)
from test_params import valid_parameter_sets
from test_sl3 import half_zero_entries


def test_lattice_small_cases():
    assert lattice(0) == [(0, 0, 0)]
    assert lattice(1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert len(lattice(5)) == 21 == lattice_dimension(5)


def test_lattice_order_is_graded():
    points = lattice(3)
    assert points[0] == (3, 0, 0)
    assert points == sorted(points, key=lambda p: (-p[0], -p[1]))


@pytest.mark.parametrize("n", range(21))
def test_lattice_index_inverts_lattice(n):
    assert [_lattice_index(point) for point in lattice(n)] == list(range(lattice_dimension(n)))


@pytest.mark.parametrize("n", range(9))
def test_monomials_are_the_lattice_monomials(n):
    """``monomials(n)`` is the validated ``Poly3.monomial`` of each lattice
    point, in lattice order, equal in value, den, degree and key order."""
    def fields(basis):
        return [(list(m.nums.items()), m.den, m.degree) for m in basis]

    expected = [Poly3.monomial(*point) for point in lattice(n)]
    assert monomials(n) == expected
    assert fields(monomials(n)) == fields(expected)


@st.composite
def multi_term_coefficients(draw):
    """A coefficient dict of 2 to 8 nonzero terms on the degree-n lattice,
    1 <= n <= 8, in a drawn order."""
    n = draw(st.integers(1, 8))
    points = draw(st.lists(st.sampled_from(lattice(n)), min_size=2, max_size=8, unique=True))
    values = st.fractions(max_denominator=9).filter(bool)
    return {point: draw(values) for point in points}


@given(multi_term_coefficients())
def test_to_json_lists_terms_by_descending_r_then_s(coeffs):
    """``to_json`` sorts by ``_lattice_index``: the order of the key
    (-r, -s) on a homogeneous polynomial."""
    xi = Poly3(coeffs)
    keys = sorted(coeffs, key=lambda k: (-k[0], -k[1]))
    assert [entry["index"] for entry in xi.to_json()] == [list(key) for key in keys]
    assert [entry["coeff"] for entry in xi.to_json()] == [
        format_rational(coeffs[key]) for key in keys
    ]


def test_adjacent():
    assert adjacent((2, 0, 0), (1, 1, 0))
    assert not adjacent((2, 0, 0), (0, 1, 1))
    assert adjacent((1, 1, 0), (1, 0, 1))
    with pytest.raises(DegreeMismatch):
        adjacent((1, 0, 0), (1, 1, 0))


@pytest.mark.parametrize("n", range(5))
def test_neighbours_are_the_adjacent_points_in_lattice_order(n):
    for lam in lattice(n):
        assert _neighbours(lam) == [mu for mu in lattice(n) if adjacent(mu, lam)]


def test_poly3_rejects_mixed_degrees():
    with pytest.raises(NotHomogeneous):
        Poly3({(1, 0, 0): 1, (2, 0, 0): 1})


def _act_per_call(beta, xi, s, kind):
    """The action rule evaluated per call, a test-local oracle: the trace
    check and, on tilde coordinates, the conjugation R^-1 beta R (dense
    products) on every call, and a result built by the validating Poly3
    constructor."""
    if beta.trace() != 0:
        raise NotTraceless(f"trace is {beta.trace()}, expected 0")
    if kind == "plain":
        matrix = beta
    else:
        matrix = Mat(dense_product(Mat(dense_product(s.Rinv, beta)), s.R))
    out: dict = {}
    for exps, coeff in xi.coeffs.items():
        for j in range(3):
            if exps[j] == 0:
                continue
            for i in range(3):
                raised = list(exps)
                raised[j] -= 1
                raised[i] += 1
                key = tuple(raised)
                out[key] = out.get(key, Fraction(0)) + coeff * exps[j] * matrix[i, j]
    return Poly3(out)


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("p", PARAM_MATRIX, ids=str)
def test_action_matches_the_per_call_action(structures, p, n):
    """One action per beta and coordinate side gives the images that the
    per-call rule gives, for all 16 plain and tilde basis elements on
    every monomial in both coordinates (so varphi and phi on tilde
    monomials too)."""
    s = structures[p]
    for beta in {**s.cartan_basis(), **s.tilde_basis()}.values():
        for kind, apply in (("plain", action(beta)), ("tilde", _tilde_action(beta, s))):
            for point in lattice(n):
                xi = Poly3.monomial(*point, Fraction(-3, 7))
                expected = _act_per_call(beta, xi, s, kind)
                image = apply(xi)
                assert image == expected
                assert image.degree == expected.degree
                assert all(image.coeffs.values())


# Traceless: the last diagonal entry is minus the sum of the other two.
traceless_matrices = st.lists(half_zero_entries, min_size=8, max_size=8).map(
    lambda x: Mat([x[0:3], x[3:6], [x[6], x[7], -x[0] - x[4]]])
)


@st.composite
def polynomials(draw):
    """A degree-n polynomial, n <= 5, on a random subset of the lattice,
    with coefficients of mixed denominators."""
    n = draw(st.integers(0, 5))
    points = draw(st.lists(st.sampled_from(lattice(n)), max_size=8, unique=True))
    return Poly3({point: draw(half_zero_entries) for point in points})


@given(traceless_matrices, polynomials())
@settings(max_examples=200, deadline=None)
def test_the_derivation_matches_the_fraction_oracle(matrix, xi):
    """The integer sums give the Fraction-by-Fraction image, with the keys
    in the same order: the reprs in failure texts follow it."""
    assert repr(action(matrix)(xi)) == repr(fraction_derivation(matrix)(xi))


def test_the_derivation_matches_the_fraction_oracle_on_the_structure(structures):
    """The same on every plain and tilde generator, acting on every
    monomial of degree 3 and on their sum with mixed-denominator
    coefficients, in both coordinates."""
    points = lattice(3)
    xis = [Poly3.monomial(*point) for point in points]
    xis.append(Poly3({point: Fraction(k - 4, k + 1) for k, point in enumerate(points)}))
    for s in structures.values():
        for beta in {**s.cartan_basis(), **s.tilde_basis()}.values():
            for apply, matrix in ((action(beta), beta),
                                  (_tilde_action(beta, s), s.Rinv @ beta @ s.R)):
                oracle = fraction_derivation(matrix)
                for xi in xis:
                    assert repr(apply(xi)) == repr(oracle(xi))


@st.composite
def same_degree_pairs(draw):
    """(n, a, b): two coefficient dicts on random subsets of the degree-n
    lattice, n <= 4, either possibly empty, with zeros and coefficients of
    mixed denominators."""
    n = draw(st.integers(0, 4))
    points = st.lists(st.sampled_from(lattice(n)), max_size=6, unique=True)
    a, b = ({point: draw(half_zero_entries) for point in draw(points)} for _ in range(2))
    return n, a, b


def _assert_matches(poly, ref):
    """poly has ref's coefficients, keys in ref's order and ref's degree,
    in canonical form: nonzero int numerators over one positive den,
    coprime to them, and the zero polynomial over 1 with no degree."""
    assert repr(poly) == repr(ref)
    assert list(poly.nums) == list(ref.coeffs) and poly.coeffs == ref.coeffs
    assert poly.degree == ref.degree
    assert all(type(value) is int and value for value in poly.nums.values())
    assert type(poly.den) is int and poly.den > 0
    assert gcd(poly.den, *poly.nums.values()) == 1
    assert poly.nums or (poly.den, poly.degree) == (1, None)
    assert poly.to_json() == ref.to_json()


@given(same_degree_pairs(), half_zero_entries, st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_poly3_matches_the_fraction_oracle(pair, c, k):
    """Every Poly3 operation gives the coefficients, key order, degree,
    JSON form and repr that Fraction-by-Fraction arithmetic gives."""
    n, a, b = pair
    xi, zeta = Poly3(a), Poly3(b)
    xi_ref, zeta_ref = FractionPoly(a, n), FractionPoly(b, n)
    _assert_matches(xi, xi_ref)
    _assert_matches(xi + zeta, xi_ref + zeta_ref)
    _assert_matches(xi - zeta, xi_ref - zeta_ref)
    _assert_matches(xi - xi, FractionPoly({}, n))
    _assert_matches(xi.scale(c), xi_ref.scale(c))
    _assert_matches(xi * zeta, xi_ref * zeta_ref)
    _assert_matches(xi.power(k), xi_ref.power(k))
    assert (xi == zeta) == (xi_ref == zeta_ref)
    assert xi == Poly3(dict(reversed(a.items()))) and xi + zeta - zeta == xi
    assert [xi[key] for key in lattice(n)] == [xi_ref[key] for key in lattice(n)]
    assert xi.to_vector(n) == [xi_ref[key] for key in lattice(n)]


def _fraction_expand(f, ref):
    """``f.expand`` Fraction by Fraction, on the same integer columns."""
    out: dict = {}
    for key, coeff in ref.coeffs.items():
        numerators, den = f.tilde_columns[key]
        for point, value in zip(lattice(f.n), numerators):
            if value:
                term = coeff * Fraction(value, den)
                out[point] = out[point] + term if point in out else term
    return FractionPoly(out, f.n)


@given(st.sampled_from(PARAM_MATRIX), st.integers(0, 7), st.booleans(), same_degree_pairs())
@settings(max_examples=200, deadline=None)
def test_action_expand_and_inner_match_the_fraction_oracle(structures, p, index, tilde, pair):
    """The action images of a plain or tilde generator, ``f.expand`` and
    ``inner`` on integer Poly3s give what the Fraction oracles give."""
    s = structures[p]
    n, a, b = pair
    xi, zeta = Poly3(a), Poly3(b)
    xi_ref, zeta_ref = FractionPoly(a, n), FractionPoly(b, n)
    beta = list((s.tilde_basis() if tilde else s.cartan_basis()).values())[index]
    for apply, matrix in ((action(beta), beta), (_tilde_action(beta, s), s.Rinv @ beta @ s.R)):
        _assert_matches(apply(xi), fraction_derivation(matrix)(xi_ref))
    f = BilinearForm(s, n)
    _assert_matches(f.expand(xi), _fraction_expand(f, xi_ref))
    keys = xi_ref.coeffs.keys() & zeta_ref.coeffs.keys()
    expected = sum((f.gram[key] * xi_ref[key] * zeta_ref[key] for key in keys), Fraction(0))
    value = inner(xi, zeta, f)
    assert type(value) is Fraction and value == expected


def test_an_operator_image_over_a_negative_kernel_denominator(reference_structure):
    """P(s, t | C, D) v for odd s + t: the kernel table's denominator holds
    (-N)_(s+t) < 0, and the image is still canonical, with the value that
    sum A_pq (-C)_p (-D)_q v gives over Fractions, entry by entry."""
    s, n = reference_structure, 3
    d = s.d
    coeffs = {(3, 0, 0): Fraction(2, 3), (1, 1, 1): Fraction(-5, 4), (0, 0, 3): 7}
    vector = Poly3(coeffs)
    pairs = [(1, 0), (0, 1), (2, 1), (1, 2), (3, 0)]
    for s_arg, t_arg in pairs:
        assert _falling_coefficients(s_arg, t_arg, d, n, n, n)[1] < 0

    def shifted(beta):
        apply = action(beta)
        return lambda m: apply(m) + m.scale(Fraction(n, 3))

    def shifted_ref(beta):
        apply = fraction_derivation(beta)
        return lambda m: apply(m) + m.scale(Fraction(n, 3))

    def falling(op, w, top):
        yield w
        for q in range(top):
            w = w.scale(q) - op(w)
            yield w

    images = eval_P_operator(pairs, (shifted(s.varphi_t), shifted(s.phi_t)), vector, d, n)
    c_ref, d_ref = shifted_ref(s.varphi_t), shifted_ref(s.phi_t)
    powers = {
        (p, q): both
        for q, d_power in enumerate(falling(d_ref, FractionPoly(coeffs, n), n))
        for p, both in enumerate(falling(c_ref, d_power, n - q))
    }
    for (s_arg, t_arg), image in zip(pairs, images):
        table, den = _falling_coefficients(s_arg, t_arg, d, n, n, n)
        expected = FractionPoly({}, n)
        for p, row in enumerate(table):
            for q, value in enumerate(row):
                expected = expected + powers[p, q].scale(Fraction(value, den))
        assert image.den > 0 and gcd(image.den, *image.nums.values()) == 1
        assert [image[key] for key in lattice(n)] == [expected[key] for key in lattice(n)]
        assert image.nums


def test_action_checks_the_trace(reference_structure):
    s = reference_structure
    with pytest.raises(NotTraceless):
        action(Mat.diag([1, 0, 0]))
    with pytest.raises(NotTraceless):
        _tilde_action(Mat.identity(), s)


def test_tilde_action_checks_the_trace_of_beta_not_of_its_conjugate(reference_structure):
    """On a shifted eta~_0, R^-1 is no inverse of R: varphi is traceless
    and R^-1 varphi R is not, and varphi~ = R varphi R^-1 is not either.
    The tilde action names the trace of the matrix it was given."""
    s = with_corrupted_eta_t(reference_structure, 0, 1)
    conjugate = s.Rinv @ s.varphi @ s.R
    assert conjugate.trace() != 0
    with pytest.raises(NotTraceless):
        action(conjugate)
    _tilde_action(s.varphi, s)
    with pytest.raises(NotTraceless, match=f"trace is {s.varphi_t.trace()}, expected 0"):
        _tilde_action(s.varphi_t, s)


def test_poly3_arithmetic_keeps_the_invariants():
    p = Poly3({(2, 0, 0): Fraction(1, 3), (1, 1, 0): -2})
    q = Poly3({(1, 1, 0): 2, (0, 0, 2): 5})
    difference = p - p
    assert difference == Poly3.zero() and difference.degree is None
    assert (p + q) == Poly3({(2, 0, 0): Fraction(1, 3), (0, 0, 2): 5})
    assert (p + q).degree == 2 and (1, 1, 0) not in (p + q).coeffs
    assert (p - q) == Poly3({(2, 0, 0): Fraction(1, 3), (1, 1, 0): -4, (0, 0, 2): -5})
    assert p.scale(0) == Poly3.zero() and p.scale(0).degree is None
    assert p.scale(3) == Poly3({(2, 0, 0): 1, (1, 1, 0): -6})
    assert (Poly3.zero() + p).degree == 2 and (p + Poly3.zero()).degree == 2
    cubic = Poly3.monomial(3, 0, 0)
    for combine in (Poly3.__add__, Poly3.__sub__):
        with pytest.raises(NotHomogeneous):
            combine(p, cubic)


@pytest.mark.parametrize("bad", [0.1, 2.0, True, False])
def test_poly3_refuses_float_and_bool_coefficients(bad):
    with pytest.raises(ValueError):
        Poly3.monomial(1, 0, 0, bad)
    with pytest.raises(ValueError):
        Poly3({(2, 0, 0): 1, (1, 1, 0): bad})
    assert Poly3.monomial(1, 0, 0, Fraction(1, 10))[1, 0, 0] == Fraction(1, 10)


@pytest.mark.parametrize(
    "key", [(1.5, 0.7, 0), (1.0, 0, 0), (True, 0, 0), (Fraction(3, 2), 0, 0), (1, 0)]
)
def test_poly3_refuses_non_integral_exponents(key):
    """A float, bool or Fraction exponent is refused, not truncated to an int."""
    with pytest.raises(ValueError, match="bad exponent triple"):
        Poly3({key: 1})
    with pytest.raises(ValueError, match="bad exponent triple"):
        Poly3({(0, 1, 0): 1, key: 1})


def _built(make):
    """(nums, den, degree) of ``make()``, or the type and text it raises."""
    try:
        xi = make()
    except ValueError as err:
        return type(err), str(err)
    return xi.nums, xi.den, xi.degree


exponents = st.one_of(
    st.integers(-2, 6), st.booleans(), st.just(1.0), st.just(Fraction(3, 2))
)


@given(
    exponents,
    exponents,
    exponents,
    st.one_of(st.integers(-9, 9), st.fractions(max_denominator=12), st.booleans(),
              st.just(0.5), st.just(Fraction(0))),
)
def test_monomial_is_the_validating_constructor(r, s, t, coeff):
    """``Poly3.monomial`` is ``Poly3({(r, s, t): coeff})``: it builds the
    same polynomial, and refuses the same inputs with the same text; a
    zero coefficient gives the zero polynomial, whatever the exponents."""
    assert _built(lambda: Poly3.monomial(r, s, t, coeff)) == _built(
        lambda: Poly3({(r, s, t): coeff})
    )


@pytest.mark.parametrize("bad", [0.1, 2.0, True, False])
def test_poly3_scale_refuses_float_and_bool_factors(bad):
    p = Poly3({(2, 0, 0): Fraction(1, 3), (1, 1, 0): -2})
    with pytest.raises(ValueError):
        p.scale(bad)
    assert p.scale(Fraction(1, 10)) == Poly3(
        {(2, 0, 0): Fraction(1, 30), (1, 1, 0): Fraction(-1, 5)}
    )


def test_action_examples(reference_structure):
    s = reference_structure
    xi = Poly3.monomial(2, 1, 1)
    assert action(s.e[0, 1])(xi) == Poly3.monomial(3, 0, 1)
    assert action(s.varphi)(xi) == Poly3.monomial(2, 1, 1, Fraction(1) - Fraction(4, 3))
    # x~ y~^2 under e~21, in tilde coordinates.
    assert _tilde_action(s.e_t[2, 1], s)(Poly3.monomial(1, 2, 0)) == Poly3.monomial(1, 1, 1, 2)


def _dense_matrix_of(apply, n):
    """DxD matrix of an action on degree-n polynomials: its images of the
    monomials in lattice order, as columns.  A test-only oracle for the
    dense products."""
    points = lattice(n)
    images = (apply(Poly3.monomial(*point)) for point in points)
    return Dense([[image[key] for key in points] for image in images]).transpose()


def test_matrix_of_examples(reference_structure):
    s = reference_structure
    assert _dense_matrix_of(action(Mat.zero()), 2) == Dense.diag([0] * 6)
    m = _dense_matrix_of(action(s.e[0, 1]), 1)
    assert m == Dense([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    weights = _dense_matrix_of(action(s.varphi), 2)
    assert weights == Dense.diag(
        [Fraction(st) - Fraction(2, 3) for (_, st, _) in lattice(2)]
    )


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("p", PARAM_MATRIX, ids=str)
def test_act_matches_dense_products(structures, p, n):
    """The module bracket, the weights and the cross-Cartan support that
    the verifiers read through action agree with dense matrix products.

    T has the plain expansion of each tilde monomial as its column, so an
    operator with plain matrix M has tilde matrix T^-1 M T.
    """
    s = structures[p]
    points = lattice(n)
    plain = [Poly3.monomial(*point) for point in points]

    def columns(images):
        return Dense([[image[key] for key in points] for image in images]).transpose()

    basis = s.cartan_basis()
    dense = {name: _dense_matrix_of(action(beta), n) for name, beta in basis.items()}
    on_plain = {name: action(beta) for name, beta in basis.items()}
    for name_b, beta in basis.items():
        for name_g, gamma in basis.items():
            b_act, g_act = on_plain[name_b], on_plain[name_g]
            module_bracket = columns(b_act(g_act(m)) - g_act(b_act(m)) for m in plain)
            assert module_bracket == dense[name_b] @ dense[name_g] - dense[name_g] @ dense[name_b]
            assert module_bracket == _dense_matrix_of(action(beta.bracket(gamma)), n)

    t = columns(expand_tilde_monomial_direct(*point, s) for point in points)
    t_inv = t.inverse()
    for beta, beta_t, slot in ((s.varphi, s.varphi_t, 1), (s.phi, s.phi_t, 2)):
        weights = Dense.diag([Fraction(point[slot]) - Fraction(n, 3) for point in points])
        plain_beta_t = _dense_matrix_of(action(beta_t), n)
        assert _dense_matrix_of(action(beta), n) == weights
        tilde_beta_t = _dense_matrix_of(_tilde_action(beta_t, s), n)
        assert tilde_beta_t == t_inv @ plain_beta_t @ t == weights
        for apply, matrix in (
            (action(beta_t), t @ weights @ t_inv),
            (_tilde_action(beta, s), t_inv @ weights @ t),
        ):
            for j, lam in enumerate(points):
                support = set(apply(Poly3.monomial(*lam)).coeffs)
                assert support == {mu for i, mu in enumerate(points) if matrix[i, j] != 0}
                assert all(mu == lam or adjacent(mu, lam) for mu in support)


@given(
    st.sampled_from(lattice(2)),
    st.sampled_from(lattice(3)),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    st.sampled_from(["e01", "e10", "e12", "varphi", "psi"]),
)
@settings(max_examples=60, deadline=None)
def test_derivation_law(point_a, point_b, coeff, name):
    from rahman.params import ParameterSet
    from rahman.sl3 import build

    s = build(ParameterSet.of(1, 2, 3, 5))
    beta = {
        "e01": s.e[0, 1],
        "e10": s.e[1, 0],
        "e12": s.e[1, 2],
        "varphi": s.varphi,
        "psi": s.psi,
    }[name]
    xi = Poly3.monomial(*point_a, coeff if coeff != 0 else 1)
    zeta = Poly3.monomial(*point_b)
    apply = action(beta)
    assert apply(xi * zeta) == apply(xi) * zeta + xi * apply(zeta)


def test_tilde_variable_normalized_forms(reference_structure):
    x, y, z = Poly3.monomial(1, 0, 0), Poly3.monomial(0, 1, 0), Poly3.monomial(0, 0, 1)
    # On the dual, the tilde variables are x, y, z in tilde coordinates.
    for s in (reference_structure, reference_structure.dual()):
        d = s.d
        xt, yt, zt = tilde_variables(s)
        eta_t = d.eta_t
        key_sum = x.scale(eta_t[0]) + y.scale(eta_t[1]) + z.scale(eta_t[2])
        assert xt.scale(1 / d.theta_t) == key_sum
        assert yt.scale(1 / d.theta_t) == key_sum - y.scale(d.t * eta_t[1]) - z.scale(d.v * eta_t[2])
        assert zt.scale(1 / d.theta_t) == key_sum - y.scale(d.u * eta_t[1]) - z.scale(d.w * eta_t[2])


def test_expand_tilde_monomial_small_cases(reference_structure):
    s = reference_structure
    assert expand_tilde_monomial_direct(0, 0, 0, s) == Poly3.monomial(0, 0, 0)
    xt, _, _ = tilde_variables(s)
    assert expand_tilde_monomial_direct(1, 0, 0, s) == xt
    square = expand_tilde_monomial_direct(2, 0, 0, s)
    assert square == xt * xt
    assert len(square.coeffs) == 6


@pytest.mark.parametrize("n", [0, 1, 3])
@pytest.mark.parametrize("p", PARAM_MATRIX, ids=str)
def test_block_structure(structures, p, n):
    report = verify_block_structure(structures[p], n)
    assert report.ok, report.first_failure


@pytest.mark.parametrize("n", [0, 2, 5, 12])
def test_irreducibility(reference_structure, n):
    report = irreducibility_probe(reference_structure, n)
    assert report.ok, report.first_failure


@given(valid_parameter_sets(), st.integers(1, 7))
@settings(max_examples=40, deadline=None)
def test_irreducibility_holds_on_random_parameters(p, n):
    """Every neighbour entry of the cross-Cartan actions is a product of
    factors that validation keeps nonzero, so no valid parameter set
    fails the probe."""
    report = irreducibility_probe(build(p), n)
    assert (report.status, report.checked) == ("pass", 1), report.first_failure


@pytest.mark.parametrize("n", [0, 1, 3])
def test_action_tables(reference_structure, n):
    report = verify_action_tables(reference_structure, n)
    assert report.ok, report.first_failure


@pytest.mark.parametrize("n", [0, 2, 3])
def test_representation_law(reference_structure, n):
    report = verify_representation_law(reference_structure, n)
    assert report.ok, report.first_failure


@pytest.mark.parametrize("n", [0, 1, 4])
def test_weight_diagonality(reference_structure, n):
    report = verify_weight_diagonality(reference_structure, n)
    assert report.ok, report.first_failure


def test_json_round_trip():
    poly = Poly3({(2, 0, 0): Fraction(1, 3), (1, 1, 0): -2})
    data = poly.to_json()
    assert data == [
        {"index": [2, 0, 0], "coeff": "1/3"},
        {"index": [1, 1, 0], "coeff": "-2"},
    ]

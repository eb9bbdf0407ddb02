"""The p2 <-> p3 swap exchanges the plain and tilde sides exactly.

The tilde-side verifiers run their plain-side twin on the dual, so these
identities are what makes that sound.
"""

from dataclasses import fields, replace

from hypothesis import given, settings

from rahman import sl3
from rahman.form import (
    BilinearForm,
    verify_adjointness,
    verify_dual_sum_identities,
    verify_tilde_norms,
)
from rahman.matrices import Mat
from rahman.params import ParameterSet, derive
from rahman.polymodule import lattice
from rahman.polynomials import eval_P
from rahman.sl3 import StructureSet, build, r_closed_form
from rahman.theorems import verify_pcosines, verify_trans1, verify_trans2

from conftest import with_corrupted_eta_t
from test_params import valid_parameter_sets

@given(valid_parameter_sets())
@settings(max_examples=40, deadline=None)
def test_dual_is_an_involution(p):
    assert p.dual().dual() == p
    assert derive(p).dual().dual() == derive(p)


@given(valid_parameter_sets())
@settings(max_examples=40, deadline=None)
def test_derive_commutes_with_dual(p):
    assert derive(p.dual()) == derive(p).dual()


@given(valid_parameter_sets())
@settings(max_examples=40, deadline=None)
def test_dual_transition_matrix_is_the_inverse(p):
    s, s_dual = build(p), build(p.dual())
    assert s_dual.R == s.Rinv
    assert s_dual.Rinv == s.R
    assert r_closed_form(p.dual()) == s.Rinv


@given(valid_parameter_sets())
@settings(max_examples=20, deadline=None)
def test_dual_swaps_argument_pairs_of_P(p):
    d, d_dual = derive(p), derive(p.dual())
    for n in range(3):
        pairs = [(s, t) for (_, s, t) in lattice(n)]
        for a, b in pairs:
            for c, dd in pairs:
                assert eval_P(a, b, c, dd, d, n) == eval_P(c, dd, a, b, d_dual, n)


def _structures_of(p):
    """The structure of p and its with_corrupted_eta_t(s, i, delta) for
    delta in {1, -eta~_i / 2, -eta~_i}."""
    s = build(p)
    yield s
    for i in range(3):
        for delta in (1, -s.d.eta_t[i] / 2, -s.d.eta_t[i]):
            yield with_corrupted_eta_t(s, i, delta)


@given(valid_parameter_sets())
@settings(max_examples=30, deadline=None)
def test_the_structure_dual_equals_the_build_of_the_swapped_constants(p):
    """``==`` compares the four fields; U, W and W~, read off the
    constants, mirror on the dual."""
    assert [f.name for f in fields(StructureSet)] == ["p", "d", "R", "Rinv"]
    for s in _structures_of(p):
        assert s.dual() == build(s.p.dual(), s.d.dual())
        assert s.dual().U == s.U.transpose()
        assert s.dual().W == s.Wt
        assert s.dual().Wt == s.W


@given(valid_parameter_sets())
@settings(max_examples=30, deadline=None)
def test_the_structure_dual_is_an_involution_that_swaps_R(p):
    """A replaced R or R^-1 carries over to the dual, on the other side."""
    shift = Mat.identity()
    for s in _structures_of(p):
        for t in (s, replace(s, R=s.R + shift), replace(s, Rinv=s.Rinv + shift)):
            assert t.dual().dual() == t
            assert (t.dual().R, t.dual().Rinv) == (t.Rinv, t.R)


def test_the_structure_dual_builds_nothing(monkeypatch):
    s = build(ParameterSet.of(1, 2, 3, 5))

    def refuse(*args):
        raise AssertionError("dual() called build")

    monkeypatch.setattr(sl3, "build", refuse)
    assert s.dual().p == s.p.dual()


def test_dual_keeps_a_corrupted_constant():
    p = ParameterSet.of(1, 2, 3, 5)
    corrupted = with_corrupted_eta_t(build(p), 1, 1)
    assert corrupted.d.eta_t[1] == derive(p).eta_t[1] + 1
    assert corrupted.dual().d.eta[1] == corrupted.d.eta_t[1]


def test_the_dual_form_is_the_one_source_of_the_tilde_norms():
    """A wrong entry in ``f.dual.gram`` trips exactly the verifiers that
    read the tilde norms from it; trans2, pcosines and adjointness read
    the plain side only."""
    n = 2
    f = BilinearForm(build(ParameterSet.of(1, 2, 3, 5)), n)
    key = lattice(n)[1]
    f.dual.__dict__["gram"] = {**f.dual.gram, key: 2 * f.dual.gram[key]}
    verifiers = {
        "tilde_norms": verify_tilde_norms,
        "dual_sums": verify_dual_sum_identities,
        "trans1": verify_trans1,
        "trans2": verify_trans2,
        "pcosines": verify_pcosines,
        "adjointness": verify_adjointness,
    }
    tripped = {name for name, verifier in verifiers.items() if not verifier(f).ok}
    assert tripped == {"tilde_norms", "dual_sums", "trans1"}

"""Every Report's ``checked`` count is the formula its verifier's docstring
states, in N and D = (N+1)(N+2)/2, the dimension of the degree-N module."""

import pytest

from rahman.params import ParameterSet
from rahman.polymodule import lattice_dimension
from rahman.theorems import run_suites

# Report name without its ".N<degree>" suffix: checked as a function of N, D.
CHECKED = {
    "structure.matrices": lambda n, d: 5,
    "structure.dagger": lambda n, d: 113,
    "structure.expansions": lambda n, d: 4,
    "structure.generation": lambda n, d: 6,
    "module.action_tables": lambda n, d: 16 * d,
    "module.representation": lambda n, d: 36,
    "module.weights": lambda n, d: 4,
    "module.block_structure": lambda n, d: 4 * (d * d - d - 3 * n * (n + 1)),
    "module.irreducibility": lambda n, d: 1,
    "form.adjointness": lambda n, d: 8 * d * d,
    "form.tilde_norms": lambda n, d: d * (d + 1) // 2,
    "form.dual_sums": lambda n, d: 2 * d * d + 2,
    "transitions.trans1": lambda n, d: d * d,
    "transitions.trans2": lambda n, d: d * d,
    "transitions.pcosines": lambda n, d: d * d,
    "orthogonality": lambda n, d: 2 * d * d,
    "recurrences": lambda n, d: 4 * d * (d + 6 * (n + 1)),
    "operators": lambda n, d: 2 * d,
}


@pytest.mark.parametrize("n", range(9))
def test_every_checked_count_is_its_formula(n):
    reports = run_suites(ParameterSet.of(1, 2, 3, 5), n)
    d = lattice_dimension(n)
    counts = {r.name.removesuffix(f".N{n}"): r.checked for r in reports}
    assert counts == {name: formula(n, d) for name, formula in CHECKED.items()}

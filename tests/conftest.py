from fractions import Fraction

import pytest

from rahman.params import ParameterSet, derive
from rahman.sl3 import build

PARAM_MATRIX = [
    ParameterSet.of(1, 2, 3, 5),
    ParameterSet.of(2, 1, 7, 3),
    ParameterSet.of(1, -2, 3, 5),
]


@pytest.fixture(scope="session")
def reference_params():
    return PARAM_MATRIX[0]


@pytest.fixture(scope="session")
def structures():
    """One built StructureSet per parameter set in the test matrix."""
    return {p: build(p, derive(p)) for p in PARAM_MATRIX}


@pytest.fixture(scope="session")
def reference_structure(structures, reference_params):
    return structures[reference_params]


def dense_product(a, b):
    """Rows of the product a b by the dense triple loop over every entry:
    the oracle for the zero-skipping ``Mat.__matmul__``."""
    return [
        [sum((a[i, k] * b[k, j] for k in range(a.ncols)), Fraction(0))
         for j in range(b.ncols)]
        for i in range(a.nrows)
    ]

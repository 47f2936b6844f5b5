import pytest
import sympy as sp

from torsion6.scalars import is_zero

SQRT2, SQRT3 = sp.sqrt(2), sp.sqrt(3)


@pytest.mark.parametrize("x", [
    1 / (1 + SQRT2) - SQRT2 + 1,              # disguised zeros
    (SQRT2 + SQRT3) ** 2 - 5 - 2 * sp.sqrt(6),
    SQRT2 / 10 ** 40,                         # tiny but nonzero
    2 * SQRT3 / 3,                            # a catalog value
    sp.Integer(0),
    sp.Rational(1, 3),
])
def test_sympy_zero_test_agrees_with_simplify(x):
    assert is_zero(x) == (sp.simplify(x) == 0)


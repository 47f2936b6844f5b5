"""Scalar coefficients for the exact and floating backends.

Coefficients are plain Python numbers: ``fractions.Fraction`` (or ``int``)
on the exact backend, ``float`` on the floating backend.  Sympy expressions
are accepted as well, so that model constructions involving square roots
stay exact.  Every routine in this package is written against this small
common interface instead of a wrapper class.

Sympy is not imported here.  A value is taken for a sympy expression only
if ``sys.modules`` already holds sympy: a ``sympy.Expr`` cannot exist before
sympy has been imported, so the test stays exact, and the Fraction and float
paths never load sympy.  Ints and Fractions are tested first.

The zero test of a sympy expression is exact and certified in three
stages: a numeric evaluation that can only ever prove a value nonzero,
then ``sympy.expand``, then ``sympy.simplify``.  No float tolerance decides
that an exact value is zero.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

DEFAULT_TOL = 1e-9


def _sympy_of(x):
    """The sympy module if x is a sympy expression, otherwise None."""
    sympy = sys.modules.get("sympy")
    if sympy is not None and isinstance(x, sympy.Expr):
        return sympy
    return None


def rat(x) -> Fraction:
    """Coerce ints, strings like '1/2' or '0.25', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def is_exact(x) -> bool:
    if isinstance(x, (int, Fraction)):
        return not isinstance(x, bool)
    return _sympy_of(x) is not None


def is_zero(x, tol: float | None = None) -> bool:
    """Zero test. Exact scalars compare exactly, floats against a tolerance.

    A sympy expression that is not a plain number is first evaluated to 30
    digits in sympy's strict mode, which certifies the relative accuracy of
    the result: a nonzero value proves the expression nonzero.  The numeric
    stage only ever answers False; an evaluation that is zero or cannot be
    told from zero goes on to ``sympy.expand`` and, if that does not reduce
    the expression to 0, to ``sympy.simplify``.
    """
    if isinstance(x, (int, Fraction)):
        return x == 0
    sympy = _sympy_of(x)
    if sympy is not None:
        if x.is_Number:
            return x == 0
        try:
            v = x.evalf(30, strict=True)
        except sympy.core.evalf.PrecisionExhausted:
            pass
        else:
            if v.is_Number and v != 0:
                return False
        return sympy.expand(x) == 0 or sympy.simplify(x) == 0
    if tol is None:
        tol = DEFAULT_TOL
    return abs(x) < tol


def scalar_eq(a, b) -> bool:
    if is_exact(a) and is_exact(b):
        return is_zero(a - b)
    return abs(to_float(a) - to_float(b)) < DEFAULT_TOL


def to_float(x) -> float:
    if _sympy_of(x) is not None:
        return float(x.evalf())
    return float(x)


def simplify(x):
    """Normalize a scalar: sympy expressions are simplified, Fractions reduced."""
    sympy = _sympy_of(x)
    if sympy is None:
        return x
    y = sympy.simplify(x)
    if y.is_Rational:
        return Fraction(int(y.p), int(y.q))
    return y


def sym_sqrt(x):
    """Exact square root where possible, float square root for floats.

    The root of a rational square is a Fraction, found without sympy; the
    root of any other rational is the only place where the exact paths
    load sympy."""
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)
        if x >= 0:
            p, q = math.isqrt(x.numerator), math.isqrt(x.denominator)
            if p * p == x.numerator and q * q == x.denominator:
                return Fraction(p, q)
        import sympy

        # sympy keeps the root of a rational in its canonical form already
        return sympy.sqrt(sympy.Rational(x.numerator, x.denominator))
    sympy = _sympy_of(x)
    if sympy is not None:
        return simplify(sympy.sqrt(x))
    return float(x) ** 0.5

"""Scalar coefficients for the exact and floating backends.

Coefficients are plain Python numbers: ``fractions.Fraction`` (or ``int``)
on the exact backend, ``float`` on the floating backend.  Sympy expressions
are accepted as well, so that model constructions involving square roots
stay exact.  Every routine in this package is written against this small
common interface instead of a wrapper class.

The zero test of a sympy expression is exact and certified in three
stages: a numeric evaluation that can only ever prove a value nonzero,
then ``sympy.expand``, then ``sympy.simplify``.  No float tolerance decides
that an exact value is zero.
"""

from __future__ import annotations

from fractions import Fraction

import sympy
from sympy.core.evalf import PrecisionExhausted

DEFAULT_TOL = 1e-9

EXACT_TYPES = (int, Fraction, sympy.Expr)


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
    return isinstance(x, EXACT_TYPES) and not isinstance(x, bool)


def is_zero(x, tol: float | None = None) -> bool:
    """Zero test. Exact scalars compare exactly, floats against a tolerance.

    A sympy expression that is not a plain number is first evaluated to 30
    digits in sympy's strict mode, which certifies the relative accuracy of
    the result: a nonzero value proves the expression nonzero.  The numeric
    stage only ever answers False; an evaluation that is zero or cannot be
    told from zero goes on to ``sympy.expand`` and, if that does not reduce
    the expression to 0, to ``sympy.simplify``.
    """
    if isinstance(x, sympy.Expr):
        if x.is_Number:
            return x == 0
        try:
            v = x.evalf(30, strict=True)
        except PrecisionExhausted:
            pass
        else:
            if v.is_Number and v != 0:
                return False
        return sympy.expand(x) == 0 or sympy.simplify(x) == 0
    if isinstance(x, (int, Fraction)):
        return x == 0
    if tol is None:
        tol = DEFAULT_TOL
    return abs(x) < tol


def scalar_eq(a, b, tol: float | None = None) -> bool:
    if is_exact(a) and is_exact(b):
        return is_zero(a - b)
    return abs(to_float(a) - to_float(b)) < (DEFAULT_TOL if tol is None else tol)


def to_float(x) -> float:
    if isinstance(x, sympy.Expr):
        return float(x.evalf())
    return float(x)


def simplify(x):
    """Normalize a scalar: sympy expressions are simplified, Fractions reduced."""
    if isinstance(x, sympy.Expr):
        y = sympy.nsimplify(sympy.simplify(x))
        if y.is_Integer:
            return Fraction(int(y))
        if y.is_Rational:
            return Fraction(int(y.p), int(y.q))
        return y
    return x


def sym_sqrt(x):
    """Exact square root where possible, float square root for floats."""
    if isinstance(x, (int, Fraction)):
        return simplify(sympy.sqrt(sympy.Rational(Fraction(x))))
    if isinstance(x, sympy.Expr):
        return simplify(sympy.sqrt(x))
    return float(x) ** 0.5

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from torsion6.forms import (
    DIM,
    Form,
    J,
    OMEGA,
    SkewEndo,
    VOL,
    contract,
    endo_act_on_form,
    endo_of_form,
    form_of_endo,
    format_form,
    hodge,
    inner,
    monomials,
    norm_sq,
    parse_form,
    wedge,
)


def e(*idx):
    return Form.monomial(idx)


def rand_form(rng, degree):
    basis = monomials(degree)
    return Form(degree, {i: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                         for i in rng.sample(basis, min(4, len(basis)))})


def test_wedge_basics():
    assert wedge(e(1), e(2)) == e(1, 2)
    assert wedge(e(1, 2), e(1, 2)).is_zero()
    assert wedge(e(1, 2) + e(3, 4), e(5, 6)) == e(1, 2, 5, 6) + e(3, 4, 5, 6)
    assert wedge(e(2), e(1)) == -e(1, 2)


def test_wedge_graded_anticommutative():
    rng = random.Random(1)
    for _ in range(20):
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        a, b = rand_form(rng, p), rand_form(rng, q)
        sign = (-1) ** (p * q)
        assert wedge(a, b) == sign * wedge(b, a)


def test_contract_basics():
    assert contract(e(1), e(1, 2, 3)) == e(2, 3)
    assert contract(e(2), e(1, 3)).is_zero()
    assert contract(e(5), OMEGA) == e(6)
    assert contract([1, 0, 0, 0, 0, 0], e(1, 2)) == e(2)


def test_contract_antiderivation():
    rng = random.Random(2)
    for _ in range(20):
        p, q = rng.randint(1, 3), rng.randint(1, 2)
        a, b = rand_form(rng, p), rand_form(rng, q)
        v = [Fraction(rng.randint(-3, 3)) for _ in range(DIM)]
        lhs = contract(v, wedge(a, b))
        rhs = wedge(contract(v, a), b) + (-1) ** p * wedge(a, contract(v, b))
        assert lhs == rhs


def test_hodge_examples():
    assert hodge(Form(0, {(): Fraction(1)})) == VOL
    assert hodge(e(1, 2)) == e(3, 4, 5, 6)
    assert hodge(e(1, 3, 5)) == -e(2, 4, 6)


def test_hodge_square_sign():
    rng = random.Random(3)
    for k in range(7):
        sign = (-1) ** (k * (DIM - k))
        for _ in range(5):
            a = rand_form(rng, k) if k else Form(0, {(): Fraction(3)})
            assert hodge(hodge(a)) == sign * a


def test_hodge_norm_identity():
    rng = random.Random(4)
    for k in range(1, 6):
        a = rand_form(rng, k)
        assert wedge(a, hodge(a)) == norm_sq(a) * VOL


def test_inner():
    assert inner(e(1, 2), e(1, 2)) == 1
    t = e(1, 4, 5) + e(2, 3, 5)
    assert inner(t, t) == 2
    assert inner(e(1, 2), e(3, 4)) == 0
    with pytest.raises(ValueError):
        inner(e(1), e(1, 2))


def test_endo_of_form():
    a = endo_of_form(e(1, 2))
    assert a.apply([1, 0, 0, 0, 0, 0]) == [0, 1, 0, 0, 0, 0]
    assert a.apply([0, 1, 0, 0, 0, 0]) == [-1, 0, 0, 0, 0, 0]
    assert all(x == 0 for x in a.apply([0, 0, 1, 0, 0, 0]))
    # J doubles as multiplication by i in each complex plane
    for k in range(3):
        v = [0] * 6
        v[2 * k] = 1
        w = [0] * 6
        w[2 * k + 1] = 1
        assert J.apply(v) == w


def test_form_endo_round_trip():
    rng = random.Random(5)
    for _ in range(10):
        w = rand_form(rng, 2)
        assert form_of_endo(endo_of_form(w)) == w
    assert endo_of_form(Form(2)).is_zero()


def test_endo_act_fixes():
    assert endo_act_on_form(J, OMEGA).is_zero()
    gen = endo_of_form(e(1, 2))
    assert endo_act_on_form(gen, e(1, 2)).is_zero()


def test_endo_act_matches_exponential_flow():
    # derivation action = d/dt at t=0 of the pullback by exp(-tA)
    import numpy as np

    rng = random.Random(6)
    t = 1e-6
    for _ in range(5):
        w = rand_form(rng, 2)
        a = endo_of_form(rand_form(rng, 2))
        amat = np.array([[float(x) for x in row] for row in a.mat])
        pm = np.eye(6) - t * amat + (t * amat) @ (t * amat) / 2
        pp = np.eye(6) + t * amat + (t * amat) @ (t * amat) / 2
        wmat = np.zeros((6, 6))
        for (i, j), c in w.coeffs.items():
            wmat[i - 1][j - 1] = float(c)
            wmat[j - 1][i - 1] = -float(c)
        central = (pm.T @ wmat @ pm - pp.T @ wmat @ pp) / (2 * t)
        derived = endo_act_on_form(a, w)
        for i in range(6):
            for j in range(i + 1, 6):
                fd = central[i][j]
                assert abs(fd - float(derived.coeff((i + 1, j + 1)))) < 1e-5


def test_parse_and_format():
    f = parse_form("3e135 + e146 - 1/2*e236")
    assert f == 3 * e(1, 3, 5) + e(1, 4, 6) - Fraction(1, 2) * e(2, 3, 6)
    assert parse_form(format_form(f)) == f
    assert parse_form("-e12") == -e(1, 2)
    assert parse_form("0.25*e12") == Fraction(1, 4) * e(1, 2)
    assert format_form(Form(3)) == "0"
    with pytest.raises(ValueError):
        parse_form("e11")
    with pytest.raises(ValueError):
        parse_form("e12 + e345")
    with pytest.raises(ValueError):
        parse_form("e127")


@pytest.mark.parametrize("exact", [True, False])
def test_parse_scientific_notation(exact):
    f = parse_form("1e6*e125 - 2.5e-3*e135 + 3e146 + 1e-7*e234", exact)
    want = {(1, 2, 5): Fraction(10 ** 6), (1, 3, 5): Fraction(-1, 400),
            (1, 4, 6): Fraction(3), (2, 3, 4): Fraction(1, 10 ** 7)}
    if not exact:
        want = {k: float(v) for k, v in want.items()}
    assert f.coeffs == want
    assert parse_form(format_form(f), exact) == f
    # an exponent needs '*'; the error names the term
    for bad in ("1e6e125", "2.5e-3e135", "1e-6", "-1e+2e12"):
        with pytest.raises(ValueError, match=re.escape(f"term {bad!r}")):
            parse_form(bad, exact)


def test_skew_endo_validation():
    with pytest.raises(ValueError):
        SkewEndo([[Fraction(1) if i == j else Fraction(0) for j in range(6)]
                  for i in range(6)])


@given(st.integers(min_value=0, max_value=6))
def test_monomial_count(k):
    assert len(monomials(k)) == math.comb(6, k)

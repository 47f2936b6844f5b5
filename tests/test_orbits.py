import random
from fractions import Fraction

import pytest
import sympy as sp

from torsion6.forms import Form, OMEGA, contract, monomials, norm_sq, wedge
from torsion6.orbits import (
    TorsionFamily,
    bianchi_feasible,
    classify_form,
    codiff_gap,
    d_parallel,
    first_family_form,
    gamma_family,
    lie_group_criterion,
    make_torsion,
    second_family_form,
    sigma,
    so3_family,
    so3_pair_reduce,
    invariant_poly_dims,
    w1w3_family,
)
from torsion6.unitary import isotropy_algebra, project_l3


def e(*idx):
    return Form.monomial(idx)


def frac(rng, lo=-4, hi=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 3))


def pos(rng):
    return Fraction(rng.randint(1, 5), rng.randint(1, 3))


def sample_family(case, rng):
    if case == "I":
        return TorsionFamily("I", a5=pos(rng))
    if case == "II":
        return TorsionFamily("II", a1=pos(rng))
    if case == "III":
        return TorsionFamily("III", a1=pos(rng), a3=pos(rng), a4=frac(rng))
    if case == "IV":
        return TorsionFamily("IV", a3=pos(rng), a4=frac(rng), a5=pos(rng))
    if case == "V":
        return TorsionFamily("V", a1=pos(rng), a5=pos(rng))
    if case == "VI":
        return TorsionFamily("VI", a1=pos(rng), a3=pos(rng), a4=frac(rng),
                             a5=pos(rng))
    if case == "VII":
        return TorsionFamily("VII", a1=pos(rng))
    if case == "VIII":
        return TorsionFamily("VIII", b2=pos(rng))
    if case == "IX":
        return TorsionFamily("IX", b1=pos(rng))
    if case == "X":
        b2 = pos(rng)
        return TorsionFamily("X", b1=2 * b2, b2=b2)
    b2 = pos(rng)
    return TorsionFamily("XI", a1=pos(rng), a2=frac(rng), b1=2 * b2, b2=b2)


ALL_CASES = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X", "XI")


def test_family_validation():
    with pytest.raises(ValueError, match="case I"):
        TorsionFamily("I", a1=1, a5=1)
    with pytest.raises(ValueError, match="a5 = 0"):
        TorsionFamily("III", a1=1, a3=1, a5=1)
    with pytest.raises(ValueError, match="case X"):
        TorsionFamily("X", b1=1, b2=1)
    with pytest.raises(ValueError, match="b2 != 0"):
        TorsionFamily("VIII", b2=0)
    with pytest.raises(ValueError, match="unknown case"):
        TorsionFamily("XII")
    with pytest.raises(ValueError, match="first-family"):
        TorsionFamily("II", a1=1, b1=1)


def test_norm_identities():
    rng = random.Random(11)
    for case in ALL_CASES:
        for _ in range(3):
            f = sample_family(case, rng)
            n2, n12, n6 = project_l3(make_torsion(f)).norms_sq
            if case in ("I", "II", "III", "IV", "V", "VI"):
                assert n2 == f.a1 ** 2
                assert n12 == f.a1 ** 2 + 2 * (f.a3 ** 2 + f.a4 ** 2)
                assert n6 == 2 * f.a5 ** 2
            else:
                assert n2 == 4 * (f.a1 ** 2 + f.a2 ** 2)
                assert n12 == 2 * f.b1 ** 2 + 4 * f.b2 ** 2
                assert n6 == 0


def test_sigma_displays():
    b1, b2 = Fraction(3), Fraction(2)
    s = sigma(second_family_form(0, 0, b1, b2))
    want = (-b1 ** 2 + 2 * b2 ** 2) * e(1, 2, 3, 4) \
        - 2 * b2 ** 2 * (e(1, 2, 5, 6) + e(3, 4, 5, 6))
    assert s == want

    a1, b1, a3, a4 = Fraction(2), Fraction(1), Fraction(1), Fraction(-2)
    s = sigma(w1w3_family(a1, 0, b1, 0, a3, a4))
    want = (2 * a1 ** 2 + 2 * b1 ** 2 - a3 ** 2 - a4 ** 2) * e(1, 2, 3, 4) \
        + 2 * (a1 ** 2 - b1 ** 2) * (e(1, 2, 5, 6) + e(3, 4, 5, 6))
    assert s == want

    assert sigma(second_family_form(0, 0, Fraction(1), 0)) == -e(1, 2, 3, 4)


def test_sigma_rejects_wrong_degree():
    with pytest.raises(ValueError):
        sigma(e(1, 2))


def test_d_parallel_of_torsion_is_twice_sigma():
    rng = random.Random(12)
    for _ in range(5):
        t = Form(3, {i: Fraction(rng.randint(-3, 3))
                     for i in rng.sample(monomials(3), 6)})
        assert d_parallel(t, t) == 2 * sigma(t)


def test_d_parallel_degree_and_linearity():
    t = second_family_form(0, 0, Fraction(1), 0)
    dw = d_parallel(OMEGA, t)
    assert dw.degree == 3
    assert d_parallel(3 * OMEGA, t) == 3 * dw
    assert d_parallel(Form(0, {(): Fraction(2)}), t).is_zero()


def test_codiff_gap():
    t = second_family_form(0, 0, Fraction(1), 0)
    assert codiff_gap(t, e(1, 2)) == e(5)
    assert codiff_gap(t, OMEGA).is_zero()
    with pytest.raises(ValueError):
        codiff_gap(t, e(1))


def test_so3_pair_reduce():
    assert so3_pair_reduce((1, 0, 0), (2, 3, 0)) == (1, 2, 3)
    assert so3_pair_reduce((0, 0, 0), (3, 4, 0)) == (0, 5, 0)
    lam, mu1, mu2 = so3_pair_reduce(
        (Fraction(3, 5), Fraction(4, 5), 0), (Fraction(3, 5), Fraction(4, 5), 2))
    assert (lam, mu1, mu2) == (1, 1, 2)
    # invariance under a rational rotation in the first two coordinates
    c, s = Fraction(3, 5), Fraction(4, 5)
    v, w = (1, 2, Fraction(1, 2)), (0, 1, -3)
    rv = (c * v[0] - s * v[1], s * v[0] + c * v[1], v[2])
    rw = (c * w[0] - s * w[1], s * w[0] + c * w[1], w[2])
    assert so3_pair_reduce(v, w) == so3_pair_reduce(rv, rw)


def test_lie_group_criterion():
    value, holds = lie_group_criterion(second_family_form(0, 0, Fraction(1), 0))
    assert value == -2 and not holds
    # product of two 3-spheres, bi-invariant frame
    value, holds = lie_group_criterion(-e(1, 2, 5) - e(3, 4, 6))
    assert holds and value == 0


def test_bianchi_feasible_cases():
    for case in ("IX", "X", "II", "VII"):
        t = make_torsion(sample_family(case, random.Random(13)))
        ok, witness = bianchi_feasible(t)
        assert ok
        assert witness.cyclic_sum() == sigma(t)


def test_bianchi_excludes_w3_with_line_isotropy():
    t = second_family_form(0, 0, Fraction(1), Fraction(1))
    ok, witness = bianchi_feasible(t)
    assert not ok and witness is None


def test_bianchi_forces_matching_coefficients():
    a3, a4 = Fraction(1), Fraction(-1)
    bad = w1w3_family(Fraction(2), 0, Fraction(1), 0, a3, a4)
    good = w1w3_family(Fraction(2), 0, Fraction(2), 0, a3, a4)
    assert not bianchi_feasible(bad)[0]
    assert bianchi_feasible(good)[0]


def test_bianchi_excludes_skew_parameter():
    with_gamma = gamma_family(Fraction(1), Fraction(1), Fraction(1), Fraction(1), 0)
    without = gamma_family(Fraction(1), Fraction(1), Fraction(1), 0, 0)
    assert not bianchi_feasible(with_gamma)[0]
    assert bianchi_feasible(without)[0]


def test_bianchi_rejects_non_isotropy():
    from torsion6.unitary import u3_basis
    t = second_family_form(0, 0, Fraction(1), 0)
    with pytest.raises(ValueError):
        bianchi_feasible(t, u3_basis())


def test_so3_family():
    a1, a2, a3 = Fraction(1), Fraction(2), Fraction(1)
    t = so3_family(a1, a2, a3)
    n2, n12, n6 = project_l3(t).norms_sq
    assert n2 == 4 * (a1 ** 2 + a2 ** 2)
    assert n12 == 12 * a3 ** 2
    assert n6 == 0
    rep = classify_form(so3_family(0, 0, Fraction(1)))
    assert rep.strict_type == "W3" and rep.iso_label == "so3"


def test_bianchi_t1_inside_so3_infeasible():
    t = so3_family(Fraction(1), Fraction(2), Fraction(1))
    iso = isotropy_algebra(t)
    assert len(iso) == 3
    assert bianchi_feasible(t)[0]
    for h in iso:
        assert not bianchi_feasible(t, [h])[0]


def test_invariant_poly_dims():
    dims = invariant_poly_dims(4)
    assert dims == [(1, 0), (2, 2), (3, 0), (4, 6)]
    assert sum(d for _, d in dims) == 8
    with pytest.raises(ValueError):
        invariant_poly_dims(5)


def test_classify_round_trip():
    rng = random.Random(14)
    for case in ALL_CASES:
        f = sample_family(case, rng)
        rep = classify_form(make_torsion(f))
        assert rep.case == case, (case, rep.verdict)
        assert rep.params is not None
        assert rep.params.get("a1", 0) == f.a1
        assert rep.params.get("a3", 0) == f.a3
        assert rep.params.get("b1", 0) == f.b1
        assert rep.bianchi_ok


def test_classify_examples():
    rep = classify_form(e(1, 2, 5) + e(3, 4, 5))
    assert rep.strict_type == "W4" and rep.iso_label == "u2_0"
    assert rep.case == "I" and rep.params["a5"] == 1

    rep = classify_form(Form(3))
    assert rep.case == "kaehler"

    rep = classify_form(second_family_form(0, 0, Fraction(1), Fraction(1)))
    assert rep.case is None
    assert rep.ambiguity is not None
    assert not rep.bianchi_ok

    payload = classify_form(second_family_form(0, 0, Fraction(1), 0)).to_json()
    assert '"caseTag": "IX"' in payload
    assert '"t12": "2"' in payload


def cayley_u3(rng):
    """The exact element (I - A)(I + A)^-1 of U(3) for a seeded rational A
    in u(3), as a 6x6 matrix of Fractions."""
    x = [[0] * 3 for _ in range(3)]  # antisymmetric real part
    y = [[0] * 3 for _ in range(3)]  # symmetric imaginary part
    for p in range(3):
        y[p][p] = sp.Rational(frac(rng))
        for q in range(p + 1, 3):
            x[p][q] = sp.Rational(frac(rng))
            x[q][p] = -x[p][q]
            y[p][q] = y[q][p] = sp.Rational(frac(rng))
    a = sp.zeros(6, 6)
    for p in range(3):
        for q in range(3):
            a[2 * p, 2 * q], a[2 * p, 2 * q + 1] = x[p][q], -y[p][q]
            a[2 * p + 1, 2 * q], a[2 * p + 1, 2 * q + 1] = y[p][q], x[p][q]
    one = sp.eye(6)
    u = (one - a) * (one + a).inv()
    assert u.T * u == one
    return [[Fraction(int(v.p), int(v.q)) for v in u.row(i)] for i in range(6)]


def rotate(t, u):
    """The 3-form obtained from t by sending e_a to the a-th column of u."""
    cols = [Form(1, {(i + 1,): u[i][a] for i in range(6)}) for a in range(6)]
    out = Form(3)
    for (a, b, c), coeff in t.coeffs.items():
        out = out + coeff * wedge(wedge(cols[a - 1], cols[b - 1]), cols[c - 1])
    return out


def test_classify_ignores_unitary_frame_rotations():
    rng = random.Random(21)
    for case in ALL_CASES:
        t = make_torsion(sample_family(case, rng))
        rep = classify_form(t)
        for _ in range(2):
            moved = rotate(t, cayley_u3(rng))
            assert moved != t
            got = classify_form(moved)
            assert (got.strict_type, got.iso_label, got.iso_dim, got.case,
                    got.norms_sq) == (rep.strict_type, rep.iso_label,
                                      rep.iso_dim, case, rep.norms_sq), case


def test_float_classification_is_scale_invariant():
    rng = random.Random(22)
    for case in ALL_CASES:
        t = make_torsion(sample_family(case, rng))
        exact = classify_form(t)
        want = (exact.strict_type, exact.iso_label, exact.iso_dim, case)
        base = classify_form(t.to_float(), 1e-9)
        for k in (-20, -10, 0, 10, 20):
            rep = classify_form(t.to_float() * 2.0 ** k, 1e-9)
            assert (rep.strict_type, rep.iso_label, rep.iso_dim,
                    rep.case) == want, (case, k)
            # scaling by a power of two is exact, so the numbers scale exactly
            assert rep.norms_sq == tuple(n * 4.0 ** k for n in base.norms_sq)
            assert rep.criterion_value == base.criterion_value * 4.0 ** k

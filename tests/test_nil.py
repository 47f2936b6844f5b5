import random
from fractions import Fraction

import pytest

from torsion6.forms import Form, OMEGA, sigma, wedge
from torsion6.nil import (
    StructureEquations,
    betti_vector,
    ce_betti,
    codifferential,
    nijenhuis,
    nil_family,
    nil_family_case,
    nil_torsion,
    parallel_2form_checks,
    structure_tag,
    torsion_from_kaehler,
    verify_parallel,
)
from torsion6.unitary import project_l3, torsion_type


def e(*idx):
    return Form.monomial(idx)


def fr(p, q=1):
    return Fraction(p, q)


def sample_params(case, rng):
    p = lambda: Fraction(rng.randint(1, 5), rng.randint(1, 3))
    if case == "i":
        a5 = p()
        return (rng.choice((a5, -a5)), fr(0), a5)
    if case == "ii":
        a5 = p()
        a3 = p()
        while a3 in (a5, -a5):
            a3 = a3 + 1
        return (rng.choice((a3, -a3)), fr(0), a5)
    if case == "iii":
        return (rng.choice((1, -1)) * p(), rng.choice((1, -1)) * p(), p())
    if case == "iv":
        return (fr(0), rng.choice((1, -1)) * p(), p())
    if case == "v":
        return (fr(0), fr(0), p())
    return (p(), fr(0), fr(0))


TABLE = {
    # family -> (strict type, b1, b2, structure tag)
    "i": ("W3+W4", 5, 11, "(0,0,0,0,0,12)"),
    "ii": ("W3+W4", 5, 9, "(0,0,0,0,0,12+34)"),
    "iii": ("W3+W4", 4, 8, "(0,0,0,0,12,34)"),
    "iv": ("W3+W4", 4, 8, "(0,0,0,0,12,34)"),
    "v": ("W4", 5, 9, "(0,0,0,0,0,12+34)"),
    "vi": ("W3", 5, 9, "(0,0,0,0,0,12+34)"),
}


def test_structure_equations_validation():
    with pytest.raises(ValueError, match="six"):
        StructureEquations([Form(2)] * 5)
    with pytest.raises(ValueError, match="2-forms"):
        StructureEquations([Form(3)] * 6)
    # d(de5) = -e3 ^ de6 is nonzero here
    with pytest.raises(ValueError, match="d\\^2"):
        StructureEquations([Form(2)] * 4 + [e(3, 6), e(1, 2)])


def test_differential_and_duality():
    s = nil_family(fr(1, 2), fr(1), fr(1))
    assert s.d(e(5)) == s.de[4]
    assert s.d(wedge(e(5), e(6))) == wedge(s.de[4], e(6)) - wedge(e(5), s.de[5])
    alg = s.dual_algebra()
    assert alg.bracket_basis(1, 2) == [0, 0, 0, 0, fr(-3, 2), fr(-1)]
    assert alg.bracket_basis(3, 4) == [0, 0, 0, 0, fr(-1, 2), fr(1)]
    from torsion6.liegeom import jacobi_check
    assert jacobi_check(alg)[0]


def test_nilpotency_flag():
    assert nil_family(fr(1), fr(0), fr(1)).nilpotent
    su2 = StructureEquations(
        [-1 * e(2, 3), e(1, 3), -1 * e(1, 2), Form(2), Form(2), Form(2)])
    assert not su2.nilpotent


def test_text_round_trips():
    s = nil_family(fr(3, 2), fr(-1), fr(1, 2))
    back = StructureEquations.from_text(s.to_text())
    assert all(a == b for a, b in zip(back.de, s.de))
    with pytest.raises(ValueError, match="parse"):
        StructureEquations.from_text("d5 = e12")

    for tag in ("(0,0,0,0,12,34)", "(0,0,0,0,0,12+34)", "(0,0,0,0,0,12)"):
        assert StructureEquations.from_shorthand(tag).shorthand() == tag
    with pytest.raises(ValueError, match="six"):
        StructureEquations.from_shorthand("(0,0,12)")


def test_betti_numbers():
    rng = random.Random(31)
    for case, (_, b1, b2, _) in TABLE.items():
        s = nil_family(*sample_params(case, rng))
        assert (ce_betti(s, 1), ce_betti(s, 2)) == (b1, b2), case
    abelian = StructureEquations([Form(2)] * 6)
    assert betti_vector(abelian) == (1, 6, 15, 20, 15, 6, 1)


def test_betti_poincare_duality():
    rng = random.Random(32)
    for case in TABLE:
        b = betti_vector(nil_family(*sample_params(case, rng)))
        assert b == tuple(reversed(b))
        assert sum((-1) ** k * bk for k, bk in enumerate(b)) == 0


def test_structure_tags():
    rng = random.Random(33)
    for case, (_, _, _, tag) in TABLE.items():
        assert structure_tag(nil_family(*sample_params(case, rng))) == tag, case


def test_family_case_dispatch():
    assert nil_family_case(fr(1), 0, fr(1)) == "i"
    assert nil_family_case(fr(-2), 0, fr(1)) == "ii"
    assert nil_family_case(fr(1, 2), fr(1), fr(1)) == "iii"
    assert nil_family_case(0, fr(-1), fr(2)) == "iv"
    assert nil_family_case(0, 0, fr(1)) == "v"
    assert nil_family_case(fr(3), 0, 0) == "vi"
    assert nil_family_case(0, 0, 0) is None
    assert nil_family_case(fr(-1), 0, 0) is None


def test_nijenhuis_nil_families_vanish():
    rng = random.Random(34)
    for case in TABLE:
        assert nijenhuis(nil_family(*sample_params(case, rng))).is_zero
    abelian = StructureEquations([Form(2)] * 6)
    assert nijenhuis(abelian).is_zero


def test_nijenhuis_skew_but_nonzero():
    # two 3-spheres with the complex structure pairing the factors
    s = StructureEquations(
        [-1 * e(3, 5), -1 * e(4, 6), e(1, 5), e(2, 6), -1 * e(1, 3), -1 * e(2, 4)])
    n = nijenhuis(s)
    assert not n.is_zero and n.totally_skew
    assert n.as_form().coeff((1, 3, 5)) == -1
    _, _, t = torsion_from_kaehler(s)
    assert torsion_type(t)[1] == "W1+W3"


def test_nijenhuis_not_skew():
    s = StructureEquations([Form(2)] * 4 + [e(1, 3), Form(2)])
    n = nijenhuis(s)
    assert not n.is_zero and not n.totally_skew
    with pytest.raises(ValueError, match="not totally skew"):
        n.as_form()
    with pytest.raises(ValueError, match="characteristic connection"):
        torsion_from_kaehler(s)


def test_torsion_from_kaehler_nil():
    rng = random.Random(35)
    for case in TABLE:
        a3, a4, a5 = sample_params(case, rng)
        s = nil_family(a3, a4, a5)
        dw, dlt, t = torsion_from_kaehler(s)
        assert dw == wedge(e(1, 2) - e(3, 4), a3 * e(6) - a4 * e(5)) \
            + a5 * wedge(e(1, 2) + e(3, 4), e(6))
        assert t == nil_torsion(a3, a4, a5)
        # codifferential pins the divergence part: delta Omega = 2X
        assert dlt == 2 * a5 * e(5)
        comp = project_l3(t)
        assert dlt.vector() == [2 * v for v in comp.x]


def test_torsion_from_kaehler_flat():
    abelian = StructureEquations([Form(2)] * 6)
    dw, dlt, t = torsion_from_kaehler(abelian)
    assert dw.is_zero() and dlt.is_zero() and t.is_zero()


def test_codifferential_sign():
    s = nil_family(fr(1), 0, fr(1))
    assert codifferential(s, OMEGA) == 2 * e(5)
    abelian = StructureEquations([Form(2)] * 6)
    assert codifferential(abelian, OMEGA).is_zero()


def test_verify_parallel():
    rng = random.Random(36)
    for case in TABLE:
        a3, a4, a5 = sample_params(case, rng)
        par, dtm, details = verify_parallel(nil_family(a3, a4, a5))
        assert par and dtm
        assert details["dT"] == -2 * (a3 ** 2 + a4 ** 2 - a5 ** 2) * e(1, 2, 3, 4)
        assert details["dT"] == 2 * sigma(details["torsion"])


def test_closed_torsion_loci():
    # dT = 0 exactly when a3^2 + a4^2 = a5^2
    for a3, a4, a5, closed in (
        (fr(1), fr(0), fr(1), True),       # family i
        (fr(3, 5), fr(4, 5), fr(1), True),  # family iii on the circle
        (fr(0), fr(3, 5), fr(1), False),    # family iv off the circle
        (fr(0), fr(1), fr(1), True),        # family iv on the circle
        (fr(2), fr(0), fr(1), False),       # family ii
    ):
        _, _, details = verify_parallel(nil_family(a3, a4, a5))
        assert details["dT"].is_zero() == closed


def test_verify_parallel_rejects_wrong_torsion():
    s = nil_family(fr(1, 2), fr(1), fr(1))
    par, _, _ = verify_parallel(s, nil_torsion(fr(1, 2), fr(1), fr(1)) + e(1, 3, 5))
    assert not par


def test_parallel_2form_checks():
    s = nil_family(fr(1, 2), fr(1), fr(1))
    assert parallel_2form_checks(s) == {
        "de12_zero": True, "de34_zero": True,
        "sum_parallel": True, "difference_parallel": True}
    # the product of 3-spheres in the adapted frame passes the same checks
    su2su2 = StructureEquations(
        [-1 * e(2, 5), e(1, 5), -1 * e(4, 6), e(3, 6), -1 * e(1, 2), -1 * e(3, 4)])
    t = -1 * e(1, 2, 5) - e(3, 4, 6)
    assert all(parallel_2form_checks(su2su2, t).values())
    # a structure with de1 supported away from e2 fails the closedness check
    generic = StructureEquations([e(3, 4)] + [Form(2)] * 5)
    rep = parallel_2form_checks(generic, Form(3))
    assert not rep["de12_zero"]


def test_structure_tag_errors():
    su2 = StructureEquations(
        [-1 * e(2, 3), e(1, 3), -1 * e(1, 2), Form(2), Form(2), Form(2)])
    with pytest.raises(ValueError, match="not nilpotent"):
        structure_tag(su2)
    leaky = StructureEquations([Form(2)] * 4 + [Form(2), e(1, 5)])
    with pytest.raises(ValueError, match="base directions"):
        structure_tag(leaky)

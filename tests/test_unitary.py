import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torsion6 import linalg
from torsion6.forms import (
    Form,
    J,
    OMEGA,
    SkewEndo,
    endo_act_on_form,
    endo_of_form,
    inner,
    monomials,
    norm_sq,
    parse_form,
    wedge,
)
from torsion6.orbits import classify_form
from torsion6.unitary import (
    M2_BASIS,
    OMEGA_H,
    OMEGA_V,
    delta_class,
    f_complex,
    i1,
    i2,
    i3,
    i5,
    identify_algebra,
    isotropy_algebra,
    project_l3,
    split_so6,
    su2_twist,
    tau,
    theta,
    torsion_type,
    torus_fixed_dims,
    torus_generator,
    u2_split,
    u3_basis,
)


def e(*idx):
    return Form.monomial(idx)


def rand_2form(rng):
    return Form(2, {i: Fraction(rng.randint(-4, 4))
                    for i in rng.sample(monomials(2), 5)})


def test_split_so6_j():
    u3, m6, su3, r1 = split_so6(J)
    assert u3.equals(J) and m6.is_zero()
    assert su3.is_zero() and r1.equals(J)


def test_split_so6_u3_element():
    a = endo_of_form(e(1, 2) - e(3, 4))
    u3, m6, _, r1 = split_so6(a)
    assert u3.equals(a) and m6.is_zero()
    assert r1.is_zero()  # complex trace i - i = 0


def test_split_so6_commutation():
    rng = random.Random(7)
    for _ in range(5):
        a = endo_of_form(rand_2form(rng))
        u3, m6, su3, r1 = split_so6(a)
        assert (u3 + m6).equals(a)
        assert SkewEndo(u3.compose(J), check=False).equals(
            SkewEndo(J.compose(u3), check=False))
        jm = J.compose(m6)
        mj = m6.compose(J)
        assert all(jm[i][j] + mj[i][j] == 0 for i in range(6) for j in range(6))
        assert (su3 + r1).equals(u3)


def tau_squared_matrix():
    basis = monomials(3)
    cols = [tau(tau(Form.monomial(idx))).vector() for idx in basis]
    return linalg.transpose(cols)


def test_tau_square_spectrum():
    m = tau_squared_matrix()
    n = len(m)

    def shifted(lam):
        return [[m[i][j] + (lam if i == j else 0) for j in range(n)]
                for i in range(n)]

    assert len(linalg.nullspace(shifted(9))) == 2
    assert len(linalg.nullspace(shifted(1))) == 12
    assert len(linalg.nullspace(shifted(-1))) == 6


def test_tau_examples():
    w4 = e(1, 2, 5) + e(3, 4, 5)
    assert tau(tau(w4)) == w4
    w1 = e(1, 4, 5) + e(2, 3, 5) + e(1, 3, 6) - e(2, 4, 6)
    assert tau(tau(w1)) == -9 * w1
    assert tau(Form(3)).is_zero()


def test_project_l3_norms():
    t = e(1, 4, 5) + e(2, 3, 5)
    comp = project_l3(t)
    assert norm_sq(comp.t2) == 1
    assert norm_sq(comp.t12) == 1
    assert comp.t6.is_zero()
    assert comp.total() == t


def test_project_l3_divergence_vector():
    comp = project_l3(e(1, 2, 5) + e(3, 4, 5))
    assert comp.t2.is_zero() and comp.t12.is_zero()
    assert comp.t6 == wedge(OMEGA, e(5))
    assert comp.x == [0, 0, 0, 0, 1, 0]


def test_projectors_resolve_identity():
    rng = random.Random(8)
    for _ in range(5):
        t = Form(3, {i: Fraction(rng.randint(-3, 3))
                     for i in rng.sample(monomials(3), 6)})
        comp = project_l3(t)
        assert comp.total() == t
        # idempotence and orthogonality
        again = project_l3(comp.t12)
        assert again.t12 == comp.t12 and again.t2.is_zero() and again.t6.is_zero()
        from torsion6.forms import inner
        assert inner(comp.t2, comp.t12) == 0
        assert inner(comp.t2, comp.t6) == 0
        assert inner(comp.t12, comp.t6) == 0


def twisted_omega(u, v):
    """q1 O1 + q2 O2 + q3 Omega_H + Omega_V as su2_twist builds it, for the
    rational unit vector q with stereographic coordinates (u, v)."""
    n = u * u + v * v + 1
    o1 = M2_BASIS[1]
    return (2 * u / n * o1 + 2 * v / n * f_complex(o1)
            + (u * u + v * v - 1) / n * OMEGA_H + OMEGA_V)


_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@pytest.mark.parametrize("twisted", [False, True])
@settings(deadline=None, max_examples=40)
@given(st.dictionaries(st.sampled_from(monomials(3)), _coeffs), _coeffs, _coeffs)
def test_project_l3_parts_are_tau_eigenforms(twisted, coeffs, u, v):
    omega = twisted_omega(u, v) if twisted else OMEGA
    t = Form(3, coeffs)
    comp = project_l3(t, omega)
    assert comp.t2 + comp.t12 + comp.t6 == t
    assert inner(comp.t2, comp.t12) == 0
    assert inner(comp.t2, comp.t6) == 0
    assert inner(comp.t12, comp.t6) == 0

    def tau2(w):
        return tau(tau(w, omega), omega)

    assert tau2(comp.t2) == -9 * comp.t2
    assert tau2(comp.t12) == -comp.t12
    assert tau2(comp.t6) == comp.t6
    x = Form(1, {(i,): c for i, c in enumerate(comp.x, start=1)})
    assert wedge(omega, x) == comp.t6


def test_tau_equivariance():
    rng = random.Random(9)
    basis = u3_basis()
    for _ in range(5):
        a = basis[rng.randrange(len(basis))]
        t = Form(3, {i: Fraction(rng.randint(-3, 3))
                     for i in rng.sample(monomials(3), 5)})
        assert tau(endo_act_on_form(a, t)) == endo_act_on_form(a, tau(t))


def test_theta():
    assert theta(Form(3)).is_zero()
    g = theta(e(1, 2, 5) + e(3, 4, 5))
    assert not g.is_zero()
    for comp in g.gamma:
        jc = J.compose(comp)
        cj = comp.compose(J)
        assert all(jc[i][j] + cj[i][j] == 0 for i in range(6) for j in range(6))


def test_theta_injective():
    rows = []
    for idx in monomials(3):
        g = theta(Form.monomial(idx))
        rows.append([x for a in g.gamma for x in a.flat()])
    assert linalg.rank(rows) == 20


def test_torsion_type():
    assert torsion_type(e(1, 2, 5) + e(3, 4, 5))[1] == "W4"
    w1 = e(1, 4, 5) + e(2, 3, 5) + e(1, 3, 6) - e(2, 4, 6)
    assert torsion_type(w1)[1] == "W1"
    assert torsion_type(Form(3))[1] == "Kaehler"


def test_u2_split_round_trip():
    o1 = M2_BASIS[1]  # e14 + e23
    t2 = i1(o1)
    got = u2_split(t2, Form(3))
    assert got[0] == o1
    assert all(f.is_zero() for f in got[1:4])
    assert all(c == 0 for c in got[4])


def test_u2_split_example():
    t12 = wedge(e(1, 2) - e(3, 4), e(5))
    o1, o2, o3, o4, y = u2_split(Form(3), t12)
    assert o1.is_zero() and o2.is_zero()
    assert o3 == e(1, 2) - e(3, 4)
    assert o4.is_zero()
    assert all(c == 0 for c in y)


def test_u2_split_rejects_wrong_eigenspace():
    with pytest.raises(ValueError):
        u2_split(e(1, 2, 5) + e(3, 4, 5), Form(3))


def test_torus_fixed_dims_table():
    assert torus_fixed_dims(1, 0, 0) == (0, 4, 4)
    assert torus_fixed_dims(1, -1, 0) == (2, 4, 2)
    assert torus_fixed_dims(3, 2, 2) == (0, 0, 0)
    with pytest.raises(ValueError):
        torus_fixed_dims(0, 0, 0)


def test_torus_fixed_dims_match_matrix_kernels():
    # oracle: for each module, a basis B from the projections of the
    # monomials, and the kernel of k1 A1 + k2 A2 + k3 A3 on B, where A_i is
    # the action of the i-th circle generator on 3-forms
    tuples = [k for k in itertools.product(range(-3, 4), repeat=3)
              if k != (0, 0, 0)]
    assert len(tuples) == 342
    gens = [torus_generator(*(1 if i == j else 0 for j in range(3)))
            for i in range(3)]
    images = []
    for part in ("t2", "t12", "t6"):
        red, pivots = linalg.rref(
            [getattr(project_l3(Form.monomial(idx)), part).vector()
             for idx in monomials(3)])
        images.append([[endo_act_on_form(a, Form.from_vector(3, row)).vector()
                        for a in gens] for row in red[:len(pivots)]])
    for k in tuples:
        dims = tuple(
            len(imgs) - linalg.rank([[sum(c * x for c, x in zip(k, xs))
                                      for xs in zip(*per_gen)]
                                     for per_gen in imgs])
            for imgs in images)
        assert torus_fixed_dims(*k) == dims, k


def test_delta_class():
    assert delta_class(1, 1, 0)[0] == "D2"
    assert delta_class(2, 1, -1)[0] == "D5"
    assert delta_class(2, 1, -3)[0] == "D7"
    assert delta_class(1, 0, 0)[0] == "D1"
    assert delta_class(1, -1, 0)[0] == "D3"
    tag, canon, was = delta_class(0, 2, 0)
    assert tag == "D1" and canon == (1, 0, 0) and not was


def case_form(alpha1=0, alpha3=0, alpha4=0, alpha5=0):
    t = alpha1 * (wedge(e(1, 4) + e(2, 3), e(5)))
    t = t + wedge(e(1, 2) - e(3, 4), alpha3 * e(5) + alpha4 * e(6))
    t = t + alpha5 * wedge(e(1, 2) + e(3, 4), e(5))
    return t


def test_isotropy_dims():
    w1 = e(1, 4, 5) + e(2, 3, 5) + e(1, 3, 6) - e(2, 4, 6)
    assert len(isotropy_algebra(w1)) == 8
    assert len(isotropy_algebra(e(1, 2, 5) + e(3, 4, 5))) == 4
    assert len(isotropy_algebra(Form(3))) == 9


def test_identify_algebra_examples():
    su2 = [endo_of_form(f) for f in
           (e(1, 2) - e(3, 4), e(1, 3) + e(2, 4), e(1, 4) - e(2, 3))]
    assert identify_algebra(su2).tag == "su2"
    so3 = [endo_of_form(f) for f in
           (e(1, 3) + e(2, 4), e(1, 5) + e(2, 6), e(3, 5) + e(4, 6))]
    assert identify_algebra(so3).tag == "so3"
    t2 = [endo_of_form(e(1, 2) - e(3, 4)), endo_of_form(e(1, 2) - e(5, 6))]
    assert identify_algebra(t2).tag == "t2"
    assert identify_algebra([]).tag == "trivial"
    with pytest.raises(ValueError):
        identify_algebra([endo_of_form(e(1, 3)), endo_of_form(e(1, 2))])


def test_float_isotropy_basis_with_large_entries():
    # a rotated case IV form whose float isotropy basis has entries near
    # 7.7e3: the bracket of its two commuting elements is roundoff of
    # about 2e-9, above the absolute zero-test tolerance
    coeffs = {
        (1, 2, 3): 78.83128348045204, (1, 2, 4): 117.69631612734894,
        (1, 2, 5): -107.58053431703857, (1, 2, 6): 35.06721850041997,
        (1, 3, 4): -17.44078452641683, (1, 3, 5): 5.3394592339944085,
        (1, 3, 6): -5.346704090485581, (1, 4, 5): -9.863872112731867,
        (1, 4, 6): -5.426397511888482, (1, 5, 6): 1.4441413939071261,
        (2, 3, 4): -14.154034631588072, (2, 3, 5): 14.15282715550621,
        (2, 3, 6): -2.2241709427900727, (2, 4, 5): 12.990027688672964,
        (2, 4, 6): -1.0577490477112397, (2, 5, 6): -7.580534841930551,
        (3, 4, 5): -46.74577622968041, (3, 4, 6): 19.87777312863511,
        (3, 5, 6): 41.14354001337075, (4, 5, 6): 45.312954924040746,
    }
    rep = classify_form(Form(3, coeffs), 1e-9)
    assert (rep.strict_type, rep.iso_label, rep.iso_dim, rep.case) == \
        ("W3+W4", "t2", 2, "IV")


def test_identify_u2_labels():
    lbl = identify_algebra(isotropy_algebra(e(1, 2, 5) + e(3, 4, 5)))
    assert lbl.tag == "u2_0"


def test_su2_twist_identity():
    t = case_form(alpha1=Fraction(3, 5), alpha5=Fraction(4, 5))
    newj, (a1, a5) = su2_twist(t, (0, 0, 1))
    assert newj.equals(J)
    assert a1 == Fraction(3, 5) and a5 == Fraction(4, 5)


def test_su2_twist_to_w4():
    a1, a5 = Fraction(3, 5), Fraction(4, 5)
    t = case_form(alpha1=a1, alpha5=a5)
    q = (a1 * 1 - a5 * 0, 0, a1 * 0 + a5 * 1)  # target (0, 1)
    newj, (na1, na5) = su2_twist(t, q)
    assert na1 == 0 and na5 == 1
    comp = newj.compose(newj)
    assert all(comp[i][j] == (-1 if i == j else 0) for i in range(6) for j in range(6))

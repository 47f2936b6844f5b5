import random
from fractions import Fraction

import numpy as np
import pytest

from torsion6.clifford import (
    CliffordElement,
    cl_mul,
    clifford_action,
    embed_form,
    gammas,
    is_scalar_square,
    parallel_spinors,
    spin_lift,
    torsion_spinor_spectrum,
)
from torsion6.forms import Form, OMEGA, endo_of_form, monomials
from torsion6.orbits import TorsionFamily, first_family_form, \
    lie_group_criterion, make_torsion
from torsion6.unitary import isotropy_algebra, u3_basis


def e(*idx):
    return Form.monomial(idx)


def cl(*idx):
    out = CliffordElement.scalar(Fraction(1))
    for i in idx:
        out = cl_mul(out, CliffordElement.generator(i))
    return out


def test_generator_relations():
    for i in range(1, 7):
        assert cl_mul(cl(i), cl(i)) == CliffordElement.scalar(Fraction(-1))
    assert cl_mul(cl(1), cl(2)) == cl(1, 2)
    assert cl_mul(cl(2), cl(1)) == Fraction(-1) * cl(1, 2)
    assert cl_mul(cl(1, 2, 3), cl(1, 2, 3)) == CliffordElement.scalar(Fraction(1))


def test_cl_mul_associative():
    rng = random.Random(21)

    def rand_el():
        idxs = [tuple(sorted(rng.sample(range(1, 7), rng.randint(0, 3))))
                for _ in range(3)]
        return CliffordElement({i: Fraction(rng.randint(-3, 3)) for i in idxs})

    for _ in range(10):
        a, b, c = rand_el(), rand_el(), rand_el()
        assert cl_mul(cl_mul(a, b), c) == cl_mul(a, cl_mul(b, c))


def test_embed_form():
    assert embed_form(e(1, 3, 5)) == cl(1, 3, 5)
    assert embed_form(OMEGA) == cl(1, 2) + cl(3, 4) + cl(5, 6)
    assert embed_form(Form(3)) == CliffordElement()


def test_is_scalar_square():
    assert is_scalar_square(-e(1, 2, 5) - e(3, 4, 6)) == (True, 2)
    ok, _ = is_scalar_square(e(1, 2, 5) + e(3, 4, 5))
    assert not ok
    assert is_scalar_square(Form(3)) == (True, 0)


def sample_cases(rng, n):
    """Torsion forms of random singular-orbit cases.  The III draws at
    a4 = 0 lie on the circle a1^2 = a3^2 + a4^2, which TorsionFamily
    rejects as case III; those forms are built directly."""
    out = []
    while len(out) < n:
        case = rng.choice(("I", "II", "III", "V", "VII", "IX", "X"))
        a = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        b = Fraction(rng.randint(-3, 3))
        if case == "I":
            f = TorsionFamily("I", a5=a)
        elif case == "II":
            f = TorsionFamily("II", a1=a)
        elif case == "III" and b == 0:
            out.append(first_family_form(a, a, 0, 0))
            continue
        elif case == "III":
            f = TorsionFamily("III", a1=a, a3=a, a4=b)
        elif case == "V":
            f = TorsionFamily("V", a1=a, a5=a)
        elif case == "VII":
            f = TorsionFamily("VII", a1=a)
        elif case == "IX":
            f = TorsionFamily("IX", b1=a)
        else:
            f = TorsionFamily("X", b1=2 * a, b2=a)
        out.append(make_torsion(f))
    return out


def test_scalar_square_matches_lie_criterion():
    rng = random.Random(22)
    for t in sample_cases(rng, 100):
        scalar, _ = is_scalar_square(t)
        _, holds = lie_group_criterion(t)
        assert scalar == holds


def test_gamma_relations_and_skew_hermitian():
    g = gammas()
    for i in range(6):
        assert np.max(np.abs(g[i] + g[i].conj().T)) < 1e-12
        for j in range(6):
            anti = g[i] @ g[j] + g[j] @ g[i]
            target = -2 * np.eye(8) if i == j else np.zeros((8, 8))
            assert np.max(np.abs(anti - target)) < 1e-12


def test_spin_lift_homomorphism():
    rng = random.Random(23)
    for _ in range(5):
        a = endo_of_form(Form(2, {i: Fraction(rng.randint(-3, 3))
                                  for i in rng.sample(monomials(2), 4)}))
        b = endo_of_form(Form(2, {i: Fraction(rng.randint(-3, 3))
                                  for i in rng.sample(monomials(2), 4)}))
        la, lb = spin_lift(a), spin_lift(b)
        lbr = spin_lift(a.bracket(b))
        assert np.max(np.abs(lbr - (la @ lb - lb @ la))) < 1e-9


def test_spin_lift_basic_eigenvalues():
    assert np.max(np.abs(spin_lift(endo_of_form(Form(2))))) == 0
    vals = np.linalg.eigvals(spin_lift(endo_of_form(e(1, 2))))
    assert sorted(np.round(vals.imag, 9)) == [-0.5] * 4 + [0.5] * 4
    assert np.max(np.abs(vals.real)) < 1e-12


def test_three_form_action_hermitian():
    rng = random.Random(24)
    for _ in range(5):
        t = Form(3, {i: Fraction(rng.randint(-3, 3))
                     for i in rng.sample(monomials(3), 5)})
        m = clifford_action(t)
        assert np.max(np.abs(m - m.conj().T)) < 1e-9


SU2 = [endo_of_form(f) for f in
       (e(1, 2) - e(3, 4), e(1, 3) + e(2, 4), e(1, 4) - e(2, 3))]
SO3 = [endo_of_form(f) for f in
       (e(1, 3) + e(2, 4), e(1, 5) + e(2, 6), e(3, 5) + e(4, 6))]


def test_parallel_spinor_counts():
    w1 = e(1, 4, 5) + e(2, 3, 5) + e(1, 3, 6) - e(2, 4, 6)
    su3 = isotropy_algebra(w1)
    assert len(su3) == 8
    assert parallel_spinors(su3)[0] == 2
    assert parallel_spinors(SU2)[0] == 4
    assert parallel_spinors(SO3)[0] == 2
    assert parallel_spinors(SU2[:1])[0] == 4
    assert parallel_spinors([])[0] == 8
    assert parallel_spinors(u3_basis())[0] == 0


def test_spectrum_case_ii():
    t = make_torsion(TorsionFamily("II", a1=Fraction(1)))
    spec = torsion_spinor_spectrum(t, isotropy_algebra(t))
    assert np.allclose(spec, [-2, -2, 2, 2])


def test_spectrum_so3_family():
    t = make_torsion(TorsionFamily("VII", a1=Fraction(1)))
    spec = torsion_spinor_spectrum(t, SO3)
    assert np.allclose(spec, [-4, 4])


def test_spectrum_case_ix_full_spinor_space():
    t = make_torsion(TorsionFamily("IX", b1=Fraction(1)))
    spec = np.round(torsion_spinor_spectrum(t, []), 9)
    assert list(spec) == [-2, -2, 0, 0, 0, 0, 2, 2]


def test_spectrum_symmetry():
    rng = random.Random(25)
    for t in sample_cases(rng, 10):
        spec = torsion_spinor_spectrum(t, [])
        nonzero = [v for v in spec if abs(v) > 1e-7]
        assert sorted(np.round(nonzero, 7)) == sorted(np.round([-v for v in nonzero], 7))

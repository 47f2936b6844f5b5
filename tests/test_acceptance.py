"""End-to-end checks, one test per shipped claim of the package.

Each test is self-contained and uses exact arithmetic unless a tolerance
is stated next to the assertion.
"""

import random
from fractions import Fraction

import sympy as sp

from torsion6 import catalog, linalg
from torsion6.clifford import is_scalar_square, parallel_spinors, \
    torsion_spinor_spectrum
from torsion6.forms import Form, d_parallel, endo_of_form, monomials, \
    norm_sq, sigma
from torsion6.liegeom import algebra_fingerprint, jacobi_check, nomizu, \
    LieAlgebraData
from torsion6.nil import nil_family, nil_torsion, nijenhuis
from torsion6.orbits import (
    TorsionFamily,
    bianchi_feasible,
    classify_form,
    first_family_form,
    invariant_poly_dims,
    make_torsion,
    second_family_form,
    so3_family,
    w1w3_family,
)
from torsion6.unitary import delta_class, isotropy_algebra, project_l3, tau, \
    torus_fixed_dims

F = Fraction
SPIN_TOL = 1e-7


def e(*idx):
    return Form.monomial(idx)


def frac(rng, lo=-4, hi=4):
    return F(rng.randint(lo, hi), rng.randint(1, 3))


def pos(rng):
    return F(rng.randint(1, 5), rng.randint(1, 3))


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

CASE_EXPECT = {
    "I": ("W4", "u2_0", 4),
    "II": ("W1+W3", "su2", 3),
    "III": ("W1+W3", "t1", 1),
    "IV": ("W3+W4", "t2", 2),
    "V": ("W1+W3+W4", "su2", 3),
    "VI": ("W1+W3+W4", "t1", 1),
    "VII": ("W1", "su3", 8),
    "VIII": ("W3", "u2_1", 4),
    "IX": ("W3", "t2", 2),
    "X": ("W3", "so3", 3),
    "XI": ("W1+W3", "so3", 3),
}


def test_criterion_01_tau_square_spectrum():
    # eigenvalues of the squared equivariant operator on 3-forms are
    # -9, -1, +1 with multiplicities 2, 12, 6; exact, zero tolerance
    basis = monomials(3)
    cols = [tau(tau(Form.monomial(idx))).vector() for idx in basis]
    m = linalg.transpose(cols)
    n = len(m)

    def eigenspace_dim(lam):
        shifted = [[m[i][j] - (lam if i == j else 0) for j in range(n)]
                   for i in range(n)]
        return len(linalg.nullspace(shifted))

    assert eigenspace_dim(F(-9)) == 2
    assert eigenspace_dim(F(-1)) == 12
    assert eigenspace_dim(F(1)) == 6
    assert n == 20


def test_criterion_02_case_table_labels_and_norms():
    # every normal-form case at three valid samples: strict type, isotropy
    # label and dimension, and the closed-form component norms; exact
    rng = random.Random(3)
    for case in ALL_CASES:
        for _ in range(3):
            f = sample_family(case, rng)
            rep = classify_form(make_torsion(f))
            assert rep.case == case
            got = (rep.strict_type, rep.iso_label, rep.iso_dim)
            assert got == CASE_EXPECT[case], (case, got)
            n2, n12, n6 = project_l3(make_torsion(f)).norms_sq
            if case in ("I", "II", "III", "IV", "V", "VI"):
                assert n2 == f.a1 ** 2
                assert n12 == f.a1 ** 2 + 2 * (f.a3 ** 2 + f.a4 ** 2)
                assert n6 == 2 * f.a5 ** 2
            else:
                assert n2 == 4 * (f.a1 ** 2 + f.a2 ** 2)
                assert n12 == 2 * f.b1 ** 2 + 4 * f.b2 ** 2
                assert n6 == 0


def test_criterion_03_torus_fixed_dims_table():
    # fixed-component dimensions for one canonical tuple per class and an
    # independent second tuple; 8 classes x 3 components, both runs exact
    table = {
        "D1": ((1, 0, 0), (0, 2, 0), (0, 4, 4)),
        "D2": ((1, 1, 0), (3, 0, 3), (0, 6, 2)),
        "D3": ((1, -1, 0), (2, 0, -2), (2, 4, 2)),
        "D4": ((2, 1, 0), (0, 3, 1), (0, 2, 2)),
        "D5": ((2, 1, -1), (3, 1, -2), (0, 2, 0)),
        "D6": ((3, 2, 1), (4, 3, 1), (0, 2, 0)),
        "D7": ((1, 1, -2), (2, 2, -4), (2, 0, 0)),
        "D8": ((3, 2, 2), (4, 3, 3), (0, 0, 0)),
    }
    for tag, (canonical, second, dims) in table.items():
        for tup in (canonical, second):
            assert delta_class(*tup)[0] == tag, (tag, tup)
            assert torus_fixed_dims(*tup) == dims, (tag, tup)


def test_criterion_04_sigma_displays():
    # the two displayed quadratic 4-form expressions, coefficient-wise
    b1, b2 = F(3), F(2)
    got = sigma(second_family_form(0, 0, b1, b2))
    want = (-b1 ** 2 + 2 * b2 ** 2) * e(1, 2, 3, 4) \
        - 2 * b2 ** 2 * (e(1, 2, 5, 6) + e(3, 4, 5, 6))
    assert got == want

    a1, b1, a3, a4 = F(2), F(1), F(1), F(-2)
    got = sigma(w1w3_family(a1, 0, b1, 0, a3, a4))
    want = (2 * a1 ** 2 + 2 * b1 ** 2 - a3 ** 2 - a4 ** 2) * e(1, 2, 3, 4) \
        + 2 * (a1 ** 2 - b1 ** 2) * (e(1, 2, 5, 6) + e(3, 4, 5, 6))
    assert got == want


def test_criterion_05_clifford_criterion_equivalence():
    # scalar Clifford square <=> 3|T2|^2 - |T12|^2 + |T6|^2 = 0 <=> dT = 0,
    # on 100 samples; exact rational arithmetic, no disagreements allowed
    rng = random.Random(5)
    samples = []
    for i in range(88):
        samples.append(make_torsion(sample_family(ALL_CASES[i % 11], rng)))
    # bi-invariant product torsions: the criterion value vanishes
    for _ in range(6):
        s, t = pos(rng), pos(rng)
        samples.append(-s * e(1, 2, 5) - t * e(3, 4, 6))
    # tuned first-family points on the zero locus and near it
    samples.append(first_family_form(F(3), F(5), F(0), F(4)))
    samples.append(first_family_form(F(0), F(3), F(4), F(5)))
    samples.append(first_family_form(F(1), F(1), F(1), F(1)))
    samples.append(first_family_form(F(6, 5), F(1), F(1), F(2, 5)))
    samples.append(first_family_form(F(1), F(1), F(1), F(2)))
    samples.append(first_family_form(F(2), F(1), F(1), F(1)))
    assert len(samples) == 100

    hits = 0
    for t in samples:
        n2, n12, n6 = project_l3(t).norms_sq
        vanishes = 3 * n2 - n12 + n6 == 0
        scalar, _ = is_scalar_square(t)
        closed = d_parallel(t, t).is_zero()
        assert scalar == vanishes == closed, t.coeffs
        hits += vanishes
    assert hits >= 9  # the zero locus is genuinely exercised


def test_criterion_06_exclusions_by_infeasibility():
    # (a) strict W3 torsion with a 1-dimensional stabilizer admits no
    # algebraic curvature with the right cyclic sum
    ok, witness = bianchi_feasible(second_family_form(0, 0, F(1), F(1)))
    assert not ok and witness is None

    # (b) in the 6-parameter family feasibility forces a1 = b1
    rng = random.Random(6)
    for _ in range(3):
        a3, a4 = frac(rng), frac(rng)
        a1, b1 = pos(rng), pos(rng)
        if a1 == b1:
            b1 = a1 + 1
        assert not bianchi_feasible(w1w3_family(a1, 0, b1, 0, a3, a4))[0]
        assert bianchi_feasible(w1w3_family(a1, 0, a1, 0, a3, a4))[0]

    # (c) torsion with so3 stabilizer: feasible for the full stabilizer,
    # infeasible once the holonomy is cut down to any single line
    for (a1, a2, a3) in ((F(1), F(2), F(1)), (F(2), F(0), F(1))):
        t = so3_family(a1, a2, a3)
        iso = isotropy_algebra(t)
        assert len(iso) == 3
        assert bianchi_feasible(t)[0]
        for h in iso:
            assert not bianchi_feasible(t, [h])[0]


def spectrum(t, hol):
    count, _ = parallel_spinors(hol)
    return count, sorted(float(v) for v in torsion_spinor_spectrum(t, hol))


def close(spec, want, tol=SPIN_TOL):
    return len(spec) == len(want) and \
        all(abs(a - b) <= tol for a, b in zip(spec, sorted(want)))


def test_criterion_07_parallel_spinor_tables():
    # spinor counts and spectra per holonomy row, tolerance 1e-7
    # su2 row: +-sqrt(2)|T| on a 4-dimensional space
    t = make_torsion(TorsionFamily("II", a1=F(1)))
    tnorm = float(norm_sq(t)) ** 0.5
    count, spec = spectrum(t, isotropy_algebra(t))
    assert count == 4
    assert close(spec, [-(2 ** 0.5) * tnorm] * 2 + [(2 ** 0.5) * tnorm] * 2)

    # so3 row: two spinors with eigenvalues +-2|T2|
    t = so3_family(F(1), F(2), F(1))
    iso = isotropy_algebra(t)
    assert len(iso) == 3
    n2 = float(project_l3(t).norms_sq[0])
    count, spec = spectrum(t, iso)
    assert count == 2
    assert close(spec, [-2 * n2 ** 0.5, 2 * n2 ** 0.5])

    # t1 and trivial rows share the sample; the eigenvalues realize
    # {0, +-sqrt(2)|T6|, +-sqrt(2)|T12|} with |T12| = 0 here
    t = nil_torsion(F(0), F(0), F(1))
    hol = [endo_of_form(e(1, 2) - e(3, 4))]
    count, spec = spectrum(t, hol)
    assert count == 4
    assert close(spec, [-2.0, -2.0, 2.0, 2.0])
    count, spec = spectrum(t, [])
    assert count == 8
    assert close(spec, [-2.0, -2.0, 0.0, 0.0, 0.0, 0.0, 2.0, 2.0])

    # the su2 column of the same sample is reported but not asserted
    su2 = [endo_of_form(f) for f in
           (e(1, 2) - e(3, 4), e(1, 3) + e(2, 4), e(1, 4) - e(2, 3))]
    count, spec = spectrum(t, su2)
    print(f"su2 column (reported only): {count} spinors, spectrum {spec}")


def test_criterion_08_catalog_regressions():
    rep = catalog.build("s3xs3-so3", b=-2, d=0, k1=3, k2=1)
    assert rep["norms_sq"][0] == F(16, 3)
    assert rep["norms_sq"][1] == 0

    assert catalog.build("sl2c-so3", p=1)["strict_type"] == "W3"

    rep = catalog.build("e3-so3")
    assert rep["norms_sq"][:2] == (F(1, 4), F(3, 4))
    assert rep["lambda"] == 0

    rep = catalog.build("n6-so3")
    assert rep["norms_sq"][:2] == (F(1, 4), F(27, 4))
    assert rep["lambda"] == -2

    # the torus normal-form parameters of the product model reproduce the
    # computed component norms and satisfy their defining relations
    for s, t in ((F(1), F(1)), (F(2), F(1)), (F(3), F(2))):
        rep = catalog.build("s3xs3-t2", s=s, t=t)
        assert rep["mismatches"] == []
        a3, a4, a5 = catalog.torus_alphas(s, t)
        n2, n12, n6 = rep["norms_sq"]
        zero = lambda x: sp.simplify(x) == 0
        assert n2 == 0
        assert zero(2 * (a3 ** 2 + a4 ** 2) - n12)
        assert zero(2 * a5 ** 2 - n6)
        assert zero(4 * a5 ** 2 - (s ** 2 + t ** 2))
        assert zero(2 * a3 * 2 * a5 - (s ** 2 - t ** 2))
        assert zero(a4 * 2 * a5 + s * t)


def nil_params(case, rng):
    c, d, f = pos(rng), frac(rng), pos(rng)
    if d == 0:
        d = F(1)
    if case == "i":
        return (c if rng.random() < 0.5 else -c, F(0), c)
    if case == "ii":
        return (c + 2 * f, F(0), f)
    if case == "iii":
        return (c, d, f)
    if case == "iv":
        return (F(0), d, f)
    if case == "v":
        return (F(0), F(0), f)
    return (c, F(0), F(0))


def test_criterion_09_nilpotent_suite():
    # each parameter family at random valid points: integrable complex
    # structure, closed-form torsion, parallelism, the displayed exterior
    # derivative, and the Betti numbers; exact
    rng = random.Random(9)
    for case in ("i", "ii", "iii", "iv", "v", "vi"):
        for _ in range(2):
            a3, a4, a5 = nil_params(case, rng)
            rep = catalog.build(f"nil-{case}", a3=a3, a4=a4, a5=a5)
            # mismatches would flag torsion, strict type, parallelism,
            # Betti numbers, commutator tag or dT
            assert rep["mismatches"] == [], (case, rep["mismatches"])
            assert nijenhuis(nil_family(a3, a4, a5)).is_zero
            lam = a3 * a3 + a4 * a4 - a5 * a5
            assert rep["dT"] == -2 * lam * e(1, 2, 3, 4)
            assert rep["dT"] == 2 * sigma(rep["torsion"])


def test_criterion_10_curvature_laws():
    # so3 stabilizer: R = -lam pr and dT = lam * vol with
    # lam = |T2|^2 - |T12|^2 / 3
    rng = random.Random(10)
    done = 0
    while done < 3:
        b, d = F(rng.randint(-4, 4)), F(rng.randint(-4, 4))
        k1, k2 = F(rng.randint(1, 4)), F(rng.randint(1, 4))
        try:
            rep = catalog.build("s3xs3-so3", b=b, d=d, k1=k1, k2=k2)
        except ValueError:
            continue
        assert rep["R_is_minus_lambda_projector"]
        assert rep["dT_is_lambda_vol3"]
        assert rep["lambda"] == rep["norms_sq"][0] - F(1, 3) * rep["norms_sq"][1]
        done += 1
    for name, kwargs in (("sl2c-so3", {"p": 2}), ("n6-so3", {}),
                         ("e3-so3", {})):
        rep = catalog.build(name, **kwargs)
        assert rep["R_is_minus_lambda_projector"]
        assert rep["dT_is_lambda_vol3"]

    # torus bundle: R = lam (e12 - e34) (x) (e12 - e34)
    for (a3, a4, a5) in ((F(1, 2), F(1), F(1)), (F(-1, 4), F(2, 3), F(1, 2)),
                         (F(0), F(1), F(2))):
        rep = catalog.build("s3xs3-t2bundle", a3=a3, a4=a4, a5=a5)
        lam = a3 * a3 + a4 * a4 - a5 * a5
        assert rep["lambda"] == lam
        assert rep["curvature"].equals(catalog.t1_curvature(lam))


def test_criterion_11_einstein_classifications():
    # product of two 3-spheres with torus stabilizer: Einstein exactly on
    # the equal-scale diagonal of a 5x5 grid
    for s in range(1, 6):
        for t in range(1, 6):
            rep = catalog.build("s3xs3-t2", s=s, t=t)
            assert rep["einstein"][0] == (s == t), (s, t)
            if s == t:
                assert rep["einstein"][1] == F(s * s, 2)

    # so3 stabilizer: Einstein at the two known loci and nowhere else on
    # the sampled grid
    grid = {
        (F(-2), F(0), F(3), F(1)): F(20, 3),
        (F(1), F(-1), F(2), F(2)): F(2),
        (F(1), F(-1), F(1), F(1)): F(4),
        (F(1), F(-1), F(2), F(1)): None,
        (F(3, 2), F(-1), F(3), F(2)): None,
        (F(3), F(1), F(1), F(2)): None,
        (F(-2), F(0), F(3), F(2)): None,
    }
    for (b, d, k1, k2), want in grid.items():
        rep = catalog.build("s3xs3-so3", b=b, d=d, k1=k1, k2=k2)
        if want is None:
            assert rep["einstein"] == (False, None), (b, d, k1, k2)
        else:
            assert rep["einstein"][0], (b, d, k1, k2)
            assert rep["einstein"][1] == want


def generated_subalgebra(L, seeds):
    """Subalgebra of L generated by the seed vectors, as abstract
    structure constants over a triangularized basis."""
    basis = []

    def add(v):
        if any(sp.simplify(x) != 0 for x in v) and \
                linalg.rank(basis + [v]) > len(basis):
            basis.append(v)
            return True
        return False

    for v in seeds:
        add(v)
    changed = True
    while changed:
        changed = False
        for a in list(basis):
            for b in list(basis):
                if add(L.bracket(a, b)):
                    changed = True
    constants = {}
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            coords = linalg.column_space_coords(basis,
                                                L.bracket(basis[i], basis[j]))
            assert coords is not None
            for k, v in enumerate(coords):
                if sp.simplify(v) != 0:
                    constants[(i + 1, j + 1, k + 1)] = sp.simplify(v)
    return LieAlgebraData(len(basis), constants)


def test_criterion_12_infinitesimal_model_round_trip():
    # rebuilding the algebra from (T, R) of the canonical connection gives
    # the transvection algebra of the source model: same structural
    # invariants as the subalgebra generated by the tangent part; the
    # Jacobi identity holds exactly on rational models
    points = {
        "s3xs3-t2": {"s": 1, "t": 2},
        "s3xt3-t2": {"s": 1},
        "s3xs3-t2bundle": {"a3": F(1, 2), "a4": 1, "a5": 1},
        "s3xs3-so3": {"b": -2, "d": 0, "k1": 3, "k2": 1},
        "sl2c-so3": {"p": 2},
        "e3-so3": {},
        "n6-so3": {},
        "s5xs1": {},
    }
    for name, kwargs in points.items():
        rep = catalog.build(name, **kwargs)
        model = rep["model"]
        n = model.algebra.dim
        seeds = [[F(1 if k == i - 1 else 0) for k in range(n)]
                 for i in model.m_idx]
        source = generated_subalgebra(model.algebra, seeds)
        rebuilt = nomizu(rep["torsion"], rep["curvature"])
        ok, worst = jacobi_check(rebuilt)
        assert ok, name
        if all(isinstance(v, (int, Fraction)) for v in rebuilt.c.values()):
            assert worst == 0, name
        assert algebra_fingerprint(rebuilt) == algebra_fingerprint(source), name


def test_criterion_13_invariant_polynomial_dimensions():
    # per-degree dimensions of the invariant polynomials on the sum of the
    # two parallel components, degrees 1 to 4; the count totals 8 with the
    # per-degree convention below and is stable across repeated runs
    first = invariant_poly_dims(4)
    second = invariant_poly_dims(4)
    assert first == second
    assert first == [(1, 0), (2, 2), (3, 0), (4, 6)]
    assert sum(d for _, d in first) == 8

from fractions import Fraction

import pytest

from torsion6 import linalg
from torsion6.forms import Form, endo_of_form, form_of_endo, inner, sigma, \
    wedge
from torsion6.liegeom import (
    CurvatureRecord,
    LieAlgebraData,
    ReductiveModel,
    algebra_fingerprint,
    canonical_data,
    characteristic_connection,
    connection_curvature,
    connection_torsion,
    covariant_derivative_form,
    curvature_from_pairs,
    curvature_gap,
    holonomy_algebra,
    is_einstein,
    is_metric,
    jacobi_check,
    levi_civita,
    nomizu,
    projector_record,
    ricci,
    su2_algebra,
    zero_curvature,
)
from torsion6.orbits import second_family_form
from torsion6.unitary import isotropy_algebra, project_l3


def e(*idx):
    return Form.monomial(idx)


def fr(p, q=1):
    return Fraction(p, q)


def s3xs3(s, t):
    """Product of two 3-spheres with bi-invariant metric, adapted frame
    e1,e2,e5 on the first factor and e3,e4,e6 on the second."""
    return LieAlgebraData(6, {
        (1, 2, 5): s, (1, 5, 2): -s, (2, 5, 1): s,
        (3, 4, 6): t, (3, 6, 4): -t, (4, 6, 3): t})


def nil_algebra(a3, a4, a5):
    """Two-step nilpotent frame with de5 = a3(e12-e34)+a5(e12+e34) and
    de6 = a4(e12-e34)."""
    return LieAlgebraData(6, {
        (1, 2, 5): -(a3 + a5), (1, 2, 6): -a4,
        (3, 4, 5): a3 - a5, (3, 4, 6): a4})


def nil_torsion(a3, a4, a5):
    return wedge(e(1, 2) - e(3, 4), a3 * e(5) + a4 * e(6)) \
        + a5 * wedge(e(1, 2) + e(3, 4), e(5))


# 7-dimensional transitive algebra of the torus bundle over S^2 x S^2 for
# (a3, a4, a5) = (1/2, 1, 1); basis (h, e1..e6), h acting as e12 - e34
T2_BUNDLE = LieAlgebraData(7, {
    (1, 2, 3): fr(1), (1, 3, 2): fr(-1), (1, 4, 5): fr(-1), (1, 5, 4): fr(1),
    (2, 3, 1): fr(-1, 4), (2, 3, 6): fr(-3, 2), (2, 3, 7): fr(-1),
    (2, 6, 3): fr(3, 2), (2, 7, 3): fr(1),
    (3, 6, 2): fr(-3, 2), (3, 7, 2): fr(-1),
    (4, 5, 1): fr(1, 4), (4, 5, 6): fr(-1, 2), (4, 5, 7): fr(1),
    (4, 6, 5): fr(1, 2), (4, 7, 5): fr(-1),
    (5, 6, 4): fr(-1, 2), (5, 7, 4): fr(1)})


def test_structure_constant_text_round_trip():
    L = s3xs3(fr(2), fr(3))
    back = LieAlgebraData.from_text(L.to_text())
    assert back.dim == 6 and back.c == L.c
    with pytest.raises(ValueError, match="parse"):
        LieAlgebraData.from_text("dim = 3\nc[1,2] = 1")
    with pytest.raises(ValueError, match="dim"):
        LieAlgebraData.from_text("c[1,2,3] = 1")


def test_bracket_antisymmetry():
    L = su2_algebra()
    assert L.bracket_basis(2, 1) == [Fraction(0), Fraction(0), Fraction(-1)]
    assert L.bracket([1, 0, 0], [0, 1, 0]) == [0, 0, 1]
    with pytest.raises(ValueError, match="i != j"):
        LieAlgebraData(3, {(1, 1, 2): fr(1)})


def test_jacobi_check():
    assert jacobi_check(su2_algebra()) == (True, 0)
    assert jacobi_check(LieAlgebraData(4)) == (True, 0)
    # bracket [X,Y] = -T(X,Y) for T = e125 + e345 violates Jacobi
    t = e(1, 2, 5) + e(3, 4, 5)
    consts = {}
    for (i, j, k), c in t.coeffs.items():
        consts[(i, j, k)] = -c
        consts[(i, k, j)] = c
        consts[(j, k, i)] = -c
    ok, worst = jacobi_check(LieAlgebraData(6, consts))
    assert not ok and worst != 0


def test_canonical_data_s3xs3():
    model = ReductiveModel(s3xs3(fr(2), fr(3)), [], range(1, 7))
    t, rec, nat = canonical_data(model)
    assert t == -2 * e(1, 2, 5) - 3 * e(3, 4, 6)
    assert nat
    assert rec.is_zero()


def test_canonical_data_symmetric_pair_gives_zero_torsion():
    # so(3) acting diagonally on two abelian copies of R^3
    consts = {}
    so3 = ((1, 2, 3), (2, 3, 1), (3, 1, 2))
    for (i, j, k) in so3:
        consts[(i, j, k)] = fr(1)
        for off in (3, 6):
            consts[(i, j + off, k + off)] = fr(1)
            consts[(j, i + off, k + off)] = fr(-1)
    L = LieAlgebraData(9, consts)
    assert jacobi_check(L)[0]
    t, rec, nat = canonical_data(ReductiveModel(L, [1, 2, 3], range(4, 10)))
    assert t.is_zero() and nat


def test_reductive_model_validation():
    with pytest.raises(ValueError, match="partition"):
        ReductiveModel(s3xs3(fr(1), fr(1)), [1], range(1, 7))
    with pytest.raises(ValueError, match="6-dimensional"):
        ReductiveModel(su2_algebra(), [], [1, 2, 3])
    # affine line plus five flat directions: [f1, f2] = f1 leaves no
    # complement of f1 invariant
    affine = LieAlgebraData(7, {(1, 2, 1): fr(1)})
    with pytest.raises(ValueError, match="not contained"):
        ReductiveModel(affine, [1], range(2, 8))


def test_canonical_data_t2_bundle():
    a3, a4, a5 = fr(1, 2), fr(1), fr(1)
    lam = a3 ** 2 + a4 ** 2 - a5 ** 2
    model = ReductiveModel(T2_BUNDLE, [1], range(2, 8))
    t, rec, nat = canonical_data(model)
    assert t == nil_torsion(a3, a4, a5)
    assert nat
    want = curvature_from_pairs({((1, 2), (1, 2)): lam, ((3, 4), (3, 4)): lam,
                                 ((1, 2), (3, 4)): -lam})
    assert rec.equals(want)
    assert rec.cyclic_sum() == sigma(t)
    hol = holonomy_algebra(t, rec)
    assert len(hol) == 1
    target = form_of_endo(endo_of_form(e(1, 2) - e(3, 4))).vector()
    got = form_of_endo(hol[0]).vector()
    assert linalg.rank([target, got]) == 1


def test_levi_civita_anchors():
    a3, a4, a5 = fr(1, 2), fr(1), fr(1)
    L = nil_algebra(a3, a4, a5)
    conn = levi_civita(L)
    want = [0, 0, 0, 0, -(a3 + a5) / 2, -a4 / 2]
    assert conn[0][1] == want
    assert conn[1][0] == [-x for x in want]
    assert is_metric(L, conn)
    assert connection_torsion(L, conn).is_zero()

    abelian = LieAlgebraData(6)
    assert all(x == 0 for row in levi_civita(abelian) for v in row for x in v)

    bi = s3xs3(fr(2), fr(3))
    conn = levi_civita(bi)
    for i in range(6):
        for j in range(6):
            half = [x / 2 for x in bi.bracket_basis(i + 1, j + 1)]
            assert conn[i][j] == half


def koszul_reference(L):
    """Levi-Civita coefficients from the Koszul formula evaluated on dense
    brackets of basis vectors, with the frame taken orthonormal."""
    n = L.dim

    def ip(x, y):
        return sum(a * b for a, b in zip(x, y))

    basis = [[fr(1 if k == i else 0) for k in range(n)] for i in range(n)]
    return [[[fr(1, 2) * (ip(L.bracket(ei, ej), ek) - ip(L.bracket(ej, ek), ei)
                          + ip(L.bracket(ek, ei), ej)) for ek in basis]
             for ej in basis] for ei in basis]


def test_levi_civita_matches_koszul_reference():
    for L in (nil_algebra(fr(1, 2), fr(1), fr(1)), s3xs3(fr(2), fr(3)),
              T2_BUNDLE):
        conn = levi_civita(L)
        assert conn == koszul_reference(L)
        assert is_metric(L, conn)
        assert connection_torsion(L, conn).is_zero()


def test_characteristic_connection_nil():
    a3, a4, a5 = fr(1, 2), fr(1), fr(1)
    L = nil_algebra(a3, a4, a5)
    t = nil_torsion(a3, a4, a5)
    conn = characteristic_connection(L, t)
    assert conn[4][0] == [0, a3 + a5, 0, 0, 0, 0]
    assert conn[5][0] == [0, a4, 0, 0, 0, 0]
    assert conn[0][1] == [0, 0, 0, 0, 0, 0]
    assert is_metric(L, conn)
    assert connection_torsion(L, conn) == t
    for d in range(1, 7):
        assert covariant_derivative_form(L, conn, t, d).is_zero()
    with pytest.raises(ValueError, match="6-dimensional"):
        covariant_derivative_form(su2_algebra(), conn, t, 1)
    with pytest.raises(ValueError, match="3-form"):
        characteristic_connection(L, e(1, 2))


def test_characteristic_connection_zero_torsion_is_levi_civita():
    L = s3xs3(fr(1), fr(2))
    assert characteristic_connection(L, Form(3)) == levi_civita(L)


def test_connection_curvature_flat_cases():
    abelian = LieAlgebraData(6)
    assert connection_curvature(abelian, levi_civita(abelian)).is_zero()
    # bi-invariant canonical connection is flat
    L = s3xs3(fr(2), fr(3))
    t = -2 * e(1, 2, 5) - 3 * e(3, 4, 6)
    assert connection_curvature(L, characteristic_connection(L, t)).is_zero()


def test_curvature_gap_identity():
    for L, t in (
        (s3xs3(fr(2), fr(3)), -2 * e(1, 2, 5) - 3 * e(3, 4, 6)),
        (nil_algebra(fr(1, 2), fr(1), fr(1)), nil_torsion(fr(1, 2), fr(1), fr(1))),
        (nil_algebra(fr(1), fr(0), fr(2)), nil_torsion(fr(1), fr(0), fr(2))),
    ):
        rg = connection_curvature(L, levi_civita(L))
        rc = connection_curvature(L, characteristic_connection(L, t))
        assert (rc + (-1) * rg).equals(curvature_gap(t))


def test_ricci_s3xs3():
    s, t = fr(2), fr(3)
    L = s3xs3(s, t)
    ric = ricci(connection_curvature(L, levi_civita(L)))
    want = [s * s / 2, s * s / 2, t * t / 2, t * t / 2, s * s / 2, t * t / 2]
    assert ric == [[want[i] if i == j else 0 for j in range(6)]
                   for i in range(6)]
    assert not is_einstein(ric)[0]
    L1 = s3xs3(fr(1), fr(1))
    ric1 = ricci(connection_curvature(L1, levi_civita(L1)))
    assert is_einstein(ric1) == (True, fr(1, 2))


def test_ricci_nil_blocks():
    # horizontal blocks carry (a3+a5)^2 and (a3-a5)^2 respectively; the
    # vertical block is the Gram matrix of (a3, a5) and (a4, 0) up to sign
    a3, a4, a5 = fr(1, 2), fr(1), fr(1)
    L = nil_algebra(a3, a4, a5)
    ric = ricci(connection_curvature(L, levi_civita(L)))
    h1 = -((a3 + a5) ** 2 + a4 ** 2) / 2
    h2 = -((a3 - a5) ** 2 + a4 ** 2) / 2
    want = [[0] * 6 for _ in range(6)]
    want[0][0] = want[1][1] = h1
    want[2][2] = want[3][3] = h2
    want[4][4] = a3 ** 2 + a5 ** 2
    want[5][5] = a4 ** 2
    want[4][5] = want[5][4] = a3 * a4
    assert ric == want


def test_nil_characteristic_curvature_and_holonomy():
    a3, a4, a5 = fr(1, 2), fr(1), fr(1)
    L = nil_algebra(a3, a4, a5)
    t = nil_torsion(a3, a4, a5)
    rec = connection_curvature(L, characteristic_connection(L, t))
    p = (a3 + a5) ** 2 + a4 ** 2
    m = (a3 - a5) ** 2 + a4 ** 2
    want = curvature_from_pairs({((1, 2), (1, 2)): p, ((3, 4), (3, 4)): m,
                                 ((1, 2), (3, 4)): -(a3 ** 2 + a4 ** 2 - a5 ** 2)})
    assert rec.equals(want)
    hol = holonomy_algebra(t, rec)
    assert len(hol) == 2


def test_curvature_record_validation():
    with pytest.raises(ValueError, match="pair symmetric"):
        mat = [[Fraction(0)] * 15 for _ in range(15)]
        mat[0][1] = Fraction(1)
        CurvatureRecord(mat)
    rec = curvature_from_pairs({((1, 2), (3, 4)): fr(2)})
    assert rec.value(1, 2, 3, 4) == 2
    assert rec.value(2, 1, 3, 4) == -2
    assert rec.value(3, 4, 1, 2) == 2
    assert rec.value(1, 1, 3, 4) == 0
    assert '"R(12,34)": "2"' in rec.to_json()


def test_cyclic_sum_anchor():
    rec = curvature_from_pairs({((1, 2), (3, 4)): fr(1)})
    # cyc (w (x) n + n (x) w) = w ^ n for w = e12, n = e34
    assert rec.cyclic_sum() == e(1, 2, 3, 4)


def test_nomizu_s3xs3():
    t = -2 * e(1, 2, 5) - 3 * e(3, 4, 6)
    alg = nomizu(t, zero_curvature())
    assert alg.dim == 6
    assert jacobi_check(alg)[0]
    assert algebra_fingerprint(alg) == algebra_fingerprint(s3xs3(fr(2), fr(3)))


def test_nomizu_so3_projector():
    t = second_family_form(0, 0, fr(2), fr(1))
    iso = isotropy_algebra(t)
    assert len(iso) == 3
    forms = [form_of_endo(a) for a in iso]
    assert all(inner(forms[i], forms[j]) == 0
               for i in range(3) for j in range(i + 1, 3))
    n2, n12, _ = project_l3(t).norms_sq
    lam = n2 - n12 / 3
    rec = (-lam) * projector_record(forms)
    alg = nomizu(t, rec)
    assert alg.dim == 9
    assert len(holonomy_algebra(t, rec)) == 3


def test_nomizu_rejects_incompatible_pair():
    t = second_family_form(0, 0, fr(1), 0)
    with pytest.raises(ValueError, match="not an infinitesimal model"):
        nomizu(t, zero_curvature())


def test_nomizu_round_trip_t2_bundle():
    model = ReductiveModel(T2_BUNDLE, [1], range(2, 8))
    t, rec, _ = canonical_data(model)
    alg = nomizu(t, rec)
    assert alg.dim == 7
    t2, rec2, nat2 = canonical_data(ReductiveModel(alg, [1], range(2, 8)))
    assert t2 == t and rec2.equals(rec) and nat2
    assert algebra_fingerprint(alg) == algebra_fingerprint(T2_BUNDLE)


def test_holonomy_rejects_values_outside_isotropy():
    t = second_family_form(0, 0, fr(1), 0)
    rec = projector_record([e(1, 3)])
    with pytest.raises(ValueError, match="annihilate"):
        holonomy_algebra(t, rec)


def test_fingerprint_distinguishes():
    fp6 = algebra_fingerprint(s3xs3(fr(1), fr(1)))
    assert fp6 == {"dim": 6, "derived": (6,), "center": 0, "killing": (0, 6)}
    fpn = algebra_fingerprint(nil_algebra(fr(1, 2), fr(1), fr(1)))
    assert fpn["killing"] == (0, 0) and fpn["center"] == 2
    assert fp6 != fpn
    assert algebra_fingerprint(su2_algebra())["killing"] == (0, 3)
    sl2r = LieAlgebraData(3, {(1, 2, 2): fr(2), (1, 3, 3): fr(-2),
                              (2, 3, 1): fr(1)})
    assert algebra_fingerprint(sl2r)["killing"] == (2, 1)

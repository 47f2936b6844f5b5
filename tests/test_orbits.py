import itertools
import random
from fractions import Fraction

import pytest
import sympy as sp

from torsion6.forms import (
    Form,
    OMEGA,
    contract,
    d_parallel,
    endo_act_on_form,
    endo_of_form,
    monomials,
    norm_sq,
    sigma,
    sort_indices,
    wedge,
)
from torsion6.orbits import (
    TORUS_WEIGHTS,
    TorsionFamily,
    bianchi_feasible,
    classify_form,
    codiff_gap,
    first_family_form,
    gamma_family,
    lie_group_criterion,
    make_torsion,
    second_family_form,
    so3_family,
    so3_pair_reduce,
    invariant_poly_dims,
    w1w3_family,
)
from torsion6.unitary import (
    _kernel_combinations,
    _u2_tag,
    isotropy_algebra,
    project_l3,
    torus_generator,
)


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
    assert invariant_poly_dims(8)[4:] == [(5, 0), (6, 11), (7, 0), (8, 21)]
    assert invariant_poly_dims(0) == []


# --- the sympy construction of the invariant dimensions, kept as an oracle ---

def _u3_generators():
    """Torus generators and the six off-diagonal generators of u(3)."""
    torus = [endo_of_form(e(1, 2)), endo_of_form(e(3, 4)), endo_of_form(e(5, 6))]
    rest = []
    for j, k in ((1, 2), (1, 3), (2, 3)):
        p, q = 2 * j - 1, 2 * k - 1
        rest.append(endo_of_form(e(p, q) + e(p + 1, q + 1)))
        rest.append(endo_of_form(Form(2, {tuple(sorted((p, q + 1))): Fraction(1)})
                                 - Form(2, {tuple(sorted((p + 1, q))): Fraction(1)})))
    return torus, rest


def _weight_basis():
    """Complex weight vectors spanning the 14-dim complement of {Omega ^ X},
    as (weight triple, coefficient dict on degree-3 monomials)."""
    one = sp.Integer(1)
    ii = sp.I
    # phi_k = e(2k-1) - i e(2k) has weight +1 under the k-th torus rotation
    phi = {}
    for k in (1, 2, 3):
        phi[k] = {(2 * k - 1,): one, (2 * k,): -ii}
        phi[-k] = {(2 * k - 1,): one, (2 * k,): ii}

    def triple(a, b, c):
        out = {}
        for (ia,), ca in phi[a].items():
            for (ib,), cb in phi[b].items():
                for (ic,), cc in phi[c].items():
                    order, sign = sort_indices((ia, ib, ic))
                    if order is None:
                        continue
                    out[order] = out.get(order, 0) + sign * ca * cb * cc
        return {k2: sp.simplify(v) for k2, v in out.items()
                if sp.simplify(v) != 0}

    vecs = []
    for s in (1, -1):
        vecs.append(((s, s, s), triple(s, s * 2, s * 3)))
    for s in (1, -1):
        vecs.append(((s, s, -s), triple(s, 2 * s, -3 * s)))
        vecs.append(((s, -s, s), triple(s, -2 * s, 3 * s)))
        vecs.append(((-s, s, s), triple(-s, 2 * s, 3 * s)))
    # differences of phi_k phi_-k pairs, orthogonal to Omega ^ X
    for s in (1, -1):
        for j, (p, q) in ((1, (2, 3)), (2, (1, 3)), (3, (1, 2))):
            w = [0, 0, 0]
            w[j - 1] = s
            d1 = triple(p, -p, s * j)
            d2 = triple(q, -q, s * j)
            diff = {k2: d1.get(k2, 0) - d2.get(k2, 0)
                    for k2 in set(d1) | set(d2)}
            vecs.append((tuple(w), diff))
    return vecs


def sympy_invariant_poly_dims(max_deg):
    """The rank of the u(3) action on the weight-zero monomials in the
    complex coordinates of the weight vectors, computed with sympy."""
    basis3 = monomials(3)
    vecs = _weight_basis()
    nvar = len(vecs)
    p_mat = sp.Matrix([[w[1].get(idx, 0) for w in vecs] for idx in basis3])
    p_inv = (p_mat.T * p_mat).inv() * p_mat.T  # left inverse onto the span

    _, rest = _u3_generators()
    coord_action = []
    for g in rest:
        amat = sp.Matrix([[endo_act_on_form(g, Form(3, dict([(idx, Fraction(1))])))
                           .coeffs.get(jdx, 0) for idx in basis3]
                          for jdx in basis3])
        m = p_inv * amat * p_mat  # action on the complex coordinates
        coord_action.append([[sp.simplify(m[a, b]) for b in range(nvar)]
                             for a in range(nvar)])

    weights = [w for w, _ in vecs]
    out = []
    for deg in range(1, max_deg + 1):
        monos = [m for m in itertools.combinations_with_replacement(range(nvar), deg)
                 if all(sum(weights[i][c] for i in m) == 0 for c in range(3))]
        if not monos:
            out.append((deg, 0))
            continue
        rows = []
        for act in coord_action:
            images = {}
            for col, m in enumerate(monos):
                for pos in range(deg):
                    tail = m[:pos] + m[pos + 1:]
                    for b in range(nvar):
                        c = act[b][m[pos]]
                        if c == 0:
                            continue
                        key = tuple(sorted(tail + (b,)))
                        images.setdefault(key, [0] * len(monos))
                        images[key][col] += c
            rows.extend(images.values())
        out.append((deg, len(monos) - sp.Matrix(rows).rank()))
    return out


def test_invariant_poly_dims_match_sympy_rank_oracle():
    assert invariant_poly_dims(4) == sympy_invariant_poly_dims(4)


def test_weight_vectors_are_torus_eigenvectors():
    # T_k v = i w_k v for the k-th torus generator T_k = e(2k-1, 2k), on
    # real and imaginary parts: T_k Re v = -w_k Im v, T_k Im v = w_k Re v
    torus, _ = _u3_generators()
    vecs = _weight_basis()
    assert sorted(w for w, _ in vecs) == sorted(TORUS_WEIGHTS)
    for weight, coeffs in vecs:
        assert coeffs
        parts = [Form(3, {idx: Fraction(str(f(c))) for idx, c in coeffs.items()})
                 for f in (sp.re, sp.im)]
        re, im = parts
        for part in parts:
            assert project_l3(part).t6.is_zero()
        for gen, w in zip(torus, weight):
            assert endo_act_on_form(gen, re) == -w * im
            assert endo_act_on_form(gen, im) == w * re


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


def test_float_rotated_u2_cases_keep_label():
    # the center of the u(2) isotropy is diagonalized in floats, so rotated
    # float forms of cases I and VIII keep their u2 label
    rng = random.Random(23)
    for case in ("I", "VIII"):
        t = make_torsion(sample_family(case, rng))
        exact = classify_form(t)
        assert exact.iso_label.startswith("u2_")
        for _ in range(3):
            got = classify_form(rotate(t, cayley_u3(rng)).to_float(), 1e-9)
            assert (got.iso_label, got.iso_dim, got.case) == \
                (exact.iso_label, exact.iso_dim, case)


# --- the sympy eigenvalue tag of u(2) centers, kept as an oracle ---

def sympy_u2_tag(basis):
    """(label, evidence) of the exact center of span(basis), diagonalized
    by sympy."""
    evidence = {}
    center = _kernel_combinations(
        basis, [[x for a in basis for x in a.bracket(b).flat()] for b in basis])
    evidence["center_dim"] = len(center)
    if len(center) != 1:
        return "unknown", evidence
    z = center[0]
    m = sp.Matrix(3, 3, lambda p, q: sp.Rational(z.mat[2 * p][2 * q])
                  + sp.I * sp.Rational(z.mat[2 * p + 1][2 * q]))
    evs = []
    for ev, mult in m.eigenvals().items():
        w = sp.simplify(ev / sp.I)
        if not w.is_rational:
            return "unknown", evidence
        evs.extend([Fraction(int(w.p), int(w.q))] * mult)
    evs.sort()
    evidence["center_weights"] = [str(w) for w in evs]
    for i, j, r in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        if evs[i] == evs[j] and evs[i] != 0:
            k = evs[r] / (2 * evs[i])
            if k in (-1, 0, 1):
                evidence["u2_k"] = int(k)
                return f"u2_{k}", evidence
    return "unknown", evidence


def test_u2_tag_matches_sympy_eigenvalue_oracle():
    rng = random.Random(24)
    bases = []
    for case in ("I", "VIII"):
        t = make_torsion(sample_family(case, rng))
        bases.append(isotropy_algebra(t))
        bases += [isotropy_algebra(rotate(t, cayley_u3(rng))) for _ in range(2)]
    # centers with three distinct weights, rational and irrational
    bases.append([torus_generator(1, 2, 3)])
    bases.append([torus_generator(1, 2, 3) + endo_of_form(e(1, 3) + e(2, 4))])
    labels = []
    for basis in bases:
        evidence = {}
        label = _u2_tag(basis, evidence)
        assert (label, evidence) == sympy_u2_tag(basis)
        labels.append(label)
    assert labels == ["u2_0"] * 3 + ["u2_1"] * 3 + ["unknown"] * 2

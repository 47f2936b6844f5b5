import json
import random
from fractions import Fraction

import pytest
import sympy as sp

from torsion6 import catalog
from torsion6.forms import Form
from torsion6.liegeom import algebra_fingerprint, jacobi_check, nomizu
from torsion6.nil import nil_torsion
from torsion6.scalars import is_zero, simplify

F = Fraction


def e(*idx):
    return Form.monomial(idx)


def test_index_lists_every_entry():
    idx = json.loads(catalog.index_json())
    assert set(idx) == set(catalog.ENTRIES)
    for rec in idx.values():
        assert "schema" in rec and "description" in rec


def test_unknown_entry():
    with pytest.raises(ValueError, match="unknown"):
        catalog.build("s7")


def test_non_numeric_parameter_is_named():
    with pytest.raises(ValueError, match="numeric parameter t"):
        catalog.build("s3xs3-t2", s=1, t="x")
    with pytest.raises(ValueError, match="numeric parameter alpha4"):
        catalog.local_model_group(1, [1], 1)


# --- product of two 3-spheres, torus holonomy -------------------------------

def test_algebra_from_frame_rejects_bracket_outside_span():
    e1, e2 = sp.Matrix([1, 0, 0]), sp.Matrix([0, 1, 0])
    with pytest.raises(ValueError):
        catalog._algebra_from_frame([e1, e2], lambda x, y: x.cross(y))


def test_parameter_keys_checked_against_schema():
    with pytest.raises(ValueError, match="unknown parameter.*foo"):
        catalog.build("s3xs3-t2", s=1, t=1, foo=1)
    with pytest.raises(ValueError, match="missing parameter.*t"):
        catalog.build("s3xs3-t2", s=1)
    with pytest.raises(ValueError, match="unknown parameter.*p"):
        catalog.build("e3-so3", p=1)


def test_s3xs3_t2_round_unit():
    rep = catalog.build("s3xs3-t2", s=1, t=1)
    assert rep["mismatches"] == []
    assert rep["einstein"] == (True, F(1, 2))
    assert rep["curvature"].is_zero()
    assert rep["torsion"] == -1 * e(1, 2, 5) - e(3, 4, 6)


def test_s3xs3_t2_unequal_scales():
    rep = catalog.build("s3xs3-t2", s=2, t=1)
    assert rep["mismatches"] == []
    assert rep["einstein"][0] is False
    a3, a4, a5 = rep["alphas"]
    # the normal-form parameters reproduce the component norms
    assert is_zero(simplify(2 * (a3 ** 2 + a4 ** 2) - rep["norms_sq"][1]))
    assert is_zero(simplify(2 * a5 ** 2 - rep["norms_sq"][2]))


def test_s3xt3_t2():
    rep = catalog.build("s3xt3-t2", s=2)
    assert rep["mismatches"] == []
    a3, a4, a5 = rep["alphas"]
    assert a4 == 0 and a3 == a5


def test_t2_entries_reject_bad_scale():
    with pytest.raises(ValueError, match="s > 0"):
        catalog.build("s3xs3-t2", s=0, t=1)
    with pytest.raises(ValueError, match="t > 0"):
        catalog.build("s3xs3-t2", s=1, t=-1)


# --- torus bundle -----------------------------------------------------------

def test_t2bundle_anchor():
    rep = catalog.build("s3xs3-t2bundle", a3=F(1, 2), a4=1, a5=1)
    assert rep["mismatches"] == []
    assert rep["lambda"] == F(1, 4)
    assert rep["torsion"] == nil_torsion(F(1, 2), F(1), F(1))
    assert rep["naturally_reductive"]


def test_t2bundle_second_point():
    rep = catalog.build("s3xs3-t2bundle", a3=F(-1, 4), a4=F(2, 3), a5=F(1, 2))
    assert rep["mismatches"] == []
    assert rep["lambda"] == F(1, 16) + F(4, 9) - F(1, 4)


def test_t2bundle_validity():
    with pytest.raises(ValueError, match="alpha3 \\+ alpha5 > 0"):
        catalog.build("s3xs3-t2bundle", a3=-2, a4=1, a5=1)
    with pytest.raises(ValueError, match="alpha3 - alpha5 < 0"):
        catalog.build("s3xs3-t2bundle", a3=1, a4=1, a5=1)
    with pytest.raises(ValueError, match="alpha4 != 0"):
        catalog.build("s3xs3-t2bundle", a3=F(1, 2), a4=0, a5=1)
    with pytest.raises(ValueError, match="alpha5 > 0"):
        catalog.build("s3xs3-t2bundle", a3=F(-1, 2), a4=1, a5=0)


# --- models with 3-dimensional isotropy -------------------------------------

def test_s3xs3_so3_nearly_kaehler_point():
    rep = catalog.build("s3xs3-so3", b=-2, d=0, k1=3, k2=1)
    assert rep["mismatches"] == []
    assert rep["strict_type"] == "W1"
    assert rep["norms_sq"][0] == F(16, 3)
    assert rep["norms_sq"][1] == 0
    assert rep["einstein"] == (True, F(20, 3))


def test_s3xs3_so3_product_point():
    rep = catalog.build("s3xs3-so3", b=1, d=-1, k1=2, k2=2)
    assert rep["mismatches"] == []
    assert rep["lambda"] == 0
    assert rep["einstein"] == (True, F(2))


def test_s3xs3_so3_flat_characteristic_locus():
    # b = -d k1/k2 kills the characteristic curvature
    rep = catalog.build("s3xs3-so3", b=F(3, 2), d=-1, k1=3, k2=2)
    assert rep["mismatches"] == []
    assert rep["lambda"] == 0
    assert rep["curvature"].is_zero()


def test_s3xs3_so3_random_points_match_closed_forms():
    rng = random.Random(11)
    done = 0
    while done < 3:
        b, d = F(rng.randint(-4, 4)), F(rng.randint(-4, 4))
        k1, k2 = F(rng.randint(1, 4)), F(rng.randint(1, 4))
        try:
            rep = catalog.build("s3xs3-so3", b=b, d=d, k1=k1, k2=k2)
        except ValueError:
            continue
        assert rep["mismatches"] == []
        assert rep["R_is_minus_lambda_projector"]
        assert rep["dT_is_lambda_vol3"]
        done += 1


def test_s3xs3_so3_validity():
    with pytest.raises(ValueError, match="b != d"):
        catalog.build("s3xs3-so3", b=2, d=2, k1=1, k2=1)
    with pytest.raises(ValueError, match="k1 > 0"):
        catalog.build("s3xs3-so3", b=1, d=-1, k1=0, k2=1)


def test_sl2c_so3():
    rep = catalog.build("sl2c-so3", p=1)
    assert rep["mismatches"] == []
    assert rep["strict_type"] == "W3"
    assert rep["lambda"] == -4
    rep = catalog.build("sl2c-so3", p=2)
    assert rep["mismatches"] == []
    assert rep["strict_type"] == "W1+W3"
    assert is_zero(simplify(rep["norms_sq"][0] - sp.Rational(1, 9)))
    with pytest.raises(ValueError, match="p > 0"):
        catalog.build("sl2c-so3", p=0)


def test_e3_so3():
    rep = catalog.build("e3-so3")
    assert rep["mismatches"] == []
    assert rep["norms_sq"] == (F(1, 4), F(3, 4), F(0))
    assert rep["lambda"] == 0
    assert rep["curvature"].is_zero()


def test_n6_so3():
    rep = catalog.build("n6-so3")
    assert rep["mismatches"] == []
    assert rep["norms_sq"] == (F(1, 4), F(27, 4), F(0))
    assert rep["lambda"] == -2


# --- nilpotent family -------------------------------------------------------

def test_nil_cases_match_expectations():
    params = {
        "nil-i": (1, 0, 1),
        "nil-ii": (2, 0, 1),
        "nil-iii": (1, 1, 2),
        "nil-iv": (0, 1, 1),
        "nil-v": (0, 0, 1),
        "nil-vi": (1, 0, 0),
    }
    for name, (a3, a4, a5) in params.items():
        rep = catalog.build(name, a3=a3, a4=a4, a5=a5)
        assert rep["mismatches"] == [], (name, rep["mismatches"])
        assert rep["parallel"]


def test_nil_case_mismatch_rejected():
    with pytest.raises(ValueError, match="alpha3 = \\+-alpha5"):
        catalog.build("nil-i", a3=2, a4=0, a5=1)
    with pytest.raises(ValueError, match="alpha3 = alpha4 = 0"):
        catalog.build("nil-v", a3=1, a4=0, a5=1)


# --- 5-sphere times line ----------------------------------------------------

def test_s5xs1_record():
    rep = catalog.build("s5xs1")
    assert rep["mismatches"] == []
    assert rep["strict_type"] == "W4"
    assert rep["torsion"] == -2 * e(1, 2, 5) - 2 * e(3, 4, 5)
    assert rep["ricci_diag"] == (F(6), F(6), F(6), F(6), F(4), F(0))
    assert rep["einstein"] == (False, None)
    assert rep["naturally_reductive"]
    ok, _ = jacobi_check(rep["model"].algebra)
    assert ok


# --- local models for torus holonomy ----------------------------------------

def test_local_model_rows():
    assert catalog.local_model_group(-3, 1, 1) == "s3 x sl2r"
    assert catalog.local_model_group(3, 1, 1) == "s3 x sl2r"
    assert catalog.local_model_group(F(1, 2), 1, 1) == "s3 x s3"
    assert catalog.local_model_group(1, 1, 1) == "s3 x n11"
    assert catalog.local_model_group(-1, 1, 1) == "s3 x n11"
    assert catalog.local_model_group(1, 1, 0) == "t3 x n11"


def _transvection_fingerprint(a3, a4, a5):
    lam = a3 * a3 + a4 * a4 - a5 * a5
    L = nomizu(nil_torsion(a3, a4, a5), catalog.t1_curvature(lam))
    ok, _ = jacobi_check(L)
    assert ok
    return algebra_fingerprint(L)


def test_semisimple_rows_reproduce_listed_algebras():
    # away from the degenerate rows the transvection algebra is the full
    # motion algebra of the model: the listed product times a circle
    for (a3, a4, a5) in ((F(-3), F(1), F(1)), (F(1, 2), F(1), F(1)),
                         (F(3), F(1), F(1)), (F(0), F(2), F(1))):
        name = catalog.local_model_group(a3, a4, a5)
        want = algebra_fingerprint(catalog.local_model_algebra(name))
        assert _transvection_fingerprint(a3, a4, a5) == want, name


def test_degenerate_rows_have_smaller_transvection_algebra():
    # on the rows modelled on a Heisenberg-type factor the transvection
    # algebra is a proper subalgebra of the motion algebra; pin its
    # isomorphism invariants as a regression
    fp = _transvection_fingerprint(F(1), F(1), F(1))
    assert fp == {"dim": 7, "derived": (6, 4, 3, 3), "center": 1,
                  "killing": (0, 4)}
    fp = _transvection_fingerprint(F(1), F(1), F(0))
    assert fp == {"dim": 7, "derived": (5, 1, 0), "center": 2,
                  "killing": (0, 1)}


def test_local_model_algebra_unknown():
    with pytest.raises(ValueError, match="unknown local model"):
        catalog.local_model_algebra("s3 x s5")


# --- sweep ------------------------------------------------------------------

def test_sweep_collects_per_point_errors():
    rows = catalog.sweep("s3xs3-t2", [{"s": 1, "t": 1}, {"s": 0, "t": 1},
                                      {"s": 1, "t": 2},
                                      {"s": 1, "t": 1, "foo": 1}])
    assert "report" in rows[0] and "report" in rows[2]
    assert "error" in rows[1] and "s > 0" in rows[1]["error"]
    assert "foo" in rows[3]["error"]


def test_sweep_empty_grid():
    assert catalog.sweep("s3xs3-t2", []) == []


def test_sweep_deterministic():
    grid = [{"s": 1, "t": 2}, {"s": 2, "t": 1}]
    a = catalog.sweep("s3xs3-t2", grid)
    b = catalog.sweep("s3xs3-t2", grid)
    assert [r["report"]["norms_sq"] for r in a] == \
        [r["report"]["norms_sq"] for r in b]


# --- cross-checks between entries -------------------------------------------

def test_t2bundle_flat_locus_matches_product_norms():
    # on lambda = 0 the bundle torsion has the norms of the product of two
    # 3-spheres at scale s = t = sqrt(2), namely (0, s^2, s^2)
    rep = catalog.build("s3xs3-t2bundle", a3=0, a4=F(1), a5=F(1))
    assert rep["lambda"] == 0
    assert rep["curvature"].is_zero()
    assert all(is_zero(simplify(a - b))
               for a, b in zip(rep["norms_sq"], (F(0), F(2), F(2))))


def test_zero_curvature_entries():
    for name, kwargs in (("s3xs3-t2", {"s": 1, "t": 3}),
                         ("s3xt3-t2", {"s": 1}),
                         ("e3-so3", {})):
        assert catalog.build(name, **kwargs)["curvature"].is_zero()

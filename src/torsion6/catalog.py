"""Named homogeneous models with their expected invariants.

Each entry builds either a reductive model (Lie algebra with a chosen
complement and adapted orthonormal frame) or left-invariant structure
equations, recomputes the geometric invariants, and diffs them against the
stored expected records.  Parameter ranges are enforced exactly;
boundary points are rejected.

Frames are rational vectors in an ambient Lie algebra, solved by one exact
elimination; an entry whose orthonormal frame needs square roots gives
their squares, and the roots enter once per structure constant.  Only such
a root of a non-square rational brings in sympy.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import linalg
from .forms import (
    Form,
    OMEGA,
    SkewEndo,
    d_parallel,
    endo_of_form,
    form_of_endo,
    hodge,
    inner,
)
from .liegeom import (
    CurvatureRecord,
    LieAlgebraData,
    ReductiveModel,
    canonical_data,
    curvature_from_pairs,
    curvature_gap,
    is_einstein,
    projector_record,
    ricci,
    zero_curvature,
)
from .nil import (
    betti_vector,
    nil_family,
    nil_family_case,
    nil_torsion,
    structure_tag,
    verify_parallel,
)
from .scalars import is_zero, rat, simplify, sym_sqrt
from .unitary import project_l3

F = Fraction


def _require(cond, text):
    if not cond:
        raise ValueError(f"requires {text}")


def _rationals(params):
    """The parameters coerced by scalars.rat; a value that is not a number
    raises a ValueError naming its parameter."""
    out = {}
    for name, x in params.items():
        try:
            out[name] = rat(x)
        except (TypeError, ValueError):
            raise ValueError(f"requires numeric parameter {name}") from None
    return out


# --- frame-to-structure-constant solver -------------------------------------
#
# Ambient vectors are lists of Fractions, one block of three per copy of
# R^3: `+` concatenates blocks, _add sums vectors.

def _cross(a, b):
    return [a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0]]


def _add(*vs):
    return [sum(xs) for xs in zip(*vs)]


def _copies(i, *coeffs):
    """The vector (c1 e_i, c2 e_i, ...) of a sum of copies of R^3, e_i the
    i-th unit vector (0-based)."""
    return [F(c) if k == i else F(0) for c in coeffs for k in range(3)]


def _algebra_from_frame(vectors, bracket, scales_sq):
    """Structure constants of the frame s_a v_a, given by rational ambient
    vectors v_a, an ambient bracket and the squares of the positive scales
    s_a.  The rational constants c' of the frame v are solved in one
    elimination; then c[a,b,k] = s_a s_b c'[a,b,k] / s_k, whose one square
    root is a Fraction whenever it is rational.  A dependent frame or a
    bracket outside its span raises a ValueError."""
    n = len(vectors)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    brackets = [bracket(vectors[i], vectors[j]) for i, j in pairs]
    red, pivots = linalg.rref([list(row) for row in zip(*vectors, *brackets)])
    if pivots[:n] != list(range(n)):
        raise ValueError("frame vectors are linearly dependent")
    if len(pivots) > n:
        raise ValueError("a bracket leaves the span of the frame")
    constants = {}
    for col, (i, j) in enumerate(pairs):
        for k in range(n):
            v = red[k][n + col]
            if v != 0:
                constants[(i + 1, j + 1, k + 1)] = \
                    v * sym_sqrt(scales_sq[i] * scales_sq[j] / scales_sq[k])
    return LieAlgebraData(n, constants)


def isotropy_2forms(model: ReductiveModel):
    """The 2-forms of the isotropy images ad(h)|_m in the adapted frame."""
    n = model.algebra.dim
    return [form_of_endo(SkewEndo(model.ad_m(
        [F(1 if k == hidx - 1 else 0) for k in range(n)])))
        for hidx in model.h_idx]


def so3_projector(model: ReductiveModel) -> CurvatureRecord:
    """Projection of so(6) onto the isotropy image; the images must be
    mutually orthogonal."""
    forms = isotropy_2forms(model)
    for a in range(len(forms)):
        for b in range(a + 1, len(forms)):
            if not is_zero(inner(forms[a], forms[b])):
                raise ValueError("isotropy images are not orthogonal")
    return projector_record(forms)


def t1_curvature(lam) -> CurvatureRecord:
    """lam (e12 - e34) (x) (e12 - e34)."""
    e12, e34 = Form.monomial((1, 2)), Form.monomial((3, 4))
    basis = [] if is_zero(lam) else [endo_of_form(e12 - e34)]
    return curvature_from_pairs(
        {((1, 2), (1, 2)): lam, ((3, 4), (3, 4)): lam,
         ((1, 2), (3, 4)): -1 * lam}, basis)


# --- reductive report -------------------------------------------------------

def _reductive_report(name, params, model, expected, extra=None):
    t, rec, nat = canonical_data(model)
    comp = project_l3(t)
    norms = tuple(simplify(x) for x in comp.norms_sq)
    gap = curvature_gap(t)
    ric = ricci(rec + (-1) * gap)
    einstein = is_einstein(ric)
    report = {
        "name": name,
        "params": params,
        "kind": "reductive",
        "model": model,
        "torsion": t,
        "curvature": rec,
        "naturally_reductive": nat,
        "norms_sq": norms,
        "strict_type": comp.torsion_type()[1],
        "ricci": ric,
        "einstein": einstein,
        "expected": expected,
        "mismatches": [],
    }
    if extra:
        report.update(extra)
    _diff(report)
    return report


def _diff(report):
    exp = report["expected"]
    mism = report["mismatches"]
    for key, want in exp.items():
        if key not in report:
            continue  # checked by the builder after the shared diff
        have = report[key]
        if key == "torsion" or key == "dT":
            if not (have - want).is_zero():
                mism.append(key)
        elif key == "curvature":
            if not report["curvature"].equals(want):
                mism.append(key)
        elif key == "norms_sq":
            if any(not is_zero(a - b) for a, b in zip(have, want)):
                mism.append(key)
        elif key in ("einstein",):
            if have[0] != want[0] or (want[1] is not None
                                      and not is_zero(have[1] - want[1])):
                mism.append(key)
        elif isinstance(want, (int, Fraction)):
            if not is_zero(simplify(have - want)):
                mism.append(key)
        elif have != want:
            mism.append(key)


# --- entries ----------------------------------------------------------------

def build_s3xs3_t2(s, t):
    _require(s > 0, "s > 0")
    _require(t > 0, "t > 0")
    L = LieAlgebraData(6, {(1, 2, 5): s, (1, 5, 2): -s, (2, 5, 1): s,
                           (3, 4, 6): t, (3, 6, 4): -t, (4, 6, 3): t})
    model = ReductiveModel(L, [], [1, 2, 3, 4, 5, 6])
    half = (s * s + t * t) / 2
    expected = {
        "torsion": -s * Form.monomial((1, 2, 5)) - t * Form.monomial((3, 4, 6)),
        "norms_sq": (0, half, half),
        "curvature": zero_curvature(),
        "einstein": (s == t, s * s / 2 if s == t else None),
        "naturally_reductive": True,
    }
    return _reductive_report("s3xs3-t2", {"s": s, "t": t}, model, expected)


def build_s3xt3_t2(s):
    _require(s > 0, "s > 0")
    L = LieAlgebraData(6, {(1, 2, 5): s, (1, 5, 2): -s, (2, 5, 1): s})
    model = ReductiveModel(L, [], [1, 2, 3, 4, 5, 6])
    expected = {
        "torsion": -s * Form.monomial((1, 2, 5)),
        "norms_sq": (0, s * s / 2, s * s / 2),
        "curvature": zero_curvature(),
        "naturally_reductive": True,
    }
    return _reductive_report("s3xt3-t2", {"s": s}, model, expected)


def torus_alphas(s, t=0):
    """The torus normal-form parameters (alpha3, alpha4, alpha5) of the
    s3xs3-t2 model with scales s, t, and of s3xt3-t2 at t = 0.  They are
    not part of the builds: their root sqrt(s^2 + t^2) is irrational for
    most scales, and a build needs no root."""
    s, t = rat(s), rat(t)
    root = sym_sqrt(s * s + t * t)
    return ((s * s - t * t) / (2 * root), -s * t / root, root / 2)


def build_s3xs3_t2bundle(a3, a4, a5):
    _require(a3 + a5 > 0, "alpha3 + alpha5 > 0")
    _require(a3 - a5 < 0, "alpha3 - alpha5 < 0")
    _require(a5 > 0, "alpha5 > 0")
    _require(a4 != 0, "alpha4 != 0")
    lam = a3 * a3 + a4 * a4 - a5 * a5
    # the frame vectors are s e1, s e2, t e1', t e2' with s^2 = s2, t^2 = t2
    # in the two su(2) factors, then three rational vectors
    s2 = 2 * a5 * (a3 + a5)
    t2 = -2 * a5 * (a3 - a5)
    frame = [
        [F(0)] * 2 + _copies(0, 1, 0),
        [F(0)] * 2 + _copies(1, 1, 0),
        [F(0)] * 2 + _copies(0, 0, 1),
        [F(0)] * 2 + _copies(1, 0, 1),
        [F(0)] * 2 + _copies(2, -s2 / (2 * a5), -t2 / (2 * a5)),
        [-lam / a4, lam / a4] + _copies(
            2, ((a3 / a5 - 1) * s2 - 2 * lam) / (2 * a4),
            ((a3 / a5 + 1) * t2 + 2 * lam) / (2 * a4)),
        [F(1), F(-1)] + _copies(2, 1, -1),
    ]

    def bracket(x, y):
        return [F(0)] * 2 + _cross(x[2:5], y[2:5]) + _cross(x[5:8], y[5:8])

    L = _algebra_from_frame(frame, bracket, [s2, s2, t2, t2] + [F(1)] * 3)
    model = ReductiveModel(L, [7], [1, 2, 3, 4, 5, 6])
    expected = {
        "torsion": nil_torsion(a3, a4, a5),
        "curvature": t1_curvature(lam),
        "naturally_reductive": True,
    }
    return _reductive_report("s3xs3-t2bundle",
                             {"alpha3": a3, "alpha4": a4, "alpha5": a5},
                             model, expected, {"lambda": lam})


def _so3_checks(rep, model):
    """Shared characteristic curvature and differential checks for the
    models with 3-dimensional isotropy; lam is recomputed from the
    torsion norms and appended to the report."""
    nn = rep["norms_sq"]
    lam = simplify(nn[0] - Fraction(1, 3) * nn[1])
    t = rep["torsion"]
    rep["lambda"] = lam
    rep["R_is_minus_lambda_projector"] = rep["curvature"].equals(
        simplify(-1 * lam) * so3_projector(model))
    rep["dT_is_lambda_vol3"] = (
        d_parallel(t, t) - simplify(lam) * hodge(OMEGA)).is_zero()
    for key in ("R_is_minus_lambda_projector", "dT_is_lambda_vol3"):
        if not rep[key]:
            rep["mismatches"].append(key)
    if "lambda" in rep["expected"]:
        if not is_zero(simplify(lam - rep["expected"]["lambda"])):
            rep["mismatches"].append("lambda")


def build_s3xs3_so3(b, d, k1, k2):
    _require(b != d, "b != d")
    _require(k1 > 0, "k1 > 0")
    _require(k2 > 0, "k2 > 0")
    a = -(d - 1) * (d * k1 + b * k2) / ((b - d) * k2)
    c = (b - 1) * (d * k1 + b * k2) / ((b - d) * k1)
    _require(a * d + b + c - a - b * c - d != 0, "ad+b+c-a-bc-d != 0")
    # frame u_i / sqrt(k1), v_i / sqrt(k2), h_i
    u = [_copies(i, 1, a, b) for i in range(3)]
    v = [_copies(i, 1, c, d) for i in range(3)]
    h = [_copies(i, 1, 1, 1) for i in range(3)]

    def bracket(x, y):
        return [2 * z for z in _cross(x[0:3], y[0:3]) + _cross(x[3:6], y[3:6])
                + _cross(x[6:9], y[6:9])]

    L = _algebra_from_frame([u[0], v[0], u[1], v[1], u[2], v[2]] + h, bracket,
                            [1 / k1, 1 / k2] * 3 + [F(1)] * 3)
    model = ReductiveModel(L, [7, 8, 9], [1, 2, 3, 4, 5, 6])
    t2_expect = (((k1 + k2) / (b - d) ** 2)
                 * ((d - 1) ** 2 / k2 + (b - 1) ** 2 / k1)
                 * (d ** 2 / k2 + b ** 2 / k1))
    lam = -8 * (b / k1 + d / k2)
    expected = {
        "t2_norm_sq": t2_expect,
        "lambda": lam,
        "naturally_reductive": True,
    }
    rep = _reductive_report("s3xs3-so3",
                            {"b": b, "d": d, "k1": k1, "k2": k2},
                            model, expected)
    rep["t2_norm_sq"] = rep["norms_sq"][0]
    if not is_zero(simplify(rep["t2_norm_sq"] - t2_expect)):
        rep["mismatches"].append("t2_norm_sq")
    _so3_checks(rep, model)
    return rep


def build_sl2c_so3(p):
    _require(p > 0, "p > 0")
    # frame u_i, v_i sqrt(p) / (p + 1), h_i
    u = [_copies(i, 1, 1 / (p + 1), 0) for i in range(3)]
    v = [_copies(i, 0, 0, 1) for i in range(3)]
    h = [_copies(i, 1, 1, 0) for i in range(3)]

    def bracket(x, y):
        a1, b1 = x[3:6], x[6:9]
        a2, b2 = y[3:6], y[6:9]
        return [2 * z for z in _cross(x[0:3], y[0:3])
                + _add(_cross(a1, a2), _cross(b2, b1))
                + _add(_cross(a1, b2), _cross(b1, a2))]

    L = _algebra_from_frame([u[0], v[0], u[1], v[1], u[2], v[2]] + h, bracket,
                            [F(1), p / (p + 1) ** 2] * 3 + [F(1)] * 3)
    model = ReductiveModel(L, [7, 8, 9], [1, 2, 3, 4, 5, 6])
    lam = -8 / (p + 1)
    expected = {
        "norms_sq": ((p - 1) ** 2 / (p + 1) ** 2,
                     3 * (p + 3) ** 2 / (p + 1) ** 2, F(0)),
        "strict_type": "W3" if p == 1 else "W1+W3",
        "lambda": lam,
        "naturally_reductive": True,
    }
    rep = _reductive_report("sl2c-so3", {"p": p}, model, expected)
    _so3_checks(rep, model)
    return rep


def build_e3_so3():
    w = [_copies(i, 0, 0, 1) for i in range(3)]
    s = [_copies(i, 1, 0, 0) for i in range(3)]
    h = [_copies(i, 1, 1, 0) for i in range(3)]

    def bracket(x, y):
        return (_cross(x[0:3], y[0:3]) + _cross(x[3:6], y[3:6])
                + _add(_cross(x[3:6], y[6:9]), _cross(x[6:9], y[3:6])))

    L = _algebra_from_frame([s[0], w[0], s[1], w[1], s[2], w[2]] + h, bracket,
                            [F(1)] * 9)
    model = ReductiveModel(L, [7, 8, 9], [1, 2, 3, 4, 5, 6])
    expected = {
        "norms_sq": (F(1, 4), F(3, 4), F(0)),
        "lambda": F(0),
        "strict_type": "W1+W3",
        "curvature": zero_curvature(),
        "naturally_reductive": True,
    }
    rep = _reductive_report("e3-so3", {}, model, expected)
    _so3_checks(rep, model)
    return rep


def build_n6_so3():
    p = [_copies(i, 0, 1, 0) for i in range(3)]
    q = [_copies(i, 1, 0, 1) for i in range(3)]
    h = [_copies(i, 1, 0, 0) for i in range(3)]

    def bracket(x, y):
        a1, v1, w1 = x[0:3], x[3:6], x[6:9]
        a2, v2, w2 = y[0:3], y[3:6], y[6:9]
        return (_cross(a1, a2) + _add(_cross(a1, v2), _cross(v1, a2))
                + _add(_cross(a1, w2), _cross(w1, a2), _cross(v1, v2)))

    L = _algebra_from_frame([p[0], q[0], p[1], q[1], p[2], q[2]] + h, bracket,
                            [F(1)] * 9)
    model = ReductiveModel(L, [7, 8, 9], [1, 2, 3, 4, 5, 6])
    expected = {
        "norms_sq": (F(1, 4), F(27, 4), F(0)),
        "lambda": F(-2),
        "strict_type": "W1+W3",
        "naturally_reductive": True,
    }
    rep = _reductive_report("n6-so3", {}, model, expected)
    _so3_checks(rep, model)
    return rep


# two-step nilpotent frame with d e5, d e6 supported on e12, e34; the base
# frame is scaled so the canonical torsion is the normal form below.
# Per case: strict type, Betti numbers and commutator tag.  The rows (ii)
# and (iv) of the printed table are interchanged relative to what the
# structure equations give; the values below are the recomputed ones.
NIL_TABLE = {
    "i": ("W3+W4", (1, 5, 11, 14, 11, 5, 1), "(0,0,0,0,0,12)"),
    "ii": ("W3+W4", (1, 5, 9, 10, 9, 5, 1), "(0,0,0,0,0,12+34)"),
    "iii": ("W3+W4", (1, 4, 8, 10, 8, 4, 1), "(0,0,0,0,12,34)"),
    "iv": ("W3+W4", (1, 4, 8, 10, 8, 4, 1), "(0,0,0,0,12,34)"),
    "v": ("W4", (1, 5, 9, 10, 9, 5, 1), "(0,0,0,0,0,12+34)"),
    "vi": ("W3", (1, 5, 9, 10, 9, 5, 1), "(0,0,0,0,0,12+34)"),
}


def build_nil(case, a3, a4, a5):
    got = nil_family_case(a3, a4, a5)
    if got != case:
        conditions = {
            "i": "alpha3 = +-alpha5, alpha4 = 0, alpha5 > 0",
            "ii": "alpha3 != +-alpha5, alpha3 != 0, alpha4 = 0, alpha5 > 0",
            "iii": "alpha3 != 0, alpha4 != 0, alpha5 > 0",
            "iv": "alpha3 = 0, alpha4 != 0, alpha5 > 0",
            "v": "alpha3 = alpha4 = 0, alpha5 > 0",
            "vi": "alpha3 > 0, alpha4 = alpha5 = 0",
        }
        raise ValueError(f"requires {conditions[case]}")
    s = nil_family(a3, a4, a5)
    parallel, dt_ok, details = verify_parallel(s)
    t = details["torsion"]
    comp = project_l3(t)
    strict, betti, tag = NIL_TABLE[case]
    report = {
        "name": f"nil-{case}",
        "params": {"alpha3": a3, "alpha4": a4, "alpha5": a5},
        "kind": "nilpotent",
        "equations": s,
        "torsion": t,
        "norms_sq": tuple(simplify(x) for x in comp.norms_sq),
        "strict_type": comp.torsion_type()[1],
        "parallel": parallel and dt_ok,
        "betti": betti_vector(s),
        "commutator_tag": structure_tag(s),
        "dT": details["dT"],
        "expected": {
            "torsion": nil_torsion(a3, a4, a5),
            "strict_type": strict,
            "parallel": True,
            "betti": betti,
            "commutator_tag": tag,
            "dT": -2 * (a3 * a3 + a4 * a4 - a5 * a5)
            * Form.monomial((1, 2, 3, 4)),
        },
        "mismatches": [],
    }
    _diff(report)
    return report


# scaling of the five-sphere-times-line model: with base scale mu and fiber
# scale nu, the canonical torsion is totally skew iff mu^2 = 3 nu^2, and the
# vertical Ricci eigenvalue is 4 at (mu, nu) = (2/sqrt(3), 2/3); both values
# are baked into the constants below
_S5XS1_CONSTANTS = {
    (1, 2, 5): F(2), (1, 2, 9): F(-8, 3), (1, 3, 8): F(8, 3),
    (1, 4, 7): F(-8, 3), (1, 5, 2): F(-2), (1, 7, 4): F(1, 2),
    (1, 8, 3): F(-1, 2), (1, 9, 2): F(1, 2), (2, 3, 7): F(8, 3),
    (2, 4, 8): F(8, 3), (2, 5, 1): F(2), (2, 7, 3): F(-1, 2),
    (2, 8, 4): F(-1, 2), (2, 9, 1): F(-1, 2), (3, 4, 5): F(2),
    (3, 4, 9): F(8, 3), (3, 5, 4): F(-2), (3, 7, 2): F(1, 2),
    (3, 8, 1): F(1, 2), (3, 9, 4): F(-1, 2), (4, 5, 3): F(2),
    (4, 7, 1): F(-1, 2), (4, 8, 2): F(1, 2), (4, 9, 3): F(1, 2),
    (7, 8, 9): F(1), (7, 9, 8): F(-1), (8, 9, 7): F(1),
}


def build_s5xs1():
    L = LieAlgebraData(9, dict(_S5XS1_CONSTANTS))
    model = ReductiveModel(L, [7, 8, 9], [1, 2, 3, 4, 5, 6])
    expected = {
        "torsion": -2 * Form.monomial((1, 2, 5)) - 2 * Form.monomial((3, 4, 5)),
        "strict_type": "W4",
        "einstein": (False, None),
        "naturally_reductive": True,
        "ricci_diag": (F(6), F(6), F(6), F(6), F(4), F(0)),
    }
    rep = _reductive_report("s5xs1", {}, model, expected)
    rep["ricci_diag"] = tuple(simplify(rep["ricci"][i][i]) for i in range(6))
    if rep["ricci_diag"] != expected["ricci_diag"]:
        rep["mismatches"].append("ricci_diag")
    return rep


# --- local model table for torus holonomy -----------------------------------

def local_model_group(a3, a4, a5):
    """Name of the Lie group carrying the torus-holonomy normal form."""
    a3, a4, a5 = _rationals({"alpha3": a3, "alpha4": a4, "alpha5": a5}).values()
    if a5 == 0:
        return "t3 x n11"
    if a3 == a5 or a3 == -a5:
        return "s3 x n11"
    if a3 + a5 < 0 or a3 - a5 > 0:
        return "s3 x sl2r"
    return "s3 x s3"


def local_model_algebra(name) -> LieAlgebraData:
    su2 = {(1, 2, 3): F(1), (2, 3, 1): F(1), (1, 3, 2): F(-1)}
    sl2r = {(1, 2, 2): F(2), (1, 3, 3): F(-2), (2, 3, 1): F(1)}
    n11 = {(1, 2, 2): F(1), (1, 3, 3): F(-1)}
    abelian = {}
    factors = {
        "s3 x s3": (su2, su2),
        "s3 x sl2r": (su2, sl2r),
        "s3 x n11": (su2, n11),
        "t3 x n11": (abelian, n11),
    }
    if name not in factors:
        raise ValueError(f"unknown local model {name!r}")
    constants = {}
    off = 1  # leading central direction for the extra torus factor
    for fac in factors[name]:
        for (i, j, k), v in fac.items():
            constants[(i + off, j + off, k + off)] = v
        off += 3
    return LieAlgebraData(7, constants)


# --- registry ---------------------------------------------------------------

ENTRIES = {
    "s3xs3-t2": {
        "builder": build_s3xs3_t2,
        "schema": {"s": "s > 0", "t": "t > 0"},
        "description": "product of two 3-spheres, biinvariant metric, "
                       "vertical complex exchange",
    },
    "s3xt3-t2": {
        "builder": build_s3xt3_t2,
        "schema": {"s": "s > 0"},
        "description": "3-sphere times 3-torus",
    },
    "s3xs3-t2bundle": {
        "builder": build_s3xs3_t2bundle,
        "schema": {"a3": "alpha3 + alpha5 > 0 and alpha3 - alpha5 < 0",
                   "a4": "alpha4 != 0", "a5": "alpha5 > 0"},
        "description": "torus bundle structure over a product of 2-spheres",
    },
    "s3xs3-so3": {
        "builder": build_s3xs3_so3,
        "schema": {"b": "b != d", "d": "b != d",
                   "k1": "k1 > 0", "k2": "k2 > 0; ad+b+c-a-bc-d != 0"},
        "description": "product of two 3-spheres with 3-dimensional isotropy",
    },
    "sl2c-so3": {
        "builder": build_sl2c_so3,
        "schema": {"p": "p > 0"},
        "description": "special linear group over the complex numbers",
    },
    "e3-so3": {
        "builder": build_e3_so3,
        "schema": {},
        "description": "universal cover of the euclidean motion group",
    },
    "n6-so3": {
        "builder": build_n6_so3,
        "schema": {},
        "description": "2-step nilpotent group with 3-dimensional isotropy",
    },
    "s5xs1": {
        "builder": build_s5xs1,
        "schema": {},
        "description": "5-sphere times a line, Sasaki scaling",
    },
}
for _case in NIL_TABLE:
    ENTRIES[f"nil-{_case}"] = {
        "builder": (lambda case: lambda a3, a4, a5:
                    build_nil(case, a3, a4, a5))(_case),
        "schema": {"a3": "family condition on alpha3",
                   "a4": "family condition on alpha4",
                   "a5": "family condition on alpha5"},
        "description": f"two-step nilpotent family, case {_case}",
    }


def build(name, **params):
    if name not in ENTRIES:
        raise ValueError(f"unknown catalog entry {name!r}")
    schema = ENTRIES[name]["schema"]
    problems = [f"{what} parameter(s) {', '.join(sorted(keys))}"
                for what, keys in (("unknown", params.keys() - schema.keys()),
                                   ("missing", schema.keys() - params.keys()))
                if keys]
    if problems:
        raise ValueError(f"{name}: {'; '.join(problems)}")
    return ENTRIES[name]["builder"](**_rationals(params))


def sweep(name, grid):
    """One report per parameter point; per-point errors are recorded, not
    raised."""
    out = []
    for point in grid:
        try:
            out.append({"params": dict(point), "report": build(name, **point)})
        except ValueError as exc:
            out.append({"params": dict(point), "error": str(exc)})
    return out


def index_json():
    data = {name: {"schema": entry["schema"],
                   "description": entry["description"]}
            for name, entry in sorted(ENTRIES.items())}
    return json.dumps(data, indent=2, sort_keys=True)

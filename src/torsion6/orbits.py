"""Normal forms of singular torsion orbits and their realizability tests.

The two normal-form families (cases I-VI and VII-XI), the codifferential
gap, vector pair reduction under SO(3), the scalar-square criterion for Lie
groups, and a first-Bianchi feasibility filter for candidate curvature
operators.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .forms import (
    DIM,
    Form,
    contract,
    endo_act_on_form,
    form_of_endo,
    sigma,
    sort_indices,
    wedge,
)
from .liegeom import MON2, CurvatureRecord, zero_curvature
from .scalars import DEFAULT_TOL, is_exact, is_zero, sym_sqrt, to_float
from .unitary import (
    L2_MINUS_BASIS,
    M2_BASIS,
    TORUS_WEIGHTS,
    i1,
    i2,
    i3,
    identify_algebra,
    isotropy_algebra,
    project_l3,
)

FIRST_FAMILY = ("I", "II", "III", "IV", "V", "VI")
SECOND_FAMILY = ("VII", "VIII", "IX", "X", "XI")


def _e(*idx):
    return Form.monomial(idx)


def first_family_form(a1, a3, a4, a5) -> Form:
    t = a1 * wedge(_e(1, 4) + _e(2, 3), _e(5))
    t = t + wedge(_e(1, 2) - _e(3, 4), a3 * _e(5) + a4 * _e(6))
    return t + a5 * wedge(_e(1, 2) + _e(3, 4), _e(5))


def second_family_form(a1, a2, b1, b2) -> Form:
    t = a1 * (wedge(_e(1, 4) + _e(2, 3), _e(5)) + wedge(_e(1, 3) - _e(2, 4), _e(6)))
    t = t + a2 * (wedge(-_e(1, 3) + _e(2, 4), _e(5)) + wedge(_e(1, 4) + _e(2, 3), _e(6)))
    t = t + b1 * wedge(_e(1, 2) - _e(3, 4), _e(5))
    return t + b2 * (wedge(_e(1, 3) - _e(2, 4), _e(5)) + wedge(_e(1, 4) + _e(2, 3), _e(6)))


def _pos(x) -> bool:
    if is_exact(x):
        return x > 0
    return to_float(x) > DEFAULT_TOL


@dataclass(frozen=True)
class TorsionFamily:
    """A tagged parameter record for one of the singular-orbit cases."""

    case: str
    a1: object = 0
    a2: object = 0
    a3: object = 0
    a4: object = 0
    a5: object = 0
    b1: object = 0
    b2: object = 0

    def __post_init__(self):
        msg = self.violation()
        if msg:
            raise ValueError(f"case {self.case}: {msg}")

    def violation(self) -> str | None:
        c = self.case
        a1, a3, a4, a5 = self.a1, self.a3, self.a4, self.a5
        b1, b2 = self.b1, self.b2
        if c in FIRST_FAMILY:
            if not (is_zero(self.a2) and is_zero(b1) and is_zero(b2)):
                return "first-family cases use only a1, a3, a4, a5"
            branch_34 = ((_pos(a3)) or (is_zero(a3) and _pos(a4)))
            if c == "I":
                if not (is_zero(a1) and is_zero(a3) and is_zero(a4) and _pos(a5)):
                    return "needs a1 = a3 = a4 = 0 and a5 > 0"
            elif c == "II":
                if not (_pos(a1) and is_zero(a3) and is_zero(a4) and is_zero(a5)):
                    return "needs a1 > 0 and a3 = a4 = a5 = 0"
            elif c == "III":
                if not (_pos(a1) and branch_34 and is_zero(a5)):
                    return "needs a1 > 0, a5 = 0 and (a3 > 0, or a3 = 0 < a4)"
                # on this circle the orbit is the larger one of case XI
                if is_zero(a1 * a1 - a3 * a3 - a4 * a4):
                    return "needs a1^2 != a3^2 + a4^2"
            elif c == "IV":
                if not (is_zero(a1) and branch_34 and _pos(a5)):
                    return "needs a1 = 0, a5 > 0 and (a3 > 0, or a3 = 0 < a4)"
            elif c == "V":
                if not (_pos(a1) and is_zero(a3) and is_zero(a4) and _pos(a5)):
                    return "needs a1 > 0, a3 = a4 = 0, a5 > 0"
            elif c == "VI":
                if not (_pos(a1) and branch_34 and _pos(a5)):
                    return "needs a1 > 0, a5 > 0 and (a3 > 0, or a3 = 0 < a4)"
            return None
        if c in SECOND_FAMILY:
            a2 = self.a2
            if not (is_zero(a3) and is_zero(a4) and is_zero(a5)):
                return "second-family cases use only a1, a2, b1, b2"
            if c == "VII":
                if not (_pos(a1) and is_zero(a2) and is_zero(b1) and is_zero(b2)):
                    return "needs a1 > 0 and a2 = b1 = b2 = 0"
            elif c == "VIII":
                if not (is_zero(a1) and is_zero(a2) and is_zero(b1) and not is_zero(b2)):
                    return "needs a1 = a2 = b1 = 0 and b2 != 0"
            elif c == "IX":
                if not (is_zero(a1) and is_zero(a2) and not is_zero(b1) and is_zero(b2)):
                    return "needs a1 = a2 = b2 = 0 and b1 != 0"
            elif c == "X":
                if not (is_zero(a1) and is_zero(a2)
                        and not is_zero(b1) and is_zero(b1 - 2 * b2)):
                    return "needs a1 = a2 = 0 and b1 = 2 b2 != 0"
            elif c == "XI":
                if (is_zero(a1) and is_zero(a2)) or is_zero(b1) or not is_zero(b1 - 2 * b2):
                    return "needs (a1, a2) != 0 and b1 = 2 b2 != 0"
            return None
        return f"unknown case tag {c!r}"


def make_torsion(f: TorsionFamily) -> Form:
    if f.case in FIRST_FAMILY:
        return first_family_form(f.a1, f.a3, f.a4, f.a5)
    return second_family_form(f.a1, f.a2, f.b1, f.b2)


def codiff_gap(t: Form, w: Form) -> Form:
    """Difference of the metric and torsion codifferentials on w:
    1/2 sum_{i,j} (e_ij .J T) ^ (e_ij .J w)."""
    if w.degree < 2:
        raise ValueError("codifferential gap needs degree >= 2")
    deg = (t.degree - 2) + (w.degree - 2)
    out = Form(deg)
    for i in range(1, DIM + 1):
        ei = Form.monomial((i,), Fraction(1))
        for j in range(1, DIM + 1):
            if i == j:
                continue
            ej = Form.monomial((j,), Fraction(1))
            ct = contract(ej, contract(ei, t))
            cw = contract(ej, contract(ei, w))
            out = out + wedge(ct, cw)
    return Fraction(1, 2) * out


def so3_pair_reduce(v, w):
    """Unique normal form (lambda, mu1, mu2) of a pair of vectors in R^3
    under the diagonal rotation action."""
    v, w = list(v), list(w)
    nv = sum(x * x for x in v)
    if is_zero(nv):
        return (0, sym_sqrt(sum(x * x for x in w)), 0)
    lam = sym_sqrt(nv)
    mu1 = sum(a * b for a, b in zip(v, w)) / lam
    rest = [b - (mu1 / lam) * a for a, b in zip(v, w)]
    mu2 = sym_sqrt(sum(x * x for x in rest))
    return (lam, mu1, mu2)


def lie_group_criterion(t: Form, tol: float | None = None):
    """Value of 3|T2|^2 - |T12|^2 + |T6|^2 and whether it vanishes
    (equivalently, the torsion defines a Lie bracket)."""
    return project_l3(t).lie_group_criterion(tol)


# --- first Bianchi feasibility ---

def _symmetric_product(wa: Form, wb: Form) -> CurvatureRecord:
    """The record of w_a (x) w_b + w_b (x) w_a; rows and columns off the
    monomials of w_a and w_b are zero."""
    va, vb = wa.vector(), wb.vector()
    support = [p for p, m in enumerate(MON2) if m in wa.coeffs or m in wb.coeffs]
    mat = [[Fraction(0)] * len(MON2) for _ in MON2]
    for p in support:
        for q in support:
            mat[p][q] = va[p] * vb[q] + vb[p] * va[q]
    return CurvatureRecord(mat)


def bianchi_feasible(t: Form, hol=None):
    """Search S^2(hol) for a curvature operator whose first-Bianchi cyclic
    sum equals sigma(T).  Returns (feasible, witness or None); the witness is
    a CurvatureRecord with values in hol."""
    if hol is None:
        hol = isotropy_algebra(t)
    else:
        for h in hol:
            if not endo_act_on_form(h, t).is_zero():
                raise ValueError("hol is not contained in the annihilator of T")
    target = sigma(t).vector()
    forms = [form_of_endo(h) for h in hol]
    # the candidates w_a (x) w_b + w_b (x) w_a, halved when a = b
    pairs = [(a, b) for a in range(len(hol)) for b in range(a, len(hol))]
    recs = [_symmetric_product(forms[a], forms[b]) for a, b in pairs]
    cols = []
    for (a, b), rec in zip(pairs, recs):
        contrib = rec.cyclic_sum()
        if a == b:
            contrib = Fraction(1, 2) * contrib
        cols.append(contrib.vector())
    sol = linalg.column_space_coords(cols, target)
    if sol is None:
        return False, None
    witness = zero_curvature()
    for (a, b), c, rec in zip(pairs, sol, recs):
        if not is_zero(c):
            witness = witness + (Fraction(1, 2) * c if a == b else c) * rec
    witness.basis = list(hol)
    return True, witness


# --- diagnostic families used in the exclusion arguments ---

def w1w3_family(a1, a2, b1, b2, a3, a4) -> Form:
    """Six-parameter candidate family for divergence-free forms with both
    small components, before the Bianchi reduction (which forces a1 = b1
    once the frame is rotated to a2 = b2 = 0)."""
    t2 = second_family_form(a1, a2, 0, 0)
    t12 = b1 * (wedge(_e(1, 4) + _e(2, 3), _e(5)) - wedge(_e(1, 3) - _e(2, 4), _e(6)))
    t12 = t12 + b2 * (wedge(-_e(1, 3) + _e(2, 4), _e(5)) - wedge(_e(1, 4) + _e(2, 3), _e(6)))
    t12 = t12 + wedge(_e(1, 2) - _e(3, 4), a3 * _e(5) + a4 * _e(6))
    return t2 + t12


def gamma_family(a1, a3, a4, gamma, a5) -> Form:
    """Divergence normal-form candidate with the extra skew parameter that
    the Bianchi identities rule out."""
    omega1 = a1 * M2_BASIS[1]
    omega3 = a3 * L2_MINUS_BASIS[0]
    omega4 = a4 * L2_MINUS_BASIS[0] + gamma * L2_MINUS_BASIS[1]
    t = i1(omega1) + i2(omega1) + i3(omega3, omega4)
    return t + a5 * wedge(_e(1, 2) + _e(3, 4), _e(5))


def so3_family(a1, a2, a3) -> Form:
    """Normal form with a 3-symmetric divergence-free part: the second
    family pair plus a3 (3 e135 + e146 + e236 + e245)."""
    t = second_family_form(a1, a2, 0, 0)
    cube = 3 * _e(1, 3, 5) + _e(1, 4, 6) + _e(2, 3, 6) + _e(2, 4, 5)
    return t + a3 * cube


# --- invariant polynomial dimensions ---

def invariant_poly_dims(max_deg: int):
    """Dimensions of U(3)-invariant homogeneous polynomials on the
    14-dimensional sum of the two divergence-free torsion components,
    one (degree, dim) pair per degree from 1 to max_deg.

    U(3) is connected, so by the Weyl character formula, read as a
    multiplicity formula (Brauer-Klimyk; Fulton-Harris, Representation
    Theory, 24.2), dim S^d(V)^U(3) = sum over w in S3 of
    sgn(w) m_d(rho - w rho), rho = (1, 0, -1), where m_d(mu) is the
    multiplicity of the weight mu in S^d V.  The m_d come from an integer
    count over the monomials in the 14 weight vectors."""
    # mult[d][mu]: the number of degree-d monomials of torus weight mu
    mult = [Counter() for _ in range(max(max_deg, 0) + 1)]
    mult[0][(0, 0, 0)] = 1
    for w in TORUS_WEIGHTS:
        # one more variable of weight w: monomials of degree d are those of
        # degree d - 1 (already using w) times w, plus those without w
        for d in range(1, max_deg + 1):
            for (a, b, c), n in mult[d - 1].items():
                mult[d][(a + w[0], b + w[1], c + w[2])] += n
    rho = (1, 0, -1)
    out = []
    for d in range(1, max_deg + 1):
        dim = 0
        for perm in itertools.permutations(range(3)):
            sign = sort_indices(perm)[1]
            dim += sign * mult[d][tuple(rho[i] - rho[perm[i]] for i in range(3))]
        out.append((d, dim))
    return out


# --- classification report ---

# strict type, isotropy label and isotropy dimension of each case
CASE_TABLE = {
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
_CASE_BY_SIGNATURE = {(strict, label): case
                      for case, (strict, label, _) in CASE_TABLE.items()}

_ONE = Fraction(1)
_FIRST_BASIS = (
    first_family_form(_ONE, 0, 0, 0),
    first_family_form(0, _ONE, 0, 0),
    first_family_form(0, 0, _ONE, 0),
    first_family_form(0, 0, 0, _ONE),
)
_SECOND_BASIS = (
    second_family_form(_ONE, 0, 0, 0),
    second_family_form(0, _ONE, 0, 0),
    second_family_form(0, 0, _ONE, 0),
    second_family_form(0, 0, 0, _ONE),
)


@dataclass
class ClassificationReport:
    norms_sq: tuple
    strict_type: str
    iso_label: str
    iso_dim: int
    iso_basis: list
    case: str | None
    params: dict | None
    criterion_value: object
    criterion_holds: bool
    bianchi_ok: bool
    ambiguity: str | None = None
    verdict: str = ""

    def to_json(self) -> str:
        def num(x):
            if is_exact(x):
                return str(x)
            return x
        payload = {
            "norms": {"t2": num(self.norms_sq[0]), "t12": num(self.norms_sq[1]),
                      "t6": num(self.norms_sq[2])},
            "strictType": self.strict_type,
            "isoLabel": self.iso_label,
            "isoDim": self.iso_dim,
            "caseTag": self.case,
            "criteria": {"lieGroup": {"value": num(self.criterion_value),
                                      "holds": self.criterion_holds},
                         "bianchiFeasible": self.bianchi_ok},
            "invariants": {"params": {k: num(v) for k, v in self.params.items()}
                           if self.params else None,
                           "ambiguity": self.ambiguity},
            "verdict": self.verdict,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _extract_params(t: Form, basis, names):
    cols = [f.vector() for f in basis]
    sol = linalg.column_space_coords(cols, t.vector())
    if sol is None:
        return None
    return dict(zip(names, sol))


def classify_form(t: Form, tol: float | None = None) -> ClassificationReport:
    """Best-effort identification of the singular-orbit case of a 3-form.

    A form with float coefficients is classified as 2^-e T, the power-of-two
    multiple whose largest |coefficient| lies in [1/2, 1), and the norms,
    the criterion value and the parameters are scaled back.  Scaling by a
    power of two is exact, so T and 2^k T get the same answer and `tol` is
    relative to the size of T.
    """
    e = 0
    if any(isinstance(c, float) for c in t.coeffs.values()):
        e = math.frexp(max(abs(to_float(c)) for c in t.coeffs.values()))[1]
        t = t.map_coeffs(lambda c: math.ldexp(to_float(c), -e))

    def unscale(x, degree):
        return math.ldexp(x, degree * e) if isinstance(x, float) else x

    comp = project_l3(t)
    _, strict = comp.torsion_type(tol)
    iso = isotropy_algebra(t)
    label = identify_algebra(iso)
    value, holds = comp.lie_group_criterion(tol)
    feasible, _ = bianchi_feasible(t, iso)

    case = _CASE_BY_SIGNATURE.get((strict, label.tag))
    params = None
    ambiguity = None
    if case in FIRST_FAMILY:
        params = _extract_params(t, _FIRST_BASIS, ("a1", "a3", "a4", "a5"))
    elif case in SECOND_FAMILY:
        params = _extract_params(t, _SECOND_BASIS, ("a1", "a2", "b1", "b2"))
    if params is not None:
        params = {k: unscale(v, 1) for k, v in params.items()}
    if case is None:
        if strict == "Kaehler":
            verdict = "zero torsion (Kaehler)"
            case = "kaehler"
        elif label.dim == 0:
            verdict = "trivial isotropy: not a parallel-torsion orbit candidate"
        else:
            verdict = "non-singular or unrealizable"
    else:
        verdict = f"case {case}"
        if params is None:
            verdict += " (not presented in the normal frame)"
    if strict == "W3" and label.tag == "t1":
        verdict = "strict W3 with 1-dim isotropy: not realizable by parallel torsion"
        ambiguity = "two parameter sets may give the same orbit"
    norms = tuple(unscale(n, 2) for n in comp.norms_sq)
    return ClassificationReport(norms, strict, label.tag, label.dim, iso,
                                case, params, unscale(value, 2), holds,
                                feasible, ambiguity, verdict)

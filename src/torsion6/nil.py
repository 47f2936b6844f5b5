"""Left-invariant geometry from structure equations.

Exterior differential and Betti numbers of the associated complex, the
Nijenhuis tensor, extraction of the torsion form from the differential of
the Kaehler form, and verification of parallel torsion.  The two-step
nilpotent frames with de5, de6 supported on e12 and e34 are built in.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import linalg
from .forms import (
    DIM,
    Form,
    J,
    OMEGA,
    SkewEndo,
    format_form,
    hodge,
    monomials,
    parse_form,
    sigma,
    wedge,
)
from .liegeom import (
    LieAlgebraData,
    characteristic_connection,
    covariant_derivative_form,
)
from .orbits import first_family_form
from .scalars import is_zero
from .unitary import project_l3


class StructureEquations:
    """The differentials de1..de6 of a left-invariant coframe."""

    def __init__(self, de):
        de = list(de)
        if len(de) != DIM:
            raise ValueError("need six differentials")
        for w in de:
            if w.degree != 2:
                raise ValueError("differentials must be 2-forms")
        self.de = de
        for i in range(1, DIM + 1):
            if not self.d(self.de[i - 1]).is_zero():
                raise ValueError(f"d^2 != 0 on e{i}")

    def d(self, a: Form) -> Form:
        """Exterior differential extended as an anti-derivation."""
        if a.degree >= DIM:
            return Form(DIM) if a.degree == DIM else Form(a.degree + 1)
        out = Form(a.degree + 1)
        for idx, c in a.coeffs.items():
            if not idx:
                continue
            for pos, i in enumerate(idx):
                rest = Form(len(idx) - 1, {idx[:pos] + idx[pos + 1:]: c})
                sign = -1 if pos % 2 else 1
                out = out + sign * wedge(self.de[i - 1], rest)
        return out

    @property
    def nilpotent(self) -> bool:
        for i in range(DIM):
            for (a, b) in self.de[i].coeffs:
                if b > i:
                    return False
        return True

    def dual_algebra(self) -> LieAlgebraData:
        """Brackets via de_k(X, Y) = -e_k([X, Y])."""
        consts = {}
        for k in range(1, DIM + 1):
            for (i, j), c in self.de[k - 1].coeffs.items():
                consts[(i, j, k)] = -c
        return LieAlgebraData(DIM, consts)

    def to_text(self):
        lines = []
        for i, w in enumerate(self.de, start=1):
            lines.append(f"de{i} = {format_form(w)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        de = [Form(2) for _ in range(DIM)]
        for raw in text.splitlines():
            line = raw.split("#")[0].strip()
            if not line:
                continue
            m = re.fullmatch(r"de([1-6])\s*=\s*(.+)", line)
            if not m:
                raise ValueError(f"cannot parse line {line!r}")
            body = m.group(2).strip()
            if body == "0":
                continue
            w = parse_form(body)
            if w.degree != 2:
                raise ValueError(f"de{m.group(1)} must be a 2-form")
            de[int(m.group(1)) - 1] = w
        return cls(de)

    @classmethod
    def from_shorthand(cls, text):
        """Parse the compact notation '(0,0,0,0,12,34)'."""
        m = re.fullmatch(r"\(([^()]*)\)", text.strip())
        if not m:
            raise ValueError(f"cannot parse shorthand {text!r}")
        entries = [s.strip() for s in m.group(1).split(",")]
        if len(entries) != DIM:
            raise ValueError("shorthand needs six entries")
        de = []
        for entry in entries:
            if entry == "0":
                de.append(Form(2))
            else:
                de.append(parse_form(re.sub(r"(\d\d)", r"e\1", entry)))
        return cls(de)

    def shorthand(self):
        """Compact notation; requires all coefficients in {1, -1}."""
        entries = []
        for w in self.de:
            if w.is_zero():
                entries.append("0")
                continue
            parts = []
            for idx in sorted(w.coeffs):
                c = w.coeffs[idx]
                if c not in (1, -1, Fraction(1), Fraction(-1)):
                    raise ValueError("shorthand needs unit coefficients")
                mono = "".join(str(i) for i in idx)
                parts.append(("-" if c < 0 else "+") + mono)
            entries.append(parts[0].lstrip("+") + "".join(parts[1:]))
        return "(" + ",".join(entries) + ")"


def nil_family(a3, a4, a5) -> StructureEquations:
    """de5 = a3(e12 - e34) + a5(e12 + e34), de6 = a4(e12 - e34)."""
    e12 = Form.monomial((1, 2))
    e34 = Form.monomial((3, 4))
    de = [Form(2)] * 4
    de = de + [a3 * (e12 - e34) + a5 * (e12 + e34), a4 * (e12 - e34)]
    return StructureEquations(de)


def nil_family_case(a3, a4, a5):
    """Which of the six mutually exclusive parameter conditions holds, as a
    lowercase roman numeral, or None."""
    pos5, pos3 = a5 > 0, a3 > 0
    if a4 == 0 and pos5 and (a3 == a5 or a3 == -a5):
        return "i"
    if a4 == 0 and pos5 and a3 != 0:
        return "ii"
    if a3 != 0 and a4 != 0 and pos5:
        return "iii"
    if a3 == 0 and a4 != 0 and pos5:
        return "iv"
    if a3 == 0 and a4 == 0 and pos5:
        return "v"
    if pos3 and a4 == 0 and a5 == 0:
        return "vi"
    return None


def nil_torsion(a3, a4, a5) -> Form:
    """Closed form of the torsion of the nil family: the first-family normal
    form with a1 = 0."""
    return first_family_form(0, a3, a4, a5)


def ce_betti(s: StructureEquations, k: int) -> int:
    """k-th Betti number of the differential complex on the dual frame."""
    if not 0 <= k <= DIM:
        raise ValueError("degree out of range")

    def d_matrix(deg):
        rows = []
        for idx in monomials(deg):
            rows.append(s.d(Form.monomial(idx)).vector())
        return linalg.transpose(rows) if rows else []

    dim_k = len(monomials(k))
    rank_k = linalg.rank(d_matrix(k)) if k < DIM else 0
    rank_km1 = linalg.rank(d_matrix(k - 1)) if k >= 1 else 0
    return dim_k - rank_k - rank_km1


def betti_vector(s: StructureEquations):
    return tuple(ce_betti(s, k) for k in range(DIM + 1))


class NijenhuisTensor:
    """N(X,Y) = [JX,JY] - J[JX,Y] - J[X,JY] - [X,Y], lowered by g."""

    def __init__(self, values):
        self.values = values  # dict (i, j) -> component vector, i < j

    def component(self, i, j, k):
        sign = 1
        if i == j:
            return Fraction(0)
        if i > j:
            i, j, sign = j, i, -1
        return sign * self.values[(i, j)][k - 1]

    @property
    def is_zero(self):
        return all(is_zero(x) for v in self.values.values() for x in v)

    @property
    def totally_skew(self):
        for (i, j), v in self.values.items():
            for k in range(1, DIM + 1):
                if k in (i, j):
                    if not is_zero(v[k - 1]):
                        return False
                elif not is_zero(self.component(i, j, k)
                                 - self.component(k, i, j)):
                    return False
        return True

    def as_form(self) -> Form:
        if not self.totally_skew:
            raise ValueError("tensor is not totally skew")
        out = {}
        for (i, j, k) in monomials(3):
            c = self.component(i, j, k)
            if not is_zero(c):
                out[(i, j, k)] = c
        return Form(3, out)


def nijenhuis(s: StructureEquations, j: SkewEndo = J) -> NijenhuisTensor:
    alg = s.dual_algebra()

    def basis(i):
        return [Fraction(1 if k == i else 0) for k in range(DIM)]

    values = {}
    for a in range(1, DIM + 1):
        for b in range(a + 1, DIM + 1):
            x, y = basis(a - 1), basis(b - 1)
            jx, jy = j.apply(x), j.apply(y)
            term = alg.bracket(jx, jy)
            t2 = j.apply(alg.bracket(jx, y))
            t3 = j.apply(alg.bracket(x, jy))
            t4 = alg.bracket(x, y)
            values[(a, b)] = [term[k] - t2[k] - t3[k] - t4[k]
                              for k in range(DIM)]
    return NijenhuisTensor(values)


def codifferential(s: StructureEquations, a: Form) -> Form:
    """delta = -*d* on even-dimensional oriented space."""
    return -1 * hodge(s.d(hodge(a)))


def torsion_from_kaehler(s: StructureEquations):
    """Solve d(Omega) = 3*T2 - *T12 + *T6 for the torsion form; returns
    (dOmega, deltaOmega, T)."""
    n = nijenhuis(s)
    if not n.totally_skew:
        raise ValueError("characteristic connection does not exist")
    dw = s.d(OMEGA)
    # ** = -1 on 3-forms, so *dw = -3 T2 + T12 - T6
    parts = project_l3(hodge(dw))
    t = Fraction(-1, 3) * parts.t2 + parts.t12 + (-1) * parts.t6
    return dw, codifferential(s, OMEGA), t


def verify_parallel(s: StructureEquations, t: Form = None):
    """Check that the torsion is parallel for the characteristic connection
    and that dT = 2 sigma_T; returns (parallel, dt_matches, details)."""
    if t is None:
        _, _, t = torsion_from_kaehler(s)
    alg = s.dual_algebra()
    conn = characteristic_connection(alg, t)
    derivatives = [covariant_derivative_form(alg, conn, t, d)
                   for d in range(1, DIM + 1)]
    parallel = all(w.is_zero() for w in derivatives)
    dt = s.d(t)
    dt_matches = dt == 2 * sigma(t)
    details = {
        "torsion": t,
        "dT": dt,
        "covariant_derivatives": derivatives,
    }
    return parallel, dt_matches, details


def parallel_2form_checks(s: StructureEquations, t: Form = None):
    """Closedness of e12, e34 and parallelism of e12 +/- e34 for the
    characteristic connection; each check reported individually."""
    if t is None:
        _, _, t = torsion_from_kaehler(s)
    alg = s.dual_algebra()
    conn = characteristic_connection(alg, t)
    e12 = Form.monomial((1, 2))
    e34 = Form.monomial((3, 4))

    def parallel(w):
        return all(covariant_derivative_form(alg, conn, w, d).is_zero()
                   for d in range(1, DIM + 1))

    return {
        "de12_zero": s.d(e12).is_zero(),
        "de34_zero": s.d(e34).is_zero(),
        "sum_parallel": parallel(e12 + e34),
        "difference_parallel": parallel(e12 - e34),
    }


def structure_tag(s: StructureEquations):
    """Normal form of a 2-step algebra with differentials supported on the
    first four coframe directions, in the compact notation."""
    if not s.nilpotent:
        raise ValueError("structure is not nilpotent")
    image = [w.vector() for w in s.de if not w.is_zero()]
    red, pivots = linalg.rref(image)
    gens = [Form.from_vector(2, r) for r in red[:len(pivots)]]
    for w in gens:
        for (a, b) in w.coeffs:
            if b > 4:
                raise ValueError("differentials leave the base directions")
    if len(gens) == 0:
        return "(0,0,0,0,0,0)"
    if len(gens) == 1:
        w = gens[0]
        if wedge(w, w).is_zero():
            return "(0,0,0,0,0,12)"
        return "(0,0,0,0,0,12+34)"
    if len(gens) == 2:
        span = [w.vector() for w in gens]
        e12 = Form.monomial((1, 2)).vector()
        e34 = Form.monomial((3, 4)).vector()
        if linalg.rank(span + [e12]) == 2 and linalg.rank(span + [e34]) == 2:
            return "(0,0,0,0,12,34)"
    raise ValueError("no normal form implemented for this structure")

"""The standard hermitian model (R^6, g, J, Omega).

Splitting of so(6) into u(3) and its complement, the tau operator with its
spectral projectors on 3-forms, the theta map into R^6 x m6, typing of a
torsion form, the U(2)-splitting of the two small 3-form modules, torus
fixed subspaces, and isotropy-algebra identification.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import sympy

from . import linalg
from .forms import (
    DIM,
    Form,
    J,
    OMEGA,
    SkewEndo,
    contract,
    endo_act_on_form,
    endo_of_form,
    form_of_endo,
    inner,
    monomials,
    norm_sq,
    wedge,
)
from .scalars import DEFAULT_TOL, is_exact, is_zero, sym_sqrt


def split_so6(a: SkewEndo) -> tuple[SkewEndo, SkewEndo, SkewEndo, SkewEndo]:
    """Split A in so(6) as (u3 part, m6 part, su3 part, R^1 part).

    The u3 part commutes with J, the m6 part anticommutes; the R^1 part is
    the J-multiple singled out by the complex trace.
    """
    jaj = SkewEndo(J.compose(SkewEndo(a.compose(J), check=False)), check=False)
    u3 = Fraction(1, 2) * (a - jaj)
    m6 = Fraction(1, 2) * (a + jaj)
    # complex trace of the u3 part: tr_C(M) = sum of diagonal complex entries;
    # the J-multiple carries it all, with tr_C(J) = 3i
    im_tr = sum(u3.mat[2 * k + 1][2 * k] for k in range(3))
    r1 = (im_tr / Fraction(3)) * J
    su3 = u3 - r1
    return u3, m6, su3, r1


def _tau_raw(t: Form, omega: Form) -> Form:
    out = Form(3)
    for i in range(1, DIM + 1):
        v = [Fraction(0)] * DIM
        v[i - 1] = Fraction(1)
        out = out + wedge(contract(v, omega), contract(v, t))
    return out


def _project_omega_wedge(t: Form, omega: Form) -> Form:
    """Orthogonal projection onto {omega ^ X : X a vector}.

    The forms omega ^ e_i are pairwise orthogonal of norm^2 = 2.
    """
    out = Form(3)
    for i in range(1, DIM + 1):
        w = wedge(omega, Form.monomial((i,)))
        out = out + (inner(t, w) / Fraction(2)) * w
    return out


def tau(t: Form, omega: Form = OMEGA) -> Form:
    """The operator sum_i (e_i .J omega) ^ (e_i .J t), adjusted on the
    {omega ^ X} directions so that tau^2 has the three eigenvalues
    -9, -1 and +1 separating the summands of Lambda^3.

    The raw sum rotates {omega ^ X} with square -1, which would merge that
    summand with the -1 eigenspace; tau acts there as the identity instead.
    """
    if t.degree != 3:
        raise ValueError("tau is defined on 3-forms")
    p6 = _project_omega_wedge(t, omega)
    return _tau_raw(t - p6, omega) + p6


@dataclass
class TorsionComponents:
    t2: Form
    t12: Form
    t6: Form
    x: list  # divergence vector, t6 = omega ^ x

    @property
    def norms_sq(self):
        return (norm_sq(self.t2), norm_sq(self.t12), norm_sq(self.t6))

    def total(self) -> Form:
        return self.t2 + self.t12 + self.t6

    def torsion_type(self, tol: float | None = None) -> tuple[set, str]:
        """Gray-Hervella classes present, with a strict-type string."""
        present = {name for name, n in zip(("W1", "W3", "W4"), self.norms_sq)
                   if not is_zero(n, tol)}
        return present, "+".join(sorted(present)) if present else "Kaehler"

    def lie_group_criterion(self, tol: float | None = None):
        """Value of 3|T2|^2 - |T12|^2 + |T6|^2 and whether it vanishes
        (equivalently, the torsion defines a Lie bracket)."""
        n2, n12, n6 = self.norms_sq
        value = 3 * n2 - n12 + n6
        return value, is_zero(value, tol)


def project_l3(t: Form, omega: Form = OMEGA) -> TorsionComponents:
    """Split a 3-form into the tau^2-eigencomponents (-9, -1, +1).

    Projector coefficients come from Lagrange interpolation on the three
    eigenvalues: p2 = (s^2-1)/80, p12 = -(s+9)(s-1)/16, p6 = (s+9)(s+1)/20
    with s = tau^2.
    """
    if t.degree != 3:
        raise ValueError("project_l3 needs a 3-form")
    s = tau(tau(t, omega), omega)
    s2 = tau(tau(s, omega), omega)
    t2 = Fraction(1, 80) * (s2 - t)
    t12 = Fraction(-1, 16) * (s2 + 8 * s - 9 * t)
    t6 = Fraction(1, 20) * (s2 + 10 * s + 9 * t)
    # invert X -> omega ^ X on the image; the images omega ^ e_i are
    # orthogonal of norm^2 = 2 for any hermitian omega
    x = []
    for i in range(1, DIM + 1):
        ei = Form.monomial((i,))
        x.append(inner(t6, wedge(omega, ei)) / Fraction(2))
    return TorsionComponents(t2, t12, t6, x)


@dataclass
class IntrinsicTorsion:
    gamma: list  # six SkewEndo values, one per frame vector, each in m6

    def is_zero(self) -> bool:
        return all(g.is_zero() for g in self.gamma)


def theta(t: Form) -> IntrinsicTorsion:
    """theta(T) = -1/2 sum_i e_i (x) pr_m6(e_i .J T)."""
    if t.degree != 3:
        raise ValueError("theta needs a 3-form")
    gamma = []
    for i in range(1, DIM + 1):
        v = [Fraction(0)] * DIM
        v[i - 1] = Fraction(1)
        a = endo_of_form(contract(v, t))
        _, m6, _, _ = split_so6(a)
        gamma.append(Fraction(-1, 2) * m6)
    return IntrinsicTorsion(gamma)


def torsion_type(t: Form, tol: float | None = None) -> tuple[set, str]:
    """Gray-Hervella classes present in a 3-form, with a strict-type string."""
    return project_l3(t).torsion_type(tol)


# --- U(2)-splitting of Lambda^3_2 and Lambda^3_12 (reduced frame, e5 = X) ---

OMEGA_H = Form(2, {(1, 2): Fraction(1), (3, 4): Fraction(1)})
OMEGA_V = Form(2, {(5, 6): Fraction(1)})
M2_BASIS = [
    Form(2, {(1, 3): Fraction(1), (2, 4): Fraction(-1)}),
    Form(2, {(1, 4): Fraction(1), (2, 3): Fraction(1)}),
]
L2_MINUS_BASIS = [
    Form(2, {(1, 2): Fraction(1), (3, 4): Fraction(-1)}),
    Form(2, {(1, 3): Fraction(1), (2, 4): Fraction(1)}),
    Form(2, {(1, 4): Fraction(1), (2, 3): Fraction(-1)}),
]
E5 = Form.monomial((5,))
E6 = Form.monomial((6,))


def f_complex(w: Form) -> Form:
    """The complex structure on m2: F(w) = 1/2 [Omega_H, w]."""
    b = endo_of_form(OMEGA_H).bracket(endo_of_form(w))
    return Fraction(1, 2) * form_of_endo(b)


def i1(w: Form) -> Form:
    return wedge(w, E5) - wedge(f_complex(w), E6)


def i2(w: Form) -> Form:
    return wedge(w, E5) + wedge(f_complex(w), E6)


def i3(w1: Form, w2: Form) -> Form:
    return wedge(w1, E5) + wedge(w2, E6)


def i5(v) -> Form:
    vf = Form(1, {(i + 1,): c for i, c in enumerate(v) if not is_zero(c)})
    return wedge(OMEGA_H - OMEGA_V, vf)


def u2_split(t2: Form, t12: Form):
    """Invert T2 = i1(O1), T12 = i2(O2) + i3(O3 + i O4) + i5(Y).

    Inputs must lie in the tau^2-eigenspaces for -9 and -1 respectively.
    Returns (O1, O2, O3, O4, Y) with O1, O2 in m2, O3, O4 anti-selfdual on
    span(e1..e4), and Y a vector in R^4.
    """
    c2 = project_l3(t2)
    if not (c2.t12.is_zero() and c2.t6.is_zero()):
        raise ValueError("first argument is not in the -9 eigenspace")
    c12 = project_l3(t12)
    if not (c12.t2.is_zero() and c12.t6.is_zero()):
        raise ValueError("second argument is not in the -1 eigenspace")

    cols1 = [i1(w).vector() for w in M2_BASIS]
    sol1 = linalg.column_space_coords(cols1, t2.vector())
    if sol1 is None:
        raise ValueError("could not invert i1")
    o1 = sol1[0] * M2_BASIS[0] + sol1[1] * M2_BASIS[1]

    e4basis = [[Fraction(1 if j == i else 0) for j in range(DIM)] for i in range(4)]
    cols12 = ([i2(w).vector() for w in M2_BASIS]
              + [i3(w, Form(2)).vector() for w in L2_MINUS_BASIS]
              + [i3(Form(2), w).vector() for w in L2_MINUS_BASIS]
              + [i5(v).vector() for v in e4basis])
    sol = linalg.column_space_coords(cols12, t12.vector())
    if sol is None:
        raise ValueError("could not invert i2 + i3 + i5")
    o2 = sol[0] * M2_BASIS[0] + sol[1] * M2_BASIS[1]
    o3 = sum((sol[2 + k] * L2_MINUS_BASIS[k] for k in range(3)), Form(2))
    o4 = sum((sol[5 + k] * L2_MINUS_BASIS[k] for k in range(3)), Form(2))
    y = sol[8:12]
    return o1, o2, o3, o4, y


# --- tori in U(3) ---

def torus_generator(k1, k2, k3) -> SkewEndo:
    """Infinitesimal generator of the torus with rotation speeds (k1,k2,k3)."""
    return endo_of_form(Form(2, {(1, 2): Fraction(k1), (3, 4): Fraction(k2),
                                 (5, 6): Fraction(k3)}))


def _action_matrix_on_l3(a: SkewEndo):
    basis = monomials(3)
    cols = [endo_act_on_form(a, Form.monomial(idx)).vector() for idx in basis]
    return linalg.transpose(cols)


@functools.cache
def _projector_matrices():
    basis = monomials(3)
    mats = {"t2": [], "t12": [], "t6": []}
    for idx in basis:
        comp = project_l3(Form.monomial(idx))
        mats["t2"].append(comp.t2.vector())
        mats["t12"].append(comp.t12.vector())
        mats["t6"].append(comp.t6.vector())
    return {k: linalg.transpose(v) for k, v in mats.items()}


def torus_fixed_dims(k1: int, k2: int, k3: int) -> tuple[int, int, int]:
    """Dimensions of the torus-fixed subspaces of the three 3-form modules."""
    if (k1, k2, k3) == (0, 0, 0):
        raise ValueError("the zero tuple does not define a torus")
    act = _action_matrix_on_l3(torus_generator(k1, k2, k3))
    projs = _projector_matrices()
    n = len(act)
    ident = linalg.identity(n)
    dims = []
    for key in ("t2", "t12", "t6"):
        p = projs[key]
        complement = [[ident[i][j] - p[i][j] for j in range(n)] for i in range(n)]
        dims.append(len(linalg.intersect_kernels([act, complement])))
    return tuple(dims)


def canonical_torus_tuple(k1: int, k2: int, k3: int) -> tuple[int, int, int]:
    """Canonical representative: zeros trailing, gcd 1, leading entries
    positive and sorted (k1 >= k2 > 0, k2 >= k3 when no entry vanishes)."""
    import math

    ks = [k1, k2, k3]
    if all(k == 0 for k in ks):
        raise ValueError("the zero tuple does not define a torus")
    g = math.gcd(*(abs(k) for k in ks))
    ks = [k // g for k in ks]
    nz = sorted((k for k in ks if k != 0), reverse=True)
    if len(nz) == 1:
        return (abs(nz[0]), 0, 0)
    if len(nz) == 2:
        a, b = nz
        # make the larger-magnitude entry positive and first
        if abs(b) > abs(a) or (abs(b) == abs(a) and b > a):
            a, b = b, a
        if a < 0:
            a, b = -a, -b
        return (a, b, 0)
    if sum(1 for k in nz if k > 0) < 2:
        nz = sorted((-k for k in nz), reverse=True)
    return tuple(nz)


def delta_class(k1: int, k2: int, k3: int):
    """Classify a torus tuple; returns (tag, canonical tuple, was_canonical)."""
    canon = canonical_torus_tuple(k1, k2, k3)
    a, b, c = canon
    if (b, c) == (0, 0):
        tag = "D1"
    elif c == 0:
        tag = "D2" if b == a else ("D3" if b == -a else "D4")
    elif c == -(a - b):
        tag = "D5"
    elif c == a - b:
        tag = "D6"
    elif c == -(a + b):
        tag = "D7"
    else:
        tag = "D8"
    return tag, canon, canon == (k1, k2, k3)


# --- isotropy algebras ---

def so6_basis():
    return [endo_of_form(Form.monomial(idx)) for idx in monomials(2)]


def _kernel_combinations(basis, images):
    """A basis of the combinations sum_a c_a basis[a] that a linear map sends
    to zero; images[a] is the coordinate vector of the image of basis[a]."""
    out = []
    for coeffs in linalg.nullspace(linalg.transpose(images)):
        m = SkewEndo.zero()
        for c, b in zip(coeffs, basis):
            m = m + c * b
        out.append(m)
    return out


@functools.cache
def u3_basis() -> tuple:
    """Deterministic basis of u(3) = {A in so(6): AJ = JA}, computed once;
    a tuple, because every caller shares it."""
    basis6 = so6_basis()
    rows = []
    for a in basis6:
        aj = a.compose(J)
        ja = J.compose(a)
        rows.append([aj[i][j] - ja[i][j] for i in range(DIM) for j in range(DIM)])
    return tuple(_kernel_combinations(basis6, rows))


def isotropy_algebra(t: Form, ambient=None):
    """Basis of the annihilator {A : A.T = 0} inside u(3) (or `ambient`)."""
    if t.degree != 3:
        raise ValueError("isotropy_algebra needs a 3-form")
    basis = ambient if ambient is not None else u3_basis()
    return _kernel_combinations(basis, [endo_act_on_form(a, t).vector()
                                        for a in basis])


@dataclass
class AlgebraLabel:
    tag: str
    dim: int
    evidence: dict = field(default_factory=dict)


def trivial_subspace_dim(basis) -> int:
    if not basis:
        return DIM
    return len(linalg.intersect_kernels([a.mat for a in basis]))


def complex_matrix(a: SkewEndo) -> sympy.Matrix:
    """The 3x3 complex matrix of an endomorphism commuting with J."""
    m = sympy.zeros(3, 3)
    for p in range(3):
        for q in range(3):
            re = sympy.Rational(Fraction(a.mat[2 * p][2 * q]))
            im = sympy.Rational(Fraction(a.mat[2 * p + 1][2 * q]))
            m[p, q] = re + sympy.I * im
    return m


def identify_algebra(basis) -> AlgebraLabel:
    """Identify a bracket-closed subalgebra of u(3) by its diagnostics."""
    if not basis:
        return AlgebraLabel("trivial", 0)
    span = [b.flat() for b in basis]
    dim = linalg.rank(span)
    brackets = [basis[i].bracket(basis[j])
                for i in range(len(basis)) for j in range(i + 1, len(basis))]
    for br in brackets:
        if linalg.column_space_coords(span, br.flat()) is None:
            raise ValueError("not closed under the bracket")
    derived_dim = linalg.rank([b.flat() for b in brackets]) if brackets else 0
    triv = trivial_subspace_dim(basis)
    evidence = {"derived_dim": derived_dim, "trivial_subspace_dim": triv}

    if dim == 8:
        return AlgebraLabel("su3", 8, evidence)
    if dim == 4:
        tag = _u2_tag(basis, evidence)
        return AlgebraLabel(tag, 4, evidence)
    if dim == 3:
        if derived_dim == 3:
            if triv == 2:
                return AlgebraLabel("su2", 3, evidence)
            if triv == 0:
                return AlgebraLabel("so3", 3, evidence)
        return AlgebraLabel("unknown", 3, evidence)
    if dim == 2 and derived_dim == 0:
        return AlgebraLabel("t2", 2, evidence)
    if dim == 1:
        return AlgebraLabel("t1", 1, evidence)
    return AlgebraLabel("unknown", dim, evidence)


def _u2_tag(basis, evidence) -> str:
    """u2_k from the weights (w, w, 2kw) of the center on C^3.  Exact centers
    are diagonalized exactly; float centers with numpy, comparing the weight
    ratios within DEFAULT_TOL relative to the largest |weight|."""
    center = _kernel_combinations(
        basis, [[x for a in basis for x in a.bracket(b).flat()] for b in basis])
    evidence["center_dim"] = len(center)
    if len(center) != 1:
        return "unknown"
    z = center[0]
    if all(is_exact(v) for row in z.mat for v in row):
        evs = []
        for ev, mult in complex_matrix(z).eigenvals().items():
            w = sympy.simplify(ev / sympy.I)
            if not w.is_rational:
                return "unknown"
            evs.extend([Fraction(int(w.p), int(w.q))] * mult)
        evidence["center_weights"] = [str(w) for w in sorted(evs)]

        def near(a, b):
            return a == b
    else:
        m = np.array([[z.mat[2 * p][2 * q] + 1j * z.mat[2 * p + 1][2 * q]
                       for q in range(3)] for p in range(3)], dtype=complex)
        evs = sorted((np.linalg.eigvals(m) / 1j).real.tolist())
        evidence["center_weights"] = [str(w) for w in evs]
        scale = max(abs(w) for w in evs)
        evs = [w / scale for w in evs]

        def near(a, b):
            return abs(a - b) <= DEFAULT_TOL
    for i, j, r in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        if near(evs[i], evs[j]) and not near(evs[i], 0):
            k = evs[r] / (2 * evs[i])
            for kk in (-1, 0, 1):
                if near(k, kk):
                    evidence["u2_k"] = kk
                    return f"u2_{kk}"
    return "unknown"


# --- S^2-twist for the SU(2)-related family ---

def su2_twist(t: Form, q, tol: float | None = None):
    """Replace J by the twisted complex structure q1 O1 + q2 O2 + q3 Omega_H
    on the horizontal planes, keeping the vertical complex structure.

    Returns (new J, (alpha1~, alpha5~)): the component norms of T with
    respect to the twisted structure.
    """
    q = list(q)
    if len(q) != 3 or not is_zero(q[0] ** 2 + q[1] ** 2 + q[2] ** 2 - 1, tol):
        raise ValueError("twist parameter must be a unit vector in R^3")
    comp = project_l3(t)
    o1, _, o3, o4, y = u2_split(comp.t2, comp.t12)
    if not (o3.is_zero(tol) and o4.is_zero(tol) and
            all(is_zero(c, tol) for c in y)):
        raise ValueError("form is not in the SU(2)-related family")
    if o1.is_zero(tol):
        omega1 = M2_BASIS[1]
    else:
        omega1 = o1 / sym_sqrt(norm_sq(o1) / Fraction(2))
    omega2 = f_complex(omega1)
    omega_h_new = q[0] * omega1 + q[1] * omega2 + q[2] * OMEGA_H
    omega_new = omega_h_new + OMEGA_V
    new_j = endo_of_form(omega_new)
    twisted = project_l3(t, omega_new)
    a1 = sym_sqrt(norm_sq(twisted.t2))
    a5 = sym_sqrt(norm_sq(twisted.t6) / Fraction(2))
    return new_j, (a1, a5)

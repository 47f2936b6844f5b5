"""Exterior algebra over oriented euclidean R^6 and the 2-form/endomorphism
dictionary.

Forms are stored as sparse maps from strictly increasing index tuples
(1-based, indices 1..6) to scalar coefficients.  Increasing-index monomials
are orthonormal in every degree; the orientation is the one in which
e1,...,e6 is positive.  The standard Kähler form is OMEGA = e12+e34+e56,
with complex structure J e1 = e2, J e3 = e4, J e5 = e6.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from .scalars import is_zero, rat, scalar_eq, to_float

DIM = 6


def monomials(degree: int):
    """All strictly increasing index tuples of the given length."""
    return list(itertools.combinations(range(1, DIM + 1), degree))


def sort_indices(idx):
    """(sorted tuple, sign) of an index sequence, or (None, 0) on repeats."""
    idx = list(idx)
    if len(set(idx)) != len(idx):
        return None, 0
    sign = 1
    # insertion sort, counting swaps
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    return tuple(idx), sign


def evaluate(w: Form, *idx):
    """The value of w on the frame vectors e_i, i in idx; 0 on a repeated index."""
    key, sign = sort_indices(idx)
    if key is None:
        return Fraction(0)
    return sign * w.coeff(key)


class Form:
    """A homogeneous alternating form on R^6."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs=None):
        if not 0 <= degree <= DIM:
            raise ValueError(f"degree must be in 0..{DIM}, got {degree}")
        self.degree = degree
        self.coeffs = {}
        if coeffs:
            for idx, c in coeffs.items():
                idx = tuple(idx)
                if len(idx) != degree or any(not 1 <= i <= DIM for i in idx):
                    raise ValueError(f"bad index tuple {idx} for degree {degree}")
                if tuple(sorted(idx)) != idx or len(set(idx)) != degree:
                    raise ValueError(f"index tuple {idx} not strictly increasing")
                if not is_zero(c):
                    self.coeffs[idx] = c

    @classmethod
    def zero(cls, degree: int) -> "Form":
        return cls(degree)

    @classmethod
    def monomial(cls, idx, coeff=1) -> "Form":
        idx = tuple(idx)
        return cls(len(idx), {idx: coeff})

    def coeff(self, idx):
        return self.coeffs.get(tuple(idx), Fraction(0))

    def is_zero(self, tol: float | None = None) -> bool:
        return all(is_zero(c, tol) for c in self.coeffs.values())

    def equals(self, other: "Form", tol: float | None = None) -> bool:
        if self.degree != other.degree:
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        return all(scalar_eq(self.coeff(k), other.coeff(k), tol) for k in keys)

    def __eq__(self, other):
        return isinstance(other, Form) and self.equals(other)

    def __hash__(self):
        raise TypeError("forms are not hashable")

    def __add__(self, other: "Form") -> "Form":
        if self.degree != other.degree:
            raise ValueError("degree mismatch in form addition")
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            out[idx] = out.get(idx, 0) + c
        return Form(self.degree, out)

    def __neg__(self) -> "Form":
        return Form(self.degree, {i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __mul__(self, scalar) -> "Form":
        return Form(self.degree, {i: c * scalar for i, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Form":
        return Form(self.degree, {i: c / scalar for i, c in self.coeffs.items()})

    def map_coeffs(self, fn) -> "Form":
        return Form(self.degree, {i: fn(c) for i, c in self.coeffs.items()})

    def to_float(self) -> "Form":
        return self.map_coeffs(to_float)

    def vector(self):
        """Coefficient vector over the increasing-monomial basis."""
        return [self.coeffs.get(idx, Fraction(0)) for idx in monomials(self.degree)]

    @classmethod
    def from_vector(cls, degree: int, vec) -> "Form":
        basis = monomials(degree)
        if len(vec) != len(basis):
            raise ValueError("coefficient vector has wrong length")
        return cls(degree, dict(zip(basis, vec)))

    def __str__(self):
        return format_form(self)

    __repr__ = __str__


def wedge(a: Form, b: Form) -> Form:
    """Exterior product."""
    deg = a.degree + b.degree
    if deg > DIM:
        return Form(DIM)
    out = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            idx, sign = sort_indices(ia + ib)
            if idx is None:
                continue
            out[idx] = out.get(idx, 0) + sign * ca * cb
    return Form(deg, out)


def _as_vector(v):
    if isinstance(v, Form):
        if v.degree != 1:
            raise ValueError("contraction direction must be a vector or 1-form")
        return [v.coeff((i,)) for i in range(1, DIM + 1)]
    v = list(v)
    if len(v) != DIM:
        raise ValueError("vector must have 6 components")
    return v


def contract(v, a: Form) -> Form:
    """Interior product v ⌟ a (metric-dual pairing in the first slot)."""
    if a.degree == 0:
        return Form(0)
    vec = _as_vector(v)
    out = {}
    for idx, c in a.coeffs.items():
        for pos, i in enumerate(idx):
            if is_zero(vec[i - 1]):
                continue
            rest = idx[:pos] + idx[pos + 1:]
            sign = -1 if pos % 2 else 1
            out[rest] = out.get(rest, 0) + sign * vec[i - 1] * c
    return Form(a.degree - 1, out)


def hodge(a: Form) -> Form:
    """Hodge star for the orthonormal basis e1..e6, orientation e123456."""
    out = {}
    full = tuple(range(1, DIM + 1))
    for idx, c in a.coeffs.items():
        comp = tuple(i for i in full if i not in idx)
        _, sign = sort_indices(idx + comp)
        out[comp] = out.get(comp, 0) + sign * c
    return Form(DIM - a.degree, out)


def inner(a: Form, b: Form):
    """Euclidean inner product; increasing monomials are orthonormal."""
    if a.degree != b.degree:
        raise ValueError("degree mismatch in inner product")
    s = Fraction(0)
    for idx, c in a.coeffs.items():
        if idx in b.coeffs:
            s = s + c * b.coeffs[idx]
    return s


def norm_sq(a: Form):
    return inner(a, a)


class SkewEndo:
    """A skew-symmetric endomorphism of R^6 (element of so(6))."""

    __slots__ = ("mat",)

    def __init__(self, mat, check: bool = True):
        self.mat = [list(row) for row in mat]
        if len(self.mat) != DIM or any(len(r) != DIM for r in self.mat):
            raise ValueError("matrix must be 6x6")
        if check:
            for i in range(DIM):
                for j in range(DIM):
                    if not is_zero(self.mat[i][j] + self.mat[j][i]):
                        raise ValueError("matrix is not skew-symmetric")

    @classmethod
    def zero(cls) -> "SkewEndo":
        return cls([[Fraction(0)] * DIM for _ in range(DIM)], check=False)

    def apply(self, v):
        v = _as_vector(v)
        return [sum((self.mat[i][j] * v[j] for j in range(DIM)), start=Fraction(0))
                for i in range(DIM)]

    def __add__(self, other: "SkewEndo") -> "SkewEndo":
        return SkewEndo([[a + b for a, b in zip(ra, rb)]
                         for ra, rb in zip(self.mat, other.mat)], check=False)

    def __sub__(self, other: "SkewEndo") -> "SkewEndo":
        return self + (-other)

    def __neg__(self) -> "SkewEndo":
        return SkewEndo([[-a for a in row] for row in self.mat], check=False)

    def __mul__(self, scalar) -> "SkewEndo":
        return SkewEndo([[a * scalar for a in row] for row in self.mat], check=False)

    __rmul__ = __mul__

    def compose(self, other: "SkewEndo"):
        """Matrix product self @ other (not skew in general)."""
        return [[sum((self.mat[i][k] * other.mat[k][j] for k in range(DIM)),
                     start=Fraction(0)) for j in range(DIM)] for i in range(DIM)]

    def bracket(self, other: "SkewEndo") -> "SkewEndo":
        ab = self.compose(other)
        ba = other.compose(self)
        return SkewEndo([[ab[i][j] - ba[i][j] for j in range(DIM)]
                         for i in range(DIM)], check=False)

    def is_zero(self, tol: float | None = None) -> bool:
        return all(is_zero(x, tol) for row in self.mat for x in row)

    def equals(self, other: "SkewEndo", tol: float | None = None) -> bool:
        return all(scalar_eq(a, b, tol)
                   for ra, rb in zip(self.mat, other.mat) for a, b in zip(ra, rb))

    def flat(self):
        """Entries above the diagonal, row-major (coordinates on so(6))."""
        return [self.mat[i][j] for i in range(DIM) for j in range(i + 1, DIM)]

    def __repr__(self):
        return f"SkewEndo({self.mat})"


def endo_of_form(w: Form) -> SkewEndo:
    """The endomorphism A with w(X, Y) = g(AX, Y)."""
    if w.degree != 2:
        raise ValueError("endo_of_form needs a 2-form")
    mat = [[Fraction(0)] * DIM for _ in range(DIM)]
    for (i, j), c in w.coeffs.items():
        # w(e_i, e_j) = g(A e_i, e_j) = A[j][i]
        mat[j - 1][i - 1] = c
        mat[i - 1][j - 1] = -c
    return SkewEndo(mat, check=False)


def form_of_endo(a: SkewEndo) -> Form:
    out = {}
    for i in range(DIM):
        for j in range(i + 1, DIM):
            out[(i + 1, j + 1)] = a.mat[j][i]
    return Form(2, out)


def endo_act_on_form(a: SkewEndo, w: Form) -> Form:
    """Derivation action: (A·w)(X1..Xk) = -sum_i w(X1,..,A Xi,..,Xk)."""
    if w.degree == 0:
        return Form(0)
    out = {}
    for idx in monomials(w.degree):
        s = Fraction(0)
        for pos, i in enumerate(idx):
            for m in range(1, DIM + 1):
                entry = a.mat[m - 1][i - 1]
                if is_zero(entry):
                    continue
                repl, sign = sort_indices(idx[:pos] + (m,) + idx[pos + 1:])
                if repl is None or repl not in w.coeffs:
                    continue
                s = s - entry * sign * w.coeffs[repl]
        if not is_zero(s):
            out[idx] = s
    return Form(w.degree, out)


OMEGA = Form(2, {(1, 2): Fraction(1), (3, 4): Fraction(1), (5, 6): Fraction(1)})
J = endo_of_form(OMEGA)
VOL = Form(6, {tuple(range(1, 7)): Fraction(1)})

# a coefficient with an exponent ('2.5e-3') must be followed by '*'; without
# it, 'e' starts the monomial, so '3e135' is 3*e135
_TERM_RE = re.compile(
    r"^(?:(?P<coeff>[^e]*?)\*?|(?P<ecoeff>(?:\d+\.?\d*|\.\d+)e[+-]?\d+)\*)"
    r"e(?P<idx>[1-6]+)$|^(?P<scalar>[^e]+)$"
)


def parse_form(text: str, exact: bool = True) -> Form:
    """Parse a form literal like '3e135 + e146 - 1/2*e236 + 2.5e-3*e245'.

    Coefficients may be rationals 'p/q', decimals, or decimals with an
    exponent followed by '*'; with exact=False the coefficients are floats.
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty form literal")
    # split into signed terms; a sign right after 'e' belongs to an exponent
    terms = re.findall(r"[+-]?(?:e[+-]|[^+-])+", s)
    if "".join(terms) != s:
        raise ValueError(f"cannot parse form literal {text!r}")
    parsed = []
    for term in terms:
        sign = 1
        body = term
        if body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        m = _TERM_RE.match(body)
        if not m:
            raise ValueError(f"cannot parse term {term!r} in {text!r}")
        if m.group("scalar") is not None:
            coeff_text, idx = m.group("scalar"), ()
        else:
            coeff_text = m.group("ecoeff") or m.group("coeff")
            idx = tuple(int(d) for d in m.group("idx"))
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError(f"indices must be strictly increasing in {term!r}")
        if coeff_text in ("", None):
            coeff = Fraction(1)
        else:
            coeff = rat(coeff_text) if "/" in coeff_text or exact else Fraction(coeff_text)
        if not exact:
            coeff = to_float(coeff)
        parsed.append((idx, sign * coeff))
    degree = len(parsed[0][0])
    if any(len(idx) != degree for idx, _ in parsed):
        raise ValueError(f"mixed degrees in form literal {text!r}")
    out = {}
    for idx, c in parsed:
        out[idx] = out.get(idx, 0) + c
    return Form(degree, out)


def _fmt_scalar(c) -> str:
    if isinstance(c, Fraction):
        return str(c)
    return repr(c)


def format_form(a: Form) -> str:
    """Deterministic printer; round-trips through parse_form."""
    if not a.coeffs:
        return "0"
    parts = []
    for idx in sorted(a.coeffs):
        c = a.coeffs[idx]
        mono = "e" + "".join(str(i) for i in idx) if idx else ""
        neg = False
        try:
            neg = c < 0
        except TypeError:
            pass
        body = _fmt_scalar(-c if neg else c)
        if mono:
            term = mono if body == "1" else f"{body}*{mono}"
        else:
            term = body
        if not parts:
            parts.append(("-" if neg else "") + term)
        else:
            parts.append(("- " if neg else "+ ") + term)
    return " ".join(parts)

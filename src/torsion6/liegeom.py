"""Lie algebras by structure constants and naturally reductive models.

Canonical connection torsion and curvature, Koszul formula, characteristic
connection, curvature and Ricci tensors, holonomy, and the reconstruction
of a Lie algebra from a torsion/curvature pair.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .forms import (
    DIM,
    Form,
    SkewEndo,
    endo_act_on_form,
    endo_of_form,
    evaluate,
    monomials,
    sort_indices,
)
from .scalars import DEFAULT_TOL, is_zero, to_float

MON2 = monomials(2)


class LieAlgebraData:
    """Structure constants c[i,j,k] with [x_i, x_j] = sum_k c[i,j,k] x_k,
    stored for i < j (1-based)."""

    def __init__(self, dim, constants=None, labels=None):
        self.dim = dim
        self.c = {}
        self.labels = labels or [f"x{i}" for i in range(1, dim + 1)]
        for (i, j, k), v in (constants or {}).items():
            self._set(i, j, k, v)

    def _set(self, i, j, k, v):
        if not (1 <= i <= self.dim and 1 <= j <= self.dim and 1 <= k <= self.dim):
            raise ValueError(f"index out of range in c[{i},{j},{k}]")
        if i == j:
            raise ValueError("structure constants need i != j")
        if i > j:
            i, j, v = j, i, -v
        if is_zero(v):
            self.c.pop((i, j, k), None)
        else:
            self.c[(i, j, k)] = v

    def bracket_basis(self, i, j):
        out = [Fraction(0)] * self.dim
        sign = 1
        if i == j:
            return out
        if i > j:
            i, j, sign = j, i, -1
        for k in range(1, self.dim + 1):
            v = self.c.get((i, j, k))
            if v is not None:
                out[k - 1] = sign * v
        return out

    def entries(self):
        """(i, j, k, c[i,j,k]) for every nonzero constant, 0-based, with both
        orders of i and j."""
        for (i, j, k), v in self.c.items():
            yield i - 1, j - 1, k - 1, v
            yield j - 1, i - 1, k - 1, -v

    def bracket(self, x, y):
        out = [Fraction(0)] * self.dim
        for i in range(self.dim):
            if is_zero(x[i]):
                continue
            for j in range(self.dim):
                if is_zero(y[j]):
                    continue
                b = self.bracket_basis(i + 1, j + 1)
                for k in range(self.dim):
                    out[k] = out[k] + x[i] * y[j] * b[k]
        return out

    def to_text(self):
        lines = [f"dim = {self.dim}"]
        for (i, j, k), v in sorted(self.c.items()):
            lines.append(f"c[{i},{j},{k}] = {v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        dim = None
        constants = {}
        for raw in text.splitlines():
            line = raw.split("#")[0].strip()
            if not line:
                continue
            m = re.fullmatch(r"dim\s*=\s*(\d+)", line)
            if m:
                dim = int(m.group(1))
                continue
            m = re.fullmatch(r"c\[(\d+),(\d+),(\d+)\]\s*=\s*(\S+)", line)
            if not m:
                raise ValueError(f"cannot parse line {line!r}")
            i, j, k = (int(m.group(x)) for x in (1, 2, 3))
            constants[(i, j, k)] = Fraction(m.group(4))
        if dim is None:
            raise ValueError("missing 'dim = n' line")
        return cls(dim, constants)


def jacobi_check(L: LieAlgebraData):
    """Whether the Jacobi identity holds; returns (ok, worst residual)."""
    worst = Fraction(0)
    n = L.dim
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                acc = [Fraction(0)] * n
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = L.bracket_basis(a, b)
                    outer = L.bracket(inner, [Fraction(1 if m == c - 1 else 0)
                                              for m in range(n)])
                    for m in range(n):
                        acc[m] = acc[m] + outer[m]
                for v in acc:
                    if abs(to_float(v)) > abs(to_float(worst)):
                        worst = v
    return is_zero(worst), worst


def su2_algebra():
    """[x_i, x_{i+1}] = x_{i+2} cyclically."""
    return LieAlgebraData(3, {(1, 2, 3): Fraction(1), (2, 3, 1): Fraction(1),
                              (1, 3, 2): Fraction(-1)})


@dataclass
class CurvatureRecord:
    """Pair-symmetric curvature 4-tensor on the model space, stored as a
    symmetric matrix over the 15 increasing 2-form monomials, together with
    a basis of the subalgebra containing its values."""

    mat: list
    basis: list = field(default_factory=list)

    def __post_init__(self):
        n = len(MON2)
        for a in range(n):
            for b in range(a + 1, n):
                x, y = self.mat[a][b], self.mat[b][a]
                if x != y and not is_zero(x - y):
                    raise ValueError("curvature record is not pair symmetric")

    def value(self, i, j, k, l):
        si = sj = 1
        if i > j:
            i, j, si = j, i, -1
        if k > l:
            k, l, sj = l, k, -1
        if i == j or k == l:
            return Fraction(0)
        return si * sj * self.mat[MON2.index((i, j))][MON2.index((k, l))]

    def endo(self, i, j) -> SkewEndo:
        w = Form(2, {m: self.mat[MON2.index(tuple(sorted((i, j))))][b]
                     for b, m in enumerate(MON2)})
        if i > j:
            w = -1 * w
        return endo_of_form(w)

    def is_zero(self):
        return all(is_zero(v) for row in self.mat for v in row)

    def cyclic_sum(self) -> Form:
        out = {}
        for idx in monomials(4):
            x, y, z, u = idx
            v = self.value(x, y, z, u) + self.value(y, z, x, u) \
                + self.value(z, x, y, u)
            if not is_zero(v):
                out[idx] = v
        return Form(4, out)

    def __add__(self, other):
        n = len(MON2)
        return CurvatureRecord([[self.mat[a][b] + other.mat[a][b]
                                 for b in range(n)] for a in range(n)],
                               self.basis or other.basis)

    def __rmul__(self, c):
        return CurvatureRecord([[c * v for v in row] for row in self.mat],
                               self.basis)

    def equals(self, other, tol=None):
        n = len(MON2)
        return all(is_zero(self.mat[a][b] - other.mat[a][b], tol)
                   for a in range(n) for b in range(n))

    def to_json(self):
        entries = {}
        for a, (i, j) in enumerate(MON2):
            for b, (k, l) in enumerate(MON2):
                if b < a or is_zero(self.mat[a][b]):
                    continue
                entries[f"R({i}{j},{k}{l})"] = str(self.mat[a][b])
        return json.dumps(entries, indent=2, sort_keys=True)


def zero_curvature() -> CurvatureRecord:
    n = len(MON2)
    return CurvatureRecord([[Fraction(0)] * n for _ in range(n)], [])


def curvature_from_pairs(values, basis=None) -> CurvatureRecord:
    """Build a record from a dict {((i,j),(k,l)): value} on increasing pairs,
    symmetrized automatically."""
    n = len(MON2)
    mat = [[Fraction(0)] * n for _ in range(n)]
    for (p, q), v in values.items():
        a, b = MON2.index(tuple(p)), MON2.index(tuple(q))
        mat[a][b] = v
        mat[b][a] = v
    return CurvatureRecord(mat, basis or [])


def projector_record(forms_basis) -> CurvatureRecord:
    """R = sum_a w_a (x) w_a for an orthogonal basis, normalized so that the
    record acts as the identity on the spanned subalgebra."""
    from .forms import inner, norm_sq

    n = len(MON2)
    mat = [[Fraction(0)] * n for _ in range(n)]
    for w in forms_basis:
        nw = norm_sq(w)
        va = w.vector()
        for a in range(n):
            for b in range(n):
                mat[a][b] = mat[a][b] + va[a] * va[b] / nw
    return CurvatureRecord(mat, [endo_of_form(w) for w in forms_basis])


class ReductiveModel:
    """A Lie algebra with a reductive split g = h + m and an adapted
    orthonormal frame of m listed in hermitian order."""

    def __init__(self, algebra: LieAlgebraData, h_idx, m_idx):
        if sorted(list(h_idx) + list(m_idx)) != list(range(1, algebra.dim + 1)):
            raise ValueError("h and m indices must partition the basis")
        if len(m_idx) != DIM:
            raise ValueError("m must be 6-dimensional")
        self.algebra = algebra
        self.h_idx = list(h_idx)
        self.m_idx = list(m_idx)
        for h in self.h_idx:
            for m in self.m_idx:
                br = algebra.bracket_basis(h, m)
                for k in self.h_idx:
                    if not is_zero(br[k - 1]):
                        raise ValueError("[h, m] is not contained in m")

    def _m_part(self, vec):
        return [vec[i - 1] for i in self.m_idx]

    def _h_part(self, vec):
        return [vec[i - 1] for i in self.h_idx]

    def bracket_m(self, a, b):
        """Bracket of the a-th and b-th frame vectors (1-based in m)."""
        return self.algebra.bracket_basis(self.m_idx[a - 1], self.m_idx[b - 1])

    def naturally_reductive(self):
        for a in range(1, DIM + 1):
            for b in range(1, DIM + 1):
                for c in range(1, DIM + 1):
                    lhs = self._m_part(self.bracket_m(a, b))[c - 1] \
                        + self._m_part(self.bracket_m(a, c))[b - 1]
                    if not is_zero(lhs):
                        return False
        return True


def canonical_data(model: ReductiveModel):
    """Torsion and curvature of the canonical connection of a reductive
    model: T(X,Y) = -[X,Y]_m and R(X,Y)Z = -[[X,Y]_h, Z]."""
    tcoeffs = {}
    for (i, j) in MON2:
        br = model._m_part(model.bracket_m(i, j))
        for k in range(j + 1, DIM + 1):
            if not is_zero(br[k - 1]):
                tcoeffs[(i, j, k)] = -br[k - 1]
    t = Form(3, tcoeffs)
    nat = model.naturally_reductive()
    n = len(MON2)
    mat = [[Fraction(0)] * n for _ in range(n)]
    endos = {}
    for a, (i, j) in enumerate(MON2):
        hpart = [v for v in model.bracket_m(i, j)]
        # keep only the h-component
        for idx in model.m_idx:
            hpart[idx - 1] = Fraction(0)
        cols = []
        for b in range(DIM):
            ej = [Fraction(1 if k - 1 == model.m_idx[b] - 1 else 0)
                  for k in range(1, model.algebra.dim + 1)]
            out = model.algebra.bracket(hpart, ej)
            cols.append(model._m_part(out))
        # R(ei,ej) Z = -[h, Z]; matrix columns are images of the frame
        rmat = [[-cols[b][aa] for b in range(DIM)] for aa in range(DIM)]
        endos[(i, j)] = SkewEndo(rmat)
        for b, (k, l) in enumerate(MON2):
            # R(i,j,k,l) = g(R(ei,ej) ek, el)
            mat[a][b] = rmat[l - 1][k - 1]
    rec = CurvatureRecord(mat, _span_endos(list(endos.values())))
    return t, rec, nat


def _span_endos(endos):
    rows = [e.flat() for e in endos]
    red, pivots = linalg.rref(rows)
    out = []
    for r in red[:len(pivots)]:
        if any(not is_zero(v) for v in r):
            mat = [[Fraction(0)] * DIM for _ in range(DIM)]
            pos = 0
            for i in range(DIM):
                for j in range(i + 1, DIM):
                    mat[i][j] = r[pos]
                    mat[j][i] = -r[pos]
                    pos += 1
            out.append(SkewEndo(mat))
    return out


# --- left-invariant connections on a 6-dimensional Lie algebra ---

def levi_civita(L: LieAlgebraData, g=None):
    """Connection coefficients gamma[i][j] = components of the covariant
    derivative of the j-th frame field in the i-th direction (Koszul):
    gamma[i][j] = g^-1 1/2 (B[i,j,.] - B[j,.,i] + B[.,i,j]) with the lowered
    structure constants B[i,j,k] = g([e_i, e_j], e_k)."""
    n = L.dim
    if g is None:
        g = linalg.identity(n)
    ginv = _inverse(g)
    g_rows = [[(k, x) for k, x in enumerate(row) if not is_zero(x)]
              for row in g]
    low = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j, a, v in L.entries():
        row = low[i][j]
        for k, x in g_rows[a]:
            row[k] = row[k] + v * x
    half = Fraction(1, 2)
    return [[linalg.mat_vec(ginv, [half * (low[i][j][k] - low[j][k][i]
                                           + low[k][i][j])
                                   for k in range(n)])
             for j in range(n)] for i in range(n)]


def _basis_vec(n, i):
    return [Fraction(1 if k == i else 0) for k in range(n)]


def _inverse(g):
    n = len(g)
    aug = [list(row) + _basis_vec(n, i) for i, row in enumerate(g)]
    red, pivots = linalg.rref(aug)
    if len(pivots) < n or pivots != list(range(n)):
        raise ValueError("metric is degenerate")
    return [row[n:] for row in red]


def characteristic_connection(L: LieAlgebraData, t: Form, g=None):
    """Levi-Civita plus half the torsion, nabla^c = nabla^g + 1/2 T."""
    if t.degree != 3:
        raise ValueError("torsion must be a 3-form")
    n = L.dim
    if g is None:
        g = linalg.identity(n)
    ginv = _inverse(g)
    gamma = levi_civita(L, g)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            corr = [Fraction(0)] * n
            for k in range(n):
                v = evaluate(t, i + 1, j + 1, k + 1)
                corr[k] = Fraction(1, 2) * v
            corr = linalg.mat_vec(ginv, corr)
            out[i][j] = [gamma[i][j][k] + corr[k] for k in range(n)]
    return out


def connection_torsion(L: LieAlgebraData, conn) -> Form:
    """T(X,Y) = nabla_X Y - nabla_Y X - [X,Y], lowered to a 3-form; raises
    if the result is not totally skew."""
    n = L.dim
    coeffs = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            br = L.bracket_basis(i, j)
            vec = [conn[i - 1][j - 1][k] - conn[j - 1][i - 1][k] - br[k]
                   for k in range(n)]
            for k in range(1, n + 1):
                if k in (i, j):
                    if not is_zero(vec[k - 1]):
                        raise ValueError("connection torsion is not totally skew")
                    continue
                idx, sign = sort_indices((i, j, k))
                val = sign * vec[k - 1]
                if idx in coeffs:
                    if not is_zero(coeffs[idx] - val):
                        raise ValueError("connection torsion is not totally skew")
                elif not is_zero(val):
                    coeffs[idx] = val
    return Form(3, coeffs)


def is_metric(L, conn, g=None):
    n = L.dim
    if g is None:
        g = linalg.identity(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                v = sum(conn[i][j][a] * g[a][k] for a in range(n)) \
                    + sum(conn[i][k][a] * g[a][j] for a in range(n))
                if not is_zero(v):
                    return False
    return True


def connection_curvature(L: LieAlgebraData, conn) -> CurvatureRecord:
    """R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z
    for left-invariant fields, lowered with the orthonormal metric."""
    n = L.dim
    if n != DIM:
        raise ValueError("curvature record requires a 6-dimensional frame")

    def nab(i, vec):
        out = [Fraction(0)] * n
        for j in range(n):
            if is_zero(vec[j]):
                continue
            for k in range(n):
                out[k] = out[k] + vec[j] * conn[i][j][k]
        return out

    mat = [[Fraction(0)] * len(MON2) for _ in range(len(MON2))]
    endos = []
    for a, (i, j) in enumerate(MON2):
        cols = []
        for z in range(n):
            ez = _basis_vec(n, z)
            v1 = nab(i - 1, nab(j - 1, ez))
            v2 = nab(j - 1, nab(i - 1, ez))
            br = L.bracket_basis(i, j)
            v3 = [Fraction(0)] * n
            for m in range(n):
                if is_zero(br[m]):
                    continue
                nm = nab(m, ez)
                for k in range(n):
                    v3[k] = v3[k] + br[m] * nm[k]
            cols.append([v1[k] - v2[k] - v3[k] for k in range(n)])
        rmat = [[cols[z][k] for z in range(n)] for k in range(n)]
        endos.append(SkewEndo(rmat, check=False))
        for b, (k, l) in enumerate(MON2):
            mat[a][b] = rmat[l - 1][k - 1]
    return CurvatureRecord(mat, _span_endos(endos))


def ricci(rec: CurvatureRecord, g=None):
    """Ric(X,Y) = sum_i R(e_i, X, Y, e_i), traced with the metric."""
    ginv = linalg.identity(DIM) if g is None else _inverse(g)
    out = [[Fraction(0)] * DIM for _ in range(DIM)]
    for x in range(1, DIM + 1):
        for y in range(1, DIM + 1):
            s = Fraction(0)
            for i in range(1, DIM + 1):
                for j in range(1, DIM + 1):
                    if not is_zero(ginv[i - 1][j - 1]):
                        s = s + ginv[i - 1][j - 1] * rec.value(i, x, y, j)
            out[x - 1][y - 1] = s
    return out


def is_einstein(ric, g=None, tol=None):
    """Whether Ric = c g; returns (bool, c or None)."""
    if g is None:
        g = linalg.identity(DIM)
    c = sum(ric[i][i] for i in range(DIM)) / sum(g[i][i] for i in range(DIM))
    for i in range(DIM):
        for j in range(DIM):
            if not is_zero(ric[i][j] - c * g[i][j], tol):
                return False, None
    return True, c


def curvature_gap(t: Form) -> CurvatureRecord:
    """The difference between the curvatures of the characteristic and the
    Levi-Civita connection when the torsion is parallel:
    1/4 <T(X,Y), T(Z,U)> + 1/4 sigma_T(X,Y,Z,U)."""
    from .orbits import sigma

    sig = sigma(t)
    n = len(MON2)
    mat = [[Fraction(0)] * n for _ in range(n)]
    quarter = Fraction(1, 4)
    for a, (i, j) in enumerate(MON2):
        for b, (k, l) in enumerate(MON2):
            s = Fraction(0)
            for m in range(1, DIM + 1):
                s = s + evaluate(t, i, j, m) * evaluate(t, k, l, m)
            s = quarter * s + quarter * evaluate(sig, i, j, k, l)
            mat[a][b] = s
    return CurvatureRecord(mat, [])


def covariant_derivative_form(L, conn, t: Form, direction):
    """(nabla_X t)(Y1..Yk) = -sum_i t(Y1,..,nabla_X Yi,..,Yk) for a
    left-invariant form; direction is a frame index (1-based).  This is the
    derivation action of the matrix whose columns are nabla_X e_j."""
    if L.dim != DIM:
        raise ValueError("covariant derivative requires a 6-dimensional frame")
    return endo_act_on_form(
        SkewEndo(linalg.transpose(conn[direction - 1]), check=False), t)


def holonomy_algebra(t: Form, rec: CurvatureRecord):
    """Lie algebra generated by the curvature images; must annihilate T."""
    gens = list(rec.basis)
    basis = []
    rows = []

    def add(e):
        flat = e.flat()
        if linalg.rank(rows + [flat]) > len(basis):
            rows.append(flat)
            basis.append(e)
            return True
        return False

    for e in gens:
        add(e)
    changed = True
    while changed:
        changed = False
        for a in list(basis):
            for b in list(basis):
                if add(a.bracket(b)):
                    changed = True
    for e in basis:
        if not endo_act_on_form(e, t).is_zero():
            raise ValueError("curvature values do not annihilate the torsion")
    return basis


def nomizu(t: Form, rec: CurvatureRecord) -> LieAlgebraData:
    """Lie algebra on h + R^6 with bracket ([A,B] - R(X,Y),
    A Y - B X - T(X,Y)), where h is the record's value subalgebra."""
    h = list(rec.basis)
    nh = len(h)
    n = nh + DIM
    hrows = [e.flat() for e in h]

    def h_coords(e):
        sol = linalg.column_space_coords(hrows, e.flat())
        if sol is None:
            raise ValueError("not an infinitesimal model: values leave h")
        return sol

    constants = {}

    def put(i, j, vec):
        for k in range(n):
            if not is_zero(vec[k]):
                constants[(i, j, k + 1)] = vec[k]

    for a in range(nh):
        for b in range(a + 1, nh):
            br = h[a].bracket(h[b])
            put(a + 1, b + 1, list(h_coords(br)) + [Fraction(0)] * DIM)
    for a in range(nh):
        for x in range(DIM):
            img = h[a].apply(_basis_vec(DIM, x))
            put(a + 1, nh + x + 1, [Fraction(0)] * nh + img)
    for x in range(DIM):
        for y in range(x + 1, DIM):
            rxy = rec.endo(x + 1, y + 1)
            hvec = [-v for v in h_coords(rxy)]
            tvec = [-evaluate(t, x + 1, y + 1, k) for k in range(1, DIM + 1)]
            put(nh + x + 1, nh + y + 1, list(hvec) + tvec)
    L = LieAlgebraData(n, constants)
    ok, worst = jacobi_check(L)
    if not ok:
        raise ValueError(f"not an infinitesimal model: Jacobi residual {worst}")
    return L


def algebra_fingerprint(L: LieAlgebraData):
    """Structural invariants: dimension, derived series dims, center dim,
    Killing form signature."""
    n = L.dim
    basis = [_basis_vec(n, i) for i in range(n)]

    def span_brackets(space_a, space_b):
        rows = []
        for x in space_a:
            for y in space_b:
                rows.append(L.bracket(x, y))
        red, pivots = linalg.rref(rows)
        return [r for r in red[:len(pivots)]]

    derived = []
    cur = basis
    for _ in range(4):
        nxt = span_brackets(cur, cur)
        derived.append(len(nxt))
        if not nxt or len(nxt) == len(cur):
            break
        cur = nxt

    # center: x with [x, e_i] = 0 for all i
    rows = []
    for i in range(n):
        cols = [L.bracket_basis(j + 1, i + 1) for j in range(n)]
        rows.extend(linalg.transpose(cols))
    center = len(linalg.nullspace(rows))

    # B(i, j) = tr(ad_i ad_j); ad[i] holds the nonzero entries (k, m) of ad_i
    ad = [{} for _ in range(n)]
    for i, m, k, v in L.entries():
        ad[i][(k, m)] = v
    killing = [[sum((v * ad[j][(m, k)] for (k, m), v in ad[i].items()
                     if (m, k) in ad[j]), Fraction(0))
                for j in range(n)] for i in range(n)]
    pos, neg = _signature(killing)
    return {"dim": n, "derived": tuple(derived), "center": center,
            "killing": (pos, neg)}


def _signature(sym):
    import numpy as np

    vals = np.linalg.eigvalsh(np.array([[to_float(v) for v in row]
                                        for row in sym]))
    pos = int(np.sum(vals > DEFAULT_TOL))
    neg = int(np.sum(vals < -DEFAULT_TOL))
    return pos, neg

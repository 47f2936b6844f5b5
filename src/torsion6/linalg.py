"""Dense linear algebra over exact scalars (and floats with pivot tolerance).

Matrices are lists of row lists.  Entries may mix ints, Fractions and sympy
expressions; the elimination code only relies on field arithmetic plus the
zero test from :mod:`torsion6.scalars`.  Sizes in this package are tiny
(the largest recurring space is the 20-dimensional space of 3-forms), so a
straightforward fraction-free-less Gaussian elimination is plenty.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import is_exact, is_zero, to_float


def transpose(a):
    return [list(col) for col in zip(*a)]


def _copy(a):
    return [list(row) for row in a]


def _pivot_in_column(mat, col, start):
    """Row index of the pivot in `col` at/below `start`, or None."""
    exact_rows = [r for r in range(start, len(mat)) if not is_zero(mat[r][col])]
    if not exact_rows:
        return None
    if all(is_exact(mat[r][col]) for r in exact_rows):
        return exact_rows[0]
    return max(exact_rows, key=lambda r: abs(to_float(mat[r][col])))


def rref(mat):
    """Reduced row echelon form (copy) plus the list of pivot columns."""
    a = _copy(mat)
    if not a or not a[0]:
        return a, []
    nrows, ncols = len(a), len(a[0])
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        piv = _pivot_in_column(a, col, row)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        p = a[row][col]
        a[row] = [x / p for x in a[row]]
        for r in range(nrows):
            if r != row and not is_zero(a[r][col]):
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
    return a, pivots


def rank(mat) -> int:
    return len(rref(mat)[1])


def nullspace(mat):
    """Basis of the right kernel, as a list of vectors."""
    if not mat:
        return []
    ncols = len(mat[0])
    red, pivots = rref(mat)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(mat, rhs):
    """One solution of mat @ x = rhs, or None if inconsistent."""
    if not mat:
        return [] if all(is_zero(b) for b in rhs) else None
    ncols = len(mat[0])
    aug = [list(row) + [b] for row, b in zip(mat, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def column_space_coords(basis_cols, vec):
    """Coordinates of `vec` in the span of `basis_cols`, or None."""
    if not basis_cols:
        return [] if all(is_zero(b) for b in vec) else None
    mat = transpose(basis_cols)
    return solve(mat, vec)


def intersect_kernels(mats):
    """Basis of the common kernel of a list of matrices."""
    stacked = []
    for m in mats:
        stacked.extend(m)
    if not stacked:
        raise ValueError("need at least one matrix")
    return nullspace(stacked)

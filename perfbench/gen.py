"""Seeded inputs for the torsion6 benchmark, and the oracle tables they are
checked against.

Nothing here imports torsion6: the normal forms, the U(3) rotation and the
expected answers are the benchmark's own copies, so that a refactor of the
library cannot silently change what a benchmark operation is checked
against.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

# The eleven singular-orbit normal forms: case -> (strict Gray-Hervella
# type, isotropy algebra label, isotropy dimension).
CASES = {
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
FIRST_FAMILY = ("I", "II", "III", "IV", "V", "VI")

# Betti vectors of the two-step nilpotent structures of the nil families.
NIL_BETTI = {
    "(0,0,0,0,0,12)": (1, 5, 11, 14, 11, 5, 1),
    "(0,0,0,0,0,12+34)": (1, 5, 9, 10, 9, 5, 1),
    "(0,0,0,0,12,34)": (1, 4, 8, 10, 8, 4, 1),
}

# Rows of the local-model table for torus holonomy: alpha -> group.
LOCAL_MODEL_ROWS = (
    ((F(-3), F(1), F(1)), "s3 x sl2r"),
    ((F(1, 2), F(1), F(1)), "s3 x s3"),
    ((F(3), F(1), F(1)), "s3 x sl2r"),
    ((F(1), F(1), F(1)), "s3 x n11"),
    ((F(1), F(1), F(0)), "t3 x n11"),
)


def local_model(a3, a4, a5):
    """The table's group for alpha, by the region its row stands for."""
    if a5 == 0:
        return "t3 x n11"
    if a3 in (a5, -a5):
        return "s3 x n11"
    if a3 + a5 < 0 or a3 - a5 > 0:
        return "s3 x sl2r"
    return "s3 x s3"


assert all(local_model(*a) == g for a, g in LOCAL_MODEL_ROWS)


# Fingerprint (dim, derived series, center dim, Killing signature) of the
# Lie algebra that the Nomizu construction rebuilds from (T, R) of each
# reductive entry.
_FLAT_S3XS3 = (6, (6,), 0, (0, 6))
NOMIZU_FINGERPRINT = {
    "s3xs3-t2": _FLAT_S3XS3,
    "s3xt3-t2": (6, (3, 3), 3, (0, 3)),
    "s3xs3-t2bundle": (7, (6, 6), 1, (0, 6)),
    "s3xs3-so3": (9, (9,), 0, (0, 9)),
    "sl2c-so3": (9, (9,), 0, (3, 6)),
    "e3-so3": (6, (3, 3), 3, (0, 3)),
    "n6-so3": (9, (9,), 0, (0, 3)),
    "s5xs1": (9, (8, 8), 1, (0, 8)),
}


def nomizu_fingerprint(entry, p):
    """Expected fingerprint at a point.  Where the characteristic curvature
    vanishes (lambda = 0) the holonomy is trivial and the rebuilt algebra
    is that of the flat s3 x s3."""
    if entry == "s3xs3-t2bundle" and p["a3"] ** 2 + p["a4"] ** 2 == p["a5"] ** 2:
        return _FLAT_S3XS3
    if entry == "s3xs3-so3" and p["b"] / p["k1"] + p["d"] / p["k2"] == 0:
        return _FLAT_S3XS3
    return NOMIZU_FINGERPRINT[entry]


def _pos(rng, top=6):
    """A positive rational of small height."""
    return F(rng.randint(1, top), rng.randint(1, 3))


def _nonzero(rng, top=6):
    return _pos(rng, top) * rng.choice((1, -1))


# --- the normal forms I-XI --------------------------------------------------

def case_params(rng, case):
    """Random parameters in the open range of one case.

    Draws stay off two loci inside the ranges of III, IV and VI where the
    orbit type jumps, so the case tag there is not the one the range is
    named after: a4 is never 0 (with a3 = a5 the form collapses to a
    multiple of e125), and a3 = 0 comes with a4 != a1 (a3 = 0, a4 = a1
    has isotropy so3, case XI).
    """
    if case in FIRST_FAMILY:
        p = dict(a1=F(0), a3=F(0), a4=F(0), a5=F(0))
        if case in ("II", "III", "V", "VI"):
            p["a1"] = _pos(rng)
        if case in ("I", "IV", "V", "VI"):
            p["a5"] = _pos(rng)
        if case in ("III", "IV", "VI"):
            if rng.random() < 0.5:
                while p["a4"] in (0, p["a1"]):
                    p["a4"] = _pos(rng)
            else:
                p["a3"], p["a4"] = _pos(rng), _nonzero(rng)
        return p
    p = dict(a1=F(0), a2=F(0), b1=F(0), b2=F(0))
    if case == "VII":
        p["a1"] = _pos(rng)
    elif case == "VIII":
        p["b2"] = _nonzero(rng)
    elif case == "IX":
        p["b1"] = _nonzero(rng)
    else:
        p["b2"] = _nonzero(rng)
        p["b1"] = 2 * p["b2"]
        if case == "XI":
            p["a1"], p["a2"] = _nonzero(rng), _nonzero(rng)
    return p


def case_coeffs(case, p):
    """Coefficients {(i, j, k): value} of the normal form of `case`."""
    if case in FIRST_FAMILY:
        a1, a3, a4, a5 = p["a1"], p["a3"], p["a4"], p["a5"]
        raw = {(1, 4, 5): a1, (2, 3, 5): a1, (1, 2, 5): a3 + a5,
               (3, 4, 5): a5 - a3, (1, 2, 6): a4, (3, 4, 6): -a4}
    else:
        a1, a2, b1, b2 = p["a1"], p["a2"], p["b1"], p["b2"]
        raw = {(1, 4, 5): a1, (2, 3, 5): a1, (1, 3, 6): a1, (2, 4, 6): -a1,
               (1, 3, 5): b2 - a2, (2, 4, 5): a2 - b2,
               (1, 4, 6): a2 + b2, (2, 3, 6): a2 + b2,
               (1, 2, 5): b1, (3, 4, 5): -b1}
    return {k: v for k, v in raw.items() if v != 0}


# --- exact U(3) rotation ------------------------------------------------------

def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(6)) for j in range(6)]
            for i in range(6)]


def _inverse(m):
    n = len(m)
    a = [list(row) + [F(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


# J e1 = e2, J e3 = e4, J e5 = e6
_J = [[F(0)] * 6 for _ in range(6)]
for _k in range(3):
    _J[2 * _k + 1][2 * _k] = F(1)
    _J[2 * _k][2 * _k + 1] = F(-1)


def cayley_u3(rng):
    """An exact element of U(3): the Cayley transform (I - A)(I + A)^-1 of
    a seeded rational A in u(3) (skew and commuting with J)."""
    a = [[F(0)]]
    while not any(any(row) for row in a):
        s = [[F(0)] * 6 for _ in range(6)]
        for i in range(6):
            for j in range(i + 1, 6):
                s[i][j] = F(rng.randint(-2, 2), rng.randint(1, 2))
                s[j][i] = -s[i][j]
        jsj = _mat_mul(_J, _mat_mul(s, _J))
        a = [[(s[i][j] - jsj[i][j]) / 2 for j in range(6)] for i in range(6)]
    ident = [[F(int(i == j)) for j in range(6)] for i in range(6)]
    minus = [[ident[i][j] - a[i][j] for j in range(6)] for i in range(6)]
    plus = [[ident[i][j] + a[i][j] for j in range(6)] for i in range(6)]
    return _mat_mul(minus, _inverse(plus))


_TRIPLES = [(i, j, k) for i in range(1, 7) for j in range(i + 1, 7)
            for k in range(j + 1, 7)]


def _minor3(u, rows, cols):
    (a, b, c), (x, y, z) = rows, cols
    m = [[u[r - 1][s - 1] for s in (x, y, z)] for r in (a, b, c)]
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def rotate(coeffs, u):
    """Pull a 3-form back along u: (u*T)(ei, ej, ek) = T(u ei, u ej, u ek)."""
    out = {}
    for cols in _TRIPLES:
        v = sum((c * _minor3(u, rows, cols) for rows, c in coeffs.items()),
                F(0))
        if v != 0:
            out[cols] = v
    return out


def rotated(rng, coeffs):
    """`coeffs` moved by a seeded U(3) element.  Most cases come out with
    all twenty monomials; I and VII keep their U(3)-invariant shapes
    (omega ^ X and the W1 line) and stay sparser."""
    return rotate(coeffs, cayley_u3(rng))


def form_literal(coeffs):
    """The CLI's text for a form, e.g. '3/2*e125-e345'."""
    parts = []
    for idx in sorted(coeffs):
        c = coeffs[idx]
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign}{abs(c)}*e{''.join(map(str, idx))}")
    return "".join(parts).lstrip("+")


# --- rounds of operations per workload ----------------------------------------
#
# Each workload is an endless sequence of rounds.  Every round holds the same
# kinds of operation in the same numbers, in a seeded order and with seeded
# inputs, so a run of whole rounds always measures the same mix.

def _rng(seed, workload, stream):
    return random.Random(f"torsion6-bench:{workload}:{stream}:{seed}")


def _classify_items(rng):
    """One normal-frame and one rotated form per case, in table order."""
    items = []
    for case in CASES:
        base = case_coeffs(case, case_params(rng, case))
        items.append({"kind": "normal", "case": case, "coeffs": base})
        items.append({"kind": "rotated", "case": case,
                      "coeffs": rotated(rng, base)})
    return items


def classify_rounds(seed, stream="timed"):
    rng = _rng(seed, "classify", stream)
    while True:
        items = _classify_items(rng)
        rng.shuffle(items)
        yield items


def float_rounds(seed, stream="timed"):
    """The classify forms in floating point, scaled log-uniformly over
    1e-6 ... 1e6.

    The range is cut into one stratum per form of a round.  In round r the
    j-th form of the table gets stratum (7 j + 5 r) mod n, a fixed Latin
    design, and the seed draws the scale inside its stratum.  Every run of
    whole rounds thus pairs the same cases with the same decades, so the
    share of forms at a given scale does not depend on the seed."""
    rng = _rng(seed, "float", stream)
    r = 0
    while True:
        items = _classify_items(rng)
        n = len(items)
        for j, item in enumerate(items):
            k = (7 * j + 5 * r) % n
            scale = 10.0 ** (-6 + 12 * (k + rng.random()) / n)
            item["scale"] = scale
            item["coeffs"] = {i: float(c) * scale
                              for i, c in item["coeffs"].items()}
        rng.shuffle(items)
        r += 1
        yield items


def _so3_point(rng):
    """A point of s3xs3-so3 with k1 = 4, k2 = 3, b != 1 and d != 0.

    The cost of the build and Nomizu round trip depends on the point far
    more than on anything a later change does: with k1 = 4, k2 = 3 it is
    2.7-3.4 s at reference speed, but 0.3-1.9 s on the lines b = 1 and
    d = 0 (where the frame simplifies), 1.5-3.5 s for k2 = 2, 0.3 s when
    both k are squares and up to 11 s when neither is.  One shape keeps
    the round length independent of the seed, and this one is on the
    sympy-bound path the entry is known for (one irrational root)."""
    while True:
        b = F(rng.choice((-4, -3, -2, -1, 0, 2, 3, 4)))
        d = F(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)))
        k1, k2 = F(4), F(3)
        if b == d:
            continue
        a = -(d - 1) * (d * k1 + b * k2) / ((b - d) * k2)
        c = (b - 1) * (d * k1 + b * k2) / ((b - d) * k1)
        if a * d + b + c - a - b * c - d != 0:
            return {"b": b, "d": d, "k1": k1, "k2": k2}


def _nil_point(rng, case):
    a5 = _pos(rng)
    if case == "i":
        return {"a3": a5 * rng.choice((1, -1)), "a4": F(0), "a5": a5}
    if case == "ii":
        a3 = _nonzero(rng)
        while a3 in (a5, -a5):
            a3 = _nonzero(rng)
        return {"a3": a3, "a4": F(0), "a5": a5}
    if case == "iii":
        return {"a3": _nonzero(rng), "a4": _nonzero(rng), "a5": a5}
    if case == "iv":
        return {"a3": F(0), "a4": _nonzero(rng), "a5": a5}
    if case == "v":
        return {"a3": F(0), "a4": F(0), "a5": a5}
    return {"a3": _pos(rng), "a4": F(0), "a5": F(0)}


def _bundle_point(rng):
    a5 = _pos(rng)
    a3 = a5 * F(rng.randint(-5, 5), 6)
    return {"a3": a3, "a4": _nonzero(rng), "a5": a5}


def entry_point(rng, name):
    """Parameters for a catalog entry, drawn from its documented range."""
    if name == "s3xs3-t2":
        return {"s": _pos(rng), "t": _pos(rng)}
    if name == "s3xt3-t2":
        return {"s": _pos(rng)}
    if name == "s3xs3-t2bundle":
        return _bundle_point(rng)
    if name == "s3xs3-so3":
        return _so3_point(rng)
    if name == "sl2c-so3":
        return {"p": _pos(rng)}
    if name.startswith("nil-"):
        return _nil_point(rng, name[4:])
    return {}


CATALOG_ENTRIES = ("s3xs3-t2", "s3xt3-t2", "s3xs3-t2bundle", "s3xs3-so3",
                   "sl2c-so3", "e3-so3", "n6-so3", "s5xs1", "nil-i",
                   "nil-ii", "nil-iii", "nil-iv", "nil-v", "nil-vi")
PARAMETRIZED = tuple(n for n in CATALOG_ENTRIES
                     if n not in ("e3-so3", "n6-so3", "s5xs1"))


def _fresh(rng, name, seen):
    """A point not used before in this sequence (entries without parameters
    have only one point and repeat)."""
    while True:
        p = entry_point(rng, name)
        key = (name, tuple(sorted(p.items())))
        if key not in seen or not p:
            seen.add(key)
            return p


def catalog_rounds(seed, stream="timed"):
    rng = _rng(seed, "catalog", stream)
    seen = set()
    while True:
        items = [{"kind": n, "entry": n, "params": _fresh(rng, n, seen)}
                 for n in CATALOG_ENTRIES]
        rng.shuffle(items)
        yield items


def betti_shorthand(rng):
    """A relabelled, sign-flipped copy of one of the nil structures, in the
    CLI's shorthand, with the Betti vector of the original."""
    base = rng.choice(sorted(NIL_BETTI))
    entries = base.strip("()").split(",")
    perm = list(range(1, 7))
    rng.shuffle(perm)  # old index i becomes perm[i - 1]
    flip = [rng.choice((1, -1)) for _ in range(6)]
    new = ["0"] * 6
    for i, entry in enumerate(entries):
        if entry == "0":
            continue
        terms = []
        for mono in entry.split("+"):
            x, y = perm[int(mono[0]) - 1], perm[int(mono[1]) - 1]
            sign = flip[int(mono[0]) - 1] * flip[int(mono[1]) - 1]
            sign *= flip[i]
            if x > y:
                x, y, sign = y, x, -sign
            terms.append(("-" if sign < 0 else "+") + f"{x}{y}")
        new[perm[i] - 1] = "".join(terms).lstrip("+")
    return "(" + ",".join(new) + ")", NIL_BETTI[base]


def cli_rounds(seed, stream="timed"):
    """Per round: tables --all, invariants, two classify, two example and two
    betti commands.  The example entries are the parametrized ones except
    s3xs3-so3, whose 3-4 s build would make the round length depend on the
    seed; the catalog workload times that entry."""
    rng = _rng(seed, "cli", stream)
    entries = [n for n in PARAMETRIZED if n != "s3xs3-so3"]
    seen = set()
    while True:
        items = [{"kind": "tables", "argv": ["tables", "--all"]},
                 {"kind": "invariants",
                  "argv": ["invariants", "--max-degree", "4"]}]
        for kind in ("normal", "rotated"):
            case = rng.choice(list(CASES))
            coeffs = case_coeffs(case, case_params(rng, case))
            if kind == "rotated":
                coeffs = rotated(rng, coeffs)
            items.append({"kind": "classify", "case": case,
                          "argv": ["classify", f"--form={form_literal(coeffs)}"]})
        for name in rng.sample(entries, 2):
            p = _fresh(rng, name, seen)
            argv = ["example", name]
            for k, v in sorted(p.items()):
                argv += ["--set", f"{k}={v}"]
            items.append({"kind": "example", "entry": name, "argv": argv})
        for _ in range(2):
            text, betti = betti_shorthand(rng)
            items.append({"kind": "betti", "betti": betti,
                          "argv": ["betti", f"--shorthand={text}"]})
        rng.shuffle(items)
        for item in items:
            item["argv"] = item["argv"] + ["--json"]
        yield items

"""Command line front end.

Every subcommand is a thin wrapper around the library: parse the input,
call one or two library functions, format the result.  Exit status 0 on
success, 2 on invalid input, 1 when a consistency check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .forms import Form, endo_of_form, form_of_endo, format_form, parse_form, sigma
from .nil import StructureEquations, betti_vector, nil_torsion, structure_tag
from .orbits import (
    CASE_TABLE,
    TorsionFamily,
    classify_form,
    invariant_poly_dims,
    lie_group_criterion,
    make_torsion,
)
from .scalars import to_float
from .unitary import (
    delta_class,
    identify_algebra,
    isotropy_algebra,
    torus_fixed_dims,
)

BACKEND_ENV = "TORSION6_BACKEND"


def _num(x):
    if isinstance(x, float):
        return float(f"{x:.12g}")
    return str(x)


def _parse_scalar(text, backend):
    if backend == "float":
        return float(text)
    return Fraction(text)


def _parse_form_arg(text, backend):
    return parse_form(text, exact=(backend == "rational"))


def _render(payload, as_json):
    if as_json:
        return json.dumps(payload, indent=2, sort_keys=True)
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}{k}.", value[k]) if isinstance(value[k], dict) \
                    else walk(f"{prefix}{k}", value[k])
        elif isinstance(value, list):
            lines.append(f"{prefix}: {json.dumps(value)}")
        else:
            lines.append(f"{prefix}: {value}")

    walk("", payload)
    return "\n".join(lines)


# --- subcommand handlers ----------------------------------------------------

def _cmd_classify(args):
    t = _parse_form_arg(args.form, args.backend)
    rep = classify_form(t, None if args.backend == "rational" else args.tol)
    return 0, json.loads(rep.to_json())


def _cmd_family(args):
    params = {}
    for name in ("a1", "a2", "a3", "a4", "a5", "b1", "b2"):
        v = getattr(args, name)
        if v is not None:
            params[name] = _parse_scalar(v, args.backend)
    fam = TorsionFamily(args.case, **params)
    t = make_torsion(fam)
    rep = classify_form(t)
    return 0, {
        "case": args.case,
        "params": {k: _num(v) for k, v in params.items()},
        "torsion": format_form(t),
        "strictType": rep.strict_type,
        "isoLabel": rep.iso_label,
        "isoDim": rep.iso_dim,
    }


def _cmd_sigma(args):
    t = _parse_form_arg(args.form, args.backend)
    return 0, {"sigma": format_form(sigma(t))}


def _cmd_clifford(args):
    from .clifford import is_scalar_square

    t = _parse_form_arg(args.form, args.backend)
    tol = None if args.backend == "rational" else args.tol
    scalar, square = is_scalar_square(t, tol)
    value, holds = lie_group_criterion(t, tol)
    return 0, {
        "isScalarSquare": scalar,
        "square": _num(square) if square is not None else None,
        "criterionValue": _num(value),
        "criterionHolds": holds,
    }


def _cmd_spinors(args):
    from .clifford import parallel_spinors, torsion_spinor_spectrum

    t = _parse_form_arg(args.form, args.backend)
    hol = [] if args.holonomy == "none" else isotropy_algebra(t)
    count, _ = parallel_spinors(hol, args.tol)
    payload = {"holonomy": args.holonomy, "parallelSpinors": count}
    if count:
        payload["spectrum"] = [_num(float(v))
                               for v in torsion_spinor_spectrum(t, hol)]
    return 0, payload


def _cmd_isotropy(args):
    t = _parse_form_arg(args.form, args.backend)
    basis = isotropy_algebra(t)
    label = identify_algebra(basis)
    return 0, {
        "dim": label.dim,
        "label": label.tag,
        "basis": [format_form(form_of_endo(a)) for a in basis],
    }


def _sanitize_report(rep):
    out = {
        "name": rep["name"],
        "params": {k: _num(v) for k, v in rep["params"].items()},
        "kind": rep["kind"],
        "torsion": format_form(rep["torsion"]),
        "norms": {"t2": _num(rep["norms_sq"][0]),
                  "t12": _num(rep["norms_sq"][1]),
                  "t6": _num(rep["norms_sq"][2])},
        "strictType": rep["strict_type"],
        "mismatches": list(rep["mismatches"]),
    }
    if "lambda" in rep:
        out["lambda"] = _num(rep["lambda"])
    if "naturally_reductive" in rep:
        out["naturallyReductive"] = rep["naturally_reductive"]
    if "einstein" in rep:
        ok, c = rep["einstein"]
        out["einstein"] = {"holds": ok,
                           "constant": _num(c) if c is not None else None}
    if "betti" in rep:
        out["betti"] = list(rep["betti"])
        out["structure"] = rep["commutator_tag"]
    return out


def _cmd_example(args):
    from . import catalog

    params = {}
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"parameter {item!r} is not of the form key=value")
        k, v = item.split("=", 1)
        params[k] = _parse_scalar(v, args.backend)
    rep = catalog.build(args.name, **params)
    status = 1 if rep["mismatches"] else 0
    return status, _sanitize_report(rep)


def _cmd_sweep(args):
    from . import catalog

    try:
        grid = json.loads(args.grid)
    except json.JSONDecodeError as exc:
        raise ValueError(f"grid is not valid JSON: {exc}")
    if not isinstance(grid, list) or not all(isinstance(p, dict) for p in grid):
        raise ValueError("grid must be a JSON list of parameter objects")
    rows = []
    for point in grid:
        try:
            params = {k: _parse_scalar(str(v), args.backend)
                      for k, v in point.items()}
        except ValueError as exc:
            row = {"params": point, "error": str(exc)}
        else:
            [row] = catalog.sweep(args.name, [params])
        if "error" in row:
            rows.append({"params": {k: _num(v) for k, v in row["params"].items()},
                         "error": row["error"]})
        else:
            rows.append(_sanitize_report(row["report"]))
    return 0, {"name": args.name, "points": rows}


def _cmd_betti(args):
    if args.shorthand:
        s = StructureEquations.from_shorthand(args.shorthand)
    else:
        s = StructureEquations.from_text(args.equations)
    payload = {"betti": list(betti_vector(s))}
    if s.nilpotent:
        try:
            payload["structure"] = structure_tag(s)
        except ValueError:
            pass
    return 0, payload


def _cmd_invariants(args):
    dims = invariant_poly_dims(args.max_degree)
    return 0, {"dims": [[d, n] for d, n in dims],
               "total": sum(n for _, n in dims)}


# --- table regeneration -----------------------------------------------------

_CASE_SAMPLES = {
    "I": dict(a5="1"),
    "II": dict(a1="1"),
    "III": dict(a1="1", a3="1", a4="-2"),
    "IV": dict(a3="1", a4="1", a5="1"),
    "V": dict(a1="1", a5="2"),
    "VI": dict(a1="1", a3="2", a4="1", a5="1"),
    "VII": dict(a1="1"),
    "VIII": dict(b2="1"),
    "IX": dict(b1="1"),
    "X": dict(b1="2", b2="1"),
    "XI": dict(a1="1", a2="1", b1="2", b2="1"),
}

_DELTA_SAMPLES = {
    "D1": (1, 0, 0),
    "D2": (1, 1, 0),
    "D3": (1, -1, 0),
    "D4": (2, 1, 0),
    "D5": (2, 1, -1),
    "D6": (3, 2, 1),
    "D7": (1, 1, -2),
    "D8": (3, 2, 2),
}

_DELTA_EXPECT = {
    "D1": (0, 4, 4),
    "D2": (0, 6, 2),
    "D3": (2, 4, 2),
    "D4": (0, 2, 2),
    "D5": (0, 2, 0),
    "D6": (0, 2, 0),
    "D7": (2, 0, 0),
    "D8": (0, 0, 0),
}

_NIL_TABLE_SAMPLES = {
    "i": ("1", "0", "1"),
    "ii": ("2", "0", "1"),
    "iii": ("1", "1", "2"),
    "iv": ("0", "1", "1"),
    "v": ("0", "0", "1"),
    "vi": ("1", "0", "0"),
}

_LOCAL_MODEL_SAMPLES = [
    (Fraction(-3), Fraction(1), Fraction(1), "s3 x sl2r"),
    (Fraction(1, 2), Fraction(1), Fraction(1), "s3 x s3"),
    (Fraction(3), Fraction(1), Fraction(1), "s3 x sl2r"),
    (Fraction(1), Fraction(1), Fraction(1), "s3 x n11"),
    (Fraction(1), Fraction(1), Fraction(0), "t3 x n11"),
]


def _su2_basis():
    def e(*idx):
        return Form.monomial(idx)

    return [endo_of_form(f) for f in
            (e(1, 2) - e(3, 4), e(1, 3) + e(2, 4), e(1, 4) - e(2, 3))]


def _spectrum_row(t, hol):
    from .clifford import parallel_spinors, torsion_spinor_spectrum

    count, _ = parallel_spinors(hol)
    spec = [float(v) for v in torsion_spinor_spectrum(t, hol)] if count else []
    return count, spec


def _spec_matches(spec, want, tol):
    if len(spec) != len(want):
        return False
    return all(abs(a - b) <= tol for a, b in zip(sorted(spec), sorted(want)))


def _case_reports():
    """The classification of each case sample, shared by tables 1 and 2."""
    return {case: classify_form(make_torsion(TorsionFamily(
                case, **{k: Fraction(v) for k, v in kwargs.items()})))
            for case, kwargs in _CASE_SAMPLES.items()}


def _table1(reports):
    rows = []
    diffs = []
    seen = {}
    for rep in reports.values():
        seen.setdefault(rep.strict_type, set()).add(rep.iso_label)
    expected = {}  # strict type -> the isotropy labels of its cases
    for strict, label, _ in CASE_TABLE.values():
        expected.setdefault(strict, set()).add(label)
    for strict in sorted(expected):
        want = sorted(expected[strict])
        got = sorted(seen.get(strict, set()))
        rows.append({"strictType": strict, "isotropy": got, "expected": want})
        if got != want:
            diffs.append(f"table1 {strict}: {got} != {want}")
    return rows, diffs


def _table2(reports):
    rows = []
    diffs = []
    for case, rep in reports.items():
        want = CASE_TABLE[case]
        got = (rep.strict_type, rep.iso_label, rep.iso_dim)
        rows.append({"case": case, "got": list(got), "expected": list(want),
                     "roundTrip": rep.case == case})
        if got != want or rep.case != case:
            diffs.append(f"table2 case {case}: {got} != {want}")
    return rows, diffs


def _table3():
    rows = []
    diffs = []
    for tag in sorted(_DELTA_SAMPLES):
        tup = _DELTA_SAMPLES[tag]
        got_tag, canon, _ = delta_class(*tup)
        dims = torus_fixed_dims(*canon)
        want = _DELTA_EXPECT[tag]
        rows.append({"class": tag, "tuple": list(tup), "dims": list(dims),
                     "expected": list(want)})
        if got_tag != tag or dims != want:
            diffs.append(f"table3 {tag}: {dims} != {want}")
    return rows, diffs


def _table4(tol):
    diffs = []
    t = make_torsion(TorsionFamily("II", a1=Fraction(1)))
    norm = to_float(sum(v * v for v in t.coeffs.values())) ** 0.5
    iso = isotropy_algebra(t)
    rows = []
    for label, hol in (("su2", iso), ("t1", iso[:1])):
        count, spec = _spectrum_row(t, hol)
        want = [-(2 ** 0.5) * norm] * 2 + [(2 ** 0.5) * norm] * 2
        ok = count == 4 and _spec_matches(spec, want, tol)
        rows.append({"holonomy": label, "parallelSpinors": count,
                     "spectrum": [_num(v) for v in sorted(spec)]})
        if not ok:
            diffs.append(f"table4 {label}: {spec}")
    return rows, diffs


def _table5():
    from . import catalog

    rows = []
    diffs = []
    for a3, a4, a5, want in _LOCAL_MODEL_SAMPLES:
        got = catalog.local_model_group(a3, a4, a5)
        rows.append({"alpha": [_num(a3), _num(a4), _num(a5)],
                     "group": got, "expected": want})
        if got != want:
            diffs.append(f"table5 local model {a3},{a4},{a5}: {got} != {want}")
    for case, sample in _NIL_TABLE_SAMPLES.items():
        a3, a4, a5 = (Fraction(x) for x in sample)
        rep = catalog.build(f"nil-{case}", a3=a3, a4=a4, a5=a5)
        strict, betti, tag = catalog.NIL_TABLE[case]
        want = (strict, betti[1], betti[2], tag)
        got = (rep["strict_type"], rep["betti"][1], rep["betti"][2],
               rep["commutator_tag"])
        rows.append({"family": case, "got": list(got), "expected": list(want)})
        if got != want:
            diffs.append(f"table5 nil {case}: {got} != {want}")
    return rows, diffs


def _table6(tol):
    rows = []
    diffs = []
    t_w4 = nil_torsion(Fraction(0), Fraction(0), Fraction(1))
    t_gen = nil_torsion(Fraction(2), Fraction(1), Fraction(1))
    # sqrt(2)|T6| = 2 and sqrt(2)|T12| = sqrt(20) for the generic sample
    s12 = 20 ** 0.5
    for label, t, hol, want in (
            ("t1", t_w4, [endo_of_form(Form.monomial((1, 2))
                                       - Form.monomial((3, 4)))],
             [-2.0, -2.0, 2.0, 2.0]),
            ("trivial", t_gen, [],
             [-s12, -s12, -2.0, -2.0, 2.0, 2.0, s12, s12]),
    ):
        count, spec = _spectrum_row(t, hol)
        ok = _spec_matches(spec, want, tol)
        rows.append({"holonomy": label, "parallelSpinors": count,
                     "spectrum": [_num(v) for v in sorted(spec)]})
        if not ok or count != (4 if label == "t1" else 8):
            diffs.append(f"table6 {label}: {spec}")
    # the printed su2 row: reported, not part of the diff
    count, spec = _spectrum_row(t_w4, _su2_basis())
    rows.append({"holonomy": "su2 (reported only)", "parallelSpinors": count,
                 "spectrum": [_num(v) for v in sorted(spec)]})
    return rows, diffs


def _cmd_tables(args):
    which = sorted(set(args.which or []))
    if any(n not in range(1, 7) for n in which):
        raise ValueError("table numbers must be between 1 and 6")
    if args.all:
        which = [1, 2, 3, 4, 5, 6]
    payload = {"tables": {}, "diffs": []}
    reports = _case_reports() if {1, 2} & set(which) else {}
    builders = {1: lambda: _table1(reports), 2: lambda: _table2(reports),
                3: _table3, 4: lambda: _table4(args.tol), 5: _table5,
                6: lambda: _table6(args.tol)}
    for n in which:
        rows, diffs = builders[n]()
        payload["tables"][str(n)] = rows
        payload["diffs"].extend(diffs)
    return (1 if payload["diffs"] else 0), payload


# --- argument parsing -------------------------------------------------------

def _build_parser():
    top = argparse.ArgumentParser(prog="torsion6")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--backend", choices=("rational", "float"),
                        default=os.environ.get(BACKEND_ENV, "rational"))
    common.add_argument("--tol", type=float, default=1e-9)
    common.add_argument("--json", action="store_true")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common])
    p.add_argument("--form", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("family", parents=[common])
    p.add_argument("--case", required=True)
    for name, alias in (("a1", "alpha1"), ("a2", "alpha2"), ("a3", "alpha3"),
                        ("a4", "alpha4"), ("a5", "alpha5"),
                        ("b1", "beta1"), ("b2", "beta2")):
        p.add_argument(f"--{name}", f"--{alias}", dest=name, default=None)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("sigma", parents=[common])
    p.add_argument("--form", required=True)
    p.set_defaults(func=_cmd_sigma)

    p = sub.add_parser("clifford", parents=[common])
    p.add_argument("--form", required=True)
    p.set_defaults(func=_cmd_clifford)

    p = sub.add_parser("spinors", parents=[common])
    p.add_argument("--form", required=True)
    p.add_argument("--holonomy", choices=("iso", "none"), default="iso")
    p.set_defaults(func=_cmd_spinors)

    p = sub.add_parser("isotropy", parents=[common])
    p.add_argument("--form", required=True)
    p.set_defaults(func=_cmd_isotropy)

    p = sub.add_parser("example", parents=[common])
    p.add_argument("name")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("sweep", parents=[common])
    p.add_argument("name")
    p.add_argument("--grid", required=True,
                   help="JSON list of parameter objects")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("betti", parents=[common])
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--shorthand")
    g.add_argument("--equations")
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("tables", parents=[common])
    p.add_argument("which", nargs="*", type=int)
    p.add_argument("--all", action="store_true")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("invariants", parents=[common])
    p.add_argument("--max-degree", type=int, default=4)
    p.set_defaults(func=_cmd_invariants)

    return top


def run(argv):
    """Dispatch and return (exit_status, payload, rendered_text)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status, payload = args.func(args)
    except ValueError as exc:
        return 2, {"error": str(exc)}, f"error: {exc}"
    payload = {"command": args.command, "backend": args.backend,
               "tol": args.tol, "result": payload}
    return status, payload, _render(payload, args.json)


def main(argv=None):
    try:
        status, _, text = run(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    stream = sys.stderr if status == 2 else sys.stdout
    print(text, file=stream)
    return status


if __name__ == "__main__":
    sys.exit(main())

"""sympy and numpy load on first use: exact classification, Betti numbers
and invariant dimensions run without them.  Each check runs in a fresh
interpreter, because the test process itself has imported both."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, text=True,
                          capture_output=True, check=True, timeout=120)


def test_exact_paths_import_neither_sympy_nor_numpy():
    code = """
import sys
from fractions import Fraction
import torsion6
from torsion6.cli import _CASE_SAMPLES
for case, kwargs in _CASE_SAMPLES.items():
    fam = torsion6.TorsionFamily(case, **{k: Fraction(v) for k, v in kwargs.items()})
    assert torsion6.classify_form(torsion6.make_torsion(fam)).case == case
s = torsion6.StructureEquations.from_shorthand("(0,0,0,0,12,13)")
assert torsion6.betti_vector(s) == (1, 4, 9, 12, 9, 4, 1)
assert torsion6.invariant_poly_dims(4) == [(1, 0), (2, 2), (3, 0), (4, 6)]
print(sorted(m for m in ("sympy", "numpy") if m in sys.modules))
"""
    assert _python("-c", code).stdout.split() == ["[]"]


def test_every_exported_name_resolves_after_a_bare_import():
    code = """
import torsion6
for name in torsion6.__all__:
    getattr(torsion6, name)
print(torsion6.catalog.build("s3xt3-t2", s=1)["mismatches"])
"""
    assert _python("-c", code).stdout.split() == ["[]"]


def _cli_imports(*args):
    """Output of a CLI child and the modules it imported."""
    out = _python("-X", "importtime", "-m", "torsion6.cli", *args)
    return out.stdout, [line.rsplit("|", 1)[-1].strip()
                        for line in out.stderr.splitlines() if "|" in line]


def _no_sympy(modules):
    return not any(m == "sympy" or m.startswith("sympy.") for m in modules)


def test_cli_betti_child_does_not_import_sympy():
    stdout, imported = _cli_imports("betti", "--shorthand=(0,0,0,0,12,13)",
                                    "--json")
    assert '"betti"' in stdout
    assert "torsion6.nil" in imported
    assert _no_sympy(imported)


def test_cli_tables_and_rational_example_children_do_not_import_sympy():
    # both build catalog entries (table 5 the nil ones); the package loads
    # catalog through importlib, which -X importtime does not list
    stdout, imported = _cli_imports("tables", "--all", "--json")
    assert '"diffs": []' in stdout and '"family": "iii"' in stdout
    assert _no_sympy(imported)
    for example in (["nil-iii", "--set", "a3=1", "--set", "a4=2",
                     "--set", "a5=1"],
                    ["s3xs3-t2", "--set", "s=2", "--set", "t=3"]):
        stdout, imported = _cli_imports("example", *example, "--json")
        assert '"mismatches": []' in stdout
        assert _no_sympy(imported)


def test_rational_catalog_builds_do_not_import_sympy():
    code = """
import sys
from torsion6 import catalog
for name, params in (("e3-so3", {}), ("n6-so3", {}), ("s5xs1", {}),
                     ("s3xt3-t2", {"s": 2}),
                     ("nil-iii", {"a3": 1, "a4": 2, "a5": 1}),
                     ("s3xs3-t2", {"s": 3, "t": 4}),
                     ("s3xs3-t2", {"s": 2, "t": 3}), ("sl2c-so3", {"p": 2}),
                     ("s3xs3-t2bundle", {"a3": 1, "a4": -2, "a5": 3})):
    assert catalog.build(name, **params)["mismatches"] == [], name
print("sympy" in sys.modules)
"""
    assert _python("-c", code).stdout.split() == ["False"]


def test_liegeom_does_not_reach_orbits():
    # the package __init__ imports every layer, so the package is set up
    # bare: what is loaded after the call is what liegeom itself needs
    code = """
import importlib.util, sys, types
pkg = types.ModuleType("torsion6")
pkg.__path__ = importlib.util.find_spec("torsion6").submodule_search_locations
sys.modules["torsion6"] = pkg
from torsion6.forms import Form
from torsion6.liegeom import curvature_gap
curvature_gap(Form(3, {(1, 2, 5): 1, (3, 4, 6): 2}))
print(*sorted(m for m in sys.modules if m.startswith("torsion6.")))
"""
    assert _python("-c", code).stdout.split() == [
        "torsion6.forms", "torsion6.liegeom", "torsion6.linalg", "torsion6.scalars"]


def test_rational_square_root_does_not_import_sympy():
    code = """
import sys
from torsion6.orbits import so3_pair_reduce
print(repr(so3_pair_reduce([3, 4, 0], [0, 0, 0])))
print("sympy" in sys.modules)
"""
    assert _python("-c", code).stdout.splitlines() == [
        "(Fraction(5, 1), Fraction(0, 1), Fraction(0, 1))", "False"]

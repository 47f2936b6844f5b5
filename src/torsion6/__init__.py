"""Pointwise linear algebra for almost hermitian geometry in dimension six.

The spinor functions (numpy) and the `catalog` module are served on first
use, so that importing the package loads neither numpy nor sympy.  Sympy
loads only for the exact square root of a rational that is not a square.
"""

import importlib

from .forms import (
    DIM,
    Form,
    J,
    OMEGA,
    SkewEndo,
    VOL,
    contract,
    d_parallel,
    endo_act_on_form,
    endo_of_form,
    form_of_endo,
    format_form,
    hodge,
    inner,
    monomials,
    norm_sq,
    parse_form,
    sigma,
    wedge,
)

from .unitary import (
    delta_class,
    isotropy_algebra,
    identify_algebra,
    project_l3,
    tau,
    torsion_type,
    torus_fixed_dims,
)
from .orbits import (
    TorsionFamily,
    bianchi_feasible,
    classify_form,
    invariant_poly_dims,
    lie_group_criterion,
    make_torsion,
)
from .liegeom import (
    CurvatureRecord,
    LieAlgebraData,
    ReductiveModel,
    algebra_fingerprint,
    canonical_data,
    jacobi_check,
    nomizu,
)
from .nil import StructureEquations, betti_vector, nil_family, nil_torsion, \
    verify_parallel

_CLIFFORD = ("is_scalar_square", "parallel_spinors", "torsion_spinor_spectrum")


def __getattr__(name):
    if name == "catalog":
        return importlib.import_module(f"{__name__}.catalog")
    if name in _CLIFFORD:
        return getattr(importlib.import_module(f"{__name__}.clifford"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DIM", "Form", "J", "OMEGA", "SkewEndo", "VOL",
    "contract", "endo_act_on_form", "endo_of_form", "form_of_endo",
    "format_form", "hodge", "inner", "monomials", "norm_sq",
    "parse_form", "wedge",
    "delta_class", "isotropy_algebra", "identify_algebra", "project_l3",
    "tau", "torsion_type", "torus_fixed_dims",
    "TorsionFamily", "bianchi_feasible", "classify_form", "d_parallel",
    "invariant_poly_dims", "lie_group_criterion", "make_torsion", "sigma",
    "is_scalar_square", "parallel_spinors", "torsion_spinor_spectrum",
    "CurvatureRecord", "LieAlgebraData", "ReductiveModel",
    "algebra_fingerprint", "canonical_data", "jacobi_check", "nomizu",
    "StructureEquations", "betti_vector", "nil_family", "nil_torsion",
    "verify_parallel",
    "catalog",
]

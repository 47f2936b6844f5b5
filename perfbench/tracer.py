"""Outside-in tracer for the torsion6 layers.

The library binds functions by name (``from .scalars import is_zero``), so
patching one module would miss most calls.  `install` wraps every public
function of each layer module in the namespace of every torsion6 module
that holds it, and wraps ``Form.__init__`` on the class.

Spans (name, start, end, parent) are kept in memory; `summary` turns them
into per-name call counts and self times (a span's duration minus the time
its child spans cover).  The hottest tiny functions are counted, not
spanned: ``Form.__init__``, and ``is_zero`` on exact and float scalars.
``is_zero`` on a sympy expression is spanned, because that branch calls
``sympy.simplify``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from fractions import Fraction

LAYERS = ("scalars", "linalg", "forms", "unitary", "orbits", "clifford",
          "liegeom", "nil", "catalog", "cli")

# Wrapped by _is_zero instead, which counts calls by scalar kind.
_SKIP = {"scalars.is_zero"}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.mismatched_builds = 0

    # -- recording ----------------------------------------------------------

    def span(self, name, fn, on_call=None, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if on_call is not None:
                on_call(args)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            parent = stack[-2] if len(stack) > 1 else -1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def root(self, fn, *args):
        """Run one benchmark operation as a root span named 'op'."""
        return self.span("op", fn)(*args)

    # -- patching -----------------------------------------------------------

    def install(self):
        pkg = "torsion6"
        mods = {name: importlib.import_module(f"{pkg}.{name}")
                for name in LAYERS}
        everyone = [m for n, m in sys.modules.items()
                    if n == pkg or n.startswith(pkg + ".")]
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not callable(fn)
                        or isinstance(fn, type)
                        or getattr(fn, "__module__", None) != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name in _SKIP:
                    continue
                hooks = {}
                if name == "linalg.rref":
                    hooks["on_call"] = self._count_cells
                if name == "catalog.build":
                    hooks["on_result"] = self._count_mismatch
                self._replace(everyone, fn, self.span(name, fn, **hooks))
        self._replace(everyone, mods["scalars"].is_zero,
                      self._is_zero(mods["scalars"].is_zero))
        self._wrap_form_init(mods["forms"].Form)

    @staticmethod
    def _replace(modules, original, wrapper):
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)

    def _count_cells(self, args):
        mat = args[0]
        cells = len(mat) * (len(mat[0]) if mat else 0)
        self.counts["linalg.rref.cells"] += cells

    def _count_mismatch(self, report):
        if report.get("mismatches"):
            self.mismatched_builds += 1

    def _is_zero(self, fn):
        import sympy

        counts = self.counts
        sympy_span = self.span("scalars.is_zero.sympy", fn)
        exact = (int, Fraction)

        @functools.wraps(fn)
        def is_zero(x, tol=None):
            if isinstance(x, exact):
                counts["scalars.is_zero.calls_exact"] += 1
                return fn(x, tol)
            if isinstance(x, sympy.Expr):
                counts["scalars.is_zero.calls_sympy"] += 1
                return sympy_span(x, tol)
            counts["scalars.is_zero.calls_float"] += 1
            return fn(x, tol)

        return is_zero

    def _wrap_form_init(self, form_cls):
        init = form_cls.__init__
        counts = self.counts

        @functools.wraps(init)
        def __init__(self, *args, **kwargs):
            counts["forms.Form.calls"] += 1
            init(self, *args, **kwargs)

        form_cls.__init__ = __init__

    # -- reporting ----------------------------------------------------------

    def summary(self):
        """{'self_s': {name: seconds}, 'counts': {name: n}, 'op_s': total
        seconds in root 'op' spans}."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        self_s = Counter()
        op_s = 0.0
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _ = span
            self_s[name] += (end - start) - child[i]
            if name == "op":
                op_s += end - start
        counts = dict(self.counts)
        counts["catalog.build.mismatched"] = self.mismatched_builds
        return {"self_s": dict(self_s), "counts": counts, "op_s": op_s}

"""One benchmark worker process.

    python3 perfbench/worker.py --workload W --seed N --mode setup|run
        [--seconds S] [--min-rounds R] [--trace 0|1] [--gate-ops G]
        [--max-ops G]

Run from the root of a checkout with PYTHONPATH=src.  The worker prints
JSON lines on stdout: 'started' as its first statement, 'ready' once
torsion6 is imported and one operation of each kind has run untimed, and
in run mode a final 'result' with per-operation latencies and outcomes.

Run mode executes whole rounds of the workload (gen.py), one operation at
a time, until --seconds have passed and at least --min-rounds rounds ran,
while a calib.Monitor samples the machine's speed.  With --trace 1 the layers are
traced from outside (tracer.py); --gate-ops G snapshots the trace counts
after exactly G operations, --max-ops G stops there.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def emit(**fields):
    print(json.dumps(fields), flush=True)


emit(event="started", t=T_START)

HERE = os.path.dirname(os.path.abspath(__file__))
TRACE_MARK = "PERFBENCH-TRACE "


def _args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=("classify", "catalog", "float", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--gate-ops", type=int, default=0)
    ap.add_argument("--max-ops", type=int, default=0)
    ap.add_argument("--min-rounds", type=int, default=1)
    return ap.parse_args()


# --- operations and their oracles -------------------------------------------

class ClassifyOps:
    """classify_form on exact (or, for 'float', floating) 3-forms."""

    tol = None

    def __init__(self, gen):
        import torsion6
        self.gen, self.t6 = gen, torsion6

    def rounds(self, seed, stream):
        return self.gen.classify_rounds(seed, stream)

    def run(self, item):
        t6 = self.t6  # looked up per call, so that traced runs see the wrappers
        rep = t6.classify_form(t6.Form(3, item["coeffs"]), self.tol)
        return (rep.strict_type, rep.iso_label, rep.iso_dim, rep.case)

    def check(self, item, out):
        want = self.gen.CASES[item["case"]] + (item["case"],)
        return out == want, f"got {out}, want {want}"

    def describe(self, item):
        scale = f" scale={item['scale']:.3e}" if "scale" in item else ""
        terms = "+".join(f"{c}*e{''.join(map(str, i))}"
                         for i, c in sorted(item["coeffs"].items()))
        return f"{item['kind']} case {item['case']}{scale}: {terms}"


class FloatOps(ClassifyOps):
    tol = 1e-9  # the CLI default

    def rounds(self, seed, stream):
        return self.gen.float_rounds(seed, stream)


class CatalogOps:
    """catalog.build at a seeded point, the Nomizu round trip of reductive
    entries, and the local-model group of the entries parametrized by
    alpha."""

    def __init__(self, gen):
        import torsion6
        self.gen, self.t6 = gen, torsion6

    def rounds(self, seed, stream):
        return self.gen.catalog_rounds(seed, stream)

    def run(self, item):
        p = item["params"]
        t6 = self.t6  # looked up per call, so that traced runs see the wrappers
        rep = t6.catalog.build(item["entry"], **p)
        out = {"mismatches": list(rep["mismatches"])}
        if rep["kind"] == "reductive":
            fp = t6.algebra_fingerprint(t6.nomizu(rep["torsion"],
                                                  rep["curvature"]))
            out["fingerprint"] = (fp["dim"], fp["derived"], fp["center"],
                                  fp["killing"])
        if "a5" in p:
            out["local_model"] = t6.catalog.local_model_group(
                p["a3"], p["a4"], p["a5"])
        return out

    def check(self, item, out):
        p, entry = item["params"], item["entry"]
        want = {"mismatches": []}
        if entry in self.gen.NOMIZU_FINGERPRINT:
            want["fingerprint"] = self.gen.nomizu_fingerprint(entry, p)
        if "a5" in p:
            want["local_model"] = self.gen.local_model(p["a3"], p["a4"], p["a5"])
        return out == want, f"got {out}, want {want}"

    def describe(self, item):
        params = ", ".join(f"{k}={v}" for k, v in item["params"].items())
        return f"build {item['entry']}({params})"


class CliOps:
    """One `python -m torsion6.cli ... --json` child per operation; traced
    runs start the child through cli_child.py instead."""

    def __init__(self, gen, trace):
        self.gen = gen
        self.trace = trace
        self.children = []  # per-child trace summaries

    def rounds(self, seed, stream):
        return self.gen.cli_rounds(seed, stream)

    def run(self, item):
        if self.trace:
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py")]
        else:
            cmd = [sys.executable, "-m", "torsion6.cli"]
        start = time.perf_counter()
        proc = subprocess.run(cmd + item["argv"], capture_output=True,
                              text=True, timeout=170)
        wall = time.perf_counter() - start
        if self.trace:
            lines = proc.stderr.splitlines()
            if not lines or not lines[-1].startswith(TRACE_MARK):
                raise RuntimeError("traced child gave no trace: "
                                   + proc.stderr[-500:])
            summary = json.loads(lines[-1][len(TRACE_MARK):])
            summary["spawn_s"] = wall - (summary["end"] - summary["start"])
            self.children.append(summary)
        return proc.returncode, proc.stdout

    def check(self, item, out):
        code, stdout = out
        if code != 0:
            return False, f"exit {code}: {stdout[-300:]}"
        res = json.loads(stdout)["result"]
        kind = item["kind"]
        if kind == "tables":
            ok = res["diffs"] == []
        elif kind == "invariants":
            ok = [n for _, n in res["dims"]] == [0, 2, 0, 6]
        elif kind == "classify":
            want = self.gen.CASES[item["case"]] + (item["case"],)
            ok = (res["strictType"], res["isoLabel"], res["isoDim"],
                  res["caseTag"]) == want
        elif kind == "example":
            ok = res["mismatches"] == []
        else:
            ok = res["betti"] == list(item["betti"])
        return ok, f"unexpected result {json.dumps(res)[:300]}"

    def describe(self, item):
        return "torsion6 " + " ".join(item["argv"])


def _warmup_items(ops, workload):
    """One operation of each kind, from a stream the timed phase never
    uses.  The warm-up inputs do not depend on the seed, so that set-up
    time does not either.  The catalog kinds are a reductive build (the
    cheapest with parameters, which fills sympy's caches), a nil build, the
    torus bundle and an entry without parameters.  The cli workload has
    none: every child starts cold, so work in the worker would warm
    nothing, and the worker's own import compiles the bytecode the
    children load."""
    if workload == "cli":
        return []
    first = next(ops.rounds(0, "warmup"))
    if workload == "catalog":
        kinds = {}
        for i in first:
            key = ("nil" if i["entry"].startswith("nil-")
                   else "alpha" if "a5" in i["params"] else
                   "reductive" if i["params"] else "fixed")
            if key == "reductive" and i["entry"] != "s3xs3-t2":
                continue
            kinds.setdefault(key, i)
        return list(kinds.values())
    kinds = {}
    for i in first:
        kinds.setdefault(i["kind"], i)
    return list(kinds.values())


def main():
    args = _args()
    t0 = time.perf_counter()
    import torsion6  # noqa: F401
    import torsion6.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    import calib
    import gen

    if args.workload == "cli":
        ops = CliOps(gen, args.trace)
    else:
        ops = {"classify": ClassifyOps, "catalog": CatalogOps,
               "float": FloatOps}[args.workload](gen)

    t1 = time.perf_counter()
    for item in _warmup_items(ops, args.workload):
        ops.run(item)
    warmup_s = time.perf_counter() - t1
    if isinstance(ops, CliOps):
        ops.children.clear()

    tracer = None
    if args.trace and args.workload != "cli":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    emit(event="ready", t=time.perf_counter(), import_s=import_s,
         warmup_s=warmup_s)
    if args.mode == "setup":
        return
    with calib.Monitor() as monitor:
        result = _timed(args, ops, tracer)
        result["scale"] = [monitor.factor(a, b) for a, b in result.pop("spans")]
    result["import_s"] = import_s
    if args.trace:
        result["trace"] = _trace_summary(tracer, ops)
    if args.trace == 0:
        result["provenance"] = _provenance()
    emit(event="result", **result)


def _timed(args, ops, tracer):
    """Whole rounds of operations; per-operation latency, outcome and
    (start, end) interval."""
    lat, spans, oks, kinds, failures = [], [], [], [], []
    gate = None
    busy = 0.0  # time in operations and their checks, not in making inputs
    rounds = ops.rounds(args.seed, "timed")
    n_rounds = 0
    while True:
        n_rounds += 1
        for item in next(rounds):
            start = time.perf_counter()
            try:
                out = tracer.root(ops.run, item) if tracer else ops.run(item)
                err = None
            except Exception:
                out, err = None, _last_line()
            end = time.perf_counter()
            lat.append(end - start)
            spans.append((start, end))
            if err is None:
                try:
                    ok, why = ops.check(item, out)
                except Exception:
                    ok, why = False, _last_line()
            else:
                ok, why = False, err
            busy += time.perf_counter() - start
            oks.append(ok)
            kinds.append(item["kind"])
            if not ok:
                failures.append({"input": ops.describe(item), "why": why})
            if len(lat) == args.gate_ops:
                gate = _counts(tracer, ops)
            if len(lat) == args.max_ops:
                break
        if len(lat) == args.max_ops or (not args.max_ops
                                        and busy >= args.seconds
                                        and n_rounds >= args.min_rounds):
            break

    who = (resource.RUSAGE_CHILDREN if args.workload == "cli"
           else resource.RUSAGE_SELF)
    return {"lat": lat, "spans": spans, "ok": oks, "kinds": kinds,
            "failures": failures, "busy_s": busy, "gate": gate,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}


def _last_line():
    return traceback.format_exc(limit=2).strip().splitlines()[-1]


def _counts(tracer, ops):
    if tracer is not None:
        return dict(tracer.counts)
    total = {}
    for child in ops.children:
        for k, v in child["counts"].items():
            total[k] = total.get(k, 0) + v
    return total


def _trace_summary(tracer, ops):
    if tracer is not None:
        return tracer.summary()
    out = {"self_s": {}, "counts": {}, "op_s": 0.0, "import_s": 0.0,
           "spawn_s": 0.0}
    for child in ops.children:
        for part in ("self_s", "counts"):
            for k, v in child[part].items():
                out[part][k] = out[part].get(k, 0) + v
        for k in ("op_s", "import_s", "spawn_s"):
            out[k] += child[k]
    return out


def _provenance():
    import platform

    import numpy
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    return {"python": platform.python_version(), "sympy": sympy.__version__,
            "numpy": numpy.__version__, "sympy_ground_types": GROUND_TYPES,
            "hash_seed": os.environ.get("PYTHONHASHSEED")}


if __name__ == "__main__":
    main()

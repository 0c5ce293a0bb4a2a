"""reeskit benchmark driver.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Workloads:

* ``groebner-systems`` -- one ``reeskit gb`` call, so one
  ``reduced_groebner``, per system (cyclic-5, katsura-5, eight seeded
  dense systems in three variables); every printed basis must equal
  sympy's reduced grevlex basis.
* ``curve-invariants`` -- 214 seeded monomial-curve instances from the
  strata of ``workloads.curve_family``, each computing id(y/x),
  rn_(x)((x, y)) and rt((x, y)) at cap 12; checked against the
  numerical-semigroup oracle and rn + 1 = id >= rt.

Each timed sample (one pass over all instances) runs in a fresh
interpreter (``bench/child.py``); this driver never imports reeskit, so no
memo can carry over between samples.  Every reported time is scaled by
the speed of a fixed calibration kernel timed in the same child while the
work ran (see ``CAL_REF_MS``).  Samples repeat until ``--seconds``
is used up (at least one).  With ``--trace 0`` the last line of stdout
holds the end-to-end metrics; with ``--trace 1`` untraced and traced
samples alternate and it holds the per-layer metrics, the traced/untraced
time ratio, and the span edges are written to
``.bench_build/trace-<workload>-seed<n>.json``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import DERIVED_METRICS, FUNCTION_METRICS, metric_names  # noqa: E402

SETUP_PROBES = 9
# The calibration kernel's time (``child._cal_kernel``) on the reference
# machine of bench/NOTES.md.  Every reported time is scaled by
# CAL_REF_MS / (the kernel's mean time in the same child), so it reads as
# the time on that machine at its usual speed.
CAL_REF_MS = 0.8
RUN_LIMIT_S = 170.0
OUT_DIR = ".bench_build"

# Layer metrics that must record spans on each workload, or the trace has
# lost a call path: those the layer table in NOTES.md expects the workload
# to move, plus cli and semigroup, so that every layer is measured.
EXPECTED_SPANS = {
    "groebner-systems": (
        "groebner.spolynomial.calls", "groebner.zero_reduction_ratio",
        "groebner.self_s", "groebner.normal_form.self_s",
        "groebner.reduced_groebner.distinct_ratio", "cli.self_s"),
    "curve-invariants": (
        "ideals.ideal_colon.self_s", "groebner.eliminate_polys.calls",
        "invariants.degrees_scanned", "rees.rees_kernel.s",
        "rees.relation_type.s", "poly.mul.self_s", "corpus.monomial_curve.s",
        "semigroup.monomial_fraction_degree.s"),
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# -- inputs and references -----------------------------------------------------


def _monic(poly):
    """A sympy Poly as a set element: its terms divided by the leading
    coefficient under grevlex."""
    terms = poly.terms(order="grevlex")
    lc = terms[0][1]
    return frozenset((tuple(m), Fraction(str(c / lc))) for m, c in terms)


def _sympy():
    try:
        import sympy
    except ImportError as exc:
        raise BenchError("groebner-systems needs sympy for its reference"
                         ) from exc
    return sympy


def sympy_reference(system):
    """sympy's reduced grevlex basis of ``system``, each element monic."""
    sympy = _sympy()
    syms = sympy.symbols(system["vars"])
    polys = [sympy.Poly.from_dict(
        {tuple(e): sympy.Rational(c) for e, c in g}, *syms,
        domain=sympy.QQ) for g in system["gens"]]
    basis = sympy.groebner(polys, *syms, order="grevlex", domain=sympy.QQ)
    return {_monic(p) for p in basis.polys}


@functools.lru_cache(maxsize=None)
def parse_basis(lines, names):
    """The basis printed by ``reeskit gb``, read back with sympy.  Every
    sample prints the same bases, so each distinct output is read once."""
    sympy = _sympy()
    syms = sympy.symbols(names)
    scope = dict(zip(names, syms))
    return frozenset(
        _monic(sympy.Poly(sympy.sympify(line.replace("^", "**"),
                                        locals=scope),
                          *syms, domain=sympy.QQ))
        for line in lines)


def build(workload, seed):
    """(child spec fields, reference) for a workload and seed."""
    if workload == "groebner-systems":
        systems = workloads.groebner_systems(seed)
        return {"inputs": systems}, [sympy_reference(s) for s in systems]
    if workload == "curve-invariants":
        return {"inputs": workloads.curve_instances(seed)}, None
    raise BenchError(f"unknown workload {workload!r}")


# -- checks: each returns None or a failure message ------------------------------


def check_system_row(row, system, reference):
    if row["error"]:
        return f"{row['name']}: exception\n{row['error']}"
    if row["code"] != 0:
        return f"{row['name']}: exit code {row['code']}"
    try:
        basis = parse_basis(tuple(row["lines"]), tuple(system["vars"]))
    except Exception as exc:  # any unreadable output is a wrong answer
        return f"{row['name']}: unreadable basis: {exc!r}"
    if basis != reference:
        return f"{row['name']}: basis differs from sympy's"
    return None


def check_curve_row(row, inst):
    if row["error"]:
        return f"{row['name']}: exception\n{row['error']}"
    out, oracle, cap = row["out"], row["oracle"], inst["cap"]
    idv, rn, rt = out["id"], out["rn"], out["rt"]
    if oracle is not None and oracle <= cap:
        if idv is None:
            return f"{row['name']}: id unresolved, oracle says {oracle}"
        if idv != oracle:
            return f"{row['name']}: id = {idv}, oracle says {oracle}"
    elif idv is not None:
        return f"{row['name']}: id = {idv}, oracle exceeds cap {cap}"
    if idv is not None:
        if rn is None or rn + 1 != idv:
            return f"{row['name']}: rn = {rn} but id = {idv}"
        if rt > rn + 1:
            return f"{row['name']}: rt = {rt} > rn + 1 = {rn + 1}"
    return None


def check_sample(workload, sample, spec, reference):
    """Failure messages of one sample, one per failed instance."""
    rows, inputs = sample["rows"], spec["inputs"]
    if workload == "groebner-systems":
        failures = [msg for row, system, ref in zip(rows, inputs, reference)
                    if (msg := check_system_row(row, system, ref))]
    else:
        failures = [msg for row, inst in zip(rows, inputs)
                    if (msg := check_curve_row(row, inst))]
    if len(rows) != len(inputs):
        failures.append(f"{len(rows)} instances ran, {len(inputs)} expected")
    return failures


# -- children ----------------------------------------------------------------


def run_child(spec, deadline):
    """Run one child interpreter; returns its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    spec = dict(spec, t_spawn=_clock())
    with subprocess.Popen([sys.executable, os.path.join(HERE, "child.py")],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          env=env, text=True) as proc:
        try:
            out, _ = proc.communicate(json.dumps(spec),
                                      timeout=max(1.0, deadline - _clock()))
        except BaseException as exc:
            proc.kill()
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError("a sample overran the run's time limit")
            raise
    if proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def collect(workload, seed, seconds, trace, base_spec, deadline):
    """Setup probes, then timed samples until ``seconds`` are used up.

    Returns ``(setups, samples)``: the set-up-only children's results, and
    the traced (True) and untraced (False) samples.
    """
    spec = dict(base_spec, root=os.getcwd(), workload=workload, seed=seed)
    setups = [run_child(dict(spec, setup_only=True, trace=False), deadline)
              for _ in range(SETUP_PROBES)]
    kinds = (False, True) if trace else (False,)
    samples = {kind: [] for kind in kinds}
    durations = {kind: [] for kind in kinds}
    start = _clock()
    for i in range(10 ** 6):
        kind = kinds[i % len(kinds)]
        if all(samples.values()):
            estimate = statistics.median(durations[kind])
            if _clock() - start + estimate > seconds:
                break
        t0 = _clock()
        sample = run_child(dict(spec, setup_only=False, trace=kind),
                           deadline)
        durations[kind].append(_clock() - t0)
        samples[kind].append(sample)
    return setups, samples


# -- metrics -------------------------------------------------------------------


def _scale(measured):
    """Factor that takes a time measured while the calibration kernel took
    ``measured["cal_ms"]`` to the reference machine's usual speed."""
    return CAL_REF_MS / measured["cal_ms"]


def end_to_end(setups, samples):
    per_instance = [statistics.median(ms) for ms in zip(*(
        [r["ms"] * _scale(r) for r in s["rows"]] for s in samples))]
    return {
        "setup_s": (statistics.median(c["setup_s"] * _scale(c)
                                      for c in setups + samples), "s"),
        "total_s": (statistics.median(s["total_s"] * _scale(s)
                                      for s in samples), "s"),
        "instance_geomean_ms": (math.exp(statistics.fmean(
            math.log(ms) for ms in per_instance)), "ms"),
        "instance_p50_ms": (statistics.median(per_instance), "ms"),
        "instance_p90_ms": (statistics.quantiles(
            per_instance, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"]
                                          for s in samples), "MB"),
    }


def _metric_functions(metric):
    for name, fid, _ in FUNCTION_METRICS:
        if name == metric:
            return (fid,)
    if metric in DERIVED_METRICS:
        return DERIVED_METRICS[metric]
    layer = metric.split(".")[0]
    return (layer + ".",)


def missing_spans(workload, spans):
    """Expected layer metrics of ``workload`` that recorded no span."""
    called = {e["function"] for e in spans if e["calls"]}
    missing = []
    for metric in EXPECTED_SPANS[workload]:
        prefixes = _metric_functions(metric)
        if not any(f == p or (p.endswith(".") and f.startswith(p))
                   for f in called for p in prefixes):
            missing.append(metric)
    return missing


def _unit(metric):
    if metric.endswith(("_s", ".s")):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


def per_layer(workload, seed, samples):
    traced = samples[True]
    metrics = {}
    for name in metric_names():
        values = [s["layers"][name] for s in traced if name in s["layers"]]
        if values:
            metrics[name] = (statistics.median(values), _unit(name))
    untraced = statistics.median(s["total_s"] for s in samples[False])
    metrics["trace.overhead_ratio"] = (
        statistics.median(s["total_s"] for s in traced) / untraced, "ratio")
    for metric in missing_spans(workload, traced[0]["spans"]):
        print(f"warning: {metric} recorded no span on {workload}",
              file=sys.stderr)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "samples": [s["spans"] for s in traced]}, fh, indent=1)
    return metrics


# -- main ----------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(EXPECTED_SPANS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(argv=None):
    args = parse_args(argv)
    deadline = _clock() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join("src", "reeskit", "__init__.py")):
        raise BenchError("src/reeskit not found: run from the root of a "
                         "reeskit checkout")
    base_spec, reference = build(args.workload, args.seed)
    setups, samples = collect(args.workload, args.seed, args.seconds,
                              bool(args.trace), base_spec, deadline)
    attempted = failed = 0
    for kind in samples.values():
        for sample in kind:
            failures = check_sample(args.workload, sample, base_spec,
                                    reference)
            attempted += len(sample["rows"])
            failed += len(failures)
            for msg in failures[:5]:
                print(f"FAIL {msg}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(args.workload, args.seed, samples)
    else:
        metrics = end_to_end(setups, samples[False])
    if "reeskit" in sys.modules:
        raise BenchError("the driver imported reeskit")
    counts = {kind: len(s) for kind, s in samples.items()}
    print(f"{args.workload} seed={args.seed}: {counts.get(False, 0)} "
          f"untraced and {counts.get(True, 0)} traced samples of "
          f"{len(samples[False][0]['rows'])} instances, "
          f"{len(setups)} setup probes", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds run_child, which kills its child


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    try:
        result = run(argv)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One timed sample of a benchmark workload, in a fresh interpreter.

Reads a JSON spec on stdin, imports reeskit from ``<root>/src``, builds
the inputs, runs every instance once in order (a closed loop with one
client), and writes one JSON object to stdout.  Module caches start
empty, as for one CLI call, and persist across the instances of the
sample.  An untraced pass also times a fixed calibration kernel every
20 ms (``Calibrator``), so the driver can scale its times to a reference
speed of the machine.

Run by ``bench/run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import contextlib
import io
import bisect
import gc
import json
import math
import os
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction

# The calibration kernel runs every CAL_INTERVAL_S of an untraced pass
# (see ``Calibrator``), and CAL_SETUP_RUNS times after a set-up-only start.
# An instance's time is scaled by the ticks within CAL_WINDOW_S of it.
CAL_INTERVAL_S = 0.02
CAL_WINDOW_S = 0.25
CAL_SETUP_RUNS = 40


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _failure():
    return traceback.format_exc(limit=4)


def _peak_rss_mb():
    """This interpreter's peak resident memory.  ``ru_maxrss`` would also
    count the parent's memory at the fork before ``exec``, so Linux's
    per-image ``VmHWM`` is read where it exists."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- calibration -----------------------------------------------------------------

# Two fixed sparse polynomials in three variables with rational
# coefficients, as exponent-tuple dicts: the kernel multiplies them, the
# same kind of work (tuple keys, dict updates, Fraction arithmetic) that
# reeskit's polynomial layer does, but with no reeskit code in it.
_CAL_A = {(i, j, (i * j) % 3): Fraction(3 * i - 2 * j + 1, j + 2)
          for i in range(4) for j in range(3)}
_CAL_B = {(j, (i + j) % 4, i): Fraction(2 * i + j + 5, i + 3)
          for i in range(3) for j in range(4)}


def _cal_kernel():
    """One timed kernel run, in seconds.  The collector is off meanwhile,
    so the kernel's time does not depend on how much the program holds."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    prod = {}
    for (a0, a1, a2), ca in _CAL_A.items():
        for (b0, b1, b2), cb in _CAL_B.items():
            key = (a0 + b0, a1 + b1, a2 + b2)
            prod[key] = prod.get(key, 0) + ca * cb
    t1 = time.perf_counter()
    if enabled:
        gc.enable()
    return t0, t1


class Calibrator:
    """Measures how fast the machine is while a pass runs.

    A shared host slows every process on it by up to 1.8x in episodes
    that last from a tenth of a second to minutes.  An interval timer runs
    ``_cal_kernel`` every ``CAL_INTERVAL_S`` of wall time, in the middle
    of the program's work, and records each kernel run as a (start, end)
    tick.  The mean tick gives the machine's speed over the pass and near
    each instance, and the time the ticks took is taken out of the
    instances they interrupted.
    """

    def __init__(self):
        self.starts, self.ends = [], []

    def _tick(self, signum, frame):
        t0, t1 = _cal_kernel()
        self.starts.append(t0)
        self.ends.append(t1)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)  # so that even a short pass has a tick

    def _span(self, t0, t1):
        """Indices of the ticks that overlap [t0, t1]."""
        return (bisect.bisect_left(self.ends, t0),
                bisect.bisect_right(self.starts, t1))

    def stolen(self, t0, t1):
        """Seconds the ticks took inside [t0, t1]."""
        lo, hi = self._span(t0, t1)
        return sum(min(e, t1) - max(s, t0) for s, e in
                   zip(self.starts[lo:hi], self.ends[lo:hi]))

    def kernel_ms(self, t0, t1):
        """Mean time in ms of the ticks that overlap [t0, t1], or None."""
        lo, hi = self._span(t0, t1)
        if lo >= hi:
            return None
        return sum(e - s for s, e in zip(self.starts[lo:hi],
                                         self.ends[lo:hi])) * 1e3 / (hi - lo)

    def settle(self, rows, t0, t1):
        """Net times of ``rows`` (in ms) and of the pass [t0, t1] (in s),
        and the mean tick in ms over the pass and within CAL_WINDOW_S of
        each instance (None without ticks)."""
        cal_ms = self.kernel_ms(t0, t1) or self.kernel_ms(t0, math.inf)
        for row in rows:
            a, b = row.pop("t0"), row.pop("t1")
            row["ms"] = (b - a - self.stolen(a, b)) * 1e3
            row["cal_ms"] = (self.kernel_ms(a - CAL_WINDOW_S,
                                            b + CAL_WINDOW_S) or cal_ms)
        return t1 - t0 - self.stolen(t0, t1), cal_ms


# -- workloads: build(spec) -> inputs, part of set-up;
#    run(inputs) -> rows, the timed pass ------------------------------------


def _systems_build(spec):
    """``reeskit gb`` arguments for each system."""
    import reeskit.cli  # noqa: F401  (imported during set-up, not timed)
    return [(system["name"],
             ["gb", "--vars", ",".join(system["vars"]),
              "--ideal", ", ".join(system["text"])])
            for system in spec["inputs"]]


def _systems_run(systems):
    from reeskit import cli
    rows = []
    for name, argv in systems:
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            error = None
        except Exception:
            code, error = None, _failure()
        rows.append({"name": name, "t0": t0, "t1": time.perf_counter(),
                     "code": code,
                     "lines": buf.getvalue().splitlines(), "error": error})
    return rows


def _curves_build(spec):
    return spec["inputs"]  # ``import reeskit`` loads every module used


def _curves_run(instances):
    from reeskit import corpus, ideals, invariants, rees
    rows = []
    for inst in instances:
        t0 = time.perf_counter()
        try:
            ctx = corpus.monomial_curve(inst["weights"], inst["names"])
            x, y = ctx.parse(inst["x"]), ctx.parse(inst["y"])
            I = ideals.Ideal(ctx, [x, y])
            idv = invariants.integral_degree_fraction(y, x, ctx,
                                                       inst["cap"])
            rn = invariants.reduction_number(I, ideals.Ideal(ctx, [x]),
                                             inst["cap"])
            rt = rees.relation_type(I)
            out, error = {"id": idv.value, "rn": rn.value, "rt": rt}, None
        except Exception:
            out, error = None, _failure()
        rows.append({"name": f"t^{inst['weights']} x={inst['x']} "
                             f"y={inst['y']}",
                     "t0": t0, "t1": time.perf_counter(),
                     "out": out, "error": error})
    return rows


def _curves_oracle(instances, rows):
    """The numerical-semigroup reference, outside the timed pass."""
    from reeskit import semigroup
    for inst, row in zip(instances, rows):
        row["oracle"] = semigroup.monomial_fraction_degree(
            inst["weights"], inst["shift"])


WORKLOADS = {
    "groebner-systems": (_systems_build, _systems_run, None),
    "curve-invariants": (_curves_build, _curves_run, _curves_oracle),
}


def main() -> int:
    spec = json.load(sys.stdin)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import reeskit
    if not os.path.abspath(reeskit.__file__).startswith(
            os.path.abspath(src) + os.sep):
        raise RuntimeError(f"reeskit imported from {reeskit.__file__}, "
                           f"not from {src}")
    build, run, reference = WORKLOADS[spec["workload"]]
    inputs = build(spec)
    setup_s = _clock() - spec["t_spawn"]
    result = {"setup_s": setup_s}
    if spec["setup_only"]:
        ticks = [t1 - t0 for t0, t1 in (_cal_kernel()
                                        for _ in range(CAL_SETUP_RUNS))]
        result["cal_ms"] = sum(ticks) * 1e3 / len(ticks)
    else:
        tracer = None
        if spec["trace"]:
            from tracer import Tracer  # bench/ is first on the path
            tracer = Tracer()
            tracer.install()
        cal = Calibrator()  # traced passes run without ticks
        with contextlib.nullcontext() if tracer else cal:
            t0 = time.perf_counter()
            rows = run(inputs)
            t1 = time.perf_counter()
        result["total_s"], result["cal_ms"] = cal.settle(rows, t0, t1)
        result["peak_rss_mb"] = _peak_rss_mb()
        if reference is not None:
            reference(inputs, rows)
        result["rows"] = rows
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["spans"] = tracer.span_edges()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in span tracer for reeskit.

The program is not edited.  :meth:`Tracer.install` wraps the public
functions of each reeskit module, plus the arithmetic methods of
``Poly``, and records one span per call with a link to the
span that caused it.  The modules import each other by name
(``from .ideals import ideal_intersect``), so every module binding and
class attribute that *is* an original function is replaced; wrapping
only the defining module would silently lose the spans of its callers.

Spans are aggregated in memory per (parent, function) edge as a call
count and a self time (duration minus the time covered by child spans);
inclusive time is kept per function and counted only for the outermost
active call, so recursion is not double counted.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

LAYERS = ("poly", "groebner", "ideals", "rees", "invariants", "corpus",
          "semigroup", "cli")

# Poly arithmetic methods traced as poly-layer functions (``__rmul__`` is
# the same function object as ``__mul__``, so one wrapper covers both).
POLY_METHODS = {"add": "__add__", "sub": "__sub__", "rsub": "__rsub__",
                "neg": "__neg__", "mul": "__mul__", "pow": "__pow__",
                "scale": "scale", "monic": "monic"}

# Per-layer metrics read off single functions: (metric, function, field).
FUNCTION_METRICS = (
    ("poly.mul.calls", "poly.mul", "calls"),
    ("poly.mul.self_s", "poly.mul", "self_s"),
    ("groebner.reduced_groebner.calls", "groebner.reduced_groebner", "calls"),
    ("groebner.reduced_groebner.self_s", "groebner.reduced_groebner",
     "self_s"),
    ("groebner.normal_form.calls", "groebner.normal_form", "calls"),
    ("groebner.normal_form.self_s", "groebner.normal_form", "self_s"),
    ("groebner.spolynomial.calls", "groebner.spolynomial", "calls"),
    ("groebner.eliminate_polys.calls", "groebner.eliminate_polys", "calls"),
    ("groebner.eliminate_polys.s", "groebner.eliminate_polys", "s"),
    ("ideals.ideal_colon.calls", "ideals.ideal_colon", "calls"),
    ("ideals.ideal_colon.self_s", "ideals.ideal_colon", "self_s"),
    ("ideals.ideal_product.calls", "ideals.ideal_product", "calls"),
    ("ideals.ideal_power.calls", "ideals.ideal_power", "calls"),
    ("ideals.is_regular_element.s", "ideals.is_regular_element", "s"),
    ("rees.rees_kernel.calls", "rees.rees_kernel", "calls"),
    ("rees.rees_kernel.s", "rees.rees_kernel", "s"),
    ("rees.relation_type.s", "rees.relation_type", "s"),
    ("invariants.is_reduction.s", "invariants.is_reduction", "s"),
    ("invariants.integral_degree_fraction.s",
     "invariants.integral_degree_fraction", "s"),
    ("corpus.monomial_curve.calls", "corpus.monomial_curve", "calls"),
    ("corpus.monomial_curve.s", "corpus.monomial_curve", "s"),
    ("semigroup.monomial_fraction_degree.s",
     "semigroup.monomial_fraction_degree", "s"),
)

# Metrics derived from arguments and results, with the functions they need.
DERIVED_METRICS = {
    "groebner.reduced_groebner.distinct_ratio": ("groebner.reduced_groebner",),
    "groebner.zero_reduction_ratio": ("groebner.spolynomial",
                                      "groebner.normal_form"),
    "groebner.max_basis_len": ("groebner.reduced_groebner",),
    "invariants.degrees_scanned": ("invariants.is_reduction",
                                   "invariants.integral_degree_fraction",
                                   "invariants.artin_rees_number",
                                   "invariants.reg_rees"),
}

LAYER_METRICS = tuple(f"{layer}.self_s" for layer in LAYERS)


def metric_names() -> list:
    """Every per-layer metric the tracer can report, in report order."""
    return (list(LAYER_METRICS) + [m for m, _, _ in FUNCTION_METRICS]
            + list(DERIVED_METRICS))


def _reeskit_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "reeskit" or name.startswith("reeskit.")}


def _public_functions(layer, module):
    for name, obj in vars(module).items():
        if (name.startswith("_") or not inspect.isfunction(obj)
                or obj.__module__ != module.__name__
                or inspect.isgeneratorfunction(obj)):
            continue
        yield f"{layer}.{name}", obj


def _gb_key(gens, ctx, order):
    """Canonical input of a reduced_groebner call: ring variables, order
    and the sorted set of generator term lists."""
    if gens is None:
        return object()  # generators came as an iterator: count as distinct
    gens = [g for g in gens if g is not None and not g.is_zero]
    if ctx is None:
        ctx = gens[0].ctx
    order = order if order is not None else ctx.ambient.order
    terms = sorted({tuple(sorted(g.terms.items())) for g in gens})
    return ctx.vars, order.tag, tuple(terms)


def _degrees_scanned(fid, out):
    """Degrees a capped search tried, read off its outcome and witness."""
    if fid == "invariants.is_reduction":
        return (out.value if out.resolved else out.cap) + 1
    if fid == "invariants.integral_degree_fraction":
        return out.value if out.resolved else out.cap
    if fid == "invariants.reg_rees":
        window = (out.witness or "").startswith("window-checked")
        return out.cap if window else 0
    if fid == "invariants.artin_rees_number":
        return out.window
    raise KeyError(fid)


class Tracer:
    """Span recorder for one interpreter; install once, read at the end."""

    def __init__(self):
        self.stack = []          # [function id, child time ns] per open span
        self.edges = {}          # (parent id, function id) -> [calls, self ns]
        self.inclusive = {}      # function id -> outermost inclusive ns
        self.depth = {}          # function id -> open spans
        self.functions = {}      # function id -> original function
        self.gb_inputs = []      # (gens, ctx, order) of reduced_groebner
        self.max_basis_len = 0
        self.spolys_formed = 0   # inside reduced_groebner
        self.spolys_zero = 0     # ... whose normal form there was zero
        self.last_spoly = None
        self.degrees = 0

    # -- hooks, run after a span closes ------------------------------------

    def _after_gb(self, args, kwargs, result):
        call = self._gb_signature.bind(*args, **kwargs).arguments
        gens = call["gens"]
        gens = tuple(gens) if isinstance(gens, (list, tuple)) else None
        self.gb_inputs.append((gens, call.get("ctx"), call.get("order")))
        self.max_basis_len = max(self.max_basis_len, len(result.elements))

    def _after_spoly(self, args, kwargs, result):
        if self.stack and self.stack[-1][0] == "groebner.reduced_groebner":
            self.spolys_formed += 1
            self.last_spoly = result

    def _after_nf(self, args, kwargs, result):
        f = args[0] if args else kwargs.get("f")
        if f is self.last_spoly and f is not None:
            self.last_spoly = None
            if result.is_zero:
                self.spolys_zero += 1

    def _after_search(self, fid):
        def after(args, kwargs, result):
            self.degrees += _degrees_scanned(fid, result)
        return after

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fid, fn, after):
        stack, edges = self.stack, self.edges
        inclusive, depth = self.inclusive, self.depth
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [fid, 0]
            stack.append(frame)
            d = depth.get(fid, 0)
            depth[fid] = d + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[fid] = d
                if stack:
                    stack[-1][1] += dt
                if not d:
                    inclusive[fid] = inclusive.get(fid, 0) + dt
                rec = edges.get((parent, fid))
                if rec is None:
                    edges[(parent, fid)] = [1, dt - frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += dt - frame[1]
            if after is not None:
                after(args, kwargs, result)
            return result

        span.__wrapped__ = fn
        span.__name__ = fn.__name__
        span.__qualname__ = fn.__qualname__
        return span

    def install(self):
        """Wrap every public reeskit function and Poly arithmetic method."""
        targets = []
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"reeskit.{layer}")
            except ImportError:
                print(f"warning: module reeskit.{layer} not found; its layer "
                      "is not traced", file=sys.stderr)
                continue
            targets.extend(_public_functions(layer, module))
            if layer == "poly":
                for short, attr in POLY_METHODS.items():
                    fn = vars(module.Poly).get(attr)
                    if inspect.isfunction(fn):
                        targets.append((f"poly.{short}", fn))
        modules = _reeskit_modules()
        gb = dict(targets).get("groebner.reduced_groebner")
        if gb is not None:
            self._gb_signature = inspect.signature(gb)
        hooks = {
            "groebner.reduced_groebner": self._after_gb,
            "groebner.spolynomial": self._after_spoly,
            "groebner.normal_form": self._after_nf,
        }
        for fid in DERIVED_METRICS["invariants.degrees_scanned"]:
            hooks[fid] = self._after_search(fid)
        classes = {id(obj): obj for mod in modules.values()
                   for obj in vars(mod).values()
                   if inspect.isclass(obj)
                   and obj.__module__.startswith("reeskit")}
        for fid, fn in targets:
            wrapper = self._wrap(fid, fn, hooks.get(fid))
            self.functions[fid] = fn
            for namespace in list(modules.values()) + list(classes.values()):
                for name, obj in list(vars(namespace).items()):
                    if obj is fn:
                        setattr(namespace, name, wrapper)

    # -- results -----------------------------------------------------------

    def function_stats(self):
        """function id -> {"calls", "self_s", "s"}."""
        out = {fid: {"calls": 0, "self_s": 0.0, "s": 0.0}
               for fid in self.functions}
        for (_, fid), (calls, self_ns) in self.edges.items():
            out[fid]["calls"] += calls
            out[fid]["self_s"] += self_ns / 1e9
        for fid, ns in self.inclusive.items():
            out[fid]["s"] = ns / 1e9
        return out

    def span_edges(self):
        return [{"parent": parent, "function": fid, "calls": calls,
                 "self_s": self_ns / 1e9}
                for (parent, fid), (calls, self_ns) in sorted(
                    self.edges.items())]

    def metrics(self):
        """Per-layer metrics; a metric whose function no longer exists is
        left out (with a warning), never reported as zero."""
        stats = self.function_stats()
        out = {}
        for name in LAYER_METRICS:
            layer = name.split(".")[0]
            out[name] = sum(s["self_s"] for fid, s in stats.items()
                            if fid.split(".")[0] == layer)
        missing = set()
        for name, fid, field in FUNCTION_METRICS:
            if fid in stats:
                out[name] = stats[fid][field]
            else:
                missing.add(name)
        for name, needs in DERIVED_METRICS.items():
            if any(fid not in stats for fid in needs):
                missing.add(name)
        calls = len(self.gb_inputs)
        if "groebner.reduced_groebner.distinct_ratio" not in missing:
            distinct = len({_gb_key(*call) for call in self.gb_inputs})
            out["groebner.reduced_groebner.distinct_ratio"] = (
                distinct / calls if calls else 0.0)
        if "groebner.zero_reduction_ratio" not in missing:
            out["groebner.zero_reduction_ratio"] = (
                self.spolys_zero / self.spolys_formed
                if self.spolys_formed else 0.0)
        if "groebner.max_basis_len" not in missing:
            out["groebner.max_basis_len"] = self.max_basis_len
        if "invariants.degrees_scanned" not in missing:
            out["invariants.degrees_scanned"] = self.degrees
        for name in sorted(missing):
            print(f"warning: per-layer metric {name} is absent: a function "
                  "it reads no longer exists", file=sys.stderr)
        return out


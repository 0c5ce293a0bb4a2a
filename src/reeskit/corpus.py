"""Example registry: classical ideal families with frozen expectations.

Each entry builds an affine/graded model of a family from the
commutative-algebra literature, computes its invariants with the
library, and compares them against frozen expected values.  Each
:class:`Expectation` carries its computed value next to the expected
one and a provenance source ("literature: ...", "derived: ...", or
"trivial: ..."); the registry refuses entries without one.  A
literature value known to disagree with the stated independent oracle
is marked ``divergence_ok``, and a computed value that differs from it
is reported as an expected divergence instead of a failure.  An entry
passes or fails: every invariant is exact, and a computed None fails
its expectation, even under ``divergence_ok``.

The local families are evaluated in affine polynomial / monomial-curve
models; every identity tested here is between objects generated in the
t-grading, where the affine chain conditions agree with the local ones.
"""

from __future__ import annotations

from .groebner import eliminate_polys
from .ideals import Ideal, ideal_intersect, ideal_member, ideal_power, \
    ideal_product
from .invariants import (artin_rees_number, check_d_sequence_reduction,
                         d_sequence_check, integral_degree_fraction,
                         reduction_number)
from .poly import Record, RingCtx
from .rees import relation_type, relation_type_2gen, relation_type_mod
from .semigroup import monomial_fraction_degree

_SOURCES = ("literature:", "derived:", "trivial:")


class Expectation(Record):
    __slots__ = ("key", "expected", "source", "computed", "divergence_ok")

    def __init__(self, key: str, expected, source: str, computed,
                 divergence_ok: bool = False):
        self.key, self.expected, self.source = key, expected, source
        self.computed, self.divergence_ok = computed, divergence_ok
        if not any(self.source.startswith(p) for p in _SOURCES):
            raise ValueError(
                f"expectation {self.key!r} lacks a provenance source")

    @property
    def ok(self) -> bool:
        return self.computed == self.expected

    @property
    def divergent(self) -> bool:
        return (self.divergence_ok and self.computed is not None
                and not self.ok)


class ExampleReport(Record):
    __slots__ = ("name", "n", "results")
    __hash__ = None

    def __init__(self, name: str, n: int, results: list):
        self.name = name
        self.n = n
        self.results = results

    @property
    def passed(self) -> bool:
        return all(r.ok or r.divergent for r in self.results)

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def lines(self):
        out = [("example", self.name), ("n", self.n)]
        for r in self.results:
            out.append((r.key, r.computed))
            out.append((f"{r.key}.expected", r.expected))
            out.append((f"{r.key}.source", r.source))
            if r.divergent:
                out.append((f"{r.key}.note", "expected-divergence"))
        return out

    def failure_lines(self):
        return [f"expected {r.key} = {format_value(r.expected)}, "
                f"got {format_value(r.computed)}"
                for r in self.results if not (r.ok or r.divergent)]


# ---------------------------------------------------------------------------
# report formatting


def format_value(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def emit_report(pairs, status: str) -> str:
    """Deterministic ``key = value`` lines with a trailing status line."""
    lines = [f"{k} = {format_value(v)}" for k, v in pairs]
    lines.append(f"status = {status}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# shared builders

_CURVE_CACHE = {}


def monomial_curve(weights, names) -> RingCtx:
    """Q[names]/P for P = ker(names_i -> t^{weights_i}), kernel by
    elimination.  P is prime, as the kernel of a map to the domain Q[t],
    so the ring is marked as a domain."""
    key = (tuple(weights), tuple(names))
    if key in _CURVE_CACHE:
        return _CURVE_CACHE[key]
    names = tuple(names)
    if len(weights) != len(names):
        raise ValueError("weights and names must align")
    base = RingCtx(names)
    kernel = eliminate_polys(base, lambda t, lift: [
        lift(base.var(nm)) - t ** w for nm, w in zip(names, weights)])
    ctx = RingCtx(names, quotient=kernel, _domain=True) if kernel else base
    _CURVE_CACHE[key] = ctx
    return ctx


def _sv_names(n: int):
    return tuple(f"u{i}" for i in range(n + 1))


# ---------------------------------------------------------------------------
# entries


class CorpusEntry(Record):
    __slots__ = ("name", "n_min", "n_max", "summary", "runner")

    def __init__(self, name: str, n_min: int, n_max: int, summary: str,
                 runner):
        self.name, self.n_min, self.n_max = name, n_min, n_max
        self.summary, self.runner = summary, runner

    def run(self, n: int) -> ExampleReport:
        if not self.n_min <= n <= self.n_max:
            raise ValueError(
                f"{self.name}: n = {n} outside supported range "
                f"[{self.n_min}, {self.n_max}]")
        return ExampleReport(self.name, n, self.runner(n))


def _run_huneke(n: int):
    ctx = RingCtx("x,y")
    x, y = ctx.var("x"), ctx.var("y")
    jgens = [x ** n, y ** n]
    I = Ideal(ctx, jgens + [x ** (n - 1) * y])
    J = Ideal(ctx, jgens)
    rn = reduction_number(I, J)
    rep = check_d_sequence_reduction(I, jgens) if rn.resolved else None
    return [
        Expectation("rn", n - 1,
                    "literature: Huneke's family (x^n, y^n, x^{n-1}y) has "
                    "the reduction (x^n, y^n) with reduction number n-1",
                    rn.value),
        Expectation("cds_iii_failure", n >= 3,
                    "derived: Groebner comparison of (x^n) ∩ I^n with "
                    "x^n·I^{n-1}; equality holds exactly for n <= 2",
                    None if rep is None else not rep.intersection_ok),
    ]


def _run_wang(n: int):
    ctx = RingCtx("x,y,z")
    x, y, z = (ctx.var(v) for v in "xyz")
    I = Ideal(ctx, [x ** n, y ** n, x ** (n - 1) * y + z ** n])
    m = Ideal(ctx, [x, y, z])
    a = Ideal(ctx, [z])
    ctx_mod = ctx.with_quotient([z])
    I_mod = Ideal(ctx_mod, list(I.gens))
    m_mod = Ideal(ctx_mod, [x, y, z])
    zero_mod = Ideal(ctx_mod, [])
    ar = artin_rees_number(a, I, m)
    return [
        Expectation("rt", 1,
                    "trivial: the three generators form a regular sequence, "
                    "so the presentation kernel is generated by linear "
                    "syzygies", relation_type(I)),
        Expectation("rt_mod_a", n,
                    "literature: Wang's three-generated family has relation "
                    "type n modulo the prime (z)",
                    relation_type_mod(I_mod, zero_mod)),
        Expectation("rt_fiber", n,
                    "literature: the fiber cone of the image ideal has "
                    "relation type n (defining relation T3^n - T1^{n-1}T2)",
                    relation_type_mod(I_mod, m_mod)),
        Expectation("s_m", n,
                    "literature: the Artin-Rees number modulo the maximal "
                    "ideal equals the fiber relation type n",
                    ar.s_value.value),
    ]


def _run_eisenbud_hochster(n: int):
    ctx = RingCtx("x,y")
    x, y = ctx.var("x"), ctx.var("y")
    f = x ** n - y ** (n + 1)
    a = Ideal(ctx, [f])
    I = Ideal(ctx, [x, y])
    zero = Ideal(ctx, [])
    ar = artin_rees_number(a, I, zero)
    lhs = ideal_intersect(ideal_power(I, n), a)
    rhs = ideal_product(I, ideal_intersect(ideal_power(I, n - 1), a))
    strict = (all(ideal_member(g, lhs) for g in rhs.gb)
              and not all(ideal_member(g, rhs) for g in lhs.gb))
    ctx_curve = ctx.with_quotient([f])
    idxy = integral_degree_fraction(x, y, ctx_curve)
    return [
        Expectation("strict_gap", True,
                    "literature: Eisenbud-Hochster slice: the generator of "
                    "the prime lies in I^n but I^n ∩ (f) exceeds "
                    "I·(I^{n-1} ∩ (f))", strict),
        Expectation("s", n,
                    "derived: the order-n generator forces obstructions in "
                    "degrees 1..n and none beyond", ar.s_value.value),
        Expectation("id_x_over_y", n,
                    "derived: numerical semigroup <n, n+1>: least k with "
                    "k·1 in the semigroup is n", idxy.value),
    ]


def _run_sally_vasconcelos(n: int):
    names = _sv_names(n)
    weights = tuple(n + 1 + i for i in range(n + 1))
    ctx = monomial_curve(weights, names)
    u0, u1 = ctx.var(names[0]), ctx.var(names[1])
    out = integral_degree_fraction(u1, u0, ctx)
    oracle = monomial_fraction_degree(weights, 1)
    return [
        Expectation("id", n,
                    "literature: Sally-Vasconcelos localization example, "
                    "integral degree asserted to be n",
                    out.value, divergence_ok=True),
        Expectation("id_matches_oracle", True,
                    "derived: brute-force numerical-semigroup oracle on "
                    "<n+1, ..., 2n+1> (minimal monic equation of t)",
                    out.value == oracle),
    ]


def _run_veronese(n: int):
    ctx = RingCtx("x,y")
    x, y = ctx.var("x"), ctx.var("y")
    I = Ideal(ctx, [x ** 2, x * y, y ** 2])
    rt = relation_type(I)
    # two-generated sub-ideals where the chart route applies
    sub_checks = [relation_type(Ideal(ctx, [xx, yy]))
                  == relation_type_2gen(xx, yy, ctx)
                  for xx, yy in [(x ** 2, x * y), (x ** 2, y ** 2)]]
    return [
        Expectation("rt", 2,
                    "derived: the kernel needs the quadratic relation "
                    "T1*T3 - T2^2 on top of the linear syzygies", rt),
        Expectation("two_route_agreement", True,
                    "derived: general degree analysis agrees with the "
                    "two-generated chart route on the sub-ideals",
                    all(sub_checks)),
    ]


def _run_node_dseq(n: int):
    ctx = RingCtx("x,y,z", quotient=["x*z"])
    x, y = ctx.var("x"), ctx.var("y")
    return [
        Expectation("dseq_x_y", False,
                    "derived: (0 : x) ∩ (x, y) contains y·z, which is "
                    "nonzero on the node", d_sequence_check([x, y], ctx)),
        Expectation("dseq_y_x", True,
                    "derived: y is regular and ((y) : x) ∩ (y, x) "
                    "collapses to (y)", d_sequence_check([y, x], ctx)),
        Expectation("dseq_x", True,
                    "derived: (0 : x) ∩ (x) = (x·z) = 0 on the node",
                    d_sequence_check([x], ctx)),
    ]


REGISTRY = {
    e.name: e for e in [
        CorpusEntry("eisenbud-hochster", 2, 5,
                    "plane slice with a strict uniform Artin-Rees gap",
                    _run_eisenbud_hochster),
        CorpusEntry("huneke", 2, 5,
                    "three-generated ideals with two-generated reductions",
                    _run_huneke),
        CorpusEntry("node-dseq", 1, 1,
                    "d-sequence order sensitivity on the node",
                    _run_node_dseq),
        CorpusEntry("sally-vasconcelos", 2, 3,
                    "monomial-curve slices with growing integral degree",
                    _run_sally_vasconcelos),
        CorpusEntry("veronese", 2, 2,
                    "quadratic Veronese ideal, relation type two",
                    _run_veronese),
        CorpusEntry("wang", 2, 4,
                    "three-generated family with unbounded modulo-maximal "
                    "Artin-Rees numbers",
                    _run_wang),
    ]
}


def run_example(name: str, n: int) -> ExampleReport:
    entry = REGISTRY.get(name)
    if entry is None:
        raise KeyError(f"unknown example {name!r}; see `reeskit list`")
    return entry.run(n)


def list_examples() -> str:
    lines = []
    for name in sorted(REGISTRY):
        e = REGISTRY[name]
        lines.append(f"{name} n∈[{e.n_min},{e.n_max}] — {e.summary}")
    return "\n".join(lines)

"""Rees presentations, relation types, and the two-generated chart route,
checked against the colon definition of effective relations; the
lead-monomial T-degree read, checked against its membership definition."""

import itertools
import random

import pytest
from conftest import CURVE_INSTANCES, _t_order, contract
from hypothesis import assume, given, settings, strategies as st

from reeskit import (Ideal, Lex, PolyError, ResourceLimitError, RingCtx,
                     Weighted, artin_rees_number, embed, ideal_colon,
                     ideal_contains, ideal_equal, ideal_intersect,
                     ideal_member, ideal_power, ideal_product, ideal_sum,
                     integral_degree_fraction, is_reduction,
                     is_regular_element, monomial_curve,
                     monomial_fraction_degree, normal_form,
                     reduced_groebner, reduction_number, reg_rees,
                     rees_kernel, relation_type, relation_type_2gen,
                     relation_type_mod)
from reeskit import corpus, groebner, ideals, rees
from reeskit.rees import (_degree_profile, _lead, filter_regular_degree,
                          reduction_degree)

CTX2 = RingCtx("x,y")
CTX3 = RingCtx("x,y,z")
NODE = RingCtx("x,y,z", quotient=["x*z"])
CUSP23 = monomial_curve((2, 3), ("u", "v"))
CUSP34 = monomial_curve((3, 4), ("u", "v"))


def I_(ctx, *gens):
    return Ideal(ctx, list(gens))


def _kernel_is(pres, *relations):
    """Whether K is the ideal of ``relations`` in the presentation ring,
    whatever form its reduced basis prints in."""
    return ideal_equal(pres.kernel, Ideal(pres.ext_ctx, list(relations)))


def test_kernel_of_regular_pair_is_koszul():
    x, y = CTX2.var("x"), CTX2.var("y")
    pres = rees_kernel(I_(CTX2, x, y))
    assert len(pres.kernel.gb.elements) == 1
    assert _kernel_is(pres, "y*T1 - x*T2")
    assert _degree_profile(pres.kernel, 1) == {1: pres.kernel.gb.elements}


def test_kernel_of_veronese_has_quadratic_relation():
    pres = rees_kernel(I_(CTX2, *[CTX2.parse(s) for s in ("x^2", "x*y", "y^2")]))
    assert len(pres.kernel.gb.elements) == 3
    assert _kernel_is(pres, "y*T1 - x*T2", "y*T2 - x*T3", "T2^2 - T1*T3")


def test_kernel_of_principal_regular_ideal_is_trivial():
    u = CUSP34.var("u")
    pres = rees_kernel(I_(CUSP34, u))
    assert _degree_profile(pres.kernel, 1) == {}
    assert relation_type(I_(CUSP34, u)) == 1


def _compose(poly, target, images):
    """Substitute ``images[i]`` (a Poly over ``target``) for variable i."""
    result = target.zero
    for e, c in poly.terms.items():
        term = target.const(c)
        for i, x in enumerate(e):
            if x:
                term = term * images[i] ** x
        result = result + term
    return result


def test_kernel_substitution_soundness():
    # every kernel generator vanishes under T_i -> x_i * t, modulo the quotient
    from reeskit import embed, reduced_groebner
    for ideal in [I_(CUSP34, CUSP34.var("u"), CUSP34.var("v")),
                  I_(CTX2, CTX2.parse("x^2"), CTX2.parse("x*y"),
                     CTX2.parse("y^2"))]:
        pres = rees_kernel(ideal)
        base = ideal.ctx
        sub = RingCtx(base.vars + ("s",))
        positions = tuple(range(len(base.vars)))
        t = sub.var("s")
        images = [sub.var(v) for v in base.vars]
        images += [embed(p, sub, positions) * t for p in ideal.gens
                   if not p.is_zero]
        lifted_quotient = [embed(q, sub, positions) for q in base.quotient]
        qgb = reduced_groebner(lifted_quotient, ctx=sub) if lifted_quotient \
            else None
        for g in pres.kernel.gb.elements:
            val = _compose(g, sub, images)
            if qgb is not None:
                val = normal_form(val, qgb)
            assert val.is_zero


def test_kernel_is_t_homogeneous():
    pres = rees_kernel(I_(CUSP34, CUSP34.var("u"), CUSP34.var("v")))
    order = pres.ext_ctx.order
    assert order.weights == (0, 0) + (1,) * pres.tcount
    for g in pres.kernel.gb.elements:
        assert len({order.degree(e) for e in g.terms}) == 1


def test_relation_type_examples():
    x, y = CTX2.var("x"), CTX2.var("y")
    assert relation_type(I_(CTX2, x, y)) == 1
    assert relation_type(I_(CTX2, x ** 2, x * y, y ** 2)) == 2
    wang2 = I_(CTX3, CTX3.parse("x^2"), CTX3.parse("y^2"),
               CTX3.parse("x*y + z^2"))
    assert relation_type(wang2) == 1
    # user variables named like the presentation variables get fresh names
    ctx = RingCtx("T1,x")
    T1, x = ctx.var("T1"), ctx.var("x")
    pres = rees_kernel(I_(ctx, T1, x))
    assert pres.tvars == ("T1_", "T2")
    assert len(pres.kernel.gb.elements) == 1
    assert _kernel_is(pres, "x*T1_ - T1*T2")
    assert relation_type(I_(ctx, T1 ** 2, T1 * x, x ** 2)) == 2


def test_relation_type_mod_examples():
    x, y = CTX2.var("x"), CTX2.var("y")
    M = I_(CTX2, x, y)
    assert relation_type_mod(M, M) == 1  # fiber cone of the maximal ideal
    ctx_mod = CTX3.with_quotient(["z"])
    wang2 = I_(ctx_mod, ctx_mod.parse("x^2"), ctx_mod.parse("y^2"),
               ctx_mod.parse("x*y + z^2"))
    m = I_(ctx_mod, *(ctx_mod.var(v) for v in "xyz"))
    assert relation_type_mod(wang2, m) == 2
    zero = I_(CTX2, CTX2.zero)
    V = I_(CTX2, x ** 2, x * y, y ** 2)
    assert relation_type_mod(V, zero) == relation_type(V)
    # the fiber cone, with the maximal ideal on other generators
    assert relation_type_mod(V, I_(CTX2, x + y, y)) == 2


def test_relation_type_mod_bounded_by_relation_type():
    x, y = CTX2.var("x"), CTX2.var("y")
    V = I_(CTX2, x ** 2, x * y, y ** 2)
    rt = relation_type(V)
    assert relation_type_mod(V, I_(CTX2, x, y)) <= rt
    # equality when J is contained in I
    assert relation_type_mod(V, V) == rt
    assert relation_type_mod(V, I_(CTX2, x ** 2)) == rt


def _fresh_by_membership(ideal, floor):
    """``rees._fresh_degree`` by its definition, every degree by
    membership: the largest T-degree n > floor with a basis element
    outside the ideal of the basis elements of T-degrees floor..n-1
    (modulo the quotient), and the first such element."""
    profile = _degree_profile(ideal, floor)
    for n in sorted((d for d in profile if d > floor), reverse=True):
        lower = Ideal(ideal.ctx, [g for d, els in profile.items() if d < n
                                  for g in els])
        for g in profile[n]:
            if not ideal_member(g, lower):
                return n, g
    return floor, None


def test_a_lower_pair_reaching_the_top_degree_is_read_by_membership():
    # K of (x³, xy², y⁴) has T-degrees 1, 2, 3; its degree-3 element is
    # the S-pair of x*T2^2 - T1*T3 and x*T3 - y^2*T2, whose leads share x
    # and meet in degree 3, so the leads alone do not decide degree 3
    I = I_(CTX2, "x^3", "x*y^2", "y^4")
    assert set(_degree_profile(rees_kernel(I).kernel, 1)) == {1, 2, 3}
    with groebner.counting() as stats:
        assert relation_type(I) == 2
    assert stats.normal_forms > 0


NODAL = RingCtx("x,y", quotient=["y^2 - x^2 - x^3"])
FRESH_RINGS = [CTX2, CTX3, CUSP23, CUSP34, NODAL, NODE]
FRESH_IDEALS = 20  # per ring


def _random_poly(rng, ctx):
    """A sum of two monomials of degree 1..2 with coefficients 1..3."""
    monomials = [e for e in itertools.product(range(3), repeat=len(ctx.vars))
                 if 1 <= sum(e) <= 2]
    return sum((ctx.poly({rng.choice(monomials): rng.randint(1, 3)})
                for _ in range(2)), ctx.zero)


def test_lead_monomial_reads_agree_with_membership(monkeypatch):
    # every read of rt, rt_J (J maximal) and s_J against the oracle, on
    # seeded 2-3-generated ideals; both branches of the read must run
    fresh, reads = rees._fresh_degree, []

    def recording(ideal, floor):
        ideal.gb  # the basis is built outside the count
        with groebner.counting() as stats:
            out = fresh(ideal, floor)
        reads.append((ideal, floor, out, stats.normal_forms))
        return out

    monkeypatch.setattr(rees, "_fresh_degree", recording)
    rng = random.Random(2007)
    for ctx in FRESH_RINGS:
        m = Ideal(ctx, list(ctx.vars))
        for _ in range(FRESH_IDEALS):
            I = Ideal(ctx, [_random_poly(rng, ctx)
                            for _ in range(rng.randint(2, 3))])
            relation_type(I)
            relation_type_mod(I, m)
            rees.artin_rees_degree(I_(ctx, _random_poly(rng, ctx)), I, m)
    for ideal, floor, out, _ in reads:
        assert _fresh_by_membership(ideal, floor) == out
    assert any(g is not None and not forms for _, _, (_, g), forms in reads)
    assert any(forms for *_, forms in reads)


def test_rt_of_a_built_presentation_runs_no_groebner():
    # on the curve instances every degree of K is decided by its leads
    busy = []
    for weights, names, xs, ys in CURVE_INSTANCES:
        I = I_(monomial_curve(weights, names), xs, ys)
        rees_kernel(I)
        with groebner.counting() as stats:
            relation_type(I)
        if stats.runs or stats.normal_forms:
            busy.append((weights, xs, ys, stats.runs, stats.normal_forms))
    assert busy == []


def test_a_presentation_over_a_curve_reduces_no_pair_to_zero():
    # the curve's quotient basis is the elimination's known block: no
    # S-pair among its own generators is formed again
    for weights, names, xs, ys in CURVE_INSTANCES:
        I = I_(monomial_curve(weights, names), xs, ys)
        rees._present.cache_clear()
        groebner._buchberger.cache_clear()
        with groebner.counting() as stats:
            rees_kernel(I)
        assert (stats.presentations, stats.runs) == (1, 1), weights
        assert stats.zero == 0, (weights, xs, ys)


def test_a_curve_ring_under_lex_reads_the_same_invariants():
    # the degrevlex basis of the (3,4,5) curve is no lex basis: with_order
    # drops its mark, and a lex basis marked on a lex ring stays
    # unmarked in the presentation, whose order is degrevlex on a, b, c
    curve = monomial_curve((3, 4, 5), ("a", "b", "c"))
    lex = curve.with_order(Lex())
    lex_basis = reduced_groebner(curve.quotient, lex.ambient)
    marked = RingCtx(curve.vars, Lex(), quotient=lex_basis)
    assert [len(c.known) for c in (curve, lex, marked)] == [3, 0, 5]
    reads = []
    for ctx in (curve, lex, marked):
        x, y = ctx.var("a"), ctx.var("b")
        I = I_(ctx, x, y)
        reads.append((integral_degree_fraction(y, x, ctx).value,
                      reduction_number(I, I_(ctx, x)).value,
                      relation_type(I), len(rees_kernel(I).ext_ctx.known)))
    assert reads == [(3, 2, 3, 3), (3, 2, 3, 0), (3, 2, 3, 0)]


def test_a_lex_basis_is_no_known_block_of_a_degrevlex_elimination():
    # t -> (t^2, t^3 + t^5, t^7): the lex basis of its kernel is no
    # basis under the presentation's or the chart's order, which are
    # degrevlex on x, y, z; a ring marked with it reads as one unmarked
    lex = RingCtx("x,y,z", Lex())
    x, y, z = lex.var("x"), lex.var("y"), lex.var("z")
    kernel = groebner.eliminate_polys(lex, lambda t, lift: [
        lift(x) - t ** 2, lift(y) - t ** 3 - t ** 5, lift(z) - t ** 7])
    marked = RingCtx(lex.vars, Lex(), quotient=kernel)
    plain = RingCtx(lex.vars, quotient=list(kernel))
    assert (marked.known, plain.known) == (marked.quotient, ())
    reads = []
    for ctx in (marked, plain):
        I = I_(ctx, "x", "y")
        reads.append((integral_degree_fraction(y, x, ctx).value,
                      reduction_number(I, I_(ctx, "x")).value,
                      relation_type(I), relation_type_2gen(x, y, ctx)))
    assert reads == [(2, 1, 2, 2)] * 2


def _curve_345_ring(kind):
    """A new Q[a, b, c] modulo the (3,4,5) curve's kernel: marked under
    degrevlex as ``monomial_curve`` marks it, typed in (unmarked), or
    marked with its lex basis, a mark that ``extended`` drops."""
    curve = monomial_curve((3, 4, 5), ("a", "b", "c"))
    if kind == "typed":
        return RingCtx(curve.vars, quotient=[str(q) for q in curve.quotient])
    order = Lex() if kind == "lex" else curve.order
    basis = reduced_groebner(curve.quotient, RingCtx(curve.vars, order))
    return RingCtx(curve.vars, order, quotient=basis,
                   _domain=kind == "marked")


def _eliminations(monkeypatch, ctx):
    """The bases, as term tuples, of every elimination that four reads
    on ``ctx`` make, with no memo or presentation cached: the Rees kernel
    of I = (a, b), the chart kernel of ``relation_type_2gen(a, b)``,
    I ∩ (b, c), and the L of ``artin_rees_degree((c), I, I)``."""
    bases = []
    eliminate = groebner.eliminate_polys

    def recording(target, build):
        basis = eliminate(target, build)
        bases.append((target.vars, [g.sorted_terms for g in basis]))
        return basis

    for module in (rees, ideals):
        monkeypatch.setattr(module, "eliminate_polys", recording)
    rees._present.cache_clear()
    groebner._buchberger.cache_clear()
    a, b, c = (ctx.var(v) for v in ctx.vars)
    I = I_(ctx, a, b)
    pres = rees_kernel(I)
    assert pres.ext_ctx is ctx.extended(pres.tvars, pres.ext_ctx.order)
    relation_type_2gen(a, b, ctx)
    ideal_intersect(I, I_(ctx, b, c))
    rees.artin_rees_degree(I_(ctx, c), I, I)
    return bases, len(ctx.known), len(pres.ext_ctx.known)


@pytest.mark.parametrize("self_check", [False, True],
                         ids=["unchecked", "self-check"])
@pytest.mark.parametrize("kind, marks", [
    ("marked", (3, 3)), ("typed", (0, 0)), ("lex", (5, 0))])
def test_derived_rings_are_the_rings_own_and_sound(monkeypatch, kind, marks,
                                                   self_check):
    # a ring builds its presentation, chart and elimination rings once;
    # eliminations on them, built or held, agree with those on a newly
    # built equal ring, and each keeps the mark that its ring gives it
    monkeypatch.setattr(groebner, "SELF_CHECK", self_check)
    held, fresh = _curve_345_ring(kind), _curve_345_ring(kind)
    assert held == fresh and held is not fresh
    order = Weighted((0, 0, 0, 1))
    assert held.extended(("Z",), order) is held.extended(["Z"], order)
    assert held.extended(("Z",), order) is not fresh.extended(("Z",), order)
    first = _eliminations(monkeypatch, held)
    assert first[0] and first[1:] == marks
    assert _eliminations(monkeypatch, held) == first
    assert _eliminations(monkeypatch, fresh) == first


def _effective_vanishes(x, y, n, J):
    """Whether the module of effective n-relations of I = (x, y) modulo J
    vanishes, for x regular and n >= 2, by its colon definition

        (x I^{n-1} : y^n) ⊆ ((x J I^{n-1} : y^n) ∩ J) + (x I^{n-2} : y^{n-1});

    with J = (0) the middle term drops out.  Every colon is built from
    ``ideal_colon``, ``ideal_product`` and ``ideal_power``."""
    ctx = J.ctx
    I, xI = I_(ctx, x, y), I_(ctx, x)

    def colon(n, K=None):
        xK = xI if K is None else ideal_product(xI, K)
        return ideal_colon(ideal_product(xK, ideal_power(I, n - 1)),
                           I_(ctx, y ** n))

    rhs = colon(n - 1)
    if not J.is_zero:
        rhs = ideal_sum(ideal_intersect(colon(n, J), J), rhs)
    return ideal_contains(rhs, colon(n))


def test_effective_relation_examples():
    x, y = CTX2.var("x"), CTX2.var("y")
    zero2 = I_(CTX2, CTX2.zero)
    assert _effective_vanishes(x, y, 2, zero2)
    u, v = CUSP34.var("u"), CUSP34.var("v")
    zero_c = I_(CUSP34, CUSP34.zero)
    assert not _effective_vanishes(u, v, 3, zero_c)
    for n in (4, 5, 6):
        assert _effective_vanishes(u, v, n, zero_c)
    m = I_(CUSP34, u, v)
    assert not _effective_vanishes(u, v, 3, m)
    assert relation_type_mod(I_(CUSP34, u, v), m) == 3
    # R((x)) = A[xt] has no relations modulo any J
    for z, J in ((x, zero2), (x, I_(CTX2, x, y)), (u, zero_c), (u, m)):
        for n in (2, 3):
            assert _effective_vanishes(z, z.ctx.zero, n, J)


def test_effective_relation_requires_regular_first_generator():
    with pytest.raises(PolyError, match="regular"):
        relation_type_2gen(NODE.var("x"), NODE.var("y"), NODE)


GAP_CURVE = monomial_curve((4, 5, 7), ("a", "b", "c"))


def test_two_routes_agree_on_two_generated_ideals():
    # the T-degree analysis of K vs the chart kernel, and the colon
    # definition at rt and above; for monomials x, y with t-shift d >= 0,
    # y/x = t^d is integral, so rt((x, y)) = rn + 1 = id(t^d), the
    # semigroup oracle (weights None: a ring that is not a domain)
    cases = [
        ((3, 4), CUSP34, "u", "v", 3),
        ((2, 3), CUSP23, "u", "v", 2),
        ((4, 5, 7), GAP_CURVE, "a", "b", 4),
        (None, RingCtx("x,y", quotient=["x^2*y + x*y^2"]), "x - y", "x^2", 2),
        (None, NODE, "y^2", "x*y", 1),
    ] + [(w, monomial_curve(w, names), x, y, None)
         for w, names, x, y in CURVE_INSTANCES]
    for weights, ctx, xs, ys, expected in cases:
        x, y = ctx.parse(xs), ctx.parse(ys)
        rt = relation_type(I_(ctx, x, y))
        assert rt == expected or expected is None
        assert relation_type_2gen(x, y, ctx) == rt
        if weights is not None:
            shift = _t_order(y, weights) - _t_order(x, weights)
            assert rt == monomial_fraction_degree(weights, shift)
        if rt >= 2:
            zero = I_(ctx, ctx.zero)
            assert not _effective_vanishes(x, y, rt, zero)
            assert _effective_vanishes(x, y, rt + 1, zero)
            assert _effective_vanishes(x, y, rt + 2, zero)
    # a zero second generator: R((x)) has no relations on either route
    for ctx, xs in ((CTX2, "x"), (CUSP34, "u")):
        x = ctx.parse(xs)
        assert relation_type_2gen(x, ctx.zero, ctx) == 1
        assert relation_type(I_(ctx, x, ctx.zero)) == 1
    # effective degrees 2 and 4 on the gap curve: c_3 = c_2 is no stop
    a, b = GAP_CURVE.var("a"), GAP_CURVE.var("b")
    zero = I_(GAP_CURVE, GAP_CURVE.zero)
    assert [_effective_vanishes(a, b, n, zero) for n in (2, 3, 4)] == \
        [False, True, False]


def test_chart_route_does_not_read_the_rees_kernel(monkeypatch):
    # a kernel without its T-degree >= 2 elements misleads relation_type,
    # but not the chart route
    preimage = rees._preimage
    monkeypatch.setattr(rees, "_preimage", lambda *args: [
        g for g in preimage(*args) if rees._tdegree(g) < 2])
    u, v = CUSP34.var("u"), CUSP34.var("v")
    assert relation_type(I_(CUSP34, u, v)) == 1
    assert relation_type_2gen(u, v, CUSP34) == 3


@pytest.mark.parametrize("ctx, xs, ys, rt", [
    (CUSP34, "u", "v", 3),
    (CTX2, "x^2", "x*y", 1),
], ids=["cusp34", "plane"])
def test_chart_route_takes_no_colon(monkeypatch, ctx, xs, ys, rt):
    # c_n is read off the chart's leading coefficients: no colon is taken
    # on a domain, where x is checked regular by a normal form
    calls = []
    colon = ideals.ideal_colon

    def counting(I, J):
        calls.append(J)
        return colon(I, J)

    monkeypatch.setattr(ideals, "ideal_colon", counting)
    monkeypatch.setattr(rees, "ideal_colon", counting, raising=False)
    assert relation_type_2gen(ctx.parse(xs), ctx.parse(ys), ctx) == rt
    assert calls == []


def test_zero_ideal_has_relation_type_one():
    # R(0) = A is presented on no T variable: K holds no relation
    zero = I_(CTX2, CTX2.zero)
    pres = rees_kernel(zero)
    assert pres.tcount == 0 and pres.kernel.gb.elements == ()
    assert relation_type(zero) == 1
    assert relation_type_mod(zero, I_(CTX2, "x", "y")) == 1


# -- the presentation cache -----------------------------------------------------


def test_one_curve_instance_builds_one_presentation():
    # id, rn and rt of (x, y) with (x) first all read R((x, y))
    u, v = CUSP34.var("u"), CUSP34.var("v")
    I = I_(CUSP34, u, v)
    rees._present.cache_clear()
    with groebner.counting() as stats:
        assert integral_degree_fraction(v, u, CUSP34).value == 3
        assert reduction_number(I, I_(CUSP34, u)).value == 2
        assert relation_type(I) == 3
    assert stats.presentations == 1


def test_a_repeated_generator_is_presented_once():
    # (x, x) is presented on (x): id, rn and rt share one build
    u = CUSP34.var("u")
    I = I_(CUSP34, u, u)
    rees._present.cache_clear()
    with groebner.counting() as stats:
        assert integral_degree_fraction(u, u, CUSP34).value == 1
        assert reduction_number(I, I_(CUSP34, u)).value == 0
        assert relation_type(I) == 1
    assert stats.presentations == 1
    assert rees_kernel(I).tcount == 1


def test_a_repeated_generator_before_another_loses_no_generator():
    # (u, u, v) is presented on (u, v): the Artin–Rees read pairs each T
    # variable with a generator of the presentation, not of the ideal as
    # given, or v would be lost and s read as 1
    u, v = CUSP34.var("u"), CUSP34.var("v")
    a, m = I_(CUSP34, u * v), I_(CUSP34, u, v)
    for J in (I_(CUSP34), m):
        s = rees.artin_rees_degree(a, I_(CUSP34, u, u, v), J)
        assert s == rees.artin_rees_degree(a, m, J)
        assert s[0] == 5
        assert artin_rees_number(a, I_(CUSP34, u, u, v), J).s_value.value == 5


def test_presentation_hit_is_self_checked(monkeypatch):
    I = I_(CUSP34, CUSP34.var("u"), CUSP34.var("v"))
    rees_kernel(I)
    monkeypatch.setattr(groebner, "SELF_CHECK", True)
    monkeypatch.setattr(groebner.GroebnerBasis, "self_check", lambda b: False)
    with groebner.counting() as stats:
        with pytest.raises(PolyError, match="self-check failed"):
            rees_kernel(I)
    assert stats.presentations == 1


def test_presentation_key_holds_the_quotient():
    plain = RingCtx("u,v")
    rees._present.cache_clear()
    with groebner.counting() as stats:
        cusp = rees_kernel(I_(CUSP34, "u", "v"))
        flat = rees_kernel(I_(plain, "u", "v"))
    assert stats.presentations == 2
    assert len(flat.kernel.gb.elements) == 1
    assert _kernel_is(flat, "v*T1 - u*T2")
    assert len(cusp.kernel.gb.elements) > 1


def test_presentation_is_shared_by_reduction_prefixes():
    I = I_(CTX2, "x", "y")
    rees._present.cache_clear()
    with groebner.counting() as stats:
        first = rees_kernel(I, [CTX2.var("x")])
        plain = rees_kernel(I)
    assert stats.presentations == 1
    assert (first.nfirst, plain.nfirst) == (1, 0)
    assert first.kernel is plain.kernel


def test_rn_is_read_once_per_presentation_and_reduction(monkeypatch):
    # id and rn of one ideal share one read of the T-monomials; the same
    # generators with another number of them first are read apart, and
    # under SELF_CHECK every presentation, and so every read, is fresh
    u, v = CUSP34.var("u"), CUSP34.var("v")
    I = I_(CUSP34, u, v)
    reads, outside = [], rees._outside_top
    monkeypatch.setattr(rees, "_outside_top",
                        lambda *args: reads.append(args) or outside(*args))
    rees._present.cache_clear()
    first = is_reduction(I_(CUSP34, u), I)
    assert (first.value, len(reads)) == (2, 1)
    assert is_reduction(I_(CUSP34, u), I) == first
    assert integral_degree_fraction(v, u, CUSP34).value == 3
    assert reduction_number(I, I_(CUSP34, u)) == first
    assert len(reads) == 1
    assert is_reduction(I, I).value == 0 and len(reads) == 2
    assert is_reduction(I_(CUSP34, u), I) == first and len(reads) == 2
    monkeypatch.setattr(groebner, "SELF_CHECK", True)
    assert is_reduction(I_(CUSP34, u), I) == first and len(reads) == 3


def test_presentation_key_keeps_the_generator_order():
    I = Ideal(CTX2, ["x^2", "x*y", "y^2"])
    rees._present.cache_clear()
    with groebner.counting() as stats:
        assert reg_rees(I, I_(CTX2, "x^2", "y^2")).value == 1
        assert reg_rees(I, I_(CTX2, "y^2", "x^2")).value == 1
    assert stats.presentations == 2


def test_rn_and_reg_read_the_kernel_basis_alone():
    # rn_(u)((u, v)) = 2 on the (3,4) cusp and u is regular: both reads
    # take the lead monomials of the kernel's adopted basis, and no other
    u, v = CUSP34.var("u"), CUSP34.var("v")
    pres = rees_kernel(I_(CUSP34, u, v), [u])
    with groebner.counting() as stats:
        assert reduction_degree(pres) == 2
        assert filter_regular_degree(pres) == (-1, None)
    assert (stats.calls, stats.runs) == (0, 0)


def test_failed_presentation_build_is_not_cached(monkeypatch):
    # the kernel's v^2*T2 - u^3*T1 is past a degree cap of 3 (the
    # quotient u^4 - v^3 is the known block, which the cap does not read)
    I = I_(CUSP34, CUSP34.var("u"), CUSP34.var("v"))
    rees._present.cache_clear()
    groebner._buchberger.cache_clear()
    monkeypatch.setattr(groebner, "MAX_DEGREE", 3)
    with groebner.counting():
        with pytest.raises(ResourceLimitError, match="cap 3") as info:
            rees_kernel(I)
    assert (info.value.stats.presentations, info.value.stats.runs) == (1, 1)
    monkeypatch.undo()
    with groebner.counting() as stats:
        rees_kernel(I)
    assert stats.presentations == 1


def _arithmetic_preimage(I, ext_ctx, sub=()):
    """The oracle of ``rees._preimage``: each T_i − x_i·t built by
    polynomial arithmetic, as lift(T_i) − lift(x_i)·t."""
    tvars = ext_ctx.vars[len(ext_ctx.vars) - len(I.gens):]

    def build(t, lift):
        return ([lift(ext_ctx.var(tv)) - lift(x) * t
                 for tv, x in zip(tvars, I.gens, strict=True)]
                + [lift(g) for g in sub])

    return rees.eliminate_polys(ext_ctx, build)


def _preimage_reads(monkeypatch, ctx, gens, a):
    """Every elimination's generators and basis, the kernel's basis and
    s, for R((gens)) and the L of ``artin_rees_degree((a), (gens), m)``,
    m the ideal of the variables, with no presentation or memo cached."""
    seen = []

    def recording(target, build):
        def kept(t, lift):
            built = build(t, lift)
            seen.append(list(built))
            return built

        basis = groebner.eliminate_polys(target, kept)
        seen.append([g.sorted_terms for g in basis])
        return basis

    monkeypatch.setattr(rees, "eliminate_polys", recording)
    rees._present.cache_clear()
    groebner._buchberger.cache_clear()
    I = Ideal(ctx, gens)
    kernel = [g.sorted_terms for g in rees_kernel(I).kernel.gb]
    s = rees.artin_rees_degree(I_(ctx, a), I, Ideal(ctx, list(ctx.vars)))
    return seen, kernel, s


@pytest.mark.parametrize("self_check", [False, True],
                         ids=["unchecked", "self-check"])
@pytest.mark.parametrize("ctx, gens, a, marked", [
    (CTX3, ["x - 2/3*y^2", "1/2*x*z + y", "z^2 - 5/7*x"], "3/4*x*y - z",
     False),
    (CUSP34, ["u - 2/3*v^2", "1/2*u*v + v^2"], "3/4*u^2 - v", True),
    (RingCtx("u,v", quotient=["u^4 - v^3"]), ["u - 2/3*v^2", "1/2*u*v + v^2"],
     "3/4*u^2 - v", False),
], ids=["polynomial", "marked-curve", "unmarked-quotient"])
def test_term_built_inputs_match_the_arithmetic_build(monkeypatch, ctx, gens,
                                                      a, marked, self_check):
    # T_i − x_i·t built from the terms of x_i equals lift(T_i) − lift(x_i)·t,
    # so the kernel, L and s are those of the arithmetic build
    assert (ctx.known == ctx.quotient != ()) == marked
    monkeypatch.setattr(groebner, "SELF_CHECK", self_check)
    built = _preimage_reads(monkeypatch, ctx, gens, a)
    monkeypatch.setattr(rees, "_preimage", _arithmetic_preimage)
    oracle = _preimage_reads(monkeypatch, ctx, gens, a)
    assert built == oracle
    seen, kernel, s = built
    assert len(seen) >= 4 and kernel and s[0] >= 1


def _s_free_part(ext, order, build):
    """(build(ring)) ∩ Q[ext.vars] as an ideal of ``ext``, for ring =
    Q[s, ext.vars] under ``order``, which must eliminate s: the s-free
    elements of one reduced basis, contracted by hand and recomputed in
    ``ext``, so no elimination entry point of the package is used."""
    ring = RingCtx(("s",) + ext.vars, order, _internal=True)
    keep = tuple(range(1, len(ring.vars)))
    return Ideal(ext, [contract(g, ext, keep)
                       for g in reduced_groebner(build(ring), ring)
                       if not any(e[0] for e in g.terms)])


def _unweighted_kernel(I):
    """K = (T_i - x_i s, quotient) ∩ A[T], eliminating s under plain
    ``Weighted((1, 0, ..., 0))``, read in the presentation's ring (on
    its generators: a repeated one of I is presented once)."""
    pres = rees_kernel(I)
    ext = pres.ext_ctx
    positions = tuple(range(1, 1 + len(ext.vars)))

    def build(ring):
        s = ring.var("s")
        return ([ring.var(tv) - embed(x, ring, positions) * s
                 for tv, x in zip(pres.tvars, pres.ideal.gens)]
                + [embed(q, ring, positions) for q in ext.quotient])

    return _s_free_part(ext, Weighted((1,) + (0,) * len(ext.vars)), build)


def _saturated_kernel(I):
    """K = ((x_1·T_j − x_j·T_1)_j + quotient) : x_1^∞ for x_1 regular,
    read in the presentation's ring.  Inverting x_1 makes that ideal
    present A_{x_1}[T_1], which embeds in A_{x_1}[t]; T_i − x_i·t is
    never formed.  The saturation is one elimination of s from
    1 − s·x_1.  s and the ring weigh 0 and the T_i weigh 1, so every
    generator is homogeneous and s is eliminated within each degree
    (the package's elimination would weigh s by 1)."""
    pres = rees_kernel(I)
    ext = pres.ext_ctx
    k, m = len(I.ctx.vars), pres.tcount
    order = Weighted((0,) * (1 + k) + (1,) * m,
                     Weighted((1,) + (0,) * (k + m)))
    positions = tuple(range(1, 1 + k + m))

    def build(ring):
        x1, *xs = [embed(g, ring, positions) for g in pres.ideal.gens]
        t1, *ts = (ring.var(tv) for tv in pres.tvars)
        return ([x1 * tj - xj * t1 for tj, xj in zip(ts, xs)]
                + [embed(q, ring, positions) for q in ext.quotient]
                + [1 - ring.var("s") * x1])

    return _s_free_part(ext, order, build)


KERNEL_CASES = [
    (monomial_curve(w, names), f"{x}, {y}")
    for w, names, x, y in CURVE_INSTANCES] + [
    (CTX2, f"x^{n}, y^{n}, x^{n - 1}*y") for n in (2, 3, 4, 5)] + [
    (CTX3, f"x^{n}, y^{n}, x^{n - 1}*y + z^{n}") for n in (2, 3, 4)] + [
    (CTX2, "x^2, x*y, y^2"),
    (CTX2, "x, y"),
    (CUSP23, "-u, u^2*v^2 + 2*v^2, v + 2*u*v"),
]
KERNEL_IDS = [f"t^{w} x={x} y={y}" for w, _, x, y in CURVE_INSTANCES] + [
    f"huneke{n}" for n in (2, 3, 4, 5)] + [f"wang{n}" for n in (2, 3, 4)] + [
    "veronese", "m", "cusp23-inhomogeneous"]


def _eliminations_checked(monkeypatch):
    """Compare every elimination made from now on, element for element,
    with the @t-free part of the full reduced basis of its lift ring,
    contracted by hand; returns the list of (kept, full) basis sizes."""
    lifts, sizes = [], []
    basis, eliminate = groebner._basis, groebner.eliminate_polys

    def record(gens, ctx, drop):
        if drop:
            lifts.append((gens, ctx))
        return basis(gens, ctx, drop)

    def checked(target, build):
        kept = eliminate(target, build)
        gens, ring = lifts.pop()
        full = reduced_groebner(gens, ring)
        keep = tuple(range(1, len(ring.vars)))
        assert ring.vars[1:] == target.vars and kept.ctx == target.ambient
        assert kept.elements == tuple(
            contract(g, target, keep) for g in full
            if not any(e[0] for e in g.terms))
        sizes.append((len(kept), len(full)))
        return kept

    monkeypatch.setattr(groebner, "_basis", record)
    for module in (groebner, ideals, rees, corpus):
        monkeypatch.setattr(module, "eliminate_polys", checked)
    monkeypatch.setattr(corpus, "_CURVE_CACHE", {})
    rees._present.cache_clear()
    return sizes


LEX2 = RingCtx("x,y", Lex())
LEX_CUSP = RingCtx("x,y", Lex(), ["x^3 - y^2"])
ELIMINATION_CASES = {
    "presentations": lambda: [
        rees_kernel(Ideal(monomial_curve(w, names), [x, y]))
        for w, names, x, y in CURVE_INSTANCES] + [
        rees_kernel(Ideal(ctx, gens.split(", "))) for ctx, gens in (
            (CUSP34, "u - u^2*v, u^2*v^2 - 3*v, v + v^2"),
            (CUSP34, "u^2*v - u^2, u^2*v^2 + v^2, -v^2 + 3*u"),
            (CUSP23, "-u, u^2*v^2 + 2*v^2, v + 2*u*v"),
            (CTX3, "x^2 + y, y*z + 2*x, z^2 - x"))],
    "preimage": lambda: rees.artin_rees_degree(
        I_(CUSP34, "u*v"), I_(CUSP34, "u", "v"), I_(CUSP34, "u")),
    "intersection": lambda: ideal_intersect(
        I_(CUSP34, "u^2", "v"), I_(CUSP34, "u*v", "v^2 - u")),
    "colon": lambda: ideal_colon(I_(CTX3, "x*y", "y*z^2"),
                                 I_(CTX3, "y", "x + z")),
    "curve-kernels": lambda: [monomial_curve(w, ("a", "b", "c"))
                              for w in ((3, 4, 5), (4, 5, 7))],
    "chart": lambda: relation_type_2gen(
        CUSP34.parse("u"), CUSP34.parse("v^2"), CUSP34),
    "lex": lambda: [ideal_intersect(I_(LEX2, "x - y^2", "x*y"),
                                    I_(LEX2, "y - x^2")),
                    ideal_intersect(I_(LEX_CUSP, "x"), I_(LEX_CUSP, "y"))],
}


@pytest.mark.parametrize("case", sorted(ELIMINATION_CASES))
def test_an_elimination_is_the_t_free_part_of_the_full_basis(monkeypatch,
                                                              case):
    sizes = _eliminations_checked(monkeypatch)
    ELIMINATION_CASES[case]()
    assert sizes and any(kept < full for kept, full in sizes)


def test_a_presentation_interreduces_only_what_it_keeps():
    # of the 10 kept elements 4 have a term that another kept lead
    # divides; the rest, the cusp's own u^4 - v^3 among them, are only
    # made monic, and the elements with @t are never reduced
    I = I_(CUSP34, "u^2*v - u^2", "u^2*v^2 + v^2", "-v^2 + 3*u")
    rees._present.cache_clear()
    groebner._buchberger.cache_clear()
    with groebner.counting() as stats:
        pres = rees_kernel(I)
    assert (stats.runs, stats.interreduced) == (1, 4)
    assert len(pres.kernel.gb) == 10
    assert pres.ext_ctx.parse("u^4 - v^3") in pres.kernel.gb


@pytest.mark.parametrize("ctx, gens", KERNEL_CASES, ids=KERNEL_IDS)
def test_graded_elimination_leaves_the_kernel_unchanged(ctx, gens):
    I = Ideal(ctx, gens.split(", "))
    rees._present.cache_clear()
    groebner._buchberger.cache_clear()
    pres = rees_kernel(I)
    # the kernel adopts its elimination's basis: reading it runs no
    # Buchberger, so a wrong label cannot switch the hand-off off unseen
    with groebner.counting() as stats:
        kernel = pres.kernel.gb.elements
    assert stats.runs == 0
    assert kernel == _unweighted_kernel(I).gb.elements
    assert kernel == _saturated_kernel(I).gb.elements


# inhomogeneous ideals of the (3,4) cusp on which the unweighted route
# takes seconds: only the saturation checks them
@pytest.mark.parametrize("gens", [
    "u - u^2*v, u^2*v^2 - 3*v, v + v^2",
    "u*v^2 - 2*u^2, u^2*v^2 - 2*v^2, v + u*v^2",
])
def test_saturation_agrees_with_the_kernel_on_slow_inputs(gens):
    I = Ideal(CUSP34, gens.split(", "))
    assert (rees_kernel(I).kernel.gb.elements
            == _saturated_kernel(I).gb.elements)


@st.composite
def _inhomogeneous_ideals(draw):
    """2-3 generators, each a sum of two monomials of degree <= 2 with
    coefficients 1..3, over the (2,3) cusp, the (3,4) cusp or Q[x,y,z]."""
    ctx = draw(st.sampled_from([CUSP23, CUSP34, CTX3]))
    n = len(ctx.vars)
    monomials = [e for e in itertools.product(range(3), repeat=n)
                 if sum(e) <= 2]
    term = st.tuples(st.sampled_from(monomials), st.integers(1, 3))
    gens = [ctx.poly(dict([draw(term)])) + ctx.poly(dict([draw(term)]))
            for _ in range(draw(st.integers(2, 3)))]
    return Ideal(ctx, gens)


@settings(max_examples=40, deadline=None)
@given(_inhomogeneous_ideals())
def test_saturation_agrees_with_the_kernel_on_random_ideals(I):
    assume(is_regular_element(I.gens[0], I.ctx))
    rees._present.cache_clear()  # build the kernel, do not recall it
    kernel = rees_kernel(I).kernel
    assert kernel.gb.elements == _saturated_kernel(I).gb.elements
    # the adopted basis is the one Buchberger computes afresh
    groebner._buchberger.cache_clear()
    assert kernel.gb.elements == reduced_groebner(
        list(kernel.gens) + list(kernel.ctx.quotient),
        kernel.ctx.ambient).elements


# -- the presentation's order: in(K + (T_1..T_i)) = in(K) + (T_1..T_i) ------


def _minimal(monomials):
    """The minimal generators of the monomial ideal of ``monomials``."""
    monomials = set(monomials)
    return {a for a in monomials
            if not any(b != a and all(p <= q for p, q in zip(b, a))
                       for b in monomials)}


@st.composite
def _presentations(draw):
    """rees_kernel of 2-4 generators over Q[x, y], the (3,4) cusp or the
    node, the first two taken first: on the node the first is x, a zero
    divisor, or a random generator.  Each generator is a sum of one or
    two monomials of degree 1..2 with coefficients 1..3."""
    ctx = draw(st.sampled_from([CTX2, CUSP34, NODE]))
    n = len(ctx.vars)
    monomials = [e for e in itertools.product(range(3), repeat=n)
                 if 1 <= sum(e) <= 2]
    term = st.tuples(st.sampled_from(monomials), st.integers(1, 3))

    def generator():
        return sum((ctx.poly(dict([t])) for t in
                    draw(st.lists(term, min_size=1, max_size=2))), ctx.zero)

    gens = [generator() for _ in range(draw(st.integers(2, 4)))]
    if ctx is NODE and draw(st.booleans()):
        gens[0] = ctx.var("x")
    gens = list(dict.fromkeys(g for g in gens if not g.is_zero))
    assume(len(gens) >= 2)
    return rees_kernel(Ideal(ctx, gens), gens[:2])


@settings(max_examples=30, deadline=None)
@given(_presentations())
def test_kernel_leads_give_every_prefix_and_its_colon(pres):
    assert pres.nfirst >= 2
    ext, m = pres.ext_ctx, pres.tcount
    ts = [ext.var(v) for v in pres.tvars]
    for i in range(m + 1):
        P = Ideal(ext, list(pres.kernel.gens) + ts[:i])
        fresh = reduced_groebner(list(P.gens) + list(ext.quotient),
                                 ext.ambient)
        assert (_minimal(_lead(pres, i))
                == _minimal(h.lm for h in fresh.elements))
        if i < m:
            k = len(pres.ideal.ctx.vars) + i
            colon = ideal_colon(P, Ideal(ext, [ts[i]]))
            assert _minimal(h[:k] + (max(h[k] - 1, 0),) + h[k + 1:]
                            for h in _lead(pres, i)) == \
                _minimal(h.lm for h in colon.gb.elements)

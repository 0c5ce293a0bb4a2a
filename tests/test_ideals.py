"""Ideal calculus: sums, products, powers, intersections, colons, regularity."""

import importlib.util
import itertools
import pathlib
import random

import pytest
from conftest import CURVE_INSTANCES

from reeskit import (DegRevLex, Ideal, Lex, PolyError, RingCtx, exact_divide,
                     ideal_colon, ideal_equal, ideal_intersect, ideal_member,
                     ideal_power, ideal_product, ideal_sum, is_regular_element,
                     is_regular_ideal, monomial_curve, reduced_groebner,
                     rees_kernel, relation_type_2gen)
from reeskit import corpus, groebner, rees
from reeskit.ideals import _annihilator_is_zero, candidate_elements

CTX2 = RingCtx("x,y")
CURVE = RingCtx("x,y", quotient=["x^4 - y^3"])
NODE = RingCtx("x,y,z", quotient=["x*z"])


def I_(ctx, *gens):
    return Ideal(ctx, list(gens))


def test_sum_product_unit():
    x, y = CTX2.var("x"), CTX2.var("y")
    assert ideal_sum(I_(CTX2, x), I_(CTX2, y)) == I_(CTX2, x, y)
    assert ideal_product(I_(CTX2, x), I_(CTX2, y)) == I_(CTX2, x * y)
    one = I_(CTX2, CTX2.one)
    I = I_(CTX2, x ** 2, y)
    assert ideal_product(I, one) == I
    cross = RingCtx("x,y", quotient=["x*y"])
    with pytest.raises(PolyError, match="different ring contexts"):
        ideal_sum(I_(CTX2, x), I_(cross, cross.var("x")))


def test_power_examples():
    x, y = CTX2.var("x"), CTX2.var("y")
    M = I_(CTX2, x, y)
    assert ideal_power(M, 2) == I_(CTX2, x ** 2, x * y, y ** 2)
    assert ideal_power(M, 0).is_unit
    V = I_(CTX2, x ** 2, y ** 2, x * y)
    assert ideal_power(V, 2) == ideal_power(M, 4)


def test_power_additivity_random():
    rng = random.Random(3)
    x, y = CTX2.var("x"), CTX2.var("y")
    pool = [x, y, x + y, x * y - 1, x ** 2 - y]
    for _ in range(6):
        gens = rng.sample(pool, rng.randint(1, 3))
        I = I_(CTX2, *gens)
        a, b = rng.randint(0, 2), rng.randint(0, 2)
        assert ideal_product(ideal_power(I, a), ideal_power(I, b)) == \
            ideal_power(I, a + b)


def test_intersect_examples():
    x, y = CTX2.var("x"), CTX2.var("y")
    assert ideal_intersect(I_(CTX2, x), I_(CTX2, y)) == I_(CTX2, x * y)
    I = I_(CTX2, x ** 2, y)
    assert ideal_intersect(I, I) == I
    f = CTX2.parse("x^3 - y^4")
    M3 = ideal_power(I_(CTX2, x, y), 3)
    assert ideal_intersect(M3, I_(CTX2, f)) == I_(CTX2, f)
    # a user variable named t does not collide with the auxiliary variable
    ctx = RingCtx("t,x")
    t, x = ctx.var("t"), ctx.var("x")
    assert ideal_intersect(I_(ctx, t), I_(ctx, x)) == I_(ctx, t * x)
    assert ideal_intersect(I_(ctx, t - 1), I_(ctx, t + 1)) == \
        I_(ctx, t ** 2 - 1)


def _hands_over(ideal):
    """Whether reading the basis of ``ideal`` runs no Buchberger, with
    the memo emptied first, and gives the basis a fresh
    ``reduced_groebner`` computes."""
    groebner._buchberger.cache_clear()
    with groebner.counting() as stats:
        basis = ideal.gb.elements
    groebner._buchberger.cache_clear()
    fresh = reduced_groebner(list(ideal.gens) + list(ideal.ctx.quotient),
                             ideal.ctx.ambient)
    return stats.runs == 0 and basis == fresh.elements


@pytest.mark.parametrize("ctx", [CTX2, CURVE, RingCtx("x,y", Lex())],
                         ids=["degrevlex", "quotient", "lex"])
def test_intersection_adopts_the_elimination_basis(ctx):
    # the elimination hands over its basis in the ring's own order, so
    # reading the intersection's basis runs no Buchberger, in the lex
    # ring too, whose reduced basis differs: (y^6, x*y - y^3, x^3)
    # against (y^3 - x*y, x^3, x^2*y^2)
    I, J = I_(ctx, "x^2 - y", "x*y"), I_(ctx, "y^2 - x", "x^3")
    assert _hands_over(ideal_intersect(I, J))


def _chart(monkeypatch):
    """The chart of the two-generated route for (x, y) on the (3,4) cusp
    ``CURVE``, as an ideal of the chart ring built from the basis of its
    elimination."""
    charts = []
    eliminate_polys = rees.eliminate_polys

    def recording(target, *args):
        basis = eliminate_polys(target, *args)
        charts.append(Ideal(target, basis))
        return basis

    monkeypatch.setattr(rees, "eliminate_polys", recording)
    relation_type_2gen(CURVE.var("x"), CURVE.var("y"), CURVE)
    (chart,) = charts
    return chart


def _toric_kernel(target):
    """(x - t^3, y - t^4) ∩ Q[x, y] as an ideal of ``target``."""
    x, y = target.var("x"), target.var("y")
    return Ideal(target, groebner.eliminate_polys(
        target, lambda t, lift: [lift(x) - t**3, lift(y) - t**4]))


@pytest.mark.parametrize("build", [
    _chart,
    lambda _: rees_kernel(I_(CURVE.with_order(Lex()), "x", "y^2")).kernel,
    lambda _: _toric_kernel(RingCtx("x,y", Lex())),
], ids=["chart", "rees-kernel", "eliminate-lex"])
def test_eliminations_hand_over_their_basis(monkeypatch, build):
    assert _hands_over(build(monkeypatch))


def test_colon_examples():
    x, y = CTX2.var("x"), CTX2.var("y")
    assert ideal_colon(I_(CTX2, x * y), I_(CTX2, y)) == I_(CTX2, x)
    I = I_(CTX2, x ** 2, y ** 2)
    assert ideal_colon(I, I_(CTX2, CTX2.one)) == I
    zero = I_(CURVE, CURVE.zero)
    assert ideal_colon(zero, I_(CURVE, CURVE.var("x"))).is_zero
    # a nonzero annihilator: (0 : x) = (z) on the node
    assert ideal_colon(I_(NODE, NODE.zero), I_(NODE, NODE.var("x"))) == \
        I_(NODE, NODE.var("z"))


@pytest.mark.parametrize("order", [Lex(), DegRevLex()],
                         ids=["lex", "degrevlex"])
def test_exact_divide_by_polynomials(order):
    ctx = RingCtx("x,y,z", order)
    x, y = ctx.var("x"), ctx.var("y")
    assert exact_divide(x**2 - y**2, x + y) == x - y
    assert exact_divide(x**2 - y**2, x - y) == x + y
    # (x + y - z)(x - y + z) = x^2 - y^2 + 2yz - z^2: the products xy,
    # xz and yz of the two factors cancel or merge
    f, g = ctx.parse("x + y - z"), ctx.parse("x - y + z")
    h = f * g
    assert h == ctx.parse("x^2 - y^2 + 2*y*z - z^2")
    assert exact_divide(h, f) == g and exact_divide(h, g) == f
    with pytest.raises(PolyError, match="inexact polynomial division"):
        exact_divide(h + ctx.parse("z^2"), f)


def test_exact_divide_rejects_zero_and_inexact_divisors():
    x = CTX2.var("x")
    assert exact_divide(x ** 3 - x, x) == x ** 2 - 1
    with pytest.raises(PolyError, match="division by the zero polynomial"):
        exact_divide(x, CTX2.zero)
    with pytest.raises(PolyError, match="inexact polynomial division"):
        exact_divide(x ** 2 + 1, x)


def test_colon_by_zero_ideal_is_unit():
    # (I : (0)) = (1), as for a J whose generators lie in the quotient
    for ctx in (CTX2, CURVE):
        for I in (I_(ctx, ctx.var("x")), I_(ctx, ctx.zero)):
            assert ideal_colon(I, I_(ctx, ctx.zero)).is_unit
    q = CURVE.quotient[0]
    assert ideal_colon(I_(CURVE, "x"), I_(CURVE, q)).is_unit


def test_membership_in_quotient():
    x, y = CURVE.var("x"), CURVE.var("y")
    assert ideal_member(x ** 4, I_(CURVE, y ** 3))
    assert not ideal_member(x, I_(CURVE, y))


def test_equality_ignores_generator_presentation():
    x, y = CTX2.var("x"), CTX2.var("y")
    assert I_(CTX2, x, y) == I_(CTX2, y, x)
    assert I_(CTX2, x) != I_(CTX2, x ** 2)
    M2 = ideal_power(I_(CTX2, x, y), 2)
    assert M2 == ideal_sum(I_(CTX2, x ** 2, y ** 2), I_(CTX2, x * y))


def test_regular_element_examples():
    assert is_regular_element(CURVE.var("x"), CURVE)
    assert not is_regular_element(NODE.var("x"), NODE)
    assert is_regular_element(CTX2.parse("x^2 - y"), CTX2)
    # zero in the quotient is reported as not regular
    assert not is_regular_element(CURVE.parse("x^4 - y^3"), CURVE)
    cusp = monomial_curve((3, 4), ("x", "y"))
    assert cusp == CURVE and cusp.is_domain and not CURVE.is_domain
    assert not is_regular_element(cusp.parse("x^4 - y^3"), cusp)
    assert is_regular_element(cusp.parse("x^4 - y^3 + y"), cusp)


def _bench_curve_rings():
    """The (weights, names) of every ring of the benchmark's curve family,
    read off ``bench/workloads.py``."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench/workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {(tuple(inst["weights"]), tuple(inst["names"]))
            for inst in workloads.curve_family()}


# every curve ring of the tests, the corpus (Sally-Vasconcelos, n = 2, 3)
# and the benchmark family, then the node Q[x, y, z]/(xz), which is no
# domain: there the colon route is the only one
CURVE_RINGS = sorted(
    {(tuple(w), tuple(names)) for w, names, _, _ in CURVE_INSTANCES}
    | {((3, 4), ("x", "y")), ((4, 5, 7), ("a", "b", "c"))}
    | {(tuple(range(n + 1, 2 * n + 2)), corpus._sv_names(n)) for n in (2, 3)}
    | _bench_curve_rings())
DOMAIN_CASES = CURVE_RINGS + [None]


def _colon_route(gens, ctx):
    """ann((gens)) = 0 read off the colon (q : (gens)) = q ≠ (1)."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return False
    q = Ideal(ctx.ambient, ctx.quotient)
    c = ideal_colon(q, Ideal(ctx.ambient, gens))
    return not c.is_unit and ideal_equal(c, q)


@pytest.mark.parametrize("ring", DOMAIN_CASES, ids=[
    f"t^{w}-{','.join(names)}" for w, names in CURVE_RINGS] + ["node"])
def test_domain_shortcut_agrees_with_the_colon_route(ring):
    if ring is None:
        ctx = RingCtx("x,y,z", quotient=["x*z"])
    else:
        ctx = monomial_curve(*ring)
        assert ctx.is_quotient and ctx.is_domain
    xs = [ctx.var(v) for v in ctx.vars]
    # the generators, then the first combinations of the candidate stream
    elements = list(itertools.islice(candidate_elements(Ideal(ctx, xs)),
                                     len(xs) + 3))
    # elements of the kernel, such as x^4 - y^3 on the (3, 4) cusp
    for q in ctx.quotient:
        elements += [q, q * xs[0], q + xs[-1]]
    cases = [[f] for f in elements] + [
        list(ctx.quotient), [ctx.quotient[0], xs[0]], [ctx.zero]]
    for gens in cases:
        assert (_annihilator_is_zero(Ideal(ctx, gens))
                == _colon_route(gens, ctx)), gens


def test_regularity_on_a_curve_takes_one_normal_form():
    cusp = monomial_curve((3, 4), ("u", "v"))
    f = cusp.parse("u^4 - v^3 + u*v")
    with groebner.counting() as stats:
        assert is_regular_element(f, cusp)
    # the ring carries the quotient's basis: no Gröbner call at all
    assert (stats.calls, stats.normal_forms, stats.pairs) == (0, 1, 0)
    assert stats.runs == 0


def test_a_marked_quotient_holds_its_basis(monkeypatch):
    # the ring holds the basis of its mark: a later regularity test builds
    # no ideal and no basis, except the check of the mark under SELF_CHECK
    cusp = monomial_curve((3, 4, 5), ("u", "v", "w"))
    f = cusp.parse("u^2 - 1/3*v*w")
    assert is_regular_element(f, cusp)
    built, checked = [], []
    init, check = Ideal.__init__, groebner.GroebnerBasis.self_check
    monkeypatch.setattr(Ideal, "__init__", lambda self, *args:
                        built.append(args) or init(self, *args))
    monkeypatch.setattr(groebner.GroebnerBasis, "self_check", lambda self:
                        checked.append(self.elements) or check(self))
    assert is_regular_element(f, cusp)
    assert not is_regular_element(cusp.quotient[0], cusp)
    assert (built, checked) == ([], [])
    monkeypatch.setattr(groebner, "SELF_CHECK", True)
    assert is_regular_element(f, cusp)
    assert (built, checked) == ([], [cusp.known])


def test_a_quotient_basis_is_marked_under_its_own_order_only():
    curve = monomial_curve((3, 4, 5), ("a", "b", "c"))
    assert curve.known == curve.quotient and len(curve.known) == 3
    # the degrevlex basis b^2 - ac, a^2 b - c^2, a^3 - bc is no lex
    # basis: the lex ring drops the mark and derives its own
    lex = curve.with_order(Lex())
    assert lex.is_domain and lex.known == ()
    assert len(Ideal(lex.ambient, lex.quotient).gb) == 5
    # both vanish on the curve, so neither is regular
    for text in ("b^5 - c^4", "a*b^3 - c^3"):
        assert not is_regular_element(lex.parse(text), lex)
        assert not is_regular_element(curve.parse(text), curve)
    # a marked basis stays marked beside further generators
    step = curve.with_quotient(["a"])
    assert step.known == curve.quotient != step.quotient
    assert not is_regular_element(step.var("b") ** 3, step)


def test_domain_mark_follows_the_quotient():
    cusp = monomial_curve((2, 3), ("u", "v"))
    u, v = cusp.var("u"), cusp.var("v")
    assert cusp.is_domain and cusp.with_order(Lex()).is_domain
    assert is_regular_element(v, cusp.with_order(Lex()))
    # the step ring of check_d_sequence_reduction: v^2 = u^3 = 0 modulo
    # (u), so v is a zero divisor there
    step = cusp.with_quotient([u])
    assert not step.is_domain
    assert not is_regular_element(v, step)
    # the same kernel typed in is the same ring, left unmarked
    typed = RingCtx("u,v", quotient=list(cusp.quotient))
    assert typed == cusp and hash(typed) == hash(cusp)
    assert not typed.is_domain
    assert is_regular_element(v, typed)


def test_regular_ideal_search():
    x, y = NODE.var("x"), NODE.var("y")
    assert is_regular_ideal(I_(NODE, x, y)) == y
    # None is decided: ann(I) = (z) ≠ 0
    assert is_regular_ideal(I_(NODE, x)) is None
    # no generator is regular: the first combination is
    z = NODE.var("z")
    assert is_regular_ideal(I_(NODE, x, z)) == x + z
    ctx1 = RingCtx("x")
    assert is_regular_ideal(I_(ctx1, ctx1.var("x"))) == ctx1.var("x")
    # the plane z = 0 and the line x = y = 0: each variable is a zero
    # divisor, and (x, y) is an associated prime
    plane = RingCtx("x,y,z", quotient=["x*z", "y*z"])
    x, y, z = (plane.var(v) for v in "xyz")
    assert is_regular_ideal(I_(plane, x, y, z)) == x + y + z
    assert is_regular_ideal(I_(plane, x, y)) is None
    artinian = RingCtx("x,y", quotient=["x^4", "y^2"])
    assert is_regular_ideal(I_(artinian, *artinian.vars)) is None
    cross = RingCtx("x,y", quotient=["x*y"])
    x, y = cross.var("x"), cross.var("y")
    assert is_regular_ideal(I_(cross, x, y)) == x + y
    # the zero ring has no element the package calls regular
    zero_ring = RingCtx("x", quotient=["1"])
    assert is_regular_ideal(I_(zero_ring, zero_ring.var("x"))) is None


def test_colon_and_intersection_containments_random():
    rng = random.Random(17)
    x, y = CTX2.var("x"), CTX2.var("y")
    pool = [x, y, x + y, x * y, x ** 2 - y, y ** 2, x ** 2 + y ** 2]
    for _ in range(25):
        I = I_(CTX2, *rng.sample(pool, rng.randint(1, 3)))
        J = I_(CTX2, *rng.sample(pool, rng.randint(1, 2)))
        C = ideal_colon(I, J)
        # (I : J) * J ⊆ I  and  I ⊆ (I : J)
        for g in ideal_product(C, J).gens:
            assert ideal_member(g, I)
        for g in I.gens:
            assert ideal_member(g, C)
        M = ideal_intersect(I, J)
        for g in M.gens:
            assert ideal_member(g, I) and ideal_member(g, J)
        for g in ideal_product(I, J).gens:
            assert ideal_member(g, M)


def test_quotient_coherence_with_preimage():
    # computing mod the quotient agrees with computing the preimage upstairs
    x, y = CURVE.var("x"), CURVE.var("y")
    amb = CURVE.ambient
    q = amb.parse("x^4 - y^3")
    I_down = ideal_intersect(I_(CURVE, x ** 2), I_(CURVE, y))
    I_up = ideal_intersect(I_(amb, x.in_ctx(amb) ** 2, q),
                           I_(amb, y.in_ctx(amb), q))
    down_preimage = Ideal(amb, [g.in_ctx(amb) for g in I_down.gb] + [q])
    assert ideal_equal(down_preimage, I_up)


def test_zero_and_unit_ideals_are_first_class():
    zero = I_(CTX2, CTX2.zero)
    one = I_(CTX2, CTX2.one)
    assert zero.is_zero and one.is_unit
    assert ideal_sum(zero, one).is_unit
    assert ideal_product(zero, one).is_zero
    assert ideal_intersect(zero, one).is_zero
    assert ideal_colon(one, I_(CTX2, CTX2.var("x"))).is_unit
    # zero generators are dropped once, in Ideal: (0) has none
    x, y = CTX2.var("x"), CTX2.var("y")
    I = I_(CTX2, x, CTX2.zero, y)
    assert I.gens == (x, y) and repr(I) == "(x, y)"
    empty = Ideal(CTX2, [])
    assert empty == zero and empty.gens == zero.gens == ()
    assert repr(empty) == repr(zero) == "(0)"
    assert Ideal(CTX2, ["0", 0]).gens == ()
    # x^4 - y^3 is nonzero upstairs but zero in the curve ring: it stays a
    # generator, and is_zero reads it against the quotient
    q = CURVE.parse("x^4 - y^3")
    inside = I_(CURVE, q, q * CURVE.var("x"))
    assert inside.gens == (q, q * CURVE.var("x")) and inside.is_zero
    assert repr(inside) == "(x^4 - y^3, x^5 - x*y^3)"
    for J in (I_(CURVE, CURVE.var("x")), I_(CURVE, CURVE.one),
              I_(CURVE, CURVE.zero), inside, I_(CURVE, "x", "y")):
        assert ideal_intersect(inside, J).is_zero
        assert ideal_intersect(J, inside).is_zero

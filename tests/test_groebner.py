"""Groebner bases: reduction, uniqueness, elimination, resource caps."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from conftest import contract
from hypothesis import given, settings, strategies as st

from reeskit import (DegRevLex, Ideal, Lex, PolyError, ResourceLimitError,
                     RingCtx, Weighted, embed, ideal_member, normal_form,
                     reduced_groebner)
from reeskit import (corpus, groebner, ideals, monomial_curve, rees,
                     rees_kernel)
from reeskit.groebner import eliminate_polys, spolynomial
from reeskit.ideals import ideal_intersect
from reeskit.poly import _primitive_form

CTX2 = RingCtx("x,y")


def _polys(ctx, *texts):
    return [ctx.parse(t) for t in texts]


def test_monomial_ideal_already_reduced():
    gb = reduced_groebner(_polys(CTX2, "x^2", "x*y"))
    assert [str(g) for g in gb.elements] == ["x*y", "x^2"]


def test_lex_eliminant():
    gb = reduced_groebner(_polys(CTX2, "x - y^2", "y - x^2"),
                          CTX2.with_order(Lex()))
    strs = {str(g) for g in gb.elements}
    assert "y^4 - y" in strs


def test_zero_ideal_empty_basis():
    gb = reduced_groebner([CTX2.zero], ctx=CTX2)
    assert gb.elements == ()
    f = CTX2.parse("x + 1")
    assert normal_form(f, gb) == f


def test_normal_form_examples():
    gb = reduced_groebner(_polys(CTX2, "x^2"))
    assert str(normal_form(CTX2.parse("x^2 + y"), gb)) == "y"
    assert normal_form(CTX2.parse("x^3 + x^2*y"), gb).is_zero
    lctx = RingCtx("x,y", Lex())
    gb2 = reduced_groebner([lctx.parse("x^3 - y^4")])
    assert str(normal_form(lctx.parse("x^3"), gb2)) == "y^4"


def test_normal_form_linear_and_idempotent():
    rng = random.Random(11)
    gb = reduced_groebner(_polys(CTX2, "x^2 - y", "y^3"))
    for _ in range(40):
        f = CTX2.poly({(rng.randrange(5), rng.randrange(5)): rng.randint(-4, 4)
                       for _ in range(3)})
        g = CTX2.poly({(rng.randrange(5), rng.randrange(5)): rng.randint(-4, 4)
                       for _ in range(3)})
        nf = lambda p: normal_form(p, gb)
        assert nf(f + g) == nf(nf(f) + nf(g))
        assert nf(nf(f)) == nf(f)


def test_normal_form_rejects_a_basis_of_another_ring():
    f = RingCtx("x,y,z").parse("x*z")
    with pytest.raises(PolyError, match="ring contexts differ"):
        normal_form(f, [CTX2.parse("x + y")])
    with pytest.raises(PolyError, match="ring contexts differ"):
        normal_form(CTX2.parse("x*y"), [RingCtx("x,y", Lex()).parse("x + y")])


# -- the integer reduction against the rational one it replaced ----------------


def _rational_reduce_terms(terms, reducers, keyf):
    """Reference: the reduction over Fraction coefficients that the integer
    one replaced, picking the next term by a ``max`` scan."""
    work = dict(terms)
    out = {}
    while work:
        m = max(work, key=keyf)
        c = work.pop(m)
        hit = None
        for lead, lc, tail in reducers:
            if all(x <= y for x, y in zip(lead, m)):
                hit = (lead, lc, tail)
                break
        if hit is None:
            out[m] = c
            continue
        lead, lc, tail = hit
        q = tuple(x - y for x, y in zip(m, lead))
        factor = c / lc
        for e, gc in tail:
            e2 = tuple(x + y for x, y in zip(e, q))
            s = work.get(e2)
            s = -factor * gc if s is None else s - factor * gc
            if s:
                work[e2] = s
            else:
                work.pop(e2, None)
    return out


def _rational_normal_form(f, basis):
    reducers = [(g.lm, g.lc, g.sorted_terms[1:]) for g in basis if g]
    if not reducers or f.is_zero:
        return f
    return f.ctx.poly(_rational_reduce_terms(f.terms, reducers, f.ctx.order.key))


ORACLE_RINGS = [RingCtx("x,y,z", order) for order in (
    Lex(), DegRevLex(), Weighted((1, 0, 2), Weighted((0, 1, 0))))]

# As many variables as a Rees ring: a curve block weighted 0 and a
# T-block graded by weight 1, as in the graded kernel elimination.
WIDE = RingCtx("t,u,v,w,T1,T2,T3,T4,T5,T6",
               Weighted((1,) + (0,) * 9, Weighted((0,) * 4 + (1,) * 6)))


@st.composite
def _oracle_polys(draw, ctx):
    """Up to five terms, each in at most three variables."""
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        exps = [0] * len(ctx.vars)
        for i in draw(st.lists(st.integers(0, len(ctx.vars) - 1),
                               max_size=3)):
            exps[i] += draw(st.integers(1, 3))
        exps = tuple(exps)
        num = draw(st.integers(-10**6, 10**6))
        den = draw(st.sampled_from([1, 1, 2, 3, 7, 10**9 + 7, 2**61 - 1]))
        terms[exps] = Fraction(num, den)
    return ctx.poly(terms)


@st.composite
def _oracle_cases(draw):
    ctx = draw(st.sampled_from(ORACLE_RINGS + [WIDE]))
    f = draw(_oracle_polys(ctx))
    pool = draw(st.lists(_oracle_polys(ctx), min_size=1, max_size=4))
    reducers = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    return f, reducers


@given(_oracle_cases())
@settings(max_examples=300, deadline=None)
def test_normal_form_equals_the_rational_reduction(case):
    f, reducers = case
    assert normal_form(f, reducers) == _rational_normal_form(f, reducers)


@given(st.sampled_from(ORACLE_RINGS),
       st.lists(st.tuples(*[st.integers(0, 3)] * 3), unique=True))
@settings(max_examples=100, deadline=None)
def test_heap_pops_in_decreasing_order(ctx, monomials):
    heap_key = ctx.kernels.descending
    assert (sorted(monomials, key=heap_key)
            == sorted(monomials, key=ctx.order.key, reverse=True))


@pytest.mark.parametrize("ctx", ORACLE_RINGS, ids=lambda c: c.order.tag)
def test_normal_form_oracle_edge_cases(ctx):
    p = ctx.parse
    cases = [
        # zero f; a zero reducer is skipped
        (ctx.zero, [p("x - y")]),
        (p("x^2*y + z"), [ctx.zero, p("-3*x + 5/7*y")]),
        # non-monic, negative leads and large denominators, repeated
        (p("x^3*y - 2/3*z^2 + 1"),
         [p("-7/1000000007*x*y + 3*z"), p("-7/1000000007*x*y + 3*z"),
          p("4*z^2 - 9/2305843009213693951*y")]),
    ]
    if ctx.order == Lex():
        # x*y + x*z - y^2 modulo x*y - y^2, x*z - y^2: y^2 cancels after
        # the first step and reappears after the second, while its first
        # heap entry is still queued
        cases.append((p("x*y + x*z - y^2"), [p("x*y - y^2"), p("x*z - y^2")]))
        assert normal_form(*cases[-1]) == p("y^2")
    # the masked reducer search: a constant's mask is empty and it divides
    # everything; x*z's mask holds z, absent from every term of f; both
    # x*y and y^2 divide x*y^3, and y^2 has the smaller mask
    seven, xz, y = p("7"), p("x*z - 1"), p("y - 2")
    xy, yy = p("x*y - 1"), p("y^2 - 3")
    assert [g.reducer_form[3] for g in (seven, xz, xy, yy)] == [0, 5, 3, 2]
    f = p("x^3*y^2 + x*y^3 - 5/3*x^2")
    assert normal_form(f, [seven]).is_zero
    cases += [(f, [seven]), (f, [xz, seven]), (f, [xz, y]), (f, [xy, yy]),
              (f, [yy, xy]), (f, [xz, xy, yy, y])]
    for f, reducers in cases:
        assert normal_form(f, reducers) == _rational_normal_form(f, reducers)


def test_buchberger_self_check():
    for texts in [("x^2", "x*y"), ("x - y^2", "y - x^2"),
                  ("x^3 - y^4", "x*y - 1")]:
        gb = reduced_groebner(_polys(CTX2, *texts))
        assert gb.self_check()


def test_reduced_basis_unique_under_shuffles():
    rng = random.Random(5)
    gens = _polys(CTX2, "x^2 - y", "x*y - 1", "y^3 - x")
    reference = reduced_groebner(gens).elements
    for _ in range(10):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        groebner._buchberger.cache_clear()  # rerun Buchberger, not the memo
        assert reduced_groebner(shuffled).elements == reference


def _toric(t, lift):
    """(x - t^3, y - t^4): its elimination of t is the cusp x^4 - y^3."""
    x, y = (lift(RingCtx("x,y").var(v)) for v in "xy")
    return [x - t**3, y - t**4]


def test_eliminate_toric_kernel():
    # t, x, y weighing 1, 3, 4 make both generators homogeneous, so the
    # Weighted target takes the graded order
    for order in (DegRevLex(), Lex(), Weighted((3, 4))):
        basis = eliminate_polys(RingCtx("x,y", order), _toric)
        assert basis.ctx.order == order
        assert [str(g) for g in basis] == ["x^4 - y^3"]


def test_eliminate_unit_relation_contracts_to_zero():
    assert eliminate_polys(RingCtx("x"), lambda t, lift: [t - 1]).is_zero


def test_eliminate_is_a_contraction():
    ctx = RingCtx("t,x,y")
    I = Ideal(ctx, ["x - t^3", "y - t^4", "t*x - y"])

    def build(t, lift):
        x, y = (lift(RingCtx("x,y").var(v)) for v in "xy")
        return [x - t**3, y - t**4, t * x - y]

    for g in eliminate_polys(RingCtx("x,y"), build):
        assert ideal_member(ctx.parse(str(g)), I)


def test_eliminate_range_checked():
    # the generators must live in the lifting ring Q[t, x, y]; no
    # generators, or only zeros, give the empty basis in the target
    foreign = [lambda t, lift: [RingCtx("t,x,y").parse("t*x")],
               lambda t, lift: [t, RingCtx("x,y").var("x")],
               lambda t, lift: [embed(RingCtx("x,y").var("x"),
                                      RingCtx("s,x,y"), (1, 2))]]
    for target in (RingCtx("x,y"), RingCtx("x,y", Weighted((1, 1)))):
        for build in foreign:
            with pytest.raises(PolyError, match="cannot move polynomial"):
                eliminate_polys(target, build)
        for build in (lambda t, lift: [], lambda t, lift: [t - t]):
            basis = eliminate_polys(target, build)
            assert basis.elements == () and basis.ctx == target


def test_weighted_target_grades_only_homogeneous_input():
    target = RingCtx("x,y")
    x, y = target.var("x"), target.var("y")

    def build(t, lift):
        return [lift(2 * x**2 - y) + t, lift(1 - y**2) + t]

    plain = groebner.eliminate_polys(target, build)
    assert list(plain.elements) == [
        target.parse("x^2 + 1/2*y^2 - 1/2*y - 1/2")]
    # grading by t, x, y weighing 1 would order t below x^2 and keep the
    # wrong ideal; the input is not homogeneous, so t is eliminated first
    weighted = RingCtx("x,y", Weighted((1, 1)))
    basis = groebner.eliminate_polys(weighted, build)
    assert basis.ctx.order == weighted.order
    assert basis.elements == reduced_groebner(plain, weighted).elements


ELIMINATION_ORDERS = [Lex(), DegRevLex(), Weighted((1, 2)),
                      Weighted((0, 1), Weighted((1, 0), Lex()))]


@st.composite
def _eliminations(draw):
    """A target Q[x,y] under one of ``ELIMINATION_ORDERS`` and 1-3
    binomials c·t^a·m + d·t^b·n (m, n monomials of degree <= 2), as
    ``(target, [((a, m, c), (b, n, d)), ...])``; when ``homogeneous`` is
    drawn, t lifts m and n to one degree for t weighing 1 and the
    target's weights (total degree outside a Weighted order)."""
    order = draw(st.sampled_from(ELIMINATION_ORDERS))
    grade = order.degree if isinstance(order, Weighted) else sum
    homogeneous = draw(st.booleans())
    monomial = st.sampled_from([(i, j) for i in range(3) for j in range(3)
                                if i + j <= 2])
    coefficient = st.integers(-3, 3).filter(bool)
    binomials = []
    for _ in range(draw(st.integers(1, 3))):
        m, n = draw(monomial), draw(monomial)
        if homogeneous:
            top = max(grade(m), grade(n))
            a, b = top - grade(m), top - grade(n)
        else:
            a, b = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        binomials.append(((a, m, draw(coefficient)),
                          (b, n, draw(coefficient))))
    return RingCtx("x,y", order), binomials


def _binomials(binomials, t, lift, target):
    return [c * t**a * lift(target.poly({m: 1}))
            + d * t**b * lift(target.poly({n: 1}))
            for (a, m, c), (b, n, d) in binomials]


@settings(max_examples=40, deadline=None)
@given(_eliminations())
def test_elimination_returns_the_basis_in_the_target_order(case):
    target, binomials = case
    basis = groebner.eliminate_polys(
        target, lambda t, lift: _binomials(binomials, t, lift, target))
    assert basis.ctx.order == target.order
    # independently: lex with s first eliminates s, then the kept
    # elements are recomputed under the target's order
    lex = RingCtx("s,x,y", Lex())
    gens = _binomials(binomials, lex.var("s"),
                      lambda p: embed(p, lex, (1, 2)), target)
    kept = [contract(g, target, (1, 2)) for g in reduced_groebner(gens, lex)
            if not any(e[0] for e in g.terms)]
    assert basis.elements == reduced_groebner(kept, target).elements


def _assert_kept_order(basis):
    """Every element of ``basis`` holds the term order of its run, and it
    is its ring's order."""
    key = basis.ctx.kernels.key
    assert basis.elements
    for g in basis:
        assert g._sorted is not None, "the run's term order was dropped"
        assert g.sorted_terms == tuple(sorted(
            g.terms.items(), key=lambda t: key(t[0]), reverse=True))


@pytest.mark.parametrize("self_check", [False, True])
@pytest.mark.parametrize("order", [Lex(), DegRevLex(), Weighted((1, 2, 3)),
                                   Weighted((2, 0, 1), Lex())])
def test_a_basis_keeps_the_order_of_its_ring(monkeypatch, order,
                                               self_check):
    monkeypatch.setattr(groebner, "SELF_CHECK", self_check)
    groebner._buchberger.cache_clear()
    ctx = RingCtx("x,y,z", order)
    _assert_kept_order(reduced_groebner(_polys(
        ctx, "x^2 + y*z - 1", "x*y - z^2 + 3/2*x", "y^3 - x*z"), ctx))


@pytest.mark.parametrize("self_check", [False, True])
def test_an_elimination_keeps_the_order_of_its_target(monkeypatch,
                                                       self_check):
    # the kept elements of both elimination orders, the plain one (a
    # monomial curve's kernel, an intersection) and the graded one (Rees
    # kernels), are in the target's order
    monkeypatch.setattr(groebner, "SELF_CHECK", self_check)
    monkeypatch.setattr(corpus, "_CURVE_CACHE", {})
    groebner._buchberger.cache_clear()
    rees._present.cache_clear()
    bases, graded = [], set()
    eliminate, run = groebner.eliminate_polys, groebner._basis

    def captured(target, build):
        bases.append(eliminate(target, build))
        return bases[-1]

    def basis(gens, ctx, drop):
        if drop:
            graded.add(any(ctx.order.weights[1:]))
        return run(gens, ctx, drop)

    for module in (corpus, ideals, rees):
        monkeypatch.setattr(module, "eliminate_polys", captured)
    monkeypatch.setattr(groebner, "_basis", basis)
    curve = monomial_curve((3, 4, 5), ("a", "b", "c"))
    rees_kernel(Ideal(curve, [curve.var("a"), curve.var("b")]))
    rees_kernel(Ideal(CTX2, _polys(CTX2, "x^2", "x*y + y^2", "y^3")))
    ideal_intersect(Ideal(CTX2, _polys(CTX2, "x^2 - y", "y^2")),
                    Ideal(CTX2, _polys(CTX2, "x*y", "y^2 - x")))
    assert len(bases) == 4 and graded == {False, True}
    for basis in bases:
        _assert_kept_order(basis)


def test_spolynomial_cancels_leads():
    f, g = _polys(CTX2, "x^2 + y", "x*y + 1")
    s = spolynomial(f, g)
    assert s == CTX2.parse("y^2 - x")


def _rational_spolynomial(f, g):
    """Reference: the textbook S-polynomial over Fraction coefficients,
    m_f·f/lc_f − m_g·g/lc_g, the formula the integer one replaced."""
    L = tuple(map(max, f.lm, g.lm))

    def lifted(p):
        q = tuple(a - b for a, b in zip(L, p.lm))
        return p.ctx.poly({tuple(a + b for a, b in zip(e, q)): c / p.lc
                           for e, c in p.terms.items()})

    return lifted(f) - lifted(g)


@st.composite
def _spolynomial_cases(draw):
    ctx = draw(st.sampled_from(ORACLE_RINGS))
    nonzero = _oracle_polys(ctx).filter(bool)
    return draw(nonzero), draw(nonzero)


@given(_spolynomial_cases())
@settings(max_examples=300, deadline=None)
def test_spolynomial_is_a_rational_multiple_of_the_textbook_one(case):
    f, g = case
    s, textbook = spolynomial(f, g), _rational_spolynomial(f, g)
    assert all(c.denominator == 1 for c in s.terms.values())
    key = f.ctx.order.key
    L = tuple(map(max, f.lm, g.lm))
    assert all(key(e) < key(L) for e in s.terms)  # the leads cancel
    if textbook.is_zero:
        assert s.is_zero
    else:
        c = s.lc / textbook.lc
        assert c != 0 and s == textbook.scale(c)


@st.composite
def _pair_step_cases(draw):
    ctx = draw(st.sampled_from(ORACLE_RINGS + [WIDE]))
    nonzero = _oracle_polys(ctx).filter(bool)
    return (draw(nonzero), draw(nonzero),
            draw(st.lists(nonzero, min_size=1, max_size=5)))


@given(_pair_step_cases())
@settings(max_examples=300, deadline=None)
def test_integer_pair_step_equals_the_fraction_route(case):
    # the Buchberger loop's step on reducer forms against the public
    # Fraction-valued spolynomial and normal_form
    f, g, G = case
    kernels = f.ctx.kernels
    out, _ = groebner._reduce_terms(
        groebner._spair(f.reducer_form, g.reducer_form, kernels),
        [h.reducer_form for h in G], kernels)
    r = normal_form(spolynomial(f, g), G)
    assert bool(out) == bool(r)
    if out:
        form = lead, lc, tail, _ = _primitive_form(list(out.items()),
                                                   kernels.monomials.mask)
        assert form == r.reducer_form
        # primitive, with the positive lead first: r up to a rational
        p = f.ctx.poly({lead: lc, **dict(tail)})
        assert lc > 0 and math.gcd(lc, *(c for _, c in tail)) == 1
        assert p.lm == lead and p == r.scale(lc / r.lc)


# -- the pair sequence -------------------------------------------------------

PAIR_SYSTEMS = {
    "cyclic-4": ["a + b + c + d", "a*b + b*c + c*d + d*a",
                 "a*b*c + b*c*d + c*d*a + d*a*b", "a*b*c*d - 1"],
    "katsura-3": ["a + 2*b + 2*c + 2*d - 1", "a^2 + 2*b^2 + 2*c^2 + 2*d^2 - a",
                  "2*a*b + 2*b*c + 2*c*d - b", "2*a*c + b^2 + 2*b*d - c"],
}
KATSURA_4 = ["u0 + 2*u1 + 2*u2 + 2*u3 + 2*u4 - 1",
             "u0^2 - u0 + 2*u1^2 + 2*u2^2 + 2*u3^2 + 2*u4^2",
             "2*u0*u1 + 2*u1*u2 - u1 + 2*u2*u3 + 2*u3*u4",
             "2*u0*u2 + u1^2 + 2*u1*u3 - u2 + 2*u2*u4",
             "2*u0*u3 + 2*u1*u2 + 2*u1*u4 - u3"]


def _pair_counts(ctx, gens, dropped=0):
    """Stats of one fresh run on ``gens`` and the basis it returns, where
    ``dropped`` inputs repeat or reduce to zero when seeded; every pair
    of the elements admitted is reduced or pruned exactly once."""
    groebner._buchberger.cache_clear()
    with groebner.counting() as stats:
        gb = reduced_groebner(_polys(ctx, *gens))
    assert (stats.calls, stats.runs) == (1, 1)
    size = len(gens) - dropped + stats.pairs - stats.zero
    assert (stats.pairs + stats.coprime + stats.syzygy + stats.covered
            == size * (size - 1) // 2)
    return stats, gb


# S-pairs reduced, reduced to zero, and pruned for coprime leads, by a
# syzygy (F5 or a zero reduction) and by a cover or a repeated signature.
@pytest.mark.parametrize("system, order, counts", [
    ("cyclic-4", DegRevLex(), (4, 1, 8, 7, 2)),
    ("cyclic-4", Lex(), (5, 1, 9, 11, 3)),
    ("katsura-3", DegRevLex(), (4, 0, 16, 8, 0)),
    ("katsura-3", Lex(), (17, 0, 73, 96, 24)),
], ids=["cyclic-4-degrevlex", "cyclic-4-lex", "katsura-3-degrevlex",
        "katsura-3-lex"])
def test_pair_sequence_is_pinned(system, order, counts):
    stats, _ = _pair_counts(RingCtx("a,b,c,d", order), PAIR_SYSTEMS[system])
    assert (stats.pairs, stats.zero, stats.coprime, stats.syzygy,
            stats.covered) == counts


def test_katsura_4_in_lex_is_pinned_and_checked():
    # the chain-criterion loop took minutes here
    stats, gb = _pair_counts(RingCtx("u0,u1,u2,u3,u4", Lex()), KATSURA_4)
    assert (stats.pairs, stats.zero, stats.coprime, stats.syzygy,
            stats.covered) == (120, 0, 1101, 5348, 1181)
    assert len(gb) == 5 and gb.self_check()


def test_dense_generic_system_reduces_nothing_to_zero():
    # as on katsura-3 (pinned above), the signature criteria prove every
    # zero reduction of a generic 3x3 system in advance
    ctx = RingCtx("x,y,z")
    rng = random.Random(5)
    monomials = [e for e in itertools.product(range(4), repeat=3)
                 if sum(e) <= 3]
    dense = [ctx.poly({e: rng.choice([-3, -2, -1, 1, 2, 3])
                       for e in monomials if sum(e) <= degree})
             for degree in (2, 3, 3)]
    groebner._buchberger.cache_clear()
    with groebner.counting() as stats:
        gb = reduced_groebner(dense)
    assert stats.zero == 0 and stats.pairs > 0 and gb.self_check()


def test_edge_inputs():
    x, f, g = _polys(CTX2, "x", "x^2 - y", "x*y - 1")
    basis = reduced_groebner([f, g])
    assert [str(e) for e in basis] == ["y^2 - x", "x*y - 1", "x^2 - y"]
    # duplicate generators and scaled copies are one input; a multiple of
    # an earlier input reduces to zero when it is seeded, before any pair
    for gens in ([f, f, g, f.scale(-2)], [f, x * f, g, g * g]):
        stats, gb = _pair_counts(CTX2, [str(h) for h in gens], 2)
        assert gb.elements == basis.elements and stats.zero == 0
    # the unit ideal: the remainder 1 is coprime to everything
    stats, gb = _pair_counts(CTX2, ["x*y - 1", "x", "y^2"])
    assert gb.is_unit and (stats.pairs, stats.coprime) == (0, 3)
    # an elimination in a quotient ring: (x) ∩ (y) on the cusp
    cusp = RingCtx("x,y", quotient=["y^2 - x^3"])
    K = ideal_intersect(Ideal(cusp, ["x"]), Ideal(cusp, ["y"]))
    gb = reduced_groebner(list(K.gens) + list(cusp.quotient), cusp.ambient)
    assert [str(e) for e in gb] == ["y^2", "x*y", "x^3"] and gb.self_check()


def test_counting_is_scoped_and_survives_a_resource_error(monkeypatch):
    gens = _polys(RingCtx("a,b,c,d"), *PAIR_SYSTEMS["cyclic-4"])
    groebner._buchberger.cache_clear()
    reduced_groebner(gens)  # no scope is open: nothing is counted
    assert groebner._STATS.get() is None
    with groebner.counting() as stats:
        reduced_groebner(gens)
        reduced_groebner(gens)
    assert (stats.calls, stats.runs, stats.pairs) == (2, 0, 0)
    assert groebner._STATS.get() is None
    monkeypatch.setattr(groebner, "MAX_BASIS", 6)
    groebner._buchberger.cache_clear()
    with groebner.counting() as stats:
        with pytest.raises(ResourceLimitError, match="cap") as info:
            reduced_groebner(gens)
        aborted = info.value.stats
        reduced_groebner(gens[:1])
    # the aborted run reports its pairs: the third nonzero remainder of
    # the four generators hits the cap
    assert (aborted.calls, aborted.runs, aborted.pairs - aborted.zero) == (
        1, 1, 3)
    assert (aborted.coprime, aborted.syzygy, aborted.covered) == (6, 3, 0)
    # the error holds a copy taken at the abort; the scope counts on
    assert (stats.calls, stats.runs) == (2, 2)
    assert stats.pairs == aborted.pairs
    # nested scopes: the innermost one counts and is copied
    groebner._buchberger.cache_clear()
    with groebner.counting() as outer:
        with groebner.counting() as inner:
            with pytest.raises(ResourceLimitError) as info:
                reduced_groebner(gens)
    assert info.value.stats == inner and outer.runs == 0
    # outside every scope the error carries no counts
    groebner._buchberger.cache_clear()
    with pytest.raises(ResourceLimitError) as info:
        reduced_groebner(gens)
    assert info.value.stats is None


def test_masks_cover_rings_of_any_width():
    # x256 has mask bit 256: its pair with x256 - 1 is not coprime
    ctx = RingCtx(",".join(f"x{i}" for i in range(257)))
    x = ctx.var("x256")
    assert x.reducer_form[3] == 1 << 256
    assert reduced_groebner([x**2, x - 1]).elements == (ctx.one,)
    # the auxiliary variable shifts x255 of a 256-variable ring to bit 256
    target = RingCtx(",".join(f"x{i}" for i in range(256)))
    x = target.var("x255")
    assert list(groebner.eliminate_polys(
        target, lambda t, lift: [lift(x**2), lift(x - 1)]).elements) == [
            target.one]


def test_resource_cap_aborts_loudly(monkeypatch):
    ctx = RingCtx("x,y,z")
    gens = _polys(ctx, "x^5*y - z^3 + x", "y^4 - x*z + 1", "z^4 - x^2*y^2")
    for cap, value in (("MAX_BASIS", 2), ("MAX_DEGREE", 3)):
        with monkeypatch.context() as m:
            m.setattr(groebner, cap, value)
            groebner._buchberger.cache_clear()
            with pytest.raises(ResourceLimitError, match="cap"):
                reduced_groebner(gens)


@pytest.mark.parametrize("cap, value, counts", [
    ("MAX_BASIS", 6, (4, 1, 6, 3, 0)),
    ("MAX_DEGREE", 4, (2, 1, 3, 0, 0)),
])
def test_resource_error_carries_the_signature_counters(monkeypatch, cap,
                                                        value, counts):
    # cyclic-4 in degrevlex: the seventh element, or the first of degree
    # 5, aborts; the error holds the pairs pruned up to there
    monkeypatch.setattr(groebner, cap, value)
    groebner._buchberger.cache_clear()
    with groebner.counting():
        with pytest.raises(ResourceLimitError, match="cap") as info:
            reduced_groebner(_polys(RingCtx("a,b,c,d"),
                                    *PAIR_SYSTEMS["cyclic-4"]))
    aborted = info.value.stats
    assert (aborted.pairs, aborted.zero, aborted.coprime, aborted.syzygy,
            aborted.covered) == counts


def test_unit_ideal_basis():
    gb = reduced_groebner(_polys(CTX2, "x", "x + 1"))
    assert gb.is_unit
    assert [str(g) for g in gb.elements] == ["1"]


def test_normal_forms_are_counted():
    gb = reduced_groebner(_polys(CTX2, "x^2 - y", "x*y - 1"))
    x = CTX2.var("x")
    with groebner.counting() as stats:
        gb.contains(x)
        gb.normal_form(x ** 2)
        normal_form(x, gb)  # the module function is not counted
    assert stats.normal_forms == 2 and stats.runs == 0


# -- the memo ----------------------------------------------------------------

MEMO_GENS = ("x^2 - y", "x*y - 1", "y^3 - x")


def test_memo_hit_equals_a_fresh_computation():
    gens = _polys(CTX2, *MEMO_GENS)
    groebner._buchberger.cache_clear()
    fresh = reduced_groebner(gens)
    with groebner.counting() as stats:
        hit = reduced_groebner(gens[::-1] + gens[:1])
    assert (stats.calls, stats.runs) == (1, 0)
    assert hit.elements == fresh.elements
    assert [str(g) for g in hit] == [str(g) for g in fresh]


def test_memo_hit_lives_in_the_callers_context():
    twin = RingCtx("x,y")
    assert twin == CTX2 and twin is not CTX2
    first = reduced_groebner(_polys(CTX2, *MEMO_GENS))
    with groebner.counting() as stats:
        hit = reduced_groebner(_polys(twin, *MEMO_GENS))
    assert (stats.calls, stats.runs) == (1, 0)
    assert hit.ctx is twin and all(g.ctx is twin for g in hit)
    assert first.ctx is CTX2 and hit.elements == first.elements


@pytest.mark.parametrize("ring, scale, runs", [
    (CTX2, 2, 0),
    (CTX2, Fraction(-3, 4), 0),
    (RingCtx("u,v"), 1, 0),
    (RingCtx("x,y", Lex()), 1, 1),
], ids=["scaled-by-2", "scaled-by--3/4", "renamed", "lex"])
def test_memo_key_is_the_order_and_the_integer_forms(ring, scale, runs):
    # the key holds the generators' primitive integer forms and the
    # order: scaling and variable names hit one entry, another order not
    groebner._buchberger.cache_clear()
    first = reduced_groebner(_polys(CTX2, *MEMO_GENS))
    gens = [ring.poly(g.terms).scale(scale) for g in _polys(CTX2, *MEMO_GENS)]
    with groebner.counting() as stats:
        gb = reduced_groebner(gens)
    assert (stats.calls, stats.runs) == (1, runs)
    assert gb.ctx is ring and all(g.ctx is ring for g in gb)
    if not runs:
        assert [g.terms for g in gb] == [g.terms for g in first]


def test_memo_hit_is_self_checked(monkeypatch):
    gens = _polys(CTX2, *MEMO_GENS)
    reduced_groebner(gens)
    monkeypatch.setattr(groebner, "SELF_CHECK", True)
    monkeypatch.setattr(groebner.GroebnerBasis, "self_check", lambda b: False)
    with groebner.counting() as stats:
        with pytest.raises(PolyError, match="self-check failed"):
            reduced_groebner(gens)
    assert (stats.calls, stats.runs) == (1, 0)


def test_memo_stays_within_its_bound():
    groebner._buchberger.cache_clear()
    x = CTX2.var("x")
    for k in range(groebner.MEMO_SIZE + 8):
        reduced_groebner([x ** (k + 1) - 1])
        assert groebner._buchberger.cache_info().currsize <= groebner.MEMO_SIZE
    assert groebner._buchberger.cache_info().currsize == groebner.MEMO_SIZE


def _lift_of_one_elimination(monkeypatch, target, build):
    """``eliminate_polys(target, build)`` and the generators and ring of
    the lift that it eliminates @t in."""
    seen = []
    basis = groebner._basis

    def record(gens, ctx, drop):
        if drop:
            seen.append((gens, ctx))
        return basis(gens, ctx, drop)

    monkeypatch.setattr(groebner, "_basis", record)
    kept = eliminate_polys(target, build)
    ((gens, ring),) = seen
    return kept, gens, ring


def test_an_elimination_and_the_full_basis_take_separate_memo_entries(
        monkeypatch):
    # an elimination's memo entry holds its kept block only, so the key
    # names how many variables it drops: the full basis of the same
    # generators in the same ring is another run, in either order
    target = RingCtx("x,y")
    groebner._buchberger.cache_clear()
    kernel, gens, ring = _lift_of_one_elimination(monkeypatch, target, _toric)
    with groebner.counting() as stats:
        full = reduced_groebner(gens, ring)
    assert (stats.calls, stats.runs) == (1, 1)
    assert sum(any(e[0] for e in g.terms) for g in full) == 4
    assert tuple(contract(g, target, (1, 2)) for g in full
                 if not any(e[0] for e in g.terms)) == kernel.elements
    groebner._buchberger.cache_clear()
    assert reduced_groebner(gens, ring).elements == full.elements
    with groebner.counting() as stats:
        again = eliminate_polys(target, _toric)
    assert (stats.calls, stats.runs) == (1, 1)
    assert again.elements == kernel.elements
    with groebner.counting() as stats:
        eliminate_polys(target, _toric)
        reduced_groebner(gens, ring)
    assert (stats.calls, stats.runs) == (2, 0)


def test_an_elimination_self_checks_the_lift_ring(monkeypatch):
    # the kept block is read off its own run, so under the self-check
    # the full basis of the ring with @t is built and checked as well
    checked = []
    monkeypatch.setattr(groebner, "SELF_CHECK", True)
    monkeypatch.setattr(groebner.GroebnerBasis, "self_check",
                        lambda b: checked.append(b.ctx.vars) or True)
    groebner._buchberger.cache_clear()
    assert [str(g) for g in eliminate_polys(RingCtx("x,y"), _toric)] == [
        "x^4 - y^3"]
    assert checked == [("@t", "x", "y"), ("x", "y")]


def test_an_elimination_that_loses_an_element_fails_its_self_check(
        monkeypatch):
    basis = groebner._basis
    monkeypatch.setattr(groebner, "_basis", lambda gens, ctx, drop: (
        basis(gens, ctx, drop)[:-1] if drop else basis(gens, ctx, drop)))
    groebner._buchberger.cache_clear()
    assert eliminate_polys(RingCtx("x,y"), _toric).is_zero
    monkeypatch.setattr(groebner, "SELF_CHECK", True)
    with pytest.raises(PolyError, match="elimination self-check failed"):
        eliminate_polys(RingCtx("x,y"), _toric)

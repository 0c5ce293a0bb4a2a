"""Groebner bases: reduction, uniqueness, elimination, resource caps."""

import random

import pytest

from reeskit import (Ideal, Lex, PolyError, ResourceLimitError, RingCtx,
                     eliminate, ideal_member, normal_form, reduced_groebner)
from reeskit import groebner
from reeskit.groebner import eliminate_polys, spolynomial

CTX2 = RingCtx("x,y")


def _polys(ctx, *texts):
    return [ctx.parse(t) for t in texts]


def test_monomial_ideal_already_reduced():
    gb = reduced_groebner(_polys(CTX2, "x^2", "x*y"))
    assert [str(g) for g in gb.elements] == ["x*y", "x^2"]


def test_lex_eliminant():
    gb = reduced_groebner(_polys(CTX2, "x - y^2", "y - x^2"), order=Lex())
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


def test_eliminate_toric_kernel():
    ctx = RingCtx("t,x,y")
    I = Ideal(ctx, ["x - t^3", "y - t^4"])
    out = eliminate(I, 1)
    assert [str(g) for g in out.gb.elements] == ["x^4 - y^3"]
    # eliminating no variable returns the ideal's own basis
    for order in (None, Lex()):
        I = Ideal(RingCtx("t,x,y", order), ["x - t^3", "y - t^4"])
        out = [str(g) for g in eliminate(I, 0).gb.elements]
        assert out == [str(g) for g in I.gb.elements]


def test_eliminate_unit_relation_contracts_to_zero():
    ctx = RingCtx("t,x")
    out = eliminate(Ideal(ctx, ["t - 1"]), 1)
    assert out.is_zero


def test_eliminate_is_a_contraction():
    ctx = RingCtx("t,x,y")
    I = Ideal(ctx, ["x - t^3", "y - t^4", "t*x - y"])
    target, kept = eliminate_polys(list(I.gens), ctx, 1)
    lift = RingCtx(ctx.vars, ctx.order)
    for g in kept:
        lifted = lift.parse(str(g))
        assert ideal_member(lifted, Ideal(lift, [p.in_ctx(lift) for p in I.gens]))


def test_eliminate_range_checked():
    ctx = RingCtx("t,x")
    with pytest.raises(PolyError):
        eliminate_polys([ctx.parse("t*x")], ctx, 5)


def test_spolynomial_cancels_leads():
    f, g = _polys(CTX2, "x^2 + y", "x*y + 1")
    s = spolynomial(f, g)
    assert s == CTX2.parse("y^2 - x")


def test_resource_cap_aborts_loudly():
    ctx = RingCtx("x,y,z")
    gens = _polys(ctx, "x^5*y - z^3 + x", "y^4 - x*z + 1", "z^4 - x^2*y^2")
    with pytest.raises(ResourceLimitError):
        reduced_groebner(gens, max_basis=2)
    with pytest.raises(ResourceLimitError):
        reduced_groebner(gens, max_degree=3)


def test_unit_ideal_basis():
    gb = reduced_groebner(_polys(CTX2, "x", "x + 1"))
    assert gb.is_unit
    assert [str(g) for g in gb.elements] == ["1"]


# -- the memo ----------------------------------------------------------------

MEMO_GENS = ("x^2 - y", "x*y - 1", "y^3 - x")


def _hits():
    return groebner._buchberger.cache_info().hits


def test_memo_hit_equals_a_fresh_computation():
    gens = _polys(CTX2, *MEMO_GENS)
    groebner._buchberger.cache_clear()
    fresh = reduced_groebner(gens)
    hits = _hits()
    hit = reduced_groebner(gens[::-1] + gens[:1])
    assert _hits() == hits + 1
    assert hit.elements == fresh.elements
    assert [str(g) for g in hit] == [str(g) for g in fresh]


def test_memo_hit_lives_in_the_callers_context():
    twin = RingCtx("x,y")
    assert twin == CTX2 and twin is not CTX2
    first = reduced_groebner(_polys(CTX2, *MEMO_GENS))
    hits = _hits()
    hit = reduced_groebner(_polys(twin, *MEMO_GENS))
    assert _hits() == hits + 1
    assert hit.ctx is twin and all(g.ctx is twin for g in hit)
    assert first.ctx is CTX2 and hit.elements == first.elements


def test_memo_does_not_bypass_smaller_caps():
    gens = _polys(CTX2, *MEMO_GENS)
    reduced_groebner(gens)
    with pytest.raises(ResourceLimitError):
        reduced_groebner(gens, max_basis=2)
    with pytest.raises(ResourceLimitError):
        reduced_groebner(gens, max_degree=2)


def test_memo_hit_is_self_checked(monkeypatch):
    gens = _polys(CTX2, *MEMO_GENS)
    reduced_groebner(gens)
    monkeypatch.setattr(groebner, "SELF_CHECK", True)
    monkeypatch.setattr(groebner.GroebnerBasis, "self_check", lambda b: False)
    hits = _hits()
    with pytest.raises(PolyError, match="self-check failed"):
        reduced_groebner(gens)
    assert _hits() == hits + 1


def test_memo_stays_within_its_bound():
    groebner._buchberger.cache_clear()
    x = CTX2.var("x")
    for k in range(groebner.MEMO_SIZE + 8):
        reduced_groebner([x ** (k + 1) - 1])
        assert groebner._buchberger.cache_info().currsize <= groebner.MEMO_SIZE
    assert groebner._buchberger.cache_info().currsize == groebner.MEMO_SIZE

"""Cross-validation of the basis engine against an independent CAS.

Skipped when sympy is unavailable; when present, reduced bases for a
seeded sample of small ideals (and for cyclic-4 and katsura-3 in
degrevlex) must coincide monomial-for-monomial in both supported
orders, and Rees kernels must match sympy's lex elimination of t.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from reeskit import (DegRevLex, Ideal, Lex, RingCtx,  # noqa: E402
                     monomial_curve, reduced_groebner, rees_kernel)

ORDER_MAP = {"lex": (Lex(), "lex"), "degrevlex": (DegRevLex(), "grevlex")}


def _random_poly(ctx, rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = tuple(rng.randint(0, 3) for _ in ctx.vars)
        terms[exps] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    return ctx.poly(terms)


def _to_sympy(p, syms):
    expr = 0
    for exps, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, exps):
            term *= s ** e
        expr += term
    return expr


def _from_sympy(expr, syms, ctx):
    terms = {}
    for exps, coeff in sympy.Poly(expr, *syms).terms():
        q = sympy.Rational(coeff)
        terms[tuple(int(e) for e in exps)] = Fraction(int(q.p), int(q.q))
    return ctx.poly(terms)


# Named systems per order, beside the random sample: their reduced bases
# have growing rational coefficients.
SYSTEMS = {
    "degrevlex": [
        ("a,b,c,d", ["a + b + c + d", "a*b + b*c + c*d + d*a",
                     "a*b*c + b*c*d + c*d*a + d*a*b", "a*b*c*d - 1"]),
        ("a,b,c,d", ["a + 2*b + 2*c + 2*d - 1",
                     "a^2 + 2*b^2 + 2*c^2 + 2*d^2 - a",
                     "2*a*b + 2*b*c + 2*c*d - b",
                     "2*a*c + b^2 + 2*b*d - c"]),
    ],
}


def _inputs(order, rng):
    """(ctx, generators) pairs: a seeded random sample, then SYSTEMS."""
    for nvars in (2, 3):
        ctx = RingCtx(",".join("xyz"[:nvars]), order)
        for _ in range(8):
            gens = [_random_poly(ctx, rng) for _ in range(rng.randint(1, 3))]
            if not all(g.is_zero for g in gens):
                yield ctx, gens
    for names, texts in SYSTEMS.get(order.tag, ()):
        ctx = RingCtx(names, order)
        yield ctx, [ctx.parse(t) for t in texts]


@pytest.mark.parametrize("order_name", sorted(ORDER_MAP))
def test_reduced_bases_match_independent_engine(order_name):
    order, sympy_order = ORDER_MAP[order_name]
    rng = random.Random(2718 + len(order_name))
    for ctx, gens in _inputs(order, rng):
        syms = sympy.symbols(ctx.vars)
        ours = set(reduced_groebner(gens, ctx=ctx).elements)
        theirs = sympy.groebner(
            [_to_sympy(g, syms) for g in gens if not g.is_zero],
            *syms, order=sympy_order)
        # sympy returns primitive integer polynomials; renormalize to
        # monic under the active order on our side of the fence
        theirs_set = {_from_sympy(e, syms, ctx).monic()
                      for e in theirs.exprs}
        assert ours == theirs_set


@pytest.mark.parametrize("ctx, gens", [
    (RingCtx("x,y"), "x, y"),
    (RingCtx("x,y"), "x^2, x*y, y^2"),
    (RingCtx("x,y"), "x^3, y^3, x^2*y"),
    (RingCtx("u,v", quotient=["u^4 - v^3"]), "u, v"),
    (RingCtx("x,y,z"), "x^2, y^2, x*y + z^2"),
    (monomial_curve((3, 4, 5), ("a", "b", "c")), "a, b"),
], ids=["m", "veronese", "huneke3", "cusp34", "wang2", "curve345"])
def test_rees_kernel_matches_lex_elimination(ctx, gens):
    """sympy's lex basis with t first: its t-free elements generate K.
    The monomial curve's presentation starts from its marked basis."""
    I = Ideal(ctx, gens.split(", "))
    pres = rees_kernel(I)
    assert len(pres.ext_ctx.known) == len(ctx.known)
    ext = pres.ext_ctx.ambient
    t, *syms = sympy.symbols(("t",) + ext.vars)
    polys = [T - _to_sympy(x, syms) * t
             for T, x in zip(syms[len(I.ctx.vars):], I.gens)]
    polys += [_to_sympy(q, syms) for q in I.ctx.quotient]
    basis = sympy.groebner(polys, t, *syms, order="lex")
    kept = [_from_sympy(e, syms, ext) for e in basis.exprs if not e.has(t)]
    assert (Ideal(pres.ext_ctx, kept).gb.elements
            == pres.kernel.gb.elements)

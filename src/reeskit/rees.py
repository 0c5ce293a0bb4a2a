"""Rees-algebra presentations and relation-type analysis.

For an ideal I = (x_1, ..., x_m) the symmetric presentation maps
A[T_1..T_m] onto the Rees algebra by T_i -> x_i t; its kernel is
computed by eliminating t and is homogeneous in total T-degree.  The
relation type is the largest T-degree in which the kernel needs a fresh
generator; variants modulo an ideal J (associated graded ring for
J = I, fiber cone for maximal J) reuse the same degree analysis on the
image of the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groebner import eliminate_aux, eliminate_polys
from .ideals import (Ideal, ideal_colon, ideal_equal, ideal_intersect,
                     ideal_member, ideal_power, ideal_product, ideal_sum,
                     is_regular_element)
from .poly import DegRevLex, Poly, PolyError, RingCtx, TGraded, embed


def _fresh_tvars(base_vars, count):
    names = []
    taken = set(base_vars)
    for i in range(1, count + 1):
        name = f"T{i}"
        while name in taken:
            name += "_"
        taken.add(name)
        names.append(name)
    return tuple(names)


def _tdegree(p: Poly, tcount: int) -> int:
    """Total degree of p in the trailing T-block; requires homogeneity."""
    n = len(p.ctx.vars)
    positions = tuple(range(n - tcount, n))
    degs = {sum(e[i] for i in positions) for e in p.terms}
    if len(degs) > 1:
        raise PolyError("kernel element is not homogeneous in the T-block")
    return degs.pop() if degs else 0


@dataclass(frozen=True)
class ReesPresentation:
    """T-graded kernel of the symmetric presentation of a Rees algebra."""

    ideal: Ideal
    ext_ctx: RingCtx
    tvars: tuple
    kernel: Ideal
    profile: dict  # T-degree -> tuple of reduced-GB elements of that degree

    @property
    def tcount(self) -> int:
        return len(self.tvars)

    def max_degree(self) -> int:
        return max(self.profile, default=0)


def _degree_profile(kernel: Ideal, tcount: int) -> dict:
    profile = {}
    for g in kernel.gb.elements:
        d = _tdegree(g, tcount)
        if d >= 1:
            profile.setdefault(d, []).append(g)
    return {d: tuple(v) for d, v in sorted(profile.items())}


def rees_kernel(I: Ideal) -> ReesPresentation:
    """Presentation kernel of the Rees algebra of I (cached on I).

    The kernel is the contraction to Q[vars, T] of
    (T_1 - x_1 t, ..., T_m - x_m t) together with the quotient
    generators, computed under an elimination order for t; the stored
    basis is reduced under a T-graded order and split by T-degree.
    """
    if I._rees is not None:
        return I._rees
    ctx = I.ctx
    xs = [g for g in I.gens if not g.is_zero]
    if not xs:
        raise PolyError("Rees presentation needs a nonzero ideal")
    m = len(xs)
    tvars = _fresh_tvars(ctx.vars, m)
    ext = RingCtx(ctx.vars + tvars, TGraded(m, DegRevLex()), _internal=True)
    base_positions = tuple(range(len(ctx.vars)))
    ext_ctx = ext.with_quotient([embed(q, ext, base_positions)
                                 for q in ctx.quotient])

    def build(t, lift):
        return ([lift(ext.var(tv)) - lift(x) * t for tv, x in zip(tvars, xs)]
                + [lift(q) for q in ext_ctx.quotient])

    kernel = Ideal(ext_ctx, eliminate_aux(ext_ctx, build))
    profile = _degree_profile(kernel, m)
    pres = ReesPresentation(I, ext_ctx, tvars, kernel, profile)
    I._rees = pres
    return pres


def _profile_relation_type(kernel: Ideal, tcount: int) -> int:
    """Largest T-degree whose reduced-GB elements are not redundant.

    A degree-n element is redundant when it lies in the ideal generated
    by the strictly lower T-degree elements (the quotient generators are
    carried by the context); the minimum relation type is 1.
    """
    profile = _degree_profile(kernel, tcount)
    degrees = sorted((d for d in profile if d >= 2), reverse=True)
    for n in degrees:
        lower = [g for d, els in profile.items() if d < n for g in els]
        lower_ideal = Ideal(kernel.ctx, lower or [kernel.ctx.zero])
        for g in profile[n]:
            if not ideal_member(g, lower_ideal):
                return n
    return 1


def relation_type(I: Ideal) -> int:
    """rt(I): largest T-degree of a fresh kernel generator (minimum 1)."""
    pres = rees_kernel(I)
    return _profile_relation_type(pres.kernel, pres.tcount)


def _is_maximal_graded(J: Ideal) -> bool:
    ctx = J.ctx
    mvars = Ideal(ctx, list(ctx.gens_polys()))
    return ideal_equal(J, mvars)


def relation_type_mod(I: Ideal, J: Ideal) -> int:
    """rt_J(I): relation type of the Rees algebra tensored with A/J.

    J = (0) gives rt(I); maximal J (all variables) is the fiber cone and
    is analyzed in Q[T] after eliminating the ring variables; other J
    are analyzed in the quotient-by-J context.
    """
    I._check_ctx(J)
    if J.is_zero:
        return relation_type(I)
    pres = rees_kernel(I)
    m = pres.tcount
    base_n = len(I.ctx.vars)
    ext_amb = pres.ext_ctx.ambient
    if _is_maximal_graded(J):
        gens = [g for g in pres.kernel.gens if not g.is_zero]
        gens += list(pres.ext_ctx.quotient)
        gens += [ext_amb.var(v) for v in I.ctx.vars]
        target, kept = eliminate_polys(gens, ext_amb, base_n,
                                       target_order=TGraded(m, DegRevLex()))
        fiber = Ideal(target, kept)
        return _profile_relation_type(fiber, m)
    positions = tuple(range(base_n))
    extra = [embed(g, ext_amb, positions) for g in J.gens if not g.is_zero]
    ctx2 = pres.ext_ctx.with_quotient(extra)
    kernel2 = Ideal(ctx2, list(pres.kernel.gens))
    return _profile_relation_type(kernel2, m)


def effective_relation_2gen(x: Poly, y: Poly, n: int, J: Ideal) -> bool:
    """Whether the module of effective n-relations of (x, y) modulo J vanishes.

    For two-generated I = (x, y) with x regular this is the colon test
    (x I^{n-1} : y^n) ⊆ ((x J I^{n-1} : y^n) ∩ J) + (x I^{n-2} : y^{n-1});
    with J = (0) the middle term drops out.
    """
    if n < 2:
        raise PolyError("effective relations are defined for degrees n >= 2")
    ctx = J.ctx
    x = ctx.coerce(x)
    y = ctx.coerce(y)
    if not is_regular_element(x, ctx):
        raise PolyError("the first generator must be a regular element")
    I = Ideal(ctx, [x, y])
    xI = Ideal(ctx, [x])
    yn = Ideal(ctx, [y ** n])
    lhs = ideal_colon(ideal_product(xI, ideal_power(I, n - 1)), yn)
    tail = ideal_colon(ideal_product(xI, ideal_power(I, n - 2)),
                       Ideal(ctx, [y ** (n - 1)]))
    if J.is_zero:
        rhs = tail
    else:
        mid = ideal_colon(
            ideal_product(ideal_product(xI, J), ideal_power(I, n - 1)), yn)
        rhs = ideal_sum(ideal_intersect(mid, J), tail)
    return all(ideal_member(g, rhs) for g in lhs.basis_gens)

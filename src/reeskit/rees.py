"""Rees-algebra presentations and one T-degree routine for rt, rt_J and s_J.

For an ideal I = (x_1, ..., x_m) the presentation
phi: A[T_1..T_m] -> A[t], T_i -> x_i t, maps onto the Rees algebra
R(I); its kernel K is computed by eliminating t and is homogeneous in
total T-degree.  R(0) = A is presented on no T variable, so K is the
quotient and rt = 1, rn = reg = s = 0.  One routine,
:func:`_fresh_degree`, reads a T-graded ideal of A[T] modulo the
quotient of its context and returns the largest T-degree above a floor
that needs a fresh generator.  It gives

* rt(I): K at floor 1;
* rt_J(I): K read modulo J at floor 1 (J = I gives the associated
  graded ring, J maximal the fiber cone);
* s_J(a, A; I): L = phi^{-1}(a A[t]) read modulo K + J at floor 0, L
  being the same t-elimination with the generators of a added.

Each degree is decided from lead monomials by the truncated Buchberger
criterion where it applies, and by membership only where it does not.

For I = (x, y) with x regular, :func:`relation_type_2gen` reaches rt(I)
by a second route that never reads K: the chart kernel
L = ker(A[Z] -> A[y/x]), whose Z-leading coefficients in Z-degrees <= n
generate c_n = (x I^{n-1} : y^n).

The presentation ring is ordered by T-degree, then reverse
lexicographically on the T-block with T_1 last; K comes back reduced in
that order.  So in(K + (T_1..T_i)) = in(K) + (T_1..T_i): the reduction
number (:func:`reduction_degree`) and the regularity of the Rees module
(:func:`filter_regular_degree`) read the lead monomials of K alone.

:func:`rees_kernel` keeps the few latest presentations, keyed by the
ring and the ordered generator list, so id, rn and rt of one ideal
share one build.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

from . import groebner
from .groebner import _STATS, GroebnerBasis, eliminate_polys
from .ideals import Ideal, ideal_contains, ideal_member, is_regular_element
from .poly import (Poly, PolyError, RingCtx, Weighted, compile_monomials,
                   embed)


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


def _tdegree(p: Poly) -> int:
    """T-degree of p, the weighted degree of its order; requires homogeneity."""
    degree = p.ctx.kernels.degree
    degs = {degree(e) for e in p.terms}
    if len(degs) > 1:
        raise PolyError("presentation element is not homogeneous in the T-block")
    return degs.pop() if degs else 0


@dataclass(frozen=True)
class ReesPresentation:
    """T-graded kernel of the symmetric presentation of a Rees algebra on
    the generators of ``ideal``, the first ``nfirst`` of them a reduction's."""

    ideal: Ideal
    ext_ctx: RingCtx
    tvars: tuple
    kernel: Ideal
    nfirst: int

    @property
    def tcount(self) -> int:
        return len(self.tvars)


def _degree_profile(ideal: Ideal, floor: int) -> dict:
    """T-degree -> reduced-basis elements of ``ideal`` of that degree >= floor."""
    profile = {}
    for g in ideal.gb.elements:
        d = _tdegree(g)
        if d >= floor:
            profile.setdefault(d, []).append(g)
    return {d: tuple(v) for d, v in sorted(profile.items())}


def _preimage(I: Ideal, ext_ctx: RingCtx, tvars, sub=()) -> GroebnerBasis:
    """The reduced basis in ``ext_ctx`` of phi^{-1}(sub·A[t]) (K for no sub).

    The contraction to A[T] of (T_1 - x_1 t, ..., T_m - x_m t), the
    quotient generators and ``sub``, graded by deg t = deg T_i = 1;
    x_1, ..., x_m are the generators of ``I``, one per T variable, as in
    a presentation's ``ideal``.
    """
    ext = ext_ctx.ambient

    def build(t, lift):
        return ([lift(ext.var(tv)) - lift(x) * t
                 for tv, x in zip(tvars, I.gens, strict=True)]
                + [lift(g) for g in sub])

    return eliminate_polys(ext_ctx, build)


def rees_kernel(I: Ideal, first=()) -> ReesPresentation:
    """Presentation kernel of the Rees algebra of I on ``first`` (the
    generators of an ideal), then the other generators of I.

    The presentation ring is graded by T-degree; the zero ideal gets one
    on no T variable (``tcount == 0``), whose K is the quotient.  The
    latest presentations are cached by the ring and that generator list;
    ``first`` only sets ``nfirst``.  Each generator is presented once,
    so (x, x) shares the presentation of (x).  While
    ``groebner.SELF_CHECK`` is on each is built afresh, so every kernel
    basis passes the check.
    """
    first = tuple(dict.fromkeys(first))
    gens = tuple(dict.fromkeys(first + I.gens))
    build = _present.__wrapped__ if groebner.SELF_CHECK else _present
    return replace(build(I.ctx, gens), nfirst=len(first))


# Small: the calls on one ideal come in a row.  64 entries gave no more
# hits on curve-invariants and 3.5% more peak memory (BENCH_20.json).
@functools.lru_cache(maxsize=4)
def _present(ctx: RingCtx, gens: tuple) -> ReesPresentation:
    """The presentation of (gens) in ``ctx`` on ``gens`` in order (built
    once per key and counted in ``Stats.presentations``).  The embedded
    quotient keeps its mark where the presentation ring's order agrees
    with ``ctx``'s on A's variables (:meth:`RingCtx.extended`): on every
    degrevlex ring, not on a lex one."""
    stats = _STATS.get()
    if stats is not None:
        stats.presentations += 1
    n, m = len(ctx.vars), len(gens)
    tvars = _fresh_tvars(ctx.vars, m)
    # T-degree for m = 0 too; compile_order drops the all-zero key row
    order = Weighted((0,) * (n + m))
    for i in reversed(range(m)):
        order = Weighted((0,) * (n + i) + (1,) * (m - i), order)
    ext_ctx = ctx.extended(tvars, order)
    ordered = Ideal(ctx, gens)
    kernel = Ideal(ext_ctx, _preimage(ordered, ext_ctx, tvars))
    return ReesPresentation(ordered, ext_ctx, tvars, kernel, 0)


def _read_modulo(pres: ReesPresentation, ideal: Ideal, J: Ideal,
                 extra=()) -> Ideal:
    """``ideal`` of A[T] read further modulo J, an ideal of A, and ``extra``."""
    positions = tuple(range(len(pres.ideal.ctx.vars)))
    extra = list(extra) + [embed(g, pres.ext_ctx, positions) for g in J.gens]
    if not extra:
        return ideal
    return Ideal(ideal.ctx.with_quotient(extra), list(ideal.gens))


def _fresh_degree(ideal: Ideal, floor: int):
    """``(n, g)``: the largest T-degree n > floor in which the reduced
    basis of the T-graded ``ideal`` has an element g outside the ideal of
    its elements of T-degrees floor..n-1, modulo the quotient of the
    context; ``(floor, None)`` when there is no such degree.

    The context's order must compare T-degree first: then the basis
    elements below degree n generate T·ideal_{n-1} in degree n, and the
    degree-n elements span ideal_n over A modulo that.  Elements below
    the floor must lie in the quotient.

    Degree n is decided from lead monomials alone (the truncated
    Buchberger criterion: Kreuzer–Robbiano, *Computational Commutative
    Algebra 2*, §4.5) when every quotient generator has T-degree below n
    and no two basis elements below n have leads that share a variable
    and an lcm of T-degree n.  Every element is T-homogeneous and the
    order compares T-degree first, so an S-pair of degree d < n reduces
    to 0 by the basis elements of degree <= d alone, a pair of degree
    above n cannot reach degree n, and a pair of coprime leads reduces
    to 0 (Buchberger's first criterion).  The elements below n, which
    then generate the quotient too, are a Gröbner basis of their ideal
    through degree n; a degree-n element of the reduced basis has a lead
    that no lower lead divides, so it lies outside, and the first one is
    the witness.  Otherwise membership decides.
    """
    degree, mono = ideal.ctx.kernels.degree, ideal.ctx.kernels.monomials
    quotient_top = max(map(_tdegree, ideal.ctx.quotient), default=-1)
    # the T-degrees that a pair of leads sharing a variable reaches above both
    reached = set()
    for a, b in itertools.combinations([g.lm for g in ideal.gb.elements], 2):
        d = degree(mono.lcm(a, b))
        if mono.mask(a) & mono.mask(b) and d > max(degree(a), degree(b)):
            reached.add(d)
    profile = _degree_profile(ideal, floor)
    degrees = sorted((d for d in profile if d > floor), reverse=True)
    for n in degrees:
        if n > quotient_top and n not in reached:
            return n, profile[n][0]
        lower = [g for d, els in profile.items() if d < n for g in els]
        lower_ideal = Ideal(ideal.ctx, lower)
        for g in profile[n]:
            if not ideal_member(g, lower_ideal):
                return n, g
    return floor, None


def _relation_degree(I: Ideal, J: Ideal):
    """``(rt_J(I), g)``: :func:`_fresh_degree` on the kernel read modulo
    J at floor 1, g the kernel element of T-degree rt_J that needs a
    fresh generator (None when rt_J = 1 without one)."""
    I._check_ctx(J)
    pres = rees_kernel(I)
    return _fresh_degree(_read_modulo(pres, pres.kernel, J), 1)


def relation_type(I: Ideal) -> int:
    """rt(I): largest T-degree of a fresh kernel generator (minimum 1)."""
    return _relation_degree(I, Ideal(I.ctx, []))[0]


def relation_type_mod(I: Ideal, J: Ideal) -> int:
    """rt_J(I): relation type of the Rees algebra tensored with A/J.

    The kernel read modulo J; J = (0) gives rt(I), maximal J the fiber
    cone.
    """
    return _relation_degree(I, J)[0]


def artin_rees_degree(a: Ideal, I: Ideal, J: Ideal):
    """``(s, g)``: s = s_J(a, A; I), the largest n >= 1 whose
    obstruction module

        M_n = (I^n ∩ a) / (I(I^{n-1} ∩ a) + (J I^n ∩ a))

    is nonzero (0 when none is), and a presentation element g of
    T-degree s whose image is nonzero in M_s (None when s = 0).

    L = phi^{-1}(a A[t]) is T-graded, contains K + aA[T], and L_0 = a;
    phi maps L_n onto (I^n ∩ a)t^n with kernel K_n, T·L_{n-1} onto
    I(I^{n-1} ∩ a)t^n and (JA[T] ∩ L)_n onto (J I^n ∩ a)t^n, so
    M_n ≅ L_n / (T·L_{n-1} + K_n + (JA[T] ∩ L)_n).  Since
    T·L_{n-1} + K_n ⊆ L_n, the modular law lets JA[T]_n replace
    (JA[T] ∩ L)_n: M_n ≅ L'_n / (T·L'_{n-1} + K_n + JA[T]_n) with
    L' = L + JA[T].  That is :func:`_fresh_degree` on L read modulo
    K + J at floor 0.  The answer is exact: M_n = 0 above the top
    degree of the basis.
    """
    a._check_ctx(I)
    a._check_ctx(J)
    pres = rees_kernel(I)
    L = Ideal(pres.ext_ctx,
              _preimage(pres.ideal, pres.ext_ctx, pres.tvars, a.gens))
    L = _read_modulo(pres, L, J, pres.kernel.gens)
    return _fresh_degree(L, 0)


def _outside_top(g, lead, split: int):
    """Top T-degree of the monomials g·T^mu outside the monomial ideal of
    ``lead`` (T-block from ``split`` on), -1 if none, None if infinitely
    many: the T^mu avoiding the (h_T − g_T)⁺ for h in ``lead``, h_A | g_A."""
    g_t = g[split:]
    divides_a = compile_monomials(split).divides
    divides_t, lcm, _, quotient, _ = compile_monomials(len(g_t))
    walls = {quotient(lcm(h[split:], g_t), g_t)
             for h in lead if divides_a(h[:split], g[:split])}
    if any(all(w[k] != sum(w) for w in walls) for k in range(len(g_t))):
        return None
    top, d, layer = -1, sum(g_t), {(0,) * len(g_t)}
    while layer := {mu for mu in layer
                    if not any(divides_t(w, mu) for w in walls)}:
        top, d = d, d + 1
        layer = {mu[:k] + (mu[k] + 1,) + mu[k + 1:]
                 for mu in layer for k in range(len(mu))}
    return top


def _lead(pres: ReesPresentation, i: int) -> list:
    """Lead monomials of in(K) + (T_1..T_i) = in(K + (T_1..T_i))."""
    return ([h.lm for h in pres.kernel.gb.elements]
            + [pres.ext_ctx.var(v).lm for v in pres.tvars[:i]])


def reduction_degree(pres: ReesPresentation):
    """rn_J(I) for R(I) = A[T]/K presented on the generators x_1..x_s of
    J ⊆ I first (s = ``pres.nfirst``), the least n with
    I^{n+1} = J I^n; None if J is no reduction.  Degree n of A[T]/P,
    P = K + (T_1..T_s), is I^n/J I^{n-1} (Huneke-Swanson, ch. 8); its
    standard monomials span it, so it vanishes iff each T^mu of degree n
    is divisible by a lead monomial of P free of ring variables.  rn is
    the top degree of the T^mu outside, or 0 when there is none (A = 0,
    where 1 ∈ K, so I = 0 and I¹ = J·I⁰).

    The order compares T-degree, then degree in T_2..T_m, in T_3..T_m,
    ...: revlex on the T-block with T_1 last (Bayer–Stillman; Eisenbud,
    Prop. 15.12).  In one T-degree a monomial free of T_1..T_i beats one
    that is not, so in(f) ∈ (T_1..T_i) iff f ∈ (T_1..T_i) for f
    T-homogeneous.  If f ∈ P of one T-degree has in(f) ∉ (T_1..T_i),
    write f = k + t, k ∈ K and t ∈ (T_1..T_i) of that degree: k has the
    terms of f outside (T_1..T_i) and they lead it, so in(f) = in(k).
    Hence in(P) = in(K) + (T_1..T_i), all that :func:`_lead` reads.
    """
    lead = _lead(pres, pres.nfirst)
    top = _outside_top((0,) * len(pres.ext_ctx.vars), lead,
                       len(pres.ideal.ctx.vars))
    return None if top is None else max(top, 0)


def filter_regular_degree(pres: ReesPresentation):
    """``(n, None)``: the largest n with [(x_1..x_{i-1}) I^n : x_i] ∩ I^n
    ≠ (x_1..x_{i-1}) I^{n-1} for some i, x_i the first ``pres.nfirst``
    generators of R(I) (-1 if none); ``(None, x_i)`` if x_i fails in
    every large degree (not filter-regular).  On R(I) = A[T]/K,
    T_i -> x_i t, that quotient is degree n of Q_i/P_i, P_i = K +
    (T_1..T_{i-1}) and Q_i = P_i : T_i.  The reduced basis of P_i is
    T_1..T_{i-1} and elements free of them, on which the order is
    revlex with T_i last, so T_i divides their lead monomial only if it
    divides the element; hence LT(Q_i) = LT(P_i) : T_i (Eisenbud, Prop.
    15.12), with LT(P_i) = LT(K) + (T_1..T_{i-1}) (:func:`reduction_degree`).
    Q_i and P_i differ in degree n iff their lead monomials do, and a
    monomial of LT(Q_i) outside LT(P_i) stays outside without its A-part.
    Q_1 = K for x_1 regular.
    """
    split, top = len(pres.ideal.ctx.vars), -1
    for i, x in enumerate(pres.ideal.gens[:pres.nfirst]):
        k = split + i
        lead = _lead(pres, i)
        tops = [_outside_top(h[:k] + (h[k] - 1,) + h[k + 1:], lead, split)
                for h in lead if h[k]]
        if None in tops:
            return None, x
        top = max([top] + tops)
    return top, None


def relation_type_2gen(x: Poly, y: Poly, ctx: RingCtx) -> int:
    """rt(I) for I = (x, y) with x regular, read off the chart kernel
    L = ker(A[Z] -> A[y/x]) = ((x·Z − y) + quotient) : x^∞.

    a·y^n ∈ x·I^{n-1} iff some a·Z^n + (lower) lies in L: multiply by
    x^n, which is regular.  So c_n = (x I^{n-1} : y^n) is the ideal of
    Z-leading coefficients of the elements of L of Z-degree <= n.  The
    elimination of s from 1 − s·x returns L's reduced basis in the
    chart's order, which compares Z-degree first, so such an element
    reduces to 0 by the basis elements of Z-degree <= n alone, and their
    leading coefficients generate c_n.  Degree n >= 2 carries an
    effective relation iff c_n ≠ c_{n-1}, so rt is the largest Z-degree
    d >= 2 of a basis element whose leading coefficient lies outside
    c_{d-1}, or 1 when there is none.  A degree below it may carry none
    (on Q[t⁴, t⁵, t⁷], (t⁴, t⁵) has effective degrees 2 and 4).  The Rees
    kernel is not read, so this route stays independent of
    :func:`relation_type`.
    """
    x = ctx.coerce(x)
    y = ctx.coerce(y)
    if not is_regular_element(x, ctx):
        raise PolyError("the first generator must be a regular element")
    (z,) = _fresh_tvars(ctx.vars, 1)
    k = len(ctx.vars)
    chart = ctx.extended((z,), Weighted((0,) * k + (1,)))

    def build(s, lift):
        return [lift(x) * lift(chart.var(z)) - lift(y), 1 - s * lift(x)]

    lcs = {}
    for g in eliminate_polys(chart, build):
        top = max(e[k] for e in g.terms)
        lcs.setdefault(top, []).append(Poly(
            ctx.ambient, {e[:k]: c for e, c in g.terms.items() if e[k] == top},
            _trust=True))
    rt, below = 1, []
    for d, leads in sorted(lcs.items()):
        if d >= 2 and not ideal_contains(Ideal(ctx, below), Ideal(ctx, leads)):
            rt = d
        below += leads
    return rt

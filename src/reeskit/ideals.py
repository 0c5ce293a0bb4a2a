"""Ideal calculus over polynomial and quotient ring contexts.

An :class:`Ideal` of A = Q[vars]/a is stored through its nonzero
representative generators in the ambient polynomial ring (the zero ideal
has none); every operation reduces to Groebner computations on the
preimage (generators together with the quotient generators).  Sums,
products, powers, intersections (auxiliary-variable elimination),
colons, and the regularity tests of elements and ideals all live here.
An ideal caches only its own reduced basis; the Gröbner memo serves
everything derived from it.
"""

from __future__ import annotations

import itertools

from .groebner import GroebnerBasis, eliminate_polys, reduced_groebner
from .poly import Poly, PolyError, RingCtx


class Ideal:
    """Finitely generated ideal of a ring context.

    ``gens`` holds the nonzero generators in order, so the zero ideal,
    printed ``(0)``, has none; one lying in the quotient stays.  The
    reduced Groebner basis of the preimage is computed lazily and
    cached, or adopted when ``gens`` is a :class:`GroebnerBasis` under
    the ring's order that contains the quotient.  Ideals are immutable.
    """

    __slots__ = ("ctx", "gens", "_gb")

    def __init__(self, ctx: RingCtx, gens):
        self.ctx = ctx
        self.gens = tuple(g for g in map(ctx.coerce, gens) if not g.is_zero)
        self._gb = None
        if (isinstance(gens, GroebnerBasis) and gens.ctx.same_poly_ring(ctx)
                and all(q in gens.elements or gens.contains(q)
                        for q in ctx.quotient)):
            self._gb = GroebnerBasis(ctx.ambient, self.gens)

    # -- canonical data ----------------------------------------------------

    @property
    def gb(self) -> GroebnerBasis:
        """Reduced Groebner basis of the preimage ideal (cached or adopted);
        the Buchberger run starts from the ring's marked quotient basis."""
        if self._gb is None:
            self._gb = reduced_groebner(self.gens, self.ctx)
        return self._gb

    @property
    def is_zero(self) -> bool:
        if self.ctx.is_quotient:
            q = _quotient_ideal(self.ctx)
            return all(ideal_member(g, q) for g in self.gens)
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return self.gb.is_unit

    def _check_ctx(self, other: "Ideal"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise PolyError("ideals live in different ring contexts")

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.gens)
        return f"({inside or 0})"

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return ideal_sum(self, other)

    def __mul__(self, other):
        return ideal_product(self, other)

    def __pow__(self, n):
        return ideal_power(self, n)

    def __contains__(self, f):
        return ideal_member(f, self)

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return ideal_equal(self, other)

    __hash__ = None


def _quotient_ideal(ctx: RingCtx) -> Ideal:
    """The quotient of ``ctx`` as an ideal of the ambient ring; it adopts
    the quotient as its basis when the ring marks all of it."""
    q = ctx.quotient
    if ctx.known == q:
        q = GroebnerBasis(ctx.ambient, q)
    return Ideal(ctx.ambient, q)


# ---------------------------------------------------------------------------
# basic operations


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    I._check_ctx(J)
    return Ideal(I.ctx, list(I.gens) + list(J.gens))


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    I._check_ctx(J)
    return Ideal(I.ctx, [x * y for x in I.gb for y in J.gb])


def ideal_power(I: Ideal, n: int) -> Ideal:
    """I**n, a product of n copies of I (I**0 = (1))."""
    if n < 0:
        raise PolyError("negative ideal power")
    power = I if n else Ideal(I.ctx, [I.ctx.one])
    for _ in range(n - 1):
        power = ideal_product(power, I)
    return power


def ideal_member(f, I: Ideal) -> bool:
    """True iff f lies in I (quotient semantics via the preimage basis)."""
    f = I.ctx.coerce(f)
    return I.gb.contains(f)


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    """True iff the reduced preimage bases coincide elementwise."""
    I._check_ctx(J)
    return I.gb.elements == J.gb.elements


def ideal_contains(I: Ideal, J: Ideal) -> bool:
    """True iff J ⊆ I.  A generator of J that is a generator of I takes
    no membership test."""
    I._check_ctx(J)
    return all(g in I.gens or ideal_member(g, I) for g in J.gens)


# ---------------------------------------------------------------------------
# intersection and colon


def _intersect_preimages(gens_a, gens_b, ctx: RingCtx) -> GroebnerBasis:
    """The reduced basis of (gens_a) ∩ (gens_b) in the ambient ring."""
    def build(t, lift):
        one_minus_t = 1 - t
        return ([t * lift(g) for g in gens_a]
                + [one_minus_t * lift(g) for g in gens_b])
    return eliminate_polys(ctx.ambient, build)


def ideal_intersect(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J via the auxiliary-variable trick t·I + (1−t)·J; the result
    adopts the elimination's basis."""
    I._check_ctx(J)
    return Ideal(I.ctx, _intersect_preimages(I.gb, J.gb, I.ctx))


def exact_divide(h: Poly, g: Poly) -> Poly:
    """The exact quotient h/g in the polynomial ring (h must be a multiple).

    Long division on the remainder's term dict with the ring's monomial
    kernels; each step removes the largest monomial left."""
    if g.is_zero:
        raise PolyError("division by the zero polynomial")
    keyf = h.ctx.kernels.key
    divides, _, mul, quotient, _ = h.ctx.kernels.monomials
    glm, glc = g.lm, g.lc
    r, out = dict(h.terms), {}
    while r:
        m = max(r, key=keyf)
        if not divides(glm, m):
            raise PolyError("inexact polynomial division")
        e, c = quotient(m, glm), r[m] / glc
        out[e] = c
        for ge, gc in g.terms.items():
            k = mul(e, ge)
            v = r.pop(k, 0) - c * gc
            if v:
                r[k] = v
    return Poly(h.ctx, out, _trust=True)


def ideal_colon(I: Ideal, J: Ideal) -> Ideal:
    """(I : J) = { a : a·J ⊆ I }, computed on preimages.

    For each generator g of J, ((I + a) : g) equals ((I + a) ∩ (g)) / g
    in the ambient polynomial ring; the results are intersected.
    (I : (0)) = (1), as for a J whose generators all lie in the quotient.
    """
    I._check_ctx(J)
    ctx = I.ctx
    result = None
    for g in J.gens:
        meet = _intersect_preimages(I.gb, [g], ctx)
        quotients = [exact_divide(h, g) for h in meet]
        part = Ideal(ctx, quotients)
        result = part if result is None else ideal_intersect(result, part)
    return Ideal(ctx, [ctx.one]) if result is None else result


# ---------------------------------------------------------------------------
# regularity


def _annihilator_is_zero(I: Ideal) -> bool:
    """Whether I ≠ 0 and ann(I) = 0.

    On a polynomial ring, or a ring marked as a domain (a prime quotient
    q), that is ``not I.is_zero``: one normal form per generator against
    q's basis, the marked one where the ring has it.  Elsewhere it is one
    colon upstairs, (q : I) = q ≠ (1); the colon is (1) iff I = 0.
    """
    ctx = I.ctx
    if ctx.is_quotient and not ctx.is_domain:
        q = _quotient_ideal(ctx)
        c = ideal_colon(q, Ideal(ctx.ambient, I.gens))
        return not c.is_unit and ideal_equal(c, q)
    return not I.is_zero


def is_regular_element(f, ctx: RingCtx) -> bool:
    """True iff f is a non zero divisor of the ring of ``ctx``.

    An element that is zero in the quotient is reported as not regular.
    On a domain (a monomial curve) that is all: f is regular iff f ∉ q,
    one normal form; elsewhere it takes one colon.
    """
    return _annihilator_is_zero(Ideal(ctx, [f]))


def candidate_elements(I: Ideal):
    """The endless stream of candidate elements of I, for searches over I.

    Yields the generators g_1..g_m (all nonzero), then g_1 + t·g_2 + ...
    + t^(m-1)·g_m for t = 1, 2, ..., skipping zero sums and repeats.
    """
    def combinations():
        for t in itertools.count(1):
            combo = I.ctx.zero
            scale = 1
            for g in I.gens:
                combo = combo + g.scale(scale)
                scale *= t
            yield combo

    seen = set()
    for g in itertools.chain(I.gens, combinations()):
        if not g.is_zero and g not in seen:
            seen.add(g)
            yield g


def is_regular_ideal(I: Ideal):
    """The first regular element of :func:`candidate_elements`, or None
    when I has none (decided: ann(I) ≠ 0).

    By prime avoidance over the associated primes P of the ring, I holds
    a regular element iff no P contains I, i.e. iff ann(I) = 0.  The
    search then ends: for each P the combination for t is a nonzero
    polynomial in t over the domain A/P, so it lies in P for at most
    m − 1 values of t.
    """
    if not _annihilator_is_zero(I):
        return None
    return next(g for g in candidate_elements(I)
                if is_regular_element(g, I.ctx))


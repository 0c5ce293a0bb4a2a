"""Buchberger's algorithm: reduced bases, normal forms, elimination.

Deterministic throughout: generators are seeded in a canonical order,
pairs are processed smallest-lcm-first under the active order, and the
returned basis is auto-reduced, monic, and sorted by leading monomial.
Both classical pair criteria (coprime lcm and chain) are applied.
Resource caps abort loudly instead of letting a runaway input spin.

A reduced basis depends only on the ideal and the order, so
:func:`reduced_groebner` memoizes the ``MEMO_SIZE`` latest bases, keyed by
variables, order, set of generator terms and caps; all layers share it.

:func:`normal_form` reduces over the integers.  Each divisor contributes
its cached :attr:`Poly.reducer_form`: lead, integer lead coefficient and
integer tail, its denominators cleared once.  The dividend's
denominators are cleared too; each step then scales the work and the
output by lc/gcd(c, lc) and subtracts an integer multiple of the tail,
so no fraction is formed.  The product of those factors is the scale,
and the integer remainder divided once by it (and by the dividend's
cleared denominator) is exactly the rational remainder: every step is
the rational step times a nonzero constant.  Terms leave a heap keyed
once per monomial, largest first.

:func:`eliminate_polys` is the one elimination engine.
:func:`eliminate_aux` runs it on a ring with one extra auxiliary
variable in front; intersections, Rees-algebra kernels and
monomial-curve rings are all built that way, and it is the only code
that knows the auxiliary variable.  Every eliminating or graded order
is a :class:`Weighted` order; whenever the input is homogeneous for its
weights, as the graded Rees-kernel elimination is, Buchberger checks
that every basis element stays so.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .poly import (DegRevLex, Lex, Poly, PolyError, RingCtx, Weighted,
                   contract, embed)

DEFAULT_MAX_BASIS = 4096
DEFAULT_MAX_DEGREE = 256
# Reduced bases kept by the memo; a small bound keeps peak memory flat.
MEMO_SIZE = 64

# The auxiliary elimination variable.  The grammar cannot spell "@", so
# it never collides with a user variable.
_AUX = "@t"

# When True, every reduced basis returned by this module re-verifies the
# Buchberger criterion before being handed out (used by the verification
# suite; expensive, so off by default).
SELF_CHECK = False


class ResourceLimitError(PolyError):
    """A Groebner computation exceeded its configured size or degree cap."""


# -- monomial helpers ---------------------------------------------------------


def _divides(a, b):
    """a | b for exponent tuples."""
    return all(map(operator.le, a, b))


def _quotient(m, d):
    """Exponent vector of m / d (assumes d | m)."""
    return tuple(x - y for x, y in zip(m, d))


def _lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def _mono_times(poly: Poly, exps, coeff) -> Poly:
    out = {}
    for e, c in poly.terms.items():
        out[tuple(x + y for x, y in zip(e, exps))] = c * coeff
    return Poly(poly.ctx, out, _trust=True)


def _homogeneous(p: Poly, degree) -> bool:
    return len({degree(e) for e in p.terms}) <= 1


# -- normal form --------------------------------------------------------------


def _prepare_reducers(ctx, elements):
    """The cached reducer forms of the nonzero ``elements`` of ring ``ctx``."""
    reducers = []
    for g in elements:
        if g.ctx is not ctx and not ctx.same_poly_ring(g.ctx):
            raise PolyError(
                "normal form: polynomial and basis ring contexts differ")
        if g.terms:
            reducers.append(g.reducer_form)
    return reducers


def _descending(order):
    """A flat key function whose ascending order is ``order`` descending,
    so a min-heap pops the leading monomial first."""
    if isinstance(order, Weighted):
        degree, inner = order.degree, _descending(order.inner)
        return lambda e: (-degree(e),) + inner(e)
    if isinstance(order, DegRevLex):
        return lambda e: (-sum(e),) + e[::-1]
    if isinstance(order, Lex):
        return lambda e: tuple([-x for x in e])
    raise PolyError(f"normal form: no heap key for the order {order!r}")


def _reduce_terms(work, reducers, keyf):
    """Remainder of the integer terms ``work`` (consumed) as ``(out, scale)``:
    ``work ≡ out / scale`` modulo ``reducers``, ``scale > 0``.

    Fraction-free: each step multiplies work and output by ``lc / g``,
    where g = gcd(c, lc), instead of dividing by ``lc``.  Monomials leave
    in decreasing order through a heap keyed once per monomial; an entry
    whose monomial has cancelled is skipped.  A reduction only adds
    monomials below the one it removes, so no popped monomial returns.
    """
    heap = [(keyf(m), m) for m in work]
    heapq.heapify(heap)
    queued = set(work)
    out = {}
    scale = 1
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m, 0)
        if not c:
            continue
        for lead, lc, tail in reducers:
            if _divides(lead, m):
                break
        else:
            out[m] = c
            continue
        g = math.gcd(c, lc)
        a, b = lc // g, c // g
        if a != 1:
            scale *= a
            work = {e: a * v for e, v in work.items()}
            out = {e: a * v for e, v in out.items()}
        q = _quotient(m, lead)
        for e, t in tail:
            e2 = tuple(map(operator.add, e, q))
            s = work.get(e2)
            if s is None:
                work[e2] = -b * t
                if e2 not in queued:
                    queued.add(e2)
                    heapq.heappush(heap, (keyf(e2), e2))
            else:
                s -= b * t
                if s:
                    work[e2] = s
                else:
                    del work[e2]
    return out, scale


def normal_form(f: Poly, basis) -> Poly:
    """The unique remainder of ``f`` modulo ``basis``.

    ``basis`` may be a :class:`GroebnerBasis` or an iterable of
    polynomials of the ring of ``f``; no monomial of the result is
    divisible by a leading monomial of ``basis``.  Linear over Q and
    idempotent.  The reduction runs on integers; the exact rational
    remainder is its integer remainder divided by the accumulated scale.
    """
    if isinstance(basis, GroebnerBasis):
        if not f.ctx.same_poly_ring(basis.ctx):
            raise PolyError(
                "normal form: polynomial and basis ring contexts differ")
        basis = basis.elements
    reducers = _prepare_reducers(f.ctx, basis)
    if not reducers or f.is_zero:
        return f
    den = math.lcm(*(c.denominator for c in f.terms.values()))
    work = {m: c.numerator * (den // c.denominator) for m, c in f.terms.items()}
    out, scale = _reduce_terms(work, reducers, _descending(f.ctx.order))
    den *= scale
    return Poly(f.ctx, {m: Fraction(c, den) for m, c in out.items()},
                _trust=True)


def spolynomial(f: Poly, g: Poly) -> Poly:
    """S-polynomial of f and g (both nonzero, same ring)."""
    lf, lg = f.lm, g.lm
    L = _lcm(lf, lg)
    a = _mono_times(f, _quotient(L, lf), 1 / f.lc)
    b = _mono_times(g, _quotient(L, lg), 1 / g.lc)
    return a - b


# -- reduced bases ------------------------------------------------------------


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis: monic, auto-reduced, sorted by leading monomial."""

    ctx: RingCtx
    elements: tuple

    @property
    def is_zero(self) -> bool:
        return not self.elements

    @property
    def is_unit(self) -> bool:
        return len(self.elements) == 1 and self.elements[0] == 1

    def normal_form(self, f: Poly) -> Poly:
        return normal_form(f.in_ctx(self.ctx), self)

    def contains(self, f: Poly) -> bool:
        return self.normal_form(f).is_zero

    def self_check(self) -> bool:
        """Verify the Buchberger criterion and auto-reducedness."""
        els = self.elements
        for i, g in enumerate(els):
            if g.lc != 1:
                raise PolyError("basis element is not monic")
            for j, h in enumerate(els):
                if i == j:
                    continue
                for mono in h.terms:
                    if _divides(g.lm, mono):
                        raise PolyError("basis is not auto-reduced")
        for i in range(len(els)):
            for j in range(i + 1, len(els)):
                if not normal_form(spolynomial(els[i], els[j]), self).is_zero:
                    return False
        return True

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


def _interreduce(polys, ctx) -> tuple:
    keyf = ctx.order.key
    polys = sorted((p for p in polys if not p.is_zero),
                   key=lambda p: (keyf(p.lm), p.canonical_key()))
    minimal = []
    for p in polys:
        if not any(_divides(q.lm, p.lm) for q in minimal):
            minimal.append(p)
    reduced = []
    for i, p in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = normal_form(p, others) if others else p
        reduced.append(r.monic())
    reduced.sort(key=lambda p: keyf(p.lm))
    return tuple(reduced)


def reduced_groebner(gens, ctx: RingCtx | None = None,
                     order=None, *, max_basis: int = DEFAULT_MAX_BASIS,
                     max_degree: int = DEFAULT_MAX_DEGREE) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Unique for a fixed order; inputs homogeneous for the weights of a
    :class:`Weighted` order yield a homogeneous basis (asserted).
    """
    gens = [g for g in gens if g is not None and not g.is_zero]
    if ctx is None:
        if not gens:
            raise PolyError("cannot infer a ring context from no generators")
        ctx = gens[0].ctx
    ctx = ctx.ambient
    if order is not None:
        ctx = ctx.with_order(order)
    gens = [g.in_ctx(ctx) for g in gens]
    if not gens:
        return GroebnerBasis(ctx, ())
    terms = tuple(sorted({tuple(sorted(g.terms.items())) for g in gens}))
    elements = _buchberger(ctx.vars, ctx.order, terms, max_basis, max_degree)
    basis = GroebnerBasis(ctx, tuple(g.in_ctx(ctx) for g in elements))
    if SELF_CHECK and not basis.self_check():
        raise PolyError("internal: Buchberger self-check failed")
    return basis


@functools.lru_cache(maxsize=MEMO_SIZE)
def _buchberger(vars, order, terms, max_basis, max_degree) -> tuple:
    """Elements of the reduced basis of the ideal of ``terms`` (the memo)."""
    ctx = RingCtx(vars, order, _internal=True)
    gens = [Poly(ctx, dict(t), _trust=True) for t in terms]
    keyf = ctx.order.key
    degree = ctx.order.degree if isinstance(ctx.order, Weighted) else None
    if degree and not all(_homogeneous(g, degree) for g in gens):
        degree = None

    for g in gens:
        if g.total_degree > max_degree:
            raise ResourceLimitError(
                f"generator degree {g.total_degree} exceeds cap {max_degree}")

    G = []
    lms = []
    pending = set()
    heap = []

    def add_poly(p: Poly):
        if len(G) >= max_basis:
            raise ResourceLimitError(f"basis size cap {max_basis} exceeded")
        if p.total_degree > max_degree:
            raise ResourceLimitError(
                f"intermediate degree {p.total_degree} exceeds cap {max_degree}")
        if degree is not None and not _homogeneous(p, degree):
            raise PolyError("internal: weighted homogeneity lost")
        p = p.monic()
        j = len(G)
        G.append(p)
        lms.append(p.lm)
        for i in range(j):
            L = _lcm(lms[i], lms[j])
            if L == tuple(a + b for a, b in zip(lms[i], lms[j])):
                continue  # coprime leading monomials: S-poly reduces to zero
            heapq.heappush(heap, (keyf(L), i, j))
            pending.add((i, j))

    for g in sorted(set(gens), key=lambda p: p.canonical_key()):
        add_poly(g)

    while heap:
        _, i, j = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        L = _lcm(lms[i], lms[j])
        skip = False
        for k in range(len(G)):
            if k == i or k == j:
                continue
            if _divides(lms[k], L):
                pik = (i, k) if i < k else (k, i)
                pjk = (j, k) if j < k else (k, j)
                if pik not in pending and pjk not in pending:
                    skip = True
                    break
        if skip:
            continue
        s = spolynomial(G[i], G[j])
        r = normal_form(s, G)
        if not r.is_zero:
            add_poly(r)

    return _interreduce(G, ctx)


# -- elimination ---------------------------------------------------------------


def eliminate_polys(gens, ctx: RingCtx, first_k: int, target_order=None,
                    order=None):
    """Generators of (gens) ∩ Q[vars[first_k:]], with the contracted context.

    Returns ``(target_ctx, polys)``.  ``gens`` must live in the ambient
    polynomial ring of ``ctx``, and ``order`` must eliminate on them.
    """
    ctx = ctx.ambient
    if not 0 <= first_k < len(ctx.vars):
        raise PolyError(f"elimination block {first_k} out of range")
    if target_order is None:
        target_order = ctx.order
        if isinstance(target_order, Weighted):
            target_order = DegRevLex()
    target = RingCtx(ctx.vars[first_k:], target_order, _internal=True)
    block = (1,) * first_k + (0,) * (len(ctx.vars) - first_k)
    elim_ctx = RingCtx(ctx.vars, order or Weighted(block), _internal=True)
    gb = reduced_groebner([g.in_ctx(elim_ctx) for g in gens], ctx=elim_ctx)
    keep_positions = tuple(range(first_k, len(ctx.vars)))
    kept = []
    for g in gb.elements:
        if all(all(e[i] == 0 for i in range(first_k)) for e in g.terms):
            kept.append(contract(g, target, keep_positions))
    return target, kept


def eliminate_aux(target: RingCtx, build, weights=None):
    """Generators of (build(t, lift)) ∩ Q[target.vars], placed in ``target``.

    ``build`` receives the auxiliary variable t of Q[t, target.vars] and
    ``lift``, which moves a polynomial over (a prefix of) the variables
    of ``target`` into that ring; it returns the generators to
    eliminate t from.  No generators give no polynomials.  Generators
    homogeneous for ``weights`` on ``target.vars`` (t weighs 1) are graded
    by them before the t-elimination order breaks ties; Buchberger
    asserts that homogeneity.
    """
    target = target.ambient
    order = Weighted((1,) + (0,) * len(target.vars))
    if weights is not None:
        order = Weighted((1,) + tuple(weights), order)
    ring = RingCtx((_AUX,) + target.vars, order, _internal=True)
    positions = tuple(range(1, len(ring.vars)))
    gens = build(ring.var(_AUX), lambda p: embed(p, ring, positions))
    if not gens:
        return []
    _, kept = eliminate_polys(gens, ring, 1, target.order, order)
    return [g.in_ctx(target) for g in kept]

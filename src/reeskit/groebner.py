"""Buchberger's algorithm: reduced bases, normal forms, elimination.

Deterministic throughout: generators are seeded in a canonical order,
pairs are processed smallest-lcm-first under the active order, and the
returned basis is auto-reduced, monic, and sorted by leading monomial.
Both classical pair criteria (coprime lcm and chain) are applied.
Resource caps abort loudly instead of letting a runaway input spin.

A reduced basis depends only on the ideal and the order, so
:func:`reduced_groebner` memoizes the ``MEMO_SIZE`` latest bases, keyed by
variables, order, set of generator terms and caps; all layers share it.

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
from dataclasses import dataclass

from .poly import (DegRevLex, Poly, PolyError, RingCtx, Weighted, contract,
                   embed)

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
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


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


def _prepare_reducers(elements):
    reducers = []
    for g in elements:
        if g.is_zero:
            continue
        lead = g.lm
        tail = tuple((e, c) for e, c in g.sorted_terms[1:])
        reducers.append((lead, g.lc, tail))
    return reducers


def _reduce_terms(terms, reducers, keyf):
    work = dict(terms)
    out = {}
    while work:
        m = max(work, key=keyf)
        c = work.pop(m)
        hit = None
        for lead, lc, tail in reducers:
            if _divides(lead, m):
                hit = (lead, lc, tail)
                break
        if hit is None:
            out[m] = c
            continue
        lead, lc, tail = hit
        q = _quotient(m, lead)
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


def normal_form(f: Poly, basis) -> Poly:
    """The unique remainder of ``f`` modulo ``basis``.

    ``basis`` may be a :class:`GroebnerBasis` or an iterable of
    polynomials; no monomial of the result is divisible by a leading
    monomial of ``basis``.  Linear over Q and idempotent.
    """
    elements = basis.elements if isinstance(basis, GroebnerBasis) else tuple(basis)
    if isinstance(basis, GroebnerBasis) and not f.ctx.same_poly_ring(basis.ctx):
        raise PolyError("normal form: polynomial and basis ring contexts differ")
    reducers = _prepare_reducers(elements)
    if not reducers or f.is_zero:
        return f
    keyf = f.ctx.order.key
    return Poly(f.ctx, _reduce_terms(f.terms, reducers, keyf), _trust=True)


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

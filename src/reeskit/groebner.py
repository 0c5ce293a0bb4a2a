"""Buchberger's algorithm: reduced bases, normal forms, elimination.

Deterministic throughout: generators are seeded in a canonical order,
pairs are processed in increasing signature and pruned by the signature
criteria (:func:`_buchberger`; Faugère's F5, ISSAC 2002; Gao–Volny–Wang,
Math. Comp. 85, 2016), and the returned basis is auto-reduced, monic,
and sorted by leading monomial.  Resource caps abort loudly instead of
letting a runaway input spin.

A reduced basis depends only on the ideal and the order, so
:func:`reduced_groebner` and :func:`eliminate_polys` memoize the
``MEMO_SIZE`` latest bases as monic term tuples, keyed by the order, the
set of generator reducer forms, the known block and the number of
eliminated variables: an elimination's entry holds its kept block only.

The known block is a basis already in hand: the quotient generators that
a ring marks as its reduced basis (:attr:`~reeskit.poly.RingCtx.known`),
such as a monomial curve's kernel.  :func:`reduced_groebner` reads it
off the ring it is given, :func:`eliminate_polys` off its target, and
the pair loop admits it as its block of lowest index instead of
deriving it again.  That is sound because

* a Gröbner basis of (q) in Q[vars] stays one in any larger polynomial
  ring whose order agrees with the ring's order on Q[vars]
  (:meth:`~reeskit.poly.RingCtx.extended`): its S-pairs and their
  reductions never leave Q[vars];
* the signature loop needs of the elements of lower index only that
  they are a Gröbner basis of the ideal they generate;
* an input that lies in (q) reduces to zero when it is seeded and is
  skipped, as any input in the ideal of those before it is.

Buchberger runs on integers.  Its basis is a list of reducer forms
(:attr:`Poly.reducer_form`: the primitive integer lead, lead coefficient
and tail, and the support bitmask of the lead), never made monic while
the loop runs.  Each pair step forms the integer S-pair (:func:`_spair`),
reduces it fraction-free and regularly against the basis
(:func:`_reduce_terms`, the one reduction kernel), and adds a nonzero
remainder in primitive form.  Terms leave a heap keyed once per
monomial by the order's compiled ``descending`` kernel
(:func:`~reeskit.poly.compile_order`), largest first.  Masks, lcms,
quotients, products and divisibility tests are the generated kernels of
:func:`~reeskit.poly.compile_monomials`.  A lead divides a monomial only
if its mask is a subset of the monomial's, so the reducer search and the
signature criteria compare exponents only past that filter, and leads
with disjoint masks are coprime.  ``Fraction`` values appear only at the
boundary: in the public :func:`spolynomial` and :func:`normal_form`,
wrappers over the same kernels that the loop does not call, and in the
monic elements of the returned basis, which keep the decreasing term
order that the run produced instead of sorting their terms again.

:func:`counting` opens a scope whose :class:`Stats` counts the
reduced bases asked for, Buchberger runs, the S-pairs reduced and
reduced to zero, the pairs pruned (for coprime leads, by a syzygy, by a
cover or a signature met before), the elements that the final
interreduction reduces, and the Rees presentations that
:mod:`reeskit.rees` builds.

:func:`eliminate_polys` is the one elimination entry point and the only
code that knows the auxiliary variable t or chooses an elimination
order: it lifts the generators that its caller builds into Q[t,
target.vars] and weighs t first with the target's order within.  That
ring and the elimination rings depend on the target alone, which
builds them once and holds them (:meth:`~reeskit.poly.RingCtx.derived`).
The final interreduction keeps, reduces and returns only the t-free
elements, which are the target's reduced basis, so an ideal can adopt
them.  A :class:`Weighted` target grades first only where every
generator is homogeneous for its weights, which is where a graded
order eliminates.  Intersections, Rees-algebra kernels,
saturations and monomial-curve rings are all built that way.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import heapq
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .poly import (Poly, PolyError, RingCtx, Weighted, _ordered,
                   _primitive_form, compile_order, embed)

MAX_BASIS = 4096
MAX_DEGREE = 256
# Reduced bases kept by the memo; a small bound keeps peak memory flat.
# Since quotient rings carry their basis, the benchmark workloads hit it
# at no size, and 16 keeps every hit of `verify --all` that 64 gave,
# with 0.3 MB less peak memory on curve-invariants (BENCH_34.json).
MEMO_SIZE = 16

# The auxiliary elimination variable.  The grammar cannot spell "@", so
# it never collides with a user variable.
_AUX = "@t"

# When True, every GroebnerBasis, computed or adopted, re-verifies the
# Buchberger criterion when it is built (used by the verification suite;
# expensive, so off by default).
SELF_CHECK = False


class ResourceLimitError(PolyError):
    """A Groebner computation exceeded ``MAX_BASIS`` or ``MAX_DEGREE``.

    ``stats`` is a copy of the innermost :func:`counting` scope's
    :class:`Stats` at the abort, the failing run's counts included
    (None outside every scope).
    """

    stats = None


@dataclass
class Stats:
    """Gröbner work done inside one :func:`counting` scope."""

    calls: int = 0    # bases asked for, eliminations and memo hits too
    runs: int = 0     # Buchberger runs: memo misses
    pairs: int = 0    # S-pairs formed and reduced (inputs are not pairs)
    coprime: int = 0  # pairs pruned for coprime leads
    syzygy: int = 0   # pairs pruned by a syzygy: F5 or a zero reduction
    covered: int = 0  # pairs pruned by a cover or a signature met before
    zero: int = 0     # S-pairs reduced to zero
    interreduced: int = 0   # basis elements the final interreduction reduces
    presentations: int = 0  # Rees presentations built (rees_kernel misses)
    normal_forms: int = 0   # GroebnerBasis.normal_form and .contains calls


_STATS = contextvars.ContextVar("groebner_stats", default=None)


@contextlib.contextmanager
def counting():
    """Count the Gröbner work of the block in a fresh :class:`Stats`; the
    innermost open scope gets the counts."""
    stats = Stats()
    token = _STATS.set(stats)
    try:
        yield stats
    finally:
        _STATS.reset(token)


def _homogeneous(monomials, degree) -> bool:
    return len({degree(e) for e in monomials}) <= 1


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


def _reduce_terms(work, reducers, kernels, bound=None):
    """Remainder of the integer terms ``work`` (consumed) as ``(out, scale)``:
    ``work ≡ out / scale`` modulo ``reducers``, ``scale > 0``; ``out``
    iterates in decreasing order (``kernels``: :func:`compile_order`'s).

    Fraction-free: each step multiplies work and output by ``lc / g``,
    where g = gcd(c, lc), instead of dividing by ``lc``.  Monomials leave
    in decreasing order through a heap keyed once per monomial; an entry
    whose monomial has cancelled is skipped.  A reduction only adds
    monomials below the one it removes, so no popped monomial returns.
    The first reducer in the list whose lead divides the monomial is
    used; one whose lead mask is not a subset of the monomial's is
    passed over without a divisibility test.

    ``bound`` is the signature step's: ``(limit, signed)``, where
    ``signed`` holds ``(signature, its mask, form)`` of further
    reducers, tried after ``reducers``; a multiple q·g of one is used
    only if the order key of q·signature(g) is below ``limit`` (a
    regular reduction).
    """
    key, descending, _, (divides, _, mul, quotient, mask), _ = kernels
    limit, signed = bound or (None, ())
    heap = [(descending(m), m) for m in work]
    heapq.heapify(heap)
    queued = set(work)
    out = {}
    scale = 1
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m, 0)
        if not c:
            continue
        outside = ~mask(m)
        for lead, lc, tail, lead_mask in reducers:
            if not lead_mask & outside and divides(lead, m):
                break
        else:
            for s, _, (lead, lc, tail, lead_mask) in signed:
                if (not lead_mask & outside and divides(lead, m)
                        and key(mul(quotient(m, lead), s)) < limit):
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
        q = quotient(m, lead)
        for e, t in tail:
            e2 = mul(e, q)
            s = work.get(e2)
            if s is None:
                work[e2] = -b * t
                if e2 not in queued:
                    queued.add(e2)
                    heapq.heappush(heap, (descending(e2), e2))
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
    out, scale = _reduce_terms(work, reducers, f.ctx.kernels)
    den *= scale
    return Poly(f.ctx, {m: Fraction(c, den) for m, c in out.items()},
                _trust=True)


def spolynomial(f: Poly, g: Poly) -> Poly:
    """S-polynomial of f and g (both nonzero, same ring) times a nonzero
    rational, with integer coefficients (:func:`_spair` of their reducer
    forms)."""
    if not f.ctx.same_poly_ring(g.ctx):
        raise PolyError("S-polynomial: the rings of f and g differ")
    pair = _spair(f.reducer_form, g.reducer_form, f.ctx.kernels)
    return Poly(f.ctx, {e: Fraction(v) for e, v in pair.items()}, _trust=True)


def _spair(f, g, kernels) -> dict:
    """The integer terms of lc_ĝ'·m_f·f̂ − lc_f̂'·m_g·ĝ for the reducer
    forms f̂, ĝ (:attr:`Poly.reducer_form`), with m_f, m_g lifting the
    leads to their lcm and lc' = lc / gcd(lc_f̂, lc_ĝ): the textbook
    m_f·f/lc_f − m_g·g/lc_g times a positive rational, so the two have
    the same remainders up to that factor.  No fraction is formed.
    """
    _, lcm, mul, quotient, _ = kernels.monomials
    lf, af, tf, _ = f
    lg, ag, tg, _ = g
    L = lcm(lf, lg)
    d = math.gcd(af, ag)
    out = {}
    for lead, tail, b in ((lf, tf, ag // d), (lg, tg, -(af // d))):
        q = quotient(L, lead)
        for e, c in tail:
            e = mul(e, q)
            v = out.get(e, 0) + b * c
            if v:
                out[e] = v
            else:
                del out[e]
    return out


# -- reduced bases ------------------------------------------------------------


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis: monic, auto-reduced, sorted by leading monomial."""

    ctx: RingCtx
    elements: tuple

    def __post_init__(self):
        if SELF_CHECK and not self.self_check():
            raise PolyError("internal: Buchberger self-check failed")

    @property
    def is_zero(self) -> bool:
        return not self.elements

    @property
    def is_unit(self) -> bool:
        return len(self.elements) == 1 and self.elements[0] == 1

    def normal_form(self, f: Poly) -> Poly:
        stats = _STATS.get()
        if stats is not None:
            stats.normal_forms += 1
        return normal_form(f.in_ctx(self.ctx), self)

    def contains(self, f: Poly) -> bool:
        return self.normal_form(f).is_zero

    def self_check(self) -> bool:
        """Verify the Buchberger criterion and auto-reducedness."""
        els, divides = self.elements, self.ctx.kernels.monomials.divides
        for i, g in enumerate(els):
            if g.lc != 1:
                raise PolyError("basis element is not monic")
            if any(divides(g.lm, m) for j, h in enumerate(els) if j != i
                   for m in h.terms):
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


def reduced_groebner(gens, ctx: RingCtx | None = None) -> GroebnerBasis:
    """Reduced Groebner basis, under the order of ``ctx`` (by default the
    ring of the first generator), of the preimage in the ambient ring of
    the ideal that ``gens`` generate in ``ctx``: ``gens`` together with
    the quotient generators.

    The quotient's marked part (:attr:`RingCtx.known`), a reduced Gröbner
    basis under that order already, is the pair loop's known block.
    Unique for a fixed order; inputs homogeneous for the weights of a
    :class:`Weighted` order yield a homogeneous basis (asserted).
    """
    gens = [g for g in gens if not g.is_zero]
    if ctx is None:
        if not gens:
            raise PolyError("cannot infer a ring context from no generators")
        ctx = gens[0].ctx
    ring = ctx.ambient
    return GroebnerBasis(ring, tuple(_ordered(ring, t)
                                     for t in _basis(gens, ctx, 0)))


def _basis(gens, ctx, drop) -> tuple:
    """:func:`_buchberger` on the nonzero ``gens`` and ``ctx``'s quotient."""
    stats = _STATS.get()
    if stats is not None:
        stats.calls += 1
    known = ctx.known
    gens = [*gens, *ctx.quotient[len(known):]]
    ctx = ctx.ambient
    if SELF_CHECK and known:
        GroebnerBasis(ctx, known)  # checks the basis it starts from
    if not gens and not known:
        return ()
    forms = frozenset(g.in_ctx(ctx).reducer_form for g in gens)
    try:
        return _buchberger(ctx.order, forms,
                           frozenset(g.reducer_form for g in known), drop)
    except ResourceLimitError as exc:
        if stats is not None:  # the run has added its counts
            exc.stats = replace(stats)
        raise


@functools.lru_cache(maxsize=MEMO_SIZE)
def _buchberger(order, forms, known, drop) -> tuple:
    """The reduced basis under ``order`` of the ideal of the reducer forms
    ``forms`` and ``known``, as monic term tuples in decreasing order
    (the memo; the key ignores scaling and variable names), only those
    free of the first ``drop`` variables (:func:`_reduced`).

    A signature-based Buchberger loop (Gao–Volny–Wang).  An element's
    signature (T, i) is the leading term of its representation over the
    inputs: input i has (1, i), and an S-pair the signature of its
    larger half, the multiplier times that element's signature.
    Inputs are taken in ascending canonical order, and the pairs of each
    in increasing T, so the elements of lower index form a Gröbner basis
    of the inputs before it (position over term).  ``known``, a Gröbner
    basis already, is the block of lowest index: admitted first, with no
    pair among its elements and no signatures of their own (Eder–Faugère,
    J. Symbolic Comput. 80, 2017, §3; the module docstring has the
    argument).  A pair is pruned when
    the lead of an element of lower index divides T (F5), when the
    signature of an earlier zero reduction does, when an element g of
    its index covers it (sig(g) | T and (T / sig(g))·lm(g) below the
    pair's lcm), when a pair of the same signature came first, or when
    its leads are coprime.  Reductions are regular: the multiple of a
    reducer of the pair's own index must have a smaller signature.
    """
    n = len(next(iter(forms or known))[0])
    kernels = compile_order(order, n)
    key, _, degree, (divides, lcm, mul, quotient, mask), _ = kernels
    if degree and not all(_homogeneous([f[0]] + [e for e, _ in f[2]], degree)
                          for f in (*forms, *known)):
        degree = None
    stats = _STATS.get()
    pairs = coprime = syzygy = covered = zero = 0

    def canonical(f):
        return [(key(e), c) for e, c in ((f[0], f[1]),) + f[2]]

    # reducer forms: the elements of lower index, then this one's
    G = sorted(known, key=canonical)

    def add(form, sig):
        """Admit ``form`` of signature ``sig`` and push its pairs."""
        nonlocal coprime, syzygy, covered
        if len(G) >= MAX_BASIS:
            raise ResourceLimitError(f"basis size cap {MAX_BASIS} exceeded")
        lead, _, tail, lead_mask = form
        monomials = [lead] + [e for e, _ in tail]
        top = max(map(sum, monomials))
        if top > MAX_DEGREE:
            raise ResourceLimitError(
                f"total degree {top} exceeds cap {MAX_DEGREE}")
        if degree is not None and not _homogeneous(monomials, degree):
            raise PolyError("internal: weighted homogeneity lost")
        a = len(G)
        for b, (lead_b, _, _, mask_b) in enumerate(G):
            if not mask_b & lead_mask:
                coprime += 1  # a principal syzygy's signature
                continue
            L = lcm(lead, lead_b)
            T = mul(quotient(L, lead), sig)
            if b >= len(low):  # same index: the larger half signs
                Tb = mul(quotient(L, lead_b), same[b - len(low)][0])
                if key(Tb) >= key(T):
                    if Tb == T:
                        covered += 1
                        continue
                    T = Tb
            outside = ~mask(T)
            if any(not m & outside and divides(d, T)
                   for d, _, _, m in low):
                syzygy += 1
                continue
            heapq.heappush(heap, (key(T), key(L), a, b, T))
        G.append(form)
        same.append((sig, mask(sig), form))

    try:
        for form in sorted(forms, key=canonical):
            low = G[:]  # a Gröbner basis of the inputs before this one
            lead, lc, tail, lead_mask = form
            if any(not m & ~lead_mask and divides(d, lead)
                   for d, _, _, m in low):
                out, _ = _reduce_terms({lead: lc, **dict(tail)}, low, kernels)
                if not out:
                    continue  # in the ideal of the inputs before it
                form = _primitive_form(list(out.items()), mask)
            same = []  # (signature, mask, form) of this index's elements
            syz = []   # (signature, mask) of its zero reductions
            heap = []
            add(form, (0,) * n)
            last = None
            while heap:
                kT, kL, a, b, T = heapq.heappop(heap)
                if kT == last:
                    covered += 1
                    continue
                last = kT
                outside = ~mask(T)
                if any(not m & outside and divides(s, T) for s, m in syz):
                    syzygy += 1
                    continue
                if any(not m & outside and divides(s, T)
                       and key(mul(quotient(T, s), g[0])) < kL
                       for s, m, g in same):
                    covered += 1
                    continue
                pairs += 1
                out, _ = _reduce_terms(_spair(G[a], G[b], kernels), low,
                                       kernels, (kT, same))
                if out:
                    add(_primitive_form(list(out.items()), mask), T)
                else:
                    zero += 1
                    syz.append((T, ~outside))
    finally:
        if stats is not None:
            stats.runs += 1
            stats.pairs += pairs
            stats.coprime += coprime
            stats.syzygy += syzygy
            stats.covered += covered
            stats.zero += zero

    return _reduced(G, kernels, drop)


def _reduced(G, kernels, drop) -> tuple:
    """The reduced basis of the Groebner basis of reducer forms ``G``, or
    of its elimination ideal for ``drop`` > 0: the minimal elements (no
    other lead divides theirs) with leads free of the first ``drop``
    variables, each reduced by the others over the integers from its
    first term that a lead divides (``Stats.interreduced`` counts those)
    and made monic, as term tuples in decreasing order, sorted by leading
    monomial (``kernels``: the order's :func:`~reeskit.poly.compile_order`
    kernels).  Under an elimination order a lead with a dropped variable
    divides no monomial of a kept element, so the kept ones reduce among
    themselves alone (Cox–Little–O'Shea, §3.1)."""
    keyf, (divides, _, _, _, mask) = kernels.key, kernels.monomials
    minimal = []
    for form in sorted(G, key=lambda f: keyf(f[0])):
        lead, _, _, lead_mask = form
        if not any(lead[:drop]) and not any(
                not m & ~lead_mask and divides(d, lead)
                for d, _, _, m in minimal):
            minimal.append(form)
    stats = _STATS.get()
    basis = []
    for i, (lead, lc, tail, _) in enumerate(minimal):
        terms = ((lead, lc),) + tail
        for j, (e, _) in enumerate(tail, 1):  # its own lead divides no e
            outside = ~mask(e)
            if any(not m & outside and divides(d, e)
                   for d, _, _, m in minimal):  # the terms above e stay
                out, scale = _reduce_terms(dict(terms[j:]),
                                           minimal[:i] + minimal[i + 1:],
                                           kernels)
                terms = [(m, c * scale) for m, c in terms[:j]] + [*out.items()]
                lc *= scale
                if stats is not None:
                    stats.interreduced += 1
                break
        basis.append(tuple((m, Fraction(c, lc)) for m, c in terms))
    return tuple(basis)


# -- elimination ---------------------------------------------------------------


def _refine(order):
    """``order`` on one more variable in front, weighing 0 in each
    :class:`Weighted` layer (Lex and DegRevLex need no change)."""
    if isinstance(order, Weighted):
        return Weighted((0,) + order.weights, _refine(order.inner))
    return order


def _lift(target: RingCtx) -> tuple:
    """The part of :func:`eliminate_polys` that ``target`` alone fixes:
    the lift ring, the target's variables and quotient in it, the plain
    order, and the graded order with its degree where the lifted
    quotient is homogeneous for it (else None, None)."""
    lift = RingCtx((_AUX,) + target.vars, _internal=True)
    keep = tuple(range(1, len(lift.vars)))
    quotient = [embed(q, lift, keep) for q in target.quotient]
    block = (1,) + (0,) * len(keep)
    graded = degree = None
    if isinstance(target.order, Weighted):
        graded = Weighted((1,) + target.order.weights,
                          Weighted(block, _refine(target.order.inner)))
        degree = compile_order(graded, len(lift.vars)).degree
        if not all(_homogeneous(q.terms, degree) for q in quotient):
            graded = degree = None
    return (lift, keep, quotient, Weighted(block, _refine(target.order)),
            graded, degree)


def eliminate_polys(target: RingCtx, build) -> GroebnerBasis:
    """The reduced basis of (build(t, lift)) ∩ Q[target.vars] under
    ``target.order``, taken modulo the quotient of ``target``.

    ``build`` receives the auxiliary variable t of Q[t, target.vars] and
    ``lift``, which moves a polynomial over (a prefix of) the variables
    of ``target`` into that ring; it returns the generators to eliminate
    t from (PolyError for one of another ring).  The quotient of
    ``target`` is lifted too, and its marked part stays marked: the
    order below agrees with ``target.order`` on the target's variables.
    No generators and no quotient give the empty basis.  The order
    weighs t 1 and breaks ties by ``target.order``, so the t-free
    elements, the only ones the run interreduces and returns, are the
    target's reduced basis (Cox–Little–O'Shea, §3.1); the self-check
    compares them with the full basis of Q[t, target.vars].  When
    ``target.order`` is :class:`Weighted` with weights w and every
    generator is homogeneous for (1, w), that grading comes first and t
    breaks ties within each degree.  The target builds :func:`_lift` and
    each elimination ring once and holds them, so the marked quotient's
    reducer forms are computed once; a call checks only its generators.

    Each element keeps the term order of the run as its sorted terms:
    on t-free monomials either order compares as ``target.order`` does.
    The block row weighs them all 0, the graded row (1, w) as w does,
    :func:`_refine` puts a 0 weight for t in front of each weight row
    within, and a lex or degrevlex tail on (t, target.vars) compares
    them as on target.vars.
    """
    lift, keep, quotient, plain, graded, degree = target.derived(
        _AUX, lambda: _lift(target))
    gens = build(lift.var(_AUX), lambda p: embed(p, lift, keep))
    order = graded if graded and all(
        _homogeneous(g.in_ctx(lift).terms, degree) for g in gens) else plain
    ring = target.derived((_AUX, order), lambda: RingCtx(
        lift.vars, order, quotient, _internal=True, _known=len(target.known)))
    kept = _basis([g for g in gens if not g.is_zero], ring, 1)
    if SELF_CHECK:  # checks the lift ring's full basis too
        full = (g.sorted_terms for g in reduced_groebner(gens, ring))
        if kept != tuple(t for t in full if not t[0][0][0]):
            raise PolyError("internal: elimination self-check failed")
    target = target.ambient
    return GroebnerBasis(target, tuple(
        _ordered(target, tuple((m[1:], c) for m, c in t)) for t in kept))

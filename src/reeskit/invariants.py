"""Reduction numbers, integral degrees of fractions, Artin-Rees
numbers, d-sequence and Valabrega-Valla checks, regularity of the Rees
module, and the d-sequence reduction theorem checker.

Reduction numbers (so id(y/x) = rn_(x)((x, y)) + 1), Artin-Rees numbers
and the regularity are read exactly off the Rees presentation
(:mod:`rees`), with the relation-type bound beside s.  Nothing is
searched degree by degree, so every outcome is a value or a decided
negative with its reason: ``none(not a reduction)``,
``none(not integral)`` or ``none(not filter-regular at g)``.
"""

from __future__ import annotations

import itertools

from .ideals import (Ideal, _annihilator_is_zero, candidate_elements,
                     ideal_colon, ideal_contains, ideal_equal,
                     ideal_intersect, ideal_member, ideal_power,
                     ideal_product, is_regular_element)
from .poly import Poly, PolyError, Record, RingCtx
from .rees import (artin_rees_degree, filter_regular_degree, reduction_degree,
                   rees_kernel, relation_type, relation_type_mod)

# combinations of the generators tried by find_principal_reduction
_PRINCIPAL_TRIALS = 16


class SearchOutcome(Record):
    """A value, or none(reason) with the reason in ``witness``."""

    __slots__ = ("value", "witness")

    def __init__(self, value: int | None, witness: str | None):
        self.value = value
        self.witness = witness

    @property
    def resolved(self) -> bool:
        return self.value is not None

    def __str__(self):
        return str(self.value) if self.resolved else repr(self)

    def __repr__(self):
        if self.resolved:
            return f"resolved({self.value})"
        return f"none({self.witness})"


# ---------------------------------------------------------------------------
# reductions


def _check_contained(J: Ideal, I: Ideal):
    J._check_ctx(I)
    if not ideal_contains(I, J):
        raise PolyError("the candidate reduction is not contained in the ideal")


def is_reduction(J: Ideal, I: Ideal) -> SearchOutcome:
    """The least n with I^{n+1} = J·I^n (:func:`rees.reduction_degree`).

    Requires J ⊆ I (checked on generators).  rn depends on the ideal J
    only, so each generator in the ideal of the others is dropped first:
    one that is no generator of I would cost the presentation a T
    variable.  When every generator of I lies in the quotient, each T_i
    lies in the kernel, which then reads 0.
    """
    _check_contained(J, I)
    xs = list(J.gens)
    if len(xs) > 1:
        for g in list(xs):
            rest = list(xs)
            rest.remove(g)
            if ideal_member(g, Ideal(I.ctx, rest)):
                xs = rest
    n = reduction_degree(rees_kernel(I, xs))
    return SearchOutcome(n, "not a reduction" if n is None
                         else f"I^{n + 1} = J*I^{n}")


def reduction_number(I: Ideal, J: Ideal, _ignored=None, /) -> SearchOutcome:
    """rn_J(I): the least n with I^{n+1} = J·I^n.  A third argument is
    ignored; ``bench/child.py`` still passes its former search bound."""
    return is_reduction(J, I)


def find_principal_reduction(I: Ideal):
    """First regular g among the candidates with (g) a reduction of I.

    Returns ``(g, outcome)``; the unit ideal gives g = 1 at once.  None
    has two meanings: at once, decided, when I holds no regular element
    (ann(I) ≠ 0); otherwise only that no reduction was among the
    generators and the next ``_PRINCIPAL_TRIALS`` elements of
    :func:`ideals.candidate_elements`.
    """
    if I.is_unit:
        return I.ctx.one, is_reduction(Ideal(I.ctx, [I.ctx.one]), I)
    if not _annihilator_is_zero(I):
        return None
    tried = len(set(I.gens)) + _PRINCIPAL_TRIALS
    for g in itertools.islice(candidate_elements(I), tried):
        if is_regular_element(g, I.ctx):
            outcome = is_reduction(Ideal(I.ctx, [g]), I)
            if outcome.resolved:
                return g, outcome
    return None


# ---------------------------------------------------------------------------
# integral degree


def integral_degree_fraction(y: Poly, x: Poly, ctx: RingCtx,
                             _ignored=None, /) -> SearchOutcome:
    """id(y/x) = rn_(x)((x, y)) + 1, the least degree of a monic equation
    of y/x over the ring of ``ctx``.

    The denominator must be regular.  ``ctx`` is required: a polynomial
    only knows the ambient polynomial ring, not the quotient it is read in.
    A fourth argument is ignored; ``bench/child.py`` still passes its
    former search bound.
    """
    x = ctx.coerce(x)
    y = ctx.coerce(y)
    if not is_regular_element(x, ctx):
        raise PolyError("the denominator must be a regular element")
    rn = is_reduction(Ideal(ctx, [x]), Ideal(ctx, [x, y]))
    if not rn.resolved:
        return SearchOutcome(None, "not integral")
    return SearchOutcome(rn.value + 1, f"rn_(x)((x,y)) = {rn.value}")


# ---------------------------------------------------------------------------
# Artin-Rees numbers


class ArtinReesReport(Record):
    """Artin-Rees number s_J(a, A; I) for the cyclic pair a ⊆ A.

    ``s_value`` is s, read exactly off the Rees presentation; its
    witness is a presentation element of T-degree s that is not
    generated in lower degrees (None when s = 0).  ``rt_bound`` =
    rt_J(I mod a) is the paper's bound on s, computed on its own route
    and reported beside it; I = (0) gives s = 0 and rt_bound = 1.
    """

    __slots__ = ("s_value", "rt_bound")

    def __init__(self, s_value: SearchOutcome, rt_bound: int):
        self.s_value = s_value
        self.rt_bound = rt_bound


def artin_rees_number(a: Ideal, I: Ideal, J: Ideal) -> ArtinReesReport:
    """s_J(a, A; I): largest n with a nonvanishing obstruction module,
    and rt_J(I) read modulo a, defined for every I (1 for I = (0))."""
    s, g = artin_rees_degree(a, I, J)
    ctx_mod = a.ctx.with_quotient(a.gens)
    return ArtinReesReport(
        SearchOutcome(s, None if g is None else str(g)),
        relation_type_mod(Ideal(ctx_mod, I.gens), Ideal(ctx_mod, J.gens)))


# ---------------------------------------------------------------------------
# d-sequences and Valabrega-Valla containments


def d_sequence_check(seq, ctx: RingCtx) -> bool:
    """Whether x_1, ..., x_s is a d-sequence: no member lies in the ideal
    of the others, and ((x_1..x_i) : x_{i+1}) ∩ (x_1..x_s) = (x_1..x_i)
    for every i."""
    seq = [ctx.coerce(g) for g in seq]
    if not seq:
        raise PolyError("empty sequence")
    for j, g in enumerate(seq):
        others = [h for i, h in enumerate(seq) if i != j]
        others_ideal = Ideal(ctx, others)
        if ideal_member(g, others_ideal):
            return False
    J = Ideal(ctx, seq)
    for i in range(len(seq)):
        Ji = Ideal(ctx, seq[:i])
        lhs = ideal_intersect(ideal_colon(Ji, Ideal(ctx, [seq[i]])), J)
        if not ideal_equal(lhs, Ji):
            return False
    return True


def vv_check(prefix, I: Ideal, n: int) -> bool:
    """Valabrega-Valla containment: (prefix) ∩ I^{n+1} = (prefix)·I^n."""
    ctx = I.ctx
    prefix = [ctx.coerce(g) for g in prefix]
    if not prefix:
        return True
    P = Ideal(ctx, prefix)
    lhs = ideal_intersect(P, ideal_power(I, n + 1))
    rhs = ideal_product(P, ideal_power(I, n))
    return ideal_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# regularity of the Rees module


def reg_rees(I: Ideal, J: Ideal) -> SearchOutcome:
    """Regularity of the Rees module of I, via its reduction J = (x_1..x_s):
    the least r >= rn_J(I) above which the filter-regular condition of
    :func:`rees.filter_regular_degree` holds (Trung, Proc. AMS 101, 1987),
    none when no degree bounds its failures.  rn and the filter-regular
    degrees are both read off one R(I), presented on x_1..x_s as given."""
    _check_contained(J, I)
    pres = rees_kernel(I, J.gens)
    rn = reduction_degree(pres)
    if rn is None:
        raise PolyError("not a reduction")
    top, x = filter_regular_degree(pres)
    if top is None:
        return SearchOutcome(None, f"not filter-regular at {x}")
    reg = max(rn, top)
    return SearchOutcome(reg, f"exact: filter-regular above {reg}")


# ---------------------------------------------------------------------------
# the d-sequence reduction theorem


class DSequenceReductionReport(Record):
    """Hypothesis and conclusion record for the d-sequence reduction bound.

    When the generators of the reduction J form a d-sequence, the proper
    prefix is a regular sequence, and the prefix ideals satisfy
    (x_1..x_i) ∩ I^{r+1} = (x_1..x_i)·I^r at r = rn_J(I), then
    rt(I) <= rn_J(I) + 1 and reg of the Rees module equals rn_J(I).
    Conclusions are evaluated only when every hypothesis holds, and set
    on the record then (mutable).
    """

    __slots__ = ("rn", "d_sequence_ok", "regular_sequence_ok",
                 "intersection_ok", "intersection_failures", "rt", "reg",
                 "rt_bound_ok", "reg_equals_rn_ok")
    __hash__ = None

    def __init__(self, rn: SearchOutcome, d_sequence_ok: bool,
                 regular_sequence_ok: bool,
                 intersection_ok: bool,  # hypothesis (iii)
                 intersection_failures: list | None = None,
                 rt: int | None = None, reg: SearchOutcome | None = None,
                 rt_bound_ok: bool | None = None,
                 reg_equals_rn_ok: bool | None = None):
        self.rn, self.d_sequence_ok = rn, d_sequence_ok
        self.regular_sequence_ok = regular_sequence_ok
        self.intersection_ok = intersection_ok
        self.intersection_failures = (
            [] if intersection_failures is None else intersection_failures)
        self.rt, self.reg = rt, reg
        self.rt_bound_ok, self.reg_equals_rn_ok = rt_bound_ok, reg_equals_rn_ok

    @property
    def hypotheses_hold(self) -> bool:
        return (self.d_sequence_ok and self.regular_sequence_ok
                and self.intersection_ok)


def check_d_sequence_reduction(I: Ideal, j_gens) -> DSequenceReductionReport:
    """Evaluate the d-sequence reduction theorem on I and the ordered
    generators of a candidate reduction J = (j_gens)."""
    ctx = I.ctx
    seq = [ctx.coerce(g) for g in j_gens]
    J = Ideal(ctx, seq)
    rn = reduction_number(I, J)
    if not rn.resolved:
        raise PolyError("not a reduction")
    r = rn.value
    s = len(seq)

    hyp_d = d_sequence_check(seq, ctx)

    hyp_reg = True
    for i in range(s - 1):
        step_ctx = ctx.with_quotient(seq[:i]) if i else ctx
        if not is_regular_element(seq[i], step_ctx):
            hyp_reg = False
            break

    failures = []
    for i in range(1, s):
        if not vv_check(seq[:i], I, r):
            failures.append(i)
    hyp_iii = not failures

    report = DSequenceReductionReport(
        rn=rn, d_sequence_ok=hyp_d, regular_sequence_ok=hyp_reg,
        intersection_ok=hyp_iii, intersection_failures=failures)
    if report.hypotheses_hold:
        report.rt = relation_type(I)
        report.rt_bound_ok = report.rt <= r + 1
        report.reg = reg_rees(I, J)
        report.reg_equals_rn_ok = report.reg.resolved and report.reg.value == r
    return report

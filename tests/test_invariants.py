"""Reduction numbers, integral degrees, Artin-Rees numbers, d-sequences,
regularity, and the d-sequence reduction theorem checker."""

import itertools

import pytest
from conftest import CURVE_INSTANCES

from reeskit import (Ideal, PolyError, RingCtx, ResourceLimitError,
                     artin_rees_number, check_d_sequence_reduction,
                     d_sequence_check, find_principal_reduction, ideal_colon,
                     ideal_equal, ideal_intersect, ideal_member, ideal_power,
                     ideal_product, integral_degree_fraction, is_reduction,
                     monomial_curve, reduction_number, reg_rees,
                     relation_type, relation_type_mod, vv_check)
from reeskit import groebner, invariants, rees
from reeskit.ideals import candidate_elements

CTX2 = RingCtx("x,y")
CUSP23 = monomial_curve((2, 3), ("u", "v"))
CUSP34 = monomial_curve((3, 4), ("u", "v"))
NODE = RingCtx("x,y,z", quotient=["x*z"])
CROSS = RingCtx("x,y", quotient=["x*y"])
CTX3 = RingCtx("x,y,z")
ARTIN = RingCtx("x,y", quotient=["x^4", "y^2"])
ARTIN2 = RingCtx("x,y", quotient=["y^3", "x^4"])


def I_(ctx, *gens):
    return Ideal(ctx, list(gens))


@pytest.fixture
def built(monkeypatch):
    """The T-variable counts of the Rees presentations built, in order."""
    tcounts, build = [], rees.rees_kernel

    def recording(*args):
        pres = build(*args)
        tcounts.append(pres.tcount)
        return pres

    for module in (rees, invariants):
        monkeypatch.setattr(module, "rees_kernel", recording)
    return tcounts


# -- the scans: independent routes for rn and id --------------------------------


def _power_scan(J, I, cap):
    """The least n <= cap with I^{n+1} = J·I^n, built power by power;
    None when no degree up to the cap settles it."""
    for n in range(cap + 1):
        if ideal_equal(ideal_power(I, n + 1),
                       ideal_product(J, ideal_power(I, n))):
            return n
    return None


def _colon_scan(y, x, ctx, cap):
    """The least n <= cap with x·(x, y)^{n-1} : (y^n) = (1), one colon per
    degree; None when no degree up to the cap settles it."""
    I, xI = I_(ctx, x, y), I_(ctx, x)
    for n in range(1, cap + 1):
        if ideal_colon(ideal_product(xI, ideal_power(I, n - 1)),
                       I_(ctx, y ** n)).is_unit:
            return n
    return None


# -- reductions -----------------------------------------------------------------


def test_is_reduction_degenerate():
    x, y = CTX2.var("x"), CTX2.var("y")
    I = I_(CTX2, x, y)
    out = is_reduction(I, I)
    assert out.resolved and out.value == 0


def test_is_reduction_huneke_slice():
    x, y = CTX2.var("x"), CTX2.var("y")
    I = I_(CTX2, x ** 2, x * y, y ** 2)
    J = I_(CTX2, x ** 2, y ** 2)
    out = is_reduction(J, I)
    assert out.value == 1


def test_is_reduction_unresolved_and_containment_error():
    x, y = CTX2.var("x"), CTX2.var("y")
    I = I_(CTX2, x, y)
    out = is_reduction(I_(CTX2, x), I)
    assert not out.resolved
    assert str(out) == "none(not a reduction)"
    with pytest.raises(PolyError, match="not contained"):
        is_reduction(I_(CTX2, x + 1), I_(CTX2, x))


def test_containment_check_skips_shared_generators():
    u, v = CUSP23.var("u"), CUSP23.var("v")
    # v = t^3 is outside (u) = (t^2): alone or beside a generator of I
    for J in (I_(CUSP23, v), I_(CUSP23, u, v)):
        with pytest.raises(PolyError, match="not contained"):
            is_reduction(J, I_(CUSP23, u))
    # (x) ⊆ (x, y) is read off the generators: no basis is built
    with groebner.counting() as stats:
        invariants._check_contained(I_(CUSP23, u), I_(CUSP23, u, v))
    assert (stats.calls, stats.runs, stats.normal_forms) == (0, 0, 0)


NODE = RingCtx("x,y,z", quotient=["x*z"])


@pytest.mark.parametrize("ctx, q", [(CUSP23, "u^3 - v^2"), (NODE, "x*z")],
                         ids=["cusp23", "node"])
def test_is_reduction_of_generators_in_the_quotient(ctx, q):
    # nonzero polynomials that vanish in A: the Rees kernel holds each
    # T_i, so rn = 0 for J = I and for J = (0)
    q = ctx.parse(q)
    x = ctx.var(ctx.vars[0])
    for I in (I_(ctx, q), I_(ctx, q, x * q)):
        for J in (I, I_(ctx, ctx.zero)):
            out = is_reduction(J, I)
            assert out.resolved and out.value == 0


def test_is_reduction_on_a_curve_takes_no_normal_form():
    u, v = CUSP23.var("u"), CUSP23.var("v")
    with groebner.counting() as stats:
        assert is_reduction(I_(CUSP23, u), I_(CUSP23, u, v)).value == 1
    assert stats.normal_forms == 0


def test_reduction_number_huneke_n3():
    x, y = CTX2.var("x"), CTX2.var("y")
    I = I_(CTX2, x ** 3, y ** 3, x ** 2 * y)
    J = I_(CTX2, x ** 3, y ** 3)
    assert reduction_number(I, J).value == 2


def test_reduction_number_on_curve():
    u, v = CUSP34.var("u"), CUSP34.var("v")
    assert reduction_number(I_(CUSP34, u, v), I_(CUSP34, u)).value == 2


def test_find_principal_reduction():
    u, v = CUSP34.var("u"), CUSP34.var("v")
    hit = find_principal_reduction(I_(CUSP34, u, v))
    assert hit is not None
    g, out = hit
    assert g == u and out.value == 2
    # (x, y) has analytic spread 2: no candidate is a reduction
    x = CTX2.var("x")
    assert find_principal_reduction(I_(CTX2, x, CTX2.var("y"))) is None
    hit = find_principal_reduction(I_(CTX2, x))
    assert hit[0] == x and hit[1].value == 0
    # on the node neither generator is regular; the combination x + z is
    x, z = NODE.var("x"), NODE.var("z")
    g, out = find_principal_reduction(I_(NODE, x, z))
    assert g == x + z and repr(out) == "resolved(1)"
    # decided at once: ann((x)) = (z), so (x) holds no regular element
    assert find_principal_reduction(I_(NODE, x)) is None
    # (x, x - 1) = (1): no combination x + t·(x - 1) is a unit, so the
    # unit ideal is answered before the candidates are read
    x = CTX2.var("x")
    g, out = find_principal_reduction(I_(CTX2, x, x - 1))
    assert g == 1 and repr(out) == "resolved(0)"


def test_principal_reduction_survey_agrees():
    u, v = CUSP23.var("u"), CUSP23.var("v")
    I = I_(CUSP23, u, 2 * u, v)
    g, out = find_principal_reduction(I)
    assert g == u and out.value == 1
    # the value does not depend on which principal reduction is used
    assert is_reduction(I_(CUSP23, 2 * u), I).value == out.value


# -- integral degree ---------------------------------------------------------------


def test_integral_degree_trivial_membership():
    x, y = CTX2.var("x"), CTX2.var("y")
    out = integral_degree_fraction(x * y, x, CTX2)
    assert out.value == 1
    ctx = RingCtx("x")
    x = ctx.var("x")
    assert integral_degree_fraction(x ** 2, x, ctx).value == 1


def test_integral_degree_on_curves():
    u, v = CUSP34.var("u"), CUSP34.var("v")
    assert integral_degree_fraction(v, u, CUSP34).value == 3
    # the ring is required: u and v alone only know Q[u, v]
    with pytest.raises(TypeError):
        integral_degree_fraction(v, u)
    sv = monomial_curve((3, 4, 5), ("a", "b", "c"))
    assert integral_degree_fraction(sv.var("b"), sv.var("a"), sv).value == 3
    # y/x is not integral over Q[x, y]
    out = integral_degree_fraction(CTX2.var("y"), CTX2.var("x"), CTX2)
    assert not out.resolved


def test_integral_degree_requires_regular_denominator():
    node = RingCtx("x,y,z", quotient=["x*z"])
    with pytest.raises(PolyError, match="regular"):
        integral_degree_fraction(node.var("y"), node.var("x"), node)


# (ring, I, J): the conftest curves with J = (x) ⊆ I = (x, y), where id
# is compared too, then ideals with non-principal or non-generator J;
# the last input is no reduction, which no cap of the scans can show.
SCAN_CAP = 6
READ_CASES = [
    (monomial_curve(w, names), f"{x}, {y}", x)
    for w, names, x, y in CURVE_INSTANCES] + [
    (CTX2, "x^3, y^3, x^2*y", "x^3, y^3"),
    (CTX2, "x^5, y^5, x^4*y", "x^5, y^5"),
    (CTX2, "x^2, x*y, y^2", "x^2, y^2"),
    (NODE, "x, z", "x + z"),
    (CUSP23, "-u, u^2*v^2 + 2*v^2, v + 2*u*v", "-u"),
    (CTX2, "x, y", "x"),
]
READ_IDS = [f"t^{w} x={x} y={y}" for w, _, x, y in CURVE_INSTANCES] + [
    "huneke3", "huneke5", "m2", "node-x+z", "cusp23-inhomogeneous",
    "not-a-reduction"]


@pytest.mark.parametrize("ctx, I, J", READ_CASES, ids=READ_IDS)
def test_exact_rn_and_id_match_the_scans(ctx, I, J):
    I, J = Ideal(ctx, I.split(", ")), Ideal(ctx, J.split(", "))
    rn, scan = reduction_number(I, J), _power_scan(J, I, SCAN_CAP)
    assert rn.value == scan
    if scan is None:
        assert str(rn) == "none(not a reduction)"
    if len(I.gens) == 2 and J.gens == I.gens[:1]:
        x, y = I.gens
        idv = integral_degree_fraction(y, x, ctx)
        assert idv.value == _colon_scan(y, x, ctx, SCAN_CAP)
        if scan is None:
            assert str(idv) == "none(not integral)"
        else:
            assert idv.value == scan + 1


# cusp inputs whose rn once took 9-13 s in one Buchberger run of the
# Rees kernel: each answer, and a bound on the runs and S-pairs that
# reach it, so that a return of the slow run fails instead of only
# slowing the suite
SLOW_CUSP_CASES = [
    (CUSP34, "u - u^2*v, u^2*v^2 - 3*v, v + v^2",
     "u - u^2*v, u^2*v^2 - 3*v", "resolved(0)", 3, 29),
    (CUSP34, "u*v^2 - 2*u^2, u^2*v^2 - 2*v^2, v + u*v^2",
     "u*v^2 - 2*u^2, u^2*v^2 - 2*v^2, v + u*v^2", "resolved(0)", 4, 26),
    (CUSP23, "-u, u^2*v^2 + 2*v^2, v + 2*u*v", "-u", "resolved(1)", 1, 4),
    (CUSP34, "u^2*v - u^2, u^2*v^2 + v^2, -v^2 + 3*u",
     "u^2*v^2 + u^2*v - u^2 + 3*u", "none(not a reduction)", 2, 42),
]


@pytest.mark.parametrize("ctx, I, J, answer, runs, pairs", SLOW_CUSP_CASES,
                         ids=["cusp34-J2", "cusp34-J=I", "cusp23",
                              "cusp34-none"])
def test_rn_on_formerly_slow_cusp_inputs(ctx, I, J, answer, runs, pairs):
    rees._present.cache_clear()
    groebner._buchberger.cache_clear()
    with groebner.counting() as stats:
        rn = reduction_number(Ideal(ctx, I.split(", ")),
                              Ideal(ctx, J.split(", ")))
    assert repr(rn) == answer
    assert stats.runs <= runs and stats.pairs <= pairs


def test_exact_read_edge_inputs():
    zero = I_(CTX2, CTX2.zero)
    assert reduction_number(zero, zero).value == 0  # R(0) on no T variable
    nil = RingCtx("x", quotient=["x^2"])
    assert reduction_number(I_(nil, nil.var("x")), I_(nil, nil.zero)).value == 1
    x, y = CTX2.var("x"), CTX2.var("y")
    assert integral_degree_fraction(CTX2.zero, x, CTX2).value == 1
    with pytest.raises(PolyError, match="not contained"):
        reduction_number(I_(CTX2, x), I_(CTX2, x, y))
    # in A = 0 every ideal is 0 = I^1 = J*I^0, so rn = 0; 1 lies in the
    # presentation kernel and no standard monomial is left
    zero_ring = RingCtx("x", quotient=["1"])
    I = I_(zero_ring, zero_ring.var("x"))
    outcome = is_reduction(I, I)
    assert outcome.value == 0 and outcome.witness == "I^1 = J*I^0"


def _zero_ideal_answers(I, a):
    """rt, rt_J (J maximal), rn and reg of I on itself (value, witness),
    s and rt_bound of a ⊆ A, the principal reduction, and (J : I)."""
    ctx = I.ctx
    maximal = Ideal(ctx, list(ctx.vars))
    rn, reg = reduction_number(I, I), reg_rees(I, I)
    ar = artin_rees_number(I_(ctx, a), I, I_(ctx))
    return (relation_type(I), relation_type_mod(I, maximal),
            (rn.value, rn.witness), (reg.value, reg.witness),
            (ar.s_value.value, ar.s_value.witness), ar.rt_bound,
            find_principal_reduction(I), ideal_colon(maximal, I).is_unit)


# R(0) = A: rt = 1, rn = reg = s = 0, rt_bound = 1, no regular element,
# and (J : 0) = (1)
ZERO_IDEAL_ANSWERS = (1, 1, (0, "I^1 = J*I^0"),
                      (0, "exact: filter-regular above 0"), (0, None), 1,
                      None, True)


@pytest.mark.parametrize("ctx, q, a", [
    (CUSP34, "u^4 - v^3", "u"), (NODE, "x*z", "x"), (CTX2, None, "x")],
    ids=["cusp34", "node", "plane"])
def test_both_spellings_of_the_zero_ideal_agree(ctx, q, a):
    # (0) takes the general path and gets what (q), q in the quotient, gets
    assert _zero_ideal_answers(I_(ctx), a) == ZERO_IDEAL_ANSWERS
    if q is not None:
        assert _zero_ideal_answers(I_(ctx, q), a) == ZERO_IDEAL_ANSWERS


def test_zero_ideal_of_the_zero_ring():
    # in A = 0 the ideal (0) is (1), so g = 1 is its principal reduction
    zero_ring = RingCtx("x", quotient=["1"])
    expected = ZERO_IDEAL_ANSWERS[:6] + (
        (zero_ring.one, is_reduction(I_(zero_ring, 1), I_(zero_ring, 1))),
        True)
    for I in (I_(zero_ring), I_(zero_ring, 1)):
        assert _zero_ideal_answers(I, "x") == expected


def _line_pencil():
    """A = Q[x, y]/(x·y·∏_{s=1..16}(x + s·y)): x, y and x + s·y for
    s = 1..16 are zero divisors, x + 17·y is the first regular
    combination of the candidate stream of (x, y)."""
    amb = RingCtx("x,y")
    x, y = amb.var("x"), amb.var("y")
    f = x * y
    for s in range(1, 17):
        f = f * (x + y.scale(s))
    return amb.with_quotient([f])


def test_zero_generators_change_no_answer():
    ctx = _line_pencil()
    x, y = ctx.var("x"), ctx.var("y")
    plain, padded = I_(ctx, x, y), I_(ctx, x, ctx.zero, y)
    assert padded.gens == plain.gens == (x, y)
    stream = list(itertools.islice(candidate_elements(plain), 20))
    assert list(itertools.islice(candidate_elements(padded), 20)) == stream
    assert stream[:4] == [x, y, x + y, x + y.scale(2)]
    # both budgets stop at x + 16·y, one short of the regular x + 17·y
    assert find_principal_reduction(plain) is None
    assert find_principal_reduction(padded) is None


def test_rn_drops_redundant_reduction_generators(built):
    # x^2*y^2 lies in (x^2, y^2), so R(I) is presented on three T
    # variables, not four, and rn is that of J = (x^2, y^2)
    I, lean = Ideal(CTX2, ["x^2", "x*y", "y^2"]), I_(CTX2, "x^2", "y^2")
    J = I_(CTX2, "x^2", "y^2", "x^2*y^2")
    assert reduction_number(I, J).value == 1
    assert built == [3]
    assert reduction_number(Ideal(CTX2, I.gens), lean).value == 1


def test_benchmark_call_shape_is_accepted():
    # the benchmark's child passes a former search bound positionally
    # as the last argument; it is ignored
    u, v = CUSP34.var("u"), CUSP34.var("v")
    I, J = I_(CUSP34, u, v), I_(CUSP34, u)
    assert reduction_number(I, J, 12) == reduction_number(I, J)
    assert (integral_degree_fraction(v, u, CUSP34, 12)
            == integral_degree_fraction(v, u, CUSP34))
    x, y = CTX2.var("x"), CTX2.var("y")
    assert (integral_degree_fraction(y, x, CTX2, 12)
            == integral_degree_fraction(y, x, CTX2))
    assert str(integral_degree_fraction(y, x, CTX2, 12)) == "none(not integral)"


# -- Artin-Rees -----------------------------------------------------------------


def test_artin_rees_eisenbud_hochster_slice():
    ctx = CTX2
    f = ctx.parse("x^3 - y^4")
    a = I_(ctx, f)
    I = I_(ctx, ctx.var("x"), ctx.var("y"))
    rep = artin_rees_number(a, I, I_(ctx, ctx.zero))
    assert rep.rt_bound == 3
    assert rep.s_value.value == 3
    lhs = ideal_intersect(ideal_power(I, 3), a)
    rhs = ideal_product(I, ideal_intersect(ideal_power(I, 2), a))
    assert not all(ideal_member(g, rhs) for g in lhs.gb)


def test_artin_rees_wang_slice():
    ctx = RingCtx("x,y,z")
    x, y, z = (ctx.var(v) for v in "xyz")
    I = I_(ctx, x ** 2, y ** 2, x * y + z ** 2)
    rep = artin_rees_number(I_(ctx, z), I, I_(ctx, x, y, z))
    assert rep.s_value.value == 2


def test_artin_rees_of_ideal_with_itself():
    x, y = CTX2.var("x"), CTX2.var("y")
    I = I_(CTX2, x, y)
    rep = artin_rees_number(I, I, I_(CTX2, CTX2.zero))
    assert rep.s_value.value == 1


def _obstruction_vanishes(a, I, J, n):
    """The definition: I^n ∩ a ⊆ I(I^{n-1} ∩ a) + (J·I^n ∩ a)."""
    lhs = ideal_intersect(ideal_power(I, n), a)
    rhs = ideal_product(I, ideal_intersect(ideal_power(I, n - 1), a))
    rhs = rhs + ideal_intersect(ideal_product(J, ideal_power(I, n)), a)
    return all(ideal_member(g, rhs) for g in lhs.gb)


@pytest.mark.parametrize("ctx, a, I, J, s, rt_bound", [
    (CUSP34, "v", "u, v", "u", 4, 4),
    (CUSP34, "u^2", "u, v", "0", 2, 3),
    (CTX2, "x^2 + y^3", "x^2, x*y, y^2", "0", 1, 2),
    (CTX2, "x*y^2 - y^4", "x^3, y^3, x^2*y", "x^3, y^3", 2, 2),
    (CTX2, "0", "x^2, x*y, y^2", "0", 0, 2),
    (CTX2, "x", "0", "0", 0, 1),
], ids=["cusp34-a=v-J=u", "cusp34-a=u2", "veronese-a=x2+y3",
        "huneke3-J=x3,y3", "a=0", "I=0"])
def test_artin_rees_number_matches_definition(ctx, a, I, J, s, rt_bound):
    a, I, J = (Ideal(ctx, text.split(", ")) for text in (a, I, J))
    rep = artin_rees_number(a, I, J)
    assert rep.s_value.value == s and rep.rt_bound == rt_bound
    if s:
        assert not _obstruction_vanishes(a, I, J, s)
    for n in range(s + 1, max(s, rt_bound) + 2):
        assert _obstruction_vanishes(a, I, J, n)


def test_artin_rees_number_lets_resource_errors_through(monkeypatch):
    # an aborted bound is no answer
    def abort(I, J):
        raise ResourceLimitError("degree cap")

    monkeypatch.setattr(invariants, "relation_type_mod", abort)
    with pytest.raises(ResourceLimitError):
        artin_rees_number(I_(CTX2, "x"), I_(CTX2, "x", "y"), I_(CTX2, "0"))


# -- d-sequences and Valabrega-Valla ----------------------------------------------


def test_d_sequence_examples():
    assert d_sequence_check([CTX2.var("x")], CTX2)
    assert d_sequence_check([CTX2.var("x"), CTX2.var("y")], CTX2)
    node = RingCtx("x,y,z", quotient=["x*z"])
    assert not d_sequence_check([node.var("x"), node.var("y")], node)
    assert d_sequence_check([node.var("y"), node.var("x")], node)
    assert d_sequence_check([node.var("x")], node)


def test_d_sequence_rejects_dependent_members():
    x = CTX2.var("x")
    assert not d_sequence_check([x, x ** 2], CTX2)
    with pytest.raises(PolyError, match="empty sequence"):
        d_sequence_check([], CTX2)


def test_vv_check_examples():
    x, y = CTX2.var("x"), CTX2.var("y")
    M = I_(CTX2, x, y)
    assert vv_check([x], M, 2)
    assert vv_check([], M, 5)
    I3 = I_(CTX2, x ** 3, y ** 3, x ** 2 * y)
    # the obstruction witness x^4*y^5 lies in (x^3) ∩ I3^3 but not x^3*I3^2
    assert not vv_check([x ** 3], I3, 2)
    I2 = I_(CTX2, x ** 2, y ** 2, x * y)
    assert vv_check([x ** 2], I2, 1)


# -- regularity --------------------------------------------------------------------


def test_reg_rees_exact_principal_cases():
    u, v = CUSP34.var("u"), CUSP34.var("v")
    out = reg_rees(I_(CUSP34, u, v), I_(CUSP34, u))
    assert out.value == 2 and "exact" in out.witness
    x = CTX2.var("x")
    out = reg_rees(I_(CTX2, x), I_(CTX2, x))
    assert out.value == 0


def test_reg_rees_t2_t3_curve():
    ctx = CUSP23
    u, v = ctx.var("u"), ctx.var("v")
    assert reduction_number(I_(ctx, u, v), I_(ctx, u)).value == 1
    out = reg_rees(I_(ctx, u, v), I_(ctx, u))
    assert out.value == 1


def test_reg_rees_requires_a_reduction():
    x, y = CTX2.var("x"), CTX2.var("y")
    with pytest.raises(PolyError, match="not a reduction"):
        reg_rees(I_(CTX2, x, y), I_(CTX2, x))


def test_reg_rees_exact_mode_for_two_generators():
    x, y = CTX2.var("x"), CTX2.var("y")
    M = I_(CTX2, x, y)
    out = reg_rees(M, M)
    assert out.value == 0 and "exact" in out.witness


def _filter_condition(I, seq, n):
    """[(x_1..x_{i-1})I^n : x_i] ∩ I^n = (x_1..x_{i-1})I^{n-1} for all i."""
    ctx = I.ctx
    In = ideal_power(I, n)
    for i in range(1, len(seq) + 1):
        Ji1 = Ideal(ctx, seq[:i - 1])
        lhs = ideal_intersect(
            ideal_colon(ideal_product(Ji1, In), Ideal(ctx, [seq[i - 1]])), In)
        rhs = ideal_product(Ji1, ideal_power(I, n - 1))
        if not ideal_equal(lhs, rhs):
            return False
    return True


def _window_reg(I, J, window):
    """The window route: the largest n in rn+1..rn+window at which the
    filter-regular condition fails, rn (by the power scan) when it holds
    throughout."""
    r = _power_scan(J, I, window)
    failing = [n for n in range(r + 1, r + window + 1)
               if not _filter_condition(I, J.gens, n)]
    return max(failing, default=r)


# Wang n = 2, 3 with J = I (reg 0) and (x^2, y^2, z^2, xy) with
# J = (x^2, y^2, z^2) (reg 1) agree as well, but their windows take
# 5-20 s each, so they are left out here.
@pytest.mark.parametrize("ctx, I, J", [
    (CTX2, "x^2, y^2, x*y", "x^2, y^2"),
    (CTX2, "x^3, y^3, x^2*y", "x^3, y^3"),
    (CTX2, "x^4, y^4, x^3*y", "x^4, y^4"),
    (CTX2, "x, y", "x, y"),
    (CTX2, "x^2, x*y, y^2", "x^2, y^2"),
    (CTX2, "x^3, x^2*y, x*y^2, y^3", "x^3, y^3"),
    (CUSP34, "u, v", "u"),
    (CUSP23, "u, v", "u"),
    (CTX3, "x, y, z", "x, y, z"),
    (NODE, "x, z", "x + z"),
    (NODE, "x, y, z", "y, x + z"),
    (NODE, "x, y, z", "x + z, y"),
    (CROSS, "x, y", "x + y"),
    # J = I with reg > rn = 0, from a seeded random draw
    (CUSP23, "u + 3*u*v, v - u*v", "u + 3*u*v, v - u*v"),
    (CUSP34, "v + 3*u^2*v^2, u - 3*v", "v + 3*u^2*v^2, u - 3*v"),
    (NODE, "x^2 + 3*y*z, x*y^2*z^2 + x^2", "x^2 + 3*y*z, x*y^2*z^2 + x^2"),
    # the top degree of (P_i : T_i)/P_i lies above its generators' degrees
    (ARTIN, "x^3, y, x^2", "x^3 + x^2"),
    (ARTIN2, "x*y^2, x, y", "x*y^2 + y, x, y"),
], ids=["huneke2", "huneke3", "huneke4", "m", "m2", "m3", "cusp34",
        "cusp23", "m-xyz", "node-x+z", "node-y,x+z", "node-x+z,y",
        "cross-x+y", "cusp23-reg1", "cusp34-reg2", "node-reg1",
        "artinian-reg2", "artinian-reg5"])
def test_reg_rees_matches_the_window_route(ctx, I, J):
    I, J = Ideal(ctx, I.split(", ")), Ideal(ctx, J.split(", "))
    out = reg_rees(I, J)
    assert out.value == _window_reg(I, J, 6) and "exact" in out.witness


def test_reg_rees_not_filter_regular():
    # (0 : y) ∩ I^n = (x^n) ≠ 0 in every degree, so no window settles it
    out = reg_rees(Ideal(CROSS, ["y", "x"]), Ideal(CROSS, ["y", "x"]))
    assert str(out) == "none(not filter-regular at y)"


def test_reg_rees_builds_one_presentation(built):
    # rn is read on J's generators as given, off the presentation the
    # filter-regular read needs anyway: R(I) on four T variables
    I = Ideal(CTX2, ["x^2", "x*y", "y^2"])
    J = I_(CTX2, "x^2", "y^2", "x^2*y^2")
    assert reg_rees(I, J).value == 1
    assert built == [4]
    assert reduction_number(I, J).value == 1


# -- the d-sequence reduction theorem -----------------------------------------------


def test_theorem_checker_on_principal_curve_reduction():
    u, v = CUSP34.var("u"), CUSP34.var("v")
    rep = check_d_sequence_reduction(I_(CUSP34, u, v), [u])
    assert rep.hypotheses_hold
    assert rep.rn.value == 2
    assert rep.rt == 3 and rep.rt_bound_ok
    assert rep.reg.value == 2 and rep.reg_equals_rn_ok


def test_theorem_checker_reports_huneke_iii_failure():
    x, y = CTX2.var("x"), CTX2.var("y")
    I = I_(CTX2, x ** 3, y ** 3, x ** 2 * y)
    rep = check_d_sequence_reduction(I, [x ** 3, y ** 3])
    assert rep.d_sequence_ok and rep.regular_sequence_ok
    assert not rep.intersection_ok
    assert rep.intersection_failures == [1]
    assert rep.rt is None  # no conclusion asserted when a hypothesis fails


def test_theorem_checker_on_regular_sequence():
    x, y = CTX2.var("x"), CTX2.var("y")
    M = I_(CTX2, x, y)
    rep = check_d_sequence_reduction(M, [x, y])
    assert rep.hypotheses_hold
    assert rep.rn.value == 0
    assert rep.rt == 1 and rep.rt_bound_ok
    assert rep.reg_equals_rn_ok

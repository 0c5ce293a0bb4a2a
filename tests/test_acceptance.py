"""End-to-end verification suite.

One test per criterion; each prints a single ``criterion N ...: PASS/FAIL``
line (run with ``pytest -s`` to see the lines as they complete).  Expected
values are exact integers or containments — zero tolerance throughout.
"""

import random

import reeskit.groebner as groebner_mod
from reeskit import (Ideal, RingCtx, artin_rees_number,
                     check_d_sequence_reduction, find_principal_reduction,
                     ideal_colon, ideal_intersect, ideal_member, ideal_power,
                     ideal_product, integral_degree_fraction, is_reduction,
                     monomial_curve, reduced_groebner, reduction_number,
                     reg_rees, relation_type, relation_type_2gen,
                     relation_type_mod)


def _report(num, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num} ({label}): {status}")
    for f in failures:
        print(f"    {f}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def _wang_model(n):
    ctx = RingCtx("x,y,z")
    x, y, z = (ctx.var(v) for v in "xyz")
    I = Ideal(ctx, [x ** n, y ** n, x ** (n - 1) * y + z ** n])
    return ctx, I, Ideal(ctx, [z]), Ideal(ctx, [x, y, z])


def test_criterion_1_huneke_family():
    failures = []
    ctx = RingCtx("x,y")
    x, y = ctx.var("x"), ctx.var("y")
    # n = 2: I = (x², xy, y²) = m², so (x²) ∩ I² = (x²) ∩ m⁴ = x²·m² = x²·I
    # and (iii) holds; the theorem then gives rt = 2 = rn + 1, reg = rn = 1.
    # n >= 3: w = (x^{n-1}y)^{n-1}·yⁿ = x^{(n-1)²}y^{2n-1} lies in (xⁿ) ∩ Iⁿ
    # but not in xⁿ·I^{n-1}: of degree n², it would be xⁿ times a product of
    # n-1 generators, and no such product has y-degree 2n-1.
    for n in range(2, 6):
        jgens = [x ** n, y ** n]
        I = Ideal(ctx, jgens + [x ** (n - 1) * y])
        rn = reduction_number(I, Ideal(ctx, jgens))
        if rn.value != n - 1:
            failures.append(f"n={n}: rn = {rn}, expected {n - 1}")
        rep = check_d_sequence_reduction(I, jgens)
        if n == 2:
            if not (rep.intersection_ok and rep.hypotheses_hold):
                failures.append(
                    f"n={n}: hypothesis (iii) reported failing where it "
                    f"holds (failures at i = {rep.intersection_failures})")
            elif not (rep.rt == 2 == rn.value + 1
                      and rep.reg.value == rn.value == 1):
                failures.append(
                    f"n={n}: conclusions rt = {rep.rt}, reg = {rep.reg}, "
                    "expected rt = 2 and reg = rn = 1")
            continue
        if rep.intersection_failures != [1]:
            failures.append(
                f"n={n}: hypothesis (iii) failure not reported at i = 1 "
                f"(failures at i = {rep.intersection_failures})")
        xn = Ideal(ctx, [x ** n])
        w = x ** ((n - 1) ** 2) * y ** (2 * n - 1)
        if not (ideal_member(w, xn) and ideal_member(w, ideal_power(I, n))
                and not ideal_member(
                    w, ideal_product(xn, ideal_power(I, n - 1)))):
            failures.append(
                f"n={n}: witness x^{(n - 1) ** 2}*y^{2 * n - 1} not "
                "separating (x^n) ∩ I^n from x^n*I^(n-1)")
    _report(1, "Huneke family: reduction numbers and hypothesis (iii)",
            failures)


def test_criterion_2_wang_family():
    failures = []
    for n in range(2, 5):
        ctx, I, a, m = _wang_model(n)
        rt = relation_type(I)
        if rt != 1:
            failures.append(f"n={n}: rt = {rt}, expected 1")
        ctx_mod = ctx.with_quotient([ctx.var("z")])
        I_mod = Ideal(ctx_mod, list(I.gens))
        rt_mod = relation_type_mod(I_mod, Ideal(ctx_mod, [ctx.zero]))
        if rt_mod != n:
            failures.append(f"n={n}: rt mod a = {rt_mod}, expected {n}")
        rt_fiber = relation_type_mod(I_mod, Ideal(ctx_mod, list(m.gens)))
        if rt_fiber != n:
            failures.append(f"n={n}: fiber rt = {rt_fiber}, expected {n}")
        ar = artin_rees_number(a, I, m)
        if ar.s_value.value != n:
            failures.append(f"n={n}: s = {ar.s_value}, expected {n}")
    _report(2, "Wang family: relation types and Artin-Rees numbers", failures)


def test_criterion_3_eisenbud_hochster_slices():
    failures = []
    ctx = RingCtx("x,y")
    x, y = ctx.var("x"), ctx.var("y")
    I = Ideal(ctx, [x, y])
    for n in range(2, 6):
        a = Ideal(ctx, [x ** n - y ** (n + 1)])
        lhs = ideal_intersect(ideal_power(I, n), a)
        rhs = ideal_product(I, ideal_intersect(ideal_power(I, n - 1), a))
        contained = all(ideal_member(g, lhs) for g in rhs.gb)
        strict = not all(ideal_member(g, rhs) for g in lhs.gb)
        if not (contained and strict):
            failures.append(f"n={n}: containment not strict")
        ar = artin_rees_number(a, I, Ideal(ctx, [ctx.zero]))
        if ar.s_value.value != n:
            failures.append(f"n={n}: s = {ar.s_value}, expected {n}")
    _report(3, "Eisenbud-Hochster slices: strict gaps and s = n", failures)


def test_criterion_4_triple_equality(curve_instances):
    failures = []
    assert len(curve_instances) >= 20
    for row in curve_instances:
        vals = (row["id"].value, row["rn"].value, row["rt"], row["oracle"])
        idv, rnv, rtv, oracle = vals
        if idv is None or rnv is None:
            failures.append(f"{row['label']}: no value {vals}")
            continue
        if not (idv == oracle and rnv + 1 == idv and rtv == idv):
            failures.append(
                f"{row['label']}: id={idv} rn={rnv} rt={rtv} oracle={oracle}")
    _report(4, "triple equality id = rn+1 = rt against the semigroup oracle",
            failures)


def test_criterion_5_inequality_suite(curve_instances):
    failures = []

    # relation-type sandwich for the Artin-Rees number, Wang models (J = m)
    for n in range(2, 5):
        ctx, I, a, m = _wang_model(n)
        ar = artin_rees_number(a, I, m)
        s = ar.s_value.value
        rt_mod_quot = ar.rt_bound
        rt_mod_amb = relation_type_mod(I, m)
        if not (s <= rt_mod_quot <= max(rt_mod_amb, s)):
            failures.append(
                f"wang n={n}: sandwich {s} <= {rt_mod_quot} <= "
                f"max({rt_mod_amb}, {s}) violated")

    # same sandwich with J = 0 on the Eisenbud-Hochster slices
    ctx = RingCtx("x,y")
    x, y = ctx.var("x"), ctx.var("y")
    I = Ideal(ctx, [x, y])
    zero = Ideal(ctx, [ctx.zero])
    for n in (2, 3):
        a = Ideal(ctx, [x ** n - y ** (n + 1)])
        ar = artin_rees_number(a, I, zero)
        s = ar.s_value.value
        rt_amb = relation_type(I)
        if not (s <= ar.rt_bound <= max(rt_amb, s)):
            failures.append(f"eh n={n}: sandwich violated")

    # rt_J <= rt, with equality for J contained in I
    ctx2 = RingCtx("x,y")
    x2, y2 = ctx2.var("x"), ctx2.var("y")
    V = Ideal(ctx2, [x2 ** 2, x2 * y2, y2 ** 2])
    m2 = Ideal(ctx2, [x2, y2])
    rtV = relation_type(V)
    if not relation_type_mod(V, m2) <= rtV:
        failures.append("veronese: rt_m > rt")
    for J in (V, Ideal(ctx2, [x2 ** 2])):
        if relation_type_mod(V, J) != rtV:
            failures.append("veronese: rt_J != rt for J contained in I")
    hun3 = Ideal(ctx2, [x2 ** 3, y2 ** 3, x2 ** 2 * y2])
    if not relation_type_mod(hun3, m2) <= relation_type(hun3):
        failures.append("huneke n=3: rt_m > rt")

    # monotonicity of the Artin-Rees number in J: (0) ⊆ m gives s_m <= s
    for n in (2, 3):
        ctxw, Iw, aw, mw = _wang_model(n)
        zw = Ideal(ctxw, [ctxw.zero])
        s_m = artin_rees_number(aw, Iw, mw).s_value.value
        s_0 = artin_rees_number(aw, Iw, zw).s_value.value
        if not s_m <= s_0:
            failures.append(f"wang n={n}: s_m > s")
        a_eh = Ideal(ctx, [x ** n - y ** (n + 1)])
        s_m_eh = artin_rees_number(a_eh, I, m2).s_value.value
        s_0_eh = artin_rees_number(a_eh, I, zero).s_value.value
        if not s_m_eh <= s_0_eh:
            failures.append(f"eh n={n}: s_m > s")

    # sub-multiplicativity of the integral degree on fraction pairs
    # (numerator, denominator)
    c34 = monomial_curve((3, 4), ("u", "v"))
    u, v = c34.var("u"), c34.var("v")
    pairs = [
        ((v, u), (v, u)),
        ((v, u), (u ** 2, v)),
        ((v, u), (u, c34.one)),
        ((u ** 2, v), (u ** 2, v)),
    ]
    for (n1, d1), (n2, d2) in pairs:
        id1 = integral_degree_fraction(n1, d1, c34).value
        id2 = integral_degree_fraction(n2, d2, c34).value
        idp = integral_degree_fraction(n1 * n2, d1 * d2, c34).value
        ids = integral_degree_fraction(n1 * d2 + n2 * d1, d1 * d2, c34).value
        if idp is None or idp > id1 * id2:
            failures.append(f"product degree {idp} exceeds {id1}*{id2}")
        if ids is None or ids > id1 * id2:
            failures.append(f"sum degree {ids} exceeds {id1}*{id2}")

    _report(5, "inequality suite: sandwich, modulo bounds, monotonicity, "
               "sub-multiplicativity", failures)


def test_criterion_6_theorem_consistency(curve_instances):
    failures = []
    for row in curve_instances:
        I = row["ideal"]
        hit = find_principal_reduction(I)
        if hit is None:
            failures.append(f"{row['label']}: no principal reduction found")
            continue
        g, rn = hit
        if row["rt"] > rn.value + 1:
            failures.append(f"{row['label']}: rt > rn + 1")
        reg = reg_rees(I, Ideal(I.ctx, [g]))
        if reg.value != rn.value:
            failures.append(f"{row['label']}: reg = {reg}, rn = {rn}")
        if row["id"].value != rn.value + 1:
            failures.append(f"{row['label']}: id != rn + 1")

    # distinct principal reductions must give equal values
    c23 = monomial_curve((2, 3), ("u", "v"))
    u, v = c23.var("u"), c23.var("v")
    I1 = Ideal(c23, [u, 2 * u, v])
    c456 = monomial_curve((4, 5, 6), ("a", "b", "c"))
    b2, ac = c456.var("b") ** 2, c456.var("a") * c456.var("c")
    I2 = Ideal(c456, [b2, ac])
    for label, I, gens, expected in [("(u, 2u, v)", I1, (u, 2 * u), 1),
                                     ("(b^2, ac)", I2, (b2, ac), 0)]:
        rns = [is_reduction(Ideal(I.ctx, [g]), I).value for g in gens]
        if rns != [expected] * 2:
            failures.append(f"principal reductions of {label}: rn = {rns}")
    _report(6, "principal-reduction consistency: rt <= rn+1, reg = rn, "
               "id = rn+1, independence", failures)


def test_criterion_7_kernel_oracle_properties():
    failures = []
    groebner_mod.SELF_CHECK = True
    try:
        # toric kernel, with every intermediate basis self-checked
        work = RingCtx("x,y")
        x, y = work.var("x"), work.var("y")
        toric = groebner_mod.eliminate_polys(
            work, lambda t, lift: [lift(x) - t**3, lift(y) - t**4])
        if [str(g) for g in toric] != ["x^4 - y^3"]:
            failures.append(f"toric kernel of (t^3, t^4) is {toric.elements}")

        # corpus bases recomputed under the self-check flag
        ctx = RingCtx("x,y")
        x, y = ctx.var("x"), ctx.var("y")
        corpus_ideals = [
            [x ** 2, y ** 2, x * y],
            [x ** 3, y ** 3, x ** 2 * y],
            [x ** 3 - y ** 4, x * y],
            [ctx.parse("x^2 - y"), ctx.parse("x*y - 1")],
        ]
        rng = random.Random(94)
        for gens in corpus_ideals:
            reference = reduced_groebner(gens, ctx=ctx).elements
            for _ in range(10):
                shuffled = list(gens)
                rng.shuffle(shuffled)
                groebner_mod._buchberger.cache_clear()  # Buchberger, not memo
                if reduced_groebner(shuffled, ctx=ctx).elements != reference:
                    failures.append(f"shuffle changed the basis of {gens}")
                    break

        # random small ideal pairs: colon and intersection containments
        ctx3 = RingCtx("x,y,z")
        pool2 = [ctx.parse(s) for s in
                 ("x", "y", "x + y", "x*y", "x^2 - y", "y^2", "x^2 + y^2",
                  "x^3 - 1", "x*y - 1")]
        pool3 = [ctx3.parse(s) for s in
                 ("x", "y", "z", "x*z - y", "y^2 - x*z", "x + y + z", "x*y*z")]
        checked = 0
        for trial in range(100):
            ring_pool, ring_ctx = (pool2, ctx) if trial % 2 else (pool3, ctx3)
            I = Ideal(ring_ctx, rng.sample(ring_pool, rng.randint(1, 3)))
            J = Ideal(ring_ctx, rng.sample(ring_pool, rng.randint(1, 2)))
            C = ideal_colon(I, J)
            for g in ideal_product(C, J).gens:
                if not ideal_member(g, I):
                    failures.append(f"trial {trial}: (I:J)*J not in I")
            M = ideal_intersect(I, J)
            for g in ideal_product(I, J).gens:
                if not ideal_member(g, M):
                    failures.append(f"trial {trial}: I*J not in I∩J")
            for g in M.gens:
                if not (ideal_member(g, I) and ideal_member(g, J)):
                    failures.append(f"trial {trial}: I∩J not in I, J")
            checked += 1
        if checked != 100:
            failures.append("fewer than 100 random pairs checked")
    finally:
        groebner_mod.SELF_CHECK = False
    _report(7, "kernel oracle: self-checks, uniqueness, containments, toric "
               "kernel", failures)


def test_criterion_8_veronese_relation_type():
    failures = []
    ctx = RingCtx("x,y")
    x, y = ctx.var("x"), ctx.var("y")
    V = Ideal(ctx, [x ** 2, x * y, y ** 2])
    rt = relation_type(V)
    if rt != 2:
        failures.append(f"rt = {rt}, expected 2")
    # chart-route cross-checks on two-generated sub-ideals and on a
    # two-generated instance where the relation type is visible both ways
    for xx, yy, expected in [(x ** 2, x * y, 1), (x ** 2, y ** 2, 1)]:
        general = relation_type(Ideal(ctx, [xx, yy]))
        chart = relation_type_2gen(xx, yy, ctx)
        if not (general == chart == expected):
            failures.append(
                f"two-route mismatch on ({xx}, {yy}): {general} vs {chart}")
    c34 = monomial_curve((3, 4), ("u", "v"))
    u, v = c34.var("u"), c34.var("v")
    chart = relation_type_2gen(u, v, c34)
    if not (chart == relation_type(Ideal(c34, [u, v])) == 3):
        failures.append("chart route disagrees with degree analysis on (u, v)")
    _report(8, "Veronese relation type via both routes", failures)

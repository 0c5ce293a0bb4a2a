"""Polynomial arithmetic, monomial orders, parser/printer round trips."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from reeskit import (DegRevLex, Lex, ParseError, PolyError, RingCtx,
                     Weighted, parse_poly)
from reeskit.poly import MAX_EXPONENT, compile_monomials, compile_order

CTX3 = RingCtx("x,y,z")
CTX2 = RingCtx("x,y")


# -- rational coefficients ----------------------------------------------------


def test_rational_normal_form():
    assert Fraction(6, 4) == Fraction(3, 2)
    assert Fraction(6, 4).denominator == 2
    assert Fraction(0, 7) == Fraction(0, 1)
    assert Fraction(1, -2).denominator == 2
    assert Fraction(1, -2).numerator == -1


# -- parsing -------------------------------------------------------------------


def test_parse_basic_terms():
    p = parse_poly("x^2*y - 3/2*z", CTX3)
    assert p.terms == {(2, 1, 0): Fraction(1), (0, 0, 1): Fraction(-3, 2)}


def test_parse_zero():
    assert parse_poly("0", CTX3).is_zero
    assert parse_poly("x - x", CTX3).is_zero


def test_parse_negative_exponent_rejected():
    with pytest.raises(ParseError, match="negative exponent"):
        parse_poly("x^(-1)", CTX3)
    with pytest.raises(ParseError, match="negative exponent"):
        parse_poly("x^-1", CTX3)


def test_parse_non_integer_exponent_rejected():
    with pytest.raises(ParseError, match="non-integer exponent"):
        parse_poly("x^1/2", CTX3)


@pytest.mark.parametrize("exponent", [1.5, "2", True])
def test_poly_rejects_non_integer_exponents(exponent):
    with pytest.raises(PolyError, match="non-integer exponent"):
        CTX2.poly({(exponent, 0): 1})


def test_parse_unknown_variable():
    with pytest.raises(ParseError, match="unknown variable 'w'"):
        parse_poly("x + w", CTX3)


def test_parse_syntax_error_carries_position():
    cases = [("x + + y", "expected a term", 4),
             ("x # y", "unexpected character '#'", 2),
             ("x 2", "expected '+' or '-' between terms", 2),
             ("1/x", "expected an integer denominator", 2),
             ("1/0", "zero denominator", 3),
             ("x*2", "expected a variable after '*'", 2),
             ("x^y", "expected a non-negative integer exponent", 2),
             ("x^(2", "expected ')'", 4)]
    for text, message, pos in cases:
        with pytest.raises(ParseError) as err:
            parse_poly(text, CTX3)
        assert err.value.pos == pos
        assert str(err.value) == f"{message} at position {pos} in {text!r}"


def test_parse_implicit_multiplication_and_signs():
    assert parse_poly("3x^2y", CTX3) == parse_poly("3*x^2*y", CTX3)
    assert parse_poly("-x + y", CTX3) == parse_poly("y - x", CTX3)
    assert parse_poly("2/3", CTX3) == CTX3.const(Fraction(2, 3))


def test_parse_adds_like_terms_into_one_map():
    assert parse_poly("x + x - 2*x", CTX3).is_zero
    assert parse_poly("-x^2 + x^2", CTX3).is_zero
    p = parse_poly("x*y + 3/2*y*x", CTX3)
    assert p.terms == {(1, 1, 0): Fraction(5, 2)} and str(p) == "5/2*x*y"
    assert parse_poly("0*x + y", CTX3) == CTX3.var("y")
    assert parse_poly("2/4*x", CTX3).terms == {(1, 0, 0): Fraction(1, 2)}
    # integer coefficients are kept as ints only while parsing
    for text in ("x + 2*y - 3", "2/4*x + 1/2*x", "1/3 + 2/3"):
        assert all(type(c) is Fraction
                   for c in parse_poly(text, CTX3).terms.values())


def test_parse_leading_plus_rejected():
    with pytest.raises(ParseError):
        parse_poly("+x", CTX3)


# -- printing ------------------------------------------------------------------


def test_print_canonical_order_and_format():
    p = parse_poly("y + x^2 - 3/2", CTX2)
    assert str(p) == "x^2 + y - 3/2"
    assert str(CTX2.zero) == "0"
    assert str(parse_poly("-x", CTX2)) == "-x"
    assert str(parse_poly("x*y - y^2", CTX2)) == "x*y - y^2"


def test_print_pins_each_coefficient_form():
    for text in ("-3/2*x*y + y", "x - y", "1", "-1", "-3/2", "x + 1",
                 "x - 1", "x - 3/2", "-x*y^2 + 3/2*x - 2*y + 1/2"):
        assert str(parse_poly(text, CTX2)) == text


def _fraction_printer(p):
    """The printer as it read coefficients through ``Fraction``
    arithmetic: the oracle of :func:`poly_str`."""
    if p.is_zero:
        return "0"
    pieces = []
    for i, (exps, c) in enumerate(p.sorted_terms):
        mono = "*".join(name if e == 1 else f"{name}^{e}"
                        for name, e in zip(p.ctx.vars, exps) if e)
        a = abs(c)
        if not mono:
            body = str(a)
        elif a == 1:
            body = mono
        else:
            body = f"{a}*{mono}"
        if i == 0:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append((" + " if c > 0 else " - ") + body)
    return "".join(pieces)


@st.composite
def small_polys(draw, ctx=CTX3):
    n = len(ctx.vars)
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        exps = tuple(draw(st.integers(0, 4)) for _ in range(n))
        coeff = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        if coeff:
            terms[exps] = coeff
    return ctx.poly(terms)


@given(small_polys())
@settings(max_examples=80, deadline=None)
def test_print_parse_round_trip(p):
    text = str(p)
    q = parse_poly(text, CTX3)
    assert q == p
    assert str(q) == text


@given(small_polys())
@settings(max_examples=80, deadline=None)
def test_print_equals_the_fraction_printer(p):
    assert str(p) == _fraction_printer(p)


# -- arithmetic ------------------------------------------------------------------


def test_mul_examples():
    x, y = CTX2.var("x"), CTX2.var("y")
    assert (x + y) * (x - y) == x ** 2 - y ** 2
    assert (x + y) * CTX2.zero == CTX2.zero
    assert (x + y) ** 2 == x ** 2 + 2 * x * y + y ** 2


def test_pow_examples():
    x = CTX2.var("x")
    assert CTX2.zero ** 0 == CTX2.one
    assert (x + 1) ** 2 == x ** 2 + 2 * x + 1
    assert x ** 5 == CTX2.poly({(5, 0): 1})
    with pytest.raises(PolyError):
        x ** -1


def test_mismatched_contexts_rejected():
    with pytest.raises(PolyError, match="mismatched ring contexts"):
        CTX2.var("x") * CTX3.var("x")


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h


def test_canonical_uniqueness():
    p = parse_poly("x + y", CTX2)
    q = parse_poly("y + x", CTX2)
    assert p == q and p.terms == q.terms


# -- monomial orders ---------------------------------------------------------------

def _degrevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _nested_degree(weights, exps):
    return sum(w * e for w, e in zip(weights, exps))


def _nested_key(order):
    """Reference key of ``order`` as each class computed it before orders
    compiled to flat keys: a Weighted layer nests its degree over the key
    of its inner order."""
    if isinstance(order, Weighted):
        inner = _nested_key(order.inner)
        return lambda e: (_nested_degree(order.weights, e), inner(e))
    if isinstance(order, DegRevLex):
        return _degrevlex_key
    return tuple


def _elimination_key(block):
    """Reference key of the block elimination order: degrevlex on the
    first ``block`` variables, ties broken by degrevlex on the rest."""
    return lambda e: (_degrevlex_key(e[:block]), _degrevlex_key(e[block:]))


def _tgraded_key(tcount, inner=_degrevlex_key):
    """Reference key of the T-graded order: total degree in the trailing
    ``tcount`` variables, ties broken by ``inner``."""
    return lambda e: (sum(e[len(e) - tcount:]), inner(e))


ALL_ORDERS = [Lex(), DegRevLex(),
              pytest.param(Weighted((1, 0, 0)), id="elim(1)"),
              pytest.param(Weighted((0, 1, 1)), id="tgraded(2;degrevlex)")]


def _random_exps(rng, n=3, hi=6):
    return tuple(rng.randrange(hi) for _ in range(n))


@pytest.mark.parametrize("order", ALL_ORDERS, ids=lambda o: o.tag)
def test_order_axioms(order):
    rng = random.Random(20240 + len(order.tag))
    key = order.key
    for _ in range(1000):
        u, v = _random_exps(rng), _random_exps(rng)
        # antisymmetry / totality
        assert (key(u) < key(v)) + (key(v) < key(u)) + (u == v) == 1 or u == v
        # multiplicativity
        w = _random_exps(rng)
        if key(u) < key(v):
            uw = tuple(a + b for a, b in zip(u, w))
            vw = tuple(a + b for a, b in zip(v, w))
            assert key(uw) < key(vw)
    for _ in range(300):
        u, v, w = (_random_exps(rng) for _ in range(3))
        if key(u) < key(v) and key(v) < key(w):
            assert key(u) < key(w)
    # 1 is minimal (well-order over a fixed degree bound)
    one = (0, 0, 0)
    for _ in range(200):
        u = _random_exps(rng)
        assert not key(u) < key(one)


def test_degrevlex_classic_comparison():
    key = DegRevLex().key
    # x*y^2 > x^2*z in degrevlex with x > y > z
    assert key((1, 2, 0)) > key((2, 0, 1))


def test_elimination_block_dominates():
    key = Weighted((1, 0, 0)).key
    rng = random.Random(7)
    for _ in range(200):
        u = (rng.randrange(1, 4),) + _random_exps(rng, 2)
        v = (0,) + _random_exps(rng, 2, hi=9)
        assert key(u) > key(v)


def test_tgraded_compares_trailing_block_first():
    key = Weighted((0, 1, 1)).key
    # monomial with higher T-degree always wins, regardless of x-part
    assert key((9, 1, 0)) < key((0, 1, 1))
    assert key((0, 2, 0)) == key((0, 2, 0))


def test_order_equality_by_tag():
    assert Weighted((1, 1, 0)) == Weighted((1, 1, 0))
    assert Weighted((1, 1, 0)) != Weighted((1, 0, 0))
    assert Weighted((0, 1, 1)) == Weighted((0, 1, 1), DegRevLex())
    assert Weighted((0, 1, 1)) != Weighted((0, 1, 1), Weighted((0, 0, 1)))


def _cmp(key, u, v):
    return (key(u) > key(v)) - (key(u) < key(v))


@st.composite
def _exps_pairs(draw):
    n = draw(st.integers(3, 6))
    vec = st.tuples(*[st.integers(0, 3)] * n)
    return draw(vec), draw(vec), draw(st.integers(0, n))


@given(_exps_pairs())
@settings(max_examples=300, deadline=None)
def test_weighted_orders_pairs_as_the_reference_keys(case):
    u, v, m = case
    n = len(u)
    tweights = (0,) * (n - m) + (1,) * m
    pairs = [(Weighted((1,) + (0,) * (n - 1)), _elimination_key(1)),
             (Weighted(tweights), _tgraded_key(m))]
    for i in range(m):  # the filter-regular order of the i-th generator
        later = (0,) * (n - m + i + 1) + (1,) * (m - i - 1)
        pairs.append((Weighted(tweights, Weighted(later)),
                      _tgraded_key(m, _tgraded_key(m - i - 1))))
    for order, oracle in pairs:
        assert _cmp(order.key, u, v) == _cmp(oracle, u, v)


@given(_exps_pairs())
@settings(max_examples=300, deadline=None)
def test_block_weight_eliminates_like_the_block_order(case):
    # equal on monomials that agree on the block or differ in its degree,
    # so both eliminate the block and restrict to degrevlex on the rest
    u, v, k = case
    if sum(u[:k]) == sum(v[:k]) and u[:k] != v[:k]:
        v = u[:k] + v[k:]
    block = Weighted((1,) * k + (0,) * (len(u) - k))
    assert _cmp(block.key, u, v) == _cmp(_elimination_key(k), u, v)


def test_weighted_rejects_negative_weights():
    with pytest.raises(ValueError, match="non-negative"):
        Weighted((-1, 0), DegRevLex())


def test_ring_rejects_weights_of_the_wrong_length():
    with pytest.raises(ValueError, match="needs 3 weights"):
        RingCtx("x,y,z", Weighted((1,), DegRevLex()))
    with pytest.raises(ValueError, match="needs 3 weights"):
        RingCtx("x,y,z", Weighted((1, 0, 0), Weighted((1,), DegRevLex())))


def test_weighted_degree():
    order = Weighted((0, 2, 1))
    assert order.degree((5, 1, 3)) == 5
    # weights-degree first, then degrevlex: (5, 1, 3) beats every monomial
    # of lower weight and loses to every one of higher weight
    nested = lambda e: (order.degree(e), DegRevLex().key(e))
    rng = random.Random(5)
    for _ in range(200):
        v = _random_exps(rng)
        assert _cmp(order.key, (5, 1, 3), v) == _cmp(nested, (5, 1, 3), v)


@st.composite
def _orders_and_monomials(draw):
    """A nested Weighted chain of depth 0-4 (weights 0-3) on 1-6 variables
    over a DegRevLex or Lex tail, and distinct exponent tuples."""
    n = draw(st.integers(1, 6))
    order = draw(st.sampled_from([DegRevLex(), Lex()]))
    for _ in range(draw(st.integers(0, 4))):
        order = Weighted(draw(st.tuples(*[st.integers(0, 3)] * n)), order)
    monomials = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n),
                              min_size=2, max_size=12, unique=True))
    return order, monomials


@given(_orders_and_monomials())
@settings(max_examples=300, deadline=None)
def test_compiled_kernels_order_as_the_nested_keys(case):
    order, monomials = case
    kernels = compile_order(order, len(monomials[0]))
    reference = sorted(monomials, key=_nested_key(order))
    assert sorted(monomials, key=kernels.key) == reference
    assert sorted(monomials, key=order.key) == reference
    assert sorted(monomials, key=kernels.descending) == reference[::-1]
    if isinstance(order, Weighted):
        for e in monomials:
            assert kernels.degree(e) == order.degree(e) == \
                _nested_degree(order.weights, e)
    else:
        assert kernels.degree is None


def test_ring_holds_its_compiled_kernels():
    order = Weighted((1, 0, 2), Lex())
    ring = RingCtx("x,y,z", order)
    assert ring.kernels is compile_order(Weighted((1, 0, 2), Lex()), 3)
    assert ring.kernels.key((1, 1, 0)) == order.key((1, 1, 0))
    # the monomial arithmetic does not depend on the order
    assert ring.kernels.monomials is compile_monomials(3)
    assert RingCtx("x,y,z", Lex()).kernels.monomials is compile_monomials(3)


@st.composite
def _exponent_pairs(draw):
    """Two exponent tuples on 1-9 variables, entries 0-5 and a few as
    large as ``MAX_EXPONENT``."""
    n = draw(st.integers(1, 9))
    entry = st.integers(0, 5) | st.sampled_from([MAX_EXPONENT - 1,
                                                 MAX_EXPONENT])
    return draw(st.tuples(*[entry] * n)), draw(st.tuples(*[entry] * n))


@given(_exponent_pairs())
@settings(max_examples=200, deadline=None)
def test_monomial_kernels_equal_the_plain_definitions(pair):
    a, b = pair
    kernels = compile_monomials(len(a))
    product = tuple(map(operator.add, a, b))
    assert kernels.divides(a, b) == all(map(operator.le, a, b))
    assert kernels.divides(a, a) and kernels.divides(a, product)
    assert kernels.lcm(a, b) == tuple(map(max, a, b))
    assert kernels.mul(a, b) == product
    assert kernels.quotient(product, a) == tuple(
        map(operator.sub, product, a)) == b
    assert kernels.mask(a) == sum(1 << i for i, x in enumerate(a) if x)


@pytest.mark.parametrize("weights", [(0.5, 1), (1.0, 1), (True, 0),
                                     (1, False), ("1", 0)])
def test_weighted_accepts_only_non_negative_int_weights(weights):
    with pytest.raises(ValueError, match="non-negative integers"):
        Weighted(weights)

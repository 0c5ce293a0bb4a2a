"""Exact sparse multivariate polynomials over Q.

Coefficients are ``fractions.Fraction`` values (always in lowest terms,
positive denominator, zero is 0/1); no floating point appears anywhere.
Monomials are exponent tuples owned by a :class:`RingCtx`; a polynomial
is an immutable map monomial -> coefficient with no zero entries, whose
terms iterate in strictly decreasing order of the ring's monomial order.

The module also provides the monomial orders used by the rest of the
package (lex, degrevlex, and weighted: a non-negative integer weight
vector refined by another order, which covers elimination and
T-grading) and the text parser/printer for polynomial expressions.
Every order is a matrix order (Robbiano, EUROCAL 1985): weight rows,
then a lex or degrevlex tail.  :func:`compile_order` turns the rows into
flat key kernels once per order and number of variables, and
:func:`compile_monomials` the monomial arithmetic (divisibility, lcm,
product, quotient, support mask) once per number of variables, for every
order: generated source of integer weights and indices, evaluated the
way ``collections.namedtuple`` builds its methods.  Closures over the
rows cost a loop per key, nested keys a call and a tuple per layer.

Grammar (ASCII, whitespace insignificant)::

    poly  := '-'? term (('+'|'-') term)*
    term  := coeff? ('*'? var ('^' uint)?)*
    coeff := uint | uint '/' uint
    var   := [A-Za-z][A-Za-z0-9_]*

The parser adds the terms into one map, monomial -> int or ``Fraction``,
and builds one polynomial from it.  Printing emits terms in decreasing
order of the active monomial order, coefficients in lowest terms with
``p/q`` notation read off their numerator and denominator, and no unary
``+``; ``parse(print(f)) == f`` for every polynomial ``f``.
"""

from __future__ import annotations

import collections
import functools
import math
import re
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

# Exponents are checked against this bound on every product; corpus
# degrees are tiny, so hitting it means a runaway computation.
MAX_EXPONENT = 1 << 30


class PolyError(Exception):
    """Arithmetic, context, or resource error on polynomial data."""


class ParseError(PolyError):
    """Syntax error in a polynomial expression; carries the position."""

    def __init__(self, message: str, text: str, pos: int):
        super().__init__(f"{message} at position {pos} in {text!r}")
        self.message = message
        self.text = text
        self.pos = pos


class Record:
    """Base of the package's records: named fields in ``__slots__``, set
    by ``__init__`` and immutable by convention unless the record says
    otherwise.  As a dataclass, a record equals only a record of its own
    class with equal fields, hashes by them (a mutable one sets
    ``__hash__ = None``) and prints them; :meth:`_values` may leave out
    trailing slots that hold no field."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"


# ---------------------------------------------------------------------------
# monomial orders


class MonomialOrder:
    """Total, multiplicative well-order on exponent vectors, given by the
    integer rows of :meth:`_matrix`; ``key(u) < key(v)`` iff the
    monomial ``u`` precedes ``v``.  Orders compare equal by their ``tag``.
    """

    tag = "?"

    def key(self, exps):
        return compile_order(self, len(exps)).key(exps)

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.tag == other.tag

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return self.tag


class Lex(MonomialOrder):
    tag = "lex"

    def _matrix(self, n):
        return [tuple(int(i == j) for j in range(n)) for i in range(n)]


class DegRevLex(MonomialOrder):
    tag = "degrevlex"

    def _matrix(self, n):
        return [(1,) * n] + [tuple(-w for w in row)
                             for row in reversed(Lex()._matrix(n))]


class Weighted(MonomialOrder):
    """Compares by the ``weights``-degree first, then by ``inner``
    (degrevlex by default).  The weights are non-negative integers: a
    well-order, and source text for :func:`compile_order`.  Weight 1 on a
    block of variables eliminates it, and on the T-block grades a Rees
    presentation by T-degree; reductions of homogeneous input stay so."""

    def __init__(self, weights, inner: MonomialOrder | None = None):
        self.weights = tuple(weights)
        if not all(type(w) is int and w >= 0 for w in self.weights):
            raise ValueError("weights must be non-negative integers")
        self.inner = inner if inner is not None else DegRevLex()
        self.tag = f"weighted({self.weights};{self.inner.tag})"

    def _matrix(self, n):
        if len(self.weights) != n:
            raise ValueError(f"{self!r} needs {n} weights")
        return [self.weights] + self.inner._matrix(n)

    def degree(self, exps) -> int:
        return compile_order(self, len(exps)).degree(exps)


OrderKernels = collections.namedtuple("OrderKernels",
                                      "key descending degree monomials rows")
MonomialKernels = collections.namedtuple("MonomialKernels",
                                         "divides lcm mul quotient mask")


def _dot(row) -> str:
    """Source of row·e for an integer ``row`` whose entries share a sign."""
    if min(row, default=0) < 0:
        return f"-({_dot(tuple(-w for w in row))})"
    return "+".join(f"{w}*e[{i}]" if w != 1 else f"e[{i}]"
                    for i, w in enumerate(row) if w) or "0"


def _lambda(body: str, args: str = "e"):
    return eval(f"lambda {args}: {body}", {"__builtins__": {}})


@functools.lru_cache(maxsize=256)
def compile_order(order: MonomialOrder, n: int) -> OrderKernels:
    """The kernels of ``order`` on n variables: ``key``, the flat tuple of
    dot products with the matrix rows (repeated and zero rows dropped);
    ``descending``, its negation, so a min-heap pops the leading monomial
    first; ``degree``, the first row of a :class:`Weighted` order (None
    for the others); ``monomials``, :func:`compile_monomials` (n); and
    ``rows``, the matrix rows that the key reads."""
    rows = _key_rows(order._matrix(n))
    negated = [tuple(-w for w in r) for r in rows]
    return OrderKernels(
        _lambda("(" + "".join(_dot(r) + ", " for r in rows) + ")"),
        _lambda("(" + "".join(_dot(r) + ", " for r in negated) + ")"),
        _lambda(_dot(order.weights)) if isinstance(order, Weighted) else None,
        compile_monomials(n), rows)


def _key_rows(matrix) -> tuple:
    """The rows of ``matrix`` that change a key comparison: zero and
    repeated rows dropped."""
    return tuple(r for r in dict.fromkeys(matrix) if any(r))


@functools.cache
def compile_monomials(n: int) -> MonomialKernels:
    """The monomial arithmetic of n variables, generated like the
    :func:`compile_order` kernels: ``divides(a, b)``, ``lcm``, ``mul``,
    ``quotient(m, d)`` for d | m, and ``mask(e)``, bit i for variable i."""
    def each(form, sep):
        return sep.join(form.format(i, 1 << i) for i in range(n))
    return MonomialKernels(
        _lambda(each("a[{0}] <= b[{0}]", " and ") or "True", "a, b"),
        _lambda(f"({each('a[{0}] if a[{0}] > b[{0}] else b[{0}], ', '')})",
                "a, b"),
        _lambda(f"({each('a[{0}] + b[{0}], ', '')})", "a, b"),
        _lambda(f"({each('m[{0}] - d[{0}], ', '')})", "m, d"),
        _lambda(each("(e[{0}] and {1})", " | ") or "0"))


ORDERS = {"lex": Lex(), "degrevlex": DegRevLex()}


# ---------------------------------------------------------------------------
# ring contexts

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class RingCtx:
    """Q[vars] with a monomial order, optionally modulo a quotient ideal.

    With ``quotient`` generators g1, ..., gk the context represents the
    ring Q[vars]/(g1, ..., gk); all computations happen on preimages in
    the ambient polynomial ring.  Contexts are immutable.  ``is_domain``
    marks a prime quotient, set only by :func:`corpus.monomial_curve`;
    equality and hashing ignore it, as the quotient implies it.  The
    order's :func:`compile_order` kernels are ``kernels``.

    ``known``, a prefix of ``quotient``, is a reduced Gröbner basis of
    its ideal under ``order`` (the mark; equality and hashing ignore it
    too): all of a ``quotient`` given as a
    :class:`~reeskit.groebner.GroebnerBasis` of this polynomial ring.
    :meth:`with_quotient` keeps it, as it still is a basis of the ideal
    it generates; :meth:`with_order` to another order drops it;
    :meth:`extended` keeps it where the larger ring's order agrees with
    ``order``.  Gröbner runs start from it instead of deriving it
    again.  A ring holds what is derived from it alone (:meth:`derived`):
    rings, the T names and rings of its Rees presentations, and the
    :class:`~reeskit.groebner.GroebnerBasis` of a fully marked quotient,
    which is the mark itself.  None of it is Gröbner state, so it, its
    polynomials and their reducer forms are built once."""

    __slots__ = ("vars", "order", "kernels", "quotient", "is_domain",
                 "known", "_index", "_ambient", "_derived")

    def __init__(self, vars, order: MonomialOrder | None = None,
                 quotient=None, _internal: bool = False, _domain: bool = False,
                 _known: int = 0):
        if isinstance(vars, str):
            vars = tuple(v.strip() for v in vars.split(",") if v.strip())
        vars = tuple(vars)
        if not vars:
            raise ValueError("a ring context needs at least one variable")
        if not _internal:
            for v in vars:
                if not _NAME_RE.match(v):
                    raise ValueError(f"invalid variable name {v!r}")
        if len(set(vars)) != len(vars):
            raise ValueError("duplicate variable names")
        self.vars = vars
        self.order = order if order is not None else DegRevLex()
        self.is_domain = _domain
        self.kernels = compile_order(self.order, len(vars))  # checks weights
        self._index = {v: i for i, v in enumerate(vars)}
        if quotient:
            self._ambient = RingCtx(vars, self.order, _internal=_internal)
            gens = []
            for g in quotient:
                p = self._ambient.coerce(g)
                if not p.is_zero:
                    gens.append(p)
            self.quotient = tuple(gens)
            ring = getattr(quotient, "ctx", None)  # a GroebnerBasis's
            if ring is not None and ring.same_poly_ring(self):
                _known = len(gens)
        else:
            self._ambient = self
            self.quotient = ()
        self.known = self.quotient[:_known]
        self._derived = {}

    # -- identity ----------------------------------------------------------

    @property
    def ambient(self) -> "RingCtx":
        """The underlying polynomial ring (self when no quotient)."""
        return self._ambient

    @property
    def is_quotient(self) -> bool:
        return bool(self.quotient)

    def _full_key(self):
        qk = tuple(sorted(tuple(sorted(g.terms.items())) for g in self.quotient))
        return (self.vars, self.order.tag, qk)

    def same_poly_ring(self, other: "RingCtx") -> bool:
        return self is other or (self.vars == other.vars
                                 and self.order.tag == other.order.tag)

    def __eq__(self, other):
        if not isinstance(other, RingCtx):
            return NotImplemented
        return self is other or self._full_key() == other._full_key()

    def __hash__(self):
        return hash((self.vars, self.order.tag, len(self.quotient)))

    def __repr__(self):
        base = f"Q[{','.join(self.vars)}]"
        if self.quotient:
            return base + "/(" + ", ".join(str(g) for g in self.quotient) + ")"
        return base

    # -- construction helpers ----------------------------------------------

    def with_quotient(self, gens) -> "RingCtx":
        """This ring modulo the additional generators ``gens``; the marked
        basis stays marked."""
        allgens = list(self.quotient) + [self._ambient.coerce(g) for g in gens]
        return RingCtx(self.vars, self.order, quotient=allgens, _internal=True,
                       _known=len(self.known))

    def with_order(self, order: MonomialOrder) -> "RingCtx":
        """This ring under ``order``; another order drops the marked basis."""
        if order == self.order:
            return self
        return RingCtx(self.vars, order, quotient=self.quotient or None,
                       _internal=True, _domain=self.is_domain)

    def derived(self, key, build):
        """``build()`` the first time ``key`` is asked for, then the same
        value, held on this ring: equality ignores the mark, which a
        derived ring inherits, so no cache keyed by ring may hold it."""
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    def extended(self, names, order: MonomialOrder) -> "RingCtx":
        """Q[vars, names] under ``order`` modulo this ring's quotient, the
        same ring each time (:meth:`derived`).  The marked basis stays
        marked where ``order`` compares this ring's monomials as this
        ring's order does (the key rows of :func:`compile_order`, cut to
        those columns, are this ring's), so that it stays a Gröbner basis
        there: on every degrevlex ring graded by the new variables, not on
        a lex one."""
        def build():
            ext = RingCtx(self.vars + tuple(names), order, _internal=True)
            n = len(self.vars)
            agrees = (self.kernels.rows
                      == _key_rows(r[:n] for r in ext.kernels.rows))
            return RingCtx(ext.vars, order,
                           [embed(q, ext, range(n)) for q in self.quotient],
                           _internal=True,
                           _known=len(self.known) if agrees else 0)
        return self.derived((tuple(names), order), build)

    # -- element constructors -----------------------------------------------

    def poly(self, terms) -> "Poly":
        """Polynomial from a mapping exponent-tuple -> coefficient."""
        return Poly(self._ambient, terms)

    @property
    def zero(self) -> "Poly":
        return Poly(self._ambient, {}, _trust=True)

    @property
    def one(self) -> "Poly":
        return self.const(1)

    def const(self, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return self.zero
        n = len(self.vars)
        return Poly(self._ambient, {(0,) * n: c}, _trust=True)

    def var(self, name: str) -> "Poly":
        i = self._index.get(name)
        if i is None:
            raise PolyError(f"unknown variable {name!r} in {self!r}")
        exps = [0] * len(self.vars)
        exps[i] = 1
        return Poly(self._ambient, {tuple(exps): ONE}, _trust=True)

    def parse(self, text: str) -> "Poly":
        return parse_poly(text, self)

    def coerce(self, obj) -> "Poly":
        """Accept a Poly over the same variables, a string, or a scalar."""
        if isinstance(obj, Poly):
            return obj.in_ctx(self._ambient)
        if isinstance(obj, str):
            return self.parse(obj)
        if isinstance(obj, (int, Fraction)):
            return self.const(obj)
        raise PolyError(f"cannot interpret {obj!r} as a polynomial")


def _primitive_form(terms, mask) -> tuple:
    """``(lead, lc, tail, mask(lead))`` of the nonzero integer ``terms``, a
    list of (monomial, coefficient) in decreasing order, divided by their
    content and by the sign that makes ``lc > 0``."""
    lead, lc = terms[0]
    g = math.gcd(*(c for _, c in terms))
    if lc < 0:
        g = -g
    return (lead, lc // g, tuple((e, c // g) for e, c in terms[1:]),
            mask(lead))


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Canonical sparse polynomial bound to the ambient ring of a context."""

    __slots__ = ("ctx", "terms", "_sorted", "_reducer", "_hash")

    def __init__(self, ctx: RingCtx, terms, _trust: bool = False):
        ctx = ctx.ambient
        if not _trust:
            n = len(ctx.vars)
            clean = {}
            for exps, c in dict(terms).items():
                exps = tuple(exps)
                if len(exps) != n:
                    raise PolyError("exponent vector length mismatch")
                if not all(type(e) is int for e in exps):
                    raise PolyError("non-integer exponent")
                if any(e < 0 for e in exps):
                    raise PolyError("negative exponent")
                c = Fraction(c)
                if c != 0:
                    clean[exps] = c
            terms = clean
        self.ctx = ctx
        self.terms = terms
        self._sorted = None
        self._reducer = None
        self._hash = None

    # -- basic structure -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    @property
    def sorted_terms(self):
        """Terms as ((exps, coeff), ...) in strictly decreasing order."""
        if self._sorted is None:
            keyf = self.ctx.kernels.key
            self._sorted = tuple(
                sorted(self.terms.items(), key=lambda t: keyf(t[0]), reverse=True))
        return self._sorted

    @property
    def reducer_form(self):
        """``(lm, lc, tail, mask)`` of a nonzero polynomial scaled by a
        rational to coprime integers with ``lc > 0``; ``tail`` holds the
        other terms in decreasing order, and bit i of ``mask`` is set when
        variable i occurs in ``lm`` (:func:`compile_monomials`).  The primitive
        integer form that Groebner S-pairs and normal forms work on,
        computed once."""
        if self._reducer is None:
            terms = self.sorted_terms
            if not terms:
                raise PolyError("the zero polynomial has no reducer form")
            den = math.lcm(*(c.denominator for _, c in terms))
            self._reducer = _primitive_form(
                [(e, c.numerator * (den // c.denominator)) for e, c in terms],
                self.ctx.kernels.monomials.mask)
        return self._reducer

    @property
    def lm(self):
        """Leading monomial (exponent tuple)."""
        if not self.terms:
            raise PolyError("the zero polynomial has no leading monomial")
        return self.sorted_terms[0][0]

    @property
    def lc(self) -> Fraction:
        return self.sorted_terms[0][1]

    # -- arithmetic -----------------------------------------------------------

    def _check_ring(self, other: "Poly"):
        if not self.ctx.same_poly_ring(other.ctx):
            raise PolyError(
                f"mismatched ring contexts: {self.ctx!r} vs {other.ctx!r}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, ZERO) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.ctx, out, _trust=True)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ctx, {e: -c for e, c in self.terms.items()}, _trust=True)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_ring(other)
        mul = self.ctx.kernels.monomials.mul
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = mul(e1, e2)
                s = out.get(e)
                s = c1 * c2 if s is None else s + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        for e in out:
            if any(x > MAX_EXPONENT for x in e):
                raise PolyError(f"exponent overflow beyond {MAX_EXPONENT}")
        return Poly(self.ctx, out, _trust=True)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return self.ctx.zero
        return Poly(self.ctx, {e: c * v for e, v in self.terms.items()}, _trust=True)

    def __pow__(self, e: int):
        if e < 0:
            raise PolyError("negative power of a polynomial")
        # repeated squaring; f**0 == 1 for every f, including 0
        result = self.ctx.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base2 = e >> 1
            if base2:
                base = base * base
            e = base2
        return result

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        c = self.lc
        if c == 1:
            return self
        return self.scale(1 / c)

    # -- identity --------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ctx.same_poly_ring(other.ctx) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    # -- movement between contexts ----------------------------------------------

    def in_ctx(self, ctx: RingCtx) -> "Poly":
        ctx = ctx.ambient
        if self.ctx is ctx:
            return self
        if self.ctx.vars != ctx.vars:
            raise PolyError(
                f"cannot move polynomial from {self.ctx!r} to {ctx!r}")
        return Poly(ctx, self.terms, _trust=True)

    def __str__(self):
        return poly_str(self)

    __repr__ = __str__


def _ordered(ctx: RingCtx, terms) -> Poly:
    """The polynomial of ``terms``, nonzero (monomial, coefficient) pairs
    in strictly decreasing order of ``ctx.order``, kept as its
    :attr:`Poly.sorted_terms` so that they are not sorted again."""
    p = Poly(ctx, dict(terms), _trust=True)
    p._sorted = tuple(terms)
    return p


# ---------------------------------------------------------------------------
# context-change helpers


def embed(poly: Poly, target: RingCtx, positions) -> Poly:
    """Re-express ``poly`` in ``target``; ``positions[i]`` is the target
    index of source variable ``i``."""
    target = target.ambient
    n = len(target.vars)
    out = {}
    for e, c in poly.terms.items():
        exps = [0] * n
        for i, x in enumerate(e):
            if x:
                exps[positions[i]] = x
        out[tuple(exps)] = c
    return Poly(target, out, _trust=True)


# ---------------------------------------------------------------------------
# parser

# One match per token, leading whitespace included; group 4 is any other
# character, which no token may start with.
_TOKEN_RE = re.compile(
    r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|([+\-*/^()])|(\S))")
_KINDS = (None, "num", "name", "op")


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastindex
        if kind == 4:
            raise ParseError(f"unexpected character {m[4]!r}", text,
                             m.start(4))
        tokens.append((_KINDS[kind], m[kind], m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, ctx: RingCtx):
        self.text = text
        self.ctx = ctx.ambient
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok if tok is not None else self.peek()
        raise ParseError(message, self.text, tok[2])

    def at_op(self, *ops):
        kind, val, _ = self.peek()
        return kind == "op" and val in ops

    def parse(self) -> Poly:
        terms = {}
        sign = 1
        if self.at_op("-"):
            self.take()
            sign = -1
        while True:
            exps, c = self.term()
            terms[exps] = terms.get(exps, 0) + sign * c
            kind, val, _ = self.peek()
            if kind == "end":
                return Poly(self.ctx, {e: Fraction(c) for e, c in terms.items()
                                       if c}, _trust=True)
            if kind != "op" or val not in "+-":
                self.fail("expected '+' or '-' between terms")
            self.take()
            sign = 1 if val == "+" else -1

    def term(self) -> tuple:
        """``(exps, coeff)`` of the next term; an integer stays an int."""
        coeff = 1
        kind, val, _ = self.peek()
        number = kind == "num"
        if number:
            self.take()
            coeff = int(val)
            if self.at_op("/"):
                self.take()
                k2, v2, _ = self.peek()
                if k2 != "num":
                    self.fail("expected an integer denominator")
                self.take()
                den = int(v2)
                if den == 0:
                    self.fail("zero denominator")
                coeff = Fraction(coeff, den)
        exps = [0] * len(self.ctx.vars)
        saw_var = False
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.take()
                kind, val, pos = self.peek()
                if kind != "name":
                    self.fail("expected a variable after '*'")
            if kind != "name":
                break
            self.take()
            idx = self.ctx._index.get(val)
            if idx is None:
                raise ParseError(f"unknown variable {val!r}", self.text, pos)
            e = 1
            if self.at_op("^"):
                self.take()
                e = self.exponent()
            exps[idx] += e
            saw_var = True
        if not (number or saw_var):
            self.fail("expected a term")
        return tuple(exps), coeff

    def exponent(self) -> int:
        paren = False
        if self.at_op("("):
            self.take()
            paren = True
        if self.at_op("-"):
            self.fail("negative exponent")
        kind, val, _ = self.peek()
        if kind != "num":
            self.fail("expected a non-negative integer exponent")
        self.take()
        if paren:
            if not self.at_op(")"):
                self.fail("expected ')'")
            self.take()
        if self.at_op("/"):
            self.fail("non-integer exponent")
        return int(val)


def parse_poly(text: str, ctx: RingCtx) -> Poly:
    """Parse ``text`` into a canonical polynomial over ``ctx``."""
    return _Parser(text, ctx).parse()


# ---------------------------------------------------------------------------
# printer


def _monomial_str(exps, names) -> str:
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def poly_str(p: Poly) -> str:
    if p.is_zero:
        return "0"
    names = p.ctx.vars
    pieces = []
    for exps, c in p.sorted_terms:
        num, den = c.numerator, c.denominator
        a = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        mono = _monomial_str(exps, names)
        if not mono:
            body = a
        elif a == "1":
            body = mono
        else:
            body = f"{a}*{mono}"
        pieces.append((" - " if num < 0 else " + ") + body)
    text = "".join(pieces)  # the lead keeps only a minus sign
    return text[3:] if text[1] == "+" else "-" + text[3:]

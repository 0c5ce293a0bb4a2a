"""Brute-force numerical-semigroup arithmetic.

Used as an independent oracle for invariants of monomial-curve rings
k[t^{a_1}, ..., t^{a_k}]: membership in the semigroup <a_1, ..., a_k>
is decided by dynamic programming, and the integral degree of a
monomial fraction t^d reduces to the least n >= 1 with n*d in the
semigroup (an equation of degree n exists exactly when some power
t^{d*i}, i <= n, already lies in the ring, and the least such i works).
"""

from __future__ import annotations


def semigroup_table(gens, limit: int):
    """Boolean membership table for <gens> on 0..limit."""
    gens = sorted(set(int(g) for g in gens))
    if any(g <= 0 for g in gens):
        raise ValueError("semigroup generators must be positive")
    table = [False] * (limit + 1)
    table[0] = True
    for v in range(1, limit + 1):
        for g in gens:
            if g <= v and table[v - g]:
                table[v] = True
                break
    return table


def semigroup_contains(gens, value: int) -> bool:
    if value < 0:
        return False
    return semigroup_table(gens, value)[value]


def monomial_fraction_degree(gens, shift: int):
    """Integral degree of t^shift over k[<gens>]: least n >= 1 with
    n*shift in the semigroup; None for shift < 0 (not integral).  It is
    at most g = min(gens), as g*shift lies in the semigroup, so a table
    up to g*shift decides it."""
    if shift < 0:
        return None
    g = min(gens)
    table = semigroup_table(gens, g * shift)
    return next(n for n in range(1, g + 1) if table[n * shift])

"""Shared fixtures: the monomial-curve fraction instances used by the
verification suite, computed once per session, and ``contract``, the
inverse of ``embed`` that the elimination tests read bases back with."""

import pytest

from reeskit import (Ideal, integral_degree_fraction, monomial_curve,
                     monomial_fraction_degree, reduction_number,
                     relation_type)


def contract(poly, target, positions):
    """The inverse of ``embed``: ``poly``, whose variables all sit at
    ``positions``, as a polynomial of ``target``."""
    assert not any(x for e in poly.terms for i, x in enumerate(e)
                   if i not in positions), "a dropped variable occurs"
    return target.poly({tuple(e[i] for i in positions): c
                        for e, c in poly.terms.items()})


# (weights, names, x, y) — x and y are monomials in the curve coordinates;
# (x) is a principal reduction of (x, y) in every instance.
CURVE_INSTANCES = [
    ((2, 3), ("u", "v"), "u", "v"),
    ((2, 3), ("u", "v"), "v", "u^2"),
    ((2, 3), ("u", "v"), "u^2", "v^2"),
    ((2, 3), ("u", "v"), "u", "u*v"),
    ((2, 3), ("u", "v"), "u^2", "u*v"),
    ((3, 4), ("u", "v"), "u", "v"),
    ((3, 4), ("u", "v"), "v", "u^2"),
    ((3, 4), ("u", "v"), "u^2", "u*v"),
    ((3, 4), ("u", "v"), "u", "v^2"),
    ((3, 4), ("u", "v"), "v", "u^3"),
    ((3, 4), ("u", "v"), "u*v", "u^3"),
    ((3, 5), ("u", "v"), "u", "v"),
    ((3, 5), ("u", "v"), "v", "u^2"),
    ((3, 5), ("u", "v"), "u^2", "v^2"),
    ((3, 5), ("u", "v"), "v", "u^3"),
    ((3, 5), ("u", "v"), "u^3", "v^2"),
    ((4, 5, 6), ("a", "b", "c"), "a", "b"),
    ((4, 5, 6), ("a", "b", "c"), "a", "c"),
    ((4, 5, 6), ("a", "b", "c"), "b", "c"),
    ((4, 5, 6), ("a", "b", "c"), "c", "b^2"),
    ((4, 5, 6), ("a", "b", "c"), "a^2", "b*c"),
    ((4, 5, 6), ("a", "b", "c"), "b", "a^2"),
    ((3, 4, 5), ("a", "b", "c"), "a", "b"),
    ((3, 4, 5), ("a", "b", "c"), "b", "c"),
    ((3, 4, 5), ("a", "b", "c"), "a", "c"),
]


def _t_order(poly, weights):
    exps = next(iter(poly.terms))
    return sum(e * w for e, w in zip(exps, weights))


@pytest.fixture(scope="session")
def curve_instances():
    """Computed invariants for every instance: id, rn, rt, oracle value."""
    rows = []
    for weights, names, xs, ys in CURVE_INSTANCES:
        ctx = monomial_curve(weights, names)
        x, y = ctx.parse(xs), ctx.parse(ys)
        shift = _t_order(y, weights) - _t_order(x, weights)
        oracle = monomial_fraction_degree(weights, shift)
        I = Ideal(ctx, [x, y])
        rows.append({
            "label": f"t^{weights} x={xs} y={ys}",
            "ctx": ctx, "x": x, "y": y, "ideal": I,
            "oracle": oracle,
            "id": integral_degree_fraction(y, x, ctx),
            "rn": reduction_number(I, Ideal(ctx, [x])),
            "rt": relation_type(I),
        })
    return rows

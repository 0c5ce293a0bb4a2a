"""Seeded inputs for the benchmark workloads.

Standard library only: the driver builds every input here, without
importing reeskit, and hands it to the child interpreters as JSON.  A
system carries its generators twice: as term lists
``[[exponents...], "coefficient"], ...``, from which the driver builds
its sympy reference, and as text for ``reeskit gb``.
"""

from __future__ import annotations

import itertools
import math
import random

CURVE_CAP = 12
# Strata of the curve family from this integral degree up run whole.
CURVE_WHOLE_ID = 4
# Generator degrees of the seeded dense systems in groebner-systems.
DENSE_DEGREES = ((2, 2, 3),) * 3 + ((2, 3, 3),) * 3 + ((3, 3, 3),) * 2


# -- groebner-systems ---------------------------------------------------------


def _mono(n, *positions):
    exps = [0] * n
    for i in positions:
        exps[i] += 1
    return exps


def _poly_text(terms, names):
    """Generator text in reeskit's grammar, e.g. ``3*x^2*y - z + 1``."""
    parts = []
    for exps, c in terms:
        c, mono = int(c), _monomial_text(exps, names)
        body = (str(abs(c)) if not mono else mono if abs(c) == 1
                else f"{abs(c)}*{mono}")
        parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts).removeprefix("+ ")


def _system(name, names, gens):
    return {"name": name, "vars": names, "gens": gens,
            "text": [_poly_text(g, names) for g in gens]}


def cyclic(n: int) -> dict:
    """The cyclic-n system (Björck–Fröberg) in x0..x{n-1}."""
    names = [f"x{i}" for i in range(n)]
    polys = []
    for d in range(1, n):
        polys.append([[_mono(n, *((i + k) % n for k in range(d))), "1"]
                      for i in range(n)])
    polys.append([[_mono(n, *range(n)), "1"], [[0] * n, "-1"]])
    return _system(f"cyclic-{n}", names, polys)


def katsura(n: int) -> dict:
    """The Katsura-n system in u0..un: u_{-l} = u_l, u_l = 0 for |l| > n,
    sum_l u_l = 1 and sum_l u_l u_{m-l} = u_m for m = 0..n-1."""
    names = [f"u{i}" for i in range(n + 1)]
    size = n + 1

    def add(terms, exps, c):
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + c

    polys = []
    linear = {}
    for l in range(-n, n + 1):
        add(linear, _mono(size, abs(l)), 1)
    add(linear, [0] * size, -1)
    polys.append(linear)
    for m in range(n):
        quad = {}
        for l in range(-n, n + 1):
            if abs(m - l) <= n:
                add(quad, _mono(size, abs(l), abs(m - l)), 1)
        add(quad, _mono(size, m), -1)
        polys.append(quad)
    gens = [[[list(e), str(c)] for e, c in sorted(p.items()) if c]
            for p in polys]
    return _system(f"katsura-{n}", names, gens)


def dense_system(rng: random.Random, degrees, index: int) -> dict:
    """A dense random system in x, y, z: one generator per entry of
    ``degrees``, each carrying every monomial of total degree <= its
    degree with a coefficient drawn from ±1..3.  Full support makes the
    system generic, so its Buchberger run does the same pair work for
    almost every seed while the coefficients (and their growth) change."""
    gens = []
    for d in degrees:
        monos = [list(e) for e in itertools.product(range(d + 1), repeat=3)
                 if sum(e) <= d]
        gens.append([[e, str(rng.choice([-3, -2, -1, 1, 2, 3]))]
                     for e in monos])
    return _system(f"dense{''.join(map(str, degrees))}-{index}",
                   ["x", "y", "z"], gens)


def groebner_systems(seed: int) -> list:
    rng = random.Random(seed)
    systems = [cyclic(5), katsura(5)]
    systems += [dense_system(rng, degrees, i)
                for i, degrees in enumerate(DENSE_DEGREES)]
    return systems


# -- curve-invariants ---------------------------------------------------------

_NAMES = {2: ["u", "v"], 3: ["a", "b", "c"]}


def _monomials(nvars, max_degree):
    out = []
    for d in range(1, max_degree + 1):
        for combo in itertools.combinations_with_replacement(range(nvars), d):
            exps = [0] * nvars
            for i in combo:
                exps[i] += 1
            out.append(exps)
    return out


def _monomial_text(exps, names):
    parts = []
    for e, nm in zip(exps, names):
        if e:
            parts.append(nm if e == 1 else f"{nm}^{e}")
    return "*".join(parts)


def _fraction_degree(weights, shift):
    """Least n >= 1 with n*shift in the semigroup <weights>; used only to
    stratify the sample (the child checks against reeskit's oracle)."""
    if shift == 0:
        return 1
    n = 1
    while True:
        reach = {0}
        for v in range(1, n * shift + 1):
            if any(v - w in reach for w in weights):
                reach.add(v)
        if n * shift in reach:
            return n
        n += 1


def curve_family():
    """Every instance of the family: a numerical semigroup with 2-3
    coprime generators in 2..7, x a monomial of degree 1-2 and y one of
    degree 1-3 in the curve coordinates, with t-order shift >= 0."""
    family = []
    for k in (2, 3):
        for weights in itertools.combinations(range(2, 8), k):
            if math.gcd(*weights) != 1:
                continue
            names = _NAMES[k]
            for x in _monomials(k, 2):
                for y in _monomials(k, 3):
                    shift = (sum(e * w for e, w in zip(y, weights))
                             - sum(e * w for e, w in zip(x, weights)))
                    if shift < 0:
                        continue
                    family.append({
                        "weights": list(weights), "names": names,
                        "x": _monomial_text(x, names),
                        "y": _monomial_text(y, names),
                        "shift": shift, "cap": CURVE_CAP,
                        "stratum": (weights, _fraction_degree(weights, shift),
                                    sum(x))})
    return family


def curve_instances(seed: int) -> list:
    """Instances of :func:`curve_family`, in seeded order: every member
    of each stratum (ring, integral degree, degree of x) whose integral
    degree is at least ``CURVE_WHOLE_ID``, and one seeded draw from each
    other stratum.

    Cost grows with the integral degree, so stratifying keeps the work of
    a pass nearly the same from seed to seed while the instances change.
    The deep strata are few and small (41 instances) but their members
    differ up to threefold in cost and make half the work of a pass, so
    drawing one of each moved the pass time by 4% between seeds; running
    them whole leaves the seed to vary the 132 shallow strata."""
    rng = random.Random(seed)
    strata = {}
    for inst in curve_family():
        strata.setdefault(inst.pop("stratum"), []).append(inst)
    sample = []
    for (_, id_, _), members in sorted(strata.items()):
        sample += members if id_ >= CURVE_WHOLE_ID else [rng.choice(members)]
    rng.shuffle(sample)
    return sample

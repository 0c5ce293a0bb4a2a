"""Command-line interface.

Subcommands::

    reeskit gb     --vars x,y [--mod "..."] --ideal "..." [--order ...]
    reeskit rt     --vars ... --ideal ... [--modulo "..."] [--explain]
    reeskit rn     --vars ... --ideal ... --reduction "..."
    reeskit id     --vars ... --num <poly> --den <poly>
    reeskit ar     --vars ... --sub "..." --ideal ... [--modulo "..."]
    reeskit reg    --vars ... --ideal ... --reduction "..."
    reeskit dseq   --vars ... --seq "..."
    reeskit verify <name> --n <k> | --all
    reeskit list

Every invariant prints a value or ``none(<reason>)``.  Exit codes:
0 pass, 1 input or usage error, 2 expectation failure, 3 no value.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .corpus import REGISTRY, emit_report, list_examples, run_example
from .ideals import Ideal
from .invariants import (artin_rees_number, d_sequence_check,
                         integral_degree_fraction, reduction_number, reg_rees)
from .poly import ORDERS, PolyError, RingCtx
from .rees import _degree_profile, _relation_degree, rees_kernel

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FAIL = 2
EXIT_NO_VALUE = 3


def _split_polys(text: str):
    seps = ";" if ";" in text else ","
    return [p.strip() for p in text.split(seps) if p.strip()]


def _build_ctx(args) -> RingCtx:
    if not args.vars:
        raise PolyError("--vars is required")
    ctx = RingCtx(args.vars)
    if getattr(args, "mod", None):
        ctx = ctx.with_quotient(_split_polys(args.mod))
    return ctx


def _parse_ideal(ctx, text: str) -> Ideal:
    return Ideal(ctx, _split_polys(text))


def _emit_outcome(pairs, outcome) -> int:
    """Print ``pairs`` with the status of ``outcome``; its exit code."""
    print(emit_report(pairs, "pass" if outcome.resolved else "none"))
    return EXIT_OK if outcome.resolved else EXIT_NO_VALUE


def _cmd_gb(args) -> int:
    ctx = _build_ctx(args).with_order(ORDERS[args.order])
    I = _parse_ideal(ctx, args.ideal)
    print("".join(f"{g}\n" for g in I.gb.elements), end="")
    return EXIT_OK


def _cmd_rt(args) -> int:
    ctx = _build_ctx(args)
    I = _parse_ideal(ctx, args.ideal)
    value, witness = _relation_degree(I, _parse_ideal(ctx, args.modulo or "0"))
    pairs = [("rt_mod" if args.modulo else "rt", value)]
    if args.explain:
        if witness is not None:
            pairs.append(("rt.witness", witness))
        profile = _degree_profile(rees_kernel(I).kernel, 1)
        for d in sorted(profile):
            for g in profile[d]:
                pairs.append((f"kernel.deg{d}", g))
    print(emit_report(pairs, "pass"))
    return EXIT_OK


def _cmd_rn(args) -> int:
    ctx = _build_ctx(args)
    I = _parse_ideal(ctx, args.ideal)
    J = _parse_ideal(ctx, args.reduction)
    outcome = reduction_number(I, J)
    return _emit_outcome([("rn", outcome)], outcome)


def _cmd_id(args) -> int:
    ctx = _build_ctx(args)
    num = ctx.parse(args.num)
    den = ctx.parse(args.den)
    outcome = integral_degree_fraction(num, den, ctx)
    return _emit_outcome([("id", outcome)], outcome)


def _cmd_ar(args) -> int:
    ctx = _build_ctx(args)
    a = _parse_ideal(ctx, args.sub)
    I = _parse_ideal(ctx, args.ideal)
    J = _parse_ideal(ctx, args.modulo) if args.modulo else Ideal(ctx, [])
    report = artin_rees_number(a, I, J)
    pairs = [("s", report.s_value), ("rt_bound", report.rt_bound)]
    return _emit_outcome(pairs, report.s_value)


def _cmd_reg(args) -> int:
    ctx = _build_ctx(args)
    I = _parse_ideal(ctx, args.ideal)
    J = _parse_ideal(ctx, args.reduction)
    outcome = reg_rees(I, J)
    return _emit_outcome([("reg", outcome), ("mode", outcome.witness)], outcome)


def _cmd_dseq(args) -> int:
    ctx = _build_ctx(args)
    seq = [ctx.parse(p) for p in _split_polys(args.seq)]
    ok = d_sequence_check(seq, ctx)
    print(emit_report([("d_sequence", ok)], "pass"))
    return EXIT_OK


def _cmd_list(args) -> int:
    print(list_examples())
    return EXIT_OK


def _run_one(name: str, n: int) -> int:
    report = run_example(name, n)
    print(emit_report(report.lines(), report.status))
    for line in report.failure_lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_verify(args) -> int:
    if args.all:
        worst = EXIT_OK
        for name in sorted(REGISTRY):
            entry = REGISTRY[name]
            for n in range(entry.n_min, entry.n_max + 1):
                code = _run_one(name, n)
                worst = max(worst, code)
                print()
        return worst
    if not args.name:
        raise PolyError("verify needs an example name or --all")
    if args.n is None:
        raise PolyError("verify needs --n <k>")
    return _run_one(args.name, args.n)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (2 is an expectation failure); subparsers too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each ``parse_args`` call fills
    a fresh namespace."""
    parser = _Parser(
        prog="reeskit",
        description="Ideal-theoretic invariants over exact rationals")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ideal=True):
        p.add_argument("--vars", help="comma-separated variable names")
        p.add_argument("--mod", help="quotient generators, ';'-separated")
        if ideal:
            p.add_argument("--ideal", required=True,
                           help="ideal generators, ','-separated")

    p = sub.add_parser("gb", help="reduced Groebner basis")
    common(p)
    p.add_argument("--order", default="degrevlex", choices=sorted(ORDERS))
    p.set_defaults(func=_cmd_gb)

    p = sub.add_parser("rt", help="relation type (optionally modulo an ideal)")
    common(p)
    p.add_argument("--modulo", help="ideal J for rt_J")
    p.add_argument("--explain", action="store_true",
                   help="print the witness and the kernel degree profile")
    p.set_defaults(func=_cmd_rt)

    p = sub.add_parser("rn", help="reduction number rn_J(I)")
    common(p)
    p.add_argument("--reduction", required=True, help="generators of J")
    p.set_defaults(func=_cmd_rn)

    p = sub.add_parser("id", help="integral degree of a fraction num/den")
    common(p, ideal=False)
    p.add_argument("--num", required=True)
    p.add_argument("--den", required=True)
    p.set_defaults(func=_cmd_id)

    p = sub.add_parser("ar", help="Artin-Rees number s_J(a, A; I)")
    common(p)
    p.add_argument("--sub", required=True, help="generators of the ideal a")
    p.add_argument("--modulo", help="ideal J (default zero)")
    p.set_defaults(func=_cmd_ar)

    p = sub.add_parser("reg", help="regularity of the Rees module")
    common(p)
    p.add_argument("--reduction", required=True, help="generators of J")
    p.set_defaults(func=_cmd_reg)

    p = sub.add_parser("dseq", help="d-sequence check")
    common(p, ideal=False)
    p.add_argument("--seq", required=True, help="the sequence, ','-separated")
    p.set_defaults(func=_cmd_dseq)

    p = sub.add_parser("verify", help="run a registered example")
    p.add_argument("name", nargs="?")
    p.add_argument("--n", type=int)
    p.add_argument("--all", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("list", help="list registered examples")
    p.set_defaults(func=_cmd_list)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PolyError, ValueError, KeyError) as exc:
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"input error: {message}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

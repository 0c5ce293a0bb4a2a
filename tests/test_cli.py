"""Command-line interface: output contracts and exit codes."""

import pathlib

import pytest

from reeskit import REGISTRY, groebner
from reeskit.cli import build_parser, main

# `reeskit verify --all` output, byte for byte: one block per registry
# entry and n, each followed by an empty line.
GOLDEN = pathlib.Path(__file__).parent / "data" / "verify_all.txt"
GOLDEN_BLOCKS = {
    tuple(line.split(" = ", 1)[1] for line in block.splitlines()[:2]): block
    for block in GOLDEN.read_text(encoding="utf-8").split("\n\n") if block}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gb_prints_basis_lines(capsys):
    code, out, _ = run(capsys, "gb", "--vars", "x,y",
                       "--ideal", "x - y^2, y - x^2", "--order", "lex")
    assert code == 0
    assert out.splitlines() == ["y^4 - y", "x - y^2"]


def test_gb_with_quotient(capsys):
    code, out, _ = run(capsys, "gb", "--vars", "x,y", "--mod", "x^4 - y^3",
                       "--ideal", "x")
    assert code == 0
    assert "x" in out.splitlines()


def test_rt_command(capsys):
    code, out, _ = run(capsys, "rt", "--vars", "x,y",
                       "--ideal", "x^2, x*y, y^2")
    assert code == 0
    assert out.splitlines() == ["rt = 2", "status = pass"]


def test_rt_modulo_and_explain(capsys):
    # rt_mod = 1 has no witness line
    code, out, _ = run(capsys, "rt", "--vars", "x,y", "--ideal", "x,y",
                       "--modulo", "x,y", "--explain")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rt_mod = 1"
    assert not any(line.startswith("rt.witness") for line in lines)
    assert any(line.startswith("kernel.deg1 = ") for line in lines)
    # the fiber cone of the Veronese needs the quadratic relation
    code, out, _ = run(capsys, "rt", "--vars", "x,y",
                       "--ideal", "x^2, x*y, y^2", "--modulo", "x,y",
                       "--explain")
    assert code == 0
    assert out.splitlines()[:2] == ["rt_mod = 2",
                                    "rt.witness = T2^2 - T1*T3"]


def test_rt_explain_lists_the_kernel_by_degree(capsys):
    code, out, _ = run(capsys, "rt", "--vars", "x,y",
                       "--ideal", "x^2, x*y, y^2", "--explain")
    assert code == 0
    assert out.splitlines() == ["rt = 2",
                                "rt.witness = T2^2 - T1*T3",
                                "kernel.deg1 = x*T2 - y*T1",
                                "kernel.deg1 = x*T3 - y*T2",
                                "kernel.deg2 = T2^2 - T1*T3",
                                "status = pass"]


def test_rn_resolved(capsys):
    code, out, _ = run(capsys, "rn", "--vars", "x,y",
                       "--ideal", "x^2, y^2, x*y", "--reduction", "x^2, y^2")
    assert code == 0
    assert out.splitlines() == ["rn = 1", "status = pass"]


def test_rn_unresolved_exit_code(capsys):
    code, out, _ = run(capsys, "rn", "--vars", "x,y", "--ideal", "x, y",
                       "--reduction", "x")
    assert code == 3
    assert out.splitlines() == ["rn = none(not a reduction)", "status = none"]


def test_rn_on_the_zero_ring(capsys):
    # Q[x]/(1) = 0: rn and reg are both 0
    code, out, _ = run(capsys, "rn", "--vars", "x", "--mod", "1",
                       "--ideal", "x", "--reduction", "x")
    assert code == 0
    assert out.splitlines() == ["rn = 0", "status = pass"]
    code, out, _ = run(capsys, "reg", "--vars", "x", "--mod", "1",
                       "--ideal", "x", "--reduction", "x")
    assert code == 0
    assert out.splitlines()[0] == "reg = 0"


def test_id_command(capsys):
    code, out, _ = run(capsys, "id", "--vars", "u,v", "--mod", "u^4 - v^3",
                       "--num", "v", "--den", "u")
    assert code == 0
    assert out.splitlines() == ["id = 3", "status = pass"]
    code, out, _ = run(capsys, "id", "--vars", "x,y", "--num", "y",
                       "--den", "x")
    assert code == 3
    assert out.splitlines() == ["id = none(not integral)", "status = none"]


def test_ar_command(capsys):
    code, out, _ = run(capsys, "ar", "--vars", "x,y", "--sub", "x^3 - y^4",
                       "--ideal", "x, y")
    assert code == 0
    assert out.splitlines() == ["s = 3", "rt_bound = 3", "status = pass"]


@pytest.mark.parametrize("explain", [(), ("--explain",)],
                         ids=["plain", "explain"])
def test_rt_of_the_zero_ideal(capsys, explain):
    # R(0) = A has no relations, so --explain adds no kernel line
    code, out, _ = run(capsys, "rt", "--vars", "x,y", "--ideal", "0",
                       *explain)
    assert code == 0
    assert out.splitlines() == ["rt = 1", "status = pass"]


def test_ar_of_the_zero_ideal(capsys):
    code, out, _ = run(capsys, "ar", "--vars", "x,y", "--sub", "x",
                       "--ideal", "0")
    assert code == 0
    assert out.splitlines() == ["s = 0", "rt_bound = 1", "status = pass"]


def test_reg_command(capsys):
    code, out, _ = run(capsys, "reg", "--vars", "u,v", "--mod", "u^4 - v^3",
                       "--ideal", "u, v", "--reduction", "u")
    assert code == 0
    assert "reg = 2" in out.splitlines()


def test_reg_not_filter_regular_is_unresolved(capsys):
    code, out, _ = run(capsys, "reg", "--vars", "x,y", "--mod", "x*y",
                       "--ideal", "x, y", "--reduction", "y, x")
    assert code == 3
    lines = out.splitlines()
    assert lines[0] == "reg = none(not filter-regular at y)"
    assert lines[1] == "mode = not filter-regular at y"
    assert lines[-1] == "status = none"


def test_dseq_command(capsys):
    code, out, _ = run(capsys, "dseq", "--vars", "x,y,z", "--mod", "x*z",
                       "--seq", "x, y")
    assert code == 0
    assert "d_sequence = false" in out.splitlines()


def test_input_error_exit_code(capsys):
    code, _, err = run(capsys, "gb", "--vars", "x,y", "--ideal", "x + w")
    assert code == 1
    assert "input error" in err


def test_unknown_example_prints_its_message_unquoted(capsys):
    code, out, err = run(capsys, "verify", "foo", "--n", "2")
    assert (code, out) == (1, "")
    assert err == "input error: unknown example 'foo'; see `reeskit list`\n"


@pytest.mark.parametrize("argv", [
    ("rn", "--vars", "x,y", "--ideal", "x, y"),
    ("rn", "--vars", "x,y", "--ideal", "x, y", "--reduction", "x",
     "--bogus"),
    ("rn", "--vars", "x,y", "--ideal", "x, y", "--reduction", "x",
     "--cap", "3"),
    ("gb", "--vars", "x,y", "--ideal", "x", "--order", "elim"),
    ("rn", "--vars", "x,y", "--ideal", "x, y", "--reduction", "x",
     "--order", "lex"),
], ids=["missing-reduction", "unknown-flag", "retired-cap", "unknown-order",
        "order-outside-gb"])
def test_usage_error_exits_as_input_error(capsys, argv):
    # exit 2 is reserved for an expectation failure
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: reeskit") and "error: " in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rn", "-h"])
    assert exc.value.code == 0
    assert "--reduction" in capsys.readouterr().out


def test_list_command(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert "veronese" in out


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "node-dseq", "--n", "1")
    assert code == 0
    assert "status = pass" in out


def test_verify_requires_n(capsys):
    code, _, err = run(capsys, "verify", "node-dseq")
    assert code == 1
    assert "needs --n" in err


def test_golden_covers_the_registry():
    entries = {(name, str(n)) for name, e in REGISTRY.items()
               for n in range(e.n_min, e.n_max + 1)}
    assert set(GOLDEN_BLOCKS) == entries


@pytest.mark.parametrize("self_check", [False, True],
                         ids=["self-check-off", "self-check-on"])
def test_verify_all_matches_golden_file(capsys, monkeypatch, self_check):
    # with self-checks on, every basis the registry computes or adopts
    # is checked against the Buchberger criterion
    monkeypatch.setattr(groebner, "SELF_CHECK", self_check)
    code, out, _ = run(capsys, "verify", "--all")
    assert code == 0
    assert out == GOLDEN.read_text(encoding="utf-8")


@pytest.mark.parametrize("name,n", sorted(GOLDEN_BLOCKS))
def test_verify_matches_golden_report(capsys, name, n):
    code, out, _ = run(capsys, "verify", name, "--n", n)
    assert code == 0
    assert out == GOLDEN_BLOCKS[(name, n)] + "\n"


def test_one_parser_serves_every_call(capsys):
    gb = ("gb", "--vars", "x,y", "--ideal", "x - y^2, y - x^2",
          "--order", "lex")
    rt = ("rt", "--vars", "x,y", "--ideal", "x^2, x*y, y^2", "--explain")
    first = run(capsys, *gb)
    assert run(capsys, *rt) == (0, "rt = 2\nrt.witness = T2^2 - T1*T3\n"
                                "kernel.deg1 = x*T2 - y*T1\n"
                                "kernel.deg1 = x*T3 - y*T2\n"
                                "kernel.deg2 = T2^2 - T1*T3\n"
                                "status = pass\n", "")
    assert run(capsys, *gb) == first == (0, "y^4 - y\nx - y^2\n", "")
    # the parser is built once, and no option of one subcommand reaches
    # the namespace of another
    parser = build_parser()
    assert build_parser() is parser
    common = {"command", "vars", "mod", "ideal", "func"}
    spaces = [vars(parser.parse_args(list(argv))) for argv in (gb, rt, gb)]
    assert [set(s) - common for s in spaces] == [
        {"order"}, {"modulo", "explain"}, {"order"}]
    assert spaces[0] == spaces[2]

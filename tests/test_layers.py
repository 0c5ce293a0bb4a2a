"""The package's layering: each module imports only the layers below it."""

import ast
import importlib
import importlib.util
import inspect
import os
import pathlib
import subprocess
import sys

import reeskit
import reeskit.poly
from reeskit import (Ideal, RingCtx, groebner, invariants, monomial_curve,
                     reduced_groebner, rees, rees_kernel)

LAYERS = ["poly", "groebner", "ideals", "rees", "invariants", "semigroup",
          "corpus", "cli"]
PACKAGE = pathlib.Path(reeskit.__file__).parent
TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _relative_imports(path):
    """Modules of the package named by every relative import in ``path``,
    function-local imports included."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_modules_import_only_lower_layers():
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    assert modules - {"__init__", "__main__"} == set(LAYERS)
    problems = []
    for i, name in enumerate(LAYERS):
        upward = _relative_imports(PACKAGE / f"{name}.py") - set(LAYERS[:i])
        if upward:
            problems.append(f"{name} imports {sorted(upward)}")
    assert not problems, "; ".join(problems)


def test_elimination_entry_points_take_no_order():
    # groebner builds the elimination order from the target ring; an
    # order, ring or weights parameter would hand that choice back
    assert [n for n in dir(groebner) if n.startswith("eliminat")] == [
        "eliminate_polys"]
    params = inspect.signature(groebner.eliminate_polys).parameters
    assert list(params) == ["target", "build"]
    # and only groebner knows the auxiliary variable
    for path in PACKAGE.glob("*.py"):
        if path.stem != "groebner":
            text = path.read_text(encoding="utf-8")
            assert "_AUX" not in text and '"@t"' not in text, path.name


def _zero_generator_sites(tree):
    """Lines where code above ``Ideal`` decides what a zero generator is:
    a comprehension over an attribute ``gens`` that reads ``is_zero``, or
    ``Ideal(..)`` handed a list holding some ``<ctx>.zero``."""
    def reads(node, attr):
        return any(isinstance(n, ast.Attribute) and n.attr == attr
                   for n in ast.walk(node))

    sites = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            if any(isinstance(c.iter, ast.Attribute) and c.iter.attr == "gens"
                   for c in node.generators) and reads(node, "is_zero"):
                sites.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "Ideal"):
            if any(isinstance(n, ast.List)
                   and any(reads(e, "zero") for e in n.elts)
                   for arg in node.args for n in ast.walk(arg)):
                sites.append(node.lineno)
    return sites


def test_only_ideal_drops_zero_generators():
    # Ideal keeps the nonzero generators once, so the zero ideal has none;
    # no layer filters them again or spells (0) as [ctx.zero]
    assert not hasattr(Ideal, "basis_gens")
    found = {path.name: lines for path in sorted(PACKAGE.glob("*.py"))
             if (lines := _zero_generator_sites(
                 ast.parse(path.read_text(encoding="utf-8"))))}
    assert not found, found
    # the guard sees the forms it forbids
    for bad in ("xs = [g for g in I.gens if not g.is_zero]",
                "ok = not all(g.is_zero for g in I.gens)",
                "J = Ideal(ctx, [ctx.zero])",
                "J = Ideal(ctx, rest or [ctx.zero])"):
        assert _zero_generator_sites(ast.parse(bad)) == [1], bad


def _zero_ideal_raises(tree):
    """Lines of a ``raise`` whose string message names a zero or nonzero
    ideal: a guard that stands in for the zero ideal's general path."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and node.exc is not None
            and any(isinstance(n, ast.Constant) and isinstance(n.value, str)
                    and "zero ideal" in n.value.lower()
                    for n in ast.walk(node.exc))]


def test_zero_ideal_takes_the_general_path():
    # R(0) = A and (I : 0) = (1) are computed, not refused, and the
    # Artin-Rees bound rt_J(I mod a) always has a value
    found = {path.name: lines for path in sorted(PACKAGE.glob("*.py"))
             if (lines := _zero_ideal_raises(
                 ast.parse(path.read_text(encoding="utf-8"))))}
    assert not found, found
    assert invariants.ArtinReesReport.__annotations__["rt_bound"] == "int"
    # the guard sees the form it forbids, and lets the zero polynomial by
    for bad in ('raise PolyError("colon by the zero ideal")',
                'raise PolyError(f"needs a nonzero ideal, got {I}")'):
        assert _zero_ideal_raises(ast.parse(bad)) == [1], bad
    ok = 'raise PolyError("division by the zero polynomial")'
    assert _zero_ideal_raises(ast.parse(ok)) == []


def _reduction_kernels(tree):
    """Names of the functions that hold a fraction-free reduction step:
    a ``while`` loop whose body calls ``math.gcd``."""
    return sorted(
        fn.name for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(loop, ast.While)
                and any(isinstance(c, ast.Call) and ast.unparse(c.func)
                        == "math.gcd" for c in ast.walk(loop))
                for loop in ast.walk(fn)))


def _pair_criterion_names(tree):
    """Names left of the chain criterion's bookkeeping."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return sorted(names & {"chain", "pending"})


def test_groebner_has_one_reduction_kernel_and_no_chain_criterion():
    # the signature loop, normal_form and _reduced all reduce through
    # _reduce_terms; the signature criteria replace the chain criterion
    tree = ast.parse((PACKAGE / "groebner.py").read_text(encoding="utf-8"))
    assert _reduction_kernels(tree) == ["_reduce_terms"]
    assert _pair_criterion_names(tree) == []
    assert "chain" not in groebner.Stats.__dataclass_fields__
    # the guards see the forms they forbid
    copy = ("def top(work, g):\n    while work:\n"
            "        a = math.gcd(work[0], g)\n")
    assert _reduction_kernels(ast.parse(copy)) == ["top"]
    for bad in ("pending.discard((i, j))", "stats.chain += chain"):
        assert _pair_criterion_names(ast.parse(bad)), bad


CYCLIC4 = ("a + b + c + d", "a*b + b*c + c*d + d*a",
           "a*b*c + b*c*d + c*d*a + d*a*b", "a*b*c*d - 1")


def test_buchberger_pair_step_stays_on_integers(monkeypatch):
    # the loop reduces reducer forms directly; the public Fraction-valued
    # spolynomial and normal_form are for callers outside it
    cyclic4 = [RingCtx("a,b,c,d").parse(t) for t in CYCLIC4]
    groebner._buchberger.cache_clear()
    expected = reduced_groebner(cyclic4).elements

    def public(*args):
        raise AssertionError("the pair step left the integer forms")

    monkeypatch.setattr(groebner, "spolynomial", public)
    monkeypatch.setattr(groebner, "normal_form", public)
    groebner._buchberger.cache_clear()
    assert reduced_groebner(cyclic4).elements == expected


def test_buchberger_builds_no_ring_and_no_polynomial(monkeypatch):
    # the memo maps the order and integer forms to monic term tuples;
    # reduced_groebner alone turns them into polynomials of the caller's ring
    ctx = RingCtx("a,b,c,d")
    cyclic4 = [ctx.parse(t) for t in CYCLIC4]
    expected = [g.sorted_terms for g in reduced_groebner(cyclic4)]

    def build(*args, **kwargs):
        raise AssertionError("Buchberger built a ring or a polynomial")

    groebner._buchberger.cache_clear()
    monkeypatch.setattr(groebner, "RingCtx", build)
    monkeypatch.setattr(groebner, "Poly", build)
    forms = frozenset(g.reducer_form for g in cyclic4)
    basis = groebner._buchberger(ctx.order, forms, frozenset(), 0)
    assert list(basis) == expected


def test_a_ring_builds_its_derived_rings_once(monkeypatch):
    # the presentation ring, the lift ring and the elimination ring depend
    # on the ring alone: once it has built one presentation, the Rees
    # kernel of another ideal and another elimination construct no ring
    ctx = monomial_curve((3, 4, 5), ("a", "b", "c"))
    a, b, c = (ctx.var(v) for v in ctx.vars)
    rees._present.cache_clear()
    rees_kernel(Ideal(ctx, [a, b]))
    groebner.eliminate_polys(ctx, lambda t, lift: [lift(a) - t**3])
    built = []
    init = RingCtx.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(RingCtx, "__init__", counted)
    with groebner.counting() as stats:
        rees_kernel(Ideal(ctx, [a * c, b + c]))
        groebner.eliminate_polys(ctx, lambda t, lift: [lift(b) - t**4])
    assert (stats.presentations, stats.calls) == (1, 2)
    assert built == []


def test_parsing_builds_one_polynomial(monkeypatch):
    # the parser adds its terms into one map; no term is a polynomial
    built = []
    init = reeskit.poly.Poly.__init__

    def counted(self, *args, **kwargs):
        built.append(args[1])
        init(self, *args, **kwargs)

    monkeypatch.setattr(reeskit.poly.Poly, "__init__", counted)
    p = RingCtx("x,y,z").parse("x^2*y - 3/2*z + 2*x*y*z - y + 7 + y")
    assert len(p.terms) == 4
    assert built == [p.terms]


def test_a_returned_basis_sorts_no_terms(monkeypatch):
    # reduced_groebner and eliminate_polys hand their elements the term
    # order of the run, so the lead and the printer read it as it is
    ctx = RingCtx("a,b,c,d")
    curve = [(ctx.var(v), w) for v, w in zip(ctx.vars, (3, 4, 5, 7))]
    groebner._buchberger.cache_clear()
    bases = [reduced_groebner([ctx.parse(t) for t in CYCLIC4]),
             groebner.eliminate_polys(ctx, lambda t, lift: [
                 lift(v) - t**w for v, w in curve])]

    def unsorted(*args, **kwargs):
        raise AssertionError("a basis element sorted its terms")

    monkeypatch.setattr(reeskit.poly, "sorted", unsorted, raising=False)
    for basis in bases:
        assert basis.elements
        for g in basis:
            assert g.lm == g.sorted_terms[0][0] and str(g)


def test_every_traced_function_is_public():
    # the benchmark's tracer leaves out a metric whose function is gone,
    # so each function its tables read must stay a public function of
    # its module, under the signature its hooks bind
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    needed = {fid for _, fid, _ in tracer.FUNCTION_METRICS}
    needed.update(*tracer.DERIVED_METRICS.values())
    public = {f"poly.{short}" for short in tracer.POLY_METHODS}
    for layer in {fid.split(".")[0] for fid in needed}:
        module = importlib.import_module(f"reeskit.{layer}")
        public.update(fid for fid, _ in
                      tracer._public_functions(layer, module))
    assert needed <= public, sorted(needed - public)
    gb = inspect.signature(groebner.reduced_groebner).parameters
    assert list(gb)[:2] == ["gens", "ctx"] and gb["ctx"].default is None
    assert list(inspect.signature(groebner.normal_form).parameters)[0] == "f"


def test_import_compiles_no_kernel():
    code = ("import reeskit; from reeskit.poly import compile_monomials, "
            "compile_order; print(compile_monomials.cache_info().currsize, "
            "compile_order.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.split() == ["0", "0"]

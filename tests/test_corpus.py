"""The example registry and report formatting."""

import pytest

from reeskit import corpus
from reeskit import (REGISTRY, emit_report, list_examples, monomial_curve,
                     run_example)
from reeskit.corpus import Expectation
from reeskit.invariants import SearchOutcome


def test_listing_contents_and_determinism():
    text = list_examples()
    assert "wang n∈[2,4]" in text
    assert "sally-vasconcelos n∈[2,3]" in text
    assert "huneke n∈[2,5]" in text
    assert text == list_examples()


def test_registry_refuses_missing_provenance():
    with pytest.raises(ValueError, match="provenance"):
        Expectation("rt", 2, "just trust me", 2)


def test_unknown_example_and_range_errors():
    with pytest.raises(KeyError):
        run_example("nonesuch", 2)
    with pytest.raises(ValueError, match="outside supported range"):
        run_example("wang", 9)


def test_emit_report_formats():
    assert emit_report([("rn", 2)], "pass") == "rn = 2\nstatus = pass"
    out = emit_report([("rn", SearchOutcome(None, "not a reduction"))], "none")
    assert out == "rn = none(not a reduction)\nstatus = none"
    assert emit_report([("ok", True)], "pass").startswith("ok = true")


def test_run_example_report_shape():
    rep = run_example("node-dseq", 1)
    assert rep.passed and rep.status == "pass"
    keys = [k for k, _ in rep.lines()]
    assert keys[0] == "example" and keys[1] == "n"
    assert "dseq_x_y" in keys and "dseq_x_y.source" in keys
    assert rep.failure_lines() == []


def test_sally_vasconcelos_divergence_is_flagged_not_failed():
    rep = run_example("sally-vasconcelos", 2)
    assert rep.passed
    div = {r.key: r for r in rep.results}["id"]
    assert div.divergent and not div.ok
    assert div.expected == 2 and div.computed == 3
    assert ("id.note", "expected-divergence") in rep.lines()


def test_monomial_curve_builder_caches_and_computes_kernels():
    c1 = monomial_curve((2, 3), ("u", "v"))
    c2 = monomial_curve((2, 3), ("u", "v"))
    assert c1 is c2
    assert [str(g) for g in c1.quotient] == ["u^3 - v^2"]
    c3 = monomial_curve((4, 5, 6), ("a", "b", "c"))
    assert any("b^2" in str(g) for g in c3.quotient)


def test_every_entry_has_valid_range():
    for name, entry in REGISTRY.items():
        assert entry.n_min <= entry.n_max
        assert entry.summary


def test_huneke_example_reports_rn_and_iii_failure():
    rep = run_example("huneke", 4)
    values = {r.key: r.computed for r in rep.results}
    assert values["rn"] == 3
    assert values["cds_iii_failure"] is True
    assert rep.passed


def test_failure_lines_format():
    rep = corpus.ExampleReport("demo", 1, [
        Expectation("rt_mod", 3, "trivial: demo", 2)])
    assert rep.status == "fail"
    assert rep.failure_lines() == ["expected rt_mod = 3, got 2"]


def test_computed_none_is_never_an_expected_divergence(monkeypatch):
    """A None fails its expectation even under ``divergence_ok``: the
    Sally-Vasconcelos id may differ from the literature's n, but must be
    computed."""
    monkeypatch.setattr(corpus, "integral_degree_fraction",
                        lambda *args: SearchOutcome(None, "not integral"))
    rep = run_example("sally-vasconcelos", 2)
    assert rep.status == "fail"
    assert ("id", None) in rep.lines()
    assert not any(k.endswith(".note") for k, _ in rep.lines())
    assert "expected id = 2, got none" in rep.failure_lines()
    only = corpus.ExampleReport("demo", 2, [Expectation(
        "id", 2, "literature: demo", None, divergence_ok=True)])
    assert only.status == "fail"
    assert only.failure_lines() == ["expected id = 2, got none"]

"""The numerical-semigroup oracle."""

import pytest

from reeskit import monomial_fraction_degree, semigroup_contains


def test_membership():
    assert semigroup_contains([3, 4], 0)
    assert semigroup_contains([3, 4], 7)
    assert not semigroup_contains([3, 4], 5)
    assert not semigroup_contains([3, 4], -1)
    assert semigroup_contains([4, 5, 6], 10)
    assert not semigroup_contains([4, 5, 6], 7)


def test_fraction_degree():
    # id of t^d over k[t^a, t^b, ...] = least n with n*d in the semigroup
    assert monomial_fraction_degree([2, 3], 1) == 2
    assert monomial_fraction_degree([3, 4], 1) == 3
    assert monomial_fraction_degree([3, 5], 2) == 3
    assert monomial_fraction_degree([3, 5], 1) == 3
    assert monomial_fraction_degree([4, 5, 6], 1) == 4
    assert monomial_fraction_degree([4, 5, 6], 2) == 2
    assert monomial_fraction_degree([3, 4], 0) == 1
    assert monomial_fraction_degree([3, 4], -1) is None


def test_fraction_degree_is_bounded_by_multiplicity():
    # the answer is at most min(gens), so it is decided for every shift >= 0
    assert monomial_fraction_degree([7, 9], 1) == 7
    assert monomial_fraction_degree([67, 68], 1) == 67
    assert monomial_fraction_degree([67, 68], 0) == 1
    assert monomial_fraction_degree([67, 68], -3) is None


def test_positive_generators_required():
    with pytest.raises(ValueError):
        semigroup_contains([0, 3], 2)

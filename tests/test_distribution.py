"""Exact distributions on mask and probability arrays: validation, the
tuple view, TV distance, complements."""

import math

import numpy as np
import pytest

from splitsamp import (
    ExactDesignDistribution,
    InvalidInputError,
    containment,
    first_second_order,
)
from splitsamp.distribution import mask_units

from conftest import contains, random_fixed_size


def uniform_pairs(N):
    pairs = [(a, b) for a in range(N) for b in range(a + 1, N)]
    p = 1.0 / len(pairs)
    return ExactDesignDistribution.from_support(
        support={s: p for s in pairs}, N=N, n=2, source="uniform-pairs"
    )


def test_keys_sorted_and_merged():
    d = ExactDesignDistribution.from_support(
        support={(2, 0): 0.5, (0, 2): 0.25, (1, 0): 0.25}, N=3, n=2
    )
    assert d.support == {(0, 2): 0.75, (0, 1): 0.25}


def test_masks_merged_sorted_and_zeros_dropped():
    d = ExactDesignDistribution([6, 3, 6, 5], [0.25, 0.5, 0.25, 0.0], N=3, n=2)
    assert d.masks.tolist() == [3, 6]
    assert d.probs.tolist() == [0.5, 0.5]


def test_mask_out_of_range_rejected():
    with pytest.raises(InvalidInputError, match="range"):
        ExactDesignDistribution([3, 8], [0.5, 0.5], N=3, n=2)
    with pytest.raises(InvalidInputError, match="range"):
        ExactDesignDistribution([-1], [1.0], N=3, n=2)


def test_more_than_63_units_rejected():
    with pytest.raises(InvalidInputError, match="N <= 63"):
        ExactDesignDistribution([1], [1.0], N=64, n=1)
    with pytest.raises(InvalidInputError, match="N <= 63"):
        ExactDesignDistribution.from_support({(0, 63): 1.0}, N=64, n=2)


def test_support_is_the_tuple_map():
    d = ExactDesignDistribution([0b1001, 0b0110, 0b0111], [0.5, 0.25, 0.25], N=4, n=2)
    assert d.support == {(0, 3): 0.5, (1, 2): 0.25, (0, 1, 2): 0.25}
    assert d.support is d.support
    with pytest.raises(TypeError):
        d.support[(0, 3)] = 1.0


def test_mass_must_be_one():
    with pytest.raises(InvalidInputError, match="sum"):
        ExactDesignDistribution.from_support(support={(0,): 0.5}, N=2, n=1)


def test_pruned_mass_counts_toward_total():
    d = ExactDesignDistribution.from_support(
        support={(0,): 0.6, (1,): 0.4 - 1e-12}, N=2, n=1, pruned_mass=1e-12
    )
    assert d.total_mass() < 1.0


def test_tiny_negative_probability_clamped():
    d = ExactDesignDistribution.from_support(
        support={(0,): 1.0, (1,): -1e-16}, N=2, n=1
    )
    assert d.support == {(0,): 1.0}


def test_real_negative_probability_rejected():
    with pytest.raises(InvalidInputError, match="negative"):
        ExactDesignDistribution.from_support(support={(0,): 1.1, (1,): -0.1}, N=2, n=1)


def test_repeated_index_rejected():
    with pytest.raises(InvalidInputError, match="repeated"):
        ExactDesignDistribution.from_support(support={(0, 0): 1.0}, N=2, n=2)


def test_out_of_range_rejected():
    with pytest.raises(InvalidInputError, match="range"):
        ExactDesignDistribution.from_support(support={(0, 5): 1.0}, N=2, n=2)


def test_fixed_size_flag():
    d = uniform_pairs(4)
    assert d.fixed_size
    mixed = ExactDesignDistribution.from_support(
        support={(0,): 0.5, (0, 1): 0.5}, N=2, n=1
    )
    assert not mixed.fixed_size


def test_tv_distance():
    a = uniform_pairs(4)
    b = uniform_pairs(4)
    assert a.tv_distance(b) == 0.0
    point = ExactDesignDistribution.from_support(support={(0, 1): 1.0}, N=4, n=2)
    # Overlap is 1/6, so TV = 1 - 1/6.
    assert a.tv_distance(point) == pytest.approx(5.0 / 6.0)
    other = ExactDesignDistribution.from_support(support={(0,): 1.0}, N=2, n=1)
    with pytest.raises(InvalidInputError):
        a.tv_distance(other)


def test_tv_distance_partial_overlap():
    a = ExactDesignDistribution.from_support({(0, 1): 0.5, (0, 2): 0.5}, N=3, n=2)
    b = ExactDesignDistribution.from_support({(0, 2): 0.25, (1, 2): 0.75}, N=3, n=2)
    # |0.5 - 0| + |0.5 - 0.25| + |0 - 0.75| = 1.5.
    assert a.tv_distance(b) == b.tv_distance(a) == 0.75


def test_complement_is_involution():
    d = uniform_pairs(4)
    cc = d.complement().complement()
    assert d.tv_distance(cc) == 0.0
    assert d.complement().n == 2


def test_complement_sizes():
    d = ExactDesignDistribution.from_support(support={(0,): 0.5, (2,): 0.5}, N=3, n=1)
    c = d.complement()
    assert c.support == {(1, 2): 0.5, (0, 1): 0.5}
    assert c.n == 2


def test_dump_format():
    d = ExactDesignDistribution.from_support(
        support={(1, 2): 0.25, (0, 1): 0.75}, N=3, n=2
    )
    text = d.dump(ids=("a", "b", "c"))
    lines = text.strip().split("\n")
    assert lines[0] == "sample;probability"
    assert lines[1] == "a-b;0.75"
    assert lines[2] == "b-c;0.25"


def test_dump_rows_in_tuple_order_not_mask_order():
    # (0, 3) is mask 9 and (1, 2) mask 6, so the masks run the other way.
    d = ExactDesignDistribution.from_support({(1, 2): 0.25, (0, 3): 0.75}, N=4, n=2)
    assert d.masks.tolist() == [6, 9]
    assert d.dump() == "sample;probability\n0-3;0.75\n1-2;0.25\n"


def test_dump_rejects_bad_ids():
    d = uniform_pairs(3)
    with pytest.raises(InvalidInputError):
        d.dump(ids=("a",))


def test_containment_uniform_pairs():
    d = uniform_pairs(4)
    f = containment(d)
    assert f.shape == (16,)
    assert f[0] == pytest.approx(1.0)
    for mask in range(1, 16):
        size = bin(mask).count("1")
        expected = {1: 0.5, 2: 1.0 / 6.0}.get(size, 0.0)
        assert f[mask] == pytest.approx(expected), mask


def test_first_second_order():
    d = uniform_pairs(4)
    pi1, pi2 = first_second_order(d)
    assert np.allclose(pi1, 0.5)
    assert np.allclose(np.diag(pi2), pi1)
    off = pi2[~np.eye(4, dtype=bool)]
    assert np.allclose(off, 1.0 / 6.0)
    assert np.allclose(pi2, pi2.T)
    # Row sums of pi2 relate to the fixed size: sum_l pi_kl = n pi_k.
    assert np.allclose(pi2.sum(axis=1), 2 * pi1)


@pytest.mark.parametrize("seed", range(12))
def test_containment_matches_brute_force(seed):
    d = random_fixed_size(seed)
    f = containment(d)
    assert f.shape == (2**d.N,)
    for mask in range(2**d.N):
        assert f[mask] == pytest.approx(contains(d, *mask_units(mask)), abs=1e-15)


@pytest.mark.parametrize("seed", range(12))
def test_first_second_order_matches_brute_force(seed):
    d = random_fixed_size(seed)
    pi1, pi2 = first_second_order(d)
    for k in range(d.N):
        assert pi1[k] == pytest.approx(contains(d, k), abs=1e-15)
        for l in range(d.N):
            assert pi2[k, l] == pytest.approx(contains(d, k, l), abs=1e-15)

"""Exact distributions on mask and probability arrays: validation, the
tuple view, TV distance, complements."""

import math
import struct
import tracemalloc

import numpy as np
import pytest

from splitsamp import (
    ExactDesignDistribution,
    InvalidInputError,
    containment,
    first_second_order,
)
from splitsamp.distribution import MASS_TOL, _first_order, mask_units, set_sizes

from conftest import contains, dirichlet_design, random_fixed_size


def uniform_pairs(N):
    pairs = [(a, b) for a in range(N) for b in range(a + 1, N)]
    p = 1.0 / len(pairs)
    return ExactDesignDistribution.from_support(
        support={s: p for s in pairs}, N=N, n=2
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


def arrays(d):
    return d.masks.dtype.str, d.masks.tobytes(), d.probs.dtype.str, d.probs.tobytes()


def test_unsorted_repeated_and_zero_masks_give_the_sorted_arrays():
    sorted_ = dirichlet_design(8, 4, seed=27)
    masks, probs = sorted_.masks, sorted_.probs
    order = np.random.default_rng(27).permutation(masks.size)
    halves = np.r_[probs, probs] / 2.0
    assert np.all(halves[: probs.size] * 2.0 == probs)
    variants = [
        (masks.tolist(), probs.tolist()),
        (masks[order], probs[order]),
        (np.r_[masks, masks], halves),
        (np.r_[masks, [0, 0b11110000]], np.r_[probs, 0.0, -1e-16]),
    ]
    for m, p in variants:
        d = ExactDesignDistribution(m, p, N=8, n=4)
        assert arrays(d) == arrays(sorted_)
    # Sorted input is taken as it is, but not shared with the caller.
    d = ExactDesignDistribution(masks, probs, N=8, n=4)
    assert not np.shares_memory(d.masks, masks)
    assert not np.shares_memory(d.probs, probs)


@pytest.mark.parametrize("shuffle", [False, True], ids=["sorted", "shuffled"])
def test_checks_run_on_sorted_and_unsorted_masks(shuffle):
    def build(masks, probs):
        order = slice(None, None, -1 if shuffle else 1)
        return ExactDesignDistribution(np.array(masks)[order], np.array(probs)[order], N=3, n=2)

    build([3, 5, 6], [0.5, 0.25, 0.25])
    with pytest.raises(InvalidInputError, match="negative"):
        build([3, 5, 6], [0.5, 0.75, -0.25])
    with pytest.raises(InvalidInputError, match="range"):
        build([3, 5, 8], [0.5, 0.25, 0.25])
    with pytest.raises(InvalidInputError, match="sum"):
        build([3, 5, 6], [0.5, 0.25, 0.25 + 2 * MASS_TOL])
    build([3, 5, 6], [0.5, 0.25, 0.25 + MASS_TOL / 2])


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
    assert d.probs.sum() < 1.0


def test_tiny_negative_probability_clamped():
    d = ExactDesignDistribution.from_support(
        support={(0,): 1.0, (1,): -1e-16}, N=2, n=1
    )
    assert d.support == {(0,): 1.0}


def test_real_negative_probability_rejected():
    with pytest.raises(InvalidInputError, match="negative"):
        ExactDesignDistribution.from_support(support={(0,): 1.1, (1,): -0.1}, N=2, n=1)


def test_nan_probability_rejected():
    # NaN is not below the floor either, so a check for negatives alone
    # would let it through and drop it with the non-positive entries.
    with pytest.raises(InvalidInputError, match=r"NaN probability nan for \(1,\)"):
        ExactDesignDistribution.from_support(support={(0,): 1.0, (1,): math.nan}, N=2, n=1)


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


def test_fixed_size_counts_bits_without_the_membership_matrix():
    # The 210 x 10 membership matrix and its row sums peaked at 51,872
    # bytes under tracemalloc (Python 3.11.7, numpy 2.4.6).
    dist = dirichlet_design(10, 6)
    assert dist.fixed_size
    tracemalloc.start()
    try:
        assert dist.fixed_size
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000
    # Bits in every byte of an int64 mask count, up to unit 62.
    top = [(0, 62), (7, 8), (55, 56), (3, 61)]
    wide = ExactDesignDistribution.from_support({s: 0.25 for s in top}, N=63, n=2)
    assert wide.fixed_size
    ragged = top[:3] + [(3, 9, 61)]
    assert not ExactDesignDistribution.from_support(
        {s: 0.25 for s in ragged}, N=63, n=2
    ).fixed_size


@pytest.mark.parametrize("N", [0, 1, 5, 8, 9, 12, 17])
def test_set_sizes_counts_bits(N):
    sizes = set_sizes(N)
    assert sizes.dtype == np.int64
    assert sizes.tolist() == [bin(a).count("1") for a in range(1 << N)]
    sizes[:] = 0
    assert set_sizes(N)[-1] == N


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


def unique_tv(a, b):
    """TV by ``np.unique`` over both mask arrays and ``np.bincount`` of the
    gap: the recipe the sorted merge replaced, kept for its bytes."""
    _, merged = np.unique(np.r_[a.masks, b.masks], return_inverse=True)
    gap = np.bincount(merged, weights=np.r_[a.probs, -b.probs])
    return 0.5 * float(np.abs(gap).sum())


def sub_design(d, keep):
    """The masks of ``d`` at ``keep``, with their probabilities rescaled
    to sum to 1."""
    probs = d.probs[keep]
    return ExactDesignDistribution(d.masks[keep], probs / probs.sum(), d.N, d.n)


@pytest.mark.parametrize("seed", range(6))
def test_tv_distance_merge_equals_the_unique_recipe(seed):
    d = dirichlet_design(9, 4, seed=seed)
    other = dirichlet_design(9, 4, seed=seed + 100)
    half = np.random.default_rng(seed).permutation(d.masks.size)
    low, high = np.sort(half[: half.size // 2]), np.sort(half[half.size // 2 :])
    pairs = {
        "identical": (d, dirichlet_design(9, 4, seed=seed)),
        "same-support": (d, other),
        "disjoint": (sub_design(d, low), sub_design(other, high)),
        "nested": (d, sub_design(other, low[::3])),
        "one-mask": (sub_design(d, [0]), sub_design(other, [d.masks.size - 1])),
    }
    for name, (a, b) in pairs.items():
        for x, y in ((a, b), (b, a)):
            tv = x.tv_distance(y)
            assert struct.pack("<d", tv) == struct.pack("<d", unique_tv(x, y)), name
    assert pairs["identical"][0].tv_distance(pairs["identical"][1]) == 0.0
    assert pairs["disjoint"][0].tv_distance(pairs["disjoint"][1]) == pytest.approx(1.0)


def test_dump_format():
    d = ExactDesignDistribution.from_support(
        support={(1, 2): 0.25, (0, 1): 0.75}, N=3, n=2
    )
    lines = d.dump().strip().split("\n")
    assert lines[0] == "sample;probability"
    assert lines[1] == "0-1;0.75"
    assert lines[2] == "1-2;0.25"


def test_dump_rows_in_tuple_order_not_mask_order():
    # (0, 3) is mask 9 and (1, 2) mask 6, so the masks run the other way.
    d = ExactDesignDistribution.from_support({(1, 2): 0.25, (0, 3): 0.75}, N=4, n=2)
    assert d.masks.tolist() == [6, 9]
    assert d.dump() == "sample;probability\n0-3;0.75\n1-2;0.25\n"


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


@pytest.mark.parametrize("seed", range(12))
def test_first_order_alone_is_pi1_to_the_bit(seed):
    d = random_fixed_size(seed)
    assert _first_order(d).tobytes() == first_second_order(d)[0].tobytes()

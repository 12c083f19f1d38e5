"""Exhaustive enumeration and the structural checks built on it.

Negative controls matter here as much as the green paths: each checker
is pointed at a hand-built distribution that violates its property, so
a checker that silently passes everything cannot survive this module.
"""

import dataclasses
import hashlib
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest

from splitsamp import (
    CsygReport,
    DesignKind,
    EnumerationBudgetError,
    ExactDesignDistribution,
    InclusionProbabilities,
    InvalidInputError,
    check_csyg,
    compute_pips,
    enumerate_design,
    first_second_order,
    midzuno_complementarity_tv,
    oracle,
    unbiasedness_check,
)
from splitsamp.designs import chao_plan, midzuno_plan, tille_plan
from splitsamp.distribution import containment, mask_units, members, set_sizes
from splitsamp.oracle import _SKIP_TOL, DEFAULT_MAX_BRANCHES, MAX_ENUM_N, PRUNE_TOL

from conftest import (
    UNEQUAL_DESIGNS,
    X_CERTAIN,
    contains,
    dirichlet_design,
    random_fixed_size,
)


def _random_case(seed, N, certain):
    """Sizes from U(1, 2) at n = N // 2, with ``certain`` units made
    large enough to be certainty units, at seeded positions.  At these
    n no U(1, 2) size is capped at the start."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(1.0, 2.0, N)
    x[:certain] = 10.0 * x[certain:].sum()
    return rng.permutation(x), N // 2


# x = 1..6 at n = 3, 8 units of X_CERTAIN at n = 4, where unit 7 (size
# 40) is a certainty unit, and seeded random instances with N from 6 to
# 10, with and without certainty units.
RANDOM_SHAPES = [(6, 0), (7, 1), (8, 0), (9, 2), (10, 1)]
RECURSION_CASES = [
    (np.arange(1.0, 7.0), 3),
    (X_CERTAIN[[0, 2, 4, 6, 8, 9, 10, 11]], 4),
] + [_random_case(seed, N, c) for seed, (N, c) in enumerate(RANDOM_SHAPES)]
RECURSION_IDS = ["x123456", "certain"] + [
    f"random-N{N}-certain{c}" for N, c in RANDOM_SHAPES
]


class TestEnumerateSrswor:
    def test_uniform_support(self):
        dist = enumerate_design(DesignKind.SRSWOR, N=4, n=2)
        assert len(dist.support) == comb(4, 2)
        for p in dist.support.values():
            assert p == pytest.approx(1 / 6, abs=1e-15)
        assert dist.fixed_size

    def test_accepts_equal_pi(self):
        from splitsamp import InclusionProbabilities

        pi = InclusionProbabilities(pi=np.full(4, 0.5), n=2)
        dist = enumerate_design(DesignKind.SRSWOR, pi=pi)
        assert len(dist.support) == 6

    def test_rejects_unequal_pi(self):
        # Enumerating the uniform law here would leave the HT estimator
        # with these pi biased.
        pi = compute_pips(np.arange(1.0, 7.0), 3)
        with pytest.raises(InvalidInputError, match="n/N"):
            enumerate_design(DesignKind.SRSWOR, pi=pi)


class TestEnumerateUnequal:
    @pytest.mark.parametrize("kind", UNEQUAL_DESIGNS, ids=lambda k: k.value)
    def test_mass_sums_to_one(self, enumerated_123456, kind):
        dist = enumerated_123456[kind]
        assert sum(dist.support.values()) == pytest.approx(1.0, abs=1e-9)
        assert dist.fixed_size
        assert dist.pruned_mass <= 1e-9

    @pytest.mark.parametrize("kind", UNEQUAL_DESIGNS, ids=lambda k: k.value)
    def test_inclusion_probabilities_match(
        self, enumerated_123456, pi123456, kind
    ):
        pi_hat, _ = first_second_order(enumerated_123456[kind])
        assert np.max(np.abs(pi_hat - pi123456.pi)) <= 1e-9

    @pytest.mark.parametrize(
        "kind, n",
        [
            (DesignKind.BREWER, 8),
            (DesignKind.GENERALIZED_MIDZUNO, 8),
            (DesignKind.TILLE_ELIMINATION, 2),
        ],
        ids=["brewer-8", "midzuno-8", "tille-2"],
    )
    def test_full_trees_at_n_10(self, kind, n):
        # Ordered, these trees have perm(10, 8) = 1,814,400 paths.
        x = np.linspace(1.0, 1.4, 10)
        pi = compute_pips(x, n)
        assert not pi.certain.any()
        dist = enumerate_design(kind, x=x, pi=pi)
        assert sum(dist.support.values()) == pytest.approx(1.0, abs=1e-12)
        assert dist.fixed_size
        pi_hat, _ = first_second_order(dist)
        assert np.max(np.abs(pi_hat - pi.pi)) <= 1e-12

    @pytest.mark.parametrize(
        "pi, sample",
        [
            (np.array([1.0, 1.0, 1e-10]), (0, 1)),
            (np.array([1.0, 1.0 - 2e-12]), (0, 1)),
        ],
        ids=["no-active-draw", "every-active-drawn"],
    )
    def test_midzuno_without_random_draws(self, pi, sample):
        # pi within the sum tolerance of the certainty units alone, or of
        # every unit: no ladder, one sample.
        from splitsamp import InclusionProbabilities

        pi = InclusionProbabilities(pi=pi, n=len(sample))
        dist = enumerate_design(DesignKind.GENERALIZED_MIDZUNO, pi=pi)
        assert dist.support == {sample: 1.0}

    @pytest.mark.parametrize(
        "kind",
        [DesignKind.TILLE_ELIMINATION, DesignKind.GENERALIZED_MIDZUNO],
        ids=lambda k: k.value,
    )
    def test_rising_rung_rejected(self, monkeypatch, kind):
        # Rung 2 at 1.1 times rung 1 raises every uncapped unit's
        # probability at step 1: a negative elimination (Midzuno:
        # selection) law there, whichever unit a state still holds.
        from splitsamp import ContractViolationError, designs

        def rise(ladder):
            lam = ladder.lam.copy()
            lam[2] = 1.1 * lam[1]
            return dataclasses.replace(ladder, lam=lam)

        def midzuno_plan(pi):
            plan = midzuno(pi)
            return dataclasses.replace(plan, ladder=rise(plan.ladder))

        tille, midzuno = designs.tille_plan, designs.midzuno_plan
        monkeypatch.setattr(designs, "tille_plan", lambda x, n: rise(tille(x, n)))
        monkeypatch.setattr(designs, "midzuno_plan", midzuno_plan)
        x = np.arange(1.0, 7.0)
        with pytest.raises(ContractViolationError, match="negative"):
            enumerate_design(kind, x=x, n=3)

    def test_designs_differ(self, enumerated_123456):
        # Same margins, different joint laws: the four supports are not
        # all identical as distributions.
        dists = [enumerated_123456[k] for k in UNEQUAL_DESIGNS]
        probs = [
            tuple(sorted(d.support.items())) for d in dists
        ]
        assert len(set(probs)) > 1


class TestBudget:
    def test_branch_budget(self):
        x = np.arange(1.0, 7.0)
        with pytest.raises(EnumerationBudgetError, match="branches"):
            enumerate_design(
                DesignKind.TILLE_ELIMINATION, x=x, n=3, max_branches=10
            )

    @pytest.mark.parametrize(
        "case, counts",
        [(0, (32, 36, 36, 96)), (1, (135, 147, 101, 154))],
        ids=RECURSION_IDS[:2],
    )
    def test_budget_counts_every_move(self, case, counts):
        # One transition per move out of a state, those of probability
        # zero included, for Chao, Tille, Midzuno and Brewer.
        x, n = RECURSION_CASES[case]
        for kind, count in zip(UNEQUAL_DESIGNS, counts):
            enumerate_design(kind, x=x, n=n, max_branches=count)
            with pytest.raises(EnumerationBudgetError, match="branches"):
                enumerate_design(kind, x=x, n=n, max_branches=count - 1)

    def test_population_cap(self):
        x = np.ones(MAX_ENUM_N + 1)
        with pytest.raises(InvalidInputError, match=str(MAX_ENUM_N)):
            enumerate_design(DesignKind.CHAO, x=x, n=2)

    def test_rejects_n_or_N_that_pi_does_not_have(self):
        x = np.arange(1.0, 7.0)
        pi = compute_pips(x, 3)
        with pytest.raises(InvalidInputError, match="pi has n="):
            enumerate_design(DesignKind.TILLE_ELIMINATION, x=x, pi=pi, n=4)
        with pytest.raises(InvalidInputError, match="pi has n="):
            enumerate_design(DesignKind.BREWER, pi=pi, N=5)

    def test_default_budget_is_generous(self):
        assert DEFAULT_MAX_BRANCHES >= 10**6
        assert PRUNE_TOL <= 1e-12


class TestCsyg:
    def test_clean_on_fixture(self, enumerated_123456):
        for kind in (
            DesignKind.CHAO,
            DesignKind.TILLE_ELIMINATION,
            DesignKind.GENERALIZED_MIDZUNO,
        ):
            rpt = check_csyg(enumerated_123456[kind])
            assert isinstance(rpt, CsygReport)
            assert rpt.max_violation <= 1e-12, kind
            assert rpt.checked_count > 0

    def test_detects_violation(self):
        # Two disjoint pairs, each with mass 1/2: pi_k = 1/2 for all k,
        # pi_01 = 1/2 > pi_0 pi_1 = 1/4 already at I = ().
        bad = ExactDesignDistribution.from_support(
            support={(0, 1): 0.5, (2, 3): 0.5}, N=4, n=2
        )
        rpt = check_csyg(bad)
        assert rpt.max_violation == pytest.approx(0.25, abs=1e-12)
        assert rpt.witness is not None
        cond_set, k, length = rpt.witness[0], rpt.witness[1], len(rpt.witness)
        assert cond_set == ()
        assert length == 3

    def test_skips_thin_conditioning_sets(self):
        # Conditioning on unit 3 has probability 0 and must be skipped.
        point = ExactDesignDistribution.from_support(support={(0, 1, 2): 1.0}, N=4, n=3)
        rpt = check_csyg(point)
        assert rpt.skipped_sets >= 1
        assert rpt.max_violation <= 0.0


    def test_witnesses_are_sorted_and_attain_the_maxima(self):
        # A 4-of-5 design whose witness conditioning set must come out
        # sorted.
        subsets = list(combinations(range(5), 4))
        rng = np.random.default_rng(0)
        for _ in range(985):
            masses = rng.dirichlet(np.full(len(subsets), 0.3))
        dist = ExactDesignDistribution.from_support(
            support=dict(zip(subsets, masses)), N=5, n=4
        )
        rpt = check_csyg(dist)
        I, k, l = rpt.witness
        assert list(I) == sorted(I)
        fI = contains(dist, *I)
        v = contains(dist, *I, k, l) / fI - (
            contains(dist, *I, k) / fI
        ) * (contains(dist, *I, l) / fI)
        assert rpt.max_violation == pytest.approx(v, abs=1e-15)

    def test_rejects_a_population_too_large_for_its_table(self):
        census = ExactDesignDistribution.from_support(
            support={tuple(range(21)): 1.0}, N=21, n=21
        )
        with pytest.raises(InvalidInputError, match="N <= 20"):
            check_csyg(census)


def brute_csyg(dist, skip_tol=1e-12):
    """(checked, skipped, max violation), looping over conditioning sets
    and pairs with sums over the support map."""
    checked = skipped = 0
    max_v = -np.inf
    for size in range(max(dist.n - 1, 0)):
        for I in combinations(range(dist.N), size):
            fI = contains(dist, *I)
            if fI <= skip_tol:
                skipped += 1
                continue
            rest = [k for k in range(dist.N) if k not in I]
            for k, l in combinations(rest, 2):
                fk, fl = contains(dist, *I, k), contains(dist, *I, l)
                fkl = contains(dist, *I, k, l)
                checked += 1
                max_v = max(max_v, fkl / fI - (fk / fI) * (fl / fI))
    return checked, skipped, max_v


@pytest.mark.parametrize("seed", range(12))
class TestReference:
    """Each check against a brute-force sum over a random support map."""

    def test_csyg(self, seed):
        dist = random_fixed_size(seed)
        rpt = check_csyg(dist)
        checked, skipped, max_v = brute_csyg(dist)
        assert (rpt.checked_count, rpt.skipped_sets) == (checked, skipped)
        assert rpt.max_violation == pytest.approx(max_v, abs=1e-14)

    def test_pairwise_na(self, seed):
        dist = random_fixed_size(seed)
        worst = max(
            (
                contains(dist, k, l) - contains(dist, k) * contains(dist, l)
                for k, l in combinations(range(dist.N), 2)
            ),
            default=-np.inf,
        )
        assert check_csyg(dist).max_covariance == pytest.approx(worst, abs=1e-15)

    def test_unbiasedness(self, seed):
        dist = random_fixed_size(seed)
        rng = np.random.default_rng(seed)
        y = rng.uniform(0.5, 2.0, dist.N)
        pi = rng.uniform(0.2, 1.0, dist.N)
        mean = sum(p * sum(y[k] / pi[k] for k in s) for s, p in dist.support.items())
        gap = abs(mean - y.sum())
        assert unbiasedness_check(dist, y, pi) == pytest.approx(gap, abs=1e-12)


def pairwise_csyg(dist: ExactDesignDistribution) -> CsygReport:
    """The conditional scan one pair {k, l} at a time over all its
    conditioning sets: ``check_csyg`` as it was before it took blocks of
    pairs in one array pass, kept as the reference for its report.  The
    covariance fields come from the pairs' I = () cells, which lead each
    pair's cells when n >= 2 and are worked out alone when n < 2."""
    if not dist.fixed_size:
        raise InvalidInputError("the conditional scan needs a fixed-size design")
    f = containment(dist)
    eligible = set_sizes(dist.N) <= dist.n - 2
    live = np.flatnonzero(eligible & (f > _SKIP_TOL))
    max_v = max_c = -math.inf
    wit = pair_c = None
    checked = 0
    for k, l in combinations(range(dist.N), 2):
        bk, bl = 1 << k, 1 << l
        I = live[(live & (bk | bl)) == 0]
        fI, fk, fl, fkl = f[I], f[I | bk], f[I | bl], f[I | bk | bl]
        v = fkl / fI - (fk / fI) * (fl / fI)
        if I.size and I[0] == 0:
            cov = v[0]
        else:
            cov = f[bk | bl] / f[0] - (f[bk] / f[0]) * (f[bl] / f[0])
        if cov > max_c:
            max_c, pair_c = float(cov), (k, l)
        if I.size == 0:
            continue
        checked += I.size
        i = int(v.argmax())
        if v[i] > max_v:
            max_v, wit = float(v[i]), (mask_units(int(I[i])), k, l)
    return CsygReport(
        max_violation=max_v,
        witness=wit,
        checked_count=checked,
        skipped_sets=int(np.count_nonzero(eligible)) - live.size,
        max_covariance=max_c,
        covariance_pair=pair_c,
    )


def report_fields(rpt: CsygReport) -> tuple:
    """Every field of a report, floats by their bytes (so -0.0 is not
    0.0) and the rest by repr (so a numpy integer is not an int)."""
    return tuple(
        struct.pack("<d", value) if isinstance(value, float) else repr(value)
        for value in dataclasses.astuple(rpt)
    )


def assert_same_report(dist):
    assert report_fields(check_csyg(dist)) == report_fields(pairwise_csyg(dist))


# The benchmark's exact-checks instances: (N, n, certainty units), with
# evenly spread sizes jittered by up to 2%.
EXACT_CHECKS_SHAPES = (
    (7, 2, 0), (8, 4, 0), (9, 3, 1), (8, 5, 0), (9, 3, 0), (10, 6, 4), (8, 6, 2)
)


def exact_checks_sizes(rng, N, n, c):
    free, draws = N - c, n - c
    spread = 2.0 if draws <= 1 else min(2.0, 0.9 * (free - draws) / (draws - 1))
    x = (1.0 + spread * (np.arange(N) + 0.5) / N) * rng.uniform(0.98, 1.02, N)
    x[:c] = 10.0 * x[c:].sum()
    return x


class TestCsygMatchesPairwiseScan:
    """``check_csyg`` reports what the pair-by-pair scan reports, field
    for field and floats to the bit, witnesses included."""

    @pytest.mark.parametrize("seed", range(3))
    def test_exact_checks_instances(self, seed):
        rng = np.random.default_rng([seed, 25])
        for N, n, c in EXACT_CHECKS_SHAPES:
            x = exact_checks_sizes(rng, N, n, c)
            pi = compute_pips(x, n)
            assert np.count_nonzero(pi.certain) == c
            assert_same_report(enumerate_design(DesignKind.SRSWOR, N=N, n=n))
            for kind in UNEQUAL_DESIGNS:
                assert_same_report(enumerate_design(kind, x=x, pi=pi))

    @pytest.mark.parametrize("N, n", [(8, 4), (10, 6)])
    def test_tied_srswor(self, N, n):
        # Every pair ties with every other, so only the order of the
        # scan picks the witnesses.
        assert_same_report(enumerate_design(DesignKind.SRSWOR, N=N, n=n))

    @pytest.mark.parametrize("N", range(4, 13))
    def test_random_full_support(self, N):
        for n in range(1, N + 1):
            assert_same_report(dirichlet_design(N, n, seed=N * 100 + n))

    def test_tied_integer_weights(self):
        # Weights 0, 1 or 2 on the n-subsets: equal maxima in different
        # pairs and on both sides of one pair are common, so the order
        # in which ties are broken decides the witnesses.
        for seed in range(200):
            rng = np.random.default_rng([seed, 25])
            N = int(rng.integers(4, 8))
            n = int(rng.integers(2, N))
            subsets = list(combinations(range(N), n))
            w = rng.integers(0, 3, len(subsets))
            if w.sum() == 0:
                continue
            support = {s: x / w.sum() for s, x in zip(subsets, w) if x}
            assert_same_report(ExactDesignDistribution.from_support(support, N=N, n=n))

    def test_the_sorted_witness_case(self):
        # The 4-of-5 design of test_witnesses_are_sorted_and_attain_the_maxima.
        subsets = list(combinations(range(5), 4))
        rng = np.random.default_rng(0)
        for _ in range(985):
            masses = rng.dirichlet(np.full(len(subsets), 0.3))
        support = dict(zip(subsets, masses))
        assert_same_report(ExactDesignDistribution.from_support(support, N=5, n=4))

    def test_thin_random_support(self):
        for seed in range(12):
            assert_same_report(random_fixed_size(seed))

    def test_8_of_16(self):
        assert_same_report(dirichlet_design(16, 8, seed=16))

    def test_conditioning_sets_of_zero_mass(self):
        # Unit 4 is never drawn and unit 5 has P = 1.25e-13, so the
        # scan must skip I = (4,) without dividing by zero, and I = (5,)
        # as thin.
        support = {s: 1.0 for s in combinations(range(4), 3)}
        support[(0, 1, 5)] = 5e-13
        total = sum(support.values())
        dist = ExactDesignDistribution.from_support(
            support={s: w / total for s, w in support.items()}, N=6, n=3
        )
        f = containment(dist)
        assert f[1 << 4] == 0.0 and 0.0 < f[1 << 5] <= _SKIP_TOL
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_same_report(dist)

    def test_scan_memory(self):
        # The pair-by-pair scan peaked at 51,872 bytes on this design
        # under tracemalloc (Python 3.11.7, numpy 2.4.6); a block of
        # pairs must not hold more.
        dist = dirichlet_design(10, 6)
        check_csyg(dist)
        tracemalloc.start()
        try:
            check_csyg(dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 51_872


def unique_levels(start: int, steps: int, moves, max_branches: int):
    """``oracle._levels`` as it was before it merged each level densely,
    by ``np.unique`` over the children and ``np.bincount`` over their
    inverse: kept as the reference for its bytes and its budget."""
    masks, probs = np.array([start], dtype=np.int64), np.ones(1)
    pruned = 0.0
    transitions = 0
    for j in range(steps):
        children, w = moves(j, masks)
        transitions += int(np.count_nonzero(children >= 0))
        if transitions > max_branches:
            raise EnumerationBudgetError(
                f"enumeration needs more than {max_branches} branches (transitions)"
            )
        mass = probs[:, None] * w
        small = w < PRUNE_TOL
        pruned += float(mass[small].sum())
        masks, merged = np.unique(children[~small], return_inverse=True)
        probs = np.bincount(merged, weights=mass[~small])
    return masks, probs, pruned


CHAINS = {
    DesignKind.CHAO: lambda x, pi: oracle._ladder_chain(
        chao_plan(x, pi.n), oracle._BITS[: pi.N], pi.n, lambda j: f"chao step {j}", 0
    ),
    DesignKind.TILLE_ELIMINATION: lambda x, pi: oracle._ladder_chain(
        tille_plan(x, pi.n), oracle._BITS[: pi.N], pi.N, lambda j: f"tille step {j}", 0
    ),
    DesignKind.GENERALIZED_MIDZUNO: lambda x, pi: oracle._midzuno_chain(pi),
    DesignKind.BREWER: lambda x, pi: oracle._brewer_chain(pi),
}


def unique_enumeration(kind, x, pi):
    """The distribution ``enumerate_design`` built before the dense merge:
    the reference levels, XORed to samples and merged by construction;
    SRSWOR's samples in ``combinations`` order."""
    if kind is DesignKind.SRSWOR:
        masks = [sum(1 << k for k in s) for s in combinations(range(pi.N), pi.n)]
        return ExactDesignDistribution(masks, np.full(len(masks), 1 / len(masks)), pi.N, pi.n)
    start, steps, moves, flip = CHAINS[kind](x, pi)
    masks, probs, pruned = unique_levels(start, steps, moves, DEFAULT_MAX_BRANCHES)
    return ExactDesignDistribution(masks ^ flip, probs, pi.N, pi.n, pruned)


def dist_bytes(dist) -> tuple:
    return (
        dist.masks.dtype.str,
        dist.masks.tobytes(),
        dist.probs.tobytes(),
        struct.pack("<d", dist.pruned_mass),
    )


def assert_same_enumeration(x, pi):
    for kind in DesignKind:
        if kind is DesignKind.SRSWOR:
            dist = enumerate_design(kind, N=pi.N, n=pi.n)
        else:
            dist = enumerate_design(kind, x=x, pi=pi)
        assert dist_bytes(dist) == dist_bytes(unique_enumeration(kind, x, pi)), kind


def loop_rungs(ladder):
    """``oracle._rung_ratios``'s rungs as a loop of ``ladder.pi(s)``, one
    call per rung: the reference for the array expression's bytes."""
    return np.array([ladder.pi(s) for s in range(ladder.steps + 1)])


@pytest.mark.parametrize("seed", range(4))
def test_rung_ratios_equal_the_loop_of_rungs(seed):
    rng = np.random.default_rng(seed)
    frames = [
        _random_case(seed, 10, 2),
        (X_CERTAIN, 4),
        (np.repeat([1.0, 2.0, 4.0], [5, 4, 3]), 5),
        (rng.lognormal(0.0, 1.5, 40), 12),
    ]
    for x, n in frames:
        ladders = [tille_plan(x, n), chao_plan(x, n)]
        midzuno = midzuno_plan(compute_pips(x, n)).ladder
        ladders += [midzuno] if midzuno is not None else []
        for ladder in ladders:
            rungs, ratios = oracle._rung_ratios(ladder)
            loop = loop_rungs(ladder)
            assert rungs.dtype == loop.dtype and rungs.shape == loop.shape
            assert rungs.tobytes() == loop.tobytes()
            expect = np.ones((ladder.steps, ladder.N))
            np.divide(loop[1:], loop[:-1], out=expect, where=loop[:-1] > 0)
            assert ratios.tobytes() == (1.0 - expect).tobytes()


class TestDenseMerge:
    """Merging each level densely gives the distributions and the budget
    that ``np.unique`` gave, to the bit."""

    @pytest.mark.parametrize("seed", range(3))
    def test_exact_checks_instances(self, seed):
        rng = np.random.default_rng([seed, 27])
        for N, n, c in EXACT_CHECKS_SHAPES:
            x = exact_checks_sizes(rng, N, n, c)
            assert_same_enumeration(x, compute_pips(x, n))

    @pytest.mark.parametrize("N", range(3, 11))
    def test_random_instances(self, N):
        # Lognormal sizes make certainty units and capped shares common.
        rng = np.random.default_rng([N, 27])
        for _ in range(6):
            x = rng.lognormal(0.0, 1.5, N)
            assert_same_enumeration(x, compute_pips(x, int(rng.integers(1, N))))

    @pytest.mark.parametrize("N", [12, 14, 16])
    @pytest.mark.parametrize("kind", UNEQUAL_DESIGNS[:3], ids=lambda k: k.value)
    def test_chains_beyond_the_enumeration_cap(self, kind, N):
        x = np.random.default_rng(N).uniform(1.0, 2.0, N)
        start, steps, moves, _ = CHAINS[kind](x, compute_pips(x, N // 2))
        dense = oracle._levels(start, steps, moves, DEFAULT_MAX_BRANCHES)
        unique = unique_levels(start, steps, moves, DEFAULT_MAX_BRANCHES)
        assert dense[0].dtype == unique[0].dtype
        assert dense[0].tobytes() == unique[0].tobytes()
        assert dense[1].tobytes() == unique[1].tobytes()
        assert struct.pack("<d", dense[2]) == struct.pack("<d", unique[2])

    def test_budget_at_the_reference_count(self):
        rng = np.random.default_rng([0, 27])
        for N, n, c in EXACT_CHECKS_SHAPES:
            x = exact_checks_sizes(rng, N, n, c)
            pi = compute_pips(x, n)
            for kind in UNEQUAL_DESIGNS:
                start, steps, moves, _ = CHAINS[kind](x, pi)
                # The least budget the reference passes: its transitions.
                lo, hi = 0, DEFAULT_MAX_BRANCHES
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    try:
                        unique_levels(start, steps, moves, mid)
                        hi = mid
                    except EnumerationBudgetError:
                        lo = mid
                oracle._levels(start, steps, moves, hi)
                with pytest.raises(EnumerationBudgetError, match="branches"):
                    oracle._levels(start, steps, moves, hi - 1)


def pin_cases():
    """Seeded (x, pi) instances for every N from 1 to 10: uniform,
    lognormal, tied and certainty-unit sizes, and sizes with a few units
    some 1e-15 times the rest, whose tiny moves are pruned; then n = N,
    and two cases given as pi: n' = N' (every active unit within 1e-10
    of 1) and n' = 0 (the certainty units fill the sample, the other
    units at pi below 1e-11), where Chao and Tille run on the pi as x;
    last N = 10 with 1 to 9 - n units some 1e-15 times the rest at the
    end of the stream, for n from 1 to 7."""
    rng = np.random.default_rng([35, 1])
    cases = []
    for N in range(1, 11):
        for shape in ("uniform", "lognormal", "ties", "certain", "tiny"):
            x = rng.uniform(1.0, 2.0, N)
            n = int(rng.integers(1, N + 1))
            if shape == "lognormal":
                x = rng.lognormal(0.0, 1.5, N)
            elif shape == "ties":
                x = rng.integers(1, 4, N).astype(float)
            elif shape == "certain":
                c = int(rng.integers(0, N))
                x[:c] = 10.0 * x.sum()
                x = rng.permutation(x)
            elif shape == "tiny":
                if N < 3:
                    continue
                n = int(rng.integers(1, N // 2 + 1))
                k = int(rng.integers(1, N - n))
                x[:k] = 10.0 ** -rng.uniform(15.0, 16.0, k)
                x = rng.permutation(x)
            cases.append((x, compute_pips(x, n)))
    for N in range(1, 11):
        x = rng.uniform(1.0, 2.0, N)
        cases.append((x, compute_pips(x, N)))
        a = int(rng.integers(1, N + 1))
        p = np.concatenate([1.0 - rng.uniform(1e-11, 1e-10, a), np.ones(N - a)])
        cases.append((p, InclusionProbabilities(pi=p, n=N)))
        if N > 1:
            c = int(rng.integers(1, N))
            p = rng.permutation(
                np.concatenate([np.ones(c), rng.uniform(1e-12, 1e-11, N - c)])
            )
            cases.append((p, InclusionProbabilities(pi=p, n=c)))
    for n in range(1, 8):
        for k in range(1, 10 - n):
            # k tiny units last: as each arrives, Chao prunes the
            # members' leaving moves, several of them in one level.
            x = np.concatenate(
                [rng.uniform(1.0, 2.0, 10 - k), 10.0 ** -rng.uniform(15.0, 16.0, k)]
            )
            cases.append((x, compute_pips(x, n)))
    return cases


def pin_enumerate(kind, x, pi, max_branches=DEFAULT_MAX_BRANCHES):
    """Chao and Tille from x and n, Midzuno and Brewer from pi."""
    if kind in UNEQUAL_DESIGNS[:2]:
        return enumerate_design(kind, x=x, n=pi.n, max_branches=max_branches)
    return enumerate_design(kind, pi=pi, max_branches=max_branches)


def least_budget(kind, x, pi) -> int:
    """The least ``max_branches`` the enumeration passes: doubling, then
    bisection."""
    def passes(budget):
        try:
            pin_enumerate(kind, x, pi, budget)
        except EnumerationBudgetError:
            return False
        return True

    lo, hi = -1, 1
    while not passes(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if passes(mid) else (mid, hi)
    return hi


# SHA-256 of pin_digest() at the commit before the three elimination
# chains became one: every distribution, pruned mass, complementarity
# distance and least passing budget must keep its bits.
EXACT_LAYER_PIN = "a261a5883df7ec916c3dc5ac7df8af4db2431076aae6742e272f78f299477bbe"


def pin_digest() -> str:
    """One hash over, for each pin case, the masks, probabilities and
    pruned mass of Chao, Tille, Midzuno and Brewer with the least budget
    each passes, then the complementarity distance."""
    h = hashlib.sha256()
    for x, pi in pin_cases():
        for kind in UNEQUAL_DESIGNS:
            dist = pin_enumerate(kind, x, pi)
            h.update(dist.masks.astype("<i8").tobytes())
            h.update(dist.probs.astype("<f8").tobytes())
            h.update(struct.pack("<dq", dist.pruned_mass, least_budget(kind, x, pi)))
        h.update(struct.pack("<d", midzuno_complementarity_tv(pi)))
    return h.hexdigest()


def test_exact_layer_keeps_its_bits():
    assert pin_digest() == EXACT_LAYER_PIN


def test_pin_cases_cover_the_edges():
    cases = pin_cases()
    active = [pi.n - np.count_nonzero(pi.certain) for _, pi in cases]
    free = [np.count_nonzero(~pi.certain) for _, pi in cases]
    assert any(a == 0 < f for a, f in zip(active, free))
    assert any(0 < a == f for a, f in zip(active, free))
    assert any(pi.n == pi.N for _, pi in cases)
    assert any(np.unique(x).size < x.size for x, _ in cases)
    pruned = {
        kind for kind in UNEQUAL_DESIGNS for x, pi in cases
        if pin_enumerate(kind, x, pi).pruned_mass > 0.0
    }
    assert pruned == {DesignKind.CHAO, DesignKind.BREWER}


# Runs in a fresh interpreter, where no earlier call at N = 10 has filled
# a cache: warm up at N = 9, then enumerate and scan every design at
# N = 10 and print the bytes that are still held once the results go.
HELD_AFTER_CHECKS = """
import tracemalloc
import numpy as np
from splitsamp import DesignKind, check_csyg, enumerate_design

def run(N):
    x = np.linspace(1.0, 2.0, N)
    for kind in DesignKind:
        check_csyg(enumerate_design(kind, x=x, n=N // 2, N=N))

run(9)
tracemalloc.start()
run(10)
print(tracemalloc.get_traced_memory()[0])
"""


def test_checks_keep_no_table_of_every_set():
    # A 2^10 table of int64 or float64 is 8,192 bytes.
    env = {**os.environ, "PYTHONPATH": str(Path(oracle.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", HELD_AFTER_CHECKS],
        env=env, capture_output=True, text=True, check=True,
    )
    assert int(out.stdout) < 8_192


class TestPairwise:
    def test_negative_on_fixture(self, enumerated_123456):
        for kind in UNEQUAL_DESIGNS:
            assert check_csyg(enumerated_123456[kind]).max_covariance < 0.0, kind

    def test_positive_on_clustered_design(self):
        bad = ExactDesignDistribution.from_support(
            support={(0, 1): 0.5, (2, 3): 0.5}, N=4, n=2
        )
        assert check_csyg(bad).max_covariance == pytest.approx(0.25, abs=1e-12)

    def test_srswor_value(self):
        # pi_kl - pi_k pi_l = 1/6 - 1/4 = -1/12 for N=4, n=2.
        dist = enumerate_design(DesignKind.SRSWOR, N=4, n=2)
        assert check_csyg(dist).max_covariance == pytest.approx(-1 / 12, abs=1e-12)

    def test_one_unit_samples(self):
        # n = 1 leaves I = () out of the scan; the row is still pi_kl -
        # pi_k pi_l = -pi_k pi_l, largest for the two smallest pi.
        dist = ExactDesignDistribution.from_support(
            support={(0,): 0.5, (1,): 0.2, (2,): 0.3}, N=3, n=1
        )
        rpt = check_csyg(dist)
        assert rpt.checked_count == 0
        assert rpt.max_covariance == pytest.approx(-0.06, abs=1e-15)
        assert rpt.covariance_pair == (1, 2)

    def test_single_unit_has_no_pair(self):
        census = ExactDesignDistribution.from_support(support={(0,): 1.0}, N=1, n=1)
        rpt = check_csyg(census)
        assert (rpt.max_covariance, rpt.covariance_pair) == (-math.inf, None)


class TestUnbiasedness:
    def test_exact_on_fixture(self, enumerated_123456, x123456, pi123456):
        y = np.sqrt(x123456) + 1.0
        for kind in UNEQUAL_DESIGNS:
            gap = unbiasedness_check(enumerated_123456[kind], y, pi123456.pi)
            assert gap <= 1e-10, kind

    def test_detects_wrong_pi(self, enumerated_123456, x123456, pi123456):
        y = np.sqrt(x123456) + 1.0
        wrong = pi123456.pi.copy()
        wrong[0] *= 1.5
        gap = unbiasedness_check(
            enumerated_123456[DesignKind.CHAO], y, wrong
        )
        assert gap > 1e-3

    def test_builds_no_second_order(
        self, monkeypatch, enumerated_123456, x123456, pi123456
    ):
        from splitsamp import distribution, oracle

        dist = enumerated_123456[DesignKind.CHAO]
        gap = unbiasedness_check(dist, x123456, pi123456.pi)

        def second_order(dist):
            raise AssertionError("pi2 built for pi1 alone")

        # The oracle does not import first_second_order; were it to, the
        # patch would cover that name too.
        monkeypatch.setattr(distribution, "first_second_order", second_order)
        monkeypatch.setattr(oracle, "first_second_order", second_order, raising=False)
        assert unbiasedness_check(dist, x123456, pi123456.pi) == gap


class TestComplementarity:
    def test_zero_gap_on_fixture(self, pi123456):
        assert midzuno_complementarity_tv(pi123456) <= 1e-9

    def test_zero_gap_with_certainties(self):
        pi = compute_pips(np.array([1.0, 1.0, 1.0, 10.0]), 2)
        assert midzuno_complementarity_tv(pi) <= 1e-9

    def test_degenerate_all_active_selected(self):
        pi = compute_pips(np.array([10.0, 10.0, 1.0, 1.0]), 3)
        assert midzuno_complementarity_tv(pi) <= 1e-9

    def test_forced_point_mass_is_exact(self):
        # Every active unit drawn (n' = N'), at pi just below the
        # certainty tolerance: the ladder's paths summed in floats missed
        # 1.0 by ulps in 15 of these 30 for Midzuno (12 for Brewer).
        rng = np.random.default_rng(0)
        for _ in range(30):
            active = int(rng.integers(3, 11))
            certain = int(rng.integers(0, 11 - active))
            p = np.concatenate([1.0 - rng.uniform(1e-11, 1e-10, active), np.ones(certain)])
            pi = InclusionProbabilities(pi=p, n=active + certain)
            for kind in (DesignKind.GENERALIZED_MIDZUNO, DesignKind.BREWER):
                dist = enumerate_design(kind, pi=pi)
                assert dist.masks.tolist() == [(1 << pi.N) - 1], kind
                assert dist.probs.tolist() == [1.0], kind
            assert midzuno_complementarity_tv(pi) == 0.0

    def test_same_complement_from_one_pi(self, monkeypatch):
        # The complementary run gets its size and derives its pi once;
        # its distribution and the distance are the ones that computing
        # that pi beforehand and passing it along gave, to the bit.
        def reference(pi):
            certain = np.flatnonzero(pi.certain)
            active = np.flatnonzero(~pi.certain)
            comp_sizes = 1.0 - pi.pi[active]
            sub_pi = compute_pips(comp_sizes, active.size - pi.n + certain.size)
            sub = enumerate_design(DesignKind.TILLE_ELIMINATION, x=comp_sizes, pi=sub_pi)
            comp = members(((1 << active.size) - 1) ^ sub.masks, active.size)
            masks = comp @ (1 << active) | int(np.sum(1 << certain))
            return ExactDesignDistribution(
                masks, sub.probs, pi.N, pi.n, sub.pruned_mass
            )

        seen = []
        tv = ExactDesignDistribution.tv_distance

        def spy(self, other):
            seen.append(other)
            return tv(self, other)

        monkeypatch.setattr(ExactDesignDistribution, "tv_distance", spy)
        rng = np.random.default_rng([1, 27])
        pis = [compute_pips(*RECURSION_CASES[1])] + [
            compute_pips(exact_checks_sizes(rng, N, n, c), n)
            for N, n, c in EXACT_CHECKS_SHAPES
        ]
        for pi in pis:
            got = midzuno_complementarity_tv(pi)
            comp = seen.pop()
            ref = reference(pi)
            assert dist_bytes(comp) == dist_bytes(ref)
            mid = enumerate_design(DesignKind.GENERALIZED_MIDZUNO, pi=pi)
            assert struct.pack("<d", got) == struct.pack("<d", tv(mid, ref))

    def test_complementary_pi_computed_once(self, monkeypatch):
        # Every module's name for compute_pips counts its calls.  The
        # complementary side runs on Midzuno's own ladder, so it computes
        # no pi: the one given is the only one.
        calls = []

        def counted(*args):
            calls.append(args)
            return compute_pips(*args)

        pi = compute_pips(np.arange(1.0, 7.0), 3)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "splitsamp" and hasattr(module, "compute_pips"):
                monkeypatch.setattr(module, "compute_pips", counted)
        midzuno_complementarity_tv(pi)
        assert len(calls) == 0


def _tille_by_recursion(x, n):
    """Tille's law over every ordered elimination path, with each size's
    capped shares taken straight from compute_pips."""
    rungs = {i: compute_pips(x, i).pi for i in range(n, x.size + 1)}
    support: dict[tuple[int, ...], float] = {}

    def walk(alive, prob):
        i = len(alive)
        if i == n:
            support[alive] = support.get(alive, 0.0) + prob
            return
        weights = [1.0 - rungs[i - 1][k] / rungs[i][k] for k in alive]
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)
        for idx, w in enumerate(weights):
            if w > 0.0:
                walk(alive[:idx] + alive[idx + 1 :], prob * w)

    walk(tuple(range(x.size)), 1.0)
    return support


def _midzuno_by_recursion(pi):
    """Midzuno's law as the complement, among the active units, of
    Tille's recursion on 1 - pi, with the certainty units added."""
    certain = np.flatnonzero(pi.certain).tolist()
    active = np.flatnonzero(~pi.certain).tolist()
    kept = _tille_by_recursion(
        1.0 - pi.pi[active], len(active) - (pi.n - len(certain))
    )
    return {
        tuple(sorted(certain + [k for i, k in enumerate(active) if i not in s])): p
        for s, p in kept.items()
    }


def _brewer_by_recursion(pi):
    """Brewer's law over every ordered draw sequence, rescaling every
    undrawn unit by (r - 1) / (r - p_j) after each draw."""
    certain = np.flatnonzero(pi.certain).tolist()
    support: dict[tuple[int, ...], float] = {}

    def walk(cur, r, chosen, prob):
        if r == 0:
            key = tuple(sorted(certain + chosen))
            support[key] = support.get(key, 0.0) + prob
            return
        w = {k: p * (r - p) / (1.0 - p) for k, p in cur.items()}
        total = sum(w.values())
        for k, pk in cur.items():
            rest = {u: p * (r - 1) / (r - pk) for u, p in cur.items() if u != k}
            walk(rest, r - 1, chosen + [k], prob * w[k] / total)

    active = {k: float(pi.pi[k]) for k in np.flatnonzero(~pi.certain).tolist()}
    walk(active, pi.n - len(certain), [], 1.0)
    return support


class TestWalkerAgainstBruteForce:
    @pytest.mark.parametrize(
        "x, n",
        [(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 2)] + RECURSION_CASES,
        ids=["x12345"] + RECURSION_IDS,
    )
    def test_chao_by_direct_recursion(self, x, n):
        # Independent re-enumeration of the reservoir walk written from
        # scratch against the packaged one, with each prefix's capped
        # shares taken straight from compute_pips.
        rungs = [compute_pips(x[:t], n).pi for t in range(n, x.size + 1)]
        support: dict[tuple[int, ...], float] = {}

        def walk(j, reservoir, prob):
            if j == x.size - n:
                key = tuple(sorted(reservoir))
                support[key] = support.get(key, 0.0) + prob
                return
            a = float(rungs[j + 1][-1])
            if 1.0 - a > 0.0:
                walk(j + 1, reservoir, prob * (1.0 - a))
            if a > 0.0:
                ratios = 1.0 - rungs[j + 1][:-1] / rungs[j]
                weights = [float(ratios[u]) for u in reservoir]
                total = sum(weights)
                assert total == pytest.approx(a, abs=1e-9)
                arrival = n + j
                for idx, u in enumerate(reservoir):
                    w = weights[idx]
                    if w <= 0.0:
                        continue
                    nxt = reservoir[:idx] + reservoir[idx + 1 :] + (arrival,)
                    walk(j + 1, nxt, prob * w)

        walk(0, tuple(range(n)), 1.0)
        dist = enumerate_design(DesignKind.CHAO, x=x, n=n)
        assert set(support) == set(dist.support)
        for key, p in support.items():
            assert dist.support[key] == pytest.approx(p, abs=1e-12)

    @pytest.mark.parametrize(
        "kind, recursion",
        [
            (DesignKind.TILLE_ELIMINATION, lambda x, pi: _tille_by_recursion(x, pi.n)),
            (DesignKind.GENERALIZED_MIDZUNO, lambda x, pi: _midzuno_by_recursion(pi)),
            (DesignKind.BREWER, lambda x, pi: _brewer_by_recursion(pi)),
        ],
        ids=["tille", "midzuno", "brewer"],
    )
    @pytest.mark.parametrize("x, n", RECURSION_CASES, ids=RECURSION_IDS)
    def test_by_ordered_paths(self, kind, recursion, x, n):
        pi = compute_pips(x, n)
        expected = recursion(x, pi)
        dist = enumerate_design(kind, x=x, pi=pi)
        assert set(expected) == set(dist.support)
        for key, p in expected.items():
            assert dist.support[key] == pytest.approx(p, abs=1e-12)

    def test_certainty_case_has_a_certainty_unit(self):
        x, n = RECURSION_CASES[1]
        assert compute_pips(x, n).certain.tolist() == [False] * 7 + [True]

    def test_random_cases_have_their_certainty_units(self):
        for (x, n), (N, c) in zip(RECURSION_CASES[2:], RANDOM_SHAPES):
            assert (x.size, n) == (N, N // 2)
            assert np.count_nonzero(compute_pips(x, n).certain) == c

"""Exhaustive enumeration and the structural checks built on it.

Negative controls matter here as much as the green paths: each checker
is pointed at a hand-built distribution that violates its property, so
a checker that silently passes everything cannot survive this module.
"""

import dataclasses
from itertools import combinations
from math import comb

import numpy as np
import pytest

from splitsamp import (
    CsygReport,
    DesignKind,
    EnumerationBudgetError,
    ExactDesignDistribution,
    InvalidInputError,
    check_csyg,
    check_pairwise_na,
    compute_pips,
    enumerate_design,
    first_second_order,
    midzuno_complementarity_tv,
    unbiasedness_check,
)
from splitsamp.oracle import DEFAULT_MAX_BRANCHES, MAX_ENUM_N, PRUNE_TOL

from conftest import UNEQUAL_DESIGNS, X_CERTAIN, contains, random_fixed_size


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
        from splitsamp import ContractViolationError, oracle

        def rise(ladder):
            lam = ladder.lam.copy()
            lam[2] = 1.1 * lam[1]
            return dataclasses.replace(ladder, lam=lam)

        def midzuno_plan(pi):
            plan = midzuno(pi)
            return dataclasses.replace(plan, ladder=rise(plan.ladder))

        tille, midzuno = oracle.tille_plan, oracle.midzuno_plan
        monkeypatch.setattr(oracle, "tille_plan", lambda x, n: rise(tille(x, n)))
        monkeypatch.setattr(oracle, "midzuno_plan", midzuno_plan)
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
        # A 4-of-5 design whose ratio witness was once reported with its
        # conditioning set unsorted, as ((1, 0), 2).
        subsets = list(combinations(range(5), 4))
        rng = np.random.default_rng(0)
        for _ in range(985):
            masses = rng.dirichlet(np.full(len(subsets), 0.3))
        dist = ExactDesignDistribution.from_support(
            support=dict(zip(subsets, masses)), N=5, n=4
        )
        rpt = check_csyg(dist)
        I, k, l = rpt.witness
        J, a = rpt.witness_ratio
        assert list(I) == sorted(I) and list(J) == sorted(J)
        fI = contains(dist, *I)
        v = contains(dist, *I, k, l) / fI - (
            contains(dist, *I, k) / fI
        ) * (contains(dist, *I, l) / fI)
        assert rpt.max_violation == pytest.approx(v, abs=1e-15)
        # J is I plus the conditioning unit b; the scan's maximum is
        # attained for one b in J and bounds the others.
        ratio = max(
            contains(dist, *J, a) / contains(dist, *J)
            - contains(dist, *rest, a) / contains(dist, *rest)
            for rest in combinations(J, len(J) - 1)
        )
        assert rpt.max_violation_ratio == pytest.approx(ratio, abs=1e-15)

    def test_rejects_a_population_too_large_for_its_table(self):
        census = ExactDesignDistribution.from_support(
            support={tuple(range(21)): 1.0}, N=21, n=21
        )
        with pytest.raises(InvalidInputError, match="N <= 20"):
            check_csyg(census)


def brute_csyg(dist, skip_tol=1e-12):
    """(checked, skipped, max violation, max ratio violation), looping
    over conditioning sets and pairs with sums over the support map."""
    checked = skipped = 0
    max_v = max_r = -np.inf
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
                for fa, fb in ((fk, fl), (fl, fk)):
                    if fb > skip_tol:
                        max_r = max(max_r, fkl / fb - fa / fI)
    return checked, skipped, max_v, max_r


@pytest.mark.parametrize("seed", range(12))
class TestReference:
    """Each check against a brute-force sum over a random support map."""

    def test_csyg(self, seed):
        dist = random_fixed_size(seed)
        rpt = check_csyg(dist)
        checked, skipped, max_v, max_r = brute_csyg(dist)
        assert (rpt.checked_count, rpt.skipped_sets) == (checked, skipped)
        assert rpt.max_violation == pytest.approx(max_v, abs=1e-14)
        assert rpt.max_violation_ratio == pytest.approx(max_r, abs=1e-14)

    def test_pairwise_na(self, seed):
        dist = random_fixed_size(seed)
        worst = max(
            (
                contains(dist, k, l) - contains(dist, k) * contains(dist, l)
                for k, l in combinations(range(dist.N), 2)
            ),
            default=-np.inf,
        )
        assert check_pairwise_na(dist) == pytest.approx(worst, abs=1e-15)

    def test_unbiasedness(self, seed):
        dist = random_fixed_size(seed)
        rng = np.random.default_rng(seed)
        y = rng.uniform(0.5, 2.0, dist.N)
        pi = rng.uniform(0.2, 1.0, dist.N)
        mean = sum(p * sum(y[k] / pi[k] for k in s) for s, p in dist.support.items())
        gap = abs(mean - y.sum())
        assert unbiasedness_check(dist, y, pi) == pytest.approx(gap, abs=1e-12)


class TestPairwise:
    def test_negative_on_fixture(self, enumerated_123456):
        for kind in UNEQUAL_DESIGNS:
            assert check_pairwise_na(enumerated_123456[kind]) < 0.0, kind

    def test_positive_on_clustered_design(self):
        bad = ExactDesignDistribution.from_support(
            support={(0, 1): 0.5, (2, 3): 0.5}, N=4, n=2
        )
        assert check_pairwise_na(bad) == pytest.approx(0.25, abs=1e-12)

    def test_srswor_value(self):
        # pi_kl - pi_k pi_l = 1/6 - 1/4 = -1/12 for N=4, n=2.
        dist = enumerate_design(DesignKind.SRSWOR, N=4, n=2)
        assert check_pairwise_na(dist) == pytest.approx(-1 / 12, abs=1e-12)


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


class TestComplementarity:
    def test_zero_gap_on_fixture(self, pi123456):
        assert midzuno_complementarity_tv(pi123456) <= 1e-9

    def test_zero_gap_with_certainties(self):
        pi = compute_pips(np.array([1.0, 1.0, 1.0, 10.0]), 2)
        assert midzuno_complementarity_tv(pi) <= 1e-9

    def test_degenerate_all_active_selected(self):
        pi = compute_pips(np.array([10.0, 10.0, 1.0, 1.0]), 3)
        assert midzuno_complementarity_tv(pi) <= 1e-9


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

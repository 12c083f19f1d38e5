"""Exhaustive enumeration and the structural checks built on it.

Negative controls matter here as much as the green paths: each checker
is pointed at a hand-built distribution that violates its property, so
a checker that silently passes everything cannot survive this module.
"""

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

from conftest import UNEQUAL_DESIGNS, X_CERTAIN


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
        bad = ExactDesignDistribution(
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
        point = ExactDesignDistribution(support={(0, 1, 2): 1.0}, N=4, n=3)
        rpt = check_csyg(point)
        assert rpt.skipped_sets >= 1
        assert rpt.max_violation <= 0.0


class TestPairwise:
    def test_negative_on_fixture(self, enumerated_123456):
        for kind in UNEQUAL_DESIGNS:
            assert check_pairwise_na(enumerated_123456[kind]) < 0.0, kind

    def test_positive_on_clustered_design(self):
        bad = ExactDesignDistribution(
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


# x = 1..6 at n = 3, and 8 units of X_CERTAIN at n = 4, where unit 7
# (size 40) is a certainty unit.
RECURSION_CASES = [
    (np.arange(1.0, 7.0), 3),
    (X_CERTAIN[[0, 2, 4, 6, 8, 9, 10, 11]], 4),
]


class TestWalkerAgainstBruteForce:
    def test_chao_by_direct_recursion(self):
        # Independent re-enumeration of the reservoir walk written from
        # scratch against the packaged one, with each prefix's capped
        # shares taken straight from compute_pips.
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        n = 2
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
    @pytest.mark.parametrize("x, n", RECURSION_CASES, ids=["x123456", "certain"])
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

"""The splitting driver, its invariants, and the two representations
every fixed-size design admits (draw-by-draw and unit-by-unit)."""

import re

import numpy as np
import pytest

from splitsamp import (
    ContractViolationError,
    DesignKind,
    InclusionProbabilities,
    RepresentationError,
    RunawayError,
    compute_pips,
    draw_by_draw_distribution,
    draw_by_draw_from_distribution,
    enumerate_design,
    ht_increments,
    run_splitting,
    sample_brewer,
    sequential_leaf_distribution,
    sequential_splitting_from_distribution,
)
from splitsamp.splitting import categorical_index


class TestCategoricalIndex:
    def test_inverse_cdf_boundaries(self):
        class FakeRng:
            def __init__(self, u):
                self.u = u

            def random(self):
                return self.u

        w = np.array([0.2, 0.3, 0.5])
        assert categorical_index(FakeRng(0.0), w) == 0
        assert categorical_index(FakeRng(0.19), w) == 0
        assert categorical_index(FakeRng(0.2), w) == 1
        assert categorical_index(FakeRng(0.49), w) == 1
        assert categorical_index(FakeRng(0.5), w) == 2
        assert categorical_index(FakeRng(0.999999), w) == 2

    def test_tiny_negative_weight_clamped(self):
        rng = np.random.default_rng(0)
        assert categorical_index(rng, np.array([-1e-13, 1.0])) == 1

    def test_negative_weight_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ContractViolationError, match="negative"):
            categorical_index(rng, np.array([-0.1, 1.1]))

    def test_no_mass_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ContractViolationError):
            categorical_index(rng, np.zeros(3))


class RecomputingBrewer:
    """Brewer's rule as a pure function of (t, pi) that recomputes its
    undecided units and r on every call."""

    def alphas(self, t, pi):
        a = np.flatnonzero((pi > 1e-9) & (pi < 1.0 - 1e-9))
        p = pi[a]
        r = float(round(float(p.sum())))
        w = p * (r - p) / (1.0 - p)
        return w / float(w.sum())

    def delta(self, t, pi, i):
        a = np.flatnonzero((pi > 1e-9) & (pi < 1.0 - 1e-9))
        p = pi[a]
        r = float(round(float(p.sum())))
        pk = p[i]
        d = np.zeros(pi.size)
        d[a] = -p * (1.0 - pk) / (r - pk)
        d[a[i]] = 1.0 - pk
        return d


class TestRunSplitting:
    def test_already_settled_vector_takes_no_steps(self):
        tr = run_splitting(RecomputingBrewer(), np.array([1.0, 0.0, 1.0]), rng_seed=1)
        assert len(tr.steps) == 0
        assert tr.selected == (0, 2)

    def test_brewer_step1_weights(self):
        # pi = [0.6, 0.8, 0.6], two draws outstanding: weights
        # pi(2 - pi)/(1 - pi) = [2.1, 4.8, 2.1], normalized 7/30, 16/30, 7/30.
        pi = InclusionProbabilities(pi=np.array([0.6, 0.8, 0.6]), n=2)
        _, tr = sample_brewer(pi, rng_seed=0, trace="realized")
        assert np.allclose(tr.steps[0].alphas, [7 / 30, 16 / 30, 7 / 30], atol=1e-12)

    def test_brewer_full_trace_round_trip(self):
        pi = InclusionProbabilities(pi=np.array([0.6, 0.8, 0.6]), n=2)
        sample, tr = sample_brewer(pi, rng_seed=42, trace="realized")
        tr.validate()
        assert len(tr.steps) == 2
        assert sample.size == 2
        assert tr.selected == sample.selected
        # Reconstruction: pi0 plus increments is the indicator.
        total = tr.pi0 + sum(s.realized_delta for s in tr.steps)
        assert np.allclose(total, tr.final, atol=1e-9)

    def test_realized_increment_identity(self):
        # Each step moves total probability 2 (1 - pi_J(t-1)): the drawn
        # unit rises by 1 - pi_J and the others fall by the same total.
        pi = InclusionProbabilities(pi=np.array([0.6, 0.8, 0.6]), n=2)
        _, tr = sample_brewer(pi, rng_seed=7, trace="realized")
        cur = tr.pi0.copy()
        for step in tr.steps:
            j = int(np.argmax(step.realized_delta))
            assert step.realized_delta[j] > 0
            assert step.increment_l1 == pytest.approx(
                2.0 * (1.0 - cur[j]), abs=1e-12
            )
            assert step.increment_l1 <= 2.0 + 1e-12
            cur += step.realized_delta

    def test_ht_increments_telescope(self):
        pi = InclusionProbabilities(pi=np.array([0.6, 0.8, 0.6]), n=2)
        y = np.array([1.0, 2.0, 3.0])
        sample, tr = sample_brewer(pi, rng_seed=3, trace="realized")
        y_check = y / pi.pi
        xi = ht_increments(tr, y_check)
        ht = float(y_check[list(sample.selected)].sum())
        assert xi.sum() == pytest.approx(ht - y.sum(), abs=1e-10)

    def test_record_modes_draw_identically(self):
        pi = compute_pips(np.array([1.0, 3.0, 2.0, 5.0, 4.0]), 3)
        for seed in range(20):
            plain = sample_brewer(pi, rng_seed=seed)
            traced, tr = sample_brewer(pi, rng_seed=seed, trace="realized")
            assert plain.selected == traced.selected == tr.selected
            assert all(s.deltas is None for s in tr.steps)

    def test_runaway_rule_hits_budget(self):
        class Stuck:
            def alphas(self, t, pi):
                return np.array([1.0])

            def delta(self, t, pi, i):
                return np.zeros(pi.size)

        with pytest.raises(RunawayError):
            run_splitting(Stuck(), np.array([0.5, 0.5]), rng_seed=0)

    def test_martingale_drift_detected(self):
        class Drifting:
            def alphas(self, t, pi):
                return np.array([0.5, 0.5])

            def delta(self, t, pi, i):
                # Both candidates push the same way: weighted sum is not 0.
                d = np.zeros(pi.size)
                d[0] = 0.1
                return d

        with pytest.raises(ContractViolationError, match="drift"):
            run_splitting(Drifting(), np.array([0.5, 0.5]), rng_seed=0)

    def test_range_escape_detected(self):
        class Escaping:
            def alphas(self, t, pi):
                return np.array([0.5, 0.5])

            def delta(self, t, pi, i):
                d = np.zeros(pi.size)
                d[0] = 0.7 if i == 0 else -0.7
                return d

        with pytest.raises(ContractViolationError, match="range|\\[0, 1\\]"):
            run_splitting(Escaping(), np.array([0.5, 0.5]), rng_seed=0)

    def test_dump_format(self):
        pi = InclusionProbabilities(pi=np.array([0.6, 0.8, 0.6]), n=2)
        _, tr = sample_brewer(pi, rng_seed=11, trace="realized")
        for line in tr.dump().strip().split("\n"):
            assert re.fullmatch(r"\d+;[0-9.eE+-]+;[0-9.eE+-]+", line)


class TestKernelTrace:
    def test_equals_a_rule_that_recomputes(self):
        # Criterion 04's population.  The reference recomputes every step
        # through the generic driver and checks each candidate set: its
        # weighted updates vanish and every candidate stays in [0, 1].
        x = -np.log1p(-np.random.default_rng(77).random(50))
        pi = compute_pips(x, 10)
        for seed in range(200):
            sample, got = sample_brewer(pi, seed, trace="realized")
            want = run_splitting(RecomputingBrewer(), pi, seed, record="full")
            assert len(got.steps) == len(want.steps) == 10
            for a, b in zip(got.steps, want.steps):
                assert a.t == b.t and a.chosen == b.chosen
                assert np.max(np.abs(a.alphas - b.alphas)) <= 1e-12
                assert np.max(np.abs(a.realized_delta - b.realized_delta)) <= 1e-12
            assert np.array_equal(got.final, want.final)
            assert sample.selected == want.selected


class TestDrawByDraw:
    def test_srswor_distribution_reproduced(self):
        d = enumerate_design(DesignKind.SRSWOR, N=4, n=2)
        dd = draw_by_draw_distribution(d)
        assert d.tv_distance(dd) <= 1e-12

    def test_unequal_distribution_reproduced(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        pi = compute_pips(x, 2)
        d = enumerate_design(DesignKind.TILLE_ELIMINATION, x=x, pi=pi, n=2)
        dd = draw_by_draw_distribution(d)
        assert d.tv_distance(dd) <= 1e-12

    def test_ten_unit_distribution_reproduced(self):
        x = np.array([3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5])
        pi = compute_pips(x, 4)
        d = enumerate_design(DesignKind.CHAO, x=x, pi=pi)
        dd = draw_by_draw_distribution(d)
        assert len(dd.support) == len(d.support)
        assert d.tv_distance(dd) <= 1e-12

    def test_first_step_weights_are_pi_over_n(self):
        d = enumerate_design(DesignKind.SRSWOR, N=3, n=2)
        tr = draw_by_draw_from_distribution(d, rng_seed=0)
        assert np.allclose(tr.steps[0].alphas, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_exactly_n_steps_even_for_certainties(self):
        # A deterministic census: both steps are forced and move nothing.
        from splitsamp import ExactDesignDistribution

        d = ExactDesignDistribution(support={(0, 1): 1.0}, N=2, n=2)
        tr = draw_by_draw_from_distribution(d, rng_seed=0)
        assert len(tr.steps) == 2
        assert all(s.increment_l1 == 0.0 for s in tr.steps)
        assert tr.selected == (0, 1)

    def test_trace_validates_and_matches_draws(self):
        x = np.array([2.0, 1.0, 4.0, 3.0, 5.0])
        pi = compute_pips(x, 3)
        d = enumerate_design(DesignKind.BREWER, x=x, pi=pi, n=3)
        for seed in range(10):
            tr = draw_by_draw_from_distribution(d, rng_seed=seed)
            tr.validate()
            assert len(tr.steps) == 3
            assert len(tr.selected) == 3
            assert np.all(tr.increment_l1 <= 2.0 + 1e-12)

    def test_requires_fixed_size(self):
        from splitsamp import ExactDesignDistribution

        d = ExactDesignDistribution(support={(0,): 0.5, (0, 1): 0.5}, N=2, n=1)
        with pytest.raises(RepresentationError):
            draw_by_draw_from_distribution(d, rng_seed=0)


class TestSequentialTree:
    def test_srswor_tree_probabilities(self):
        d = enumerate_design(DesignKind.SRSWOR, N=3, n=2)
        root = sequential_splitting_from_distribution(d)
        assert root.alpha_take == pytest.approx(2 / 3)
        # Conditional on taking unit 0, one of the remaining two is drawn.
        assert root.take.alpha_take == pytest.approx(1 / 2)
        # Conditional on skipping unit 0, both remaining units are forced.
        assert root.skip.alpha_take == pytest.approx(1.0)
        leaf = sequential_leaf_distribution(root)
        assert d.tv_distance(leaf) <= 1e-9

    def test_branch_updates_are_martingale(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        pi = compute_pips(x, 2)
        d = enumerate_design(DesignKind.GENERALIZED_MIDZUNO, pi=pi, n=2)
        root = sequential_splitting_from_distribution(d)
        stack = [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                continue
            a = node.alpha_take
            drift = np.zeros(node.pi.size)
            if node.delta_take is not None:
                drift += a * node.delta_take
            if node.delta_skip is not None:
                drift += (1 - a) * node.delta_skip
            assert np.max(np.abs(drift)) <= 1e-10
            for child in (node.take, node.skip):
                if child is not None:
                    stack.append(child)

    def test_leaf_distribution_matches_for_all_designs(self, enumerated_123456):
        for kind, d in enumerated_123456.items():
            root = sequential_splitting_from_distribution(d)
            leaf = sequential_leaf_distribution(root)
            assert d.tv_distance(leaf) <= 1e-9, kind

"""Splitting traces, their invariants, and the two representations
every fixed-size design admits (draw-by-draw and unit-by-unit)."""

import collections
import tracemalloc

import numpy as np
import pytest

from splitsamp import (
    ContractViolationError,
    DesignKind,
    InclusionProbabilities,
    RepresentationError,
    compute_pips,
    draw_by_draw_distribution,
    draw_by_draw_from_distribution,
    enumerate_design,
    ht_increments,
    sample_brewer,
    sequential_leaf_distribution,
    sequential_splitting_from_distribution,
)
from splitsamp import designs
from splitsamp.splitting import _validate_candidates


class TestValidateCandidates:
    """The per-step check of draw-by-draw and of ``TestKernelTrace``."""

    PI = np.array([0.5, 0.5])
    ALPHAS = np.array([0.5, 0.5])

    def test_martingale_drift_detected(self):
        # Both candidates push the same way: the weighted sum is not 0.
        deltas = np.array([[0.1, 0.0], [0.1, 0.0]])
        with pytest.raises(ContractViolationError, match="step 3: weighted updates drift"):
            _validate_candidates(3, self.PI, self.ALPHAS, deltas)

    def test_range_escape_detected(self):
        # Mean zero, but each candidate takes unit 0 outside [0, 1].
        deltas = np.array([[0.7, 0.0], [-0.7, 0.0]])
        with pytest.raises(ContractViolationError, match=r"a candidate leaves the \[0, 1\]"):
            _validate_candidates(1, self.PI, self.ALPHAS, deltas)

    def test_shape_mismatch_detected(self):
        for deltas in (np.zeros((3, 2)), np.zeros((2, 3)), np.zeros(2)):
            with pytest.raises(ContractViolationError, match="candidate shape mismatch"):
                _validate_candidates(1, self.PI, self.ALPHAS, deltas)


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
    """``designs.run_splitting``: the traced Brewer path."""

    def test_already_settled_vector_takes_no_steps(self):
        pi = InclusionProbabilities(pi=np.array([1.0, 1.0, 1.0]), n=3)
        sample, tr = sample_brewer(pi, rng_seed=1, trace="realized")
        assert len(tr.steps) == 0
        assert tr.selected == sample.selected == (0, 1, 2)
        tr.validate()

    def test_sample_brewer_calls_the_module_function(self, monkeypatch):
        # bench/workloads.py times traced draws by patching this name.
        real = designs.run_splitting
        calls = []
        monkeypatch.setattr(designs, "run_splitting", lambda *a: calls.append(a) or real(*a))
        pi = InclusionProbabilities(pi=np.array([0.6, 0.8, 0.6]), n=2)
        sample, tr = sample_brewer(pi, rng_seed=3, trace="realized")
        assert len(calls) == 1 and tr.selected == sample.selected

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


class TestKernelTrace:
    def test_equals_a_rule_that_recomputes(self):
        # Criterion 04's population.  Along each traced draw's picks, a
        # rule that recomputes its undecided units and r from pi at every
        # step gives the same weights and updates, and each step's
        # candidate set has weighted updates that vanish and candidates
        # that stay in [0, 1].
        x = -np.log1p(-np.random.default_rng(77).random(50))
        pi = compute_pips(x, 10)
        rule = RecomputingBrewer()
        for seed in range(200):
            sample, got = sample_brewer(pi, seed, trace="realized")
            assert len(got.steps) == 10
            cur = got.pi0.copy()
            for step in got.steps:
                alphas = rule.alphas(step.t, cur)
                deltas = np.stack([rule.delta(step.t, cur, i) for i in range(len(alphas))])
                _validate_candidates(step.t, cur, alphas, deltas)
                assert np.max(np.abs(step.alphas - alphas)) <= 1e-12
                assert np.max(np.abs(step.realized_delta - deltas[step.chosen])) <= 1e-12
                cur = cur + deltas[step.chosen]
            assert np.array_equal(np.where(cur > 0.5, 1, 0), got.final)
            assert sample.selected == got.selected


def reference_run_splitting(plan, seed, pi0):
    """The traced Brewer path as one dense loop: per step the weights
    over the undrawn units and an N-vector update, with s += p_k."""
    p, active = plan.p, plan.active
    undrawn = np.ones(p.size, dtype=bool)
    s = 0.0
    steps = []
    for t, k in enumerate(designs._brewer_row(plan, seed), 1):
        r = plan.draws - t + 1
        c = r / (plan.total - s)
        pk = plan.p_list[k]
        s += pk
        rest = p[undrawn]
        q = c * rest
        w = q * designs._g(q, r)
        d = np.zeros(len(pi0))
        d[active[undrawn]] = ((r - 1) / (plan.total - s) - c) * rest
        d[active[k]] = 1.0 - c * pk
        steps.append((t, w / w.sum(), int(np.count_nonzero(undrawn[:k])), d))
        undrawn[k] = False
    final = np.zeros(len(pi0), dtype=int)
    final[plan.certain] = 1
    final[active[~undrawn]] = 1
    return steps, final


def near_certain_lognormal():
    """Lognormal sizes (sigma 1.5) with certainty units, and one active
    unit moved to pi = 1 - 1e-10, the other active units rescaled."""
    x = np.random.default_rng(15).lognormal(0.0, 1.5, 80)
    pi = compute_pips(x, 16).pi.copy()
    free = np.flatnonzero(pi < 1.0)
    assert 0 < free.size < pi.size
    pi[free[0]] = 1.0 - 1e-10
    rest = free[1:]
    pi[rest] *= (16 - (pi.size - free.size) - pi[free[0]]) / pi[rest].sum()
    return InclusionProbabilities(pi=pi, n=16)


def compact_instances():
    rng = np.random.default_rng(20260819)
    x = -np.log1p(-np.random.default_rng(77).random(50))
    return [
        pytest.param(compute_pips(rng.uniform(1.0, 2.0, size=200), 40), 50, id="criterion-05"),
        pytest.param(compute_pips(x, 10), 50, id="criterion-04"),
        pytest.param(near_certain_lognormal(), 50, id="near-certain-lognormal"),
        # Iteration takes 2**16 // 1000 = 65 steps per block: three blocks.
        pytest.param(
            compute_pips(np.random.default_rng(9).lognormal(0.0, 1.0, 1000), 150),
            10,
            id="three-blocks",
        ),
    ]


class TestCompactTrace:
    """Brewer's trace stores each step as a factor and the drawn unit;
    its dense steps equal those of the dense loop bit for bit."""

    @pytest.mark.parametrize("pi, seeds", compact_instances())
    def test_equals_the_dense_loop(self, pi, seeds):
        plan = designs.brewer_plan(pi.pi)
        y = np.random.default_rng(3).uniform(-1.0, 2.0, pi.N)
        yc = y / pi.pi
        scale = 1e-12 * (1.0 + np.abs(yc).sum())
        for seed in range(seeds):
            ref, final = reference_run_splitting(plan, seed, pi.pi)
            _, tr = sample_brewer(pi, seed, trace="realized")
            assert np.array_equal(tr.final, final)
            assert len(tr.steps) == len(ref) == plan.draws
            # Iteration builds the steps block by block, indexing one by one.
            for i, (step, (t, alphas, chosen, d)) in enumerate(zip(tr.steps, ref)):
                for got in (step, tr.steps[i]):
                    assert got.t == t and got.chosen == chosen and got.deltas is None
                    assert np.array_equal(got.alphas, alphas)
                    assert np.array_equal(got.realized_delta, d)
            dense = np.array([d @ yc for _, _, _, d in ref])
            assert np.all(np.abs(ht_increments(tr, yc) - dense) <= scale)

    def test_indexing(self):
        pi = compute_pips(np.array([1.0, 3.0, 2.0, 5.0, 4.0, 3.5]), 3)
        _, tr = sample_brewer(pi, 4, trace="realized")
        steps = list(tr.steps)
        assert [s.t for s in tr.steps[-2:]] == [s.t for s in steps[-2:]] == [2, 3]
        assert np.array_equal(tr.steps[-1].realized_delta, steps[2].realized_delta)
        with pytest.raises(IndexError):
            tr.steps[3]

    def test_one_draw_at_scale_holds_little_memory(self):
        # N = 20,000, n = 2,000: dense steps would hold about 305 MB of
        # updates; the compact trace, the plan and the increments stay
        # under 5 MB.
        rng = np.random.default_rng(5)
        pi = compute_pips(rng.uniform(1.0, 2.0, 20_000), 2_000)
        y = rng.uniform(0.0, 1.0, 20_000)
        yc = y / pi.pi
        tracemalloc.start()
        try:
            sample, tr = sample_brewer(pi, 11, trace="realized")
            xi = ht_increments(tr, yc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20
        assert len(xi) == 2_000
        err = yc[list(sample.selected)].sum() - y.sum()
        assert abs(xi.sum() - err) <= 1e-9 * (1.0 + np.abs(yc).sum())


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

    def test_random_distribution_reproduced(self):
        # Dirichlet(0.5) masses on a seeded half of the 4-of-9 subsets,
        # no design's law: the representation holds for every fixed-size
        # distribution.
        from itertools import combinations

        from splitsamp import ExactDesignDistribution

        rng = np.random.default_rng(9)
        subsets = list(combinations(range(9), 4))
        keep = rng.permutation(len(subsets))[: len(subsets) // 2]
        masses = rng.dirichlet(np.full(keep.size, 0.5))
        d = ExactDesignDistribution.from_support(
            support={subsets[i]: m for i, m in zip(keep, masses)}, N=9, n=4
        )
        dd = draw_by_draw_distribution(d)
        assert set(dd.support) == set(d.support)
        assert d.tv_distance(dd) <= 1e-12

    def test_first_step_weights_are_pi_over_n(self):
        d = enumerate_design(DesignKind.SRSWOR, N=3, n=2)
        tr = draw_by_draw_from_distribution(d, rng_seed=0)
        assert np.allclose(tr.steps[0].alphas, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_exactly_n_steps_even_for_certainties(self):
        # A deterministic census: both steps are forced and move nothing.
        from splitsamp import ExactDesignDistribution

        d = ExactDesignDistribution.from_support(support={(0, 1): 1.0}, N=2, n=2)
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

    def test_sampled_frequencies_match_the_distribution(self):
        # 2,000 draws from Brewer's law at N = 5, n = 2 (ten samples):
        # every sample's frequency lies within 5 standard errors of its
        # exact probability.
        x = np.array([2.0, 1.0, 4.0, 3.0, 5.0])
        d = enumerate_design(DesignKind.BREWER, pi=compute_pips(x, 2))
        draws = 2000
        counts = collections.Counter(
            draw_by_draw_from_distribution(d, rng_seed=seed).selected
            for seed in range(draws)
        )
        assert set(counts) <= set(d.support)
        for sample, prob in d.support.items():
            se = np.sqrt(prob * (1.0 - prob) / draws)
            assert abs(counts[sample] / draws - prob) <= 5.0 * se, sample

    def test_requires_fixed_size(self):
        from splitsamp import ExactDesignDistribution

        d = ExactDesignDistribution.from_support(
            support={(0,): 0.5, (0, 1): 0.5}, N=2, n=1
        )
        with pytest.raises(RepresentationError):
            draw_by_draw_from_distribution(d, rng_seed=0)


    def test_rejects_a_population_too_large_for_its_table(self):
        from splitsamp import ExactDesignDistribution, InvalidInputError

        census = ExactDesignDistribution.from_support(
            support={tuple(range(21)): 1.0}, N=21, n=21
        )
        with pytest.raises(InvalidInputError, match="N <= 20"):
            draw_by_draw_distribution(census)


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

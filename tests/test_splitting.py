"""Splitting traces, their invariants, and the two representations
every fixed-size design admits (draw-by-draw and unit-by-unit)."""

import collections
import itertools
import time
import tracemalloc

import numpy as np
import pytest

from splitsamp import (
    ContractViolationError,
    DesignKind,
    ExactDesignDistribution,
    InclusionProbabilities,
    RepresentationError,
    compute_pips,
    draw_by_draw_from_distribution,
    enumerate_design,
    ht_increments,
    sample_brewer,
    sequential_splitting_from_distribution,
)
from splitsamp import designs
from splitsamp.splitting import FactorSteps, SplittingTrace, _validate_candidates


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
            l1 = np.abs(step.realized_delta).sum()
            assert l1 == pytest.approx(2.0 * (1.0 - cur[j]), abs=1e-12)
            assert l1 <= 2.0 + 1e-12
            cur += step.realized_delta

    @pytest.mark.parametrize("source", ["brewer", "draw-by-draw", "no-steps"])
    def test_ht_increments_telescope(self, source):
        # Brewer's FactorSteps take the closed form; a draw-by-draw trace
        # of the same design, a list of dense steps, takes one dot product
        # per step, and a trace with no steps gives no increment.
        pi = InclusionProbabilities(pi=np.array([0.6, 0.8, 0.6]), n=2)
        y = np.array([1.0, 2.0, 3.0])
        if source == "brewer":
            _, tr = sample_brewer(pi, rng_seed=3, trace="realized")
        elif source == "draw-by-draw":
            dist = enumerate_design(DesignKind.BREWER, pi=pi)
            tr = draw_by_draw_from_distribution(dist, 3)
        else:
            pi = InclusionProbabilities(pi=np.ones(3), n=3)
            tr = SplittingTrace(pi0=pi.pi, steps=(), final=np.ones(3, dtype=int))
        assert isinstance(tr.steps, FactorSteps) == (source == "brewer")
        y_check = y / pi.pi
        xi = ht_increments(tr, y_check)
        assert xi.shape == (len(tr.steps),)
        ht = float(y_check[list(tr.selected)].sum())
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
        pytest.param(
            compute_pips(np.random.default_rng(9).lognormal(0.0, 1.0, 1000), 150),
            10,
            id="N-1000",
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
            # Read both by iteration and by index.
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

    def test_iteration_holds_one_step_at_a_time(self):
        # N = 2,000, n = 200: a pass over the steps holds one dense step
        # of 16 KB and its weights at a time, not a block of them.
        pi = compute_pips(np.random.default_rng(6).lognormal(0.0, 1.5, 2_000), 200)
        _, tr = sample_brewer(pi, 2, trace="realized")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for step in tr.steps:
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 0.5 * 2**20
        # Index, iteration and slice reads build the same bytes.
        n = len(tr.steps)
        reads = (
            [tr.steps[i] for i in range(n)],
            [tr.steps[i] for i in range(-n, 0)],
            list(tr.steps),
            list(tr.steps[:]),
            list(tr.steps[::-1])[::-1],
        )
        for same in zip(*reads):
            first = same[0]
            for got in same[1:]:
                assert (got.t, got.chosen) == (first.t, first.chosen)
                assert got.alphas.tobytes() == first.alphas.tobytes()
                assert got.realized_delta.tobytes() == first.realized_delta.tobytes()

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
        assert all(np.abs(s.realized_delta).sum() == 0.0 for s in tr.steps)
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
            l1 = [np.abs(s.realized_delta).sum() for s in tr.steps]
            assert max(l1) <= 2.0 + 1e-12

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
            draw_by_draw_from_distribution(census, rng_seed=0)


def branches(levels, t):
    """Take weights of the nodes at depth t, and the rows of their take
    and skip children in level t + 1 (-1 where a branch is absent)."""
    node, nxt = levels[t], levels[t + 1]
    rows = []
    for child in (node.masks | 1 << t, node.masks):
        i = np.minimum(np.searchsorted(nxt.masks, child), nxt.masks.size - 1)
        rows.append(np.where(nxt.masks[i] == child, i, -1))
    return node.pi[:, t], rows[0], rows[1]


def tree_instances(seed=16, count=8):
    """Seeded (x, n) with N in 5..10; every other x has two large units,
    which the pips cap to certainty units."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        N = int(rng.integers(5, 11))
        n = int(rng.integers(2, N - 1))
        x = rng.lognormal(0.0, 1.0, N)
        if i % 2:
            x[:2] *= 50.0
        yield x, n


@pytest.fixture(scope="module")
def tree_16():
    """All 12,870 8-of-16 samples with seeded Dirichlet masses, built
    directly (past the enumeration cap), its levels, and the seconds the
    levels took to build."""
    masks = [sum(1 << k for k in c) for c in itertools.combinations(range(16), 8)]
    probs = np.random.default_rng(16).dirichlet(np.ones(len(masks)))
    dist = ExactDesignDistribution(masks, probs, 16, 8)
    start = time.perf_counter()
    levels = sequential_splitting_from_distribution(dist)
    return dist, levels, time.perf_counter() - start


class TestSequentialTree:
    def test_srswor_tree_probabilities(self):
        d = enumerate_design(DesignKind.SRSWOR, N=3, n=2)
        levels = sequential_splitting_from_distribution(d)
        assert len(levels) == 4
        root, depth1 = levels[0], levels[1]
        np.testing.assert_allclose(root.pi[0], [2 / 3] * 3)
        # Row 0 skipped unit 0 (mask 0), row 1 took it (mask 1).
        np.testing.assert_array_equal(depth1.masks, [0, 1])
        np.testing.assert_allclose(depth1.probs, [1 / 3, 2 / 3])
        # Conditional on skipping unit 0, both remaining units are forced.
        np.testing.assert_allclose(depth1.pi[0], [0.0, 1.0, 1.0])
        # Conditional on taking unit 0, one of the remaining two is drawn.
        np.testing.assert_allclose(depth1.pi[1], [1.0, 0.5, 0.5])
        np.testing.assert_array_equal(levels[-1].masks, d.masks)
        np.testing.assert_array_equal(levels[-1].probs, d.probs)

    @pytest.mark.parametrize(
        "kind",
        [
            DesignKind.SRSWOR,
            DesignKind.CHAO,
            DesignKind.TILLE_ELIMINATION,
            DesignKind.GENERALIZED_MIDZUNO,
        ],
        ids=["srswor", "chao", "tille", "midzuno"],
    )
    def test_cna_branch_lengths(self, kind):
        """Conditional negative association given the in/out decisions
        on units 0..t-1: taking unit t lowers every other undecided unit,
        by 1 - alpha in all, so |delta|_1 = 2(1 - alpha); skipping it
        gives 2 alpha.  The paper does not claim this for Brewer."""
        for x, n in tree_instances():
            if kind is DesignKind.SRSWOR:
                d = enumerate_design(kind, N=x.size, n=n)
            else:
                d = enumerate_design(kind, x=x, n=n)
            levels = sequential_splitting_from_distribution(d)
            np.testing.assert_array_equal(levels[-1].masks, d.masks)
            np.testing.assert_array_equal(levels[-1].probs, d.probs)
            for t in range(x.size):
                alpha, take, skip = branches(levels, t)
                for rows, length in ((take, 2 * (1 - alpha)), (skip, 2 * alpha)):
                    has = rows >= 0
                    delta = levels[t + 1].pi[rows[has]] - levels[t].pi[has]
                    np.testing.assert_allclose(
                        np.abs(delta).sum(axis=1), length[has], rtol=0, atol=1e-12
                    )

    def test_n16_builds_in_under_a_second(self, tree_16):
        dist, levels, seconds = tree_16
        assert seconds < 1.0
        assert len(levels) == 17 and levels[0].masks.tolist() == [0]
        np.testing.assert_array_equal(levels[-1].masks, dist.masks)
        np.testing.assert_array_equal(levels[-1].probs, dist.probs)
        for t, level in enumerate(levels):
            assert level.pi.shape == (level.masks.size, 16)
            assert np.all((level.pi[:, :t] == 0) | (level.pi[:, :t] == 1))

    def test_n16_branch_probabilities(self, tree_16):
        _, levels, _ = tree_16
        for t in range(16):
            alpha, take, skip = branches(levels, t)
            node, nxt = levels[t], levels[t + 1]
            # Every node of level t + 1 is one node's take or skip child.
            children = np.count_nonzero(take >= 0) + np.count_nonzero(skip >= 0)
            assert children == nxt.masks.size
            for rows, weight in ((take, alpha), (skip, 1 - alpha)):
                child = np.where(rows >= 0, nxt.probs[rows], 0.0)
                np.testing.assert_allclose(
                    child, node.probs * weight, rtol=1e-12, atol=1e-15
                )

    def test_n16_branch_updates_are_martingale(self, tree_16):
        _, levels, _ = tree_16
        for t in range(16):
            alpha, take, skip = branches(levels, t)
            node, nxt = levels[t], levels[t + 1]
            drift = np.zeros_like(node.pi)
            for rows, weight in ((take, alpha), (skip, 1 - alpha)):
                delta = np.where((rows >= 0)[:, None], nxt.pi[rows] - node.pi, 0.0)
                drift += weight[:, None] * delta
            assert np.max(np.abs(drift)) <= 1e-10

"""Samplers: determinism, fixed size, certainty handling, and agreement
between the streaming runners and the exactly enumerated distributions.

The enumeration walks the same per-step probabilities through an
independent route (exhaustive recursion instead of random draws), so
comparing empirical frequencies of the runners against it exercises
both codepaths end to end.
"""

import bisect
import collections
import itertools
import math
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest

from splitsamp import (
    ContractViolationError,
    DesignKind,
    InclusionProbabilities,
    InvalidInputError,
    InvalidSizeError,
    Sample,
    compute_pips,
    derive_seed,
    draw_by_draw_from_distribution,
    enumerate_design,
    estimate_tail,
    make_sampler,
    sample_brewer,
    sample_chao,
    sample_midzuno,
    sample_srswor,
    sample_tille,
)
from splitsamp import designs
from splitsamp.designs import (
    SEED_LIMIT,
    _brewer_weights,
    _check_sum,
    _uniforms,
    brewer_plan,
    chao_plan,
    midzuno_plan,
    tille_plan,
)
from splitsamp.population import CERTAINTY_TOL

from conftest import UNEQUAL_DESIGNS, X_CERTAIN, ReferenceStream


class TestSample:
    def test_sorts_and_validates(self):
        s = Sample(selected=(3, 1), N=5)
        assert s.selected == (1, 3)
        assert s.size == 2
        assert s.indicator.tolist() == [0, 1, 0, 1, 0]

    def test_rejects_repeats(self):
        with pytest.raises(InvalidInputError, match="repeated"):
            Sample(selected=(1, 1), N=3)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError, match="range"):
            Sample(selected=(0, 3), N=3)


class TestCheckSum:
    def test_clamps_rounding_noise(self):
        w = _check_sum(np.array([0.5, 0.5, -1e-14]), 1.0, "ctx")
        assert w.min() == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ContractViolationError, match="ctx"):
            _check_sum(np.array([-0.2, 1.2]), 1.0, "ctx")

    def test_rejects_wrong_total(self):
        with pytest.raises(ContractViolationError, match="sum"):
            _check_sum(np.array([0.6, 0.6]), 1.0, "ctx")

    def test_rejects_nan_total(self):
        # Weights normalized by a zero total, as Brewer's step would be
        # with no drawable unit.
        with pytest.raises(ContractViolationError, match="ctx: probabilities sum to"):
            _check_sum(np.array([np.nan, 0.5]), 1.0, "ctx")

    def test_checks_every_row_of_a_block(self):
        good = np.array([[0.5, 0.5], [0.25, 0.75]])
        assert np.array_equal(_check_sum(good, 1.0, "ctx"), good)
        with pytest.raises(ContractViolationError, match="ctx: probabilities sum to"):
            _check_sum(np.array([[0.5, 0.5], [0.6, 0.6]]), 1.0, "ctx")
        with pytest.raises(ContractViolationError, match="negative probability -0.2"):
            _check_sum(np.array([[0.5, 0.5], [-0.2, 1.2]]), 1.0, "ctx")


class TestDesignKind:
    def test_from_string(self):
        assert DesignKind.from_string("chao") is DesignKind.CHAO
        with pytest.raises(InvalidInputError, match="unknown design"):
            DesignKind.from_string("systematic")


class TestSrswor:
    def test_size_and_range(self):
        s = sample_srswor(10, 4, rng_seed=0)
        assert s.size == 4 and s.N == 10

    def test_deterministic(self):
        assert sample_srswor(10, 4, 7).selected == sample_srswor(10, 4, 7).selected

    def test_invalid_size(self):
        with pytest.raises(InvalidSizeError, match="invalid size"):
            sample_srswor(3, 4, 0)


# Seeds where the 32-bit and 64-bit words of a seed change count or
# wrap, and the ends of the seed domain.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**128 - 1]


def reference_uniforms(seed, count, start=0):
    stream = ReferenceStream(seed)
    for _ in range(start):
        stream.random()
    return [stream.random() for _ in range(count)]


class TestStreams:
    """Each seed's uniforms are one counter-based stream: the pure-Python
    splitmix64 walk from the seed's key, whichever block of it a call
    asks for and wherever the seed sits in a batch."""

    SEEDS = EDGE_SEEDS + [derive_seed(11, r) for r in range(2000)]

    def test_known_answers(self):
        # Seed 0 has key 0, so its stream is the splitmix64 walk from
        # state 0, whose outputs TestDeriveSeed pins.
        first = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]
        assert _uniforms([0], 2)[0].tolist() == [(z >> 11) * 2.0**-53 for z in first]
        u = _uniforms(EDGE_SEEDS, 40, start=5)
        for seed, row in zip(EDGE_SEEDS, u):
            assert row.tolist() == reference_uniforms(seed, 40, start=5), seed

    def test_blocks_are_columns_of_a_longer_call(self):
        seeds = self.SEEDS[:300]
        u = _uniforms(seeds, 320)
        for start, count in ((0, 1), (1, 40), (160, 160), (319, 1), (100, 0)):
            block = _uniforms(seeds, count, start)
            assert np.array_equal(block, u[:, start : start + count]), (start, count)

    @pytest.mark.parametrize("count", [1, 40, 320])
    def test_rows_equal_single_seed_calls(self, count):
        expect = {s: _uniforms([s], count)[0] for s in self.SEEDS}
        # The edge seeds sit inside the first 655-row block.
        seeds = self.SEEDS[8:300] + self.SEEDS[:8] + self.SEEDS[300:]
        for start in range(0, len(seeds), 655):
            block = seeds[start : start + 655]
            for seed, row in zip(block, _uniforms(block, count)):
                assert np.array_equal(row, expect[seed]), seed

    @pytest.mark.parametrize("N, n", [(200, 40), (2000, 200), (10, 10)])
    def test_srswor_rows_are_the_smallest_uniforms(self, N, n):
        draw, _ = make_sampler(DesignKind.SRSWOR, N=N, n=n)
        seeds = [derive_seed(5, r) for r in range(150)] + EDGE_SEEDS
        rows = draw.rows(seeds)
        for seed, row in zip(seeds, rows):
            u = reference_uniforms(seed, N)
            assert row.tolist() == sorted(sorted(range(N), key=u.__getitem__)[:n]), seed
        for seed in EDGE_SEEDS:
            assert draw(seed).selected == tuple(rows[seeds.index(seed)])

    def test_consecutive_seeds_look_independent(self):
        # The first uniform of seeds 0..4999: mean, variance and the
        # correlation of adjacent seeds within 4 standard errors.
        R = 5000
        u = _uniforms(range(R), 1)[:, 0]
        assert abs(u.mean() - 0.5) <= 4.0 * math.sqrt(1.0 / 12.0 / R)
        assert abs(u.var() - 1.0 / 12.0) <= 4.0 * math.sqrt(1.0 / 180.0 / R)
        assert abs(np.corrcoef(u[:-1], u[1:])[0, 1]) <= 4.0 / math.sqrt(R - 1)

    @pytest.mark.parametrize("kind", list(DesignKind), ids=lambda k: k.value)
    def test_draw_equals_its_batch_row(self, kind):
        pi = compute_pips(X_CERTAIN, 4)
        if kind is DesignKind.SRSWOR:
            draw, _ = make_sampler(kind, N=pi.N, n=pi.n)
        else:
            draw, _ = make_sampler(kind, pi=pi, x=X_CERTAIN)
        seeds = self.SEEDS[8:1000] + self.SEEDS[:8] + self.SEEDS[1000:]
        rows = np.vstack([draw.rows(seeds[i : i + 655]) for i in range(0, len(seeds), 655)])
        assert np.array_equal(rows, draw.rows(seeds[::-1])[::-1])
        for seed, row in zip(seeds, rows):
            assert draw(seed).selected == tuple(row), seed


def test_numpy_generators_are_never_used(monkeypatch):
    """Every sampling path reads its uniforms from ``_uniforms`` alone."""
    pi = compute_pips(X_CERTAIN, 4)
    inverse_cdf = compute_pips(INVERSE_CDF_X, 3)
    dist = enumerate_design(DesignKind.BREWER, pi=inverse_cdf)

    def refuse(*args, **kwargs):
        raise AssertionError("a sampling path used a numpy generator")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "Generator", refuse)
    for kind in DesignKind:
        if kind is DesignKind.SRSWOR:
            draw, _ = make_sampler(kind, N=pi.N, n=pi.n)
        else:
            draw, _ = make_sampler(kind, pi=pi, x=X_CERTAIN)
        assert draw(7).size == 4
        assert draw.rows(range(50)).shape == (50, 4)
    for target in (pi, inverse_cdf):
        sample, _ = sample_brewer(target, 7, trace="realized")
        assert sample == sample_brewer(target, 7)
    assert len(draw_by_draw_from_distribution(dist, 7).selected) == 3


class TestSeedDomain:
    """Seeds are integers in [0, 2**128): the two 64-bit words that a
    stream's key folds.  Anything else is rejected up front."""

    BAD = [-1, SEED_LIMIT, 2**200, 1.5, "3", None]

    def test_invalid_input_is_a_value_error(self):
        assert issubclass(InvalidInputError, ValueError)

    @pytest.mark.parametrize("kind", list(DesignKind), ids=lambda k: k.value)
    def test_draw_and_rows(self, kind):
        x = np.arange(1.0, 7.0)
        draw, _ = make_sampler(kind, x=x, n=3, N=6)
        for seed in (0, SEED_LIMIT - 1):
            assert draw(seed).size == 3
            assert draw.rows([1, seed]).shape == (2, 3)
        for seed in self.BAD:
            with pytest.raises(InvalidInputError, match="seed must be an integer"):
                draw(seed)
            with pytest.raises(InvalidInputError, match="seed must be an integer"):
                draw.rows([0, 1, seed])

    def test_sample_functions(self, pi_plain):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        dist = enumerate_design(DesignKind.GENERALIZED_MIDZUNO, pi=pi_plain)
        calls = [
            lambda seed: sample_srswor(4, 2, seed),
            lambda seed: sample_chao(pi_plain, x, seed),
            lambda seed: sample_tille(pi_plain, x, seed),
            lambda seed: sample_midzuno(pi_plain, seed),
            lambda seed: sample_brewer(pi_plain, seed),
            lambda seed: sample_brewer(pi_plain, seed, trace="realized")[0],
            lambda seed: Sample(draw_by_draw_from_distribution(dist, seed).selected, 4),
        ]
        for call in calls:
            assert call(SEED_LIMIT - 1).size == 2
            for seed in (-1, SEED_LIMIT):
                with pytest.raises(InvalidInputError, match="seed must be an integer"):
                    call(seed)


@pytest.fixture(scope="module")
def pi_plain():
    # No capping: pi = x / 5.
    return compute_pips(np.array([1.0, 2.0, 3.0, 4.0]), 2)


@pytest.fixture(scope="module")
def pi_capped():
    # Unit 3 is certain: pi = [1/3, 1/3, 1/3, 1].
    return compute_pips(np.array([1.0, 1.0, 1.0, 10.0]), 2)


class TestChao:
    def test_fixed_size_and_determinism(self, pi_plain):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        a = sample_chao(pi_plain, x, rng_seed=5)
        b = sample_chao(pi_plain, x, rng_seed=5)
        assert a.selected == b.selected and a.size == 2

    def test_certainty_unit_always_sampled(self, pi_capped):
        x = np.array([1.0, 1.0, 1.0, 10.0])
        for seed in range(40):
            assert 3 in sample_chao(pi_capped, x, rng_seed=seed).selected

    def test_stream_order_is_a_relabeling(self, pi_plain):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        order = np.array([3, 1, 0, 2])
        s = sample_chao(pi_plain, x, rng_seed=9, stream_order=order)
        assert s.size == 2

    def test_bad_stream_order(self, pi_plain):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(InvalidInputError, match="permutation"):
            sample_chao(pi_plain, x, rng_seed=0, stream_order=np.array([0, 1, 1, 2]))

    def test_non_integer_stream_order(self, pi_plain):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(InvalidInputError, match="permutation"):
            sample_chao(pi_plain, x, rng_seed=0, stream_order=[0.2, 1.7, 2.1, 3])
        order = np.array([3.0, 1.0, 0.0, 2.0])
        assert (
            sample_chao(pi_plain, x, rng_seed=9, stream_order=order).selected
            == sample_chao(pi_plain, x, rng_seed=9, stream_order=[3, 1, 0, 2]).selected
        )

    def test_pi_must_match_x(self, pi_plain):
        with pytest.raises(InvalidInputError, match="capped"):
            sample_chao(pi_plain, np.array([4.0, 3.0, 2.0, 1.0]), rng_seed=0)

    def test_plan_ladder_shapes(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        plan = chao_plan(x, 2)
        ladder = plan.ladder
        # One rung per stream prefix of 2..5 units; the first caps both.
        assert ladder.lam.size == 4 and ladder.capped[0] == 2
        assert ladder.cross_at.tolist()[0] == 0 and ladder.cross_at.size == 4
        # Each unit crosses the cap at most once.
        assert sorted(set(ladder.cross.tolist())) == sorted(ladder.cross.tolist())
        for s in range(4):
            rung = ladder.pi(s, 2 + s)
            assert rung.sum() == pytest.approx(2.0, abs=1e-12)
            assert rung.min() > 0.0 and rung.max() <= 1.0

class TestTille:
    def test_fixed_size_and_determinism(self, pi_plain):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        a = sample_tille(pi_plain, x, rng_seed=5)
        assert a.selected == sample_tille(pi_plain, x, rng_seed=5).selected
        assert a.size == 2

    def test_certainty_unit_always_sampled(self, pi_capped):
        x = np.array([1.0, 1.0, 1.0, 10.0])
        for seed in range(40):
            assert 3 in sample_tille(pi_capped, x, rng_seed=seed).selected

    def test_elimination_plan_shape(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        plan = tille_plan(x, 2)
        assert plan.steps == 3
        # Rung 0 (size 5) caps every unit; units cross smallest first.
        assert plan.capped.tolist()[0] == 5
        assert plan.cross.tolist() == [0, 1, 2, 3, 4]
        for s in range(plan.steps + 1):
            assert plan.pi(s).sum() == pytest.approx(5 - s, abs=1e-12)

    def test_census_has_no_steps(self):
        plan = tille_plan(np.array([1.0, 2.0]), 2)
        assert plan.steps == 0
        pi = compute_pips(np.array([1.0, 2.0]), 2)
        assert sample_tille(pi, np.array([1.0, 2.0]), rng_seed=0).selected == (0, 1)


class TestMidzuno:
    def test_fixed_size_and_determinism(self, pi_plain):
        a = sample_midzuno(pi_plain, rng_seed=5)
        assert a.selected == sample_midzuno(pi_plain, rng_seed=5).selected
        assert a.size == 2

    def test_certainty_units_preselected(self, pi_capped):
        for seed in range(40):
            assert 3 in sample_midzuno(pi_capped, rng_seed=seed).selected

    def test_all_active_selected_when_forced(self):
        # pi = [1, 1, 0.5, 0.5] with n = 3: one free slot for two units.
        pi = compute_pips(np.array([10.0, 10.0, 1.0, 1.0]), 3)
        s = sample_midzuno(pi, rng_seed=1)
        assert {0, 1}.issubset(s.selected) and s.size == 3

    def test_selection_plan_shape(self, pi_plain):
        plan = midzuno_plan(pi_plain)
        ladder = plan.ladder
        # Tille's ladder on 1 - pi, from 4 units down to 4 - 2.
        assert ladder.steps == 2
        assert np.array_equal(ladder.x, 1.0 - pi_plain.pi)
        for s in range(ladder.steps + 1):
            assert ladder.pi(s).sum() == pytest.approx(4 - s, abs=1e-12)


class TestBrewer:
    def test_fixed_size_and_determinism(self, pi_plain):
        a = sample_brewer(pi_plain, rng_seed=5)
        assert a.selected == sample_brewer(pi_plain, rng_seed=5).selected
        assert a.size == 2

    def test_certainty_units_preselected(self, pi_capped):
        for seed in range(40):
            sample = sample_brewer(pi_capped, rng_seed=seed)
            assert 3 in sample.selected and sample.size == 2

    def test_bad_trace_mode(self, pi_plain):
        for trace in ("verbose", "full", True):
            with pytest.raises(InvalidInputError, match="trace must be"):
                sample_brewer(pi_plain, rng_seed=0, trace=trace)

    def test_traced_plan_follows_pi(self):
        # Traced draws keep the plan of the last pi; two pi of equal N and
        # n, drawn alternately, each give their own sampler's samples.
        x = np.random.default_rng(8).uniform(1.0, 2.0, size=(2, 30))
        pis = [compute_pips(row, 6) for row in x]
        draws = [make_sampler(DesignKind.BREWER, pi=pi)[0] for pi in pis]
        assert not np.array_equal(pis[0].pi, pis[1].pi)
        for seed in range(40):
            for pi, draw in zip(pis, draws):
                traced, _ = sample_brewer(pi, seed, trace="realized")
                assert traced.selected == draw(seed).selected, seed
        # The two differ on some seed, so a stale plan would show.
        assert any(draws[0](s).selected != draws[1](s).selected for s in range(40))
        # Traces share the kept plan's arrays, which are read-only.
        _, tr = sample_brewer(pis[0], 0, trace="realized")
        assert not tr.steps.p.flags.writeable and not tr.steps.units.flags.writeable

    @pytest.mark.parametrize("gap, certain", [(1e-13, [0]), (1e-10, [])])
    def test_certain_within_the_package_tolerance(self, gap, certain):
        # Unit 0 is certain for Brewer's plan exactly when it is for
        # InclusionProbabilities: within CERTAINTY_TOL of 1.
        raw = np.array([1.0 - gap, 0.4, 0.3, 0.3 + gap])
        pi = InclusionProbabilities(pi=raw, n=2)
        assert np.flatnonzero(pi.certain).tolist() == certain
        for vec in (raw, pi.pi):
            assert brewer_plan(vec).certain.tolist() == certain

    def test_traced_and_plain_agree_near_certainty(self):
        # Criterion 04's population with unit 0 at pi = 1 - 1e-10 and the
        # rest rescaled to sum 9 + 1e-10.  Unit 0 is not certain, so both
        # paths draw it as an active unit, and a seed gives one sample
        # with or without a trace.
        x = -np.log1p(-np.random.default_rng(77).random(50))
        near = compute_pips(x, 10).pi.copy()
        near[0] = 1.0 - 1e-10
        near[1:] *= (10.0 - near[0]) / near[1:].sum()
        pi = InclusionProbabilities(pi=near, n=10)
        draw, _ = make_sampler(DesignKind.BREWER, pi=pi)
        for seed in range(500):
            traced, _ = sample_brewer(pi, seed, trace="realized")
            assert traced.selected == draw(seed).selected, seed


    def test_batch_checks_its_weights(self):
        # A negative pi is no valid input; the plan still refuses the
        # negative selection weight that every row's first draw would give.
        with pytest.raises(ContractViolationError, match="brewer step 1: negative"):
            brewer_plan(np.array([-0.1, 0.6, 0.5]))

    def test_kernel_checks_raise(self):
        # pi = [0.75, 0.75] asks for two draws and puts both units at
        # q = 2 * 0.75 / 1.5 = 1, where the weight q (r - q) / (1 - q) is
        # infinite.
        with np.errstate(divide="ignore"), pytest.raises(
            ContractViolationError, match="brewer step 1: selection weights sum to inf"
        ):
            brewer_plan(np.array([0.75, 0.75]))
        # A unit at c p = 1.25 when step 3 starts.
        drawn = np.zeros((1, 2), dtype=bool)
        with pytest.raises(
            ContractViolationError, match="brewer step 2: intermediate probability above 1"
        ):
            _brewer_weights(np.array([0.5, 0.4]), drawn, np.array([2.5]), 1, 3)


class TestMakeSampler:
    def test_matches_direct_calls(self, pi_plain):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        pairs = [
            (DesignKind.CHAO, lambda seed: sample_chao(pi_plain, x, seed)),
            (DesignKind.TILLE_ELIMINATION, lambda seed: sample_tille(pi_plain, x, seed)),
            (DesignKind.GENERALIZED_MIDZUNO, lambda seed: sample_midzuno(pi_plain, seed)),
            (DesignKind.BREWER, lambda seed: sample_brewer(pi_plain, seed)),
        ]
        for kind, direct in pairs:
            draw, pi = make_sampler(kind, pi=pi_plain, x=x)
            assert np.allclose(pi.pi, pi_plain.pi)
            for seed in range(10):
                assert draw(seed).selected == direct(seed).selected, kind

    def test_derives_pi_from_x(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        draw, pi = make_sampler(DesignKind.BREWER, x=x, n=2)
        assert pi.n == 2
        assert draw(0).size == 2

    def test_srswor_from_N(self):
        draw, pi = make_sampler(DesignKind.SRSWOR, N=6, n=2)
        assert pi.is_equal_probability()
        assert draw(3).selected == sample_srswor(6, 2, 3).selected

    @pytest.mark.parametrize("kind", list(DesignKind), ids=lambda k: k.value)
    def test_empty_batch(self, kind):
        draw, _ = make_sampler(kind, x=np.arange(1.0, 7.0), n=3, N=6)
        assert draw.rows([]).shape == (0, 3)

    def test_rejects_n_or_N_that_pi_does_not_have(self):
        # pi has n = 3 and N = 6; the conflicting n or N was once ignored.
        pi = compute_pips(np.arange(1.0, 7.0), 3)
        with pytest.raises(InvalidInputError, match="pi has n="):
            make_sampler(DesignKind.BREWER, pi=pi, n=4)
        equal = InclusionProbabilities(pi=np.full(6, 0.5), n=3)
        with pytest.raises(InvalidInputError, match="pi has n="):
            make_sampler(DesignKind.SRSWOR, pi=equal, N=10, n=5)
        assert make_sampler(DesignKind.SRSWOR, pi=equal, N=6, n=3)[1] is equal

    def test_missing_inputs(self):
        with pytest.raises(InvalidInputError):
            make_sampler(DesignKind.CHAO, n=2)
        with pytest.raises(InvalidInputError):
            make_sampler(DesignKind.SRSWOR)

    @pytest.mark.parametrize(
        "kind", [DesignKind.CHAO, DesignKind.TILLE_ELIMINATION], ids=lambda k: k.value
    )
    def test_rejects_pi_that_x_does_not_give(self, kind):
        # x = 1..6 at n = 3 gives pi = x / 7, not 0.5 everywhere; Chao and
        # Tille sample from x, so expanding with 0.5 would be wrong.
        x = np.arange(1.0, 7.0)
        pi = InclusionProbabilities(pi=np.full(6, 0.5), n=3)
        match = "capped size shares"
        with pytest.raises(InvalidInputError, match=match):
            make_sampler(kind, pi=pi, x=x)
        with pytest.raises(InvalidInputError, match=match):
            estimate_tail(kind, y=np.ones(6), eps_grid=[0.1], replicates=10, pi=pi, x=x)
        with pytest.raises(InvalidInputError, match=match):
            enumerate_design(kind, x=x, pi=pi)


# Reference loops: one replicate at a time, in Python floats, one
# ladder step after another.  The samplers draw every replicate of a
# batch in lockstep and must give, seed for seed, the sample these loops
# give.


def reference_step(u, pool, crossing, w, r):
    """One ladder step for one replicate: the pool units share weight r
    each, the crossing units have weights w.  Appends the crossing units
    to the pool and returns the position that u picks."""
    count = len(pool)
    r = max(r, 0.0) if count else 0.0
    cum = list(itertools.accumulate(max(v, 0.0) for v in w))
    mass = cum[-1] if cum else 0.0
    total = mass + count * r
    assert abs(total - 1.0) <= 1e-9
    v = u * total
    k = bisect.bisect_right(cum, v)
    pool.extend(crossing)
    if k < len(cum) or not (count and r > 0.0):
        return count + min(k, len(cum) - 1)
    return int(min((v - mass) / r, count - 1))


def reference_steps(ladder):
    """Per step: the crossing units, their weights and the pool weight."""
    lam, x = ladder.lam.tolist(), ladder.x.tolist()
    at = ladder.cross_at.tolist()
    for j in range(ladder.steps):
        crossing = ladder.cross[at[j] : at[j + 1]].tolist()
        w = [1.0 - lam[j + 1] * x[k] for k in crossing]
        yield crossing, w, 1.0 - lam[j + 1] / lam[j]


def reference_eliminate(ladder, rng):
    pool, picked = [], []
    for step in reference_steps(ladder):
        pos = reference_step(rng.random(), pool, *step)
        picked.append(pool[pos])
        pool[pos] = pool[-1]
        pool.pop()
    return picked, pool


def reference_tille(plan, seed):
    _, kept = reference_eliminate(plan, ReferenceStream(seed))
    return np.array(kept + plan.cross[plan.cross_at[-1] :].tolist(), dtype=int)


def reference_chao(plan, seed):
    """Chao's arrivals as eliminations on the stream ladder: at each,
    the arrival or one reservoir unit leaves.  The survivors are stream
    positions; ``plan.order`` maps them to units."""
    return plan.order[reference_tille(plan.ladder, seed)]


def reference_midzuno(plan, seed):
    if plan.ladder is None:
        forced = plan.n - plan.certain.size == plan.active.size
        return np.concatenate([plan.certain, plan.active if forced else []])
    picked, _ = reference_eliminate(plan.ladder, ReferenceStream(seed))
    return np.concatenate([plan.certain, plan.active[picked]])


def reference_brewer(pi_vec, seed, counts=None):
    """Brewer's draws for one seed, one uniform per ``rng.random()``
    call.  With r draws left and S drawn, an undrawn unit sits at
    q = c p_k, c = r / (sum(p) - sum_S p), with weight q g(q),
    g(q) = (r - q) / (1 - q).  A trial proposes k with probability
    p_k / sum(p) and accepts it, if undrawn, with probability
    g(c p_k) / g(c p_max); a step whose bound on the expected trials,
    sum(p) g(c p_max) / ((sum(p) - sum_S p) r), exceeds 4 picks by
    inverse CDF over the weights instead.  ``counts``, if given, adds up
    the inverse-CDF steps and the uniforms spent."""
    rng = ReferenceStream(seed)
    chosen = [k for k, v in enumerate(pi_vec) if v >= 1.0 - CERTAINTY_TOL]
    active = [k for k, v in enumerate(pi_vec) if v < 1.0 - CERTAINTY_TOL]
    p = [float(pi_vec[k]) for k in active]
    total = math.fsum(p)
    draws = round(total)
    cum = list(itertools.accumulate(max(v, 0.0) for v in p))

    def g(q, r):
        return (r - q) / (1.0 - q)

    drawn = set()
    s = 0.0
    spent = inverse_cdf = 0
    for t in range(draws):
        r = draws - t
        left = total - s
        c = r / left
        q_max = c * max(p[k] for k in range(len(p)) if k not in drawn)
        g_max = g(q_max, r)
        if q_max < 1.0 and total * g_max / (left * r) <= 4.0:
            while True:
                spent += 2
                k = bisect.bisect_right(cum, rng.random() * cum[-1])
                if rng.random() * g_max < g(c * p[k], r) and k not in drawn:
                    break
        else:
            spent += 1
            inverse_cdf += 1
            w = [0.0 if j in drawn else c * p[j] * g(c * p[j], r) for j in range(len(p))]
            cw = list(itertools.accumulate(w))
            v = rng.random() * cw[-1]
            k = sum(1 for a in cw if a <= v)
        drawn.add(k)
        s += p[k]
        chosen.append(active[k])
    if counts is not None:
        counts["inverse_cdf"] += inverse_cdf
        counts["uniforms"] = max(counts["uniforms"], spent / max(draws, 1))
    return np.array(chosen, dtype=int)


# Brewer's first draw at n = 3 has a trial bound above 4 here.
INVERSE_CDF_X = np.array([0.2, 0.3, 0.5, 0.6, 1.0, 1.4, 2.0, 3.0, 3.7])

# Ladder shapes at the edges of the crossing picks.  Equal sizes: every
# unit crosses at step 0, where no ladder has a pool.  Groups of 9, 8 and
# 7 equal sizes cross 2**k + 1, 2**k and 2**k - 1 at once (k = 3), at
# the edges of the pick's bisection.
EQUAL_X = (np.ones(16), 5)
BISECTION_X = (np.repeat([1.0, 2.0, 4.0], [9, 8, 7]), 6)
# The large-frame benchmark's shape, with 33 certainty units.
LARGE_FRAME_X = (np.random.default_rng(31).lognormal(0.0, 1.5, size=2000), 200)


def crossings(ladder):
    """Per step: the count of units crossing the cap and the pool size."""
    return np.diff(ladder.cross_at), ladder.cross_at[:-1] - np.arange(ladder.steps)


class TestLockstepMatchesReferenceLoops:
    @pytest.mark.parametrize(
        "x, n",
        [
            (np.array([1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 40.0]), 4),
            (np.random.default_rng(5).lognormal(0.0, 1.0, size=30), 9),
            (np.array([1.0, 2.0, 3.0]), 3),
            EQUAL_X,
            BISECTION_X,
            # One row walks the pool as a Python list, a batch as arrays.
            LARGE_FRAME_X,
        ],
        ids=["certainty", "lognormal", "census", "equal", "bisection", "large-frame"],
    )
    def test_same_sample_for_each_seed(self, x, n):
        pi = compute_pips(x, n)
        order = np.random.default_rng(1).permutation(x.size)
        references = {
            DesignKind.CHAO: partial(reference_chao, chao_plan(x, n, order=order)),
            DesignKind.TILLE_ELIMINATION: partial(reference_tille, tille_plan(x, n)),
            DesignKind.GENERALIZED_MIDZUNO: partial(reference_midzuno, midzuno_plan(pi)),
            DesignKind.BREWER: partial(reference_brewer, pi.pi),
        }
        seeds = list(range(20 if x.size > 1000 else 300))
        for kind, reference in references.items():
            extra = {"stream_order": order} if kind is DesignKind.CHAO else {}
            draw, _ = make_sampler(kind, pi=pi, x=x, **extra)
            rows = draw.rows(seeds)
            for seed in seeds:
                expect = tuple(sorted(int(k) for k in reference(seed)))
                assert draw(seed).selected == expect, (kind, seed)
                assert tuple(rows[seed]) == expect, (kind, seed)

    def test_edge_shapes(self):
        # Tille's first step holds all 16 units, Chao's the 5 reservoir
        # units and the arrival.
        equal = ((tille_plan(*EQUAL_X), 16), (chao_plan(*EQUAL_X).ladder, 6))
        for ladder, first in equal:
            m, count = crossings(ladder)
            assert m[0] == first and count[0] == 0
        midzuno = midzuno_plan(compute_pips(*BISECTION_X)).ladder
        for ladder in (tille_plan(*BISECTION_X), midzuno):
            assert {7, 8, 9} <= set(crossings(ladder)[0].tolist())

    def test_steps_without_pool_weight(self):
        # A hand-built ladder: three units cross at step 0, with no pool,
        # one of them at weight 0; three more at step 1, where the rung
        # does not move, so the two pool units have weight r = 0; the
        # pool of four then shares step 2.  The picks run on the crossing
        # weights alone, as in the reference, whatever u T rounds to.
        ladder = designs.Ladder(
            x=np.array([0.5, 1.0, 1.5, 1.2, 1.0, 0.8]),
            lam=np.array([np.inf, 2 / 3, 2 / 3, 0.5]),
            capped=np.array([6, 3, 0, 0]),
            cross=np.arange(6),
            cross_at=np.array([0, 3, 6, 6]),
        )
        m, count = crossings(ladder)
        assert m.tolist() == [3, 3, 0] and count.tolist() == [0, 2, 4]
        # Uniforms on the cumulative weights pick as searchsorted's
        # right side does: step 0's total is 1.0, so u = 2/3 ties.
        steps = list(reference_steps(ladder))
        ties = [c for _, w, _ in steps for c in itertools.accumulate(w)]
        grid = np.linspace(0.0, 1.0, 64, endpoint=False)
        u = np.unique(np.r_[grid, ties, 1 - 2**-53])
        u = u[u < 1.0]
        pos = designs._picks(ladder, np.tile(u[:, None], (1, 3)), count, str)
        for i, v in enumerate(u.tolist()):
            pools = ([0] * int(c) for c in count)
            expect = [reference_step(v, p, *step) for p, step in zip(pools, steps)]
            assert pos[i].tolist() == expect, v
        seeds = list(range(300))
        rows = designs._eliminate(ladder, seeds, str)
        for seed in seeds:
            expect = reference_eliminate(ladder, ReferenceStream(seed))
            one = designs._eliminate(ladder, [seed], str)
            for got in (one, (rows[0][seed : seed + 1], rows[1][seed : seed + 1])):
                assert [part[0].tolist() for part in got] == list(expect), seed

    def test_one_draw_makes_no_call_per_crossing_step(self, monkeypatch):
        # A per-step loop over the steps where several units cross would
        # make one cumsum or searchsorted call per such step.
        plan = tille_plan(*LARGE_FRAME_X)
        m, _ = crossings(plan)
        assert plan.steps == 1800 and np.sum(m > 1) > 500
        calls = collections.Counter()
        for name in ("cumsum", "searchsorted"):
            def counting(*args, _name=name, _f=getattr(np, name), **kwargs):
                calls[_name] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(np, name, counting)
        draw, _ = make_sampler(DesignKind.TILLE_ELIMINATION, x=LARGE_FRAME_X[0], n=200)
        assert draw(7).size == 200
        # One cumsum per distinct crossing count here: 6 calls.
        assert 0 < sum(calls.values()) < np.sum(m > 1) / 10

    @pytest.mark.parametrize(
        "x, n",
        [
            (INVERSE_CDF_X, 3),
            (np.random.default_rng(3).lognormal(0.0, 1.5, size=300), 30),
        ],
        ids=["inverse-cdf", "second-budget"],
    )
    def test_brewer_pick_paths(self, x, n, monkeypatch):
        pi = compute_pips(x, n)
        draw, _ = make_sampler(DesignKind.BREWER, pi=pi)
        seeds = list(range(300))
        # The calls that read a stream on past its first block.
        refills = collections.Counter()

        def uniforms(seeds, count, start=0):
            refills["batch" if len(seeds) > 1 else "row"] += start > 0
            return read(seeds, count, start)

        read = designs._uniforms
        monkeypatch.setattr(designs, "_uniforms", uniforms)
        rows = draw.rows(seeds)
        counts = collections.Counter()
        for seed in seeds:
            expect = tuple(sorted(int(k) for k in reference_brewer(pi.pi, seed, counts)))
            assert draw(seed).selected == expect == tuple(rows[seed]), seed
        if x is INVERSE_CDF_X:
            # Every sample's first draw has a trial bound above 4.
            assert counts["inverse_cdf"] == len(seeds)
        else:
            # Some rows spend more than the 4 uniforms per draw read up
            # front, so the batch and those rows alone read on.
            assert counts["uniforms"] > 4
            assert refills["batch"] > 0 and refills["row"] > 0


class TestRunnersMatchEnumeration:
    """Empirical frequencies of the stream runners against the exact
    distributions; 4 sigma of binomial noise at R = 4000."""

    R = 4000

    def frequencies(self, draw, dist):
        counts = {key: 0 for key in dist.support}
        extra = 0
        for seed in range(self.R):
            key = draw(seed).selected
            if key in counts:
                counts[key] += 1
            else:
                extra += 1
        assert extra == 0, "runner produced a sample outside the exact support"
        return {k: c / self.R for k, c in counts.items()}

    @pytest.mark.parametrize("kind", UNEQUAL_DESIGNS, ids=lambda k: k.value)
    def test_runner_frequencies(self, kind):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        pi = compute_pips(x, 2)
        dist = enumerate_design(kind, x=x, pi=pi, n=2)
        draw, _ = make_sampler(kind, pi=pi, x=x)
        freqs = self.frequencies(draw, dist)
        for key, p in dist.support.items():
            sigma = np.sqrt(p * (1 - p) / self.R)
            assert abs(freqs[key] - p) <= 4 * sigma + 1e-12, (kind, key)


    @pytest.mark.parametrize(
        "kind", [DesignKind.CHAO, DesignKind.TILLE_ELIMINATION], ids=lambda k: k.value
    )
    def test_zero_rung_frequencies(self, kind):
        # At size 3 the three unit-size units fill every slot, so lam is
        # 0 on that rung and the tiny units sit at 0 there; the next rung
        # lifts them above 0 again.  No step may divide by the 0 rung.
        x = np.array([1e-13, 1e-13, 1.0, 1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            dist = enumerate_design(kind, x=x, n=2)
            draw, _ = make_sampler(kind, x=x, n=2)
            freqs = self.frequencies(draw, dist)
        assert dict(dist.support) == pytest.approx(
            {(2, 3): 1 / 3, (2, 4): 1 / 3, (3, 4): 1 / 3}, abs=1e-12
        )
        for key, p in dist.support.items():
            sigma = np.sqrt(p * (1 - p) / self.R)
            assert abs(freqs[key] - p) <= 4 * sigma, (kind, key)

    def test_brewer_inverse_cdf_frequencies(self):
        # 200,000 samples where every first draw takes the inverse CDF;
        # |z| <= 4 for every support sample.
        R = 200_000
        pi = compute_pips(INVERSE_CDF_X, 3)
        dist = enumerate_design(DesignKind.BREWER, pi=pi)
        draw, _ = make_sampler(DesignKind.BREWER, pi=pi)
        counts = collections.Counter()
        for lo in range(0, R, 20_000):
            counts.update(map(tuple, draw.rows(range(lo, lo + 20_000)).tolist()))
        assert set(counts) <= set(dist.support)
        for key, p in dist.support.items():
            z = (counts[key] / R - p) / math.sqrt(p * (1.0 - p) / R)
            assert abs(z) <= 4.0, (key, z)


class TestEnumeratedInclusionProbabilities:
    @pytest.mark.parametrize("kind", UNEQUAL_DESIGNS, ids=lambda k: k.value)
    def test_capped_instance(self, kind):
        x = np.array([1.0, 1.0, 1.0, 10.0])
        pi = compute_pips(x, 2)
        dist = enumerate_design(kind, x=x, pi=pi, n=2)
        from splitsamp import first_second_order

        pi_hat, _ = first_second_order(dist)
        assert np.max(np.abs(pi_hat - pi.pi)) <= 1e-9
        assert dist.fixed_size

    @pytest.mark.parametrize("kind", UNEQUAL_DESIGNS, ids=lambda k: k.value)
    def test_random_instance(self, kind):
        rng = np.random.default_rng(2024)
        x = rng.uniform(0.5, 3.0, size=5)
        pi = compute_pips(x, 3)
        dist = enumerate_design(kind, x=x, pi=pi, n=3)
        from splitsamp import first_second_order

        pi_hat, _ = first_second_order(dist)
        assert np.max(np.abs(pi_hat - pi.pi)) <= 1e-9


# ---------------------------------------------------------------------------
# The O(N) ladders and their steps against dense capped shares.

def ladder_instances():
    """Random sizes with N up to 2000: lognormal frames with certainty
    units, some rounded up to integers so that many sizes tie."""
    rng = np.random.default_rng(31)
    for N, n, sigma, ties in (
        (2000, 200, 1.5, False),
        (500, 450, 2.0, True),
        (300, 40, 2.5, True),
        (60, 12, 1.0, False),
    ):
        x = rng.lognormal(0.0, sigma, size=N)
        yield np.ceil(x) if ties else x, n


LADDER_IDS = ["N2000", "N500_ties", "N300_ties", "N60"]


def capped_at(ladder, s, units):
    capped = ladder.cross[ladder.cross_at[s] :]
    return sorted(capped[capped < units].tolist())


def structured_law(ladder, j, units):
    """Step j's law per unit from the plan, over the first ``units``
    units: the crossing weight, the shared pool weight, or 0 for a unit
    still capped.  Chao's arrival at step j counts as capped before it,
    so it has its crossing weight, or 0 if it is capped on arrival."""
    lam = ladder.lam
    law = np.full(units, 1.0 - lam[j + 1] / lam[j])
    law[capped_at(ladder, j, units)] = 0.0
    crossing = ladder.cross[ladder.cross_at[j] : ladder.cross_at[j + 1]]
    law[crossing] = 1.0 - lam[j + 1] * ladder.x[crossing]
    return law


class TestLadders:
    def check_rung(self, ladder, s, x, ref):
        assert capped_at(ladder, s, x.size) == np.flatnonzero(ref == 1.0).tolist()
        assert ladder.capped[s] == int(np.sum(ref == 1.0))
        free = ref < 1.0
        if free.any():
            lam = ref[free] / x[free]
            assert np.max(np.abs(lam / ladder.lam[s] - 1.0)) <= 1e-12
        assert np.max(np.abs(ladder.pi(s, x.size) - ref)) <= 1e-12

    @pytest.mark.parametrize("x, n", ladder_instances(), ids=LADDER_IDS)
    def test_tille_rungs_match_compute_pips(self, x, n):
        ladder = tille_plan(x, n)
        assert ladder.steps == x.size - n
        for s in range(ladder.steps + 1):
            self.check_rung(ladder, s, x, compute_pips(x, x.size - s).pi)

    @pytest.mark.parametrize("x, n", ladder_instances(), ids=LADDER_IDS)
    def test_chao_prefix_rungs_match_compute_pips(self, x, n):
        order = np.random.default_rng(4).permutation(x.size)
        plan = chao_plan(x, n, order=order)
        xs = x[order]
        for s in range(plan.ladder.steps + 1):
            ref = compute_pips(xs[: n + s], n).pi
            self.check_rung(plan.ladder, s, xs[: n + s], ref)

    @pytest.mark.parametrize("x, n", ladder_instances(), ids=LADDER_IDS)
    def test_step_laws_match_dense_columns(self, x, n):
        ladder = tille_plan(x, n)
        prev = compute_pips(x, x.size).pi
        for j in range(ladder.steps):
            cur = compute_pips(x, x.size - 1 - j).pi
            law = structured_law(ladder, j, x.size)
            assert np.max(np.abs(law - (1.0 - cur / prev))) <= 1e-12, j
            prev = cur
        # Chao's step j removes one of the n + j + 1 units: the arrival
        # with 1 - pi_t(t), as if it were at 1 before, or a reservoir unit.
        plan = chao_plan(x, n)
        prev = compute_pips(x[:n], n).pi
        for j in range(plan.ladder.steps):
            cur = compute_pips(x[: n + 1 + j], n).pi
            law = structured_law(plan.ladder, j, n + j + 1)
            assert np.max(np.abs(law - (1.0 - cur / np.append(prev, 1.0)))) <= 1e-12, j
            prev = cur

    def test_midzuno_ladder_runs_on_complements(self):
        x = np.random.default_rng(9).lognormal(0.0, 1.5, size=300)
        pi = compute_pips(x, 60)
        plan = midzuno_plan(pi)
        comp = 1.0 - pi.pi[plan.active]
        m = plan.active.size - (pi.n - plan.certain.size)
        assert plan.ladder.steps == plan.active.size - m
        for s in range(plan.ladder.steps + 1):
            ref = compute_pips(comp, comp.size - s).pi
            assert np.max(np.abs(plan.ladder.pi(s) - ref)) <= 1e-12

    def test_tille_plan_memory_at_scale(self):
        x = np.random.default_rng(8).lognormal(0.0, 1.5, size=100_000)
        tracemalloc.start()
        try:
            plan = tille_plan(x, 10_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert plan.steps == 90_000
        assert peak < 20e6


class TestCrossingFrequencies:
    """Sampler frequencies against exact enumeration where many units
    cross the cap; 4 sigma of binomial noise at R = 4000."""

    R = 4000

    @pytest.mark.parametrize(
        "kind",
        [DesignKind.CHAO, DesignKind.TILLE_ELIMINATION, DesignKind.GENERALIZED_MIDZUNO],
        ids=lambda k: k.value,
    )
    @pytest.mark.parametrize(
        "x, n",
        [
            (X_CERTAIN[[0, 2, 4, 6, 8, 9, 10, 11]], 4),
            (np.random.default_rng(12).lognormal(0.0, 1.5, size=8), 5),
        ],
        ids=["certain", "lognormal"],
    )
    def test_frequencies_match_enumeration(self, kind, x, n):
        pi = compute_pips(x, n)
        dist = enumerate_design(kind, x=x, pi=pi)
        draw, _ = make_sampler(kind, pi=pi, x=x)
        counts: dict[tuple[int, ...], int] = {}
        for row in draw.rows(list(range(self.R))):
            key = tuple(int(k) for k in row)
            counts[key] = counts.get(key, 0) + 1
        assert set(counts) <= set(dist.support)
        for key, p in dist.support.items():
            sigma = np.sqrt(p * (1 - p) / self.R)
            assert abs(counts.get(key, 0) / self.R - p) <= 4 * sigma + 1e-12, key

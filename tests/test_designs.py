"""Samplers: determinism, fixed size, certainty handling, and agreement
between the streaming runners and the exactly enumerated distributions.

The enumeration walks the same per-step probabilities through an
independent route (exhaustive recursion instead of random draws), so
comparing empirical frequencies of the runners against it exercises
both codepaths end to end.
"""

import bisect
import collections
import dataclasses
import gc
import hashlib
import itertools
import math
import sys
import tracemalloc
import warnings
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    first_second_order,
    make_sampler,
    midzuno_complementarity_tv,
    sample_brewer,
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

from conftest import NEAR_ONE_CAP_FRAMES, UNEQUAL_DESIGNS, X_CERTAIN, ReferenceStream


class TestSample:
    def test_sorts_and_validates(self):
        s = Sample(selected=(3, 1), N=5)
        assert s.selected == (1, 3)
        assert s.size == 2

    def test_rejects_repeats(self):
        with pytest.raises(InvalidInputError, match="repeated"):
            Sample(selected=(1, 1), N=3)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError, match="range"):
            Sample(selected=(0, 3), N=3)

    @pytest.mark.parametrize(
        "selected",
        [((0, 1),), 1, (2**70,), (1.5, 2.7), ("1", "2"), (True, 2), ("a",),
         [[0, 1], [2]], (None,)],
        ids=["nested", "scalar", "huge", "floats", "strings", "bool", "letter",
             "ragged", "none"],
    )
    def test_rejects_what_is_not_a_row_of_indices(self, selected):
        # A cast to intp would read (1.5, 2.7), ("1", "2") and (True, 2)
        # as units 1 and 2; it fails on ("a",), a ragged row and (None,)
        # with numpy's own ValueError or TypeError.
        with pytest.raises(InvalidInputError):
            Sample(selected=selected, N=3)

    @pytest.mark.parametrize(
        "row, match", [([0, 2, 2], "repeated"), ([0, 1, 5], "range")],
        ids=["repeated", "range"],
    )
    def test_sampler_checks_kernel_rows(self, row, match):
        # A draw hands Sample the kernel's sorted row as an array, and
        # Sample still checks it.
        draw = designs.Sampler(5, lambda seeds: np.array([row] * len(seeds)), 5)
        with pytest.raises(InvalidInputError, match=match):
            draw(0)


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
        # The CLI's --design choices reject other names before this runs.
        assert DesignKind("chao") is DesignKind.CHAO


class TestSrswor:
    def test_size_and_range(self):
        s = make_sampler(DesignKind.SRSWOR, N=10, n=4)[0](0)
        assert s.size == 4 and s.N == 10

    def test_deterministic(self):
        a, b = (make_sampler(DesignKind.SRSWOR, N=10, n=4)[0](7) for _ in range(2))
        assert a.selected == b.selected

    def test_invalid_size(self):
        with pytest.raises(InvalidSizeError, match="invalid size"):
            make_sampler(DesignKind.SRSWOR, N=3, n=4)[0](0)


# Seeds where the 32-bit and 64-bit words of a seed change count or
# wrap, and the ends of the seed domain.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**128 - 1]


# Criterion 04's frame, drawn at n = 10.
EXPONENTIAL_X = -np.log1p(-np.random.default_rng(77).random(50))
# Criterion 05's frame and sample size.
CRITERION_05_X = (np.random.default_rng(20260819).uniform(1.0, 2.0, size=200), 40)


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

    def test_uint64_seed_array_equals_seed_list(self):
        # A uint64 array is keyed in one array pass, a list seed by seed.
        seeds = [s for s in self.SEEDS if s < 2**64]
        for start, count in ((1, 40), (5, 320), (319, 1)):
            block = _uniforms(np.array(seeds, dtype=np.uint64), count, start)
            assert np.array_equal(block, _uniforms(seeds, count, start)), start

    def test_ladder_reads_the_step_major_block(self, monkeypatch):
        # The ladder kernel reads one contiguous steps x R block: the
        # row-major _uniforms block transposed, bit for bit, and the
        # pure-Python stream of each edge seed.
        blocks = []
        picks = designs._picks

        def capture(ladder, u, context):
            blocks.append(u.copy())
            return picks(ladder, u, context)

        monkeypatch.setattr(designs, "_picks", capture)
        ladder = tille_plan(*CRITERION_05_X)
        below = [s for s in self.SEEDS if s < 2**64][:655]
        cases = (EDGE_SEEDS, self.SEEDS[:655], np.array(below, dtype=np.uint64))
        for seeds in cases:
            designs._eliminate(ladder, seeds, str, survivors=True)
        assert len(blocks) == len(cases)
        for seeds, u in zip(cases, blocks):
            assert u.flags.c_contiguous and u.shape == (ladder.steps, len(seeds))
            rows = np.ascontiguousarray(_uniforms(seeds, ladder.steps))
            assert np.array_equal(u.view(np.uint64), rows.T.view(np.uint64))
        for r, seed in enumerate(EDGE_SEEDS):
            assert blocks[0][:, r].tolist() == reference_uniforms(seed, ladder.steps), seed

    @pytest.mark.parametrize("kind", list(DesignKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("x, n", [(X_CERTAIN, 4), (EXPONENTIAL_X, 10)],
                             ids=["certain", "exponential"])
    def test_rows_of_uint64_seed_array(self, kind, x, n, monkeypatch):
        calls = collections.Counter()
        heads, read, keyed = designs._brewer_heads, designs._stream, designs._keys
        pi = compute_pips(x, n)
        draws = pi.n - int(np.count_nonzero(pi.certain))

        def counting_heads(*args):
            calls["composition"] += 1
            return heads(*args)

        def keys(seeds):
            calls["array_keys"] += isinstance(seeds, np.ndarray)
            return keyed(seeds)

        def stream(keys, at):
            # A read past the first 4 uniforms per draw, where Brewer's
            # single draw reads its stream on.
            calls["deep"] += int(at.max(initial=0)) >= 4 * draws
            return read(keys, at)

        monkeypatch.setattr(designs, "_brewer_heads", counting_heads)
        monkeypatch.setattr(designs, "_keys", keys)
        monkeypatch.setattr(designs, "_stream", stream)
        if kind is DesignKind.SRSWOR:
            draw, _ = make_sampler(kind, N=pi.N, n=pi.n)
        else:
            draw, _ = make_sampler(kind, pi=pi, x=x)
        seeds = [s for s in self.SEEDS if s < 2**64][:1000]
        rows = draw.rows(np.array(seeds, dtype=np.uint64))
        assert np.array_equal(rows, draw.rows(seeds))
        if kind is DesignKind.BREWER and x is EXPONENTIAL_X:
            # Criterion 04's frame: Brewer takes the composition pick, and
            # the batch keys the array in one pass and reads some row's
            # stream past the first 4 uniforms per draw.
            assert calls["composition"] > 0 and calls["deep"] > 0
            assert calls["array_keys"] > 0

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

    def test_bool_seed(self):
        # Python counts True as 1, but a bool is no seed, as it is no
        # master seed or replicate index for derive_seed.
        x = np.arange(1.0, 7.0)
        pi = compute_pips(x, 3)
        calls = [
            lambda seed: sample_brewer(pi, seed),
            lambda seed: sample_brewer(pi, seed, trace="realized"),
        ]
        for kind in DesignKind:
            draw, _ = make_sampler(kind, x=x, n=3, N=6)
            calls += [draw, partial(lambda draw, seed: draw.rows([seed, 1]), draw)]
        for call in calls:
            for seed in (True, False, np.True_):
                with pytest.raises(InvalidInputError, match="seed must be an integer"):
                    call(seed)

    def test_sample_functions(self, pi_plain):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        dist = enumerate_design(DesignKind.GENERALIZED_MIDZUNO, pi=pi_plain)
        calls = [
            make_sampler(DesignKind.SRSWOR, N=4, n=2)[0],
            make_sampler(DesignKind.CHAO, pi=pi_plain, x=x)[0],
            make_sampler(DesignKind.TILLE_ELIMINATION, pi=pi_plain, x=x)[0],
            make_sampler(DesignKind.GENERALIZED_MIDZUNO, pi=pi_plain)[0],
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
        kind = DesignKind.CHAO
        a, b = (make_sampler(kind, pi=pi_plain, x=x)[0](5) for _ in range(2))
        assert a.selected == b.selected and a.size == 2

    def test_certainty_unit_always_sampled(self, pi_capped):
        x = np.array([1.0, 1.0, 1.0, 10.0])
        draw = make_sampler(DesignKind.CHAO, pi=pi_capped, x=x)[0]
        for seed in range(40):
            assert 3 in draw(seed).selected

    def test_stream_order_is_a_relabeling(self):
        # Chao streams the population in order; another stream order is
        # a permuted population whose drawn units are mapped back.  The
        # design changes with the order, its inclusion probabilities not.
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        order = np.array([5, 2, 0, 4, 1, 3])
        plain = enumerate_design(DesignKind.CHAO, x=x, n=3)
        streamed = enumerate_design(DesignKind.CHAO, x=x[order], n=3)
        relabeled = {
            tuple(sorted(order[list(s)].tolist())): p
            for s, p in streamed.support.items()
        }
        margins = np.zeros(x.size)
        for s, p in relabeled.items():
            margins[list(s)] += p
        assert np.max(np.abs(margins - compute_pips(x, 3).pi)) <= 1e-12
        gap = sum(abs(p - plain.support.get(s, 0.0)) for s, p in relabeled.items())
        assert gap > 1e-3
        pi = compute_pips(x[order], 3)
        draw = make_sampler(DesignKind.CHAO, pi=pi, x=x[order])[0]
        for seed in range(40):
            s = draw(seed).selected
            assert tuple(sorted(order[list(s)].tolist())) in relabeled

    def test_pi_must_match_x(self, pi_plain):
        x = np.array([4.0, 3.0, 2.0, 1.0])
        with pytest.raises(InvalidInputError, match="capped"):
            make_sampler(DesignKind.CHAO, pi=pi_plain, x=x)[0](0)

    def test_plan_ladder_shapes(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        ladder = chao_plan(x, 2)
        # One rung per stream prefix of 2..5 units; the first caps both.
        assert ladder.lam.size == 4 and ladder.pi(0, 2).tolist() == [1.0, 1.0]
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
        kind = DesignKind.TILLE_ELIMINATION
        a, b = (make_sampler(kind, pi=pi_plain, x=x)[0](5) for _ in range(2))
        assert a.selected == b.selected
        assert a.size == 2

    def test_certainty_unit_always_sampled(self, pi_capped):
        x = np.array([1.0, 1.0, 1.0, 10.0])
        draw = make_sampler(DesignKind.TILLE_ELIMINATION, pi=pi_capped, x=x)[0]
        for seed in range(40):
            assert 3 in draw(seed).selected

    def test_elimination_plan_shape(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        plan = tille_plan(x, 2)
        assert plan.steps == 3
        # Rung 0 (size 5) caps every unit; units cross smallest first.
        assert plan.cross_at[0] == 0
        assert plan.cross.tolist() == [0, 1, 2, 3, 4]
        for s in range(plan.steps + 1):
            assert plan.pi(s).sum() == pytest.approx(5 - s, abs=1e-12)

    def test_census_has_no_steps(self):
        plan = tille_plan(np.array([1.0, 2.0]), 2)
        assert plan.steps == 0
        pi = compute_pips(np.array([1.0, 2.0]), 2)
        draw = make_sampler(DesignKind.TILLE_ELIMINATION, pi=pi, x=[1.0, 2.0])[0]
        assert draw(0).selected == (0, 1)


class TestMidzuno:
    def test_fixed_size_and_determinism(self, pi_plain):
        kind = DesignKind.GENERALIZED_MIDZUNO
        a, b = (make_sampler(kind, pi=pi_plain)[0](5) for _ in range(2))
        assert a.selected == b.selected
        assert a.size == 2

    def test_certainty_units_preselected(self, pi_capped):
        draw = make_sampler(DesignKind.GENERALIZED_MIDZUNO, pi=pi_capped)[0]
        for seed in range(40):
            assert 3 in draw(seed).selected

    def test_all_active_selected_when_forced(self):
        # pi = [1, 1, 0.5, 0.5] with n = 3: one free slot for two units.
        pi = compute_pips(np.array([10.0, 10.0, 1.0, 1.0]), 3)
        s = make_sampler(DesignKind.GENERALIZED_MIDZUNO, pi=pi)[0](1)
        assert {0, 1}.issubset(s.selected) and s.size == 3

    def test_selection_plan_shape(self, pi_plain):
        plan = midzuno_plan(pi_plain)
        ladder = plan.ladder
        # Tille's ladder on 1 - pi, from 4 units down to 4 - 2.
        assert ladder.steps == 2
        assert np.array_equal(ladder.x, 1.0 - pi_plain.pi)
        for s in range(ladder.steps + 1):
            assert ladder.pi(s).sum() == pytest.approx(4 - s, abs=1e-12)

    @pytest.mark.parametrize(
        "pi, forced, steps",
        [
            (compute_pips(np.array([1.0, 2.0, 3.0]), 3), (0, 1, 2), 0),
            (InclusionProbabilities(pi=[1.0, 1.0, 2e-10, 3e-10], n=2), (0, 1), 0),
            (InclusionProbabilities(pi=[1 - 4e-10, 1 - 3e-10, 1.0], n=3), (0, 1, 2), 2),
        ],
        ids=["all-certain", "no-draw", "every-active-drawn"],
    )
    def test_forced_samples_run_the_ladder(self, pi, forced, steps):
        # n = N, n' = 0 and n' = N' leave nothing random.  The ladder of
        # 1 - pi still walks them: it has no step, or its last rung is at
        # size 0, where the last active unit leaves surely.
        assert midzuno_plan(pi).ladder.steps == steps
        draw = make_sampler(DesignKind.GENERALIZED_MIDZUNO, pi=pi)[0]
        seeds = list(range(8))
        assert [draw(s).selected for s in seeds] == [forced] * len(seeds)
        assert draw.rows(seeds).tolist() == [list(forced)] * len(seeds)
        dist = enumerate_design(DesignKind.GENERALIZED_MIDZUNO, pi=pi)
        assert dict(dist.support) == {forced: 1.0}
        assert midzuno_complementarity_tv(pi) == 0.0


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

    def test_plan_built_once_per_pi(self, monkeypatch):
        # Plain and traced draws read one kept plan: on a fresh pi, two
        # plain draws and a traced one build it once.
        pi = compute_pips(np.arange(1.0, 9.0), 3)
        built = []

        def counted(pi_vec):
            built.append(pi_vec)
            return brewer_plan(pi_vec)

        monkeypatch.setattr(designs, "brewer_plan", counted)
        plain = [sample_brewer(pi, seed) for seed in (1, 2)]
        traced, _ = sample_brewer(pi, 1, trace="realized")
        assert len(built) == 1
        assert traced == plain[0]
        draw, _ = make_sampler(DesignKind.BREWER, pi=pi)
        assert plain == [draw(1), draw(2)]
        # The sampler reads the same kept plan: on another fresh pi,
        # make_sampler builds none, its first draw builds it, and neither
        # sample_brewer, plain or traced, nor estimate_tail builds another.
        assert len(built) == 1
        other = compute_pips(np.arange(2.0, 10.0), 3)
        draw, _ = make_sampler(DesignKind.BREWER, pi=other)
        assert len(built) == 1
        first = draw(1)
        assert len(built) == 2
        traced, _ = sample_brewer(other, 1, trace="realized")
        assert sample_brewer(other, 1) == traced == first
        for _ in range(2):
            estimate_tail(
                DesignKind.BREWER, y=np.ones(8), eps_grid=[0.1], replicates=20, pi=other
            )
        assert len(built) == 2

    def test_alternating_two_pi_builds_each_plan_once(self, monkeypatch):
        # Each pi keeps its own plan, so draws alternating between two,
        # plain and traced, build two plans in all; a third pi builds its
        # own and drops neither of theirs.
        pis = [compute_pips(np.arange(1.0, 9.0) + shift, 3) for shift in (0, 1, 2)]
        built = []

        def counted(pi_vec):
            built.append(pi_vec)
            return brewer_plan(pi_vec)

        monkeypatch.setattr(designs, "brewer_plan", counted)
        for seed in range(5):
            for pi in pis[:2]:
                plain = sample_brewer(pi, seed)
                assert sample_brewer(pi, seed, trace="realized")[0] == plain
        assert len(built) == 2
        sample_brewer(pis[2], 0)
        assert len(built) == 3
        sample_brewer(pis[1], 0)
        sample_brewer(pis[0], 0, trace="realized")
        assert len(built) == 3

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
        draw, pi = make_sampler(DesignKind.BREWER, pi=pi_plain)
        assert np.allclose(pi.pi, pi_plain.pi)
        for seed in range(10):
            assert draw(seed).selected == sample_brewer(pi_plain, seed).selected

    def test_derives_pi_from_x(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        draw, pi = make_sampler(DesignKind.BREWER, x=x, n=2)
        assert pi.n == 2
        assert draw(0).size == 2

    def test_srswor_from_N(self):
        draw, pi = make_sampler(DesignKind.SRSWOR, N=6, n=2)
        assert pi.is_equal_probability()
        assert draw(3).selected == tuple(draw.rows([3])[0].tolist())

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

    @pytest.mark.parametrize("kind", UNEQUAL_DESIGNS, ids=lambda k: k.value)
    def test_rejects_pi_that_x_does_not_give(self, kind):
        # x = 1..6 at n = 3 gives pi = x / 7, not 0.5 everywhere.  Chao and
        # Tille sample from x, so expanding with 0.5 would be wrong, and
        # Midzuno and Brewer would silently ignore x.
        x = np.arange(1.0, 7.0)
        pi = InclusionProbabilities(pi=np.full(6, 0.5), n=3)
        match = "capped size shares"
        with pytest.raises(InvalidInputError, match=match):
            make_sampler(kind, pi=pi, x=x)
        with pytest.raises(InvalidInputError, match=match):
            estimate_tail(kind, y=np.ones(6), eps_grid=[0.1], replicates=10, pi=pi, x=x)
        with pytest.raises(InvalidInputError, match=match):
            enumerate_design(kind, x=x, pi=pi)

    @pytest.mark.parametrize(
        "kind", [DesignKind.CHAO, DesignKind.TILLE_ELIMINATION], ids=lambda k: k.value
    )
    def test_pi_from_x_is_computed_once(self, kind, monkeypatch):
        # A pi derived from x is computed once and not checked against x
        # again.  A given pi is checked against x's capped shares by
        # target_pi, which costs no compute_pips call at all.
        # Every module's name for compute_pips counts its calls.
        x = np.arange(1.0, 7.0)
        pi = compute_pips(x, 3)
        calls = []

        def counting(*args):
            calls.append(args)
            return compute_pips(*args)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "splitsamp" and hasattr(module, "compute_pips"):
                monkeypatch.setattr(module, "compute_pips", counting)
        tail = partial(estimate_tail, kind, y=np.ones(6), eps_grid=[0.1], replicates=10)
        for build, expect in (
            (lambda: make_sampler(kind, x=x, n=3), 1),
            (lambda: tail(x=x, n=3), 1),
            (lambda: enumerate_design(kind, x=x, n=3), 1),
            (lambda: make_sampler(kind, pi=pi, x=x), 0),
            (lambda: tail(pi=pi, x=x), 0),
            (lambda: enumerate_design(kind, pi=pi, x=x), 0),
        ):
            calls.clear()
            build()
            assert len(calls) == expect

    @pytest.mark.parametrize("kind", UNEQUAL_DESIGNS, ids=lambda k: k.value)
    def test_pi_checked_against_the_ladder_on_every_call(self, kind):
        # A pi 1e-8 off the capped shares of x, whose last rung Chao's
        # and Tille's ladders reach, fails PROB_SUM_TOL (1e-9), also when
        # the plan is already kept; one 1e-10 off passes.
        x = np.arange(1.0, 7.0)
        exact = compute_pips(x, 3)
        make_sampler(kind, pi=exact, x=x)
        tail = partial(estimate_tail, kind, y=np.ones(6), eps_grid=[0.1], replicates=10)
        for shift, ok in ((1e-8, False), (1e-10, True)):
            moved = exact.pi.copy()
            moved[0] += shift
            moved[1] -= shift
            pi = InclusionProbabilities(pi=moved, n=3)
            for call in (
                lambda: make_sampler(kind, pi=pi, x=x),
                lambda: tail(pi=pi, x=x),
                lambda: enumerate_design(kind, pi=pi, x=x),
            ):
                if ok:
                    call()
                else:
                    with pytest.raises(InvalidInputError, match="capped"):
                        call()

    @pytest.mark.parametrize("kind", list(DesignKind), ids=lambda k: k.value)
    def test_bad_x_fails_before_any_plan(self, kind, monkeypatch):
        # An x of another length than pi, or with a size that is not
        # positive and finite, is refused before any plan is built, by
        # every design: SRSWOR, which draws at n/N, checks it too.
        def no_plan(*args):
            raise AssertionError("a plan was built")

        for name in ("chao_plan", "tille_plan", "midzuno_plan", "brewer_plan"):
            monkeypatch.setattr(designs, name, no_plan)
        pi = compute_pips(np.arange(1.0, 7.0), 3)
        if kind is DesignKind.SRSWOR:
            pi = InclusionProbabilities(pi=np.full(6, 0.5), n=3)
        tail = partial(estimate_tail, kind, y=np.ones(6), eps_grid=[0.1], replicates=10)
        for x, match in (
            (np.arange(1.0, 8.0), "x and pi must have equal length"),
            (np.array([1.0, 2.0, np.nan, 4.0, 5.0, 6.0]), "positive and finite"),
        ):
            for call in (
                lambda: make_sampler(kind, pi=pi, x=x),
                lambda: tail(pi=pi, x=x),
                lambda: enumerate_design(kind, pi=pi, x=x),
            ):
                with pytest.raises(InvalidInputError, match=match):
                    call()

    @pytest.mark.parametrize(
        "kind", [DesignKind.CHAO, DesignKind.TILLE_ELIMINATION], ids=lambda k: k.value
    )
    def test_ladder_keeps_its_own_sizes(self, kind):
        # A sampler's ladder copies x: reversing the caller's x before the
        # first draw, or after it, changes no draw.
        ref, _ = make_sampler(kind, x=np.arange(1.0, 21.0), n=5)
        seeds = [3, 4, 5]
        for before in (True, False):
            x = np.arange(1.0, 21.0)
            draw, _ = make_sampler(kind, x=x, n=5)
            if not before:
                assert draw(3) == ref(3)
            x[:] = x[::-1]
            assert draw(3) == ref(3) and draw(4) == ref(4)
            assert np.array_equal(draw.rows(seeds), ref.rows(seeds))

    @given(st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_capped_shares_of_x_pass_and_moved_ones_fail(self, data):
        # Every design takes compute_pips(x, n) with its own x, on frames
        # with ties, sizes over 21 decades or one unit 1e6 to 1e14 times
        # the rest, at n = 1, n = N or between.  A pi with 1e-8 moved
        # from the largest free unit to the smallest fails every unequal
        # design; one with 1e-10 moved passes.  SRSWOR checks only x's
        # length and sizes, so it takes both.
        N = data.draw(st.integers(min_value=1, max_value=12), label="N")
        shape = data.draw(st.sampled_from(["ties", "decades", "giant"]), label="shape")
        sizes = {
            "ties": st.sampled_from([1.0, 2.0, 5.0]),
            "decades": st.floats(min_value=-18.0, max_value=3.0).map(lambda e: 10.0**e),
            "giant": st.floats(min_value=1.0, max_value=2.0),
        }[shape]
        x = np.array(data.draw(st.lists(sizes, min_size=N, max_size=N), label="x"))
        if shape == "giant":
            big = data.draw(st.integers(min_value=0, max_value=N - 1), label="big")
            x[big] *= 10.0 ** data.draw(st.floats(min_value=6.0, max_value=14.0))
        n = data.draw(st.sampled_from([1, N]) | st.integers(1, N), label="n")
        pi = compute_pips(x, n)
        for kind in DesignKind:
            assert designs.target_pi(kind, pi, x, None, None) is pi
        free = np.flatnonzero(pi.pi < 1.0)
        free = free[np.argsort(pi.pi[free], kind="stable")]
        if free.size < 2 or pi.pi[free[-1]] < 1e-6:
            return
        for shift, ok in ((1e-8, False), (1e-10, True)):
            moved = pi.pi.copy()
            moved[free[0]] += shift
            moved[free[-1]] -= shift
            moved = InclusionProbabilities(pi=moved, n=n)
            assert designs.target_pi(DesignKind.SRSWOR, moved, x, None, None) is moved
            for kind in UNEQUAL_DESIGNS:
                if ok:
                    assert designs.target_pi(kind, moved, x, None, None) is moved
                else:
                    with pytest.raises(InvalidInputError, match="capped size shares"):
                        designs.target_pi(kind, moved, x, None, None)


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
    g(q) = (r - q) / (1 - q).

    - Rejection, when q_max < 1 and the bound on the expected trials,
      sum(p) g(q_max) / ((sum(p) - sum_S p) r), is at most 4: a trial
      proposes k with probability p_k / sum(p) and accepts it, if
      undrawn, with probability g(q_k) / g(q_max).
    - Composition, when q_max < 1 and G = 4 r (sum(p) - sum_S p) / sum(p)
      exceeds r: the head H is the undrawn units with q >= q*, g(q*) = G,
      in descending p.  A trial takes v = u (sum_H q g(q) + c G sum(p)).
      Below the head mass, v picks the head unit where the head's
      running weight first exceeds v.  Above it, the unit where the
      running p first exceeds (v - head mass) / (c G) is accepted with
      probability g(q) / G if it is undrawn and outside H.
    - Otherwise, the guard: inverse CDF over all units' weights.

    A trial spends two uniforms, an inverse-CDF step one.  ``counts``, if
    given, adds up the steps of each kind (``rejection``, ``head``,
    ``tail``, ``guard``) and keeps the most uniforms spent per draw."""
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
    spent = 0
    kinds = collections.Counter()
    for t in range(draws):
        r = draws - t
        left = total - s
        c = r / left
        undrawn = [k for k in range(len(p)) if k not in drawn]
        q_max = c * max(p[k] for k in undrawn)
        g_max = g(q_max, r)
        G = 4.0 * r * left / total
        if q_max < 1.0 and total * g_max / (left * r) <= 4.0:
            kinds["rejection"] += 1
            while True:
                spent += 2
                k = bisect.bisect_right(cum, rng.random() * cum[-1])
                if rng.random() * g_max < g(c * p[k], r) and k not in drawn:
                    break
        elif q_max < 1.0 and G > r:
            q_star = (G - r) / (G - 1.0)
            head = sorted((k for k in undrawn if c * p[k] >= q_star), key=lambda k: -p[k])
            head_cum = list(itertools.accumulate(c * p[k] * g(c * p[k], r) for k in head))
            mass = head_cum[-1] if head else 0.0
            while True:
                spent += 2
                v = rng.random() * (mass + c * G * cum[-1])
                accept = rng.random() * G
                if v < mass:
                    kinds["head"] += 1
                    k = head[sum(1 for a in head_cum if a <= v)]
                    break
                k = bisect.bisect_right(cum, (v - mass) / (c * G))
                if k < len(p) and k not in drawn and k not in head:
                    if accept < g(c * p[k], r):
                        kinds["tail"] += 1
                        break
        else:
            spent += 1
            kinds["guard"] += 1
            w = [0.0 if j in drawn else c * p[j] * g(c * p[j], r) for j in range(len(p))]
            cw = list(itertools.accumulate(w))
            v = rng.random() * cw[-1]
            k = sum(1 for a in cw if a <= v)
        drawn.add(k)
        s += p[k]
        chosen.append(active[k])
    if counts is not None:
        counts.update(kinds)
        counts["uniforms"] = max(counts["uniforms"], spent / max(draws, 1))
    return np.array(chosen, dtype=int)


# Brewer's first draw at n = 3 has a trial bound above 4 here.
INVERSE_CDF_X = np.array([0.2, 0.3, 0.5, 0.6, 1.0, 1.4, 2.0, 3.0, 3.7])
# One certainty unit, three at pi = 0.67 to 0.86 and six small ones:
# first draws by composition, with head and tail picks.
TEN_UNITS_X = (np.array([0.05, 0.1, 0.3, 0.4, 0.6, 1.0, 2.5, 3.0, 3.2, 6.0]), 4)
# Five units at pi = 0.95: once four are drawn, a quarter of the p-mass
# or less is left undrawn, where a step takes the guard's inverse CDF.
NEAR_ONE_X = (np.array([19.0] * 5 + [1.0] * 5), 5)

# Ladder shapes at the edges of the crossing picks.  Equal sizes: every
# unit crosses at step 0, where no ladder has a pool.  Groups of 9, 8 and
# 7 equal sizes cross 2**k + 1, 2**k and 2**k - 1 at once (k = 3), at
# the edges of the pick's bisection.
EQUAL_X = (np.ones(16), 5)
BISECTION_X = (np.repeat([1.0, 2.0, 4.0], [9, 8, 7]), 6)
# Ties: the three 30s leave the cap at one step deep in the walk, and
# 1000 is a certainty unit.
TIED_X = (np.r_[np.arange(1.0, 6.5, 0.5), 30.0, 30.0, 30.0, 1000.0], 5)
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
            TIED_X,
        ],
        ids=[
            "certainty", "lognormal", "census", "equal", "bisection", "large-frame",
            "tied-crossings",
        ],
    )
    def test_same_sample_for_each_seed(self, x, n):
        pi = compute_pips(x, n)
        # Chao runs on a permuted population, so that its stream is not
        # the order of the sizes.  Its arrivals are eliminations on the
        # stream ladder: at each, the arrival or one reservoir unit leaves.
        xs = x[np.random.default_rng(1).permutation(x.size)]
        cases = {
            DesignKind.CHAO: (xs, partial(reference_tille, chao_plan(xs, n))),
            DesignKind.TILLE_ELIMINATION: (x, partial(reference_tille, tille_plan(x, n))),
            DesignKind.GENERALIZED_MIDZUNO: (x, partial(reference_midzuno, midzuno_plan(pi))),
            DesignKind.BREWER: (x, partial(reference_brewer, pi.pi)),
        }
        seeds = list(range(20 if x.size > 1000 else 300))
        for kind, (sizes, reference) in cases.items():
            draw, _ = make_sampler(kind, x=sizes, n=n)
            rows = draw.rows(seeds)
            for seed in seeds:
                expect = tuple(sorted(int(k) for k in reference(seed)))
                assert draw(seed).selected == expect, (kind, seed)
                assert tuple(rows[seed]) == expect, (kind, seed)

    def test_edge_shapes(self):
        # Tille's first step holds all 16 units, Chao's the 5 reservoir
        # units and the arrival.
        equal = ((tille_plan(*EQUAL_X), 16), (chao_plan(*EQUAL_X), 6))
        for ladder, first in equal:
            m, count = crossings(ladder)
            assert m[0] == first and count[0] == 0
        midzuno = midzuno_plan(compute_pips(*BISECTION_X)).ladder
        for ladder in (tille_plan(*BISECTION_X), midzuno):
            assert {7, 8, 9} <= set(crossings(ladder)[0].tolist())
        # TIED_X has a certainty unit, and several units cross at a step
        # after the first on every ladder, Chao's on the permuted stream
        # that the reference test draws.
        x, n = TIED_X
        xs = x[np.random.default_rng(1).permutation(x.size)]
        assert np.count_nonzero(compute_pips(x, n).certain) == 1
        tied = (tille_plan(x, n), chao_plan(xs, n), midzuno_plan(compute_pips(x, n)).ladder)
        for ladder in tied:
            assert np.any(crossings(ladder)[0][1:] > 1)

    def test_floor_positions_match_floor_of_clip(self):
        # Integers, -0.0, values just below 0 and around count - 1, and
        # a row with count == 0, in blocks of one band, of several bands
        # and not contiguous.
        count = np.array([0, 1, 2, 5, 7])
        edges = [0.0, -0.0, -5e-324, -1e-300, np.nextafter(0.0, -1.0), -1.0,
                 -1.5, -np.inf, np.inf, 1e300]
        for c in count.tolist():
            edges += [float(k) for k in range(c + 1)]
            edges += [np.nextafter(float(k), s) for k in range(c + 1) for s in (-1, c + 1)]
        u = np.array(edges)
        for block in (
            np.tile(u, (5, 1)),
            np.tile(u, (5, 120)),
            np.tile(u, (5, 240))[:, ::2],
        ):
            rows = np.repeat(count, len(block) // count.size)
            expect = np.floor(np.clip(block, -1, rows[:, None] - 1)).astype(np.intp)
            got = designs._floor_positions(block.copy(), rows)
            assert got.dtype == np.intp and np.array_equal(got, expect)

    def test_picks_match_floor_of_clip(self):
        # Uniforms on and beside every pool boundary u T = M + k r of
        # each step, on the hand-built ladder (steps with count == 0,
        # with r == 0 and with several units crossing) and on TIED_X.
        # The picks are floor(clip((u T - M) / r, -1, count - 1)), and a
        # negative one on a step where several cross is the crossing
        # unit that searchsorted finds on its cumulative weights.
        hand = designs.Ladder(
            x=np.array([0.5, 1.0, 1.5, 1.2, 1.0, 0.8]),
            lam=np.array([np.inf, 2 / 3, 2 / 3, 0.5]),
            cross=np.arange(6),
            cross_at=np.array([0, 3, 6, 6]),
        )
        for ladder in (hand, tille_plan(*TIED_X)):
            law = ladder.law
            T, M = law.total.tolist(), law.mass.tolist()
            r = np.where(law.r > 0.0, law.r, 1.0).tolist()
            points = {0.0, 0.5, 1 - 2**-53}
            for j in range(ladder.steps):
                for k in range(int(law.count[j]) + 1):
                    v = (M[j] + k * r[j]) / T[j]
                    points |= {v, np.nextafter(v, 0.0), np.nextafter(v, 1.0)}
            u = np.array(sorted(p for p in points if 0.0 <= p < 1.0))
            block = np.tile(u, (ladder.steps, 1))
            target = block * law.total[:, None]
            q = (target - law.mass[:, None]) / np.array(r)[:, None]
            expect = np.floor(np.clip(q, -1, law.count[:, None] - 1)).astype(np.intp)
            assert np.any(q == np.floor(q)) and np.any((q < 0) & (q > -1))
            for j in law.multi.tolist():
                lo, hi = ladder.cross_at[j], ladder.cross_at[j + 1]
                k = np.searchsorted(law.cum[lo:hi], target[j], side="right")
                crossing = law.count[j] + np.minimum(k, hi - lo - 1)
                expect[j] = np.where(expect[j] < 0, crossing, expect[j])
            assert np.array_equal(designs._picks(ladder, block, str), expect)

    def test_steps_without_pool_weight(self):
        # A hand-built ladder: three units cross at step 0, with no pool,
        # one of them at weight 0; three more at step 1, where the rung
        # does not move, so the two pool units have weight r = 0; the
        # pool of four then shares step 2.  The picks run on the crossing
        # weights alone, as in the reference, whatever u T rounds to.
        ladder = designs.Ladder(
            x=np.array([0.5, 1.0, 1.5, 1.2, 1.0, 0.8]),
            lam=np.array([np.inf, 2 / 3, 2 / 3, 0.5]),
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
        # The block is step-major: column i holds uniform i at every step.
        pos = designs._picks(ladder, np.tile(u, (3, 1)), str)
        for i, v in enumerate(u.tolist()):
            pools = ([0] * int(c) for c in count)
            expect = [reference_step(v, p, *step) for p, step in zip(pools, steps)]
            assert pos[:, i].tolist() == expect, v
        # The picked units, then the survivors.
        seeds = list(range(300))
        rows = [designs._eliminate(ladder, seeds, str, kept) for kept in (False, True)]
        for seed in seeds:
            expect = reference_eliminate(ladder, ReferenceStream(seed))
            one = [designs._eliminate(ladder, [seed], str, kept) for kept in (False, True)]
            for got in (one, [part[seed : seed + 1] for part in rows]):
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

    @pytest.mark.parametrize("corrupt", [False, True], ids=["valid", "corrupted"])
    def test_step_law_built_once_per_ladder(self, monkeypatch, corrupt):
        # The step law depends only on the ladder: the first draw builds
        # it, and later draws and batches of the same sampler reuse it.
        # A ladder whose law breaks the contract fails every draw, not
        # only the one that built the law.
        original = designs.tille_plan

        def plan(*args):
            ladder = original(*args)
            return dataclasses.replace(ladder, lam=ladder.lam * 0.99) if corrupt else ladder

        monkeypatch.setattr(designs, "tille_plan", plan)
        draw, _ = make_sampler(DesignKind.TILLE_ELIMINATION, x=LARGE_FRAME_X[0], n=200)

        def run(call):
            if not corrupt:
                return call()
            with pytest.raises(ContractViolationError, match="tille step i=.*: probabilities sum to"):
                call()

        first = run(lambda: draw(7))
        calls = collections.Counter()
        cumsum = np.cumsum

        def counting(*args, **kwargs):
            calls["cumsum"] += 1
            return cumsum(*args, **kwargs)

        monkeypatch.setattr(np, "cumsum", counting)
        assert run(lambda: draw(7)) == first
        rows = run(lambda: draw.rows([7, 8, 9]))
        if not corrupt:
            assert rows[0].tolist() == list(first.selected)
        assert calls["cumsum"] == 0

    @pytest.mark.parametrize(
        "kind",
        [DesignKind.TILLE_ELIMINATION, DesignKind.CHAO, DesignKind.GENERALIZED_MIDZUNO],
        ids=["tille", "chao", "midzuno"],
    )
    def test_walk_segments_kept_per_ladder(self, kind):
        # A single draw walks the ladder's crossings as kept tuples: built
        # by its first single draw, never by a batch, and shared by later
        # draws, in O(steps + crossing units) memory.
        x, n = LARGE_FRAME_X
        draw, pi = make_sampler(kind, x=x, n=n)
        plan = designs._plan(kind, pi, x)
        ladder = plan.ladder if kind is DesignKind.GENERALIZED_MIDZUNO else plan
        draw.rows(list(range(655)))
        assert "segments" not in vars(ladder)
        tracemalloc.start()
        try:
            draw(7)
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        segments = vars(ladder)["segments"]
        draw(8)
        assert ladder.segments is segments
        assert len(segments) == ladder.steps + 1
        assert segments[-1] == tuple(ladder.cross[ladder.cross_at[-1] :].tolist())
        assert list(itertools.chain.from_iterable(segments)) == ladder.cross.tolist()
        assert size <= 96 * (ladder.steps + ladder.cross.size)

    @pytest.mark.parametrize(
        "kind, prefix",
        [
            (DesignKind.SRSWOR, "7523dedb04dacb06"),
            (DesignKind.CHAO, "0a1b6d3087727451"),
            (DesignKind.TILLE_ELIMINATION, "823bd85b4545a01b"),
            (DesignKind.GENERALIZED_MIDZUNO, "55fe72ca8e613f56"),
            (DesignKind.BREWER, "a249fc6eb2a366a6"),
        ],
        ids=["srswor", "chao", "tille", "midzuno", "brewer"],
    )
    def test_single_draws_keep_their_samples(self, kind, prefix):
        # 100 single draws on the large-frame shape: any change to which
        # seed draws which sample changes the hash.
        x, n = LARGE_FRAME_X
        if kind is DesignKind.SRSWOR:
            draw, _ = make_sampler(kind, N=x.size, n=n)
        else:
            draw, _ = make_sampler(kind, x=x, n=n)
        samples = [draw(derive_seed(7, i)).selected for i in range(100)]
        digest = hashlib.sha256(np.array(samples, dtype=np.int64).tobytes())
        assert digest.hexdigest().startswith(prefix)

    @pytest.mark.parametrize("build", ["tille", "chao", "midzuno"])
    def test_step_law_memory(self, build):
        # The kept law is numpy arrays of O(steps + crossing units) floats
        # and ints, not O(N**2) and not Python lists.
        x, n = LARGE_FRAME_X
        ladder = {
            "tille": lambda: tille_plan(x, n),
            "chao": lambda: chao_plan(x, n),
            "midzuno": lambda: midzuno_plan(compute_pips(x, n)).ladder,
        }[build]()
        values = [getattr(ladder.law, f.name) for f in dataclasses.fields(ladder.law)]
        arrays = [v for v in values if isinstance(v, np.ndarray)]
        assert [type(v) for v in values if not isinstance(v, np.ndarray)] == [int, type(None)]
        assert all(a.dtype != object for a in arrays)
        assert sum(a.nbytes for a in arrays) <= 64 * (ladder.steps + ladder.cross_at[-1])

    @pytest.mark.parametrize(
        "x, n",
        [
            (INVERSE_CDF_X, 3),
            TEN_UNITS_X,
            (np.random.default_rng(3).lognormal(0.0, 1.5, size=300), 30),
            NEAR_ONE_X,
        ],
        ids=["inverse-cdf", "ten-units", "second-budget", "near-one"],
    )
    def test_brewer_pick_paths(self, x, n, monkeypatch):
        pi = compute_pips(x, n)
        draw, _ = make_sampler(DesignKind.BREWER, pi=pi)
        seeds = list(range(300))
        d = designs._plan(DesignKind.BREWER, pi).draws
        # The reads of a stream past its first 4 uniforms per draw: a
        # single draw's refills and the batch's reads at a row's counter;
        # and the inverse-CDF picks.
        refills = collections.Counter()

        def uniforms(seeds, count, start=0):
            refills["row"] += start > 0
            return read(seeds, count, start)

        def stream(keys, at):
            refills["batch"] += int(at.max(initial=0)) >= 4 * d
            return at_counter(keys, at)

        def counting_fallback(*args):
            refills["fallback"] += 1
            return fallback(*args)

        read, at_counter, fallback = designs._uniforms, designs._stream, designs._brewer_fallback
        monkeypatch.setattr(designs, "_uniforms", uniforms)
        monkeypatch.setattr(designs, "_stream", stream)
        monkeypatch.setattr(designs, "_brewer_fallback", counting_fallback)
        rows = draw.rows(seeds)
        counts = collections.Counter()
        for seed in seeds:
            expect = tuple(sorted(int(k) for k in reference_brewer(pi.pi, seed, counts)))
            assert draw(seed).selected == expect == tuple(rows[seed]), seed
        assert counts["rejection"] > 0
        if x is INVERSE_CDF_X or x is TEN_UNITS_X[0]:
            # Every sample's first draw has a trial bound above 4, and
            # takes the composition pick: a head or a tail unit.
            assert counts["head"] + counts["tail"] == len(seeds)
            assert counts["head"] > 0 and counts["tail"] > 0
            assert counts["guard"] == refills["fallback"] == 0
        elif x is NEAR_ONE_X[0]:
            # Late draws, after the units near 1, leave at most a quarter
            # of the p-mass undrawn: the guard's inverse CDF.
            assert counts["guard"] > 0 and refills["fallback"] > 0
            assert counts["head"] + counts["tail"] > 0
        else:
            # Some rows spend more than 4 uniforms per draw: the batch
            # reads them at the row's counter, and the row alone reads on.
            assert counts["uniforms"] > 4
            assert refills["batch"] > 0 and refills["row"] > 0

    @pytest.mark.parametrize("x, n", [LARGE_FRAME_X, (EXPONENTIAL_X, 10)],
                             ids=["large-frame", "criterion-04"])
    def test_skewed_frames_take_no_inverse_cdf(self, x, n, monkeypatch):
        # Every step whose trial bound exceeds 4 takes the composition
        # pick here, never the O(M) inverse CDF; draw, batch row and
        # traced draw agree seed for seed.
        calls = collections.Counter()
        fallback = designs._brewer_fallback

        def counting_fallback(*args):
            calls["inverse_cdf"] += 1
            return fallback(*args)

        monkeypatch.setattr(designs, "_brewer_fallback", counting_fallback)
        pi = compute_pips(x, n)
        draw, _ = make_sampler(DesignKind.BREWER, pi=pi)
        seeds = list(range(20))
        rows = draw.rows(seeds)
        for seed in seeds:
            traced, _ = sample_brewer(pi, seed, trace="realized")
            assert draw(seed).selected == tuple(rows[seed]) == traced.selected, seed
        assert calls["inverse_cdf"] == 0

    def test_criterion_05_frame_draws_by_rejection_alone(self, monkeypatch):
        # No step there has a trial bound above 4, so no seed's sample
        # depends on the composition pick or the inverse CDF.
        calls = collections.Counter()
        for name in ("_brewer_heads", "_brewer_fallback"):
            def counting(*args, _name=name, _f=getattr(designs, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(designs, name, counting)
        x, n = CRITERION_05_X
        pi = compute_pips(x, n)
        draw, _ = make_sampler(DesignKind.BREWER, pi=pi)
        assert draw.rows(range(3000)).shape == (3000, n)
        assert sum(calls.values()) == 0
        counts = collections.Counter()
        for seed in range(100):
            expect = tuple(sorted(int(k) for k in reference_brewer(pi.pi, seed, counts)))
            assert draw(seed).selected == expect, seed
        assert counts.keys() == {"rejection", "uniforms"}


@pytest.mark.parametrize("kind", list(DesignKind), ids=lambda k: k.value)
@pytest.mark.parametrize(
    "x, n", NEAR_ONE_CAP_FRAMES, ids=["two-tiny", "one-tiny", "rounds-to-1"]
)
def test_near_one_cap_frames_draw_their_pi(kind, x, n):
    # compute_pips keeps a near-one share exact where its cap would give
    # the tiny units nothing; the ladders cap it.  Either way every
    # design's exact pi is within CERTAINTY_TOL of the target, and its
    # single draws and batch rows agree, each holding every certainty
    # unit and no unit below CERTAINTY_TOL.
    frame = dict(pi=compute_pips(x, n), x=x)
    if kind is DesignKind.SRSWOR:
        frame = dict(N=x.size, n=n)
    draw, pi = make_sampler(kind, **frame)
    exact, _ = first_second_order(enumerate_design(kind, **frame))
    assert np.max(np.abs(exact - pi.pi)) <= CERTAINTY_TOL
    # Chao's and Tille's check of the given pi passes through every entry
    # point: the ladder caps the near-one share within CERTAINTY_TOL.
    estimate_tail(kind, y=np.ones(x.size), eps_grid=[0.1], replicates=10, **frame)
    seeds = list(range(300))
    rows = draw.rows(seeds)
    assert [draw(s).selected for s in seeds] == [tuple(row) for row in rows.tolist()]
    member = np.zeros((len(seeds), pi.N), dtype=bool)
    member[np.arange(len(seeds))[:, None], rows] = True
    assert np.all(member.sum(axis=1) == n)
    assert member[:, pi.certain].all() and not member[:, pi.pi <= CERTAINTY_TOL].any()


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

    def check_brewer_frequencies(self, x, n):
        """200,000 samples from batches; |z| <= 4 for every support
        sample against the enumerated law."""
        R = 200_000
        pi = compute_pips(x, n)
        dist = enumerate_design(DesignKind.BREWER, pi=pi)
        draw, _ = make_sampler(DesignKind.BREWER, pi=pi)
        counts = collections.Counter()
        for lo in range(0, R, 20_000):
            counts.update(map(tuple, draw.rows(range(lo, lo + 20_000)).tolist()))
        assert set(counts) <= set(dist.support)
        for key, p in dist.support.items():
            z = (counts[key] / R - p) / math.sqrt(p * (1.0 - p) / R)
            assert abs(z) <= 4.0, (key, z)

    def test_brewer_inverse_cdf_frequencies(self):
        # Every first draw has a trial bound above 4 and takes the
        # composition pick, by a head or a tail unit.
        self.check_brewer_frequencies(INVERSE_CDF_X, 3)

    @pytest.mark.parametrize("x, n", [TEN_UNITS_X, NEAR_ONE_X], ids=["ten-units", "near-one"])
    def test_brewer_composition_frequencies(self, x, n):
        # Head and tail picks on both, and the guard's inverse CDF on the
        # second: test_brewer_pick_paths counts them.
        self.check_brewer_frequencies(x, n)


class TestEnumeratedInclusionProbabilities:
    @pytest.mark.parametrize("kind", UNEQUAL_DESIGNS, ids=lambda k: k.value)
    def test_capped_instance(self, kind):
        x = np.array([1.0, 1.0, 1.0, 10.0])
        pi = compute_pips(x, 2)
        dist = enumerate_design(kind, x=x, pi=pi, n=2)

        pi_hat, _ = first_second_order(dist)
        assert np.max(np.abs(pi_hat - pi.pi)) <= 1e-9
        assert dist.fixed_size

    @pytest.mark.parametrize("kind", UNEQUAL_DESIGNS, ids=lambda k: k.value)
    def test_random_instance(self, kind):
        rng = np.random.default_rng(2024)
        x = rng.uniform(0.5, 3.0, size=5)
        pi = compute_pips(x, 3)
        dist = enumerate_design(kind, x=x, pi=pi, n=3)

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
        xs = x[np.random.default_rng(4).permutation(x.size)]
        ladder = chao_plan(xs, n)
        for s in range(ladder.steps + 1):
            ref = compute_pips(xs[: n + s], n).pi
            self.check_rung(ladder, s, xs[: n + s], ref)

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
        ladder = chao_plan(x, n)
        prev = compute_pips(x[:n], n).pi
        for j in range(ladder.steps):
            cur = compute_pips(x[: n + 1 + j], n).pi
            law = structured_law(ladder, j, n + j + 1)
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


# Each planned design's plan builder, by its name in ``designs``.
PLAN_BUILDERS = {
    DesignKind.CHAO: "chao_plan",
    DesignKind.TILLE_ELIMINATION: "tille_plan",
    DesignKind.GENERALIZED_MIDZUNO: "midzuno_plan",
    DesignKind.BREWER: "brewer_plan",
}


def count_builds(monkeypatch) -> collections.Counter:
    """Count the calls of every plan builder, of ``StepLaw`` (a ladder's
    law) and of ``_guide`` (Brewer's guide table)."""
    built = collections.Counter()
    for name in (*PLAN_BUILDERS.values(), "StepLaw", "_guide"):
        def counted(*args, _name=name, _f=getattr(designs, name), **kwargs):
            built[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(designs, name, counted)
    return built


def held_arrays(obj):
    """The arrays a plan holds, in nested plans, its law and its guide."""
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            yield value
        elif dataclasses.is_dataclass(value):
            yield from held_arrays(value)
        elif isinstance(value, tuple):
            yield from (a for a in value if isinstance(a, np.ndarray))


class TestKeptPlans:
    """Each pi keeps the plans drawn from it, one per design: Chao's and
    Tille's ladder of x, or of pi's capped shares, Midzuno's and Brewer's
    plan of pi."""

    def test_estimate_tail_plans_each_design_once(self, monkeypatch):
        # Ten calls on criterion 05's frame build each plan and each law
        # once, and draw what a fresh plan draws.
        x, n = CRITERION_05_X
        pi = compute_pips(x, n)
        fresh = {
            kind: estimate_tail(kind, y=x, eps_grid=[0.05], replicates=1310, pi=pi, x=x)
            for kind in PLAN_BUILDERS
        }
        # A new pi keeps no plan yet.
        pi = compute_pips(x, n)
        built = count_builds(monkeypatch)
        for kind in PLAN_BUILDERS:
            for master in range(10):
                tail = estimate_tail(
                    kind, y=x, eps_grid=[0.05], replicates=1310,
                    master_seed=master, pi=pi, x=x,
                )
                if master == 0:
                    assert tail.errors.tobytes() == fresh[kind].errors.tobytes()
        expect = {name: 1 for name in PLAN_BUILDERS.values()}
        assert built == collections.Counter(StepLaw=3, _guide=1, **expect)

    def test_make_sampler_builds_no_plan_and_its_first_draw_one(self, monkeypatch):
        # make_sampler only checks its inputs.  Its sampler's first draw
        # builds pi's plan; later draws, and other samplers on that pi,
        # read it; another pi builds its own.
        x, n = CRITERION_05_X
        built = count_builds(monkeypatch)
        for kind, name in PLAN_BUILDERS.items():
            pi = compute_pips(x, n)
            draw, _ = make_sampler(kind, pi=pi, x=x)
            assert built[name] == 0
            draw(7)
            assert built[name] == 1
            make_sampler(kind, pi=pi, x=x)[0].rows(range(3))
            draw(8)
            assert built[name] == 1
            make_sampler(kind, pi=compute_pips(x, n), x=x)[0](7)
            assert built[name] == 2
        # A ladder is built again when asked for other sizes than its own
        # x: pi alone plans on pi's capped shares, and 2 x is another x,
        # which a second array equal to 2 x finds.
        pi = compute_pips(x, n)
        for sizes in (x, None, 2 * x, 2 * x):
            make_sampler(DesignKind.TILLE_ELIMINATION, pi=pi, x=sizes)[0](7)
        assert built["tille_plan"] == 5

    def test_kept_arrays_read_only_and_caller_x_free(self):
        # Every array a kept plan holds is read-only, its law and guide
        # included, and a later write to the caller's x changes no draw
        # of a sampler that has drawn.  Chao's and Tille's ladder is of
        # its own x: the written x gets another; Midzuno's and Brewer's
        # plan is of pi alone.
        x, n = CRITERION_05_X[0].copy(), 40
        pi = compute_pips(x, n)
        for kind in PLAN_BUILDERS:
            draw, _ = make_sampler(kind, pi=pi, x=x)
            before = [draw(s).selected for s in range(5)]
            draw.rows(range(3))
            plan = designs._plan(kind, pi, x)
            arrays = list(held_arrays(plan))
            assert len(arrays) >= 4 and not any(a.flags.writeable for a in arrays)
            kept = x.copy()
            x[:] = x[::-1]
            assert [draw(s).selected for s in range(5)] == before
            if kind in (DesignKind.CHAO, DesignKind.TILLE_ELIMINATION):
                assert designs._plan(kind, pi, x) is not plan
            else:
                assert designs._plan(kind, pi, x) is plan
            x[:] = kept
        draw, _ = make_sampler(DesignKind.TILLE_ELIMINATION, pi=pi, x=x)
        draw(0)
        ladder = designs._plan(DesignKind.TILLE_ELIMINATION, pi, x)
        assert not ladder.law.cum.flags.writeable and "segments" in vars(ladder)
        with pytest.raises(ValueError, match="read-only"):
            ladder.lam[0] = 1.0

    def test_write_to_x_before_the_first_draw_changes_no_draw(self, monkeypatch):
        # make_sampler keeps a copy of x: a write to the caller's array
        # after it returns, before any plan is built, changes no draw.
        x, n = CRITERION_05_X
        for kind, name in PLAN_BUILDERS.items():
            mine = x.copy()
            built = count_builds(monkeypatch)
            draw, _ = make_sampler(kind, pi=compute_pips(x, n), x=mine)
            mine[:] = mine[::-1]
            assert built[name] == 0
            expect, _ = make_sampler(kind, x=x, n=n)
            assert [draw(s) for s in range(5)] == [expect(s) for s in range(5)]
            assert np.array_equal(draw.rows(range(20)), expect.rows(range(20)))
            monkeypatch.undo()

    @pytest.mark.parametrize(
        "kind",
        [DesignKind.TILLE_ELIMINATION, DesignKind.CHAO, DesignKind.GENERALIZED_MIDZUNO],
        ids=["tille", "chao", "midzuno"],
    )
    def test_corrupted_kept_ladder_fails_every_call(self, monkeypatch, kind):
        # lam scaled down by 1%: every sampler on the pi that keeps the
        # ladder, and every estimate_tail call on it, raises on every
        # call, single draw or batch, from the one ladder its first draw
        # built.
        name = PLAN_BUILDERS[kind]
        original = getattr(designs, name)
        built = []

        def corrupted(*args):
            plan = original(*args)
            built.append(plan)
            if isinstance(plan, designs.Ladder):
                return dataclasses.replace(plan, lam=plan.lam * 0.99)
            ladder = dataclasses.replace(plan.ladder, lam=plan.ladder.lam * 0.99)
            return dataclasses.replace(plan, ladder=ladder)

        monkeypatch.setattr(designs, name, corrupted)
        x, n = CRITERION_05_X
        pi = compute_pips(x, n)
        draws = [make_sampler(kind, pi=pi, x=x)[0] for _ in range(2)]
        assert not built
        match = f"{kind.value} step .*probabilities sum to"
        for _ in range(3):
            for draw in draws:
                with pytest.raises(ContractViolationError, match=match):
                    draw(7)
                with pytest.raises(ContractViolationError, match=match):
                    draw.rows(range(5))
            with pytest.raises(ContractViolationError, match=match):
                estimate_tail(kind, y=x, eps_grid=[0.1], replicates=20, pi=pi, x=x)
        assert len(built) == 1

    @pytest.mark.parametrize("kind", list(PLAN_BUILDERS), ids=lambda k: k.value)
    def test_plan_freed_with_pi_and_its_samplers(self, kind):
        # No module keeps a plan: it lives as long as its pi, which each
        # sampler on it holds, after a batch and a single draw alike.
        x, n = CRITERION_05_X
        pi = compute_pips(x, n)
        # make_sampler returns pi too, which is not kept here.
        draw = make_sampler(kind, pi=pi, x=x)[0]
        draw.rows(range(5))
        draw(7)
        estimate_tail(kind, y=x, eps_grid=[0.1], replicates=20, pi=pi, x=x)
        if kind is DesignKind.BREWER:
            sample_brewer(pi, 7, trace="realized")
        plan = weakref.ref(designs._plan(kind, pi, x))
        del pi
        gc.collect()
        assert plan() is not None
        del draw
        gc.collect()
        assert plan() is None

    def test_one_frame_plans_once_across_samplers_traces_and_oracle(self, monkeypatch):
        # make_sampler, estimate_tail, traced draws, enumerate_design and
        # the complementarity check all read one memo: on one frame each
        # plan is built once, and Brewer's enumeration builds none.
        x = np.array([1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 30.0])
        pi = compute_pips(x, 3)
        assert pi.certain.any()
        built = count_builds(monkeypatch)
        # The check's second reading of the chain reuses the plan its own
        # enumeration kept.
        assert midzuno_complementarity_tv(pi) < 1e-12
        assert built["midzuno_plan"] == 1
        for kind, name in PLAN_BUILDERS.items():
            enumerate_design(kind, pi=pi, x=x)
            assert built[name] == (kind is not DesignKind.BREWER)
            for _ in range(2):
                make_sampler(kind, pi=pi, x=x)[0].rows(range(5))
                estimate_tail(kind, y=x, eps_grid=[0.1], replicates=20, pi=pi, x=x)
                enumerate_design(kind, pi=pi, x=x)
        for seed in range(3):
            sample_brewer(pi, seed, trace="realized")
        assert {name: built[name] for name in PLAN_BUILDERS.values()} == dict.fromkeys(
            PLAN_BUILDERS.values(), 1
        )
        assert built["StepLaw"] == 3

    @pytest.mark.parametrize("kind", [DesignKind.CHAO, DesignKind.TILLE_ELIMINATION],
                             ids=lambda k: k.value)
    def test_pi_alone_draws_the_rows_of_x(self, kind):
        # Given pi alone, Chao and Tille plan on pi's capped shares, whose
        # ladder draws what the ladder of x draws, single draws and
        # batches alike.
        frames = [(X_CERTAIN, 4), CRITERION_05_X, LARGE_FRAME_X, *NEAR_ONE_CAP_FRAMES]
        for x, n in frames:
            pi = compute_pips(x, n)
            by_x, pi_x = make_sampler(kind, x=x, n=n)
            by_pi, _ = make_sampler(kind, pi=pi)
            seeds = range(300)
            assert np.array_equal(by_pi.rows(seeds), by_x.rows(seeds))
            assert [by_pi(s) for s in range(20)] == [by_x(s) for s in range(20)]
            # The two drew from ladders of other sizes.
            assert np.array_equal(pi._plans[kind].x, pi.pi)
            assert np.array_equal(pi_x._plans[kind].x, x)

    def test_unknown_kind_raises(self):
        pi = compute_pips(np.arange(1.0, 7.0), 3)
        for call in (make_sampler, enumerate_design):
            with pytest.raises(InvalidInputError, match="unknown design kind"):
                call("pareto", pi=pi)

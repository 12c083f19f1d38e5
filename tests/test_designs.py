"""Samplers: determinism, fixed size, certainty handling, and agreement
between the streaming runners and the exactly enumerated distributions.

The enumeration walks the same per-step probabilities through an
independent route (exhaustive recursion instead of random draws), so
comparing empirical frequencies of the runners against it exercises
both codepaths end to end.
"""

import bisect
import itertools
import tracemalloc
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
    enumerate_design,
    estimate_tail,
    make_sampler,
    sample_brewer,
    sample_chao,
    sample_midzuno,
    sample_srswor,
    sample_tille,
)
from splitsamp.designs import (
    SEED_LIMIT,
    _brewer_rows,
    _check_sum,
    _uniforms,
    chao_plan,
    midzuno_plan,
    tille_plan,
)
from splitsamp.splitting import ZERO_ONE_TOL, categorical_index

from conftest import UNEQUAL_DESIGNS, X_CERTAIN


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


# Seeds where the 32-bit words of a seed change count or wrap, and the
# ends of the seed domain.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**128 - 1]


class TestStreams:
    """Each row of a batch draws exactly the stream ``default_rng(seed)``
    draws, whether the seed opens the batch or sits inside it."""

    SEEDS = EDGE_SEEDS + [derive_seed(11, r) for r in range(2000)]

    @pytest.mark.parametrize("count", [1, 40, 320])
    def test_rows_equal_default_rng(self, count):
        expect = {s: np.random.default_rng(s).random(count) for s in self.SEEDS}
        for seed in self.SEEDS:
            assert np.array_equal(_uniforms([seed], count)[0], expect[seed]), seed
        # The edge seeds sit inside the first 655-row block.
        seeds = self.SEEDS[8:300] + self.SEEDS[:8] + self.SEEDS[300:]
        for start in range(0, len(seeds), 655):
            block = seeds[start : start + 655]
            u = _uniforms(block, count)
            for seed, row in zip(block, u):
                assert np.array_equal(row, expect[seed]), seed

    @pytest.mark.parametrize("N, n", [(200, 40), (2000, 200), (10, 10)])
    def test_srswor_rows_equal_default_rng_choice(self, N, n):
        draw, _ = make_sampler(DesignKind.SRSWOR, N=N, n=n)
        seeds = [derive_seed(5, r) for r in range(150)] + EDGE_SEEDS
        rows = draw.rows(seeds)
        for seed, row in zip(seeds, rows):
            expect = np.sort(np.random.default_rng(seed).choice(N, n, replace=False))
            assert np.array_equal(row, expect), seed
        for seed in EDGE_SEEDS:
            assert draw(seed).selected == tuple(rows[seeds.index(seed)])


class TestSeedDomain:
    """Seeds are integers in [0, 2**128): the range whose streams the
    batched seeding reproduces.  Anything else is rejected up front."""

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
        calls = [
            lambda seed: sample_srswor(4, 2, seed),
            lambda seed: sample_chao(pi_plain, x, seed),
            lambda seed: sample_tille(pi_plain, x, seed),
            lambda seed: sample_midzuno(pi_plain, seed),
            lambda seed: sample_brewer(pi_plain, seed),
            lambda seed: sample_brewer(pi_plain, seed, trace="realized")[0],
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
        assert plan.accept.size == 3
        # One rung per stream prefix of 2..5 units; the first caps both.
        assert ladder.lam.size == 4 and ladder.capped[0] == 2
        assert ladder.cross_at.tolist()[0] == 0 and ladder.cross_at.size == 4
        # Each unit crosses the cap at most once.
        assert sorted(set(ladder.cross.tolist())) == sorted(ladder.cross.tolist())
        for s in range(4):
            rung = ladder.pi(s, 2 + s)
            assert rung.sum() == pytest.approx(2.0, abs=1e-12)
            assert rung.min() > 0.0 and rung.max() <= 1.0
            if s:
                assert plan.accept[s - 1] == rung[-1]

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

    def test_traced_and_plain_agree_near_certainty(self):
        # Criterion 04's population with unit 0 at pi = 1 - 1e-10 and the
        # rest rescaled to sum 9 + 1e-10: both paths must take unit 0 as
        # certain, so a seed gives one sample with or without a trace.
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
        # A negative pi is no valid input; the batch still refuses the
        # negative selection weight it would give, in any row.
        with pytest.raises(ContractViolationError, match="brewer step 1: negative"):
            _brewer_rows(np.array([-0.1, 0.6, 0.5]), [0, 1, 2])


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


def reference_step(u, pool, crossing, w, r, expected):
    """One ladder step for one replicate: the pool units share weight r
    each, the crossing units have weights w.  Appends the crossing units
    to the pool and returns the position that u picks."""
    count = len(pool)
    r = max(r, 0.0) if count else 0.0
    cum = list(itertools.accumulate(max(v, 0.0) for v in w))
    mass = cum[-1] if cum else 0.0
    total = mass + count * r
    assert abs(total - expected) <= 1e-9
    v = u * total
    k = bisect.bisect_right(cum, v)
    pool.extend(crossing)
    if k < len(cum) or not (count and r > 0.0):
        return count + min(k, len(cum) - 1)
    return int(min((v - mass) / r, count - 1))


def reference_steps(ladder, j):
    """Step j's crossing units, their weights and the pool weight."""
    lam, x = ladder.lam.tolist(), ladder.x.tolist()
    at = ladder.cross_at.tolist()
    crossing = ladder.cross[at[j] : at[j + 1]].tolist()
    w = [1.0 - lam[j + 1] * x[k] for k in crossing]
    return crossing, w, 1.0 - lam[j + 1] / lam[j]


def reference_eliminate(ladder, rng):
    pool, picked = [], []
    for j in range(ladder.steps):
        pos = reference_step(rng.random(), pool, *reference_steps(ladder, j), 1.0)
        picked.append(pool[pos])
        pool[pos] = pool[-1]
        pool.pop()
    return picked, pool


def reference_chao(plan, seed):
    rng = np.random.default_rng(seed)
    N, n = plan.N, plan.n
    ladder = plan.ladder
    pool = []
    u = rng.random(N - n)
    for j in range(N - n):
        crossing, w, r = reference_steps(ladder, j)
        if u[j] > plan.accept[j]:
            pool.extend(crossing)
            continue
        pos = reference_step(rng.random(), pool, crossing, w, r, float(plan.accept[j]))
        if plan.accept[j] == 1.0:
            pool[pos] = pool[-1]
            pool.pop()
        else:
            pool[pos] = n + j
    return plan.order[pool + ladder.cross[ladder.cross_at[-1] :].tolist()]


def reference_tille(plan, seed):
    _, kept = reference_eliminate(plan, np.random.default_rng(seed))
    return np.array(kept + plan.cross[plan.cross_at[-1] :].tolist(), dtype=int)


def reference_midzuno(plan, seed):
    if plan.ladder is None:
        forced = plan.n - plan.certain.size == plan.active.size
        return np.concatenate([plan.certain, plan.active if forced else []])
    picked, _ = reference_eliminate(plan.ladder, np.random.default_rng(seed))
    return np.concatenate([plan.certain, plan.active[picked]])


def reference_brewer(pi_vec, seed):
    rng = np.random.default_rng(seed)
    active = np.flatnonzero(pi_vec < 1.0 - ZERO_ONE_TOL)
    chosen = list(np.flatnonzero(pi_vec >= 1.0 - ZERO_ONE_TOL))
    cur = pi_vec[active].copy()
    n_draws = int(round(float(cur.sum())))
    for t in range(1, n_draws + 1):
        r = n_draws - t + 1
        j = categorical_index(rng, cur * (r - cur) / (1.0 - cur))
        pj = float(cur[j])
        chosen.append(int(active[j]))
        keep = np.arange(cur.size) != j
        active = active[keep]
        cur = cur[keep] * ((r - 1.0) / (r - pj))
    return np.array(chosen)


class TestLockstepMatchesReferenceLoops:
    @pytest.mark.parametrize(
        "x, n",
        [
            (np.array([1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 40.0]), 4),
            (np.random.default_rng(5).lognormal(0.0, 1.0, size=30), 9),
            (np.array([1.0, 2.0, 3.0]), 3),
        ],
        ids=["certainty", "lognormal", "census"],
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
        seeds = list(range(300))
        for kind, reference in references.items():
            extra = {"stream_order": order} if kind is DesignKind.CHAO else {}
            draw, _ = make_sampler(kind, pi=pi, x=x, **extra)
            rows = draw.rows(seeds)
            for seed in seeds:
                expect = tuple(sorted(int(k) for k in reference(seed)))
                assert draw(seed).selected == expect, (kind, seed)
                assert tuple(rows[seed]) == expect, (kind, seed)


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
    """Step j's law per unit from the plan: the crossing weight, the
    shared pool weight, or 0 for a unit still capped."""
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
            if s:
                assert abs(plan.accept[s - 1] - ref[-1]) <= 1e-12

    @pytest.mark.parametrize("x, n", ladder_instances(), ids=LADDER_IDS)
    def test_step_laws_match_dense_columns(self, x, n):
        ladder = tille_plan(x, n)
        prev = compute_pips(x, x.size).pi
        for j in range(ladder.steps):
            cur = compute_pips(x, x.size - 1 - j).pi
            law = structured_law(ladder, j, x.size)
            assert np.max(np.abs(law - (1.0 - cur / prev))) <= 1e-12, j
            prev = cur
        plan = chao_plan(x, n)
        prev = compute_pips(x[:n], n).pi
        for j in range(plan.ladder.steps):
            cur = compute_pips(x[: n + 1 + j], n).pi
            law = structured_law(plan.ladder, j, n + j)
            assert np.max(np.abs(law - (1.0 - cur[:-1] / prev))) <= 1e-12, j
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

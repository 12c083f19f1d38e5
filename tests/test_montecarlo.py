"""Replicate seeding, Wilson limits, tail estimation and certification."""

import collections
import dataclasses
import gc
import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from splitsamp import (
    CertRow,
    ContractViolationError,
    DesignKind,
    InvalidInputError,
    certify,
    compute_pips,
    derive_seed,
    estimate_tail,
    make_sampler,
)
from splitsamp import designs, montecarlo
from splitsamp.montecarlo import DEFAULT_Z, wilson_upper

from conftest import X_CERTAIN, splitmix64_reference


def force_chunks(monkeypatch, rows, kind, **frame):
    """Chunks of ``rows`` rows for ``kind`` on this frame, through the
    sampler's ``row_cells``: returns the list that collects each chunk's
    row count as ``estimate_tail`` draws it."""
    cells = make_sampler(kind, **frame)[0].row_cells
    monkeypatch.setattr(montecarlo, "_CHUNK_CELLS", rows * cells)
    seen = []
    real = montecarlo._chunk_seeds

    def chunk_seeds(master_seed, start, stop):
        seen.append(stop - start)
        return real(master_seed, start, stop)

    monkeypatch.setattr(montecarlo, "_chunk_seeds", chunk_seeds)
    return seen


class TestDeriveSeed:
    def test_known_stream_from_zero(self):
        # First two splitmix64 outputs from state 0.
        assert derive_seed(0, 0) == 0xE220A8397B1DCDAF
        assert derive_seed(0, 1) == 0x6E789E6AA1B965F4

    def test_matches_reference_walk(self):
        # Index i is the (i+1)-th output of the sequential walk.
        state = 99
        outputs = []
        for _ in range(8):
            state, out = splitmix64_reference(state)
            outputs.append(out)
        assert [derive_seed(99, i) for i in range(8)] == outputs

    def test_distinct_across_indices(self):
        seeds = {derive_seed(7, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_negative_index(self):
        with pytest.raises(InvalidInputError, match="nonnegative"):
            derive_seed(0, -1)

    @pytest.mark.parametrize("index", [1.5, "3", True, None])
    def test_index_that_is_not_an_integer(self, index):
        with pytest.raises(InvalidInputError, match="replicate index"):
            derive_seed(5, index)

    def test_numpy_integer_index(self):
        # numpy integer arithmetic would overflow on the 64-bit step.
        assert derive_seed(5, np.int64(3)) == derive_seed(5, np.uint64(3)) == derive_seed(5, 3)

    def test_64_bit_range(self):
        s = derive_seed(2**64 - 1, 3)
        assert 0 <= s < 2**64

    @pytest.mark.parametrize("master", [-1, 2**64, 2**64 + 7, 1.5, "3", None])
    def test_master_seed_outside_64_bits(self, master):
        # Masked to 64 bits, 2**64 would replay master 0 and -1 would
        # replay 2**64 - 1, each recorded under another seed.
        with pytest.raises(InvalidInputError, match="master seed"):
            derive_seed(master, 0)

    def test_estimate_tail_rejects_aliasing_master_seed(self):
        args = dict(y=np.arange(1.0, 7.0), eps_grid=[0.1], replicates=10, N=6, n=3)
        tail = estimate_tail(DesignKind.SRSWOR, master_seed=2**64 - 1, **args)
        assert tail.master_seed == 2**64 - 1
        with pytest.raises(InvalidInputError, match="master seed"):
            estimate_tail(DesignKind.SRSWOR, master_seed=2**64, **args)


class TestChunkSeeds:
    """``estimate_tail`` computes each chunk's seeds in one uint64 pass,
    with the bits of ``derive_seed``."""

    def seeds_drawn(self, monkeypatch, master, replicates):
        # Every seed array that estimate_tail hands to draw.rows.
        blocks = []
        real = montecarlo.make_sampler

        def make_sampler(kind, **kwargs):
            draw, pi = real(kind, **kwargs)

            def rows(seeds):
                blocks.append(seeds)
                return draw.rows(seeds)

            return dataclasses.replace(draw, draw_rows=rows), pi

        monkeypatch.setattr(montecarlo, "make_sampler", make_sampler)
        estimate_tail(
            DesignKind.SRSWOR, y=np.arange(1.0, 7.0), eps_grid=[0.1],
            replicates=replicates, master_seed=master, N=6, n=3,
        )
        return blocks

    @pytest.mark.parametrize("master", [0, 5, 2**63 + 7, 2**64 - 1])
    def test_chunk_seeds_equal_derived_seeds(self, monkeypatch, master):
        # 100,000 replicates at N = 6: chunks of 21,845 rows, the last
        # one partial.  The top master wraps mod 2**64 at once.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blocks = self.seeds_drawn(monkeypatch, master, 100_000)
        assert len(blocks) == 5 and {b.dtype for b in blocks} == {np.dtype(np.uint64)}
        seeds = np.concatenate(blocks).tolist()
        assert seeds == [derive_seed(master, r) for r in range(100_000)]

    @pytest.mark.parametrize("kind", list(DesignKind), ids=lambda k: k.value)
    def test_no_python_call_per_replicate(self, monkeypatch, kind):
        # Seeds and stream keys come from array passes: the per-seed
        # Python functions run a fixed number of times, whatever the
        # replicate count.  Chunks of 100 rows.
        sizes = dict(x=X_CERTAIN, n=4)
        if kind is DesignKind.SRSWOR:
            sizes = dict(N=X_CERTAIN.size, n=4)
        chunks = force_chunks(monkeypatch, 100, kind, **sizes)
        calls = collections.Counter()
        for module, name in ((montecarlo, "derive_seed"), (designs, "_key")):
            def counting(*args, _f=getattr(module, name), _name=name):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(module, name, counting)
        counts = []
        for replicates in (500, 5000):
            calls.clear()
            estimate_tail(
                kind, y=np.ones(X_CERTAIN.size), eps_grid=[0.1],
                replicates=replicates, master_seed=3, **sizes,
            )
            counts.append(dict(calls))
        assert counts[0] == counts[1]
        assert counts[1].get("derive_seed", 0) <= 1 and counts[1].get("_key", 0) == 0
        assert chunks == [100] * 55

    @pytest.mark.parametrize("master", [-1, 2**64, 1.5, "3", None])
    def test_estimate_tail_checks_master_seed_before_drawing(self, monkeypatch, master):
        def refuse(*args, **kwargs):
            raise AssertionError("drew before checking the master seed")

        monkeypatch.setattr(montecarlo, "make_sampler", refuse)
        with pytest.raises(InvalidInputError, match="master seed"):
            estimate_tail(
                DesignKind.SRSWOR, y=np.arange(1.0, 7.0), eps_grid=[0.1],
                replicates=10, master_seed=master, N=6, n=3,
            )

    def test_estimate_tail_accepts_numpy_master_seed(self):
        args = dict(y=np.arange(1.0, 7.0), eps_grid=[0.1], replicates=10, N=6, n=3)
        tail = estimate_tail(DesignKind.SRSWOR, master_seed=np.uint64(2**64 - 1), **args)
        again = estimate_tail(DesignKind.SRSWOR, master_seed=2**64 - 1, **args)
        assert np.array_equal(tail.errors, again.errors)


class TestWilsonUpper:
    def test_zero_successes_still_positive(self):
        assert wilson_upper(0, 100) > 0.0

    def test_all_successes(self):
        assert wilson_upper(100, 100) == 1.0

    def test_monotone_in_successes(self):
        vals = [wilson_upper(k, 50) for k in range(51)]
        assert all(a < b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_covers_point_estimate(self):
        assert wilson_upper(10, 100) > 0.1

    def test_default_z_is_99th_percentile(self):
        assert DEFAULT_Z == pytest.approx(2.3263478740408408, rel=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            wilson_upper(1, 0)
        with pytest.raises(InvalidInputError):
            wilson_upper(5, 4)


@pytest.fixture(scope="module")
def small_tail():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    pi = compute_pips(x, 2)
    y = np.array([0.5, 1.0, 2.0, 1.5])
    eps = np.array([0.0, 0.1, 0.3, 10.0])
    return estimate_tail(
        DesignKind.BREWER, y=y, eps_grid=eps, replicates=400,
        master_seed=42, pi=pi,
    )


class TestEstimateTail:
    def test_reproducible(self, small_tail):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        pi = compute_pips(x, 2)
        y = np.array([0.5, 1.0, 2.0, 1.5])
        again = estimate_tail(
            DesignKind.BREWER, y=y, eps_grid=small_tail.eps, replicates=400,
            master_seed=42, pi=pi,
        )
        assert np.array_equal(again.errors, small_tail.errors)
        assert np.array_equal(again.count_one, small_tail.count_one)

    def test_master_seed_changes_draws(self, small_tail):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        pi = compute_pips(x, 2)
        y = np.array([0.5, 1.0, 2.0, 1.5])
        other = estimate_tail(
            DesignKind.BREWER, y=y, eps_grid=small_tail.eps, replicates=400,
            master_seed=43, pi=pi,
        )
        assert not np.array_equal(other.errors, small_tail.errors)

    def test_counts_match_brute_force(self, small_tail):
        for i, e in enumerate(small_tail.eps):
            assert small_tail.count_one[i] == int(
                np.sum(small_tail.errors >= e)
            )
            assert small_tail.count_two[i] == int(
                np.sum(np.abs(small_tail.errors) >= e)
            )

    def test_eps_zero_two_sided_counts_everything(self, small_tail):
        assert small_tail.count_two[0] == small_tail.replicates

    def test_huge_eps_counts_nothing(self, small_tail):
        assert small_tail.count_one[-1] == 0
        assert small_tail.count_two[-1] == 0

    def test_metadata(self, small_tail):
        assert small_tail.kind == "brewer"
        assert small_tail.N == 4 and small_tail.n == 2
        assert small_tail.master_seed == 42

    def test_rejects_n_that_pi_does_not_have(self):
        pi = compute_pips(np.arange(1.0, 7.0), 3)
        with pytest.raises(InvalidInputError, match="pi has n="):
            estimate_tail(
                DesignKind.GENERALIZED_MIDZUNO, y=np.ones(6), eps_grid=[0.1],
                replicates=10, pi=pi, n=5,
            )

    def test_validation(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        pi = compute_pips(x, 2)
        with pytest.raises(InvalidInputError, match="replicates"):
            estimate_tail(
                DesignKind.BREWER, y=np.ones(4), eps_grid=[0.1],
                replicates=0, pi=pi,
            )
        with pytest.raises(InvalidInputError, match="grid"):
            estimate_tail(
                DesignKind.BREWER, y=np.ones(4), eps_grid=[-0.1],
                replicates=5, pi=pi,
            )
        with pytest.raises(InvalidInputError, match="per unit"):
            estimate_tail(
                DesignKind.BREWER, y=np.ones(3), eps_grid=[0.1],
                replicates=5, pi=pi,
            )

    @pytest.mark.parametrize(
        "grid",
        [[0.0, np.nan], [[0.0, 0.1], [0.2, 0.3]], 0.1],
        ids=["nan_point", "2d_grid", "scalar_grid"],
    )
    def test_rejects_a_grid_that_is_not_1d_and_nonnegative(self, grid):
        # A NaN point would count 0 exceedances and pass any bound in
        # certify; a 2-D grid would make certify raise TypeError.
        pi = compute_pips(np.array([1.0, 2.0, 3.0, 4.0]), 2)
        with pytest.raises(InvalidInputError, match="eps grid"):
            estimate_tail(
                DesignKind.BREWER, y=np.ones(4), eps_grid=grid,
                replicates=5, pi=pi,
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_y(self, bad):
        # With NaN, every error would be NaN and sort last: the counts
        # would read every replicate as an exceedance of any eps.
        with pytest.raises(InvalidInputError, match="y must be finite"):
            estimate_tail(
                DesignKind.SRSWOR, y=[1.0, bad, 2.0, 3.0], eps_grid=[0.1],
                replicates=100, N=4, n=2,
            )

    @pytest.mark.parametrize("replicates", [2.5, 5.0, "5"])
    def test_rejects_replicates_that_are_not_integers(self, replicates):
        pi = compute_pips(np.array([1.0, 2.0, 3.0, 4.0]), 2)
        with pytest.raises(InvalidInputError, match="positive integer"):
            estimate_tail(
                DesignKind.BREWER, y=np.ones(4), eps_grid=[0.1],
                replicates=replicates, pi=pi,
            )

    def test_rejects_boolean_replicates_before_any_draw(self, monkeypatch):
        # True passes an integer test and would reach np.empty.
        def refuse(*args, **kwargs):
            raise AssertionError("estimate_tail built a sampler")

        monkeypatch.setattr(montecarlo, "make_sampler", refuse)
        pi = compute_pips(np.array([1.0, 2.0, 3.0, 4.0]), 2)
        with pytest.raises(InvalidInputError, match="positive integer"):
            estimate_tail(
                DesignKind.BREWER, y=np.ones(4), eps_grid=[0.1],
                replicates=True, pi=pi,
            )


CHAO_ORDER = np.array([11, 3, 0, 7, 1, 9, 4, 10, 2, 8, 6, 5])


class TestLockstepReplicates:
    """estimate_tail draws its replicates in lockstep chunks; each one
    must still be the sample that its own seed gives through ``draw``."""

    @pytest.mark.parametrize("chunk_rows", [None, 7], ids=["default_chunk", "chunk_7"])
    @pytest.mark.parametrize(
        "kind, x",
        [
            # Chao streams the population in order, here a permuted one.
            pytest.param(DesignKind.CHAO, X_CERTAIN[CHAO_ORDER], id="chao"),
            pytest.param(DesignKind.TILLE_ELIMINATION, X_CERTAIN, id="tille"),
            pytest.param(DesignKind.GENERALIZED_MIDZUNO, X_CERTAIN, id="midzuno"),
            pytest.param(DesignKind.BREWER, X_CERTAIN, id="brewer"),
        ],
    )
    def test_errors_match_per_seed_draws(self, monkeypatch, kind, x, chunk_rows):
        N = x.size
        pi = compute_pips(x, 4)
        assert pi.certain.sum() == 1
        if chunk_rows is not None:
            chunks = force_chunks(monkeypatch, chunk_rows, kind, pi=pi, x=x)
        y = np.random.default_rng(6).uniform(0.0, 3.0, size=N)
        # 250 = 35 chunks of 7 rows and a partial chunk of 5.
        replicates = 250
        tail = estimate_tail(
            kind, y=y, eps_grid=[0.1], replicates=replicates,
            master_seed=13, pi=pi, x=x,
        )
        draw, _ = make_sampler(kind, pi=pi, x=x)
        y_check = y / pi.pi
        t_y = float(y.sum())
        expect = np.array([
            (float(y_check[list(draw(derive_seed(13, r)).selected)].sum()) - t_y) / N
            for r in range(replicates)
        ])
        assert np.array_equal(tail.errors, expect)
        if chunk_rows is not None:
            assert chunks == [7] * 35 + [5]

    @pytest.mark.parametrize(
        "kind, prefix",
        [
            (DesignKind.CHAO, "a137f0e9a990c743"),
            (DesignKind.TILLE_ELIMINATION, "5e41ad2f87456d37"),
            (DesignKind.GENERALIZED_MIDZUNO, "b2702ec47472270e"),
            (DesignKind.BREWER, "2ece1205c6272a4b"),
            (DesignKind.SRSWOR, "7887e8e1d50b2ff0"),
        ],
        ids=["chao", "tille", "midzuno", "brewer", "srswor"],
    )
    def test_criterion_05_chunks_keep_their_samples(self, kind, prefix):
        # Two full 655-row chunks on criterion 05's frame: any change to
        # which seed draws which sample changes the errors' hash.
        rng = np.random.default_rng(20260819)
        x = rng.uniform(1.0, 2.0, size=200)
        y = rng.uniform(0.0, 1.0, size=200)
        frame = dict(N=200) if kind is DesignKind.SRSWOR else dict(x=x)
        tail = estimate_tail(
            kind, y=y, eps_grid=np.linspace(0.025, 0.5, 20), replicates=1310,
            master_seed=5, n=40, **frame,
        )
        assert hashlib.sha256(tail.errors.tobytes()).hexdigest().startswith(prefix)

    def test_criterion_05_brewer_is_one_chunk_within_tilles_peak(self, monkeypatch):
        # Brewer's rows hold a drawn mask and their picks, so criterion
        # 05's 1310 replicates are one chunk, one ``rows`` call, and the
        # call's tracemalloc peak stays at or below Tille's, whose rows
        # hold N pool slots each.  Each design's plan is built first, as
        # the benchmark's set-up does.
        rng = np.random.default_rng(20260819)
        x = rng.uniform(1.0, 2.0, size=200)
        y = rng.uniform(0.0, 1.0, size=200)
        args = dict(
            y=y, eps_grid=np.linspace(0.025, 0.5, 20), replicates=1310,
            master_seed=5, x=x, n=40,
        )
        peaks = {}
        for kind in (DesignKind.TILLE_ELIMINATION, DesignKind.BREWER):
            estimate_tail(kind, **args)
            gc.collect()
            tracemalloc.start()
            try:
                estimate_tail(kind, **args)
                peaks[kind] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[DesignKind.BREWER] <= peaks[DesignKind.TILLE_ELIMINATION], peaks
        calls = []

        def counting(kind, **kwargs):
            draw, pi = make_sampler(kind, **kwargs)

            def rows(seeds):
                calls.append(len(seeds))
                return draw.draw_rows(seeds)

            return dataclasses.replace(draw, draw_rows=rows), pi

        monkeypatch.setattr(montecarlo, "make_sampler", counting)
        estimate_tail(DesignKind.BREWER, **args)
        assert calls == [1310]

    @pytest.mark.parametrize(
        "kind",
        [DesignKind.CHAO, DesignKind.TILLE_ELIMINATION, DesignKind.GENERALIZED_MIDZUNO],
        ids=["chao", "tille", "midzuno"],
    )
    def test_errors_do_not_depend_on_the_kernel_layout(self, monkeypatch, kind):
        # numpy adds up a contiguous row pairwise and a strided one in
        # order, so the tally needs rows of one layout: a kernel that
        # returns Fortran-ordered rows gives the same errors, bit for bit,
        # each the error of its seed's single draw.
        rng = np.random.default_rng(20260819)
        x = rng.uniform(1.0, 2.0, size=200)
        y = rng.uniform(0.0, 1.0, size=200)
        args = dict(y=y, eps_grid=[0.1], replicates=655, master_seed=5, x=x, n=40)
        plain = estimate_tail(kind, **args)

        def fortran_rows(kind, **kwargs):
            draw, pi = make_sampler(kind, **kwargs)
            rows = lambda seeds: np.asfortranarray(draw.draw_rows(seeds))
            return dataclasses.replace(draw, draw_rows=rows), pi

        wrapped, pi = fortran_rows(kind, x=x, n=40)
        assert not wrapped.draw_rows(list(range(3))).flags.c_contiguous
        assert wrapped.rows(list(range(3))).flags.c_contiguous
        monkeypatch.setattr(montecarlo, "make_sampler", fortran_rows)
        tail = estimate_tail(kind, **args)
        assert tail.errors.tobytes() == plain.errors.tobytes()
        y_check, t_y = y / pi.pi, float(y.sum())
        expect = [
            (float(y_check[list(wrapped(derive_seed(5, r)).selected)].sum()) - t_y) / 200
            for r in range(655)
        ]
        assert np.array_equal(tail.errors, expect)

    @pytest.mark.parametrize(
        "kind, build, step",
        [
            (DesignKind.TILLE_ELIMINATION, "tille_plan", "i=199"),
            (DesignKind.CHAO, "chao_plan", "t=41"),
            (DesignKind.GENERALIZED_MIDZUNO, "midzuno_plan", "1"),
        ],
        ids=["tille", "chao", "midzuno"],
    )
    def test_corrupted_plan_rejected_in_a_chunk(self, monkeypatch, kind, build, step):
        # lam scaled down by 1% on criterion 05's frame: the first step's
        # weights sum above 1, and a 655-row batch names that step.
        original = getattr(designs, build)

        def corrupted(*args, **kwargs):
            plan = original(*args, **kwargs)
            if isinstance(plan, designs.Ladder):
                return dataclasses.replace(plan, lam=plan.lam * 0.99)
            ladder = dataclasses.replace(plan.ladder, lam=plan.ladder.lam * 0.99)
            return dataclasses.replace(plan, ladder=ladder)

        monkeypatch.setattr(designs, build, corrupted)
        x = np.random.default_rng(20260819).uniform(1.0, 2.0, size=200)
        draw, _ = make_sampler(kind, x=x, n=40)
        match = f"{kind.value} step {step}: probabilities sum to"
        with pytest.raises(ContractViolationError, match=match):
            draw.rows(montecarlo._chunk_seeds(5, 0, 655))

    @pytest.mark.parametrize(
        "kind, build",
        [
            (DesignKind.TILLE_ELIMINATION, "tille_plan"),
            (DesignKind.CHAO, "chao_plan"),
            (DesignKind.GENERALIZED_MIDZUNO, "midzuno_plan"),
        ],
        ids=["tille", "chao", "midzuno"],
    )
    def test_corrupted_plan_rejected_in_batches(self, monkeypatch, kind, build):
        # Scale every rung's lam down, so that the crossing units' weights
        # rise and a step's weights no longer sum to what it expects;
        # both paths must run the per-step check.
        original = getattr(designs, build)

        def corrupted(*args, **kwargs):
            plan = original(*args, **kwargs)
            if isinstance(plan, designs.Ladder):
                return dataclasses.replace(plan, lam=plan.lam * 0.99)
            ladder = dataclasses.replace(plan.ladder, lam=plan.ladder.lam * 0.99)
            return dataclasses.replace(plan, ladder=ladder)

        monkeypatch.setattr(designs, build, corrupted)
        match = f"{kind.value} step .*probabilities sum to"
        draw, _ = make_sampler(kind, x=X_CERTAIN, n=4)
        with pytest.raises(ContractViolationError, match=match):
            for r in range(50):
                draw(derive_seed(3, r))
        with pytest.raises(ContractViolationError, match=match):
            estimate_tail(
                kind, y=np.ones(X_CERTAIN.size), eps_grid=[0.1],
                replicates=50, master_seed=3, x=X_CERTAIN, n=4,
            )

    @pytest.mark.parametrize(
        "kind, build, step",
        [
            (DesignKind.TILLE_ELIMINATION, "tille_plan", "i=133"),
            (DesignKind.CHAO, "chao_plan", "t=87"),
            (DesignKind.GENERALIZED_MIDZUNO, "midzuno_plan", "1"),
        ],
        ids=["tille", "chao", "midzuno"],
    )
    def test_negative_crossing_weight_rejected(self, monkeypatch, kind, build, step):
        # Scale every rung's lam up by 1%.  Here 120 units of size 3 cross
        # the cap together near 1 (Tille's and Midzuno's ladders; 47 of
        # them at Chao's), so their weights 1 - lam x turn negative at a
        # step where several units cross; both paths name that step.
        original = getattr(designs, build)

        def corrupted(*args, **kwargs):
            plan = original(*args, **kwargs)
            if isinstance(plan, designs.Ladder):
                return dataclasses.replace(plan, lam=plan.lam * 1.01)
            ladder = dataclasses.replace(plan.ladder, lam=plan.ladder.lam * 1.01)
            return dataclasses.replace(plan, ladder=ladder)

        monkeypatch.setattr(designs, build, corrupted)
        x = np.repeat([1.0, 3.0], [40, 120])
        match = f"{kind.value} step {step}: negative probability -"
        draw, _ = make_sampler(kind, x=x, n=60)
        with pytest.raises(ContractViolationError, match=match):
            draw(derive_seed(3, 0))
        with pytest.raises(ContractViolationError, match=match):
            estimate_tail(
                kind, y=np.ones(x.size), eps_grid=[0.1],
                replicates=50, master_seed=3, x=x, n=60,
            )


class TestCertify:
    def test_trivial_bound_passes(self, small_tail):
        rows = certify(small_tail, lambda e: 1.0)
        assert all(isinstance(r, CertRow) and r.passed for r in rows)

    def test_zero_bound_fails_somewhere(self, small_tail):
        rows = certify(small_tail, lambda e: 0.0, two_sided=True)
        # eps = 0 has frequency 1; no Wilson margin saves a zero bound.
        assert not rows[0].passed

    def test_vector_bound(self, small_tail):
        rows = certify(small_tail, np.ones(small_tail.eps.size))
        assert all(r.passed for r in rows)
        with pytest.raises(InvalidInputError, match="grid"):
            certify(small_tail, np.ones(2))

    def test_margin_rule(self, small_tail):
        # passed <=> freq <= bound + (wilson - freq), reconstructed
        # directly from the row fields.
        rows = certify(small_tail, lambda e: 0.25)
        for r in rows:
            assert r.passed == (r.freq <= r.bound + (r.wilson - r.freq))

"""Replicate seeding, Wilson limits, tail estimation and certification."""

import dataclasses

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
    wilson_upper,
)
from splitsamp import designs, montecarlo
from splitsamp.montecarlo import DEFAULT_Z

from conftest import X_CERTAIN


def splitmix64_reference(state):
    """Textbook splitmix64, written independently of the library."""
    mask = (1 << 64) - 1
    state = (state + 0x9E3779B97F4A7C15) & mask
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return state, (z ^ (z >> 31)) & mask


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

    def test_64_bit_range(self):
        s = derive_seed(2**64 - 1, 3)
        assert 0 <= s < 2**64


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

    def test_csv_header(self, small_tail):
        first = small_tail.to_csv().splitlines()[0]
        assert first == (
            "eps,freq_one_sided,freq_two_sided,wilson_upper_1s,wilson_upper_2s"
        )
        assert len(small_tail.to_csv().splitlines()) == 1 + small_tail.eps.size

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


CHAO_ORDER = np.array([11, 3, 0, 7, 1, 9, 4, 10, 2, 8, 6, 5])


class TestLockstepReplicates:
    """estimate_tail draws its replicates in lockstep chunks; each one
    must still be the sample that its own seed gives through ``draw``."""

    @pytest.mark.parametrize("chunk_rows", [None, 7], ids=["default_chunk", "chunk_7"])
    @pytest.mark.parametrize(
        "kind, extra",
        [
            pytest.param(DesignKind.CHAO, {"stream_order": CHAO_ORDER}, id="chao"),
            pytest.param(DesignKind.TILLE_ELIMINATION, {}, id="tille"),
            pytest.param(DesignKind.GENERALIZED_MIDZUNO, {}, id="midzuno"),
            pytest.param(DesignKind.BREWER, {}, id="brewer"),
        ],
    )
    def test_errors_match_per_seed_draws(self, monkeypatch, kind, extra, chunk_rows):
        N = X_CERTAIN.size
        if chunk_rows is not None:
            monkeypatch.setattr(montecarlo, "_CHUNK_CELLS", chunk_rows * N)
        pi = compute_pips(X_CERTAIN, 4)
        assert pi.certain[-1] and pi.certain.sum() == 1
        y = np.random.default_rng(6).uniform(0.0, 3.0, size=N)
        # 250 = 35 chunks of 7 rows and a partial chunk of 5.
        replicates = 250
        tail = estimate_tail(
            kind, y=y, eps_grid=[0.1], replicates=replicates,
            master_seed=13, pi=pi, x=X_CERTAIN, **extra,
        )
        draw, _ = make_sampler(kind, pi=pi, x=X_CERTAIN, **extra)
        y_check = y / pi.pi
        t_y = float(y.sum())
        expect = np.array([
            (float(y_check[list(draw(derive_seed(13, r)).selected)].sum()) - t_y) / N
            for r in range(replicates)
        ])
        assert np.array_equal(tail.errors, expect)

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

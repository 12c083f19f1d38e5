"""Synthetic population generator and the bound-difference grid."""

import numpy as np
import pytest

from splitsamp import (
    ExperimentConfig,
    ExperimentRow,
    InvalidInputError,
    run_experiment,
)
from splitsamp.experiment import (
    DEFAULT_NS,
    DEFAULT_SEED,
    DEFAULT_SIGMAS,
    experiment_csv,
    generate_population,
    polar_normals,
)


class TestConfig:
    def test_defaults(self):
        c = ExperimentConfig()
        assert c.N == 10_000
        assert c.sigma_list == DEFAULT_SIGMAS
        assert c.n_list == DEFAULT_NS
        assert c.eps_count == 200
        assert c.seed == DEFAULT_SEED

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            ExperimentConfig(N=1)
        with pytest.raises(InvalidInputError):
            ExperimentConfig(sigma_list=(-0.5,))
        with pytest.raises(InvalidInputError):
            ExperimentConfig(n_list=(0.0,))
        with pytest.raises(InvalidInputError):
            ExperimentConfig(n_list=(20_000.0,))
        with pytest.raises(InvalidInputError):
            ExperimentConfig(eps_count=0)


class TestVariates:
    def test_polar_normal_moments(self):
        rng = np.random.default_rng(7)
        z = polar_normals(rng, 100_000)
        assert abs(float(z.mean())) < 0.02
        assert float(z.std()) == pytest.approx(1.0, abs=0.02)

    def test_polar_odd_count(self):
        rng = np.random.default_rng(7)
        assert polar_normals(rng, 7).size == 7

    def test_population_marginals(self):
        x, noise = generate_population(ExperimentConfig())
        # x = 1 + Exp(1): mean 2, all entries above 1.
        assert x.min() > 1.0
        assert float(x.mean()) == pytest.approx(2.0, abs=0.05)
        assert float(noise.mean()) == pytest.approx(0.0, abs=0.05)
        assert float(noise.std()) == pytest.approx(1.0, abs=0.05)

    def test_population_deterministic(self):
        a, na = generate_population(ExperimentConfig())
        b, nb = generate_population(ExperimentConfig())
        assert np.array_equal(a, b) and np.array_equal(na, nb)
        c, _ = generate_population(ExperimentConfig(seed=1))
        assert not np.array_equal(a, c)


@pytest.fixture(scope="module")
def tiny_rows():
    config = ExperimentConfig(
        N=500, sigma_list=(0.0, 1.0), n_list=(20.0, 50.0), eps_count=10,
        seed=3,
    )
    return config, run_experiment(config)


class TestRunExperiment:
    def test_row_count_and_order(self, tiny_rows):
        config, rows = tiny_rows
        assert len(rows) == 2 * 2 * 10
        # sigma is the outer loop, then n, then eps ascending.
        assert rows[0].sigma == 0.0 and rows[-1].sigma == 1.0
        first_cell = rows[:10]
        assert all(r.n == 20.0 for r in first_cell)
        assert all(
            a.eps < b.eps for a, b in zip(first_cell, first_cell[1:])
        )

    def test_eps_grid_spans_twice_the_mean(self, tiny_rows):
        config, rows = tiny_rows
        cell = [r for r in rows if r.sigma == 0.0 and r.n == 20.0]
        assert cell[-1].eps == pytest.approx(2.0 * cell[-1].pop_mean, rel=1e-12)

    def test_pop_mean_constant_within_sigma(self, tiny_rows):
        config, rows = tiny_rows
        for sigma in (0.0, 1.0):
            means = {r.pop_mean for r in rows if r.sigma == sigma}
            assert len(means) == 1

    def test_noise_free_mean_matches_x(self, tiny_rows):
        config, rows = tiny_rows
        x, _ = generate_population(config)
        mean0 = next(r.pop_mean for r in rows if r.sigma == 0.0)
        assert mean0 == pytest.approx(float(x.mean()), rel=1e-12)

    def test_noise_free_difference_is_positive(self, tiny_rows):
        config, rows = tiny_rows
        assert all(r.diff > 0 for r in rows if r.sigma == 0.0)

    def test_deterministic(self, tiny_rows):
        config, rows = tiny_rows
        assert run_experiment(config) == rows

    def test_default_scale_row_count(self):
        rows = run_experiment()
        assert len(rows) == 4 * 4 * 200
        assert isinstance(rows[0], ExperimentRow)


class TestCsv:
    def test_header_and_shape(self, tiny_rows):
        config, rows = tiny_rows
        lines = experiment_csv(rows).splitlines()
        assert lines[0] == "sigma,n,eps,diff,pop_mean"
        assert len(lines) == 1 + len(rows)

    def test_round_trips_through_float(self, tiny_rows):
        config, rows = tiny_rows
        line = experiment_csv(rows).splitlines()[1]
        parts = [float(tok) for tok in line.split(",")]
        assert parts[0] == rows[0].sigma
        assert parts[3] == rows[0].diff

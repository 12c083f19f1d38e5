"""Horvitz-Thompson estimator arithmetic."""

import numpy as np
import pytest

from splitsamp import (
    HTResult,
    InvalidInputError,
    Sample,
    StudyVector,
    ht_estimate,
)


def make_study(y, pi, n):
    del n
    y = np.asarray(y, dtype=float)
    pi = np.asarray(pi, dtype=float)
    return StudyVector(y_check=y / pi, _y=y, _pi=pi)


class TestHtEstimate:
    def test_small_example(self):
        # y = [2, 2, 3], pi = [1/3, 2/3, 1], sample {1, 2}:
        # t_hat = 2/(2/3) + 3/1 = 6, t_y = 7, error = -1.
        study = make_study([2.0, 2.0, 3.0], [1 / 3, 2 / 3, 1.0], 2)
        res = ht_estimate(Sample(selected=(1, 2), N=3), study, t_y=7.0)
        assert res.t_hat == pytest.approx(6.0, abs=1e-12)
        assert res.error == pytest.approx(-1.0, abs=1e-12)
        assert res.normalized_error == pytest.approx(-1 / 3, abs=1e-12)

    def test_census_is_exact(self):
        y = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        study = make_study(y, np.ones(5), 5)
        res = ht_estimate(Sample(selected=tuple(range(5)), N=5), study, y.sum())
        assert res.t_hat == pytest.approx(res.t_y, abs=1e-12)
        assert res.error == 0.0

    def test_empty_sample(self):
        study = make_study([2.0, 2.0, 3.0], [1 / 3, 2 / 3, 1.0], 2)
        res = ht_estimate(Sample(selected=(), N=3), study, t_y=7.0)
        assert res.t_hat == 0.0
        assert res.error == -7.0

    def test_sums_the_sample_in_population_order(self):
        rng = np.random.default_rng(24)
        y, pi = rng.lognormal(0.0, 1.5, 2000), rng.uniform(0.05, 1.0, 2000)
        study = make_study(y, pi, 200)
        units = sorted(rng.choice(2000, 200, replace=False).tolist())
        res = ht_estimate(Sample(selected=tuple(units), N=2000), study, t_y=1.0)
        assert res.t_hat == float(np.sum(study.y_check[units]))

    def test_size_mismatch(self):
        study = make_study([2.0, 2.0, 3.0], [1 / 3, 2 / 3, 1.0], 2)
        with pytest.raises(InvalidInputError, match="3"):
            ht_estimate(Sample(selected=(0,), N=4), study, t_y=7.0)

    def test_result_is_frozen(self):
        study = make_study([2.0, 2.0, 3.0], [1 / 3, 2 / 3, 1.0], 2)
        res = ht_estimate(Sample(selected=(2,), N=3), study, t_y=7.0)
        assert isinstance(res, HTResult)
        with pytest.raises(AttributeError):
            res.t_hat = 0.0

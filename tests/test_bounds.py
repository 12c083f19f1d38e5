"""Tail bound formulas: frozen reference values, orderings, degenerate
inputs, the regime classification and the two inverse solvers."""

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from splitsamp import (
    BoundInputs,
    InvalidInputError,
    NotApplicableError,
    TailBoundReport,
    VacuousToleranceWarning,
    bernstein_bound,
    cna_bound,
    cna_bound_Mc,
    dominance_grid,
    eps_star,
    evaluate_bounds,
    lipschitz_bound,
    dominance_regime,
    solve_confidence_radius,
    solve_sample_size,
)


def reference_inputs(**overrides):
    """N=100, n=20, eps=0.5, sup|v|=5, sum v^2=2500, sup y^2/pi=5."""
    kw = dict(
        N=100,
        n=20.0,
        eps=0.5,
        sup_ycheck=5.0,
        sum_sq_ycheck=2500.0,
        sup_y=1.0,
        sup_y2_over_pi=5.0,
    )
    kw.update(overrides)
    return BoundInputs(**kw)


class TestFrozenValues:
    """Reference evaluations at N=100, n=20, eps=0.5."""

    def test_cna(self):
        inputs = reference_inputs()
        # exp(-100^2 * 0.25 / (8 * 20 * 25)) = exp(-0.625)
        assert cna_bound(inputs) == pytest.approx(math.exp(-0.625), rel=1e-15)
        assert cna_bound(inputs) == pytest.approx(0.5352614285189903, rel=1e-12)

    def test_bernstein(self):
        inputs = reference_inputs()
        # 2 exp(-0.25 * 100 / (8 * 0.8 * 5 + (4/3) * 0.5 * 5))
        #   = 2 exp(-25 / (32 + 10/3))
        expected = 2.0 * math.exp(-25.0 / (32.0 + 10.0 / 3.0))
        assert bernstein_bound(inputs) == pytest.approx(expected, rel=1e-15)
        assert bernstein_bound(inputs) == pytest.approx(
            0.9857031947173965, rel=1e-12
        )

    def test_lipschitz(self):
        inputs = reference_inputs()
        # exp(-100^2 * 0.25 / (8 * 20 * 2500)) = exp(-0.00625)
        assert lipschitz_bound(inputs) == pytest.approx(
            math.exp(-0.00625), rel=1e-15
        )
        assert lipschitz_bound(inputs) == pytest.approx(
            0.9937694906233947, rel=1e-12
        )

    def test_two_sided_doubles(self):
        inputs = reference_inputs()
        rpt = evaluate_bounds(inputs, two_sided=True)
        assert rpt.cna == pytest.approx(2 * cna_bound(inputs), rel=1e-15)
        assert rpt.lipschitz == pytest.approx(
            2 * lipschitz_bound(inputs), rel=1e-15
        )


class TestDegenerateInputs:
    def test_eps_zero(self):
        inputs = reference_inputs(eps=0.0)
        assert cna_bound(inputs) == 1.0
        assert bernstein_bound(inputs) == 2.0
        assert lipschitz_bound(inputs) == 1.0

    def test_zero_study_vector(self):
        inputs = reference_inputs(
            sup_ycheck=0.0, sum_sq_ycheck=0.0, sup_y=0.0, sup_y2_over_pi=0.0
        )
        assert cna_bound(inputs) == 0.0
        assert bernstein_bound(inputs) == 0.0
        assert lipschitz_bound(inputs) == 0.0
        assert bernstein_bound(inputs, eps=0.0) == 2.0

    def test_census_kills_bernstein_variance_term(self):
        # n = N removes the variance term entirely.
        inputs = reference_inputs(n=100.0)
        expected = 2.0 * math.exp(-25.0 / ((4.0 / 3.0) * 0.5 * 5.0))
        assert bernstein_bound(inputs) == pytest.approx(expected, rel=1e-15)

    def test_eps_override(self):
        inputs = reference_inputs()
        assert cna_bound(inputs, eps=1.0) == pytest.approx(
            math.exp(-2.5), rel=1e-15
        )
        with pytest.raises(InvalidInputError):
            cna_bound(inputs, eps=-0.1)


class TestOverflowingTerms:
    """Inputs whose bound terms overflow a float: a finite, correct value
    or InvalidInputError, and every other input keeps its bits."""

    def test_bernstein_with_both_terms_overflowing_is_zero(self):
        # e^2 N and the denominator both overflow: inf / inf was NaN.
        inputs = reference_inputs(
            N=10, n=2.0, sup_ycheck=1.0, sum_sq_ycheck=1.0, sup_y2_over_pi=1e308
        )
        assert bernstein_bound(inputs, eps=1e200) == 0.0
        assert evaluate_bounds(inputs, eps=1e200).bernstein_raw == 0.0

    @pytest.mark.parametrize(
        "eps, sup_ycheck, sup_y2_over_pi",
        [(1e154, 1e154, 0.0), (1e154, 0.0, 1e307), (2e154, 1e154, 1e308)],
        ids=["numerator", "ratio-near-one", "both"],
    )
    def test_bernstein_exact_where_a_term_overflows(self, eps, sup_ycheck, sup_y2_over_pi):
        # The ratio e^2 N / denominator is moderate while e^2 N or the
        # denominator overflows; the float formula gave 0 or 2 here.
        inputs = reference_inputs(
            N=10, n=2.0, sup_ycheck=sup_ycheck, sum_sq_ycheck=1.7e308,
            sup_y2_over_pi=sup_y2_over_pi,
        )
        F = Fraction
        ratio = F(eps) ** 2 * 10 / (
            8 * (1 - F(2, 10)) * F(sup_y2_over_pi) + F(4, 3) * F(eps) * F(sup_ycheck)
        )
        assert 0.0 < bernstein_bound(inputs, eps=eps) < 2.0
        assert bernstein_bound(inputs, eps=eps) == pytest.approx(
            2.0 * math.exp(-float(ratio)), rel=1e-14
        )

    def test_bernstein_exact_where_the_denominator_underflows(self):
        # (4/3) eps sup|v| is 1.3e-340, below the least float: the
        # denominator was 0 and the bound 0, for a ratio of N / (4/3).
        inputs = reference_inputs(
            N=10, n=2.0, sup_ycheck=1e-170, sum_sq_ycheck=1e-300, sup_y2_over_pi=0.0
        )
        assert bernstein_bound(inputs, eps=1e-170) == pytest.approx(
            2.0 * math.exp(-7.5), rel=1e-14
        )
        # A denominator that is truly 0 still gives 0, or 2 at eps = 0.
        zero = reference_inputs(sup_ycheck=0.0, sum_sq_ycheck=0.0, sup_y2_over_pi=0.0)
        assert bernstein_bound(zero, eps=1e-170) == 0.0
        assert bernstein_bound(zero, eps=0.0) == 2.0

    def test_overflowing_eps_limit_is_refused(self):
        inputs = reference_inputs(
            N=10, n=9.0, sup_ycheck=1e150, sum_sq_ycheck=1e300, sup_y=1.7e308,
            sup_y2_over_pi=1.0, equal_probability=True,
        )
        with pytest.raises(InvalidInputError, match="eps limit .* is inf"):
            evaluate_bounds(inputs)
        with pytest.raises(InvalidInputError, match="eps limit"):
            dominance_regime(10, 9, sup_y=float("nan"))

    @pytest.mark.parametrize(
        "N", [10**400, float("inf"), float("nan")], ids=["10**400", "inf", "nan"]
    )
    def test_dominance_regime_needs_a_finite_N(self, N):
        # 10**400 ended in OverflowError converting N to a float.
        with pytest.raises(InvalidInputError, match="N a finite float"):
            dominance_regime(N, 2)

    def test_accepted_inputs_keep_their_bits(self):
        # Random accepted inputs give the bits of the float formulas.
        rng = np.random.default_rng(33)
        for _ in range(2000):
            N = int(rng.integers(1, 10**6))
            n = float(rng.uniform(0.0, 1.0) * N) or 1.0
            s1, s2, sup_y = 10.0 ** rng.uniform(-150, 150, size=3)
            e = float(10.0 ** rng.uniform(-100, 100))
            inputs = BoundInputs(
                N=N, n=n, eps=e, sup_ycheck=s1, sum_sq_ycheck=s1 * s1 * 2.0,
                sup_y=sup_y, sup_y2_over_pi=s2,
            )
            denom = 8.0 * (1.0 - n / N) * s2 + (4.0 / 3.0) * e * s1
            assert bernstein_bound(inputs) == 2.0 * math.exp(-e * e * N / denom)
            regime = dominance_regime(N, n, sup_y=sup_y)
            if regime.kind == "LargeN_EpsRange":
                assert regime.eps_limit == (3.0 - math.sqrt(2.0)) * (n / N) * sup_y


class TestValidation:
    def test_inconsistent_sup_and_sum(self):
        with pytest.raises(InvalidInputError, match="inconsistent"):
            reference_inputs(sup_ycheck=51.0, sum_sq_ycheck=2500.0)

    def test_n_range(self):
        with pytest.raises(InvalidInputError):
            reference_inputs(n=0.0)
        with pytest.raises(InvalidInputError):
            reference_inputs(n=101.0)

    def test_negative_stat(self):
        with pytest.raises(InvalidInputError):
            reference_inputs(sup_y=-1.0)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(eps=math.nan),
            dict(eps=math.inf),
            dict(M=math.nan, c=1.0),
            dict(M=1.0, c=math.inf),
            dict(sup_y=10**400),
        ],
    )
    def test_non_finite_input(self, overrides):
        with pytest.raises(InvalidInputError, match="finite"):
            reference_inputs(**overrides)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(sup_ycheck=1e200, sum_sq_ycheck=1e300),
            dict(M=1e200, c=1.0),
            dict(M=1.0, c=1e200),
            dict(N=10**200, n=2.0),
        ],
    )
    def test_square_overflow(self, overrides):
        with pytest.raises(InvalidInputError, match="too large"):
            reference_inputs(**overrides)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, 10**400])
    def test_non_finite_eps_argument(self, eps):
        for bound in (cna_bound, bernstein_bound, lipschitz_bound):
            with pytest.raises(InvalidInputError, match="eps must be finite"):
                bound(reference_inputs(), eps=eps)

    def test_fractional_n_accepted(self):
        # Average sample sizes are allowed; the bound loosens as n grows.
        assert cna_bound(reference_inputs(n=20.5)) > cna_bound(
            reference_inputs(n=20.0)
        )


finite_vals = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


class TestOrdering:
    @given(
        vals=st.lists(finite_vals, min_size=1, max_size=12),
        eps=st.floats(min_value=0.001, max_value=10.0),
        n=st.integers(min_value=1, max_value=12),
    )
    def test_cna_never_exceeds_lipschitz(self, vals, eps, n):
        v = np.asarray(vals)
        N = v.size
        n = min(n, N)
        sup = float(np.max(np.abs(v)))
        ssq = float(np.sum(v * v))
        inputs = BoundInputs(
            N=N, n=float(n), eps=eps, sup_ycheck=sup, sum_sq_ycheck=ssq,
            sup_y=sup, sup_y2_over_pi=sup * sup,
        )
        assert cna_bound(inputs) <= lipschitz_bound(inputs) * (1 + 1e-12)

    def test_equality_iff_single_nonzero(self):
        one = BoundInputs(
            N=4, n=2.0, eps=0.3, sup_ycheck=3.0, sum_sq_ycheck=9.0,
            sup_y=3.0, sup_y2_over_pi=9.0,
        )
        assert cna_bound(one) == lipschitz_bound(one)
        two = BoundInputs(
            N=4, n=2.0, eps=0.3, sup_ycheck=3.0, sum_sq_ycheck=10.0,
            sup_y=3.0, sup_y2_over_pi=9.0,
        )
        assert cna_bound(two) < lipschitz_bound(two)

    @given(eps=st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=2,
                        max_size=8))
    def test_monotone_in_eps(self, eps):
        inputs = reference_inputs()
        for fn in (cna_bound, bernstein_bound, lipschitz_bound):
            vals = [fn(inputs, e) for e in sorted(eps)]
            assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:])), fn


class TestEpsStar:
    def test_frozen_value(self):
        inputs = reference_inputs(equal_probability=True)
        # 2 * (1 - 20/100) * 1 = 1.6
        assert eps_star(inputs) == pytest.approx(1.6, rel=1e-15)

    def test_requires_equal_probability(self):
        with pytest.raises(NotApplicableError, match="equal-probability"):
            eps_star(reference_inputs())


class TestDominanceRegime:
    def test_small_sample_threshold_at_ten_thousand(self):
        # Cutoff sits at (8 log 2 / 9)^(1/3) * 10^(8/3) ~ 394.97.
        assert dominance_regime(10_000, 394).kind == "SmallN_AllEps"
        assert dominance_regime(10_000, 395).kind == "LargeN_EpsRange"

    def test_tiny_n_whose_ratio_squared_overflows(self):
        # (10 / 1e-300)^2 overflows a float.
        with pytest.raises(InvalidInputError, match="N / n is too large"):
            dominance_regime(10, 1e-300)

    def test_census_is_large(self):
        r = dominance_regime(100, 100, sup_y=2.0)
        assert r.kind == "LargeN_EpsRange"
        assert r.eps_limit == pytest.approx(
            (3.0 - math.sqrt(2.0)) * 2.0, rel=1e-15
        )

    def test_eps_limit_needs_sup_y(self):
        assert dominance_regime(100, 100).eps_limit is None

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            dominance_regime(10, 11)

    @given(N=st.integers(min_value=1, max_value=10**6),
           frac=st.floats(min_value=1e-6, max_value=1.0))
    def test_never_inconclusive(self, N, frac):
        # The two sufficient conditions tile (0, N]: n < a N^(2/3) or
        # n^3 >= a^3 ... actually n >= coef (N/n)^2 <=> n^3 >= coef N^2,
        # and the small cutoff is exactly the cube root of that.
        n = max(1.0, frac * N)
        assert dominance_regime(N, n).kind != "Inconclusive"


class TestSolvers:
    def test_sample_size_one_sided(self):
        assert solve_sample_size(M=1.0, c=1.0, eps=0.1, eta=0.05) == 2397

    def test_sample_size_two_sided(self):
        assert (
            solve_sample_size(M=1.0, c=1.0, eps=0.1, eta=0.05, two_sided=True)
            == 2952
        )

    def test_sample_size_closure(self):
        n = solve_sample_size(M=1.0, c=1.0, eps=0.1, eta=0.05)
        at = BoundInputs(
            N=10**9, n=float(n), eps=0.1, sup_ycheck=1.0,
            sum_sq_ycheck=float(10**9), sup_y=1.0, sup_y2_over_pi=1.0,
            M=1.0, c=1.0,
        )
        assert cna_bound_Mc(at) <= 0.05
        below = BoundInputs(
            N=10**9, n=float(n - 1), eps=0.1, sup_ycheck=1.0,
            sum_sq_ycheck=float(10**9), sup_y=1.0, sup_y2_over_pi=1.0,
            M=1.0, c=1.0,
        )
        assert cna_bound_Mc(below) > 0.05

    def test_sample_size_vacuous_eta(self):
        with pytest.warns(VacuousToleranceWarning):
            assert solve_sample_size(M=1.0, c=1.0, eps=0.1, eta=1.0) == 0

    def test_sample_size_validation(self):
        with pytest.raises(InvalidInputError):
            solve_sample_size(M=0.0, c=1.0, eps=0.1, eta=0.05)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(M=math.nan, c=1.0, eps=0.1, eta=0.05),
            dict(M=1.0, c=1.0, eps=math.inf, eta=0.05),
            dict(M=1.0, c=1.0, eps=0.1, eta=math.nan),
        ],
    )
    def test_sample_size_non_finite(self, kw):
        with pytest.raises(InvalidInputError, match="finite and positive"):
            solve_sample_size(**kw)

    @pytest.mark.parametrize(
        "kw",
        [dict(M=1e200, c=1.0), dict(M=1.0, c=1e-200), dict(M=1e200, c=1e200)],
    )
    def test_sample_size_overflow(self, kw):
        with pytest.raises(InvalidInputError, match="sample size overflows"):
            solve_sample_size(eps=0.1, eta=0.05, **kw)

    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_confidence_radius_non_finite_eta(self, eta):
        with pytest.raises(InvalidInputError, match="eta must be finite"):
            solve_confidence_radius(reference_inputs(), eta=eta)

    def test_confidence_radius_overflow(self):
        # 1 / 5e-324 overflows to inf, and so does its log.
        with pytest.raises(InvalidInputError, match="confidence radius overflows"):
            solve_confidence_radius(reference_inputs(), eta=5e-324)

    def test_confidence_radius_frozen(self):
        inputs = reference_inputs()
        r = solve_confidence_radius(inputs, eta=0.05)
        assert r == pytest.approx(1.0946656610223946, rel=1e-12)

    def test_confidence_radius_round_trip(self):
        inputs = reference_inputs()
        r = solve_confidence_radius(inputs, eta=0.05)
        assert cna_bound(inputs, eps=r) == pytest.approx(0.05, rel=1e-10)

    def test_confidence_radius_two_sided(self):
        inputs = reference_inputs()
        r2 = solve_confidence_radius(inputs, eta=0.05, two_sided=True)
        assert 2 * cna_bound(inputs, eps=r2) == pytest.approx(0.05, rel=1e-10)

    def test_confidence_radius_vacuous_eta(self):
        assert solve_confidence_radius(reference_inputs(), eta=1.5) == 0.0


class TestMcForm:
    def test_requires_M_and_c(self):
        with pytest.raises(NotApplicableError, match="M and c"):
            cna_bound_Mc(reference_inputs())

    def test_matches_plain_form_on_constant_y(self):
        # Equal probability pi = n/N with constant y = M and c = 1 makes
        # the two concentration forms identical: v_k = M N / n.
        N, n, M = 50, 10, 3.0
        sup_v = M * N / n
        inputs = BoundInputs(
            N=N, n=float(n), eps=0.7, sup_ycheck=sup_v,
            sum_sq_ycheck=N * sup_v**2, sup_y=M,
            sup_y2_over_pi=M * M * N / n, M=M, c=1.0,
            equal_probability=True,
        )
        assert cna_bound_Mc(inputs) == pytest.approx(
            cna_bound(inputs), rel=1e-12
        )

    def test_degenerate_M(self):
        inputs = reference_inputs(M=0.0, c=1.0)
        assert cna_bound_Mc(inputs) == 0.0
        assert cna_bound_Mc(inputs, eps=0.0) == 1.0


class TestEvaluateBounds:
    def test_clamping_two_sided_bernstein(self):
        # Tiny eps: raw two-sided Bernstein is ~4, the report caps at 2.
        rpt = evaluate_bounds(reference_inputs(), two_sided=True, eps=1e-6)
        assert rpt.bernstein_raw > 2.0
        assert rpt.bernstein == 2.0

    def test_json_round_trip(self):
        rpt = evaluate_bounds(reference_inputs(M=2.0, c=0.5))
        data = json.loads(rpt.to_json())
        assert data["cna"] == pytest.approx(0.5352614285189903, rel=1e-12)
        assert data["cna_mc"] is not None
        assert data["eps_star"] is None
        # n = 20 at N = 100 sits past the small-sample cutoff ~18.3.
        assert data["dominance_regime"] == "LargeN_EpsRange"
        assert data["dominance_eps_limit"] == pytest.approx(
            (3.0 - math.sqrt(2.0)) * 0.2, rel=1e-12
        )
        assert isinstance(rpt, TailBoundReport)

    def test_eps_star_included_when_equal_probability(self):
        rpt = evaluate_bounds(reference_inputs(equal_probability=True))
        assert rpt.eps_star == pytest.approx(1.6, rel=1e-15)


class TestDominanceGrid:
    def test_shape_and_range(self):
        g = dominance_grid(1.6)
        assert g.size == 512
        assert g[-1] == pytest.approx(1.6, rel=1e-12)
        assert g[0] > 0
        assert np.all(np.diff(g) > 0)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            dominance_grid(0.0)

"""Capped size-proportional probabilities and population file loading.

The independent reference for compute_pips is a bisection on the scale
factor lam in pi_k = min(1, lam * x_k): the sum is continuous and
nondecreasing in lam, so the unique lam with sum = n can be found
without any of the redistribution logic used by the implementation.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsamp import (
    InclusionProbabilities,
    InvalidInputError,
    InvalidSizeError,
    Population,
    PopulationFileError,
    StudyVector,
    compute_pips,
    load_population,
    study_vector,
)
from splitsamp.population import SUM_TOL

from conftest import NEAR_ONE_CAP_FRAMES


def pips_by_bisection(x, n, iters=200):
    x = np.asarray(x, dtype=float)
    lo, hi = 0.0, n / float(x.min())
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.minimum(1.0, mid * x).sum() < n:
            lo = mid
        else:
            hi = mid
    return np.minimum(1.0, hi * x)


positive_sizes = st.lists(
    st.floats(min_value=0.01, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=30,
)


class TestComputePips:
    def test_proportional_when_nothing_caps(self):
        pi = compute_pips(np.arange(1.0, 7.0), 3)
        assert np.allclose(pi.pi, np.arange(1, 7) / 7.0, atol=1e-12)

    def test_single_unit_caps(self):
        pi = compute_pips(np.array([1.0, 1.0, 1.0, 10.0]), 2)
        assert np.allclose(pi.pi, [1 / 3, 1 / 3, 1 / 3, 1.0], atol=1e-12)
        assert pi.certain.tolist() == [False, False, False, True]

    def test_cascade_capping_takes_two_passes(self):
        # After fixing the big unit, the second-largest reaches 1 too.
        pi = compute_pips(np.array([1.0, 1.0, 1.0, 6.0, 3.0]), 3)
        assert np.allclose(pi.pi, [1 / 3, 1 / 3, 1 / 3, 1.0, 1.0], atol=1e-12)

    def test_census(self):
        pi = compute_pips(np.array([3.0, 1.0, 2.0]), 3)
        assert np.all(pi.pi == 1.0)

    @pytest.mark.parametrize(
        "x, n", NEAR_ONE_CAP_FRAMES, ids=["two-tiny", "one-tiny", "rounds-to-1"]
    )
    def test_near_one_share_stays_exact_where_a_cap_would_zero_the_rest(self, x, n):
        # The last pass leaves one slot to a unit whose share is within
        # CERTAINTY_TOL of 1 (or rounds to 1) and to tiny units: capping
        # it would give them 0.  Every unit keeps its exact share there,
        # and the snap to 1 happens only in InclusionProbabilities.
        pi = compute_pips(x, n)
        assert np.all(pi.pi > 0.0) and abs(float(pi.pi.sum()) - n) <= SUM_TOL
        assert np.count_nonzero(pi.certain) == n
        # The last pass shares one slot among the tiny units and the
        # smallest of the others.
        tiny = x < 1e-10
        last = tiny | (x == x[~tiny].min())
        share = x / float(x[last].sum())
        assert np.allclose(pi.pi[tiny], share[tiny], rtol=1e-12, atol=0.0)

    def test_scale_invariance(self):
        x = np.array([2.0, 5.0, 11.0, 0.5])
        a = compute_pips(x, 2).pi
        b = compute_pips(1234.5 * x, 2).pi
        assert np.allclose(a, b, atol=1e-12)

    def test_invalid_sizes(self):
        with pytest.raises(InvalidSizeError, match="invalid size"):
            compute_pips(np.array([1.0, 2.0]), 3)
        with pytest.raises(InvalidSizeError, match="invalid size"):
            compute_pips(np.array([1.0, 2.0]), 0)
        with pytest.raises(InvalidInputError):
            compute_pips(np.array([1.0, -2.0]), 1)
        with pytest.raises(InvalidInputError):
            compute_pips(np.array([1.0, 2.0]), 1.5)

    def test_share_that_underflows_names_the_sizes(self):
        # Unit 1's exact share is 1e-600, which rounds to 0.0: the sizes
        # are at fault, not a pi the caller never gave.  So are sizes
        # whose total overflows, with no numpy warning on the way.
        for x, n, unit in (
            ([1e300, 1e-300], 1, "unit 1 with x=1e-300"),
            ([1e308, 1e308, 1.0], 2, "unit 0 with x=1e+308"),
        ):
            with pytest.raises(InvalidInputError, match="size values") as err:
                compute_pips(np.array(x), n)
            assert unit in str(err.value)
            assert "inclusion probabilities" not in str(err.value)

    @given(positive_sizes, st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_bisection_oracle(self, xs, data):
        n = data.draw(st.integers(min_value=1, max_value=len(xs)))
        pi = compute_pips(np.array(xs), n)
        ref = pips_by_bisection(xs, n)
        assert abs(float(pi.pi.sum()) - n) <= 1e-9
        assert np.max(np.abs(pi.pi - ref)) <= 1e-6

    @given(positive_sizes, st.data())
    @settings(max_examples=100, deadline=None)
    def test_order_preserving_and_in_range(self, xs, data):
        n = data.draw(st.integers(min_value=1, max_value=len(xs)))
        pi = compute_pips(np.array(xs), n).pi
        assert np.all(pi > 0.0) and np.all(pi <= 1.0)
        order = np.argsort(xs)
        assert np.all(np.diff(pi[order]) >= -1e-12)


class TestInclusionProbabilities:
    def test_sum_mismatch_rejected(self):
        with pytest.raises(InvalidInputError, match="sum"):
            InclusionProbabilities(pi=np.array([0.5, 0.4]), n=1)

    def test_entry_above_one_rejected(self):
        with pytest.raises(InvalidInputError, match="above 1"):
            InclusionProbabilities(pi=np.array([1.2, 0.8]), n=2)

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidInputError):
            InclusionProbabilities(pi=np.array([0.0, 1.0]), n=1)

    def test_near_one_snaps_to_certain(self):
        pi = InclusionProbabilities(pi=np.array([1.0 - 1e-13, 1e-13]), n=1)
        assert pi.pi[0] == 1.0
        assert pi.certain.tolist() == [True, False]

    def test_invalid_size_message(self):
        with pytest.raises(InvalidSizeError, match="invalid size"):
            InclusionProbabilities(pi=np.array([0.5, 0.5]), n=3)

    def test_pi_is_frozen(self):
        # Kept plans are keyed on pi's bytes, so pi cannot be swapped for
        # another under them.
        a = InclusionProbabilities(pi=np.array([0.5, 0.5, 1.0]), n=2)
        c = InclusionProbabilities(pi=[0.25, 0.75, 1.0], n=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.pi = a.pi

    def test_equal_probability_detection(self):
        eq = InclusionProbabilities(pi=np.full(5, 0.4), n=2)
        assert eq.is_equal_probability()
        uneq = compute_pips(np.arange(1.0, 6.0), 2)
        assert not uneq.is_equal_probability()


class TestPopulation:
    def test_rejects_nonpositive_x(self):
        with pytest.raises(InvalidInputError, match="positive"):
            Population(ids=("a", "b"), x=np.array([1.0, 0.0]), y=np.zeros(2))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(InvalidInputError, match="duplicate"):
            Population(ids=("a", "a"), x=np.ones(2), y=np.zeros(2))

    def test_arrays_read_only(self):
        pop = Population(ids=("a", "b"), x=np.ones(2), y=np.zeros(2))
        with pytest.raises(ValueError):
            pop.x[0] = 2.0


class TestStudyVector:
    def test_statistics(self):
        pop = Population(
            ids=("a", "b", "c"), x=np.array([1.0, 2.0, 3.0]), y=np.array([1.0, -2.0, 3.0])
        )
        pi = InclusionProbabilities(pi=np.array([0.25, 0.5, 0.25]), n=1)
        sv = study_vector(pop, pi)
        assert np.allclose(sv.y_check, [4.0, -4.0, 12.0])
        assert sv.sup_abs == 12.0
        assert sv.sum_sq == pytest.approx(16 + 16 + 144)
        assert sv.sup_y_abs == 3.0
        assert sv.sup_y2_over_pi == pytest.approx(9.0 / 0.25)

    def test_without_raw_values_falls_back(self):
        sv = StudyVector(y_check=np.array([1.0, -3.0]))
        assert sv.sup_y_abs == 3.0
        assert sv.sup_y2_over_pi == 9.0

    def test_length_mismatch(self):
        pop = Population(ids=("a",), x=np.ones(1), y=np.ones(1))
        pi = InclusionProbabilities(pi=np.array([0.5, 0.5]), n=1)
        with pytest.raises(InvalidInputError):
            study_vector(pop, pi)


class TestLoadPopulation:
    def write(self, tmp_path, text):
        p = tmp_path / "pop.csv"
        p.write_text(text, encoding="utf-8")
        return str(p)

    def test_x_schema(self, tmp_path):
        path = self.write(tmp_path, "id,x,y\nu1,1.0,10\nu2,2.0,20\nu3,3.0,30\n")
        pop, pi = load_population(path)
        assert pi is None
        assert pop.ids == ("u1", "u2", "u3")
        assert np.allclose(pop.x, [1, 2, 3])
        assert np.allclose(pop.y, [10, 20, 30])

    def test_pi_schema_recovers_n(self, tmp_path):
        path = self.write(tmp_path, "id,pi,y\na,0.25,1\nb,0.5,2\nc,0.25,3\nd,1.0,4\n")
        pop, pi = load_population(path)
        assert pi is not None and pi.n == 2
        assert np.allclose(pi.pi, [0.25, 0.5, 0.25, 1.0])

    def test_pi_doubles_as_size(self, tmp_path):
        # Capped shares are scale free, so reusing pi as the size
        # variable reproduces pi exactly.
        path = self.write(tmp_path, "id,pi,y\na,0.25,1\nb,0.5,2\nc,0.25,3\nd,1.0,4\n")
        pop, pi = load_population(path)
        again = compute_pips(pop.x, pi.n)
        assert np.max(np.abs(again.pi - pi.pi)) <= 1e-12

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # Some editors start a UTF-8 file with U+FEFF; read as text, it
        # would make the header '\ufeffid,x,y'.
        for text in ("id,x,y\nu1,1.0,10\nu2,2.0,20\n", "id,pi,y\na,0.5,1\nb,0.5,2\n"):
            p = tmp_path / "bom.csv"
            p.write_text(text, encoding="utf-8-sig")
            assert p.read_bytes().startswith(b"\xef\xbb\xbf")
            pop, pi = load_population(str(p))
            assert pop.ids == (("u1", "u2") if pi is None else ("a", "b"))

    def test_bad_header(self, tmp_path):
        path = self.write(tmp_path, "unit,x,y\na,1,2\n")
        with pytest.raises(PopulationFileError, match="line 1"):
            load_population(path)

    def test_bad_field_count_reports_line(self, tmp_path):
        path = self.write(tmp_path, "id,x,y\na,1,2\nb,3\n")
        with pytest.raises(PopulationFileError, match="line 3"):
            load_population(path)

    def test_bad_number_reports_line(self, tmp_path):
        path = self.write(tmp_path, "id,x,y\na,1,2\nb,oops,4\n")
        with pytest.raises(PopulationFileError, match="line 3"):
            load_population(path)

    @pytest.mark.parametrize("schema", ["x", "pi"])
    @pytest.mark.parametrize(
        "row", ["b,nan,4", "b,inf,4", "b,1,-inf", "b,1,NaN", "b,-Infinity,1"]
    )
    def test_non_finite_value_reports_line(self, tmp_path, schema, row):
        # After a blank line, so the number is the file's line, not the
        # row's index.
        path = self.write(tmp_path, f"id,{schema},y\na,0.5,2\n\n{row}\nc,0.5,1\n")
        with pytest.raises(PopulationFileError, match="^line 4: non-finite value$"):
            load_population(path)

    def test_duplicate_id_reports_line(self, tmp_path):
        path = self.write(tmp_path, "id,x,y\na,1,2\na,3,4\n")
        with pytest.raises(PopulationFileError, match="line 3.*duplicate"):
            load_population(path)

    def test_nonpositive_x_rejected(self, tmp_path):
        path = self.write(tmp_path, "id,x,y\na,0.0,2\n")
        with pytest.raises(PopulationFileError, match="positive"):
            load_population(path)

    def test_pi_out_of_range_rejected(self, tmp_path):
        path = self.write(tmp_path, "id,pi,y\na,1.5,2\n")
        with pytest.raises(PopulationFileError):
            load_population(path)

    def test_pi_sum_not_integer(self, tmp_path):
        path = self.write(tmp_path, "id,pi,y\na,0.3,1\nb,0.4,2\n")
        with pytest.raises(PopulationFileError, match="integer"):
            load_population(path)

    def test_missing_file(self):
        with pytest.raises(PopulationFileError, match="cannot read"):
            load_population("/nonexistent/pop.csv")

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(PopulationFileError, match="empty"):
            load_population(path)

    def test_header_only(self, tmp_path):
        path = self.write(tmp_path, "id,x,y\n")
        with pytest.raises(PopulationFileError, match="no rows"):
            load_population(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = self.write(tmp_path, "id,x,y\na,1,2\n\nb,3,4\n")
        pop, _ = load_population(path)
        assert pop.N == 2

"""Tests of the benchmark itself: each check rejects a corrupted output
and accepts a correct one, the tracer's self times add up, and the
metric names agree with BENCHMARK.json."""

import json
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import splitsamp as ss
from splitsamp import DesignKind

import checks
import run
from checks import CheckError
from tracing import Tracer
from workloads import DESIGNS, WORKLOADS, ExactChecks, Verdict

X = np.arange(1.0, 7.0)


def test_pips_accepts_capped_shares_and_rejects_corruptions():
    x = np.array([1.0, 2.0, 3.0, 40.0, 5.0, 6.0])
    pi = ss.compute_pips(x, 3).pi
    checks.pips(pi, x, 3)
    bad_sum = pi.copy()
    bad_sum[0] += 0.01
    not_prop = pi.copy()
    not_prop[[0, 1]] = not_prop[[1, 0]]
    over = pi.copy()
    over[3], over[4] = 1.1, over[4] - 0.1
    for bad in (bad_sum, not_prop, over):
        with pytest.raises(CheckError):
            checks.pips(bad, x, 3)
    # Unit 0 made certain although its size gives it a share of 0.1.
    small_certain = np.r_[1.0, 2.0 * X[1:] / X[1:].sum()]
    with pytest.raises(CheckError):
        checks.pips(small_certain, X, 3)


def test_sample_rows_rejects_repeats_range_size_and_missing_certainty():
    good = np.array([[0, 2, 5], [1, 2, 3]])
    checks.sample_rows(good, 6, 3, np.array([2]))
    for rows, certain in (
        (np.array([[0, 2, 2]]), []),
        (np.array([[0, 2, 6]]), []),
        (np.array([[-1, 2, 4]]), []),
        (np.array([[0, 2]]), []),
        (np.array([[0, 1, 3]]), [2]),
    ):
        with pytest.raises(CheckError):
            checks.sample_rows(rows, 6, 3, np.array(certain, dtype=int))


def test_ht_total_rejects_a_wrong_estimate():
    pi = ss.compute_pips(X, 3)
    y = np.sqrt(X)
    draw, _ = ss.make_sampler(DesignKind.CHAO, pi=pi, x=X)
    s = draw(4)
    est = ss.ht_estimate(s, ss.StudyVector(y_check=y / pi.pi), float(y.sum()))
    checks.ht_total(est.t_hat, s.selected, y, pi.pi)
    with pytest.raises(CheckError):
        checks.ht_total(est.t_hat * (1 + 1e-9), s.selected, y, pi.pi)


def test_certified_rejects_a_failed_grid_point():
    row = ss.CertRow(eps=0.1, freq=0.2, wilson=0.25, bound=0.3, passed=True)
    checks.certified([row])
    with pytest.raises(CheckError):
        checks.certified([row, replace(row, passed=False)])


def test_unbiased_mean_rejects_srswor_run_on_unequal_pi():
    # make_sampler(SRSWOR, pi=unequal) samples uniformly, so the HT mean
    # is biased; the benchmark gives SRSWOR its equal pi for this reason.
    args = dict(eps_grid=[0.1], replicates=2000, master_seed=3)
    pi = ss.compute_pips(X, 3)
    unequal = ss.estimate_tail(DesignKind.SRSWOR, y=np.ones(6), pi=pi, **args)
    with pytest.raises(CheckError):
        checks.unbiased_mean(unequal.errors)
    equal = ss.estimate_tail(DesignKind.SRSWOR, y=X, N=6, n=3, **args)
    checks.unbiased_mean(equal.errors)


def test_support_rejects_off_size_elements_and_lost_mass():
    dist = ss.enumerate_design(DesignKind.TILLE_ELIMINATION, x=X, n=3)
    checks.support(dist, 3)
    with pytest.raises(CheckError):
        checks.support(dist, 2)
    lost = SimpleNamespace(support=dict(list(dist.support.items())[1:]), pruned_mass=0.0)
    with pytest.raises(CheckError):
        checks.support(lost, 3)


def test_first_order_rejects_a_distribution_whose_pi_is_off():
    pi = ss.compute_pips(X, 3)
    dist = ss.enumerate_design(DesignKind.CHAO, x=X, pi=pi)
    pi1, _ = ss.first_second_order(dist)
    checks.first_order(pi1, pi.pi)
    # Chao run on sizes that give another pi: its inclusions miss pi.
    other = ss.enumerate_design(DesignKind.CHAO, x=X**2, n=3)
    with pytest.raises(CheckError):
        checks.first_order(ss.first_second_order(other)[0], pi.pi)


def test_increments_reject_a_corrupted_step():
    pi = ss.compute_pips(X, 3)
    _, tr = ss.sample_brewer(pi, 5, trace="realized")
    checks.increments(tr)
    steps = list(tr.steps)
    steps[0] = replace(steps[0], realized_delta=steps[0].realized_delta * 1.001)
    with pytest.raises(CheckError):
        checks.increments(replace(tr, steps=tuple(steps)))


def test_scalar_checks():
    checks.close(1.0, 1.0 + 1e-13, 1e-12, "x")
    checks.same_sample((1, 2), [1, 2], "x")
    checks.at_most(1e-13, 1e-12, "x")
    for bad in (
        lambda: checks.close(1.0, 1.1, 1e-12, "x"),
        lambda: checks.close(math.nan, 1.0, 1e-12, "x"),
        lambda: checks.same_sample((1, 2), (1, 3), "x"),
        lambda: checks.at_most(1e-11, 1e-12, "x"),
        lambda: checks.at_most(math.nan, 1e-12, "x"),
    ):
        with pytest.raises(CheckError):
            bad()


def test_self_time_is_duration_minus_children():
    tracer = Tracer(True)
    tracer.call("a.outer", lambda: tracer.call("b.inner", lambda: None))
    tracer.spans[0][1:3] = [0.0, 3.0]
    tracer.spans[1][1:3] = [1.0, 2.0]
    calls = tracer.per_call()
    assert calls["a.outer"] == (3.0, 2.0, 1)
    assert calls["b.inner"] == (1.0, 1.0, 1)
    assert tracer.spans[1][3] == 0


def test_untraced_tracer_records_nothing():
    tracer = Tracer(False)
    assert tracer.call("a.f", lambda v: v + 1, 1) == 2
    tracer.count("a.n", 3)
    assert tracer.spans == [] and tracer.count_means() == {}


def test_exact_checks_round_passes_its_checks(tmp_path):
    wl = ExactChecks(seed=7, out=tmp_path)
    verdict = Verdict()
    with wl.hooks(Tracer(False), verdict):
        rnd = wl.round(wl.setup(Tracer(False), verdict), Tracer(False), 0, verdict)
    assert verdict.errors == []
    per_round = len(wl.shapes) * len(DESIGNS) + wl.traced + len(wl.near_certain_seeds)
    assert rnd.attempted == per_round
    assert set(rnd.work) == {name for name, _ in run.END_TO_END} - {"setup_s", "peak_mb"}


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _, _ in run.PER_LAYER
    ]
    assert [k.value for k in DESIGNS] == list(run.DESIGN_NAMES)

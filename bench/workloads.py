"""The benchmark's three workloads.

Each workload makes its inputs from the run's seed, writes them as
population files and, in ``setup``, loads them and builds every design's
sampler the way the ``splitsamp`` CLI does.  ``round`` then runs one
fixed batch of operations, checks every output and returns the work it
timed.  A run repeats whole rounds, so the share of failed operations is
the same whatever the seed and the run length.

Calls into splitsamp go through ``Tracer.call`` with a span name
``<module>.<function>[.<design>]``; checks call the program directly,
so they are never traced.
"""

from __future__ import annotations

import contextlib
import math
import tracemalloc
from pathlib import Path
from statistics import NormalDist
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import splitsamp as ss
from splitsamp import DesignKind
from splitsamp import designs as ss_designs
from splitsamp import montecarlo as ss_montecarlo

import checks
from checks import CheckError
from tracing import Tracer, patched

DESIGNS = tuple(DesignKind)
CNA_DESIGNS = (
    DesignKind.SRSWOR,
    DesignKind.CHAO,
    DesignKind.TILLE_ELIMINATION,
    DesignKind.GENERALIZED_MIDZUNO,
)


class Verdict:
    """Collects failed checks; ``verdict(check, ...)`` runs one."""

    def __init__(self) -> None:
        self.errors: list[str] = []
        self.notes: dict[str, float] = {}

    def __call__(self, check, *args) -> None:
        try:
            check(*args)
        except CheckError as exc:
            self.errors.append(str(exc))


# The calibration loop's median time on the reference machine (2-vCPU
# VM, Python 3.11.7, numpy 2.4.6); see README, "Timing on a shared host".
NOMINAL_CALIBRATION_S = 0.016
_CAL_ARRAY = np.arange(256.0)
_CAL_BLOCK = np.random.default_rng(0).random((128, 256))
_CAL_INDEX = np.random.default_rng(1).integers(0, 256, size=(128, 64))


def calibration_loop() -> float:
    """Seconds taken by a fixed mix of Python arithmetic, small numpy
    calls and row-wise gathers and reductions over a 256 KB block: the
    kinds of work the samplers and the oracle do."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(1200):
        acc += float(np.add.accumulate(_CAL_ARRAY[i % 64 :])[-1]) + (i * i) % 13
        acc += len({j: j * 1.5 for j in range(8)})
        if i % 20 == 0:
            rows = np.take_along_axis(_CAL_BLOCK, _CAL_INDEX, axis=1)
            acc += float(np.add.accumulate(rows, axis=1)[:, -1].sum())
            acc += float(np.sort(_CAL_BLOCK[i % 128 :], axis=1)[0, 0])
    return perf_counter() - t0


class Clock:
    """Times blocks of work and rescales them to the host speed at which
    the calibration loop takes ``NOMINAL_CALIBRATION_S``.

    The loop runs before and after each block (the run after one block
    serves as the run before the next), and the block's seconds are
    divided by the mean of the two, so a host that runs slower or faster
    for a few seconds moves both alike.
    """

    def __init__(self) -> None:
        self.calibrations: list[float] = []

    def calibrate(self) -> float:
        self.calibrations.append(calibration_loop())
        return self.calibrations[-1]

    @contextlib.contextmanager
    def block(self):
        before = self.calibrations[-1] if self.calibrations else self.calibrate()
        rec = SimpleNamespace(seconds=0.0)
        t0 = perf_counter()
        yield rec
        elapsed = perf_counter() - t0
        after = self.calibrate()
        rec.seconds = elapsed * NOMINAL_CALIBRATION_S / ((before + after) / 2)


class Round:
    """Timed work of one round: metric -> [units of work, seconds]."""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self.work: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0

    @contextlib.contextmanager
    def timed(self, metric: str, units: float = 0):
        """Time the block as ``units`` of work; the block may set
        ``units`` on the record it gets."""
        rec = SimpleNamespace(units=units)
        with self.clock.block() as block:
            yield rec
        entry = self.work.setdefault(metric, [0.0, 0.0])
        entry[0] += rec.units
        entry[1] += block.seconds


def write_population(path: Path, x: np.ndarray, y: np.ndarray) -> None:
    lines = ["id,x,y"] + [f"u{k},{float(a)!r},{float(b)!r}" for k, (a, b) in enumerate(zip(x, y))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def equal_pi(N: int, n: int) -> ss.InclusionProbabilities:
    return ss.InclusionProbabilities(pi=np.full(N, n / N), n=n)


def round_rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([seed, r])


class _RowsView:
    """Stands in for the Sampler that ``estimate_tail`` builds, so the
    benchmark sees (and times) every block of samples it draws."""

    def __init__(self, draw, kind: DesignKind, tracer: Tracer, on_rows) -> None:
        self._draw = draw
        self._name = f"designs.draw.{kind.value}"
        self._kind = kind
        self._tracer = tracer
        self._on_rows = on_rows

    def rows(self, seeds):
        rows = self._tracer.call(self._name, self._draw.rows, seeds)
        self._on_rows(self._kind, rows)
        return rows

    def __getattr__(self, name):
        return getattr(self._draw, name)


@contextlib.contextmanager
def program_hooks(tracer: Tracer, on_rows=None):
    """Spans around the calls that ``estimate_tail`` and ``sample_brewer``
    make into other layers: plans and draws (designs), seeds
    (montecarlo) and the splitting driver (splitting).  ``on_rows``, if
    given, sees every block of samples ``estimate_tail`` draws, traced
    or not."""
    in_montecarlo: dict = {}
    in_designs: dict = {}
    if on_rows is not None or tracer.enabled:
        real_make = ss_designs.make_sampler
        on_rows = on_rows or (lambda kind, rows: None)

        def make_sampler(kind, **kwargs):
            draw, pi = tracer.call(
                f"designs.make_sampler.{kind.value}", real_make, kind, **kwargs
            )
            return _RowsView(draw, kind, tracer, on_rows), pi

        in_montecarlo["make_sampler"] = make_sampler
    if tracer.enabled:
        in_montecarlo["derive_seed"] = tracer.wrap(
            "montecarlo.derive_seed", ss_montecarlo.derive_seed
        )
        in_designs["run_splitting"] = tracer.wrap(
            "splitting.run_splitting", ss_designs.run_splitting
        )
    with patched(ss_montecarlo, **in_montecarlo), patched(ss_designs, **in_designs):
        yield


class Workload:
    """Base: inputs from the seed, then setup and rounds."""

    name = ""
    setup_repeats = 10

    def __init__(self, seed: int, out: Path) -> None:
        self.seed = seed
        self.out = out
        # design -> retained MB of the samplers built in setup, filled
        # only while tracemalloc runs and ``measure_plans`` is set.
        self.plan_mb: dict[str, float] = {}
        self.measure_plans = False
        self.clock = Clock()

    def make_sampler(self, tracer: Tracer, kind: DesignKind, **kwargs):
        before = tracemalloc.get_traced_memory()[0] if self.measure_plans else 0
        draw, pi = tracer.call(
            f"designs.make_sampler.{kind.value}", ss.make_sampler, kind, **kwargs
        )
        if self.measure_plans:
            mb = (tracemalloc.get_traced_memory()[0] - before) / 2**20
            self.plan_mb[kind.value] = self.plan_mb.get(kind.value, 0.0) + mb
        return draw

    def hooks(self, tracer: Tracer, verdict: Verdict):
        return program_hooks(tracer)

    def setup(self, tracer: Tracer, verdict: Verdict):
        raise NotImplementedError

    def round(self, state, tracer: Tracer, r: int, verdict: Verdict) -> Round:
        raise NotImplementedError


def traced_brewer_draws(
    tracer: Tracer,
    verdict: Verdict,
    pi: ss.InclusionProbabilities,
    y: np.ndarray,
    sampler,
    seeds,
    out: Round,
) -> None:
    """Traced Brewer draws with their HT increments.  Each must satisfy
    the L1 identity of every step, have increments that sum to its HT
    error, and equal the plain draw of the same seed."""
    yc = y / pi.pi
    t_y = math.fsum(y)
    scale = 1.0 + math.fsum(np.abs(yc))
    drawn = []
    with out.timed("traced_draws_per_s", len(seeds)):
        for seed in seeds:
            sample, tr = tracer.call(
                "designs.sample_brewer", ss.sample_brewer, pi, int(seed), trace="realized"
            )
            xi = tracer.call("splitting.ht_increments", ss.ht_increments, tr, yc)
            drawn.append((int(seed), sample, tr, xi))
    out.attempted += len(seeds)
    for seed, sample, tr, xi in drawn:
        tracer.count("splitting.steps", len(tr.steps))
        verdict(checks.increments, tr)
        err = math.fsum(yc[list(sample.selected)]) - t_y
        verdict(checks.close, math.fsum(xi), err, 1e-9 * scale, "sum of HT increments")
        verdict(
            checks.same_sample,
            sample.selected,
            sampler(seed).selected,
            f"traced vs plain brewer, seed {seed}",
        )


# ---------------------------------------------------------------------------


class McCertify(Workload):
    """Criterion 05's instance: estimate_tail and certify against
    2 * cna_bound, two-sided, for all five designs."""

    name = "mc-certify"
    N, n = 200, 40
    replicates = 1310  # two lockstep chunks of 655 rows at N = 200
    traced = 20
    eps = np.linspace(0.025, 0.5, 20)

    def __init__(self, seed: int, out: Path) -> None:
        super().__init__(seed, out)
        rng = np.random.default_rng(20260819)  # criterion 05's population
        x = rng.uniform(1.0, 2.0, size=self.N)
        y = rng.uniform(0.0, 1.0, size=self.N)
        self.path = out / "mc-certify.csv"
        write_population(self.path, x, y)
        self._rows_seen: dict[DesignKind, int] = {}

    def hooks(self, tracer: Tracer, verdict: Verdict):
        def on_rows(kind, rows):
            self._rows_seen[kind] = self._rows_seen.get(kind, 0) + len(rows)
            certain = np.flatnonzero(self._pis[kind].certain)
            verdict(checks.sample_rows, rows, self.N, self.n, certain)

        return program_hooks(tracer, on_rows)

    def setup(self, tracer, verdict):
        pop, _ = tracer.call("population.load_population", ss.load_population, str(self.path))
        pi = tracer.call("population.compute_pips", ss.compute_pips, pop.x, self.n)
        verdict(checks.pips, pi.pi, pop.x, self.n)
        pis = {k: pi for k in DESIGNS}
        # SRSWOR gets its own equal pi: make_sampler would take an
        # unequal one and still sample uniformly.
        pis[DesignKind.SRSWOR] = equal_pi(pop.N, self.n)
        self._pis = pis
        samplers = {
            k: self.make_sampler(tracer, k, pi=pis[k], x=pop.x) for k in DESIGNS
        }
        return pop, pis, samplers

    def round(self, state, tracer, r, verdict):
        pop, pis, samplers = state
        out = Round(self.clock)
        rng = round_rng(self.seed, r)
        masters = [int(m) for m in rng.integers(0, 2**63, size=len(DESIGNS))]
        y = pop.y
        t_y = math.fsum(y)
        for kind, master in zip(DESIGNS, masters):
            pi = pis[kind]
            sv = ss.StudyVector(y_check=y / pi.pi, _y=y, _pi=pi.pi)
            inputs = ss.BoundInputs.from_study(sv, n=self.n, eps=0.0)
            bound = [
                2.0 * tracer.call("bounds.cna_bound", ss.cna_bound, inputs, float(e))
                for e in self.eps
            ]
            self._rows_seen[kind] = 0
            with out.timed(f"samples_per_s.{kind.value}", self.replicates):
                tail = tracer.call(
                    f"montecarlo.estimate_tail.{kind.value}",
                    ss.estimate_tail,
                    kind,
                    y=y,
                    eps_grid=self.eps,
                    replicates=self.replicates,
                    master_seed=master,
                    pi=pi,
                    x=pop.x,
                )
            out.attempted += self.replicates
            rows = tracer.call("montecarlo.certify", ss.certify, tail, bound, two_sided=True)
            verdict(checks.certified, rows)
            verdict(checks.unbiased_mean, tail.errors)
            seen = self._rows_seen[kind]
            if seen:
                verdict(checks.close, seen, self.replicates, 0, f"{kind.value} samples seen")
            else:
                verdict.notes["estimate_tail draws not observed"] = 1.0
            # A subset of replicates against the single-draw path.
            for idx in (0, 1, 654, 655, self.replicates - 1):
                s = samplers[kind](ss.derive_seed(master, idx))
                err = (math.fsum(sv.y_check[list(s.selected)]) - t_y) / self.N
                verdict(checks.close, tail.errors[idx], err, 1e-12, f"{kind.value} errors[{idx}]")
        seeds = rng.integers(0, 2**63, size=self.traced)
        brewer = DesignKind.BREWER
        traced_brewer_draws(tracer, verdict, pis[brewer], y, samplers[brewer], seeds, out)
        return out


# ---------------------------------------------------------------------------


class LargeFrame(Workload):
    """A skewed frame of 2000 units with n = 200: single draws by seed,
    each with its HT estimate, as ``splitsamp sample`` makes them."""

    name = "large-frame"
    setup_repeats = 3
    N, n = 2000, 200
    # Single draws per design per round, 50-130 ms of work each.
    draws = {"srswor": 200, "chao": 2, "tille": 1, "midzuno": 4, "brewer": 3}
    traced = 3

    def __init__(self, seed: int, out: Path) -> None:
        super().__init__(seed, out)
        # Lognormal(0, 1.5) quantiles, jittered by up to 5% and shuffled:
        # every seed gets about the same certainty units and ladders, so
        # about the same work, in another stream order.
        rng = np.random.default_rng([seed, 2])
        z = [NormalDist().inv_cdf((k + 0.5) / self.N) for k in range(self.N)]
        x = rng.permutation(np.exp(1.5 * np.array(z)) * rng.uniform(0.95, 1.05, self.N))
        y = x * rng.lognormal(0.0, 0.5, size=self.N)
        self.path = out / "large-frame.csv"
        write_population(self.path, x, y)

    def setup(self, tracer, verdict):
        pop, _ = tracer.call("population.load_population", ss.load_population, str(self.path))
        pi = tracer.call("population.compute_pips", ss.compute_pips, pop.x, self.n)
        verdict(checks.pips, pi.pi, pop.x, self.n)
        pis = {k: pi for k in DESIGNS}
        pis[DesignKind.SRSWOR] = equal_pi(pop.N, self.n)
        samplers = {
            k: self.make_sampler(tracer, k, pi=pis[k], x=pop.x) for k in DESIGNS
        }
        study = {k: ss.study_vector(pop, pis[k]) for k in DESIGNS}
        return pop, pis, samplers, study

    def round(self, state, tracer, r, verdict):
        pop, pis, samplers, study = state
        out = Round(self.clock)
        rng = round_rng(self.seed, r)
        master = int(rng.integers(0, 2**63))
        t_y = float(pop.y.sum())
        for d, kind in enumerate(DESIGNS):
            count = self.draws[kind.value]
            seeds = [
                tracer.call("montecarlo.derive_seed", ss.derive_seed, master, 1000 * d + i)
                for i in range(count)
            ]
            drawn = []
            with out.timed(f"samples_per_s.{kind.value}", count):
                for seed in seeds:
                    s = tracer.call(f"designs.draw.{kind.value}", samplers[kind], seed)
                    est = tracer.call(
                        "estimation.ht_estimate", ss.ht_estimate, s, study[kind], t_y
                    )
                    drawn.append((s, est))
            out.attempted += count
            pi = pis[kind].pi
            certain = np.flatnonzero(pis[kind].certain)
            for s, est in drawn:
                verdict(checks.sample_rows, np.array([s.selected]), self.N, self.n, certain)
                verdict(checks.ht_total, est.t_hat, s.selected, pop.y, pi)
        seeds = rng.integers(0, 2**63, size=self.traced)
        brewer = DesignKind.BREWER
        traced_brewer_draws(tracer, verdict, pis[brewer], pop.y, samplers[brewer], seeds, out)
        return out


# ---------------------------------------------------------------------------


class ExactChecks(Workload):
    """Small instances (N <= 10), enumerated exactly for every design and
    checked; traced Brewer draws on criterion 04's instance; and the
    traced-versus-plain comparison on a Brewer instance with one unit at
    pi = 1 - 1e-10, which fails on every seed today."""

    name = "exact-checks"
    # (N, n, certainty units).  Sizes are built so that exactly that many
    # units are certain whatever the seed.
    shapes = (
        (7, 2, 0),
        (8, 4, 0),
        (9, 3, 1),
        (8, 5, 0),
        (9, 3, 0),
        (10, 6, 4),
        (8, 6, 2),
    )
    # Round r enumerates set r % sets, so each round checks fresh sizes.
    sets = 32
    traced = 100
    near_certain_seeds = (0, 1, 2, 3)

    def __init__(self, seed: int, out: Path) -> None:
        super().__init__(seed, out)
        rng = np.random.default_rng([seed, 3])
        self.instances = []
        for j in range(self.sets):
            for i, (N, n, c) in enumerate(self.shapes):
                free, draws = N - c, n - c
                spread = 2.0 if draws <= 1 else min(2.0, 0.9 * (free - draws) / (draws - 1))
                # Evenly spread sizes, jittered by up to 2%, keep the
                # enumeration work about the same in every set.
                x = 1.0 + spread * (np.arange(N) + 0.5) / N
                x *= rng.uniform(0.98, 1.02, N)
                # A certainty unit's share n x / sum(x) exceeds 1 at this size.
                x[:c] = 10.0 * x[c:].sum()
                y = rng.uniform(0.5, 2.0, size=N)
                path = out / f"exact-checks-{j}-{i}.csv"
                write_population(path, x, y)
                self.instances.append((n, path))
        # Criterion 04's population, with study values from the seed.
        x04 = -np.log1p(-np.random.default_rng(77).random(50))
        self.path04 = out / "exact-checks-crit04.csv"
        write_population(self.path04, x04, rng.uniform(0.5, 2.0, size=50))

    def setup(self, tracer, verdict):
        insts = []
        for n, path in self.instances:
            pop, _ = tracer.call("population.load_population", ss.load_population, str(path))
            pi = tracer.call("population.compute_pips", ss.compute_pips, pop.x, n)
            verdict(checks.pips, pi.pi, pop.x, n)
            insts.append((pop, pi))
        k = len(self.shapes)
        insts = [insts[j * k : (j + 1) * k] for j in range(self.sets)]
        pop04, _ = tracer.call("population.load_population", ss.load_population, str(self.path04))
        pi04 = tracer.call("population.compute_pips", ss.compute_pips, pop04.x, 10)
        brewer = DesignKind.BREWER
        draw04 = self.make_sampler(tracer, brewer, pi=pi04)
        # The same population with one unit at pi = 1 - 1e-10 and the
        # rest rescaled so that pi still sums to 10.
        near = pi04.pi.copy()
        near[0] = 1.0 - 1e-10
        near[1:] *= (10.0 - near[0]) / near[1:].sum()
        pi_near = ss.InclusionProbabilities(pi=near, n=10)
        draw_near = self.make_sampler(tracer, brewer, pi=pi_near)
        return insts, (pop04, pi04, draw04), (pi_near, draw_near)

    def round(self, state, tracer, r, verdict):
        sets, (pop04, pi04, draw04), (pi_near, draw_near) = state
        out = Round(self.clock)
        for kind in DESIGNS:
            results = []
            with out.timed(f"samples_per_s.{kind.value}") as timed:
                for pop, pi in sets[r % self.sets]:
                    if kind is DesignKind.SRSWOR:
                        pi = equal_pi(pop.N, pi.n)
                        dist = tracer.call(
                            "oracle.enumerate_design.srswor",
                            ss.enumerate_design, kind, N=pop.N, n=pi.n,
                        )
                    else:
                        dist = tracer.call(
                            f"oracle.enumerate_design.{kind.value}",
                            ss.enumerate_design, kind, x=pop.x, pi=pi,
                        )
                    pi1, _ = tracer.call("distribution.first_second_order", ss.first_second_order, dist)
                    csyg = tracer.call("oracle.check_csyg", ss.check_csyg, dist)
                    bias = tracer.call(
                        "oracle.unbiasedness_check", ss.unbiasedness_check, dist, pop.y, pi.pi
                    )
                    tv = 0.0
                    if kind is DesignKind.GENERALIZED_MIDZUNO:
                        tv = tracer.call("oracle.complementarity", ss.midzuno_complementarity_tv, pi)
                    results.append((pi, dist, pi1, csyg, bias, tv))
                timed.units = sum(len(res[1].support) for res in results)
            out.attempted += len(results)
            for pi, dist, pi1, csyg, bias, tv in results:
                tracer.count(f"oracle.support_size.{kind.value}", len(dist.support))
                tracer.count("oracle.csyg_checked", csyg.checked_count)
                verdict(checks.support, dist, pi.n)
                verdict(checks.first_order, pi1, pi.pi)
                if kind in CNA_DESIGNS:
                    verdict(checks.at_most, csyg.max_violation, 1e-12, f"{kind.value} CSYG violation")
                else:
                    # Not asserted: the paper does not claim CNA for Brewer.
                    notes = verdict.notes
                    notes["brewer CSYG max violation"] = max(
                        notes.get("brewer CSYG max violation", -math.inf), csyg.max_violation
                    )
                verdict(checks.at_most, bias, 1e-8, f"{kind.value} unbiasedness gap")
                verdict(checks.at_most, tv, 1e-9, "midzuno complementarity TV")
        rng = round_rng(self.seed, r)
        seeds = rng.integers(0, 2**63, size=self.traced)
        traced_brewer_draws(tracer, verdict, pi04, pop04.y, draw04, seeds, out)
        # Known fault: Brewer's plain draw treats a unit as certain only
        # within 1e-12 of 1, the traced driver within 1e-9, so a unit at
        # 1 - 1e-10 splits the two paths.  Each seed is one operation.
        for seed in self.near_certain_seeds:
            out.attempted += 1
            traced, _ = ss.sample_brewer(pi_near, seed, trace="realized")
            try:
                checks.same_sample(traced.selected, draw_near(seed).selected, "near-certain brewer")
            except CheckError:
                out.failed += 1
        return out


WORKLOADS = {w.name: w for w in (McCertify, LargeFrame, ExactChecks)}

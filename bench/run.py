"""splitsamp benchmark: one workload per run, timed end to end, or per
layer with ``--trace 1``.

    python3 bench/run.py --workload mc-certify --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: it imports splitsamp from ``src/``
and writes its inputs and span files under ``.bench_out/``.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
each metric by name with its unit.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
DESIGN_NAMES = ("srswor", "chao", "tille", "midzuno", "brewer")
WORKLOAD_NAMES = ("mc-certify", "large-frame", "exact-checks")

END_TO_END = (
    ("setup_s", "s"),
    *((f"samples_per_s.{d}", "samples/s") for d in DESIGN_NAMES),
    ("traced_draws_per_s", "draws/s"),
    ("peak_mb", "MB"),
)


def _layer_table():
    """(metric, unit, how, source).  ``self`` and ``incl`` are mean self
    and inclusive seconds per call of the named span, ``count`` the mean
    of a work count per call, ``plan`` the memory a design's samplers
    keep after set-up."""
    D = DESIGN_NAMES
    t = [
        ("population.load_population_s", "s", "self", "population.load_population"),
        ("population.compute_pips_s", "s", "self", "population.compute_pips"),
    ]
    t += [(f"designs.make_sampler_s.{d}", "s", "self", f"designs.make_sampler.{d}") for d in D]
    t += [(f"designs.plan_mb.{d}", "MB", "plan", d) for d in D]
    t += [(f"designs.draw_s.{d}", "s", "self", f"designs.draw.{d}") for d in D]
    t += [
        (f"montecarlo.estimate_tail_s.{d}", "s", "incl", f"montecarlo.estimate_tail.{d}")
        for d in D
    ]
    t += [("montecarlo.derive_seed_s", "s", "self", "montecarlo.derive_seed")]
    t += [(f"montecarlo.tally_s.{d}", "s", "self", f"montecarlo.estimate_tail.{d}") for d in D]
    t += [
        ("montecarlo.certify_s", "s", "self", "montecarlo.certify"),
        ("estimation.ht_estimate_s", "s", "self", "estimation.ht_estimate"),
        ("bounds.cna_bound_s", "s", "self", "bounds.cna_bound"),
    ]
    t += [
        (f"oracle.enumerate_design_s.{d}", "s", "self", f"oracle.enumerate_design.{d}")
        for d in D
    ]
    t += [
        ("oracle.check_csyg_s", "s", "self", "oracle.check_csyg"),
        ("oracle.unbiasedness_check_s", "s", "self", "oracle.unbiasedness_check"),
        ("oracle.complementarity_s", "s", "self", "oracle.complementarity"),
        ("distribution.first_second_order_s", "s", "self", "distribution.first_second_order"),
    ]
    t += [(f"oracle.support_size.{d}", "count", "count", f"oracle.support_size.{d}") for d in D]
    t += [
        ("oracle.csyg_checked", "count", "count", "oracle.csyg_checked"),
        ("splitting.run_splitting_s", "s", "self", "splitting.run_splitting"),
        ("splitting.ht_increments_s", "s", "self", "splitting.ht_increments"),
        ("splitting.steps", "count", "count", "splitting.steps"),
        ("trace.overhead_pct", "%", "overhead", None),
    ]
    return t


PER_LAYER = _layer_table()


def measure(wl, state, tracer, verdict, seconds=None, count=None):
    """Whole rounds from round 0: until ``seconds`` have passed, or
    exactly ``count`` of them."""
    rounds = []
    end = perf_counter() + (seconds or 0.0)
    while True:
        rounds.append(wl.round(state, tracer, len(rounds), verdict))
        if len(rounds) == count or (count is None and perf_counter() >= end):
            return rounds


def timed_seconds(rounds) -> float:
    return sum(seconds for r in rounds for _, seconds in r.work.values())


def run_untraced(wl, seconds, verdict):
    tracer = Tracer(False)
    with wl.hooks(tracer, verdict):
        # Peak memory of set-up plus one round, in a pass apart.
        gc.collect()
        tracemalloc.start()
        try:
            state = wl.setup(tracer, verdict)
            rounds = [wl.round(state, tracer, 0, verdict)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        setups = []
        for _ in range(wl.setup_repeats):
            state = None
            gc.collect()
            with wl.clock.block() as block:
                state = wl.setup(tracer, verdict)
            setups.append(block.seconds)
        timed = measure(wl, state, tracer, verdict, seconds=seconds)
    metrics = {"setup_s": statistics.median(setups), "peak_mb": peak / 2**20}
    for name, _ in END_TO_END:
        rates = [units / sec for units, sec in (r.work[name] for r in timed if name in r.work)]
        if rates:
            metrics[name] = statistics.median(rates)
    return metrics, rounds + timed


def run_traced(wl, seconds, verdict):
    plain = Tracer(False)
    gc.collect()
    tracemalloc.start()
    wl.measure_plans = True
    try:
        wl.setup(plain, verdict)
    finally:
        wl.measure_plans = False
        tracemalloc.stop()
    # The same set-up and rounds, untraced and then traced; the
    # difference in their timed work is the tracing overhead.
    with wl.hooks(plain, verdict):
        gc.collect()
        untraced = measure(wl, wl.setup(plain, verdict), plain, verdict, seconds=seconds / 2)
    tracer = Tracer(True)
    with wl.hooks(tracer, verdict):
        gc.collect()
        traced = measure(wl, wl.setup(tracer, verdict), tracer, verdict, count=len(untraced))
    tracer.write(wl.out / f"{wl.name}.spans.csv")
    calls = tracer.per_call()
    counts = tracer.count_means()
    metrics = {}
    for name, _, how, source in PER_LAYER:
        if how == "self":
            metrics[name] = calls.get(source, (0.0, 0.0, 0))[1]
        elif how == "incl":
            metrics[name] = calls.get(source, (0.0, 0.0, 0))[0]
        elif how == "count":
            metrics[name] = counts.get(source, 0.0)
        elif how == "plan":
            metrics[name] = wl.plan_mb.get(source, 0.0)
        else:
            base = timed_seconds(untraced)
            metrics[name] = 100.0 * (timed_seconds(traced) - base) / base
    return metrics, untraced + traced


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "splitsamp" / "__init__.py").is_file():
        print(f"bench: no splitsamp package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS, Verdict

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, out)
    verdict = Verdict()
    if args.trace:
        values, rounds = run_traced(wl, args.seconds, verdict)
        table = [(name, unit) for name, unit, _, _ in PER_LAYER]
    else:
        values, rounds = run_untraced(wl, args.seconds, verdict)
        table = list(END_TO_END)
    for msg in verdict.errors[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    for note, value in verdict.notes.items():
        print(f"note: {note}: {value!r}", file=sys.stderr)
    result = {
        "correct": not verdict.errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }
    print(f"{wl.name}: {len(rounds)} rounds, seed {args.seed}, "
          f"{result['attempted']} operations, {result['failed']} failed, "
          f"calibration loop median {statistics.median(wl.clock.calibrations):.4g} s")
    for name, unit in table:
        print(f"{name} {values[name]:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

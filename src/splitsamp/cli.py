"""Command-line interface.

Four subcommands: ``sample`` draws one sample from a population file,
``bounds`` evaluates the tail bounds (or inverts them for a sample size
or confidence radius), ``verify`` enumerates a design on a small
population and checks its structural properties, and ``experiment``
writes the bound-difference curves for the synthetic skewed population.
Each mode of ``bounds`` and ``verify`` lists in ``MODES`` the flags it
reads; any other flag given, or a needed one left out, exits 2.

Exit codes: 0 success, 1 internal error, 2 input validation (also used
by argparse itself).  ``verify`` exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .bounds import (
    BoundInputs,
    _square,
    evaluate_bounds,
    solve_confidence_radius,
    solve_sample_size,
)
from .designs import DesignKind, make_sampler, target_pi
from .distribution import _first_order
from .errors import (
    EnumerationBudgetError,
    InvalidInputError,
    NotApplicableError,
    PopulationFileError,
    RepresentationError,
    SplitsampError,
)
from .estimation import ht_estimate
from .experiment import ExperimentConfig, experiment_csv, overfull_units, run_experiment
from .oracle import (
    DEFAULT_MAX_BRANCHES,
    check_csyg,
    enumerate_design,
    midzuno_complementarity_tv,
    unbiasedness_check,
)
from .population import (
    InclusionProbabilities,
    compute_pips,
    load_population,
    study_vector,
)

# Verification tolerances: a check fails when its value exceeds its
# tolerance.  CSYG_TOL bounds both dependence lines.
INCLUSION_TOL = 1e-9
CSYG_TOL = 1e-12
UNBIASED_TOL = 1e-8
COMPLEMENT_TOL = 1e-9


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_floats(spec: str, what: str) -> np.ndarray:
    try:
        vals = [float(f) for f in spec.split(",") if f.strip()]
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse {what}: {exc}") from exc
    if not vals:
        raise InvalidInputError(f"{what} must contain at least one value")
    return np.asarray(vals, dtype=float)


def _pi_from_file(pop, pi_file, n: int | None) -> InclusionProbabilities:
    """The capped size shares at --n, else the pi the file carries."""
    if n is not None:
        return compute_pips(pop.x, n)
    if pi_file is not None:
        return pi_file
    raise InvalidInputError("this population file carries sizes; pass --n")


def cmd_sample(args) -> int:
    pop, pi_file = load_population(args.population)
    kind = DesignKind(args.design)
    if kind is not DesignKind.SRSWOR:
        draw, pi = make_sampler(kind, pi=_pi_from_file(pop, pi_file, args.n), x=pop.x)
    elif pi_file is not None and not pi_file.is_equal_probability():
        # SRSWOR draws at n/N, so a file's pi must be n/N for every unit.
        raise InvalidInputError("srswor needs pi = n/N for every unit")
    else:
        size = args.n if args.n is not None else _pi_from_file(pop, pi_file, None).n
        draw, pi = make_sampler(kind, N=pop.N, n=size)
    sample = draw(args.seed)
    ids = [pop.ids[k] for k in sample.selected]
    _write_out("".join(f"{i}\n" for i in ids), args.out)
    if args.out is not None:
        est = ht_estimate(sample, study_vector(pop, pi), t_y=float(pop.y.sum()))
        sidecar = {
            "design": kind.value,
            "N": pop.N,
            "n": pi.n,
            "seed": args.seed,
            "selected_ids": ids,
            "pi": {uid: float(p) for uid, p in zip(pop.ids, pi.pi)},
            "ht_estimate": est.t_hat,
            "t_y": est.t_y,
        }
        with open(args.out + ".json", "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2)
            fh.write("\n")
    return 0


def _bound_inputs_from_args(args) -> BoundInputs:
    eps = args.eps or 0.0
    if args.population is not None:
        pop, pi_file = load_population(args.population)
        pi = _pi_from_file(pop, pi_file, args.n)
        inputs = BoundInputs.from_study(study_vector(pop, pi), n=pi.n, eps=eps)
        return dataclasses.replace(
            inputs, M=args.M, c=args.c, equal_probability=pi.is_equal_probability()
        )
    return BoundInputs(
        N=args.N,
        n=args.n,
        eps=eps,
        sup_ycheck=args.sup_ycheck,
        sum_sq_ycheck=args.sum_sq_ycheck,
        sup_y=args.sup_y if args.sup_y is not None else args.sup_ycheck,
        sup_y2_over_pi=(
            args.sup_y2_over_pi
            if args.sup_y2_over_pi is not None
            else _square("sup_ycheck", args.sup_ycheck)
        ),
        M=args.M,
        c=args.c,
        equal_probability=args.equal_probability,
    )


def cmd_bounds(args) -> int:
    if args.solve_n:
        n = solve_sample_size(
            args.M, args.c, args.eps, args.eta, two_sided=args.two_sided
        )
        payload = {
            "M": args.M,
            "c": args.c,
            "eps": args.eps,
            "eta": args.eta,
            "two_sided": args.two_sided,
            "n": n,
        }
    elif args.solve_eps:
        inputs = _bound_inputs_from_args(args)
        eps = solve_confidence_radius(inputs, args.eta, two_sided=args.two_sided)
        payload = {
            "N": inputs.N,
            "n": inputs.n,
            "eta": args.eta,
            "two_sided": args.two_sided,
            "eps": eps,
        }
    else:
        report = evaluate_bounds(
            _bound_inputs_from_args(args), two_sided=args.two_sided, eps=args.eps
        )
        _write_out(report.to_json() + "\n", args.out)
        return 0
    _write_out(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _verify_line(label: str, value: float, tol: float, lines: list[str]) -> bool:
    ok = value <= tol
    lines.append(
        f"{'PASS' if ok else 'FAIL'} {label}: max violation {value:.3e} (tol {tol:.0e})"
    )
    return ok


def cmd_verify(args) -> int:
    kind = DesignKind(args.design)
    x = None if args.x is None else _parse_floats(args.x, "--x")
    # Enumeration refuses N > MAX_ENUM_N before it builds any pi.
    dist = enumerate_design(
        kind, x=x, n=args.n, N=args.N, max_branches=args.max_branches
    )
    pi = target_pi(kind, None, x, args.n, args.N)
    y = np.arange(1.0, pi.N + 1.0) if x is None else x

    lines = [
        f"design={kind.value} N={pi.N} n={pi.n} "
        f"support={dist.masks.size} pruned_mass={dist.pruned_mass!r}"
    ]
    ok = True

    sizes_ok = dist.fixed_size
    lines.append(
        f"{'PASS' if sizes_ok else 'FAIL'} fixed-size: every support element has size {pi.n}"
    )
    ok &= sizes_ok

    pi_hat = _first_order(dist)
    ok &= _verify_line(
        "inclusion-probabilities",
        float(np.max(np.abs(pi_hat - pi.pi))),
        INCLUSION_TOL,
        lines,
    )

    csyg = check_csyg(dist)
    for label, value in (
        (f"conditional-syg ({csyg.checked_count} inequalities)", csyg.max_violation),
        ("pairwise-covariance", csyg.max_covariance),
    ):
        if kind is DesignKind.BREWER:
            # The paper establishes CNA for Chao, Tille and Midzuno only.
            lines.append(
                f"INFO {label}: max violation {value:.3e} "
                "(not part of the pass/fail contract)"
            )
        else:
            ok &= _verify_line(label, value, CSYG_TOL, lines)

    ok &= _verify_line(
        "ht-unbiasedness", unbiasedness_check(dist, y, pi.pi), UNBIASED_TOL, lines
    )

    if kind is DesignKind.GENERALIZED_MIDZUNO:
        tv = midzuno_complementarity_tv(pi, max_branches=args.max_branches)
        ok &= _verify_line("complement-elimination-tv", tv, COMPLEMENT_TOL, lines)

    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.dump is not None:
        with open(args.dump, "w", encoding="utf-8") as fh:
            fh.write(dist.dump())
    return 0 if ok else 1


def cmd_experiment(args) -> int:
    config = ExperimentConfig(
        N=args.N,
        sigma_list=tuple(float(s) for s in _parse_floats(args.sigmas, "--sigmas")),
        n_list=tuple(float(v) for v in _parse_floats(args.ns, "--ns")),
        eps_count=args.eps_count,
        seed=args.seed,
    )
    for n, count, top in overfull_units(config):
        print(
            f"warning: n={n:g}: {count} units have pi = n x / sum(x) > 1 "
            f"(max {top:.3g}); the experiment uses them uncapped",
            file=sys.stderr,
        )
    rows = run_experiment(config)
    _write_out(experiment_csv(rows), args.out)
    return 0


# The flags each mode of ``bounds`` and ``verify`` reads, by argparse
# dest: those it needs, then those it may take.  ``main`` rejects any
# other flag given; ``--out`` and the other subcommands are unchecked.
_RAW = ("N", "n", "sup_ycheck", "sum_sq_ycheck")
_VERIFY_BY_X = "verify --design chao, tille, midzuno or brewer"
MODES = {
    "bounds": (
        (*_RAW, "eps"),
        ("sup_y", "sup_y2_over_pi", "M", "c", "equal_probability", "two_sided"),
    ),
    "bounds --solve-eps": (
        (*_RAW, "solve_eps", "eta"),
        ("sup_y", "sup_y2_over_pi", "two_sided"),
    ),
    "bounds --population": (("population", "eps"), ("n", "M", "c", "two_sided")),
    "bounds --solve-eps --population": (
        ("solve_eps", "population", "eta"),
        ("n", "two_sided"),
    ),
    "bounds --solve-n": (("solve_n", "M", "c", "eps", "eta"), ("two_sided",)),
    "verify --design srswor": (("N", "n"), ("max_branches", "dump")),
    _VERIFY_BY_X: (("x", "n"), ("N", "max_branches", "dump")),
}
# Read as a pair: a mode that may take one of them needs both or neither.
_PAIR = ("M", "c")
_UNCHECKED = ("command", "func", "design", "out")


def _mode(args) -> str | None:
    """The key of ``MODES`` a parsed command runs in, if it has one."""
    if args.command == "verify":
        return "verify --design srswor" if args.design == "srswor" else _VERIFY_BY_X
    if args.command != "bounds":
        return None
    if args.solve_n:
        return "bounds --solve-n"
    mode = "bounds --solve-eps" if args.solve_eps else "bounds"
    return mode if args.population is None else mode + " --population"


def _check_flags(args) -> None:
    """Reject the flags given that the command's mode does not read and
    the flags it needs that are left out, naming each.  A flag counts as
    given when its value is neither None nor False."""
    mode = _mode(args)
    if mode is None:
        return
    needs, takes = MODES[mode]
    given = [d for d, v in vars(args).items() if v is not None and v is not False]
    missing = [d for d in needs if d not in given]
    if set(_PAIR) <= set(takes) and set(_PAIR) & set(given):
        missing += [d for d in _PAIR if d not in given]
    extra = [d for d in given if d not in (*needs, *takes, *_UNCHECKED)]
    problems = [
        f"{verb} " + ", ".join("--" + d.replace("_", "-") for d in dests)
        for verb, dests in (("takes no", extra), ("needs", missing))
        if dests
    ]
    if problems:
        raise InvalidInputError(f"{mode} " + "; ".join(problems))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitsamp",
        description=(
            "Fixed-size unequal-probability sampling, Horvitz-Thompson tail "
            "bounds, and exact design verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser(
        "sample", help="draw one sample from a population file"
    )
    p_sample.add_argument("population", help="CSV file with header id,x,y or id,pi,y")
    p_sample.add_argument(
        "--design",
        required=True,
        choices=[k.value for k in DesignKind],
    )
    p_sample.add_argument("--n", type=int, help="sample size (required for id,x,y files)")
    p_sample.add_argument(
        "--seed", type=int, default=0, help="integer in [0, 2**128)"
    )
    p_sample.add_argument(
        "--out", help="write ids here and a JSON sidecar to OUT.json"
    )
    p_sample.set_defaults(func=cmd_sample)

    p_bounds = sub.add_parser(
        "bounds", help="evaluate tail bounds or solve for n or eps"
    )
    p_bounds.add_argument("--population", help="population file for the statistics")
    p_bounds.add_argument("--N", type=int, help="population size (raw statistics)")
    p_bounds.add_argument("--n", type=float, help="sample size")
    p_bounds.add_argument("--sup-ycheck", type=float, help="sup |y_k / pi_k|")
    p_bounds.add_argument("--sum-sq-ycheck", type=float, help="sum (y_k / pi_k)^2")
    p_bounds.add_argument("--sup-y", type=float, help="sup |y_k|")
    p_bounds.add_argument("--sup-y2-over-pi", type=float, help="sup y_k^2 / pi_k")
    p_bounds.add_argument("--M", type=float, help="uniform bound on |y_k|")
    p_bounds.add_argument("--c", type=float, help="lower rate constant: pi_k >= c n / N")
    p_bounds.add_argument("--eps", type=float, help="deviation scale per unit")
    p_bounds.add_argument("--eta", type=float, help="target tail probability")
    p_bounds.add_argument("--two-sided", action="store_true")
    p_bounds.add_argument(
        "--equal-probability",
        action="store_true",
        help="mark pi_k = n/N (enables the eps_star column)",
    )
    p_bounds.add_argument(
        "--solve-n",
        action="store_true",
        help="smallest n meeting --eta at --eps (needs --M and --c)",
    )
    p_bounds.add_argument(
        "--solve-eps",
        action="store_true",
        help="confidence radius at which the bound equals --eta",
    )
    p_bounds.add_argument("--out")
    p_bounds.set_defaults(func=cmd_bounds)

    p_verify = sub.add_parser(
        "verify",
        help="enumerate a design exactly and check its structural properties",
    )
    p_verify.add_argument(
        "--design",
        required=True,
        choices=[k.value for k in DesignKind],
    )
    p_verify.add_argument("--x", help="comma-separated size values")
    p_verify.add_argument("--N", type=int, help="population size (needed for srswor)")
    p_verify.add_argument("--n", type=int, help="sample size")
    p_verify.add_argument(
        "--max-branches",
        type=int,
        default=DEFAULT_MAX_BRANCHES,
        help="enumeration budget, in transitions between states",
    )
    p_verify.add_argument("--dump", help="write the exact distribution CSV here")
    p_verify.set_defaults(func=cmd_verify)

    p_exp = sub.add_parser(
        "experiment",
        help="bound-difference curves on the synthetic skewed population",
    )
    p_exp.add_argument("--N", type=int, default=ExperimentConfig.N)
    p_exp.add_argument(
        "--sigmas",
        default=",".join(repr(s) for s in ExperimentConfig.sigma_list),
        help="comma-separated noise levels",
    )
    p_exp.add_argument(
        "--ns",
        default=",".join(repr(v) for v in ExperimentConfig.n_list),
        help="comma-separated sample sizes",
    )
    p_exp.add_argument("--eps-count", type=int, default=ExperimentConfig.eps_count)
    p_exp.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    p_exp.add_argument("--out")
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        return int(args.func(args) or 0)
    except EnumerationBudgetError as exc:
        print(
            f"error: {exc}; shrink the population or raise --max-branches",
            file=sys.stderr,
        )
        return 2
    except (
        InvalidInputError,
        PopulationFileError,
        NotApplicableError,
        RepresentationError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SplitsampError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

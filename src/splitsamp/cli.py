"""Command-line interface.

Four subcommands: ``sample`` draws one sample from a population file,
``bounds`` evaluates the tail bounds (or inverts them for a sample size
or confidence radius), ``verify`` enumerates a design on a small
population and checks its structural properties, and ``experiment``
writes the bound-difference curves for the synthetic skewed population.

Exit codes: 0 success, 1 internal error, 2 input validation (also used
by argparse itself).  ``verify`` exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bounds import (
    BoundInputs,
    evaluate_bounds,
    solve_confidence_radius,
    solve_sample_size,
)
from .designs import DesignKind, make_sampler
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
    check_pairwise_na,
    enumerate_design,
    first_second_order,
    midzuno_complementarity_tv,
    unbiasedness_check,
)
from .population import (
    InclusionProbabilities,
    compute_pips,
    load_population,
    study_vector,
)

# Verification tolerances, also used by the test suite.
INCLUSION_TOL = 1e-9
CSYG_TOL = 1e-12
NA_TOL = 1e-12
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


def _resolve_pi(pop, pi_file, kind: DesignKind, n: int | None):
    """Target probabilities for a population file plus optional --n."""
    if kind is DesignKind.SRSWOR:
        size = n if n is not None else (pi_file.n if pi_file is not None else None)
        if size is None:
            raise InvalidInputError("srswor needs --n")
        return InclusionProbabilities(pi=np.full(pop.N, size / pop.N), n=size)
    return _pi_from_file(pop, pi_file, n)


def _pi_from_file(pop, pi_file, n: int | None) -> InclusionProbabilities:
    """The capped size shares at --n, else the pi the file carries."""
    if n is not None:
        return compute_pips(pop.x, n)
    if pi_file is not None:
        return pi_file
    raise InvalidInputError("this population file carries sizes; pass --n")


def cmd_sample(args) -> int:
    pop, pi_file = load_population(args.population)
    kind = DesignKind.from_string(args.design)
    pi = _resolve_pi(pop, pi_file, kind, args.n)
    draw, pi = make_sampler(kind, pi=pi, x=pop.x)
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
    if args.population is not None:
        pop, pi_file = load_population(args.population)
        pi = _pi_from_file(pop, pi_file, args.n)
        return BoundInputs.from_population(
            pop, pi, eps=args.eps or 0.0, M=args.M, c=args.c
        )
    needed = {
        "--N": args.N,
        "--n": args.n,
        "--sup-ycheck": args.sup_ycheck,
        "--sum-sq-ycheck": args.sum_sq_ycheck,
    }
    missing = [k for k, v in needed.items() if v is None]
    if missing:
        raise InvalidInputError(
            "raw statistics need " + ", ".join(missing) + " (or use a population file)"
        )
    sup_y = args.sup_y if args.sup_y is not None else args.sup_ycheck
    sup_y2 = (
        args.sup_y2_over_pi
        if args.sup_y2_over_pi is not None
        else args.sup_ycheck**2
    )
    return BoundInputs(
        N=args.N,
        n=args.n,
        eps=args.eps or 0.0,
        sup_ycheck=args.sup_ycheck,
        sum_sq_ycheck=args.sum_sq_ycheck,
        sup_y=sup_y,
        sup_y2_over_pi=sup_y2,
        M=args.M,
        c=args.c,
        equal_probability=args.equal_probability,
    )


def cmd_bounds(args) -> int:
    if args.solve_n:
        if args.M is None or args.c is None or args.eps is None or args.eta is None:
            raise InvalidInputError("--solve-n needs --M, --c, --eps and --eta")
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
        _write_out(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    inputs = _bound_inputs_from_args(args)
    if args.solve_eps:
        if args.eta is None:
            raise InvalidInputError("--solve-eps needs --eta")
        eps = solve_confidence_radius(inputs, args.eta, two_sided=args.two_sided)
        payload = {
            "N": inputs.N,
            "n": inputs.n,
            "eta": args.eta,
            "two_sided": args.two_sided,
            "eps": eps,
        }
        _write_out(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    if args.eps is None:
        raise InvalidInputError("bound evaluation needs --eps (or a solve flag)")
    report = evaluate_bounds(inputs, two_sided=args.two_sided, eps=args.eps)
    _write_out(report.to_json() + "\n", args.out)
    return 0


def _verify_line(label: str, value: float, tol: float, lines: list[str]) -> bool:
    ok = value <= tol
    lines.append(
        f"{'PASS' if ok else 'FAIL'} {label}: max violation {value:.3e} (tol {tol:.0e})"
    )
    return ok


def cmd_verify(args) -> int:
    kind = DesignKind.from_string(args.design)
    if kind is DesignKind.SRSWOR:
        if args.N is None:
            raise InvalidInputError("srswor verification needs --N")
        N, n = args.N, args.n
        if n is None:
            raise InvalidInputError("verification needs --n")
        x = np.ones(N)
        pi = InclusionProbabilities(pi=np.full(N, n / N), n=n)
        y = np.arange(1.0, N + 1.0)
        dist = enumerate_design(
            kind, N=N, n=n, pi=pi, max_branches=args.max_branches
        )
    else:
        if args.x is None:
            raise InvalidInputError(f"{kind.value} verification needs --x")
        x = _parse_floats(args.x, "--x")
        if args.n is None:
            raise InvalidInputError("verification needs --n")
        n = args.n
        pi = compute_pips(x, n)
        y = x.copy()
        dist = enumerate_design(
            kind, x=x, pi=pi, n=n, max_branches=args.max_branches
        )

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

    pi_hat, _ = first_second_order(dist)
    ok &= _verify_line(
        "inclusion-probabilities",
        float(np.max(np.abs(pi_hat - pi.pi))),
        INCLUSION_TOL,
        lines,
    )

    csyg = check_csyg(dist)
    if kind is DesignKind.BREWER:
        lines.append(
            f"INFO conditional-syg: max violation {csyg.max_violation:.3e} "
            f"({csyg.checked_count} inequalities; not part of the pass/fail contract)"
        )
    else:
        ok &= _verify_line(
            f"conditional-syg ({csyg.checked_count} inequalities)",
            csyg.max_violation,
            CSYG_TOL,
            lines,
        )

    ok &= _verify_line(
        "pairwise-covariance", check_pairwise_na(dist), NA_TOL, lines
    )
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
    p_verify.add_argument("--N", type=int, help="population size (srswor only)")
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

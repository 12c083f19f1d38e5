"""Exact enumeration of the sampling procedures and structural checks.

Every procedure in this package makes a finite sequence of discrete
random choices, so on small populations its distribution over samples
can be computed exactly by walking the whole choice tree.  The checks
below compare that distribution against what the theory promises:
correct first-order inclusion probabilities, fixed sample size,
conditional negative-dependence inequalities, nonpositive pairwise
indicator covariances, design unbiasedness of the Horvitz-Thompson
estimator, and the complementarity between the Midzuno and elimination
procedures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .designs import (
    DesignKind,
    Ladder,
    _check_sum,
    chao_plan,
    midzuno_plan,
    sizes_giving,
    tille_plan,
)
from .distribution import (
    ExactDesignDistribution,
    first_second_order,
    subset_probabilities,
)
from .errors import (
    ContractViolationError,
    EnumerationBudgetError,
    InvalidInputError,
)
from .population import InclusionProbabilities, compute_pips

# Population ceiling for exact enumeration.
MAX_ENUM_N = 10

# Branches with smaller local probability are pruned; their mass is
# tracked and audited.
PRUNE_TOL = 1e-15

# Step probabilities restricted to the live pool must sum to their
# target within this.
STEP_SUM_TOL = 1e-9

DEFAULT_MAX_BRANCHES = 10_000_000


class _Walk:
    """Shared bookkeeping for the recursive tree walks."""

    def __init__(self, N: int, n: int, source: str, max_branches: int) -> None:
        self.N = N
        self.n = n
        self.source = source
        self.max_branches = max_branches
        self.visited = 0
        self.pruned = 0.0
        self.support: dict[tuple[int, ...], float] = {}

    def visit(self) -> None:
        self.visited += 1
        if self.visited > self.max_branches:
            raise EnumerationBudgetError(
                f"enumeration exceeded {self.max_branches} branches"
            )

    def leaf(self, sample, prob: float) -> None:
        key = tuple(sorted(int(k) for k in sample))
        self.support[key] = self.support.get(key, 0.0) + prob

    def done(self) -> ExactDesignDistribution:
        return ExactDesignDistribution(
            support=self.support,
            N=self.N,
            n=self.n,
            source=self.source,
            pruned_mass=self.pruned,
        )


def _estimate_branches(kind: DesignKind, N: int, n: int) -> int:
    if kind is DesignKind.SRSWOR:
        return math.comb(N, n)
    if kind is DesignKind.CHAO:
        return (n + 1) ** (N - n)
    if kind is DesignKind.TILLE_ELIMINATION:
        return math.perm(N, N - n)
    # Midzuno and Brewer both run at most n selection steps.
    return math.perm(N, n)


def enumerate_design(
    kind: DesignKind,
    *,
    x: np.ndarray | None = None,
    pi: InclusionProbabilities | None = None,
    n: int | None = None,
    N: int | None = None,
    max_branches: int = DEFAULT_MAX_BRANCHES,
) -> ExactDesignDistribution:
    """Exact sample distribution of a design, by exhaustive tree walk.

    Stream order for Chao is the population order.  Raises
    EnumerationBudgetError when the worst-case branch count exceeds
    ``max_branches`` and InvalidInputError for populations larger than
    ``MAX_ENUM_N``.
    """
    if pi is None and kind is not DesignKind.SRSWOR:
        if x is None or n is None:
            raise InvalidInputError(f"{kind.value} needs pi, or x and n")
        pi = compute_pips(np.asarray(x, dtype=float), int(n))
    if kind is DesignKind.SRSWOR:
        if pi is not None:
            N, n = pi.N, pi.n
        if N is None or n is None:
            raise InvalidInputError("srswor needs N and n (or pi)")
    else:
        N, n = pi.N, pi.n
        if kind in (DesignKind.CHAO, DesignKind.TILLE_ELIMINATION) and x is not None:
            sizes_giving(kind, pi, x)
    if N > MAX_ENUM_N:
        raise InvalidInputError(
            f"exact enumeration supports N <= {MAX_ENUM_N}, got {N}"
        )
    if _estimate_branches(kind, N, n) > max_branches:
        raise EnumerationBudgetError(
            f"{kind.value} enumeration needs more than {max_branches} branches"
        )
    walk = _Walk(N, n, f"{kind.value}(N={N},n={n})", max_branches)

    if kind is DesignKind.SRSWOR:
        p = 1.0 / math.comb(N, n)
        for s in combinations(range(N), n):
            walk.visit()
            walk.leaf(s, p)
        return walk.done()
    if kind is DesignKind.CHAO:
        _walk_chao(walk, np.asarray(x if x is not None else pi.pi, dtype=float), pi)
        return walk.done()
    if kind is DesignKind.TILLE_ELIMINATION:
        _walk_tille(walk, np.asarray(x if x is not None else pi.pi, dtype=float), pi)
        return walk.done()
    if kind is DesignKind.GENERALIZED_MIDZUNO:
        _walk_midzuno(walk, pi)
        return walk.done()
    if kind is DesignKind.BREWER:
        _walk_brewer(walk, pi)
        return walk.done()
    raise InvalidInputError(f"unknown design kind {kind!r}")


def _dense_steps(ladder: Ladder, name: str, what: str) -> list[np.ndarray]:
    """Dense per-unit law of each step of an elimination ladder,
    ``1 - min(1, lam_i x) / min(1, lam_{i+1} x)`` for every unit, built
    from the plan's rungs independently of the sampler's pick."""
    rungs = [ladder.pi(s) for s in range(ladder.steps + 1)]
    cols = []
    for j in range(ladder.steps):
        col = 1.0 - rungs[j + 1] / rungs[j]
        if float(col.min()) < -1e-12:
            raise ContractViolationError(
                f"{name} ladder: negative {what} probability at i={ladder.N - 1 - j}"
            )
        cols.append(np.clip(col, 0.0, None))
    return cols


def _walk_chao(walk: _Walk, x: np.ndarray, pi: InclusionProbabilities) -> None:
    plan = chao_plan(x, pi.n)
    steps = walk.N - walk.n
    # Dense rungs over the stream prefixes: ratios[j][k] is
    # 1 - pi_k(t) / pi_k(t-1) for arrival t = n+1+j and k < t-1.
    rungs = [plan.ladder.pi(s, walk.n + s) for s in range(steps + 1)]
    ratios = [1.0 - rungs[j + 1][:-1] / rungs[j] for j in range(steps)]

    def rec(j: int, reservoir: tuple[int, ...], prob: float) -> None:
        walk.visit()
        if j == steps:
            walk.leaf(reservoir, prob)
            return
        a = float(rungs[j + 1][-1])
        w = _check_sum(ratios[j][list(reservoir)], a, f"chao step {walk.n + 1 + j}")
        reject = 1.0 - a
        if reject >= PRUNE_TOL:
            rec(j + 1, reservoir, prob * reject)
        elif reject > 0.0:
            walk.pruned += prob * reject
        for idx in range(len(reservoir)):
            p = float(w[idx])
            if p < PRUNE_TOL:
                walk.pruned += prob * p
                continue
            nxt = reservoir[:idx] + (walk.n + j,) + reservoir[idx + 1 :]
            rec(j + 1, nxt, prob * p)

    rec(0, tuple(range(walk.n)), 1.0)


def _walk_tille(walk: _Walk, sizes: np.ndarray, pi: InclusionProbabilities) -> None:
    elim = _dense_steps(tille_plan(sizes, pi.n), "tille", "elimination")

    def rec(j: int, alive: tuple[int, ...], prob: float) -> None:
        walk.visit()
        if j == len(elim):
            walk.leaf(alive, prob)
            return
        w = elim[j][list(alive)]
        if abs(float(w.sum()) - 1.0) > STEP_SUM_TOL:
            raise ContractViolationError(
                f"tille step i={walk.N - 1 - j}: elimination mass {w.sum()!r} != 1"
            )
        for idx, k in enumerate(alive):
            p = float(w[idx])
            if p < PRUNE_TOL:
                walk.pruned += prob * p
                continue
            rec(j + 1, alive[:idx] + alive[idx + 1 :], prob * p)

    rec(0, tuple(range(walk.N)), 1.0)


def _walk_midzuno(walk: _Walk, pi: InclusionProbabilities) -> None:
    plan = midzuno_plan(pi)
    certain = tuple(int(k) for k in plan.certain)
    n_active = plan.n - len(certain)

    if n_active == plan.active.size:
        walk.visit()
        walk.leaf(certain + tuple(int(k) for k in plan.active), 1.0)
        return
    if n_active == 0:
        walk.visit()
        walk.leaf(certain, 1.0)
        return
    select = _dense_steps(plan.ladder, "midzuno", "selection")

    def rec(j: int, pool: tuple[int, ...], chosen: tuple[int, ...], prob: float) -> None:
        walk.visit()
        if j == len(select):
            walk.leaf(certain + tuple(int(plan.active[c]) for c in chosen), prob)
            return
        w = select[j][list(pool)]
        if abs(float(w.sum()) - 1.0) > STEP_SUM_TOL:
            raise ContractViolationError(
                f"midzuno step {j + 1}: selection mass {w.sum()!r} != 1"
            )
        for idx, k in enumerate(pool):
            p = float(w[idx])
            if p < PRUNE_TOL:
                walk.pruned += prob * p
                continue
            rec(j + 1, pool[:idx] + pool[idx + 1 :], chosen + (k,), prob * p)

    rec(0, tuple(range(plan.active.size)), (), 1.0)


def _walk_brewer(walk: _Walk, pi: InclusionProbabilities) -> None:
    certain = tuple(int(k) for k in np.flatnonzero(pi.certain))
    active0 = np.flatnonzero(~pi.certain)
    p0 = pi.pi[active0]
    draws = walk.n - len(certain)

    def rec(t: int, active: np.ndarray, cur: np.ndarray, chosen: tuple[int, ...], prob: float) -> None:
        walk.visit()
        if t > draws:
            walk.leaf(certain + chosen, prob)
            return
        r = draws - t + 1
        w = cur * (r - cur) / (1.0 - cur)
        total = float(w.sum())
        if total <= 0.0:
            raise ContractViolationError(f"brewer step {t}: no drawable unit")
        alphas = w / total
        for idx in range(active.size):
            p = float(alphas[idx])
            if p < PRUNE_TOL:
                walk.pruned += prob * p
                continue
            keep = np.arange(cur.size) != idx
            nxt = cur[keep] * ((r - 1.0) / (r - cur[idx]))
            rec(
                t + 1,
                active[keep],
                nxt,
                chosen + (int(active[idx]),),
                prob * p,
            )

    if draws == 0:
        walk.visit()
        walk.leaf(certain, 1.0)
    else:
        rec(1, active0, p0, (), 1.0)


# ---------------------------------------------------------------------------
# Structural checks against an exact distribution.


@dataclass(frozen=True)
class CsygReport:
    """Result of the conditional negative-dependence scan.

    ``max_violation`` is the largest value of
    pi_{kl|I} - pi_{k|I} pi_{l|I} over all conditioning sets I with
    |I| <= n - 2 and pairs {k, l} outside I; nonpositive means the
    inequality system holds.  ``max_violation_ratio`` is the equivalent
    scan of pi_{k|I,l} - pi_{k|I}.  Conditioning sets with probability
    at most the skip tolerance are skipped and counted.
    """

    max_violation: float
    witness: tuple | None
    checked_count: int
    skipped_sets: int
    max_violation_ratio: float
    witness_ratio: tuple | None


def check_csyg(
    dist: ExactDesignDistribution, skip_tol: float = 1e-12
) -> CsygReport:
    """Scan every conditional pairwise inequality of a fixed-size design."""
    if not dist.fixed_size:
        raise InvalidInputError("the conditional scan needs a fixed-size design")
    N, n = dist.N, dist.n
    f = subset_probabilities(dist, min(n, max(n - 2, 0) + 2))
    max_v = -math.inf
    max_r = -math.inf
    wit = wit_r = None
    checked = 0
    skipped = 0
    for p in range(0, max(n - 1, 0)):
        for I in combinations(range(N), p):
            fI = f.get(I, 0.0)
            if fI <= skip_tol:
                skipped += 1
                continue
            rest = [k for k in range(N) if k not in I]
            for k, l in combinations(rest, 2):
                fk = f.get(tuple(sorted(I + (k,))), 0.0)
                fl = f.get(tuple(sorted(I + (l,))), 0.0)
                fkl = f.get(tuple(sorted(I + (k, l))), 0.0)
                v = fkl / fI - (fk / fI) * (fl / fI)
                checked += 1
                if v > max_v:
                    max_v, wit = v, (I, k, l)
                for a, b, fb in ((k, l, fl), (l, k, fk)):
                    if fb > skip_tol:
                        r = fkl / fb - (f.get(tuple(sorted(I + (a,))), 0.0) / fI)
                        if r > max_r:
                            max_r, wit_r = r, (I + (b,), a)
    return CsygReport(
        max_violation=max_v,
        witness=wit,
        checked_count=checked,
        skipped_sets=skipped,
        max_violation_ratio=max_r,
        witness_ratio=wit_r,
    )


def check_pairwise_na(dist: ExactDesignDistribution) -> float:
    """Largest pairwise indicator covariance; nonpositive everywhere
    means negatively correlated inclusions."""
    pi1, pi2 = first_second_order(dist)
    N = dist.N
    worst = -math.inf
    for k in range(N):
        for l in range(k + 1, N):
            worst = max(worst, pi2[k, l] - pi1[k] * pi1[l])
    return worst


def unbiasedness_check(
    dist: ExactDesignDistribution, y: np.ndarray, pi: np.ndarray
) -> float:
    """|E t_hat - t_y| under the exact distribution."""
    y = np.asarray(y, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if y.size != dist.N or pi.size != dist.N:
        raise InvalidInputError("y and pi must have one entry per unit")
    yc = y / pi
    t_y = float(y.sum())
    e = sum(p * float(yc[list(s)].sum()) for s, p in dist.support.items())
    return abs(e - t_y)


def midzuno_complementarity_tv(
    pi: InclusionProbabilities, max_branches: int = DEFAULT_MAX_BRANCHES
) -> float:
    """TV distance between Midzuno(pi) and the complement of the
    elimination procedure run on 1 - pi.

    The two should coincide exactly; certainty units are held out of the
    complementary run and reinserted into every sample.
    """
    mid = enumerate_design(
        DesignKind.GENERALIZED_MIDZUNO, pi=pi, max_branches=max_branches
    )
    certain = np.flatnonzero(pi.certain)
    active = np.flatnonzero(~pi.certain)
    n_active = pi.n - certain.size
    if n_active == 0 or n_active == active.size:
        # No randomness; Midzuno already is the unique sample.
        only = tuple(sorted(int(k) for k in certain)) if n_active == 0 else tuple(
            sorted(int(k) for k in np.concatenate([certain, active]))
        )
        other = ExactDesignDistribution(
            support={only: 1.0}, N=pi.N, n=pi.n, source="degenerate"
        )
        return mid.tv_distance(other)
    comp_sizes = 1.0 - pi.pi[active]
    m = active.size - n_active
    sub_pi = compute_pips(comp_sizes, m)
    sub = enumerate_design(
        DesignKind.TILLE_ELIMINATION, x=comp_sizes, pi=sub_pi, max_branches=max_branches
    )
    support: dict[tuple[int, ...], float] = {}
    base = tuple(int(k) for k in certain)
    for s, p in sub.complement().support.items():
        key = tuple(sorted(base + tuple(int(active[k]) for k in s)))
        support[key] = support.get(key, 0.0) + p
    mapped = ExactDesignDistribution(
        support=support,
        N=pi.N,
        n=pi.n,
        source=f"complement-elimination({sub.source})",
        pruned_mass=sub.pruned_mass,
    )
    return mid.tv_distance(mapped)

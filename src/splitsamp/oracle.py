"""Exact enumeration of the sampling procedures and structural checks.

Every procedure in this package makes a finite sequence of discrete
random choices, and its next choice depends only on the set of units
it has kept, eliminated or drawn so far, whatever the order.  So on
small populations its distribution over samples is computed exactly
one level at a time: a level maps each reachable state to its
probability, every state is expanded by its design's moves, and states
that coincide are merged.  The enumeration budget counts transitions,
one per move out of a state.  The checks below compare the resulting
distribution against what the theory promises: correct first-order
inclusion probabilities, fixed sample size, conditional
negative-dependence inequalities, nonpositive pairwise indicator
covariances, design unbiasedness of the Horvitz-Thompson estimator,
and the complementarity between the Midzuno and elimination
procedures.

The step laws are built here from the plans' rungs and from Brewer's
closed form, not by running the samplers' kernels, so enumeration stays
an independent reference for the samplers.
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
    target_pi,
    tille_plan,
)
from .distribution import (
    ExactDesignDistribution,
    containment,
    first_second_order,
    mask_units,
)
from .errors import (
    ContractViolationError,
    EnumerationBudgetError,
    InvalidInputError,
)
from .population import InclusionProbabilities, compute_pips

# Population ceiling for exact enumeration.
MAX_ENUM_N = 10

# Moves with smaller probability are pruned; their mass is tracked and
# audited.
PRUNE_TOL = 1e-15

DEFAULT_MAX_BRANCHES = 10_000_000


def enumerate_design(
    kind: DesignKind,
    *,
    x: np.ndarray | None = None,
    pi: InclusionProbabilities | None = None,
    n: int | None = None,
    N: int | None = None,
    max_branches: int = DEFAULT_MAX_BRANCHES,
) -> ExactDesignDistribution:
    """Exact sample distribution of a design, level by level over merged
    states.

    Stream order for Chao is the population order.  Raises
    EnumerationBudgetError when the enumeration needs more than
    ``max_branches`` transitions (for SRSWOR, samples), and
    InvalidInputError for populations larger than ``MAX_ENUM_N``, for an
    ``n`` or ``N`` that the pi does not have (see ``target_pi``) and for
    an SRSWOR pi that is not n/N for every unit.
    """
    # Checked before target_pi, so that a huge SRSWOR N allocates nothing.
    size = pi.N if pi is not None else N if N is not None else np.size(x)
    if size > MAX_ENUM_N:
        raise InvalidInputError(
            f"exact enumeration supports N <= {MAX_ENUM_N}, got {size}"
        )
    pi = target_pi(kind, pi, x, n, N)
    N, n = pi.N, pi.n
    if kind is DesignKind.SRSWOR and not pi.is_equal_probability():
        raise InvalidInputError("srswor needs pi = n/N for every unit")
    if kind in (DesignKind.CHAO, DesignKind.TILLE_ELIMINATION) and x is not None:
        sizes_giving(kind, pi, x)
    source = f"{kind.value}(N={N},n={n})"
    if kind is DesignKind.SRSWOR:
        count = math.comb(N, n)
        if count > max_branches:
            raise EnumerationBudgetError(
                f"srswor enumeration needs more than {max_branches} branches"
            )
        support = dict.fromkeys(combinations(range(N), n), 1.0 / count)
        return ExactDesignDistribution(support=support, N=N, n=n, source=source)
    sizes = np.asarray(x if x is not None else pi.pi, dtype=float)
    if kind is DesignKind.CHAO:
        chain = _chao_chain(sizes, n)
    elif kind is DesignKind.TILLE_ELIMINATION:
        chain = _tille_chain(sizes, n)
    elif kind is DesignKind.GENERALIZED_MIDZUNO:
        chain = _midzuno_chain(pi)
    elif kind is DesignKind.BREWER:
        chain = _brewer_chain(pi)
    else:
        raise InvalidInputError(f"unknown design kind {kind!r}")
    support, pruned = _levels(*chain, max_branches)
    return ExactDesignDistribution(
        support=support, N=N, n=n, source=source, pruned_mass=pruned
    )


def _levels(start, steps: int, moves, leaf, max_branches: int):
    """Law of ``leaf(state)`` after ``steps`` levels from ``start``, and
    the pruned mass.

    ``moves(j, state)`` lists the (next state, probability) pairs of step
    j.  Each level holds every reachable state once, with the summed
    probability of all the paths that reach it.
    """
    level = {start: 1.0}
    pruned = 0.0
    transitions = 0
    for j in range(steps):
        nxt: dict = {}
        for state, prob in level.items():
            out = moves(j, state)
            transitions += len(out)
            if transitions > max_branches:
                raise EnumerationBudgetError(
                    f"enumeration needs more than {max_branches} branches (transitions)"
                )
            for child, w in out:
                if w < PRUNE_TOL:
                    pruned += prob * w
                else:
                    nxt[child] = nxt.get(child, 0.0) + prob * w
        level = nxt
    return {leaf(state): p for state, p in level.items()}, pruned


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


def _elimination_moves(cols: list[np.ndarray], context):
    """Moves of an elimination ladder: the state is the tuple of units
    still present, and step j removes unit k with probability
    ``cols[j][k]``."""

    def moves(j: int, alive: tuple[int, ...]):
        w = _check_sum(cols[j][list(alive)], 1.0, context(j)).tolist()
        return [(alive[:i] + alive[i + 1 :], w[i]) for i in range(len(alive))]

    return moves


def _chao_chain(x: np.ndarray, n: int):
    """The state is the reservoir, a sorted tuple of stream positions;
    arrival t = n+1+j is accepted with probability ``a`` and then evicts
    member k with probability ``1 - pi_k(t) / pi_k(t-1)``."""
    plan = chao_plan(x, n)
    steps = plan.N - n
    rungs = [plan.ladder.pi(s, n + s) for s in range(steps + 1)]
    ratios = [1.0 - rungs[j + 1][:-1] / rungs[j] for j in range(steps)]

    def moves(j: int, reservoir: tuple[int, ...]):
        a = float(rungs[j + 1][-1])
        w = _check_sum(ratios[j][list(reservoir)], a, f"chao step {n + 1 + j}").tolist()
        arrival = (n + j,)
        evict = [
            (reservoir[:i] + reservoir[i + 1 :] + arrival, w[i])
            for i in range(len(reservoir))
        ]
        return [(reservoir, 1.0 - a)] + evict

    return tuple(range(n)), steps, moves, lambda reservoir: reservoir


def _tille_chain(sizes: np.ndarray, n: int):
    elim = _dense_steps(tille_plan(sizes, n), "tille", "elimination")
    N = sizes.size
    moves = _elimination_moves(elim, lambda j: f"tille step i={N - 1 - j}")
    return tuple(range(N)), len(elim), moves, lambda alive: alive


def _midzuno_chain(pi: InclusionProbabilities):
    """Tille's moves on Midzuno's ladder over 1 - pi of the active
    units: the units it eliminates are the ones Midzuno selects."""
    plan = midzuno_plan(pi)
    certain = plan.certain.tolist()
    active = plan.active.tolist()

    def leaf(alive: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(certain + [k for i, k in enumerate(active) if i not in alive])

    everyone = tuple(range(len(active)))
    if plan.ladder is None:
        # No draw is random: every active unit is selected, or none.
        return (() if plan.n > len(certain) else everyone), 0, None, leaf
    select = _dense_steps(plan.ladder, "midzuno", "selection")
    moves = _elimination_moves(select, lambda j: f"midzuno step {j + 1}")
    return everyone, len(select), moves, leaf


def _brewer_chain(pi: InclusionProbabilities):
    """The state is the sorted tuple of active units drawn so far.

    With d draws after the certainty units, drawing the set S leaves
    every undrawn unit at ``p_k (d - |S|) / (d - sum_{j in S} p_j)``,
    whatever the order of the draws, which is where step-by-step
    rescaling by ``(r - 1) / (r - p_j)`` lands.
    """
    certain = np.flatnonzero(pi.certain).tolist()
    active = np.flatnonzero(~pi.certain)
    p = pi.pi[active]
    d = pi.n - len(certain)

    def moves(j: int, drawn: tuple[int, ...]):
        r = d - j
        left = np.ones(p.size, dtype=bool)
        left[list(drawn)] = False
        undrawn = np.flatnonzero(left)
        cur = p[undrawn] * (r / (d - float(p[list(drawn)].sum())))
        w = cur * (r - cur) / (1.0 - cur)
        alphas = _check_sum(w / w.sum(), 1.0, f"brewer step {j + 1}").tolist()
        return [
            (tuple(sorted(drawn + (k,))), a)
            for k, a in zip(undrawn.tolist(), alphas)
        ]

    return (), d, moves, lambda drawn: tuple(certain + active[list(drawn)].tolist())


# ---------------------------------------------------------------------------
# Structural checks against an exact distribution.


@dataclass(frozen=True)
class CsygReport:
    """Result of the conditional negative-dependence scan.

    ``max_violation`` is the largest value of
    pi_{kl|I} - pi_{k|I} pi_{l|I} over all conditioning sets I with
    |I| <= n - 2 and pairs {k, l} outside I, and ``witness`` is its
    (I, k, l); nonpositive means the inequality system holds.
    ``max_violation_ratio`` is the equivalent scan of
    pi_{k|I,l} - pi_{k|I}, and ``witness_ratio`` its (I + l, k), with
    both conditioning sets sorted.  Conditioning sets with probability
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
    """Scan every conditional pairwise inequality of a fixed-size design,
    one pair {k, l} at a time over all its conditioning sets."""
    if not dist.fixed_size:
        raise InvalidInputError("the conditional scan needs a fixed-size design")
    f = containment(dist)
    # size[A] = |A|: the sets with bit k are those below 2^k, plus one.
    size = np.zeros(1, dtype=np.int64)
    for _ in range(dist.N):
        size = np.concatenate([size, size + 1])
    eligible = size <= dist.n - 2
    live = np.flatnonzero(eligible & (f > skip_tol))
    max_v = max_r = -math.inf
    wit = wit_r = None
    checked = 0
    for k, l in combinations(range(dist.N), 2):
        bk, bl = 1 << k, 1 << l
        I = live[(live & (bk | bl)) == 0]
        if I.size == 0:
            continue
        checked += I.size
        fI, fk, fl, fkl = f[I], f[I | bk], f[I | bl], f[I | bk | bl]
        v = fkl / fI - (fk / fI) * (fl / fI)
        i = int(v.argmax())
        if v[i] > max_v:
            max_v, wit = float(v[i]), (mask_units(int(I[i])), k, l)
        for a, b, fa, fb in ((k, bl, fk, fl), (l, bk, fl, fk)):
            ok = fb > skip_tol
            r = fkl[ok] / fb[ok] - fa[ok] / fI[ok]
            if r.size and r.max() > max_r:
                i = int(r.argmax())
                max_r, wit_r = float(r[i]), (mask_units(int(I[ok][i]) | b), a)
    return CsygReport(
        max_violation=max_v,
        witness=wit,
        checked_count=checked,
        skipped_sets=int(np.count_nonzero(eligible)) - live.size,
        max_violation_ratio=max_r,
        witness_ratio=wit_r,
    )


def check_pairwise_na(dist: ExactDesignDistribution) -> float:
    """Largest pairwise indicator covariance; nonpositive everywhere
    means negatively correlated inclusions."""
    pi1, pi2 = first_second_order(dist)
    cov = pi2 - np.outer(pi1, pi1)
    return float(cov[np.triu_indices(dist.N, 1)].max(initial=-math.inf))


def unbiasedness_check(
    dist: ExactDesignDistribution, y: np.ndarray, pi: np.ndarray
) -> float:
    """|E t_hat - t_y| under the exact distribution, where E t_hat is
    the sum over units of y_k / pi_k times P(k in S)."""
    y = np.asarray(y, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if y.size != dist.N or pi.size != dist.N:
        raise InvalidInputError("y and pi must have one entry per unit")
    pi1, _ = first_second_order(dist)
    return abs(float(pi1 @ (y / pi)) - float(y.sum()))


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

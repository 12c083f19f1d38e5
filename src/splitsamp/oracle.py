"""Exact enumeration of the sampling procedures and structural checks.

Every procedure in this package makes a finite sequence of discrete
random choices, and its next choice depends only on the set of units
it has kept, eliminated or drawn so far, whatever the order.  So on
small populations its distribution over samples is computed exactly
one level at a time.  A state is an int bitmask of population units,
and a level is an array of distinct states with their probabilities.
One array pass expands a whole level by its design's moves, one row per
state, and merges the children that coincide.  The enumeration budget
counts transitions, one per move out of a state.  The checks below
compare the resulting distribution against what the theory promises:
correct first-order inclusion probabilities, fixed sample size,
conditional negative-dependence inequalities, nonpositive pairwise
indicator covariances, design unbiasedness of the Horvitz-Thompson
estimator, and the complementarity between the Midzuno and elimination
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
    members,
    set_sizes,
)
from .errors import (
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
        masks = np.flatnonzero(set_sizes(N) == n)
        return ExactDesignDistribution(masks, np.full(count, 1.0 / count), N, n, source)
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
    start, steps, moves, flip = chain
    masks, probs, pruned = _levels(start, steps, moves, max_branches)
    return ExactDesignDistribution(masks ^ flip, probs, N, n, source, pruned)


def _levels(start: int, steps: int, moves, max_branches: int):
    """Level reached after ``steps`` steps from the state ``start``: its
    bitmask states, their probabilities, and the pruned mass.

    ``moves(j, masks)`` gives step j's children and their probabilities
    as two blocks with one row per state, a child of -1 with probability
    0 where a state has no such move.  Each level holds every reachable
    state once, with the summed probability of all the paths that reach
    it.
    """
    masks, probs = np.array([start], dtype=np.int64), np.ones(1)
    pruned = 0.0
    transitions = 0
    for j in range(steps):
        children, w = moves(j, masks)
        transitions += int(np.count_nonzero(children >= 0))
        if transitions > max_branches:
            raise EnumerationBudgetError(
                f"enumeration needs more than {max_branches} branches (transitions)"
            )
        mass = probs[:, None] * w
        small = w < PRUNE_TOL
        pruned += float(mass[small].sum())
        masks, merged = np.unique(children[~small], return_inverse=True)
        probs = np.bincount(merged, weights=mass[~small])
    return masks, probs, pruned


def _rung_ratios(ladder: Ladder) -> tuple[np.ndarray, np.ndarray]:
    """The dense rungs of an elimination ladder, one row per rung, and
    the per-unit law of each step, ``1 - pi_k(s+1) / pi_k(s)``, built
    from the plan's rungs apart from the sampler's pick.  A unit already
    at 0 gets 0, as no state with mass holds it; ``_remove`` checks the
    law of the units a state holds."""
    rungs = np.array([ladder.pi(s) for s in range(ladder.steps + 1)])
    ratios = np.ones((ladder.steps, ladder.N))
    np.divide(rungs[1:], rungs[:-1], out=ratios, where=rungs[:-1] > 0)
    return rungs, 1.0 - ratios


def _remove(masks: np.ndarray, col: np.ndarray, context: str, expected: float = 1.0):
    """Moves that remove one unit k present in the state, with
    probability ``col[k]``; the present units' law must sum to
    ``expected``."""
    bits = 1 << np.arange(col.size)
    present = (masks[:, None] & bits) != 0
    w = _check_sum(np.where(present, col, 0.0), expected, context)
    return np.where(present, masks[:, None] ^ bits, -1), w


def _chao_chain(x: np.ndarray, n: int):
    """The state is the reservoir of stream positions.  Arrival t = n+j
    joins it, and then it leaves with probability ``1 - a``, ``a`` its
    capped share, or member k leaves with probability ``1 - pi_k(t) /
    pi_k(t-1)``; the members' law sums to ``a``."""
    ladder = chao_plan(x, n).ladder
    # A unit counts as capped before its arrival, so its ratio is 0 there.
    rungs, ratios = _rung_ratios(ladder)

    def moves(j: int, masks: np.ndarray):
        t, a = n + j, float(rungs[j + 1, n + j])
        kids, w = _remove(masks, ratios[j, :t], f"chao step {t + 1}", a)
        stay = np.full((masks.size, 1), 1.0 - a)
        return np.hstack([kids | (1 << t), masks[:, None]]), np.hstack([w, stay])

    return (1 << n) - 1, ladder.steps, moves, 0


def _tille_chain(sizes: np.ndarray, n: int):
    """The state is the units still present; step j removes one."""
    elim = _rung_ratios(tille_plan(sizes, n))[1]
    N = sizes.size

    def moves(j: int, masks: np.ndarray):
        return _remove(masks, elim[j], f"tille step i={N - 1 - j}")

    return (1 << N) - 1, len(elim), moves, 0


def _midzuno_chain(pi: InclusionProbabilities):
    """Tille's moves on Midzuno's ladder over 1 - pi of the active
    units: the state is the active units still present, and the ones
    it eliminates are the ones Midzuno selects, so the sample is the
    state XOR (active | certain)."""
    plan = midzuno_plan(pi)
    active = int(np.sum(1 << plan.active))
    flip = active | int(np.sum(1 << plan.certain))
    if plan.ladder is None:
        # No draw is random: every active unit is selected, or none.
        return (0 if plan.n > plan.certain.size else active), 0, None, flip
    select = np.zeros((plan.ladder.steps, pi.N))
    select[:, plan.active] = _rung_ratios(plan.ladder)[1]

    def moves(j: int, masks: np.ndarray):
        return _remove(masks, select[j], f"midzuno step {j + 1}")

    return active, len(select), moves, flip


def _brewer_chain(pi: InclusionProbabilities):
    """The state is the drawn set, starting at the certainty units.

    With d draws after the certainty units, drawing the set S of active
    units leaves every undrawn unit at ``p_k (d - |S|) / (d - sum_{j in
    S} p_j)``, whatever the order of the draws, which is where
    step-by-step rescaling by ``(r - 1) / (r - p_j)`` lands.
    """
    bits = 1 << np.arange(pi.N)
    p = np.where(pi.certain, 0.0, pi.pi)
    d = pi.n - int(np.count_nonzero(pi.certain))

    def moves(j: int, masks: np.ndarray):
        r = d - j
        drawn = (masks[:, None] & bits) != 0
        undrawn = ~drawn & ~pi.certain
        cur = undrawn * p * (r / (d - (drawn * p).sum(axis=1, keepdims=True)))
        w = cur * (r - cur) / (1.0 - cur)
        w /= w.sum(axis=1, keepdims=True)
        alphas = _check_sum(w, 1.0, f"brewer step {j + 1}")
        return np.where(undrawn, masks[:, None] | bits, -1), alphas

    return int(np.sum(bits[pi.certain])), d, moves, 0


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
    eligible = set_sizes(dist.N) <= dist.n - 2
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

    Both sides step through the same ladder: ``midzuno_plan`` builds
    ``_elimination_ladder(1 - pi_active, N' - n')``, and the
    complementary run reaches the same call through ``tille_plan``.  So
    a nonzero distance shows a divergence between the two enumeration
    paths (Midzuno's chain with its XOR to the sample, against Tille's
    chain and the complement), not a wrong Midzuno law, which both
    sides would share.
    """
    mid = enumerate_design(
        DesignKind.GENERALIZED_MIDZUNO, pi=pi, max_branches=max_branches
    )
    certain = np.flatnonzero(pi.certain)
    active = np.flatnonzero(~pi.certain)
    n_active = pi.n - certain.size
    if n_active == 0 or n_active == active.size:
        # No randomness: Midzuno selects the certainty units, or all units.
        only = int(np.sum(1 << (certain if n_active == 0 else np.arange(pi.N))))
        return mid.tv_distance(ExactDesignDistribution([only], [1.0], pi.N, pi.n))
    comp_sizes = 1.0 - pi.pi[active]
    sub_pi = compute_pips(comp_sizes, active.size - n_active)
    sub = enumerate_design(
        DesignKind.TILLE_ELIMINATION, x=comp_sizes, pi=sub_pi, max_branches=max_branches
    )
    # Bit i of a complementary sample is active unit i.
    comp = members(((1 << active.size) - 1) ^ sub.masks, active.size)
    masks = comp @ (1 << active) | int(np.sum(1 << certain))
    source = f"complement-elimination({sub.source})"
    return mid.tv_distance(
        ExactDesignDistribution(masks, sub.probs, pi.N, pi.n, source, sub.pruned_mass)
    )

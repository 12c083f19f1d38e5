"""Exact enumeration of the sampling procedures and structural checks.

Every procedure in this package makes a finite sequence of discrete
random choices, and its next choice depends only on the set of units
it has kept, eliminated or drawn so far, whatever the order.  So on
small populations its distribution over samples is computed exactly
one level at a time.  A state is an int bitmask of population units,
and a level is an array of distinct states with their probabilities.
One array pass expands a whole level by its design's moves, one row per
state, and merges the children that coincide with one ``np.bincount``
over the bitmasks, whose nonzero slots are the next level in order.
The enumeration budget counts transitions, one per move out of a state.
The checks below compare the resulting distribution against what the
theory promises: correct first-order inclusion probabilities, fixed
sample size, conditional negative-dependence inequalities (their row at
the empty conditioning set gives the pairwise indicator covariances),
design unbiasedness of the Horvitz-Thompson estimator, and the
complementarity between the Midzuno and elimination procedures.

The step laws are built here from the plans' rungs and from Brewer's
closed form, not by running the samplers' kernels, so enumeration stays
an independent reference for the samplers.  The plans, the probability
ladders, are the samplers' own: Chao, Tille and Midzuno take theirs from
``designs._plan`` and name their steps as the samplers do
(``designs._step_label``).  They share one elimination chain over a
ladder, one unit leaving per step, and the complementarity check runs it
once more on the Midzuno ladder its enumeration kept, with bit i for
active unit i.  Brewer's chain builds no plan.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .designs import (
    DesignKind,
    Ladder,
    _check_sum,
    _plan,
    _step_label,
    target_pi,
)
from .distribution import (
    MAX_MASK_N,
    ExactDesignDistribution,
    _first_order,
    containment,
    mask_units,
    members,
    set_sizes,
)
from .errors import (
    EnumerationBudgetError,
    InvalidInputError,
)
from .population import InclusionProbabilities

# Population ceiling for exact enumeration.
MAX_ENUM_N = 10

# Moves with smaller probability are pruned; their mass is tracked and
# audited.
PRUNE_TOL = 1e-15

# The conditional scan skips conditioning sets of at most this
# probability.
_SKIP_TOL = 1e-12

DEFAULT_MAX_BRANCHES = 10_000_000

# Bit k of a mask, for every unit k a mask can hold.
_BITS = 1 << np.arange(MAX_MASK_N, dtype=np.int64)

# Cells, one pair with one conditioning set each, that one array pass of
# the conditional scan covers.  A block of pairs holds about this many.
_CSYG_BLOCK_CELLS = 1 << 10


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
    ``n``, ``N`` or ``x`` that does not give the pi (``target_pi``
    checks them as the samplers' do) and for an SRSWOR pi that is not
    n/N for every unit.  Chao and Tille given pi alone enumerate the
    ladder of pi's capped shares, as their samplers draw it.
    """
    # Checked before target_pi, so that a huge SRSWOR N allocates nothing.
    # x, like pi, has one entry per unit, so a given N that it does not
    # have is left to target_pi to name.
    size = pi.N if pi is not None else np.size(x) if x is not None else N or 0
    if size > MAX_ENUM_N:
        raise InvalidInputError(
            f"exact enumeration supports N <= {MAX_ENUM_N}, got {size}"
        )
    pi = target_pi(kind, pi, x, n, N)
    N, n = pi.N, pi.n
    if kind is DesignKind.SRSWOR and not pi.is_equal_probability():
        raise InvalidInputError("srswor needs pi = n/N for every unit")
    if kind is DesignKind.SRSWOR:
        count = math.comb(N, n)
        if count > max_branches:
            raise EnumerationBudgetError(
                f"srswor enumeration needs more than {max_branches} branches"
            )
        masks = np.flatnonzero(set_sizes(N) == n)
        return ExactDesignDistribution(masks, np.full(count, 1.0 / count), N, n)
    if kind is DesignKind.BREWER:
        chain = _brewer_chain(pi)
    elif kind is DesignKind.GENERALIZED_MIDZUNO:
        chain = _midzuno_chain(pi)
    else:
        # Chao or Tille; target_pi raised for an unknown kind.
        ladder = _plan(kind, pi, x)
        start = n if kind is DesignKind.CHAO else N
        chain = _ladder_chain(ladder, _BITS[:N], start, _step_label(kind, N, n), 0)
    masks, probs, pruned = _samples(*chain, max_branches)
    return ExactDesignDistribution(masks, probs, N, n, pruned)


def _samples(start: int, steps: int, moves, flip: int, max_branches: int):
    """A chain's samples, sorted, with their probabilities and the
    pruned mass: its last level's states XOR its ``flip``."""
    masks, probs, pruned = _levels(start, steps, moves, max_branches)
    if masks.size == 1:
        # Every path reaches this sample, so it holds all the mass not
        # pruned, not the float sum of its paths.
        probs = np.array([1.0 - pruned])
    if flip:
        # Every state is a subset of flip, so the XOR reverses their order.
        masks, probs = masks[::-1], probs[::-1]
    return masks ^ flip, probs, pruned


def _levels(start: int, steps: int, moves, max_branches: int):
    """Level reached after ``steps`` steps from the state ``start``: its
    bitmask states, their probabilities, and the pruned mass.

    ``moves(j, masks)`` gives step j's children and their probabilities
    as two blocks with one row per state, a child of -1 with probability
    0 where a state has no such move.  Each level holds every reachable
    state once, in increasing order, with the summed probability of all
    the paths that reach it: a dense ``np.bincount`` adds them in row
    order, in at most 2^N slots (8 KB at N = 10, 512 KB at N = 16).
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
        keep = ~small
        # Every kept path has mass, so the nonzero slots are the states.
        dense = np.bincount(children[keep], weights=mass[keep])
        masks = np.flatnonzero(dense)
        probs = dense[masks]
    return masks, probs, pruned


def _rung_ratios(ladder: Ladder) -> tuple[np.ndarray, np.ndarray]:
    """The dense rungs of an elimination ladder, one row per rung, and
    the per-unit law of each step, ``1 - pi_k(s+1) / pi_k(s)``, built
    from the plan's rungs apart from the sampler's pick.  A unit already
    at 0 gets 0, as no state with mass holds it; ``_remove`` checks the
    law of the units a state holds."""
    # ``cross`` orders every unit; unit k is capped at rung s when its
    # rank there is at least cross_at[s].
    rank = np.empty(ladder.N, dtype=np.intp)
    rank[ladder.cross] = np.arange(ladder.N)
    capped = rank >= ladder.cross_at[:, None]
    rungs = np.where(capped, 1.0, ladder.lam[:, None] * ladder.x)
    ratios = np.ones((ladder.steps, ladder.N))
    np.divide(rungs[1:], rungs[:-1], out=ratios, where=rungs[:-1] > 0)
    return rungs, 1.0 - ratios


def _remove(masks: np.ndarray, col: np.ndarray, bits: np.ndarray, context: str):
    """Moves that remove one unit present in the state, the unit of bit
    ``bits[i]`` with probability ``col[i]``; the present units' law must
    sum to 1."""
    kids = masks[:, None] ^ bits
    # Flipping a unit's bit lowers the mask exactly when it is present.
    absent = kids > masks[:, None]
    w = _check_sum(np.where(absent, 0.0, col), 1.0, context)
    kids[absent] = -1
    return kids, w


def _ladder_chain(ladder: Ladder, bits: np.ndarray, present: int, context, flip: int):
    """The elimination chain of a ladder, whose unit i is the state's bit
    ``bits[i]``: the state is the set of units present, and step j
    removes one of them, unit i with its ``_rung_ratios`` column,
    ``1 - pi_i(j+1) / pi_i(j)``.  The first ``present`` units are there
    at the start and the others arrive one per step, in order, as Chao's
    stream does: the ladder counts an arrival as capped until its step,
    so it leaves again with probability 1 minus its capped share.
    ``context(j)`` names step j, and ``flip`` turns a last state into
    its sample."""
    elim = _rung_ratios(ladder)[1]

    def moves(j: int, masks: np.ndarray):
        t = present + j
        if t >= bits.size:
            return _remove(masks, elim[j], bits, context(j))
        # Only the units arrived so far: a column of zeros would regroup
        # the pairwise sum of the level's pruned mass.
        return _remove(masks | bits[t], elim[j, : t + 1], bits[: t + 1], context(j))

    return sum(bits[:present].tolist()), ladder.steps, moves, flip


def _midzuno_chain(pi: InclusionProbabilities):
    """The chain on Midzuno's ladder over 1 - pi of the active units:
    the state is the active units still present, and the ones it
    eliminates are the ones Midzuno selects, so the sample is the state
    XOR every unit, the certainty units included."""
    plan = _plan(DesignKind.GENERALIZED_MIDZUNO, pi)
    step = _step_label(DesignKind.GENERALIZED_MIDZUNO, pi.N, pi.n)
    bits = _BITS[plan.active]
    return _ladder_chain(plan.ladder, bits, bits.size, step, (1 << pi.N) - 1)


def _brewer_chain(pi: InclusionProbabilities):
    """The state is the drawn set, starting at the certainty units.

    With d draws after the certainty units, drawing the set S of active
    units leaves every undrawn unit at ``p_k (d - |S|) / (d - sum_{j in
    S} p_j)``, whatever the order of the draws, which is where
    step-by-step rescaling by ``(r - 1) / (r - p_j)`` lands.
    """
    bits = _BITS[: pi.N]
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
    (I, k, l), with I sorted; nonpositive means the inequality system
    holds.  ``checked_count`` counts the inequalities scanned, and
    conditioning sets with probability at most 1e-12 are skipped and
    counted in ``skipped_sets``.  ``max_covariance`` is the
    largest pi_kl - pi_k pi_l, the scan's row at I = (), computed even
    when n < 2 leaves that row out of the scan, and ``covariance_pair``
    its (k, l); a single unit has no pair, so -inf and None.
    """

    max_violation: float
    witness: tuple | None
    checked_count: int
    skipped_sets: int
    max_covariance: float
    covariance_pair: tuple | None


def check_csyg(dist: ExactDesignDistribution) -> CsygReport:
    """Scan every conditional pairwise inequality of a fixed-size design.

    The pairs {k, l} go in ``combinations`` order, a block of them per
    array pass of ``_csyg_block``, so the witness is the one a scan of
    one pair at a time reports: the first maximum in (pair, I) order.
    The covariance pair is the first maximum in pair order.
    """
    if not dist.fixed_size:
        raise InvalidInputError("the conditional scan needs a fixed-size design")
    f = containment(dist)
    eligible = set_sizes(dist.N) <= dist.n - 2
    live = np.flatnonzero(eligible & (f > _SKIP_TOL))
    ks, ls = _pairs(dist.N)
    # The I = () cells in _csyg_block's expression, so to the bit.
    bk, bl, f0 = 1 << ks, 1 << ls, f[0]
    cov = f[bk | bl] / f0 - (f[bk] / f0) * (f[bl] / f0)
    c = int(cov.argmax()) if cov.size else None
    # A block's grid is its pairs by the live sets, about
    # _CSYG_BLOCK_CELLS cells, and ``tiled`` is the grid's I in row order.
    step = max(1, _CSYG_BLOCK_CELLS // max(live.size, 1))
    tiled = np.tile(live, step)
    max_v, wit, checked = -math.inf, None, 0
    for lo in range(0, ks.size, step):
        cells, (v, I, k, l) = _csyg_block(
            f, live, tiled, ks[lo : lo + step], ls[lo : lo + step]
        )
        checked += cells
        if v > max_v:
            max_v, wit = v, (mask_units(I), k, l)
    return CsygReport(
        max_violation=max_v,
        witness=wit,
        checked_count=checked,
        skipped_sets=int(np.count_nonzero(eligible)) - live.size,
        max_covariance=-math.inf if c is None else float(cov[c]),
        covariance_pair=None if c is None else (int(ks[c]), int(ls[c])),
    )


@functools.lru_cache(maxsize=None)
def _pairs(N: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs k < l of N units in ``combinations`` order, as two
    read-only arrays, built once per N (``containment`` caps N at 20):
    O(N^2), unlike the scan's 2^N tables, which no call keeps."""
    ks, ls = np.triu_indices(N, 1)
    ks.flags.writeable = ls.flags.writeable = False
    return ks, ls


def _csyg_block(f, live, tiled, ks, ls):
    """One array pass of the conditional scan over the pairs (ks[j],
    ls[j]): its cell count and the first maximum of pi_{kl|I} - pi_{k|I}
    pi_{l|I} in (pair, I) order, as (value, I, k, l).  Sets are
    bitmasks, and a block without cells reports -inf.

    The block's arrays live only in this call, so the scan holds one
    block's cells at a time.
    """
    bk, bl = 1 << ks, 1 << ls
    # Each cell's index in the pairs-by-live grid, then its row.
    pair = np.flatnonzero((live & (bk | bl)[:, None]) == 0)
    if pair.size == 0:
        return 0, (-math.inf, 0, 0, 0)
    I = tiled[pair]
    pair //= live.size
    fI, fk, fl, fkl = f[I], f[I | bk[pair]], f[I | bl[pair]], f[I | (bk | bl)[pair]]
    v = fkl / fI
    v -= (fk / fI) * (fl / fI)
    i = int(v.argmax())
    return pair.size, (float(v[i]), int(I[i]), int(ks[pair[i]]), int(ls[pair[i]]))


def unbiasedness_check(
    dist: ExactDesignDistribution, y: np.ndarray, pi: np.ndarray
) -> float:
    """|E t_hat - t_y| under the exact distribution, where E t_hat is
    the sum over units of y_k / pi_k times P(k in S)."""
    y = np.asarray(y, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if y.size != dist.N or pi.size != dist.N:
        raise InvalidInputError("y and pi must have one entry per unit")
    pi1 = _first_order(dist)
    return abs(float(pi1 @ (y / pi)) - float(y.sum()))


def midzuno_complementarity_tv(
    pi: InclusionProbabilities, max_branches: int = DEFAULT_MAX_BRANCHES
) -> float:
    """TV distance between Midzuno(pi) and the complement of the
    elimination procedure run on 1 - pi.

    The two should coincide exactly; certainty units are held out of the
    complementary run and reinserted into every sample.

    Both sides run ``_ladder_chain`` on the same ladder, Midzuno's
    ``_elimination_ladder(1 - pi_active, N' - n')``, the plan the
    enumeration kept (``designs._plan``).  Midzuno's side holds the
    active units at their own bits and XORs every unit onto its states;
    the complementary side holds active unit i at bit i, complements the
    survivors among the active units and spreads the selection over
    their bits.  So a nonzero distance shows a
    divergence between those two readings of the chain, not a wrong
    Midzuno law, which both sides would share.
    """
    mid = enumerate_design(
        DesignKind.GENERALIZED_MIDZUNO, pi=pi, max_branches=max_branches
    )
    plan = _plan(DesignKind.GENERALIZED_MIDZUNO, pi)
    size = plan.active.size
    full = (1 << size) - 1
    chain = _ladder_chain(
        plan.ladder, _BITS[:size], size, lambda j: f"complement step {j + 1}", full
    )
    masks, probs, pruned = _samples(*chain, max_branches)
    # Spreading the bits over the active units keeps the masks' order.
    masks = members(masks, size) @ _BITS[plan.active] | int(np.sum(_BITS[plan.certain]))
    return mid.tv_distance(ExactDesignDistribution(masks, probs, pi.N, pi.n, pruned))

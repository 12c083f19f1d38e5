"""Splitting traces and the splitting representations of designs.

A splitting procedure turns a vector of inclusion probabilities into a
0/1 indicator vector through a sequence of randomized steps.  Each step
offers M candidate updates ``delta^i`` with selection weights
``alpha^i`` satisfying three constraints: the weights sum to one, the
weighted candidate updates sum to zero componentwise (the martingale
property), and every candidate keeps all components inside [0, 1].  One
candidate is drawn per step, and the process stops once every component
is 0 or 1.

The recorded trace is the whole point: its per-step realized increments
are the martingale differences that the tail bounds control, and
``ht_increments`` maps them to the increments of the Horvitz-Thompson
estimator.  A trace's ``steps`` is a sequence whose items may be built
on access: Brewer's traced draws store each step as one common factor
plus the drawn unit (``FactorSteps``), and build a step's dense
``alphas`` and ``realized_delta`` only when it is read.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distribution import ExactDesignDistribution, containment, mask_units, members
from .errors import ContractViolationError, InvalidInputError, RepresentationError

# Candidate weights must sum to one within this tolerance.
ALPHA_SUM_TOL = 1e-10

# The weighted candidate updates must vanish componentwise within this.
MARTINGALE_TOL = 1e-10

# Components may leave [0, 1] by at most this much.
RANGE_TOL = 1e-12

# Reconstruction tolerance: pi0 plus all increments must equal the final
# indicator within this.
FINAL_TOL = 1e-9


@dataclass
class SplittingStep:
    """One executed splitting step: ``alphas`` weighs the candidates, and
    ``realized_delta``, a dense N-vector, is the drawn candidate's update.

    ``deltas`` holds all candidate updates (one row per candidate) when
    the run recorded full candidate sets, else None.
    """

    t: int
    alphas: np.ndarray
    deltas: np.ndarray | None
    chosen: int
    realized_delta: np.ndarray

    @property
    def increment_l1(self) -> float:
        return float(np.abs(self.realized_delta).sum())


@dataclass(eq=False)
class FactorSteps(Sequence):
    """Steps that each move every undrawn unit by one common factor and
    raise the drawn unit to 1, stored in O(M + d).

    Before step t (0-based) every undrawn unit k sits at ``c[t] * p[k]``;
    the step draws ``picks[t]`` and moves the others to ``c[t + 1] *
    p[k]``, and ``c[d] = 0``.  ``units`` maps positions in ``p`` to the
    N-vector, whose other units never move.  ``weight(q, r)`` gives,
    elementwise, the selection weight of an undrawn unit at q = c[t] p
    with r draws left.  An item is a ``SplittingStep`` built on access, in O(N + d);
    iteration builds the items block by block.
    """

    N: int
    units: np.ndarray
    p: np.ndarray
    picks: np.ndarray
    c: np.ndarray
    weight: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __len__(self) -> int:
        return self.picks.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(len(self))[i])
        i = range(len(self))[i]
        return self._block(i, i + 1)[0]

    def __iter__(self):
        # Blocks of about 2**16 dense entries bound the memory a pass holds.
        size = max(1, 2**16 // self.N)
        for start in range(0, len(self), size):
            yield from self._block(start, min(start + size, len(self)))

    def _block(self, i0: int, i1: int) -> list[SplittingStep]:
        """Steps i0..i1-1, each with the floats of its own per-step
        expressions: a row's weights are normalized by their own sum."""
        t = np.arange(i0, i1)
        d, picks = len(self), self.picks[i0:i1]
        c, c_next = self.c[i0:i1, None], self.c[i0 + 1 : i1 + 1, None]
        # Over the N units: base values, 0 for a unit that never moves,
        # and the step that draws each unit, d for one never drawn and -1
        # for one that never moves.
        p = np.zeros(self.N)
        p[self.units] = self.p
        drawn_at = np.full(self.N, -1)
        drawn_at[self.units] = d
        drawn_at[self.units[self.picks]] = np.arange(d)
        undrawn = drawn_at >= t[:, None]
        sizes = self.p.size - t
        w = self.weight(np.compress(undrawn.ravel(), c * p), np.repeat(d - t, sizes))
        dense = np.where(undrawn, (c_next - c) * p, 0.0)
        dense[np.arange(t.size), self.units[picks]] = 1.0 - c[:, 0] * self.p[picks]
        # A pick's place among the undrawn units is k less the earlier
        # picks below it.
        earlier = sorted(self.picks[:i0].tolist())
        sums, steps, end = [], [], 0
        for b, (k, m) in enumerate(zip(picks.tolist(), sizes.tolist())):
            row = w[end : end + m]
            end += m
            sums.append(np.add.reduce(row))
            chosen = k - bisect.bisect_left(earlier, k)
            bisect.insort(earlier, k)
            steps.append(SplittingStep(i0 + b + 1, row, None, chosen, dense[b]))
        # Each step's weights are a view of w, normalized here in place.
        w /= np.repeat(sums, sizes)
        return steps

    def ht_increments(self, yc: np.ndarray) -> np.ndarray:
        """xi_t = (c[t + 1] - c[t]) (sum of y_check p over the units
        undrawn after step t) + y_check_j (1 - c[t] p_j), j the pick."""
        yu = yc[self.units]
        yp = yu * self.p
        drawn = yp[self.picks]
        after = np.add.reduce(yp) - np.cumsum(drawn)
        c = self.c
        return np.diff(c) * after + yu[self.picks] - c[:-1] * drawn


@dataclass
class SplittingTrace:
    """Full record of one splitting run.  ``steps`` is a sequence whose
    items may be built on access (``FactorSteps``)."""

    pi0: np.ndarray
    steps: Sequence[SplittingStep]
    final: np.ndarray

    @property
    def increment_l1(self) -> np.ndarray:
        return np.array([s.increment_l1 for s in self.steps])

    @property
    def selected(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.final == 1).tolist())

    def validate(self) -> None:
        """Re-check every recorded invariant; raises on violation."""
        pi = np.asarray(self.pi0, dtype=float).copy()
        for step in self.steps:
            if abs(float(step.alphas.sum()) - 1.0) > ALPHA_SUM_TOL:
                raise ContractViolationError(
                    f"step {step.t}: weights sum to {step.alphas.sum()!r}"
                )
            if step.deltas is not None:
                _validate_candidates(step.t, pi, step.alphas, step.deltas)
            nxt = pi + step.realized_delta
            if nxt.min() < -RANGE_TOL or nxt.max() > 1.0 + RANGE_TOL:
                raise ContractViolationError(
                    f"step {step.t}: realized update leaves [0, 1]"
                )
            pi = nxt
        if np.max(np.abs(pi - self.final)) > FINAL_TOL:
            raise ContractViolationError(
                "trace increments do not reconstruct the final indicator"
            )
        if not np.all((self.final == 0) | (self.final == 1)):
            raise ContractViolationError("final vector is not an indicator")


def _validate_candidates(
    t: int, pi: np.ndarray, alphas: np.ndarray, deltas: np.ndarray
) -> None:
    if deltas.shape != (alphas.size, pi.size):
        raise ContractViolationError(f"step {t}: candidate shape mismatch")
    drift = alphas @ deltas
    worst = float(np.max(np.abs(drift)))
    if worst > MARTINGALE_TOL:
        raise ContractViolationError(
            f"step {t}: weighted updates drift by {worst!r}, expected 0"
        )
    nxt = pi[None, :] + deltas
    if nxt.min() < -RANGE_TOL or nxt.max() > 1.0 + RANGE_TOL:
        raise ContractViolationError(
            f"step {t}: a candidate leaves the [0, 1] range"
        )


def ht_increments(trace: SplittingTrace, y_check) -> np.ndarray:
    """Estimator increments xi(t) = sum_k y_check_k * delta_k(t), in
    closed form for ``FactorSteps`` and by one dot product per step
    otherwise.

    Their sum telescopes to the Horvitz-Thompson error: HT(final) minus
    the population total (when pi0 matches the probabilities used to
    expand y).
    """
    yc = np.asarray(getattr(y_check, "y_check", y_check), dtype=float)
    if yc.shape != np.asarray(trace.pi0).shape:
        raise InvalidInputError(
            f"y_check has shape {yc.shape}, trace expects {np.asarray(trace.pi0).shape}"
        )
    if isinstance(trace.steps, FactorSteps):
        return trace.steps.ht_increments(yc)
    if not trace.steps:
        return np.zeros(0)
    return np.array([float(s.realized_delta @ yc) for s in trace.steps])


# ---------------------------------------------------------------------------
# Representations built from an explicit distribution (oracle scale).


def _require_fixed_size(dist: ExactDesignDistribution) -> None:
    if not dist.fixed_size:
        raise RepresentationError(
            "distribution is not fixed-size; draw-by-draw needs every "
            "support element to have the target size"
        )


def draw_by_draw_from_distribution(
    dist: ExactDesignDistribution, rng_seed: int
) -> SplittingTrace:
    """Run the draw-by-draw splitting representation of a fixed-size design.

    Step t selects one of the still-undrawn units with probability
    ``pi_{k|drawn} / (n - t + 1)``; the candidate update raises the
    drawn unit to 1 and lowers every other undrawn unit from its old to
    its new conditional inclusion probability.  Exactly n steps run,
    even when they move nothing (certainty units).  Step t picks by
    inverse CDF with uniform t - 1 of the seed's stream (see
    ``designs._uniforms``).
    """
    from .designs import _check_sum, _uniforms

    _require_fixed_size(dist)
    f = containment(dist)
    n = dist.n
    bits = 1 << np.arange(dist.N)
    pi = pi0 = f[bits]
    u = _uniforms([rng_seed], n)[0]
    drawn = 0
    steps: list[SplittingStep] = []
    for t in range(1, n + 1):
        fJ = f[drawn]
        if fJ <= 0.0:
            raise RepresentationError("conditioning event has zero probability")
        remaining = np.flatnonzero((drawn & bits) == 0)
        cond = f[drawn | bits[remaining]] / fJ
        live = remaining[cond > 1e-15]
        taken = drawn | bits[live]
        alphas = _check_sum(f[taken] / fJ / (n - t + 1), 1.0, f"draw-by-draw step {t}")
        # Row i moves every undrawn unit to its conditional probability
        # given drawn + live[i]; live[i] itself lands on f/f = 1.
        deltas = np.zeros((live.size, dist.N))
        after = f[taken[:, None] | bits[remaining]] / f[taken][:, None]
        deltas[:, remaining] = after - cond
        _validate_candidates(t, pi, alphas, deltas)
        cum = np.cumsum(alphas)
        # u < 1 makes u T < T, so the pick is a candidate.
        chosen = int(np.searchsorted(cum, u[t - 1] * cum[-1], side="right"))
        d = deltas[chosen]
        steps.append(
            SplittingStep(
                t=t, alphas=alphas, deltas=deltas, chosen=chosen, realized_delta=d
            )
        )
        pi = pi + d
        drawn = int(taken[chosen])
    final = np.where(pi > 0.5, 1, 0)
    trace = SplittingTrace(pi0=pi0, steps=tuple(steps), final=final)
    if trace.selected != mask_units(drawn):
        raise ContractViolationError("draw-by-draw state diverged from draws")
    return trace


def draw_by_draw_distribution(
    dist: ExactDesignDistribution,
) -> ExactDesignDistribution:
    """Exact distribution of the draw-by-draw representation.

    Enumerated with the oracle's level loop: the state is the bitmask of
    the units drawn so far, since the next draw's law depends on that
    set alone.  Agreement with the input distribution is what makes the
    representation valid.
    """
    from .oracle import DEFAULT_MAX_BRANCHES, _levels

    _require_fixed_size(dist)
    f = containment(dist)
    n = dist.n
    bits = 1 << np.arange(dist.N)

    def moves(t: int, drawn: np.ndarray):
        free = (drawn[:, None] & bits) == 0
        nxt = drawn[:, None] | bits
        w = np.where(free, f[nxt] / f[drawn][:, None] / (n - t), 0.0)
        return np.where(free, nxt, -1), w

    masks, probs, pruned = _levels(0, n, moves, DEFAULT_MAX_BRANCHES)
    source = f"draw-by-draw({dist.source})"
    return ExactDesignDistribution(masks, probs, dist.N, n, source, pruned)


@dataclass
class SequentialNode:
    """Node of the unit-by-unit binary splitting tree.

    ``t`` is the 0-based unit decided at this node; leaves have t == N.
    ``pi`` holds the conditional inclusion probabilities given the
    decisions on units 0..t-1, and ``prob`` the probability of reaching
    this node.  A branch whose probability is zero is absent (None).
    """

    t: int
    pi: np.ndarray
    prob: float
    alpha_take: float = 0.0
    delta_take: np.ndarray | None = None
    delta_skip: np.ndarray | None = None
    take: "SequentialNode | None" = None
    skip: "SequentialNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.take is None and self.skip is None


def sequential_splitting_from_distribution(
    dist: ExactDesignDistribution,
) -> SequentialNode:
    """Binary splitting tree deciding units one by one, in order.

    At each node the take-branch weight is the conditional probability
    that the current unit enters the sample given all earlier decisions;
    both branch updates move every undecided unit to its new conditional
    inclusion probability.  The leaf distribution reproduces the input.
    """
    N = dist.N

    def build(
        t: int, masks: np.ndarray, probs: np.ndarray, prob: float
    ) -> SequentialNode:
        # The samples that agree with the decisions on units 0..t-1.
        pi = probs @ members(masks, N) / probs.sum()
        pi[:t] = members(masks[:1], t)[0]
        node = SequentialNode(t=t, pi=pi, prob=prob)
        if t == N:
            return node
        alpha = float(pi[t])
        node.alpha_take = alpha
        take = ((masks >> t) & 1) == 1
        if alpha > 1e-15:
            child = build(t + 1, masks[take], probs[take], prob * alpha)
            node.take = child
            node.delta_take = child.pi - pi
        if alpha < 1.0 - 1e-15:
            child = build(t + 1, masks[~take], probs[~take], prob * (1.0 - alpha))
            node.skip = child
            node.delta_skip = child.pi - pi
        return node

    return build(0, dist.masks, dist.probs, 1.0)


def sequential_leaf_distribution(
    root: SequentialNode,
) -> ExactDesignDistribution:
    """Collect the leaves of a sequential splitting tree."""
    leaves, stack = [], [root]
    while stack:
        node = stack.pop()
        stack += [child for child in (node.take, node.skip) if child is not None]
        if node.is_leaf:
            leaves.append(node)
    member = np.array([leaf.pi > 0.5 for leaf in leaves])
    masks = member @ (1 << np.arange(root.pi.size))
    probs = [leaf.prob for leaf in leaves]
    n = int(member.sum(axis=1).max())
    return ExactDesignDistribution(masks, probs, root.pi.size, n, "sequential-tree")

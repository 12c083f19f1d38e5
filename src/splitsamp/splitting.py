"""Generic splitting driver and splitting representations of designs.

A splitting procedure turns a vector of inclusion probabilities into a
0/1 indicator vector through a sequence of randomized steps.  Each step
offers M candidate updates ``delta^i`` with selection weights
``alpha^i`` satisfying three constraints: the weights sum to one, the
weighted candidate updates sum to zero componentwise (the martingale
property), and every candidate keeps all components inside [0, 1].  The
driver draws one candidate per step by inverse CDF over the weights,
using a single uniform draw, and stops once every component is 0 or 1.

The recorded trace is the whole point: its per-step realized increments
are the martingale differences that the tail bounds control, and
``ht_increments`` maps them to the increments of the Horvitz-Thompson
estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Protocol

import numpy as np

from .errors import (
    ContractViolationError,
    InvalidInputError,
    RepresentationError,
    RunawayError,
)

if TYPE_CHECKING:
    from .distribution import ExactDesignDistribution

# Candidate weights must sum to one within this tolerance.
ALPHA_SUM_TOL = 1e-10

# The weighted candidate updates must vanish componentwise within this.
MARTINGALE_TOL = 1e-10

# Components may leave [0, 1] by at most this much.
RANGE_TOL = 1e-12

# A component within this distance of 0 or 1 counts as settled.
ZERO_ONE_TOL = 1e-9

# Reconstruction tolerance: pi0 plus all increments must equal the final
# indicator within this.
FINAL_TOL = 1e-9


def categorical_index(rng: np.random.Generator, weights: np.ndarray) -> int:
    """Single inverse-CDF draw over nonnegative weights, in given order.

    Weights in [-RANGE_TOL, 0) are clamped to zero before normalizing;
    anything more negative is an error.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ContractViolationError("empty candidate set")
    lo = float(w.min())
    if lo < -RANGE_TOL:
        raise ContractViolationError(f"negative selection weight {lo!r}")
    if lo < 0.0:
        w = np.clip(w, 0.0, None)
    total = float(w.sum())
    if total <= 0.0:
        raise ContractViolationError("selection weights carry no mass")
    cum = np.cumsum(w / total)
    i = int(np.searchsorted(cum, rng.random(), side="right"))
    return min(i, w.size - 1)


class SplitRule(Protocol):
    """Per-step candidate generator for ``run_splitting``.

    Implementations must be pure functions of (t, pi): ``alphas`` returns
    the selection weights of the M candidates at step t in a fixed
    order, and ``delta(t, pi, i)`` materializes the i-th candidate
    update as a dense vector.  Statelessness keeps runs replayable and
    safe to share across threads.
    """

    def alphas(self, t: int, pi: np.ndarray) -> np.ndarray: ...

    def delta(self, t: int, pi: np.ndarray, i: int) -> np.ndarray: ...


@dataclass
class SplittingStep:
    """One executed splitting step.

    ``deltas`` holds all candidate updates (one row per candidate) when
    the run recorded full candidate sets, else None.
    """

    t: int
    alphas: np.ndarray
    deltas: np.ndarray | None
    chosen: int
    realized_delta: np.ndarray

    @property
    def alpha_chosen(self) -> float:
        return float(self.alphas[self.chosen])

    @property
    def treated(self) -> np.ndarray:
        """Indices whose probability actually moved at this step."""
        return np.flatnonzero(self.realized_delta != 0.0)

    @property
    def increment_l1(self) -> float:
        return float(np.abs(self.realized_delta).sum())


@dataclass
class SplittingTrace:
    """Full record of one splitting run."""

    pi0: np.ndarray
    steps: tuple[SplittingStep, ...]
    final: np.ndarray

    @property
    def increment_l1(self) -> np.ndarray:
        return np.array([s.increment_l1 for s in self.steps])

    @property
    def selected(self) -> tuple[int, ...]:
        return tuple(int(k) for k in np.flatnonzero(self.final == 1))

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

    def dump(self) -> str:
        """One line per step: ``t;alpha_chosen;l1_increment``."""
        lines = [
            f"{s.t};{s.alpha_chosen!r};{s.increment_l1!r}" for s in self.steps
        ]
        return "\n".join(lines) + ("\n" if lines else "")


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


def run_splitting(
    rule: SplitRule,
    pi0,
    rng_seed: int,
    record: str = "full",
) -> SplittingTrace:
    """Drive a splitting rule from pi0 to a 0/1 vector and record it.

    Args:
        rule: candidate generator (see SplitRule).
        pi0: starting probabilities; InclusionProbabilities or vector.
        rng_seed: seed for the single-uniform-per-step branch draws.
        record: "full" keeps every candidate update per step and checks
            the martingale and range constraints before drawing;
            "realized" keeps only the realized branch (cheaper, used for
            long runs) and checks what it can.

    Returns:
        SplittingTrace whose ``final`` is the sampled indicator vector.
    """
    if record not in ("full", "realized"):
        raise InvalidInputError(f"record must be 'full' or 'realized', got {record!r}")
    pi = np.array(getattr(pi0, "pi", pi0), dtype=float)
    if pi.ndim != 1 or pi.size == 0:
        raise InvalidInputError("pi0 must be a non-empty vector")
    start = pi.copy()
    rng = np.random.default_rng(rng_seed)
    N = pi.size
    budget = N * max(int(round(float(pi.sum()))), 1) + N
    steps: list[SplittingStep] = []
    t = 0
    while True:
        unfinished = (pi > ZERO_ONE_TOL) & (pi < 1.0 - ZERO_ONE_TOL)
        if not unfinished.any():
            break
        t += 1
        if t > budget:
            raise RunawayError(
                f"splitting did not finish within {budget} steps"
            )
        alphas = np.asarray(rule.alphas(t, pi), dtype=float)
        if abs(float(alphas.sum()) - 1.0) > ALPHA_SUM_TOL:
            raise ContractViolationError(
                f"step {t}: weights sum to {alphas.sum()!r}, expected 1"
            )
        if record == "full":
            deltas = np.stack(
                [np.asarray(rule.delta(t, pi, i), dtype=float) for i in range(alphas.size)]
            )
            _validate_candidates(t, pi, alphas, deltas)
            chosen = categorical_index(rng, alphas)
            d = deltas[chosen]
        else:
            deltas = None
            chosen = categorical_index(rng, alphas)
            d = np.asarray(rule.delta(t, pi, chosen), dtype=float)
            nxt = pi + d
            if nxt.min() < -RANGE_TOL or nxt.max() > 1.0 + RANGE_TOL:
                raise ContractViolationError(
                    f"step {t}: realized update leaves [0, 1]"
                )
        steps.append(
            SplittingStep(
                t=t, alphas=alphas, deltas=deltas, chosen=chosen, realized_delta=d
            )
        )
        pi = pi + d
    final = np.where(pi > 0.5, 1, 0)
    return SplittingTrace(pi0=start, steps=tuple(steps), final=final)


def ht_increments(trace: SplittingTrace, y_check) -> np.ndarray:
    """Estimator increments xi(t) = sum_k y_check_k * delta_k(t).

    Their sum telescopes to the Horvitz-Thompson error: HT(final) minus
    the population total (when pi0 matches the probabilities used to
    expand y).
    """
    yc = np.asarray(getattr(y_check, "y_check", y_check), dtype=float)
    if yc.shape != np.asarray(trace.pi0).shape:
        raise InvalidInputError(
            f"y_check has shape {yc.shape}, trace expects {np.asarray(trace.pi0).shape}"
        )
    if not trace.steps:
        return np.zeros(0)
    return np.array([float(s.realized_delta @ yc) for s in trace.steps])


# ---------------------------------------------------------------------------
# Representations built from an explicit distribution (oracle scale).


def _subset_probs(dist: "ExactDesignDistribution") -> dict[tuple[int, ...], float]:
    from .distribution import subset_probabilities

    return subset_probabilities(dist, dist.n)


def _require_fixed_size(dist: "ExactDesignDistribution") -> None:
    if not dist.fixed_size:
        raise RepresentationError(
            "distribution is not fixed-size; draw-by-draw needs every "
            "support element to have the target size"
        )


def draw_by_draw_from_distribution(
    dist: "ExactDesignDistribution", rng_seed: int
) -> SplittingTrace:
    """Run the draw-by-draw splitting representation of a fixed-size design.

    Step t selects one of the still-undrawn units with probability
    ``pi_{k|drawn} / (n - t + 1)``; the candidate update raises the
    drawn unit to 1 and lowers every other undrawn unit from its old to
    its new conditional inclusion probability.  Exactly n steps run,
    even when they move nothing (certainty units).
    """
    _require_fixed_size(dist)
    f = _subset_probs(dist)
    N, n = dist.N, dist.n
    pi0 = np.zeros(N)
    for (k,), p in ((s, p) for s, p in f.items() if len(s) == 1):
        pi0[k] = p
    rng = np.random.default_rng(rng_seed)

    pi = pi0.copy()
    drawn: list[int] = []
    steps: list[SplittingStep] = []
    for t in range(1, n + 1):
        key = tuple(sorted(drawn))
        fJ = f.get(key, 0.0)
        if fJ <= 0.0:
            raise RepresentationError("conditioning event has zero probability")
        remaining = [k for k in range(N) if k not in drawn]
        cond = np.array(
            [f.get(tuple(sorted(drawn + [k])), 0.0) / fJ for k in remaining]
        )
        live = [i for i in range(len(remaining)) if cond[i] > 1e-15]
        alphas = np.array([cond[i] / (n - t + 1) for i in live])
        deltas = np.zeros((len(live), N))
        for row, i in enumerate(live):
            unit = remaining[i]
            keyi = tuple(sorted(drawn + [unit]))
            fJi = f.get(keyi, 0.0)
            for j, other in enumerate(remaining):
                if other == unit:
                    continue
                after = f.get(tuple(sorted(drawn + [unit, other])), 0.0) / fJi
                deltas[row, other] = after - cond[j]
            deltas[row, unit] = 1.0 - cond[i]
        _validate_candidates(t, pi, alphas, deltas)
        chosen = categorical_index(rng, alphas)
        d = deltas[chosen]
        steps.append(
            SplittingStep(
                t=t, alphas=alphas, deltas=deltas, chosen=chosen, realized_delta=d
            )
        )
        pi = pi + d
        drawn.append(remaining[live[chosen]])
    final = np.where(pi > 0.5, 1, 0)
    trace = SplittingTrace(pi0=pi0, steps=tuple(steps), final=final)
    if sorted(trace.selected) != sorted(drawn):
        raise ContractViolationError("draw-by-draw state diverged from draws")
    return trace


def draw_by_draw_distribution(
    dist: "ExactDesignDistribution",
) -> "ExactDesignDistribution":
    """Exact distribution of the draw-by-draw representation.

    Enumerated with the oracle's level loop: the state is the sorted set
    of units drawn so far, since the next draw's law depends on that set
    alone.  Agreement with the input distribution is what makes the
    representation valid.
    """
    from .distribution import ExactDesignDistribution
    from .oracle import DEFAULT_MAX_BRANCHES, _levels

    _require_fixed_size(dist)
    f = _subset_probs(dist)
    N, n = dist.N, dist.n

    def moves(t: int, drawn: tuple[int, ...]):
        fJ = f[drawn]
        nxt = (tuple(sorted(drawn + (k,))) for k in range(N) if k not in drawn)
        return [(key, f.get(key, 0.0) / fJ / (n - t)) for key in nxt]

    support, pruned = _levels((), n, moves, lambda drawn: drawn, DEFAULT_MAX_BRANCHES)
    return ExactDesignDistribution(
        support=support,
        N=N,
        n=n,
        source=f"draw-by-draw({dist.source})",
        pruned_mass=pruned,
    )


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
    dist: "ExactDesignDistribution",
) -> SequentialNode:
    """Binary splitting tree deciding units one by one, in order.

    At each node the take-branch weight is the conditional probability
    that the current unit enters the sample given all earlier decisions;
    both branch updates move every undecided unit to its new conditional
    inclusion probability.  The leaf distribution reproduces the input.
    """
    N = dist.N
    items = [(frozenset(s), p) for s, p in dist.support.items()]

    def conditional(prefix_in: frozenset[int], t: int) -> tuple[float, np.ndarray]:
        total = 0.0
        pi = np.zeros(N)
        for s, p in items:
            if (s & _PREFIX[t]) != prefix_in:
                continue
            total += p
            for k in s:
                pi[k] += p
        if total > 0.0:
            pi /= total
        for k in prefix_in:
            pi[k] = 1.0
        return total, pi

    _PREFIX = [frozenset(range(t)) for t in range(N + 1)]

    def build(t: int, prefix_in: frozenset[int], prob: float) -> SequentialNode:
        total, pi = conditional(prefix_in, t)
        node = SequentialNode(t=t, pi=pi, prob=prob)
        if t == N:
            return node
        alpha = float(pi[t])
        node.alpha_take = alpha
        if alpha > 1e-15:
            child = build(t + 1, prefix_in | {t}, prob * alpha)
            node.take = child
            node.delta_take = child.pi - pi
        if alpha < 1.0 - 1e-15:
            child = build(t + 1, prefix_in, prob * (1.0 - alpha))
            node.skip = child
            node.delta_skip = child.pi - pi
        return node

    return build(0, frozenset(), 1.0)


def sequential_leaf_distribution(
    root: SequentialNode,
) -> "ExactDesignDistribution":
    """Collect the leaves of a sequential splitting tree."""
    from .distribution import ExactDesignDistribution

    acc: dict[tuple[int, ...], float] = {}
    stack = [root]
    N = root.pi.size
    n = 0
    while stack:
        node = stack.pop()
        if node.is_leaf:
            key = tuple(int(k) for k in np.flatnonzero(node.pi > 0.5))
            acc[key] = acc.get(key, 0.0) + node.prob
            n = max(n, len(key))
        else:
            if node.take is not None:
                stack.append(node.take)
            if node.skip is not None:
                stack.append(node.skip)
    return ExactDesignDistribution(support=acc, N=N, n=n, source="sequential-tree")

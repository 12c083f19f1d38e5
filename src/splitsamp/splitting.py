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
plus the drawn unit (``FactorSteps``), and build a step's
``alphas`` and dense ``realized_delta`` only when that step is read.

Every fixed-size design has two splitting representations, run here
from its exact distribution: draw-by-draw, one unit drawn per step
(``draw_by_draw_from_distribution``, a reference sampler), and the
unit-by-unit tree, unit t decided at depth t and stored as N + 1 levels
of arrays (``SplittingLevel``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

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


@dataclass(eq=False)
class FactorSteps(Sequence):
    """Steps that each move every undrawn unit by one common factor and
    raise the drawn unit to 1, stored in O(M + d).

    Before step t (0-based) every undrawn unit k sits at ``c[t] * p[k]``;
    the step draws ``picks[t]`` and moves the others to ``c[t + 1] *
    p[k]``, and ``c[d] = 0``.  ``units`` maps positions in ``p`` to the
    N-vector, whose other units never move.  An undrawn unit at
    q = c[t] p with r draws left has Brewer's selection weight
    q (r - q) / (1 - q).  An item is a ``SplittingStep`` built on
    access from its own step's expressions alone, in O(N); iteration
    reads the items one by one, so a pass holds one step at a time.
    """

    N: int
    units: np.ndarray
    p: np.ndarray
    picks: np.ndarray
    c: np.ndarray

    def __len__(self) -> int:
        return self.picks.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(len(self))[i])
        t = range(len(self))[i]
        k = self.picks[t]
        undrawn = np.ones(self.p.size, dtype=bool)
        undrawn[self.picks[:t]] = False
        p, c = self.p[undrawn], self.c[t]
        q = c * p
        w = q * ((len(self) - t - q) / (1.0 - q))
        w /= np.add.reduce(w)
        dense = np.zeros(self.N)
        dense[self.units[undrawn]] = (self.c[t + 1] - c) * p
        dense[self.units[k]] = 1.0 - c * self.p[k]
        # The pick's place among the undrawn units.
        chosen = int(np.count_nonzero(undrawn[:k]))
        return SplittingStep(t + 1, w, None, chosen, dense)

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

    if not dist.fixed_size:
        raise RepresentationError(
            "distribution is not fixed-size; draw-by-draw needs every "
            "support element to have the target size"
        )
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


class SplittingLevel(NamedTuple):
    """Level t of the unit-by-unit splitting tree, one row per node: a
    decision on units 0..t-1 that has positive mass.

    ``masks`` (sorted) holds the units each node takes, ``probs`` the
    probability of reaching it, and ``pi`` (nodes x N) the conditional
    inclusion probabilities given the decisions, decided units exactly
    0 or 1.  Node i takes unit t with weight ``pi[i, t]``; its take child
    is the row of level t + 1 with mask ``masks[i] | 1 << t``, its skip
    child the row with mask ``masks[i]``.
    """

    masks: np.ndarray
    probs: np.ndarray
    pi: np.ndarray


def sequential_splitting_from_distribution(
    dist: ExactDesignDistribution,
) -> tuple[SplittingLevel, ...]:
    """The N + 1 levels of the binary splitting tree that decides units
    one by one, in order.

    Each level is one pass over the samples: group them by their
    decisions on units 0..t-1, and sum the masses and weighted
    memberships per group.  A branch update moves every undecided unit to
    its new conditional inclusion probability.  The last level is the
    input's masks and probabilities.
    """
    N = dist.N
    weighted = (dist.probs[:, None] * members(dist.masks, N)).ravel()
    levels = []
    for t in range(N + 1):
        masks, node = np.unique(dist.masks & ((1 << t) - 1), return_inverse=True)
        probs = np.bincount(node, weights=dist.probs)
        cells = (node[:, None] * N + np.arange(N)).ravel()
        pi = np.bincount(cells, weights=weighted)
        pi = pi.reshape(-1, N) / probs[:, None]
        pi[:, :t] = members(masks, t)
        levels.append(SplittingLevel(masks, probs, pi))
    return tuple(levels)

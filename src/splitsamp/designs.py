"""Fixed-size unequal-probability sampling procedures.

Five procedures are implemented: simple random sampling without
replacement as the equal-probability baseline, Chao's reservoir
procedure, Tille's elimination procedure, the generalized Midzuno
selection procedure, and Brewer's draw-by-draw procedure.  All target an
integer sample size and hit their first-order inclusion probabilities
exactly; the oracle module verifies this by exhaustive enumeration on
small populations.

Chao, Tille and Midzuno precompute a "plan" that depends only on the
sizes, so repeated Monte Carlo runs share it: a ladder of capped
probability-proportional-to-size vectors.  Every rung has the form
``min(1, lam x)``, so the plan keeps one lam per rung, the count of
capped units per rung and the order in which units leave the cap:
O(N) memory, built in O(N log N) time.  At a step, every unit below the
cap has the same weight, so a step is one uniform pick among those units
or a pick among the few units that leave the cap there: O(1) work per
replicate, beyond adding each unit to the pick pool once.  All three
walk the ladder as an elimination, one unit leaving per step; Chao's
arrival is such a step, in which the arrival or one reservoir unit
leaves.  Every step's pick is found before the walk, in array passes
whose number does not grow with the steps: one cumulative sum per
distinct count of units crossing the cap at a step, and one bisection
over all picks of a crossing unit.

Each procedure's step is written once, over a batch of replicates: all
rows take a step together as one array operation, and each row draws
its uniforms from its own seed's stream.  A stream is counter-based
(SplitMix64 over a key hashed from the seed), so any block of any rows'
streams is one array pass, and SRSWOR keeps the n units with the
smallest of N uniforms.  A single draw runs the same law for one
row in Python: Brewer's picks in Python floats, the ladder designs' pool
over a Python list.
"""

from __future__ import annotations

import bisect
import enum
import heapq
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ContractViolationError, InvalidInputError, InvalidSizeError
from .population import CERTAINTY_TOL, InclusionProbabilities, compute_pips
from .splitting import RANGE_TOL, FactorSteps, SplittingTrace

# Probabilities that must sum to one may miss by at most this much.
PROB_SUM_TOL = 1e-9


class DesignKind(enum.Enum):
    SRSWOR = "srswor"
    CHAO = "chao"
    TILLE_ELIMINATION = "tille"
    GENERALIZED_MIDZUNO = "midzuno"
    BREWER = "brewer"

    @classmethod
    def from_string(cls, name: str) -> "DesignKind":
        for kind in cls:
            if kind.value == name:
                return kind
        raise InvalidInputError(
            f"unknown design {name!r}; expected one of "
            + ", ".join(k.value for k in cls)
        )


@dataclass(frozen=True)
class Sample:
    """A realized sample: sorted unit indices out of a population of N."""

    selected: tuple[int, ...]
    N: int

    def __post_init__(self) -> None:
        sel = tuple(sorted(int(k) for k in self.selected))
        if len(set(sel)) != len(sel):
            raise InvalidInputError("sample contains repeated indices")
        if sel and (sel[0] < 0 or sel[-1] >= self.N):
            raise InvalidInputError("sample index out of range")
        object.__setattr__(self, "selected", sel)

    @property
    def size(self) -> int:
        return len(self.selected)

    @property
    def indicator(self) -> np.ndarray:
        ind = np.zeros(self.N, dtype=int)
        ind[list(self.selected)] = 1
        return ind


@dataclass(frozen=True)
class Sampler:
    """A design with its precomputation done: ``sampler(seed)`` draws
    one Sample, ``sampler.rows(seeds)`` draws one per seed in lockstep.

    ``draw_rows`` maps a seed sequence to an array with one row of unit
    indices per seed.  Row r reads only the uniforms of seed r's
    counter-based stream (``_uniforms``), in stream order, so it is the
    sample that ``sampler(seeds[r])`` returns.  Seeds are integers in
    [0, 2**128); any other seed raises ``InvalidInputError``.
    """

    N: int
    draw_rows: Callable[[Sequence[int]], np.ndarray]

    def __call__(self, seed: int) -> Sample:
        return Sample(selected=self.rows([seed])[0].tolist(), N=self.N)

    def rows(self, seeds: Sequence[int]) -> np.ndarray:
        """Samples as an R x n array, each row sorted as in ``Sample``."""
        return np.sort(self.draw_rows(seeds), axis=1)


def _check_sum(weights: np.ndarray, expected: float, context: str) -> np.ndarray:
    """Validate probability blocks and clamp rounding noise.

    Each row along the last axis is one block (a 1-D array is a single
    block); every block must be nonnegative and sum to ``expected``.
    """
    w = np.asarray(weights, dtype=float)
    lo = np.ravel(np.minimum.reduce(w, axis=-1, initial=np.inf))
    lo_min = float(lo.min())
    if lo_min < -RANGE_TOL:
        first = float(lo[np.flatnonzero(lo < -RANGE_TOL)[0]])
        raise ContractViolationError(f"{context}: negative probability {first!r}")
    total = np.ravel(np.add.reduce(w, axis=-1))
    # Written so that a NaN total, from weights normalized by a zero
    # sum, fails too.
    off = ~(np.abs(total - expected) <= PROB_SUM_TOL)
    if bool(off.any()):
        raise ContractViolationError(
            f"{context}: probabilities sum to {total[np.flatnonzero(off)[0]]!r}, "
            f"expected {expected!r}"
        )
    return np.maximum(w, 0.0) if lo_min < 0.0 else w


# ---------------------------------------------------------------------------
# Per-seed streams, counter-based: uniform i of seed s is
# (mix(key(s) + (i + 1) GOLDEN) >> 11) 2**-53, the output of SplitMix64
# (Steele, Lea & Flood 2014) i + 1 steps past state key(s).  The key
# folds the seed's 64-bit words, key(s) = mix(lo ^ mix(hi)): mix is a
# bijection with mix(0) = 0, so seeds below 2**64 get distinct keys, and
# seeds that differ by a multiple of GOLDEN do not share a shifted
# stream.  Any block of any rows' streams is one array pass.

SEED_LIMIT = 1 << 128

# SplitMix64's increment and its finalizer's multipliers.
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
MASK64 = (1 << 64) - 1


def splitmix(z: int) -> int:
    """The SplitMix64 finalizer of a state z in [0, 2**64)."""
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def _mix(z: np.ndarray) -> np.ndarray:
    """``splitmix`` in place on a uint64 array."""
    z ^= z >> 30
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    z ^= z >> 31
    return z


def _check_seed(seed) -> int:
    """A seed as a Python int, which must lie in [0, 2**128)."""
    if isinstance(seed, (int, np.integer)) and 0 <= seed < SEED_LIMIT:
        return int(seed)
    raise InvalidInputError(f"seed must be an integer in [0, 2**128), got {seed!r}")


def _key(seed) -> int:
    """The state a seed's stream starts from: mix(lo ^ mix(hi))."""
    seed = _check_seed(seed)
    return splitmix((seed & MASK64) ^ splitmix(seed >> 64))


def _uniforms(seeds: Sequence[int], count: int, start: int = 0) -> np.ndarray:
    """Row r: uniforms ``start`` to ``start + count - 1`` of seed r's
    stream, computed in place on one uint64 block."""
    keys = np.array([_key(s) for s in seeds], dtype=np.uint64)
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64) * GOLDEN
    z = _mix(keys[:, None] + z)
    z >>= 11
    return np.multiply(z, 2.0**-53, out=z.view(np.float64))


def sample_srswor(N: int, n: int, rng_seed: int) -> Sample:
    """Simple random sampling without replacement, uniform over subsets."""
    draw, _ = make_sampler(DesignKind.SRSWOR, N=N, n=n)
    return draw(rng_seed)


def _srswor_rows(N: int, n: int, seeds: Sequence[int]) -> np.ndarray:
    """Each row's units with the n smallest of its first N uniforms: a
    uniform n-subset, up to ties of probability about N**2 2**-54."""
    return np.argpartition(_uniforms(seeds, N), n - 1, axis=1)[:, :n]


# ---------------------------------------------------------------------------
# Probability ladders: capped size shares min(1, lam x) rung by rung.


@dataclass(frozen=True)
class Ladder:
    """Capped size-proportional probabilities along a run of rungs, in
    O(N) memory.

    Rung s gives unit k the probability ``min(1, lam[s] * x[k])``: its
    ``capped[s]`` capped units sit at 1 and every other unit at
    ``lam[s] * x[k] < 1``.  Step j leads from rung j to rung j + 1.  The
    units present at rung 0 are all capped there (``lam[0]`` is
    infinite); a unit that arrives later, in Chao's stream, counts as
    capped before its arrival step, so an arrival that is uncapped on
    arrival crosses the cap at its own step.  A unit leaves the capped
    set, or crosses the cap, at most once:
    ``cross[cross_at[j]:cross_at[j + 1]]`` are the units that cross at
    step j, and ``cross[cross_at[-1]:]`` are still capped at the last
    rung.
    """

    x: np.ndarray
    lam: np.ndarray
    capped: np.ndarray
    cross: np.ndarray
    cross_at: np.ndarray

    @property
    def N(self) -> int:
        return self.x.size

    @property
    def steps(self) -> int:
        return self.lam.size - 1

    def pi(self, s: int, units: int | None = None) -> np.ndarray:
        """Dense probabilities of rung s over the first ``units`` units."""
        x = self.x[:units]
        p = self.lam[s] * x
        capped = self.cross[self.cross_at[s] :]
        p[capped[capped < x.size]] = 1.0
        return p


def _stays_capped(free: float, c: int, size: float, rest: float) -> bool:
    """Whether the smallest of ``c`` capped units, of this size, keeps its
    cap when ``free`` sample slots fall to the units outside the others:
    the same share test as ``compute_pips``."""
    return (free - c + 1) * size / (rest + size) >= 1.0 - CERTAINTY_TOL


def _elimination_ladder(x: np.ndarray, n: int) -> Ladder:
    """Ladder of the rungs i = N, N-1, ..., n of capped shares of x.

    Going down one rung, units leave the capped set smallest first, so
    they cross in ascending size order and one sort and one sweep build
    the whole ladder: O(N log N) time, O(N) memory.
    """
    N = x.size
    cross = np.argsort(x, kind="stable")
    sizes = x[cross].tolist()
    lam = np.empty(N - n + 1)
    capped = np.empty(N - n + 1, dtype=np.intp)
    lam[0], capped[0] = np.inf, N
    c, rest = N, 0.0
    for s in range(1, N - n + 1):
        i = N - s
        while c and not _stays_capped(i, c, sizes[N - c], rest):
            rest += sizes[N - c]
            c -= 1
        lam[s], capped[s] = (i - c) / rest, c
    return Ladder(x=x, lam=lam, capped=capped, cross=cross, cross_at=N - capped)


def _stream_ladder(xs: np.ndarray, n: int) -> Ladder:
    """Ladder of capped shares at size n of the stream prefixes of
    length n, n+1, ..., N.

    Step j brings in unit n + j at the cap; capped units, the arrival
    among them, leave the cap smallest first as the prefix grows, so a
    min-heap of the capped units builds the ladder in O(N log N) time
    and O(N) memory.
    """
    N = xs.size
    sizes = xs.tolist()
    heap = [(sizes[k], k) for k in range(n)]
    heapq.heapify(heap)
    lam = np.empty(N - n + 1)
    capped = np.empty(N - n + 1, dtype=np.intp)
    lam[0], capped[0] = np.inf, n
    cross: list[int] = []
    cross_at = [0]
    rest = 0.0
    for j in range(N - n):
        heapq.heappush(heap, (sizes[n + j], n + j))
        while heap and not _stays_capped(n, len(heap), heap[0][0], rest):
            size, k = heapq.heappop(heap)
            rest += size
            cross.append(k)
        lam[j + 1], capped[j + 1] = (n - len(heap)) / rest, len(heap)
        cross_at.append(len(cross))
    cross.extend(k for _, k in sorted(heap))
    return Ladder(
        x=xs,
        lam=lam,
        capped=capped,
        cross=np.array(cross, dtype=np.intp),
        cross_at=np.array(cross_at, dtype=np.intp),
    )


def _picks(
    ladder: Ladder, u: np.ndarray, count: np.ndarray, context: Callable[[int], str]
) -> np.ndarray:
    """Check the law of every step as scalars, then turn each row's
    uniform for step j, ``u[:, j]``, into its pick: a position in the
    step's extended pool, where the ``count[j]`` live uncapped units (the
    pool) sit at 0..count[j]-1 and the units crossing the cap follow at
    count[j] + k.

    At step j a crossing unit has weight ``1 - lam[j+1] x_k`` and a pool
    unit ``r = 1 - lam[j+1] / lam[j]``; they must be nonnegative and sum
    to 1.  With that total T and the crossing mass M, u picks a crossing
    unit by inverse CDF when u T falls below M, else pool index
    floor((u T - M) / r).

    The cost does not grow with the number of steps: the cumulative
    crossing weights take one row-wise ``cumsum`` per distinct crossing
    count, and the inverse CDF of every (row, step) pair that picks a
    crossing unit is one bisection over all of them, in as many rounds
    as the largest crossing count has bits.  A row is added up in
    order, so each step's floats and picks are those of a ``cumsum``
    and a ``searchsorted(side="right")`` of that step alone.
    """
    lam = ladder.lam
    at = ladder.cross_at
    m = np.diff(at)
    step_of = np.repeat(np.arange(ladder.steps), m)
    w = 1.0 - lam[1:][step_of] * ladder.x[ladder.cross[: at[-1]]]
    r = 1.0 - np.divide(lam[1:], lam[:-1], out=np.ones(ladder.steps), where=count > 0)
    for weights, step in ((w, step_of), (r, np.arange(ladder.steps))):
        bad = np.flatnonzero(weights < -RANGE_TOL)
        if bad.size:
            raise ContractViolationError(
                f"{context(int(step[bad[0]]))}: negative probability "
                f"{float(weights[bad[0]])!r}"
            )
    w, r = np.maximum(w, 0.0), np.maximum(r, 0.0)
    # Each step's cumulative crossing weights, in w's layout, and its
    # crossing mass, the last of them.
    cum = w.copy()
    for c in np.unique(m[m > 1]).tolist():
        block = at[:-1][m == c, None] + np.arange(c)
        cum[block] = np.cumsum(w[block], axis=1)
    mass = np.zeros(ladder.steps)
    crossing = m > 0
    mass[crossing] = cum[at[1:][crossing] - 1]
    total = mass + count * r
    off = np.abs(total - 1.0) > PROB_SUM_TOL
    if bool(off.any()):
        j = int(np.argmax(off))
        raise ContractViolationError(
            f"{context(j)}: probabilities sum to {total[j]!r}, expected 1.0"
        )
    v = u * total
    pooled = r > 0.0
    q = (v - mass) / np.where(pooled, r, 1.0)
    pos = np.minimum(q, count - 1).astype(np.intp)
    # A lone crossing unit is picked when u T falls below its weight.
    single = np.flatnonzero(m == 1)
    lone = (v[:, single] < mass[single]) | ~pooled[single]
    pos[:, single] = np.where(lone, count[single], pos[:, single])
    # Where several cross, a row picks one when u T falls below their
    # mass or the step has no pool: the k-th, k the count of cumulative
    # weights at most u T, found by binary lifting over the step's
    # slice of cum.
    multi = np.flatnonzero(m > 1)
    rows, col = np.nonzero((v[:, multi] < mass[multi]) | ~pooled[multi])
    j = multi[col]
    target, base, mj = v[rows, j], at[j], m[j]
    k = np.zeros(j.size, dtype=np.intp)
    for b in reversed(range(int(m.max(initial=0)).bit_length())):
        nxt = k + (1 << b)
        below = cum[base + np.minimum(nxt, mj) - 1] <= target
        k = np.where((nxt <= mj) & below, nxt, k)
    pos[rows, j] = count[j] + np.minimum(k, mj - 1)
    return pos


def _eliminate(
    ladder: Ladder, seeds: Sequence[int], context: Callable[[int], str]
) -> tuple[np.ndarray, np.ndarray]:
    """Walk an elimination ladder down, one unit leaving per step and
    row, all rows in lockstep with one uniform per step.

    Each row keeps its live uncapped units in a pool.  ``_picks`` turns
    every row's uniforms into pool positions for all steps at once; the
    walk then appends the units that cross the cap at a step and
    swap-removes the picked unit, O(1) per row beyond the appends; one
    row alone walks a Python list.  Returns the picked units, one column
    per step, and each row's uncapped survivors.
    """
    R, steps = len(seeds), ladder.steps
    at = ladder.cross_at
    # The pool starts empty, and a step adds its crossing units and
    # removes one.
    count = at[:-1] - np.arange(steps)
    pos = _picks(ladder, _uniforms(seeds, steps), count, context)
    at = at.tolist()
    if R == 1:
        cross = ladder.cross.tolist()
        line: list[int] = []
        gone = []
        for j, p in enumerate(pos[0].tolist()):
            line += cross[at[j] : at[j + 1]]
            gone.append(line[p])
            line[p] = line[-1]
            line.pop()
        return np.array([gone], dtype=np.intp), np.array([line], dtype=np.intp)
    rows = np.arange(R)
    pool = np.empty((R, at[-1]), dtype=np.intp)
    picked = np.empty((R, steps), dtype=np.intp)
    for j in range(steps):
        lo, hi = at[j], at[j + 1]
        if hi > lo:
            pool[:, lo - j : hi - j] = ladder.cross[lo:hi]
        p = pos[:, j]
        picked[:, j] = pool[rows, p]
        pool[rows, p] = pool[:, hi - j - 1]
    return picked, pool[:, : at[-1] - steps]


def _survivors(
    ladder: Ladder, seeds: Sequence[int], context: Callable[[int], str]
) -> np.ndarray:
    """Each row's units left at the last rung of ``_eliminate``: its
    uncapped survivors, then the units still capped there."""
    _, kept = _eliminate(ladder, seeds, context)
    capped = np.tile(ladder.cross[ladder.cross_at[-1] :], (len(seeds), 1))
    return np.hstack([kept, capped])


# ---------------------------------------------------------------------------
# Chao's reservoir procedure.


@dataclass(frozen=True)
class ChaoPlan:
    """Stream-order ladder for Chao's procedure.

    Rung s of ``ladder`` holds the capped shares at size n of the first
    n + s stream units, over stream positions.  Step j is the arrival of
    stream unit t = n+1+j, as an elimination: exactly one unit of the
    reservoir and the arrival leaves, the arrival with probability
    ``1 - pi_t(t)`` and reservoir member k with ``1 - pi_k(t) /
    pi_k(t-1)``.  An arrival uncapped at t crosses the cap at its own
    step, so both are ``1 - lam_t x_k`` for a unit that crosses the cap
    at t and ``1 - lam_t / lam_{t-1}`` for every reservoir unit uncapped
    at t-1.
    """

    order: np.ndarray
    n: int
    ladder: Ladder

    @property
    def N(self) -> int:
        return self.order.size


def chao_plan(x: np.ndarray, n: int, order: np.ndarray | None = None) -> ChaoPlan:
    x = np.asarray(x, dtype=float)
    N = x.size
    if order is None:
        order = np.arange(N)
    else:
        if sorted(np.asarray(order).tolist()) != list(range(N)):
            raise InvalidInputError("stream order must be a permutation of 0..N-1")
        order = np.asarray(order, dtype=np.intp)
    if not 1 <= n <= N:
        raise InvalidSizeError(f"invalid size: n={n} outside 1..{N}")
    return ChaoPlan(order=order, n=n, ladder=_stream_ladder(x[order], n))


def _chao_rows(plan: ChaoPlan, seeds: Sequence[int]) -> np.ndarray:
    """One Chao sample per seed, all rows eliminating in lockstep with
    one uniform per arrival: the reservoir left at the end, mapped from
    stream positions to units."""
    kept = _survivors(plan.ladder, seeds, lambda j: f"chao step t={plan.n + 1 + j}")
    return plan.order[kept]


def sample_chao(
    pi: InclusionProbabilities,
    x: np.ndarray,
    rng_seed: int,
    stream_order: np.ndarray | None = None,
) -> Sample:
    """Chao's reservoir procedure for capped pi-proportional-to-size.

    Units arrive one at a time (file order unless ``stream_order`` says
    otherwise).  Arrival t is accepted with its own updated probability
    and, when accepted, evicts a current reservoir member k with
    probability proportional to how much k's updated probability fell.
    Taken together, one unit of the reservoir and the arrival leaves per
    arrival, so a draw walks the stream ladder as an elimination with
    one uniform per arrival: every reservoir unit below the cap fell by
    the same factor, so a step is one uniform pick among them or a pick
    among the units that leave the cap at t, the arrival among them.
    """
    draw, _ = make_sampler(DesignKind.CHAO, pi=pi, x=x, stream_order=stream_order)
    return draw(rng_seed)


# ---------------------------------------------------------------------------
# Tille's elimination procedure.


def tille_plan(sizes: np.ndarray, n: int) -> Ladder:
    """Tille's ladder: rung s holds the capped shares of ``sizes`` at
    sample size N - s, for s = 0..N-n, and step j eliminates one unit.

    Restricted to the units still present, the elimination probability
    ``1 - pi_k(i) / pi_k(i+1)`` is ``1 - lam_i x_k`` for a unit that
    crosses the cap between rungs i+1 and i, ``1 - lam_i / lam_{i+1}``
    for every unit uncapped at rung i+1, and 0 for the rest.
    """
    sizes = np.asarray(sizes, dtype=float)
    N = sizes.size
    if not 1 <= n <= N:
        raise InvalidSizeError(f"invalid size: n={n} outside 1..{N}")
    return _elimination_ladder(sizes, n)


def _tille_rows(plan: Ladder, seeds: Sequence[int]) -> np.ndarray:
    """One Tille sample per seed, all rows eliminating in lockstep with
    one uniform per step."""
    return _survivors(plan, seeds, lambda j: f"tille step i={plan.N - 1 - j}")


def sample_tille(
    pi: InclusionProbabilities, x: np.ndarray, rng_seed: int
) -> Sample:
    """Tille's elimination procedure.

    Walking i from N-1 down to n, eliminates exactly one of the
    still-present units with probability 1 - pi_k(i)/pi_k(i+1), where
    pi(i) are the capped shares of x at size i.  The n survivors form
    the sample.  Every unit below the cap at i+1 shares one elimination
    probability, so a step is one uniform pick among those units or a
    pick among the units that leave the cap at i.
    """
    draw, _ = make_sampler(DesignKind.TILLE_ELIMINATION, pi=pi, x=x)
    return draw(rng_seed)


# ---------------------------------------------------------------------------
# Generalized Midzuno selection.


@dataclass(frozen=True)
class MidzunoPlan:
    """Selection ladder over the non-certainty units.

    ``ladder`` is Tille's ladder run on the complementary probabilities
    1 - pi of the ``active`` units, from N' down to N'-n' (n' the draws
    left after the certainty units); the units it eliminates are the
    ones Midzuno selects.  None when no draw is random.
    """

    N: int
    n: int
    certain: np.ndarray
    active: np.ndarray
    ladder: Ladder | None


def midzuno_plan(pi: InclusionProbabilities) -> MidzunoPlan:
    certain = np.flatnonzero(pi.certain)
    active = np.flatnonzero(~pi.certain)
    n_active = pi.n - certain.size
    if n_active < 0:
        raise InvalidSizeError("more certainty units than the sample size")
    # n_active == 0 or n_active == active.size leave no randomness and
    # need no ladder.
    ladder = None
    if 0 < n_active < active.size:
        ladder = _elimination_ladder(1.0 - pi.pi[active], active.size - n_active)
    return MidzunoPlan(
        N=pi.N, n=pi.n, certain=certain, active=active, ladder=ladder
    )


def _midzuno_rows(plan: MidzunoPlan, seeds: Sequence[int]) -> np.ndarray:
    """One Midzuno sample per seed, all rows selecting in lockstep with
    one uniform per step."""
    R = len(seeds)
    if plan.ladder is not None:
        picked, _ = _eliminate(plan.ladder, seeds, lambda j: f"midzuno step {j + 1}")
        chosen = plan.active[picked]
    elif plan.n - plan.certain.size == plan.active.size:
        chosen = np.tile(plan.active, (R, 1))
    else:
        chosen = np.empty((R, 0), dtype=np.intp)
    return np.hstack([np.tile(plan.certain, (R, 1)), chosen])


def sample_midzuno(pi: InclusionProbabilities, rng_seed: int) -> Sample:
    """Generalized Midzuno procedure.

    Selects n units one at a time; the selection probabilities come from
    the capped shares of the complementary probabilities 1 - pi, so the
    procedure is the complement of Tille elimination applied to 1 - pi
    and shares its ladder and its step.  Certainty units are
    pre-selected.
    """
    draw, _ = make_sampler(DesignKind.GENERALIZED_MIDZUNO, pi=pi)
    return draw(rng_seed)


# ---------------------------------------------------------------------------
# Brewer's procedure.
#
# With d draws after the certainty units, r of them still to make and S
# the active units drawn so far, every undrawn unit sits at q_k = c p_k
# with c = r / (sum(p) - sum_S p): Brewer's step-by-step rescale by
# (r - 1) / (r - p_j) lands there in any draw order.  Its selection
# weight is q g(q), g(q) = (r - q) / (1 - q), and g increases in q for
# r >= 1.  So a pick proposes k with probability p_k / sum(p) from one
# static cumulative sum, rejects it if drawn, and else accepts it with
# probability g(q_k) / g(q_max), q_max the largest undrawn q: an exact
# draw of k with probability proportional to its weight.  Since
# g >= g(0) = r, a pick takes at most B = sum(p) g(q_max) / ((sum(p) -
# sum_S p) r) trials on average; a row whose B exceeds _MAX_TRIALS takes
# the step by inverse CDF over its own weights instead.  A trial spends
# two uniforms of the row's stream, an inverse-CDF step one.

_MAX_TRIALS = 4.0

# Uniforms drawn up front per row and draw; a row that needs more reads
# its stream on.
_UNIFORMS_PER_DRAW = 4


@dataclass(frozen=True)
class BrewerPlan:
    """Brewer's draws over the active units, those below 1 - CERTAINTY_TOL.

    ``p`` holds their probabilities, ``cum`` the cumulative sums of p
    (clamped at 0) that proposals search, ``order`` p's descending
    order, ``total`` sum(p) and ``draws`` the number of draws; the
    ``*_list`` fields repeat ``p``, ``cum`` and ``order`` as Python
    lists for the one-row path.
    """

    certain: np.ndarray
    active: np.ndarray
    p: np.ndarray
    cum: np.ndarray
    order: np.ndarray
    total: float
    draws: int
    p_list: list[float]
    cum_list: list[float]
    order_list: list[int]


def brewer_plan(pi_vec: np.ndarray) -> BrewerPlan:
    """Brewer's plan; checks the weights of the first draw, which every
    row shares."""
    pi_vec = np.asarray(pi_vec, dtype=float)
    certain = pi_vec >= 1.0 - CERTAINTY_TOL
    active = np.flatnonzero(~certain)
    p = pi_vec[active]
    p_list = p.tolist()
    total = math.fsum(p_list)
    draws = round(total)
    if draws > 0:
        first = np.zeros((1, p.size), dtype=bool)
        _brewer_weights(p, first, np.array([draws / total]), draws, 1)
    cum = np.cumsum(np.maximum(p, 0.0))
    order = np.argsort(-p, kind="stable")
    return BrewerPlan(
        certain=np.flatnonzero(certain),
        active=active,
        p=p,
        cum=cum,
        order=order,
        total=total,
        draws=draws,
        p_list=p_list,
        cum_list=cum.tolist(),
        order_list=order.tolist(),
    )


def _g(q, r):
    """A unit's selection weight over its probability q, with r draws to
    make; floats and arrays alike."""
    return (r - q) / (1.0 - q)


def _by_rejection(q_max, g_max, left, total, r):
    """Whether a step is drawn by rejection: q_max < 1 and the bound B on
    its expected trials is at most ``_MAX_TRIALS``.  ``left`` is the
    undrawn p-mass.  A NaN goes to the inverse CDF, whose checks raise."""
    return (q_max < 1.0) & (total * g_max / (left * r) <= _MAX_TRIALS)


def _brewer_weights(
    p: np.ndarray, drawn: np.ndarray, c: np.ndarray, r: int, t: int
) -> tuple[np.ndarray, np.ndarray]:
    """Selection weights of step t, one row per row of ``drawn``: q g(q)
    at q = c p over the undrawn units, 0 at the drawn ones, checked, and
    their cumulative sums."""
    q = c[:, None] * p
    q[drawn] = 0.0
    if t > 1 and float(q.max(initial=0.0)) > 1.0 + PROB_SUM_TOL:
        raise ContractViolationError(
            f"brewer step {t - 1}: intermediate probability above 1"
        )
    w = q * _g(q, r)
    lo = float(w.min(initial=0.0))
    if lo < -RANGE_TOL:
        raise ContractViolationError(
            f"brewer step {t}: negative selection weight {lo!r}"
        )
    if lo < 0.0:
        np.maximum(w, 0.0, out=w)
    cum = np.cumsum(w, axis=1)
    total = cum[:, -1]
    bad = ~(np.isfinite(total) & (total > 0.0))
    if bool(bad.any()):
        raise ContractViolationError(
            f"brewer step {t}: selection weights sum to {float(total[bad][0])!r}"
        )
    return w, cum


def _brewer_fallback(
    p: np.ndarray, drawn: np.ndarray, c: np.ndarray, r: int, u: np.ndarray, t: int
) -> np.ndarray:
    """Inverse-CDF picks of step t for a block of rows, one uniform each:
    the first unit whose cumulative weight passes u times the total.  A
    drawn unit has weight 0, so it is never the pick."""
    _, cum = _brewer_weights(p, drawn, c, r, t)
    # u < 1 makes u T < T, so some unit's cumulative weight passes u T.
    return np.count_nonzero(cum <= (u * cum[:, -1])[:, None], axis=1)


def _brewer_row(plan: BrewerPlan, seed: int) -> list[int]:
    """One row's picks, positions in ``plan.p``, in Python floats."""
    p, cum, order = plan.p_list, plan.cum_list, plan.order_list
    total, d = plan.total, plan.draws
    u = _uniforms([seed], _UNIFORMS_PER_DRAW * d)[0].tolist()
    used = 0
    drawn = bytearray(len(p))
    s = 0.0
    top = 0
    picks = []
    for t in range(1, d + 1):
        r = d - t + 1
        while drawn[order[top]]:
            top += 1
        left = total - s
        c = r / left
        q_max = c * p[order[top]]
        g_max = _g(q_max, r)
        if _by_rejection(q_max, g_max, left, total, r):
            while True:
                if used + 2 > len(u):
                    u += _uniforms([seed], len(u), start=len(u))[0].tolist()
                # u < 1 makes u T < T, so k is a unit.
                k = bisect.bisect_right(cum, u[used] * cum[-1])
                accept = u[used + 1] * g_max
                used += 2
                if not drawn[k] and accept < _g(c * p[k], r):
                    break
        else:
            if used + 1 > len(u):
                u += _uniforms([seed], len(u), start=len(u))[0].tolist()
            block = np.frombuffer(drawn, dtype=bool)[None]
            at = np.array(u[used : used + 1])
            k = int(_brewer_fallback(plan.p, block, np.array([c]), r, at, t)[0])
            used += 1
        drawn[k] = 1
        s += p[k]
        picks.append(k)
    return picks


def _reserve(
    u: np.ndarray, used: np.ndarray, seeds: Sequence[int], rows: np.ndarray, count: int
) -> np.ndarray:
    """``u`` with at least ``count`` unused uniforms in each of ``rows``:
    when one runs short, every row reads its stream on, as far again."""
    width = u.shape[1]
    short = int(used[rows].max()) + count - width
    if short <= 0:
        return u
    return np.hstack([u, _uniforms(seeds, max(short, width), start=width)])


def _brewer_batch(plan: BrewerPlan, seeds: Sequence[int]) -> np.ndarray:
    """Each row's picks, positions in ``plan.p``, one column per draw:
    the law of ``_brewer_row``, all rows in lockstep.  Per row the state
    is a drawn mask, sum_S p and a pointer into p's descending order."""
    R, M, d = len(seeds), plan.p.size, plan.draws
    p, cum, order, total = plan.p, plan.cum, plan.order, plan.total
    u = _uniforms(seeds, _UNIFORMS_PER_DRAW * d)
    used = np.zeros(R, dtype=np.intp)
    drawn = np.zeros(R * M, dtype=bool)
    base = np.arange(R) * M
    s = np.zeros(R)
    top = np.zeros(R, dtype=np.intp)
    picks = np.empty((R, d), dtype=np.intp)
    pick = np.full(R, -1)
    for t in range(1, d + 1):
        r = d - t + 1
        # Only a row that drew its largest undrawn unit moves its pointer.
        moved = np.flatnonzero(order[top] == pick)
        while moved.size:
            top[moved] += 1
            moved = moved[drawn[base[moved] + order[top[moved]]]]
        left = total - s
        c = r / left
        q_max = c * p[order[top]]
        g_max = _g(q_max, r)
        fast = _by_rejection(q_max, g_max, left, total, r)
        slow = np.flatnonzero(~fast)
        if slow.size:
            u = _reserve(u, used, seeds, slow, 1)
            block = drawn.reshape(R, M)[slow]
            pick[slow] = _brewer_fallback(p, block, c[slow], r, u[slow, used[slow]], t)
            used[slow] += 1
        live = np.flatnonzero(fast)
        while live.size:
            u = _reserve(u, used, seeds, live, 2)
            at = used[live]
            k = np.searchsorted(cum, u[live, at] * cum[-1], side="right")
            used[live] += 2
            ok = u[live, at + 1] * g_max[live] < _g(c[live] * p[k], r)
            ok &= ~drawn[base[live] + k]
            pick[live[ok]] = k[ok]
            live = live[~ok]
        drawn[base + pick] = True
        s += p[pick]
        picks[:, t - 1] = pick
    return picks


def _brewer_plan_rows(plan: BrewerPlan, seeds: Sequence[int]) -> np.ndarray:
    """One Brewer sample per seed: one row alone runs ``_brewer_row``."""
    if len(seeds) == 1:
        picks = np.array([_brewer_row(plan, seeds[0])], dtype=np.intp)
    else:
        picks = _brewer_batch(plan, seeds)
    return np.hstack([np.tile(plan.certain, (len(seeds), 1)), plan.active[picks]])


def run_splitting(plan: BrewerPlan, seed: int, pi0: np.ndarray) -> SplittingTrace:
    """Brewer's splitting trace from ``pi0`` along ``_brewer_row``'s
    picks for ``seed``.  Step t draws with c_t = r / (sum(p) - s_{t-1}),
    s_t the p-mass drawn by then, and moves each undrawn unit from
    c_t p_k to c_{t+1} p_k; the trace keeps the picks and the c_t
    (``FactorSteps``), whose weights over the undrawn units are q g(q)."""
    picks = np.array(_brewer_row(plan, seed), dtype=np.intp)
    d = picks.size
    # One sequential cumsum: the floats of the sampler's running s += p_k.
    drawn_before = np.concatenate(([0.0], np.cumsum(plan.p[picks])[:-1]))
    c = np.append(np.arange(d, 0, -1) / (plan.total - drawn_before), 0.0)
    final = np.zeros(len(pi0), dtype=int)
    final[plan.certain] = 1
    final[plan.active[picks]] = 1
    steps = FactorSteps(len(pi0), plan.active, plan.p, picks, c, _selection_weight)
    return SplittingTrace(np.array(pi0, dtype=float), steps, final)


def _selection_weight(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    return q * _g(q, r)


@lru_cache(maxsize=1)
def _traced_plan(key: bytes) -> BrewerPlan:
    """The plan of the last pi traced, keyed on its bytes.  Its traces
    share ``p`` and ``active``, so those are read-only."""
    plan = brewer_plan(np.frombuffer(key))
    plan.p.flags.writeable = plan.active.flags.writeable = False
    return plan


def sample_brewer(
    pi: InclusionProbabilities, rng_seed: int, trace: str | None = None
) -> Sample | tuple[Sample, SplittingTrace]:
    """Brewer's procedure: n dependent draws, one unit per step.

    Args:
        pi: target inclusion probabilities (certainty units allowed;
            they are selected up front and the remaining draws run on
            the rest).
        rng_seed: seed; a draw spends two uniforms per rejection trial,
            or one when it is drawn by inverse CDF.
        trace: None for the plain sample; "realized" returns (sample,
            trace), with the splitting trace of ``run_splitting``.  The
            one-row kernel draws both, so a seed gives one sample either
            way.
    """
    if trace is None:
        draw, _ = make_sampler(DesignKind.BREWER, pi=pi)
        return draw(rng_seed)
    if trace != "realized":
        raise InvalidInputError(f"trace must be None or 'realized', got {trace!r}")
    tr = run_splitting(_traced_plan(pi.pi.tobytes()), rng_seed, pi.pi)
    return Sample(selected=tr.selected, N=pi.N), tr


# ---------------------------------------------------------------------------
# Uniform access for the Monte Carlo harness and the CLI.


def make_sampler(
    kind: DesignKind,
    *,
    pi: InclusionProbabilities | None = None,
    x: np.ndarray | None = None,
    n: int | None = None,
    N: int | None = None,
    stream_order: np.ndarray | None = None,
) -> tuple[Sampler, InclusionProbabilities]:
    """Build a seed -> Sample sampler with all precomputation done once.

    Returns the sampler together with the target inclusion
    probabilities (needed to expand study values), from ``target_pi``.
    """
    pi = target_pi(kind, pi, x, n, N)
    if kind is DesignKind.SRSWOR:
        return Sampler(pi.N, partial(_srswor_rows, pi.N, pi.n)), pi
    if kind is DesignKind.CHAO:
        plan = chao_plan(sizes_giving(kind, pi, x), pi.n, order=stream_order)
        return Sampler(plan.N, partial(_chao_rows, plan)), pi
    if kind is DesignKind.TILLE_ELIMINATION:
        plan = tille_plan(sizes_giving(kind, pi, x), pi.n)
        return Sampler(plan.N, partial(_tille_rows, plan)), pi
    if kind is DesignKind.GENERALIZED_MIDZUNO:
        return Sampler(pi.N, partial(_midzuno_rows, midzuno_plan(pi))), pi
    if kind is DesignKind.BREWER:
        return Sampler(pi.N, partial(_brewer_plan_rows, brewer_plan(pi.pi))), pi
    raise InvalidInputError(f"unknown design kind {kind!r}")


def target_pi(
    kind: DesignKind, pi: InclusionProbabilities | None, x, n: int | None, N: int | None
) -> InclusionProbabilities:
    """The inclusion probabilities a design runs on: ``pi``, else n/N per
    unit for SRSWOR and ``compute_pips(x, n)`` for the other designs.  A
    given ``n`` or ``N`` must agree with them."""
    if pi is None and kind is DesignKind.SRSWOR:
        if N is None or n is None:
            raise InvalidInputError("srswor needs N and n (or pi)")
        pi = InclusionProbabilities(pi=np.full(N, n / N), n=int(n))
    elif pi is None:
        if x is None or n is None:
            raise InvalidInputError(f"{kind.value} needs pi, or x and n")
        pi = compute_pips(np.asarray(x, dtype=float), int(n))
    if n not in (None, pi.n) or N not in (None, pi.N):
        raise InvalidInputError(f"pi has n={pi.n}, N={pi.N}, not n={n}, N={N}")
    return pi


def sizes_giving(
    kind: DesignKind, pi: InclusionProbabilities, x: np.ndarray | None
) -> np.ndarray:
    """The sizes a size-driven design (Chao, Tille) draws with, checked
    against the pi its caller expands with: they must give that pi as
    ``compute_pips(x, n)``, or the design would silently sample another
    one."""
    if x is None:
        raise InvalidInputError(f"{kind.value} needs the size vector x")
    x = np.asarray(x, dtype=float)
    if x.size != pi.N:
        raise InvalidInputError("x and pi must have equal length")
    if float(np.max(np.abs(compute_pips(x, pi.n).pi - pi.pi))) > PROB_SUM_TOL:
        raise InvalidInputError(
            "pi does not match the capped size shares of x at size n"
        )
    return x

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
replicate, beyond adding each unit to the pick pool once.

Each procedure's step is written once, over a batch of replicates: all
rows take a step together as one array operation, and each row draws
its uniforms from its own seed.  A single draw is the batch of one.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ContractViolationError, InvalidInputError, InvalidSizeError
from .population import CERTAINTY_TOL, InclusionProbabilities, compute_pips
from .splitting import (
    RANGE_TOL,
    ZERO_ONE_TOL,
    SplittingStep,
    SplittingTrace,
    run_splitting,  # not called here: bench/workloads.py patches designs.run_splitting
)

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
    indices per seed.  Row r is built from the stream of
    ``default_rng(seeds[r])`` alone, so it is the sample that
    ``sampler(seeds[r])`` returns.  Seeds are integers in [0, 2**128);
    any other seed raises ``InvalidInputError``.
    """

    N: int
    draw_rows: Callable[[Sequence[int]], np.ndarray]

    def __call__(self, seed: int) -> Sample:
        return Sample(selected=tuple(self.rows([seed])[0]), N=self.N)

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
# Per-seed streams: the state default_rng(seed) starts in, for a whole
# batch of seeds at once.
#
# default_rng(seed) hashes the seed with numpy's SeedSequence into a pool
# of four uint32 words and seeds PCG64 from that pool; NEP 19 keeps both
# stable.  A seed below 2**128 fills at most the four pool words, and a
# missing word hashes as a zero word would, so every such seed hashes as
# its four little-endian words.  The hashes use a fixed chain of
# constants, so they run here as array operations over all seeds.

SEED_LIMIT = 1 << 128

_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_chain(init: int, mult: int, count: int) -> tuple[list[int], list[int]]:
    """The (xor, multiplier) constants of ``count`` successive hashmix
    calls: call k xors with h_k and multiplies by h_{k+1} = h_k * mult."""
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & _MASK32)
    return h[:-1], h[1:]


def _cross_hash(xor: list[int], mul: list[int], src: int) -> tuple[np.ndarray, ...]:
    """Constants for hashing pool word ``src`` once for each other word,
    in word order, as 4-wide rows with zeros at ``src``."""
    cols = [k for k in range(4) if k != src]
    pairs = (np.zeros(4, dtype=np.uint32), np.zeros(4, dtype=np.uint32))
    for row, chain in zip(pairs, (xor, mul)):
        row[cols] = chain[4 + 3 * src : 7 + 3 * src]
    return pairs


# Mixing the pool takes 4 hashes of the seed words, then 3 per pool word,
# one for each other word; generating the state takes 8.
_POOL_CHAIN = _hash_chain(0x43B0D7E5, 0x931E8875, 4 + 4 * 3)
_POOL_HASH = tuple(np.array(c[:4], dtype=np.uint32) for c in _POOL_CHAIN)
_CROSS_HASH = tuple(_cross_hash(*_POOL_CHAIN, src) for src in range(4))
_STATE_HASH = tuple(
    np.array(c, dtype=np.uint32) for c in _hash_chain(0x8B51F9DD, 0x58F38DED, 8)
)
_XSHIFT = np.uint32(16)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)


def _hashmix(v: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mul
    v ^= v >> _XSHIFT
    return v


def _check_seed(seed) -> int:
    """A seed as a Python int, which must lie in [0, 2**128)."""
    if isinstance(seed, (int, np.integer)) and 0 <= seed < SEED_LIMIT:
        return int(seed)
    raise InvalidInputError(f"seed must be an integer in [0, 2**128), got {seed!r}")


def _pcg64_states(seeds: Sequence[int]) -> list[tuple[int, int]]:
    """The PCG64 (state, increment) of ``default_rng(seed)`` per seed.

    Row r of the pool holds seed r's four words.  Pool word ``src`` is
    hashed once for each other word and mixed into it; ``mix(x, y)`` is
    ``L x - R y`` with an xor-shift, and the mix leaves word ``src``
    itself as it was.  The pool then hashes into a 128-bit seed s and
    stream i, and PCG64 starts from 0 with increment 2i + 1, steps, adds
    s and steps again.
    """
    raw = b"".join(_check_seed(s).to_bytes(16, "little") for s in seeds)
    pool = _hashmix(np.frombuffer(raw, dtype="<u4").reshape(-1, 4), *_POOL_HASH)
    for src, consts in enumerate(_CROSS_HASH):
        mixed = pool * _MIX_MULT_L
        mixed -= _hashmix(pool[:, src, None], *consts) * _MIX_MULT_R
        mixed ^= mixed >> _XSHIFT
        mixed[:, src] = pool[:, src]
        pool = mixed
    words = _hashmix(np.tile(pool, 2), *_STATE_HASH)
    # Little-endian word pairs make the 64-bit halves of the PCG64 seed
    # and increment, high half first.
    halves = words.astype("<u4").view("<u8").T.tolist()
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*halves):
        inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
        state = (((s_hi << 64) | s_lo) + inc) * _PCG64_MULT + inc
        states.append((state & _MASK128, inc))
    return states


def _streams(seeds: Sequence[int]) -> Iterator[np.random.Generator]:
    """Per seed, a generator in the state ``default_rng(seed)`` starts
    in.  One generator serves all seeds: built from the first seed, it is
    reset to each later seed's state in turn, so use it up before taking
    the next."""
    if len(seeds) == 0:
        return
    rng = np.random.default_rng(_check_seed(seeds[0]))
    yield rng
    if len(seeds) == 1:
        return
    for state, inc in _pcg64_states(seeds[1:]):
        rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def _uniforms(seeds: Sequence[int], count: int) -> np.ndarray:
    """Row r: the first ``count`` uniforms of ``default_rng(seeds[r])``,
    the values that ``count`` successive ``rng.random()`` calls return."""
    u = np.empty((len(seeds), count))
    for row, rng in zip(u, _streams(seeds)):
        rng.random(out=row)
    return u


def sample_srswor(N: int, n: int, rng_seed: int) -> Sample:
    """Simple random sampling without replacement, uniform over subsets."""
    draw, _ = make_sampler(DesignKind.SRSWOR, N=N, n=n)
    return draw(rng_seed)


def _srswor_rows(N: int, n: int, seeds: Sequence[int]) -> np.ndarray:
    rows = np.empty((len(seeds), n), dtype=np.intp)
    for row, rng in zip(rows, _streams(seeds)):
        row[:] = rng.choice(N, size=n, replace=False)
    return rows


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
    infinite); a unit that arrives later, in Chao's stream, is capped on
    arrival or never.  A unit leaves the capped set, or crosses the cap,
    at most once: ``cross[cross_at[j]:cross_at[j + 1]]`` are the units
    that cross at step j, and ``cross[cross_at[-1]:]`` are still capped
    at the last rung.
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


def _stream_ladder(xs: np.ndarray, n: int) -> tuple[Ladder, np.ndarray]:
    """Ladder of capped shares at size n of the stream prefixes of
    length n, n+1, ..., N, and the acceptance probability of each
    arrival.

    A new unit may join the capped set on arrival; capped units leave it
    smallest first as the prefix grows, so a min-heap of the capped units
    builds the ladder in O(N log N) time and O(N) memory.
    """
    N = xs.size
    sizes = xs.tolist()
    heap = [(sizes[k], k) for k in range(n)]
    heapq.heapify(heap)
    lam = np.empty(N - n + 1)
    capped = np.empty(N - n + 1, dtype=np.intp)
    lam[0], capped[0] = np.inf, n
    accept = np.empty(N - n)
    cross: list[int] = []
    cross_at = [0]
    rest = 0.0
    for j in range(N - n):
        new = n + j
        heapq.heappush(heap, (sizes[new], new))
        new_capped = True
        while heap and not _stays_capped(n, len(heap), heap[0][0], rest):
            size, k = heapq.heappop(heap)
            rest += size
            if k == new:
                new_capped = False
            else:
                cross.append(k)
        lam[j + 1], capped[j + 1] = (n - len(heap)) / rest, len(heap)
        cross_at.append(len(cross))
        accept[j] = 1.0 if new_capped else lam[j + 1] * sizes[new]
    cross.extend(k for _, k in sorted(heap))
    ladder = Ladder(
        x=xs,
        lam=lam,
        capped=capped,
        cross=np.array(cross, dtype=np.intp),
        cross_at=np.array(cross_at, dtype=np.intp),
    )
    return ladder, accept


def _picks(
    ladder: Ladder,
    u: np.ndarray,
    count: np.ndarray,
    expected: np.ndarray,
    context: Callable[[int], str],
) -> np.ndarray:
    """Check the law of every step as scalars, then turn each row's
    uniform for step j, ``u[:, j]``, into its pick: a position in the
    step's extended pool, where the ``count[j]`` live uncapped units (the
    pool) sit at 0..count[j]-1 and the units crossing the cap follow at
    count[j] + k.

    At step j a crossing unit has weight ``1 - lam[j+1] x_k`` and a pool
    unit ``r = 1 - lam[j+1] / lam[j]``; they must be nonnegative and sum
    to ``expected[j]``.  With that total T and the crossing mass M, u
    picks a crossing unit by inverse CDF when u T falls below M, else
    pool index floor((u T - M) / r).
    """
    lam = ladder.lam
    at = ladder.cross_at
    m = np.diff(at)
    step_of = np.repeat(np.arange(ladder.steps), m)
    w = 1.0 - lam[1:][step_of] * ladder.x[ladder.cross[: at[-1]]]
    r = np.where(count > 0, 1.0 - lam[1:] / lam[:-1], 0.0)
    for weights, step in ((w, step_of), (r, np.arange(ladder.steps))):
        bad = np.flatnonzero(weights < -RANGE_TOL)
        if bad.size:
            raise ContractViolationError(
                f"{context(int(step[bad[0]]))}: negative probability "
                f"{float(weights[bad[0]])!r}"
            )
    w, r = np.maximum(w, 0.0), np.maximum(r, 0.0)
    # A step's crossing mass: the unit's weight when one unit crosses,
    # the last of the cumulative weights when several do.
    mass = np.zeros(ladder.steps)
    single = np.flatnonzero(m == 1)
    mass[single] = w[at[single]]
    cums = {}
    for j in np.flatnonzero(m > 1).tolist():
        cums[j] = np.cumsum(w[at[j] : at[j + 1]])
        mass[j] = cums[j][-1]
    total = mass + count * r
    off = np.abs(total - expected) > PROB_SUM_TOL
    if bool(off.any()):
        j = int(np.argmax(off))
        raise ContractViolationError(
            f"{context(j)}: probabilities sum to {total[j]!r}, "
            f"expected {float(expected[j])!r}"
        )
    v = u * total
    pooled = r > 0.0
    q = (v - mass) / np.where(pooled, r, 1.0)
    pos = np.minimum(q, count - 1).astype(np.intp)
    # A lone crossing unit is picked when u T falls below its weight.
    lone = (v[:, single] < mass[single]) | ~pooled[single]
    pos[:, single] = np.where(lone, count[single], pos[:, single])
    for j, cum in cums.items():
        k = np.searchsorted(cum, v[:, j], side="right")
        if pooled[j]:
            pos[:, j] = np.where(k < m[j], count[j] + k, pos[:, j])
        else:
            pos[:, j] = count[j] + np.minimum(k, m[j] - 1)
    return pos


def _eliminate(
    ladder: Ladder, seeds: Sequence[int], context: Callable[[int], str]
) -> tuple[np.ndarray, np.ndarray]:
    """Walk an elimination ladder down, one unit leaving per step and
    row, all rows in lockstep with one uniform per step.

    Each row keeps its live uncapped units in a pool.  A step appends
    the units that cross the cap there and swap-removes the picked unit,
    O(1) per row beyond the appends.  Returns the picked units, one
    column per step, and each row's uncapped survivors.
    """
    R, steps = len(seeds), ladder.steps
    at = ladder.cross_at
    # The pool starts empty, and a step adds its crossing units and
    # removes one.
    count = at[:-1] - np.arange(steps)
    pos = _picks(ladder, _uniforms(seeds, steps), count, np.ones(steps), context)
    rows = np.arange(R)
    pool = np.empty((R, int(at[-1])), dtype=np.intp)
    picked = np.empty((R, steps), dtype=np.intp)
    at = at.tolist()
    for j in range(steps):
        lo, hi = at[j], at[j + 1]
        if hi > lo:
            pool[:, lo - j : hi - j] = ladder.cross[lo:hi]
        p = pos[:, j]
        picked[:, j] = pool[rows, p]
        pool[rows, p] = pool[:, hi - j - 1]
    return picked, pool[:, : at[-1] - steps]


# ---------------------------------------------------------------------------
# Chao's reservoir procedure.


@dataclass(frozen=True)
class ChaoPlan:
    """Stream-order ladder for Chao's procedure.

    Rung s of ``ladder`` holds the capped shares at size n of the first
    n + s stream units, over stream positions.  ``accept[j]`` is the
    updated probability of stream unit t = n+1+j at its own arrival.
    When it is accepted it evicts reservoir member k with the joint
    probability ``1 - pi_k(t) / pi_k(t-1)``: ``1 - lam_t x_k`` for a
    unit that crosses the cap at t, ``1 - lam_t / lam_{t-1}`` for every
    reservoir unit uncapped at t-1.
    """

    order: np.ndarray
    n: int
    ladder: Ladder
    accept: np.ndarray

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
    ladder, accept = _stream_ladder(x[order], n)
    return ChaoPlan(order=order, n=n, ladder=ladder, accept=accept)


def _chao_rows(plan: ChaoPlan, seeds: Sequence[int]) -> np.ndarray:
    """One Chao sample per seed, all rows stepping through the stream
    together.  A row spends its N-n acceptance uniforms first and then
    one further uniform per eviction.

    Each row keeps its reservoir units that are uncapped in a pool; the
    capped ones are in every reservoir and are the plan's.  An arrival
    first appends the units that cross the cap to every pool; a row that
    accepts it then evicts one unit of this extended pool, picked as in
    ``_eliminate``, and puts the arrival in its place.
    """
    N, n = plan.N, plan.n
    ladder = plan.ladder
    R = len(seeds)
    u = _uniforms(seeds, 2 * (N - n))
    enters = u[:, : N - n] <= plan.accept
    # A row's k-th accepted arrival evicts with uniform N-n+k-1.
    u_evict = np.take_along_axis(u, N - n - 1 + np.cumsum(enters, axis=1), axis=1)
    # An arrival that is capped enters every reservoir and stays out of
    # the pools; its eviction shrinks them by one.
    joins = plan.accept == 1.0
    at = ladder.cross_at
    count = at[:-1] - np.cumsum(joins) + joins
    pos = _picks(
        ladder, u_evict, count, plan.accept, lambda j: f"chao step t={n + 1 + j}"
    )
    pool = np.empty((R, n), dtype=np.intp)
    moves = enters.any(axis=0) | (at[1:] > at[:-1])
    at = at.tolist()
    for j in np.flatnonzero(moves).tolist():
        lo, hi = at[j], at[j + 1]
        size = int(count[j]) + hi - lo
        if hi > lo:
            pool[:, size - hi + lo : size] = ladder.cross[lo:hi]
        rows = np.flatnonzero(enters[:, j])
        if joins[j]:
            pool[rows, pos[rows, j]] = pool[rows, size - 1]
        elif rows.size:
            pool[rows, pos[rows, j]] = n + j
    size = at[-1] - int(joins.sum())
    capped = np.tile(ladder.cross[at[-1] :], (R, 1))
    return plan.order[np.hstack([pool[:, :size], capped])]


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
    Every reservoir unit below the cap fell by the same factor, so an
    eviction is one uniform pick among them or a pick among the units
    that leave the cap at t.
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
    _, kept = _eliminate(plan, seeds, lambda j: f"tille step i={plan.N - 1 - j}")
    capped = np.tile(plan.cross[plan.cross_at[-1] :], (len(seeds), 1))
    return np.hstack([kept, capped])


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
    plan = midzuno_plan(pi)
    return Sampler(plan.N, partial(_midzuno_rows, plan))(rng_seed)


# ---------------------------------------------------------------------------
# Brewer's procedure.


def _brewer_units(pi_vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The certain units and the active ones, which Brewer's draws run
    on.  A unit within ``ZERO_ONE_TOL`` of 1 is certain."""
    certain = pi_vec >= 1.0 - ZERO_ONE_TOL
    return np.flatnonzero(certain), np.flatnonzero(~certain)


def _brewer_steps(
    p: np.ndarray, seeds: Sequence[int]
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Brewer's draws from the active probabilities ``p``, all rows in
    lockstep with one uniform per draw.  Yields per draw its weights,
    their total, each row's pick and ``cur`` after the rescale: the
    kernel's own arrays, which the next draw overwrites.

    The block is unit-major: one row per active unit, one column per
    replicate, so sums and cumulative sums over the units run as
    whole-row adds in the units' original order.  A drawn unit stays in
    place at probability 0, which gives it weight 0, so the pick (the
    first unit whose cumulative weight passes u times the total) is
    always an undrawn one.
    """
    R = len(seeds)
    n_draws = int(round(float(p.sum())))
    u = _uniforms(seeds, n_draws)
    cols = np.arange(R)
    cur = np.repeat(p[:, None], R, axis=1)
    w = np.empty_like(cur)
    cum = np.empty_like(cur)
    for t in range(1, n_draws + 1):
        r = n_draws - t + 1
        # w = cur (r - cur) / (1 - cur), in place.
        np.subtract(r, cur, out=w)
        w *= cur
        w /= np.subtract(1.0, cur, out=cum)
        lo = float(w.min(initial=0.0))
        if lo < -RANGE_TOL:
            raise ContractViolationError(
                f"brewer step {t}: negative selection weight {lo!r}"
            )
        if lo < 0.0:
            np.maximum(w, 0.0, out=w)
        np.add.accumulate(w, axis=0, out=cum)
        total = cum[-1]
        bad = ~(np.isfinite(total) & (total > 0.0))
        if bool(bad.any()):
            raise ContractViolationError(
                f"brewer step {t}: selection weights sum to {float(total[bad][0])!r}"
            )
        # u < 1 makes u T < T, so some unit's cumulative weight passes u T.
        i = np.add.reduce(cum <= u[:, t - 1] * total, axis=0)
        pj = cur[i, cols]
        cur[i, cols] = 0.0
        cur *= (r - 1.0) / (r - pj)
        if float(cur.max(initial=0.0)) > 1.0 + PROB_SUM_TOL:
            raise ContractViolationError(
                f"brewer step {t}: intermediate probability above 1"
            )
        yield w, total, i, cur


def _brewer_rows(pi_vec: np.ndarray, seeds: Sequence[int]) -> np.ndarray:
    """One Brewer sample per seed, all rows drawing in lockstep."""
    R = len(seeds)
    certain, active = _brewer_units(pi_vec)
    picks = [i for _, _, i, _ in _brewer_steps(pi_vec[active], seeds)]
    drawn = np.reshape(np.array(picks, dtype=np.intp), (len(picks), R)).T
    return np.hstack([np.tile(certain, (R, 1)), active[drawn]])


def sample_brewer(
    pi: InclusionProbabilities, rng_seed: int, trace: str | None = None
) -> Sample | tuple[Sample, SplittingTrace]:
    """Brewer's procedure: n dependent draws, one unit per step.

    Args:
        pi: target inclusion probabilities (certainty units allowed;
            they are selected up front and the remaining draws run on
            the rest).
        rng_seed: seed; one uniform is consumed per draw.
        trace: None for the plain sample; "realized" returns (sample,
            trace), with the splitting trace of the kernel's own state:
            per draw, the weights over the undrawn active units, the pick
            among them, and the update that raises the drawn unit to 1
            and moves each other one from its ``cur`` to the next.  The
            one kernel draws both, so a seed gives one sample either way.
    """
    if trace is None:
        return Sampler(pi.N, partial(_brewer_rows, pi.pi))(rng_seed)
    if trace != "realized":
        raise InvalidInputError(f"trace must be None or 'realized', got {trace!r}")
    certain, active = _brewer_units(pi.pi)
    undrawn = np.ones(active.size, dtype=bool)
    before = pi.pi[active]
    steps = []
    draws = _brewer_steps(before, [rng_seed])
    for t, (w, total, i, after) in enumerate(draws, 1):
        k = int(i[0])
        alphas = w[undrawn, 0] / total[0]
        chosen = int(np.count_nonzero(undrawn[:k]))
        undrawn[k] = False
        # The kernel parks a drawn unit at 0; the trace raises it to 1.
        d = np.zeros(pi.N)
        d[active] = after[:, 0] - before
        d[active[k]] += 1.0
        steps.append(SplittingStep(t, alphas, None, chosen, d))
        before = after[:, 0].copy()
    sample = Sample(selected=(*certain, *active[~undrawn]), N=pi.N)
    return sample, SplittingTrace(pi.pi.copy(), tuple(steps), sample.indicator)


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
        return Sampler(pi.N, partial(_brewer_rows, pi.pi)), pi
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

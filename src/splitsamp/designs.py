"""Fixed-size unequal-probability sampling procedures.

Five procedures are implemented: simple random sampling without
replacement as the equal-probability baseline, Chao's reservoir
procedure, Tille's elimination procedure, the generalized Midzuno
selection procedure, and Brewer's draw-by-draw procedure.  All target an
integer sample size and hit their first-order inclusion probabilities
exactly; the oracle module verifies this by exhaustive enumeration on
small populations.

Chao, Tille and Midzuno precompute a "plan" that depends only on the
sizes: a ladder of capped probability-proportional-to-size vectors.
Every rung has the form ``min(1, lam x)``, so the plan keeps one lam per
rung, the count of capped units per rung and the order in which units
leave the cap: O(N) memory, built in O(N log N) time.  At a step, every
unit below the cap has the same weight, so a step is one uniform pick
among those units or a pick among the few units that leave the cap
there: O(1) work per replicate, beyond adding each unit to the pick pool
once.  All three walk the ladder as an elimination, one unit leaving per
step; Chao's arrival is such a step, in which the arrival or one
reservoir unit leaves, and its stream is the population in order.  A
step's law depends only on the ladder, so it is built and checked on the
ladder's first draw and kept (``Ladder.law``): one cumulative sum per
distinct count of units crossing the cap at a step.  A batch is
step-major, a row per step of its uniforms and picks and per slot of its
pool: its picks come first, in place, and a walk step is one append and
one put, of a scalar where a unit crosses.

Brewer's plan is one cumulative sum of the probabilities, with a guide
table over it.  A step proposes from it and accepts by rejection; when
that would take more than four trials on average, it picks by
composition instead: the heaviest undrawn units by their exact weights,
the rest by rejection under an envelope.  Either way a step costs a
search per trial, mostly a guide lookup and one compare in a batch,
plus a pass over those heaviest units, not over the population.  A
batch runs both picks' trials through one round loop, and each trial
reads its row's stream at the count of uniforms the row has spent, so
a batch row holds only its drawn mask and its picks.

Each procedure's step is written once, over a batch of replicates: all
rows take a step together as one array operation, and each row draws
its uniforms from its own seed's stream.  A stream is counter-based
(SplitMix64 over a key hashed from the seed), so any block of any rows'
streams is a few array passes, and SRSWOR keeps the n units with the
smallest of N uniforms.  A single draw runs the same law for one
row in Python: Brewer's picks in Python floats, the ladder designs' pool
as a Python list, which keeps only what the design returns (the
survivors for Chao and Tille, the picked units for Midzuno).  Its walk
reads the ladder's crossing units as tuples kept per step
(``Ladder.segments``), built on the ladder's first single draw, so a
draw pays only for its uniforms, its picks and the walk.

Every design draws through ``make_sampler``, and ``sample_brewer`` adds
Brewer's traced draw.  Both, and the oracle's enumeration, check their
inputs in ``target_pi``: an x given with pi must be one positive, finite
size per unit, and pi its capped shares for every design but SRSWOR.
They take a design's plan from ``_plan``, which keeps it on the pi it
is drawn from: one per design and pi, Chao's and Tille's ladder built
on x, or on pi's capped shares when no x is given, and built again when
asked for other sizes.  ``make_sampler`` builds no plan: a sampler
takes its pi's plan on its first draw and keeps it.  So samplers, plain
or traced draws, ``estimate_tail`` calls and enumerations on one pi
share its plan, with the law, walk tuples and guide table its draws
built, and the plan is freed with the pi and its samplers.
Being shared, a plan's arrays are read-only.
At N = 10**5, n = 10**4 (lognormal sizes) a plan holds about 2.9 MB for
Chao or Tille, 2.4 MB for Midzuno and 13 MB for Brewer; with what its
batches and single draws build, about 15, 13, 7.6 and 17 MB.
"""

from __future__ import annotations

import bisect
import enum
import heapq
import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from .errors import ContractViolationError, InvalidInputError, InvalidSizeError
from .population import (
    CERTAINTY_TOL,
    InclusionProbabilities,
    _as_readonly,
    _check_sizes,
    compute_pips,
)
from .splitting import RANGE_TOL, FactorSteps, SplittingTrace

# Probabilities that must sum to one may miss by at most this much.
PROB_SUM_TOL = 1e-9


class DesignKind(enum.Enum):
    SRSWOR = "srswor"
    CHAO = "chao"
    TILLE_ELIMINATION = "tille"
    GENERALIZED_MIDZUNO = "midzuno"
    BREWER = "brewer"


@dataclass(frozen=True)
class Sample:
    """A realized sample: sorted unit indices out of a population of N."""

    selected: tuple[int, ...]
    N: int

    def __post_init__(self) -> None:
        # One int array, sorted: repeats are adjacent and the range is
        # its two ends.  The cast truncates 1.5, "1" or True to an index,
        # so a row that is not an integer array must hold integers only;
        # it fails on "a", None or a ragged row.
        ints = isinstance(self.selected, np.ndarray) and self.selected.dtype.kind in "iu"
        try:
            sel = np.asarray(self.selected, dtype=np.intp)
        except OverflowError:
            raise InvalidInputError("sample index out of range") from None
        except (TypeError, ValueError):
            raise InvalidInputError("sample must be one sequence of unit indices") from None
        if sel.ndim != 1 or not (ints or all(map(_is_integer, self.selected))):
            raise InvalidInputError("sample must be one sequence of unit indices")
        sel = np.sort(sel)
        if np.count_nonzero(sel[1:] == sel[:-1]):
            raise InvalidInputError("sample contains repeated indices")
        units = tuple(sel.tolist())
        if units and (units[0] < 0 or units[-1] >= self.N):
            raise InvalidInputError("sample index out of range")
        object.__setattr__(self, "selected", units)

    @property
    def size(self) -> int:
        return len(self.selected)


@dataclass(frozen=True)
class Sampler:
    """A design on one pi: ``sampler(seed)`` draws one Sample,
    ``sampler.rows(seeds)`` draws one per seed in lockstep.

    ``draw_rows`` maps a seed sequence to an array with one row of unit
    indices per seed.  Row r reads only the uniforms of seed r's
    counter-based stream (``_uniforms``), in stream order, so it is the
    sample that ``sampler(seeds[r])`` returns.  Seeds are integers in
    [0, 2**128); any other seed raises ``InvalidInputError``.  A uint64
    array of seeds is keyed in one array pass.  ``row_cells`` is the
    widest block the kernel holds per row, in 8-byte cells: a lockstep
    chunk of R rows holds about R ``row_cells`` cells at once.
    """

    N: int
    draw_rows: Callable[[Sequence[int]], np.ndarray]
    row_cells: int

    def __call__(self, seed: int) -> Sample:
        return Sample(selected=self.rows([seed])[0], N=self.N)

    def rows(self, seeds: Sequence[int]) -> np.ndarray:
        """Samples as a C-contiguous R x n array, each row sorted as in
        ``Sample``.  numpy adds up a contiguous row in another order than
        a strided one, so a tally over these rows does not depend on the
        layout a kernel returns."""
        return np.sort(np.ascontiguousarray(self.draw_rows(seeds)), axis=1)


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


def _read_only(plan):
    """``plan`` with every array it holds made read-only.  A plan is
    built once per frame and shared by every sampler and trace that
    reads it (``_plan``), so no reader may write to it."""
    for value in vars(plan).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return plan


# ---------------------------------------------------------------------------
# Per-seed streams, counter-based: uniform i of seed s is
# (mix(key(s) + (i + 1) GOLDEN) >> 11) 2**-53, the output of SplitMix64
# (Steele, Lea & Flood 2014) i + 1 steps past state key(s).  The key
# folds the seed's 64-bit words, key(s) = mix(lo ^ mix(hi)): mix is a
# bijection with mix(0) = 0, so seeds below 2**64 get distinct keys, and
# seeds that differ by a multiple of GOLDEN do not share a shifted
# stream.  Any block of any rows' streams is one array pass.  A seed
# below 2**64 has key mix(seed), so a uint64 seed array (a Monte Carlo
# chunk) is keyed in one array pass too; any other seed sequence is
# checked and keyed seed by seed in Python, which is faster for the one
# seed of a single draw.

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


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_seed(seed) -> int:
    """A seed as a Python int, which must lie in [0, 2**128)."""
    if _is_integer(seed) and 0 <= seed < SEED_LIMIT:
        return int(seed)
    raise InvalidInputError(f"seed must be an integer in [0, 2**128), got {seed!r}")


def _key(seed) -> int:
    """The state a seed's stream starts from: mix(lo ^ mix(hi))."""
    seed = _check_seed(seed)
    return splitmix((seed & MASK64) ^ splitmix(seed >> 64))


def _keys(seeds: Sequence[int]) -> np.ndarray:
    """Each seed's key as a uint64 array.  A uint64 array holds only
    seeds below 2**64, whose key is mix(seed): one array pass."""
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        return _mix(seeds.copy())
    return np.array([_key(s) for s in seeds], dtype=np.uint64)


# Cells per band in ``_uniforms`` and ``_srswor_rows``: a band's temporaries
# reuse freed memory, where chunk-sized ones take fresh pages every chunk.
_STREAM_CELLS = 1 << 15


def _uniforms(seeds: Sequence[int], count: int, start: int = 0) -> np.ndarray:
    """Row r: uniforms ``start`` to ``start + count - 1`` of seed r's
    stream, computed a band at a time on one step-major uint64 block,
    count x R, whose transpose is returned: ``.T`` is the block itself."""
    keys = _keys(seeds)
    z = keys + np.arange(start + 1, start + count + 1, dtype=np.uint64)[:, None] * GOLDEN
    band = max(1, _STREAM_CELLS // max(1, keys.size))
    for lo in range(0, count, band):
        b = z[lo : lo + band]
        np.multiply(_mix(b) >> 11, 2.0**-53, out=b.view(np.float64))
    return z.view(np.float64).T


def _stream(keys: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Uniform ``at`` of the stream with each key, ``keys`` broadcast
    against the nonnegative intp counters ``at``: the bits ``_uniforms``
    gives, for a kernel that reads each row at its own counter."""
    z = at.astype(np.uint64)
    z *= GOLDEN
    z += keys + GOLDEN
    return (_mix(z) >> 11) * 2.0**-53


def _srswor_rows(N: int, n: int, seeds: Sequence[int]) -> np.ndarray:
    """Each row's units with the n smallest of its first N uniforms: a
    uniform n-subset, up to ties of probability about N**2 2**-54."""
    u = _uniforms(seeds, N)
    rows = np.empty((len(u), n), dtype=np.intp)
    band = max(1, _STREAM_CELLS // N)
    for lo in range(0, len(u), band):
        rows[lo : lo + band] = np.argpartition(u[lo : lo + band], n - 1, axis=1)[:, :n]
    return rows


# ---------------------------------------------------------------------------
# Probability ladders: capped size shares min(1, lam x) rung by rung.


@dataclass(frozen=True)
class StepLaw:
    """The law of every step of a ladder, as ``Ladder.law`` keeps it.

    At step j the ``count[j]`` live uncapped units (the pool) each weigh
    ``r[j]`` and the units crossing the cap weigh ``1 - lam[j+1] x_k``,
    both clamped at 0.  ``cum`` holds each step's cumulative crossing
    weights, in ``cross``'s layout; ``mass[j]`` is the last of them
    (0 when no unit crosses) and ``total[j] = mass[j] + count[j] r[j]``.
    ``multi`` are the steps where several units cross, and ``bits`` is
    the bit length of the largest crossing count.  ``fault`` is the
    first contract breach found, as (step, message), or None.
    """

    count: np.ndarray
    cum: np.ndarray
    mass: np.ndarray
    total: np.ndarray
    r: np.ndarray
    multi: np.ndarray
    bits: int
    fault: tuple[int, str] | None


@dataclass(frozen=True)
class Ladder:
    """Capped size-proportional probabilities along a run of rungs, in
    O(N) memory.

    Rung s gives unit k the probability ``min(1, lam[s] * x[k])``: its
    capped units, ``cross[cross_at[s]:]``, sit at 1 and every other unit
    at ``lam[s] * x[k] < 1``.  Step j leads from rung j to rung j + 1.
    The units present at rung 0 are all capped there (``lam[0]`` is
    infinite, ``cross_at[0]`` is 0); a unit that arrives later, in
    Chao's stream, counts as capped before its arrival step, so an
    arrival that is uncapped on arrival crosses the cap at its own step.
    A unit leaves the capped set, or crosses the cap, at most once:
    ``cross[cross_at[j]:cross_at[j + 1]]`` are the units that cross at
    step j, and ``cross[cross_at[-1]:]`` are still capped at the last
    rung.  ``law`` is the law of every step and ``segments`` the same
    crossings as Python tuples, each built on first use.
    """

    x: np.ndarray
    lam: np.ndarray
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

    @cached_property
    def law(self) -> StepLaw:
        """Every step's law, built on first use and kept, so that a draw
        pays only for its uniforms: O(steps + crossing units) memory.

        Step j's weights must be nonnegative and sum to 1.  They are
        checked in this order: the crossing weights, the pool weights
        ``r = 1 - lam[j+1] / lam[j]``, then the sums.  The first breach
        is kept in ``fault``, and every draw raises it.  A step's
        weights are added up in order, by one row-wise ``cumsum`` per
        distinct crossing count, so its floats are those of a
        ``cumsum`` of that step alone.
        """
        lam, at, steps = self.lam, self.cross_at, self.steps
        # The pool starts empty, and a step adds its crossing units and
        # removes one.
        count = at[:-1] - np.arange(steps)
        m = np.diff(at)
        step_of = np.repeat(np.arange(steps), m)
        w = 1.0 - lam[1:][step_of] * self.x[self.cross[: at[-1]]]
        r = 1.0 - np.divide(lam[1:], lam[:-1], out=np.ones(steps), where=count > 0)
        fault = None
        for weights, step in ((w, step_of), (r, np.arange(steps))):
            bad = np.flatnonzero(weights < -RANGE_TOL)
            if bad.size and fault is None:
                fault = (
                    int(step[bad[0]]),
                    f"negative probability {float(weights[bad[0]])!r}",
                )
        cum, r = np.maximum(w, 0.0), np.maximum(r, 0.0)
        for c in np.unique(m[m > 1]).tolist():
            block = at[:-1][m == c, None] + np.arange(c)
            cum[block] = np.cumsum(cum[block], axis=1)
        mass = np.zeros(steps)
        crossing = m > 0
        mass[crossing] = cum[at[1:][crossing] - 1]
        total = mass + count * r
        off = np.flatnonzero(np.abs(total - 1.0) > PROB_SUM_TOL)
        if off.size and fault is None:
            j = int(off[0])
            fault = (j, f"probabilities sum to {total[j]!r}, expected 1.0")
        return _read_only(StepLaw(
            count=count,
            cum=cum,
            mass=mass,
            total=total,
            r=r,
            multi=np.flatnonzero(m > 1),
            bits=int(m.max(initial=0)).bit_length(),
            fault=fault,
        ))

    @cached_property
    def segments(self) -> tuple[tuple[int, ...], ...]:
        """The units crossing the cap at each step as one tuple per step,
        ``()`` where none crosses, then the units still capped at the last
        rung: what a single draw's walk reads, built on its first draw and
        kept.  A batch reads ``cross`` and ``cross_at`` instead."""
        cross, at = self.cross.tolist(), self.cross_at.tolist()
        return tuple(tuple(cross[lo:hi]) for lo, hi in zip(at, at[1:] + [len(cross)]))


def _stays_capped(free: float, c: int, size: float, rest: float) -> bool:
    """Whether the smallest of ``c`` capped units, of this size, keeps its
    cap when ``free`` sample slots fall to the units outside the others:
    the same share test as ``compute_pips``.  Where that cap leaves the
    others no slot, ``compute_pips`` keeps the exact share below 1 and
    the ladder caps it, so both agree within ``CERTAINTY_TOL``."""
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
    cross_at = np.empty(N - n + 1, dtype=np.intp)
    lam[0], cross_at[0] = np.inf, 0
    c, rest = N, 0.0
    for s in range(1, N - n + 1):
        i = N - s
        while c and not _stays_capped(i, c, sizes[N - c], rest):
            rest += sizes[N - c]
            c -= 1
        lam[s], cross_at[s] = (i - c) / rest, N - c
    return _read_only(Ladder(x=x, lam=lam, cross=cross, cross_at=cross_at))


# Cells per band of ``_floor_positions``' cast from float to intp.
_CAST_CELLS = 1 << 12


def _floor_positions(q: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``floor(clip(q, -1, count - 1))`` as intp, written over the
    step-major float block q, ``count`` per row: three float passes in
    place, then a cast into the same cells a band of rows at a time.  One
    casting pass over the whole block would first copy all of it, since
    its output overlaps its input."""
    np.maximum(q, -1.0, out=q)
    np.minimum(q, count[:, None] - 1.0, out=q)
    np.floor(q, out=q)
    pos = q.view(np.intp)
    band = max(1, _CAST_CELLS // max(1, q.shape[1]))
    for lo in range(0, len(q), band):
        pos[lo : lo + band] = q[lo : lo + band]
    return pos


def _picks(
    ladder: Ladder, u: np.ndarray, context: Callable[[int], str]
) -> np.ndarray:
    """Turn a step-major block of uniforms, ``u[j]`` holding every row's
    uniform for step j, into picks written over it in the same layout:
    positions in the step's extended pool, where the ``count[j]`` live
    uncapped units (the pool) sit at 0..count[j]-1 and the units
    crossing the cap follow at count[j] + k; a lone crossing unit is -1,
    the last, as Python and numpy index it.  A ladder whose law breaks
    the contract raises on every call, naming the step by ``context``.

    With the step's total T and crossing mass M (``Ladder.law``), u picks
    a crossing unit by inverse CDF when u T falls below M, else pool
    index floor((u T - M) / r), clipped to the pool.  Only these
    per-uniform passes run per call, in place, the floor and its cast to
    intp in ``_floor_positions``: the inverse CDF of every pick among
    several crossing units is one bisection over all of them, in as many
    rounds as the largest crossing count has bits, and its picks are
    those of a ``searchsorted(side="right")`` of that step alone.
    """
    law = ladder.law
    if law.fault is not None:
        step, message = law.fault
        raise ContractViolationError(f"{context(step)}: {message}")
    count, multi, r = law.count, law.multi, law.r
    q = np.multiply(u, law.total[:, None], out=u)
    target = q[multi]
    q -= law.mass[:, None]
    q /= np.where(r > 0.0, r, 1.0)[:, None]
    # u T below the crossing mass, or a step without pool weight, gives
    # q < 0, which the clip and floor turn into -1.
    pos = _floor_positions(q, count)
    # Where several cross, the k-th, k the count of cumulative weights at
    # most u T, found by binary lifting over the step's slice of cum.
    at, rows = np.nonzero(pos[multi] < 0)
    j, target = multi[at], target[at, rows]
    base = ladder.cross_at[j]
    mj = ladder.cross_at[j + 1] - base
    k = np.zeros(j.size, dtype=np.intp)
    for b in reversed(range(law.bits)):
        nxt = k + (1 << b)
        below = law.cum[base + np.minimum(nxt, mj) - 1] <= target
        k = np.where((nxt <= mj) & below, nxt, k)
    pos[j, rows] = count[j] + np.minimum(k, mj - 1)
    return pos


def _eliminate(
    ladder: Ladder,
    seeds: Sequence[int],
    context: Callable[[int], str],
    survivors: bool = True,
) -> np.ndarray:
    """Walk an elimination ladder down, one unit leaving per step and
    row, all rows in lockstep with one uniform per step.

    Each row keeps its live uncapped units in a pool.  ``_picks`` turns
    the step-major block of every row's uniforms into pool positions for
    all steps at once.  A batch's pool is slot-major, so a step appends
    its crossing units as whole slots and swap-removes each row's pick:
    one put, at the flat indices pos R + row, of the step's last slot.
    Where units cross, that slot holds the last of them in every row, so
    the put is of one scalar, and the survivors, which drop the slot
    after the step, do not write it; the picks read it.  A survivors step
    where one unit crosses, as an arrival does at most of Chao's steps,
    is then a lone scalar put.  One row alone walks a Python list:
    a step extends it by the step's kept tuple (``Ladder.segments``)
    when a unit crosses, and swap-removes the pick.
    Returns each row's survivors (uncapped, then still capped) if
    ``survivors``, else its picked units, one per step; ``Sampler.rows``
    makes either row-major.
    """
    R, steps, N = len(seeds), ladder.steps, ladder.N
    pos = _picks(ladder, _uniforms(seeds, steps).T, context)
    if R == 1:
        # The picks run out one segment early: the last one is the units
        # still capped.
        segments = ladder.segments
        line: list[int] = []
        extend, pop = line.extend, line.pop
        if survivors:
            for p, units in zip(pos[:, 0].tolist(), segments):
                if units:
                    extend(units)
                line[p] = line[-1]
                pop()
            extend(segments[-1])
            return np.array([line], dtype=np.intp)
        gone: list[int] = []
        take = gone.append
        for p, units in zip(pos[:, 0].tolist(), segments):
            if units:
                extend(units)
            take(line[p])
            line[p] = line[-1]
            pop()
        return np.array([gone], dtype=np.intp)
    at, cross = ladder.cross_at.tolist(), ladder.cross
    pool = np.empty((N, R), dtype=np.intp)
    flat = pool.reshape(-1)
    pos *= R
    pos += np.arange(R)
    picked = np.empty((0 if survivors else steps, R), dtype=np.intp)
    for j in range(steps):
        lo, hi = at[j], at[j + 1]
        # The step's extended pool, whose last slot a pick -1 reads.
        live = flat[: (hi - j) * R]
        if hi > lo:
            # The last slot holds cross[hi - 1] in every row.
            end = hi - 1 if survivors else hi
            if end > lo:
                pool[lo - j : end - j] = cross[lo:end, None]
            last = cross[hi - 1]
        else:
            last = pool[hi - j - 1]
        if not survivors:
            picked[j] = live[pos[j]]
        live[pos[j]] = last
    if not survivors:
        return picked.T
    pool[at[-1] - steps : N - steps] = ladder.cross[at[-1] :, None]
    return pool[: N - steps].T


# ---------------------------------------------------------------------------
# Chao's reservoir procedure.


def chao_plan(x: np.ndarray, n: int) -> Ladder:
    """Chao's ladder: rung s holds the capped shares at size n of the
    first n + s units of the stream, which is the population in order.
    To stream in another order, permute the population and map the drawn
    units back.

    Chao's procedure accepts arrival t with its own updated probability
    and, when it is accepted, evicts reservoir member k with probability
    proportional to how much k's updated probability fell.  Taken
    together, step j, the arrival of unit t = n+1+j, is an elimination:
    exactly one unit of the reservoir and the arrival leaves, the
    arrival with probability ``1 - pi_t(t)`` and reservoir member k with
    ``1 - pi_k(t) / pi_k(t-1)``.  An arrival uncapped at t crosses the
    cap at its own step, so both are ``1 - lam_t x_k`` for a unit that
    crosses the cap at t and ``1 - lam_t / lam_{t-1}`` for every
    reservoir unit uncapped at t-1.

    Capped units, the arrival among them, leave the cap smallest first as
    the prefix grows, so a min-heap of the capped units builds the ladder
    in O(N log N) time and O(N) memory.  The ladder keeps a read-only
    copy of x, so a later write to the caller's array changes no draw.
    """
    x = _as_readonly(x)
    N = x.size
    if not 1 <= n <= N:
        raise InvalidSizeError(f"invalid size: n={n} outside 1..{N}")
    sizes = x.tolist()
    heap = [(sizes[k], k) for k in range(n)]
    heapq.heapify(heap)
    lam = np.empty(N - n + 1)
    lam[0] = np.inf
    cross: list[int] = []
    cross_at = [0]
    rest = 0.0
    for j in range(N - n):
        heapq.heappush(heap, (sizes[n + j], n + j))
        while heap and not _stays_capped(n, len(heap), heap[0][0], rest):
            size, k = heapq.heappop(heap)
            rest += size
            cross.append(k)
        lam[j + 1] = (n - len(heap)) / rest
        cross_at.append(len(cross))
    cross.extend(k for _, k in sorted(heap))
    return _read_only(Ladder(
        x=x,
        lam=lam,
        cross=np.array(cross, dtype=np.intp),
        cross_at=np.array(cross_at, dtype=np.intp),
    ))


# ---------------------------------------------------------------------------
# Tille's elimination procedure.


def tille_plan(sizes: np.ndarray, n: int) -> Ladder:
    """Tille's ladder: rung s holds the capped shares of ``sizes`` at
    sample size N - s, for s = 0..N-n, and step j eliminates one unit.

    Tille's procedure walks i from N-1 down to n and eliminates one of
    the still-present units with probability ``1 - pi_k(i) /
    pi_k(i+1)``; the n survivors form the sample.  Restricted to the
    units still present, that is ``1 - lam_i x_k`` for a unit that
    crosses the cap between rungs i+1 and i, ``1 - lam_i / lam_{i+1}``
    for every unit uncapped at rung i+1, and 0 for the rest.  The ladder
    keeps a read-only copy of ``sizes``.
    """
    sizes = _as_readonly(sizes)
    N = sizes.size
    if not 1 <= n <= N:
        raise InvalidSizeError(f"invalid size: n={n} outside 1..{N}")
    return _elimination_ladder(sizes, n)


# ---------------------------------------------------------------------------
# Generalized Midzuno selection.


@dataclass(frozen=True)
class MidzunoPlan:
    """Selection ladder over the non-certainty units.

    ``ladder`` is Tille's ladder run on the complementary probabilities
    1 - pi of the ``active`` units, from N' down to N'-n' (n' the draws
    left after the certainty units); the units it eliminates are the
    ones Midzuno selects.  With n' = 0 it has no step, and with n' = N'
    its last rung is at size 0, where the last unit leaves surely.
    """

    certain: np.ndarray
    active: np.ndarray
    ladder: Ladder


def midzuno_plan(pi: InclusionProbabilities) -> MidzunoPlan:
    """The generalized Midzuno procedure's plan.  It pre-selects the
    certainty units and selects the other n' units one at a time, with
    selection probabilities from the capped shares of 1 - pi: the
    complement of Tille elimination on 1 - pi, sharing its ladder and
    its step."""
    certain = np.flatnonzero(pi.certain)
    active = np.flatnonzero(~pi.certain)
    n_active = pi.n - certain.size
    if n_active < 0:
        raise InvalidSizeError("more certainty units than the sample size")
    ladder = _elimination_ladder(1.0 - pi.pi[active], active.size - n_active)
    return _read_only(MidzunoPlan(certain=certain, active=active, ladder=ladder))


def _midzuno_rows(
    plan: MidzunoPlan, seeds: Sequence[int], context: Callable[[int], str]
) -> np.ndarray:
    """One Midzuno sample per seed, all rows selecting in lockstep with
    one uniform per step."""
    picked = _eliminate(plan.ladder, seeds, context, survivors=False)
    return np.hstack([np.tile(plan.certain, (len(seeds), 1)), plan.active[picked]])


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
# sum_S p) r) trials on average.
#
# A step whose B exceeds _MAX_TRIALS picks by composition (Devroye 1986,
# ch. II) instead.  The envelope G = _MAX_TRIALS r (sum(p) - sum_S p) /
# sum(p) is g(q*) at q* = (G - r) / (G - 1).  The head, the undrawn units
# with q >= q*, is a prefix of p's descending order from the largest
# undrawn unit; it keeps its exact weights, which sum to E_head.  Every
# unit, drawn or not, gets the envelope c p G, which sums to E_tail =
# c G sum(p).  A trial takes v = u_0 (E_head + E_tail): below E_head, v
# picks a head unit by inverse CDF over the head weights; else it
# proposes k from the static cumulative sum and accepts it with
# probability g(q_k) / G, unless k is drawn or in the head.  The tail
# alone would take at most _MAX_TRIALS trials on average, so a step takes
# at most _MAX_TRIALS + 1, for O(|head|) work plus a bisection per trial.
# A step with G <= r has no q* above 0 (its drawn mass is at least
# 1 - 1 / _MAX_TRIALS of sum(p)), and one with q_max >= 1 (or NaN) is
# outside g's domain [0, 1): only these take the inverse CDF over every
# unit's weight (``_brewer_fallback``), an O(M) pass whose checks raise
# on a NaN.  A trial spends two uniforms of the row's stream, an inverse-CDF
# step one.

_MAX_TRIALS = 4.0

# Uniforms a single draw reads up front per draw; one that needs more
# reads its stream on.
_UNIFORMS_PER_DRAW = 4


@dataclass(frozen=True)
class BrewerPlan:
    """Brewer's draws over the active units, those below 1 - CERTAINTY_TOL.

    ``p`` holds their probabilities, ``cum`` the cumulative sums of p
    (clamped at 0) that proposals search, ``order`` p's descending
    order, ``total`` sum(p) and ``draws`` the number of draws; the
    ``*_list`` fields repeat ``p``, ``cum`` and ``order`` as Python
    lists for the one-row path.  ``guide`` is built on first use.
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

    @cached_property
    def guide(self) -> tuple[np.ndarray, np.ndarray]:
        """``_guide`` over ``cum``, read-only: built on the first batch
        that proposes from it and kept, so a one-row draw never builds
        it."""
        table, crowded = _guide(self.cum)
        table.flags.writeable = crowded.flags.writeable = False
        return table, crowded


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
    return _read_only(BrewerPlan(
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
    ))


def _guide(cum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The guide table of a cumulative sum (Chen & Asau 1974): K buckets,
    K the least power of two above 4 ``cum.size``, where ``guide[b]`` is
    ``searchsorted(cum, (b / K) T, side="right")``, T = cum[-1], and
    ``crowded`` the buckets whose span ``guide[b + 1] - guide[b]``
    exceeds 1, as a mask, or empty when there are none."""
    K = 1 << (4 * cum.size).bit_length()
    if cum.size == 0:
        return np.zeros(K, dtype=np.intp), np.zeros(0, dtype=bool)
    keys = np.arange(K + 1) / K * cum[-1]
    # cum[i] <= keys[b] exactly when b is at least the count of keys
    # below cum[i]: one search per unit, not per bucket.
    span = np.bincount(np.searchsorted(keys, cum), minlength=K + 1)
    crowded = span[1:] > 1
    if not crowded.any():
        crowded = np.zeros(0, dtype=bool)
    return np.cumsum(span[:-1]), crowded


def _proposals(plan: BrewerPlan, u: np.ndarray) -> np.ndarray:
    """``searchsorted(plan.cum, u T, side="right")`` for uniforms u in
    [0, 1), T = cum[-1], read from the guide table.  u K is exact, K a
    power of two, so u sits in bucket b = floor(u K) with b / K <= u <
    (b + 1) / K; u T rounds monotonically in u, so the index lies in
    [guide[b], guide[b + 1]], and one compare settles every bucket of
    span at most 1.  Keys in crowded buckets are searched."""
    cum = plan.cum
    guide, crowded = plan.guide
    key = u * cum[-1]
    b = (u * guide.size).astype(np.intp)
    k = guide[b]
    k += cum[k] <= key
    if crowded.size:
        wide = crowded[b]
        if wide.any():
            k[wide] = np.searchsorted(cum, key[wide], side="right")
    return k


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


def _brewer_heads(
    plan: BrewerPlan,
    drawn: np.ndarray,
    base: np.ndarray,
    top: np.ndarray,
    c: np.ndarray,
    q_star: np.ndarray,
    r: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's head as one padded block: the units from ``top`` on in
    p's descending order while c p >= q*, and their cumulative weights
    q g(q), added up in order, where a drawn unit and the padding past a
    row's head weigh 0.  Row i's drawn mask is
    ``drawn[base[i]:base[i] + M]``."""
    p, order, M = plan.p, plan.order, plan.p.size
    # c p falls along p's descending order, so a head is a prefix of the
    # block; the block doubles until every head ends inside it.
    width = 8
    while True:
        pos = top[:, None] + np.arange(width)
        units = order[np.minimum(pos, M - 1)]
        q = c[:, None] * p[units]
        head = (q >= q_star[:, None]) & (pos < M)
        if width >= M or not head[:, -1].any():
            break
        width *= 2
    q[~head | drawn[base[:, None] + units]] = 0.0
    return units, np.cumsum(q * _g(q, r), axis=1)


def _brewer_row(plan: BrewerPlan, seed: int) -> list[int]:
    """One row's picks, positions in ``plan.p``, in Python floats."""
    p, cum, order = plan.p_list, plan.cum_list, plan.order_list
    total, d, M = plan.total, plan.draws, len(p)
    u = _uniforms([seed], _UNIFORMS_PER_DRAW * d)[0].tolist()
    used = 0
    drawn = bytearray(M)
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
        elif q_max < 1.0 and (G := _MAX_TRIALS * r * left / total) > r:
            q_star = (G - r) / (G - 1.0)
            head, head_cum = [], []
            e_head = 0.0
            i = top
            while i < M and c * p[order[i]] >= q_star:
                k = order[i]
                if not drawn[k]:
                    q = c * p[k]
                    e_head += q * _g(q, r)
                    head.append(k)
                    head_cum.append(e_head)
                i += 1
            cg = c * G
            e_all = e_head + cg * cum[-1]
            while True:
                if used + 2 > len(u):
                    u += _uniforms([seed], len(u), start=len(u))[0].tolist()
                v = u[used] * e_all
                accept = u[used + 1] * G
                used += 2
                if v < e_head:
                    k = head[bisect.bisect_right(head_cum, v)]
                    break
                # Rounding may carry the target past cum[-1]: no unit.
                k = bisect.bisect_right(cum, (v - e_head) / cg)
                if k < M and not drawn[k]:
                    q = c * p[k]
                    if q < q_star and accept < _g(q, r):
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


def _rounds(
    keys: np.ndarray,
    used: np.ndarray,
    live: np.ndarray,
    pick: np.ndarray,
    trial: Callable[..., tuple[np.ndarray, np.ndarray]],
) -> None:
    """Trial rounds until every row of ``live`` accepts, each taking a
    live row's next int(_MAX_TRIALS) trials, two uniforms each, read from
    its stream at its counter ``used`` (``_stream``).  ``trial(live, u0,
    u1)`` takes their uniforms, a row per live row and a column per
    trial, and says which accept and their units; a row's first accepted
    trial's unit goes to ``pick``, and ``used`` moves past it."""
    ahead = np.arange(2 * int(_MAX_TRIALS))
    while live.size:
        u = _stream(keys[live, None], used[live, None] + ahead)
        ok, k = trial(live, u[:, 0::2], u[:, 1::2])
        first = ok.argmax(axis=1)
        took = ok[np.arange(live.size), first]
        used[live] += np.where(took, 2 * first + 2, ahead.size)
        pick[live[took]] = k[took, first[took]]
        live = live[~took]


def _brewer_compose(
    plan: BrewerPlan,
    drawn: np.ndarray,
    rows: np.ndarray,
    top: np.ndarray,
    c: np.ndarray,
    G: np.ndarray,
    r: int,
) -> Callable[..., tuple[np.ndarray, np.ndarray]]:
    """``_brewer_row``'s composition trial at one step for the sorted
    ``rows`` of a batch, heads and sums built once, as ``_rounds`` calls
    it: ``top`` and ``c`` per row of the batch, ``G`` per entry of rows."""
    p, cum, M = plan.p, plan.cum, plan.p.size
    q_star = (G - r) / (G - 1.0)
    head, head_cum = _brewer_heads(plan, drawn, rows * M, top[rows], c[rows], q_star, r)
    e_head = head_cum[:, -1, None]
    cg = (c[rows] * G)[:, None]
    e_all = e_head + cg * cum[-1]

    def trial(live, u0, u1):
        i = np.searchsorted(rows, live)
        v = u0 * e_all[i]
        hit = v < e_head[i]
        k = np.searchsorted(cum, (v - e_head[i]) / cg[i], side="right")
        ok = k < M
        k[~ok] = 0
        q = c[live, None] * p[k]
        ok &= ~drawn[live[:, None] * M + k] & (q < q_star[i, None])
        q[~ok] = 0.0
        ok &= u1 * G[i, None] < _g(q, r)
        h = i[np.nonzero(hit)[0]]
        k[hit] = head[h, np.count_nonzero(head_cum[h] <= v[hit][:, None], axis=1)]
        return hit | ok, k

    return trial


def _brewer_batch(plan: BrewerPlan, seeds: Sequence[int]) -> np.ndarray:
    """Each row's picks, positions in ``plan.p``, one column per draw:
    the law of ``_brewer_row``, all rows in lockstep.  Per row the state
    is a drawn mask, sum_S p, a pointer into p's descending order and
    the count of uniforms spent, ``used``: every trial reads its row's
    stream at that counter (``_stream``), so a batch holds no block of
    uniforms."""
    R, M, d = len(seeds), plan.p.size, plan.draws
    p, order, total = plan.p, plan.order, plan.total
    if R == 0:
        return np.empty((0, d), dtype=np.intp)
    keys = _keys(seeds)
    pair = np.arange(2)[:, None]
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
            G = _MAX_TRIALS * r * left[slow] / total
            composed = (q_max[slow] < 1.0) & (G > r)
            guard = slow[~composed]
            if guard.size:
                block = drawn.reshape(R, M)[guard]
                at = _stream(keys[guard], used[guard])
                pick[guard] = _brewer_fallback(p, block, c[guard], r, at, t)
                used[guard] += 1
            rows = slow[composed]
            if rows.size:
                trial = _brewer_compose(plan, drawn, rows, top, c, G[composed], r)
                _rounds(keys, used, rows, pick, trial)
            live = np.flatnonzero(fast)
        else:
            # Every row takes the rejection pick: its first round runs on
            # the whole arrays.
            u0, u1 = _stream(keys, used + pair)
            k = _proposals(plan, u0)
            used += 2
            ok = u1 * g_max < _g(c * p[k], r)
            ok &= ~drawn[base + k]
            pick[ok] = k[ok]
            live = np.flatnonzero(~ok)

        def reject(live, u0, u1):
            k = _proposals(plan, u0)
            ok = u1 * g_max[live, None] < _g(c[live, None] * p[k], r)
            return ok & ~drawn[base[live, None] + k], k

        _rounds(keys, used, live, pick, reject)
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
    steps = FactorSteps(len(pi0), plan.active, plan.p, picks, c)
    return SplittingTrace(np.array(pi0, dtype=float), steps, final)


def sample_brewer(
    pi: InclusionProbabilities, rng_seed: int, trace: str | None = None
) -> Sample | tuple[Sample, SplittingTrace]:
    """Brewer's procedure: n dependent draws, one unit per step.

    Args:
        pi: target inclusion probabilities (certainty units allowed;
            they are selected up front and the remaining draws run on
            the rest).
        rng_seed: seed; a draw spends two uniforms per rejection or
            composition trial, or one when it is drawn by inverse CDF.
        trace: None for the plain sample; "realized" returns (sample,
            trace), with the splitting trace of ``run_splitting``.  The
            one-row kernel draws both, so a seed gives one sample either
            way.

    Plain and traced calls read the plan kept on pi (``_plan``), which
    the samplers of ``make_sampler(BREWER, pi=pi)`` share, so draws on
    one pi build its plan once.
    """
    if trace not in (None, "realized"):
        raise InvalidInputError(f"trace must be None or 'realized', got {trace!r}")
    if trace is None:
        return make_sampler(DesignKind.BREWER, pi=pi)[0](rng_seed)
    tr = run_splitting(_plan(DesignKind.BREWER, pi), rng_seed, pi.pi)
    # An index array, which Sample takes without checking each entry's type.
    return Sample(selected=np.flatnonzero(tr.final), N=pi.N), tr


# ---------------------------------------------------------------------------
# Uniform access for the Monte Carlo harness and the CLI.


def make_sampler(
    kind: DesignKind,
    *,
    pi: InclusionProbabilities | None = None,
    x: np.ndarray | None = None,
    n: int | None = None,
    N: int | None = None,
) -> tuple[Sampler, InclusionProbabilities]:
    """Build a seed -> Sample sampler.

    Returns the sampler together with the target inclusion
    probabilities (needed to expand study values), from ``target_pi``,
    which checks every input, an x given with pi included.  It builds no
    plan: the sampler takes the returned pi's plan from ``_plan`` on its
    first draw and keeps it, so samplers on one pi share one plan.  Chao
    and Tille plan on a read-only copy of a given x, so a later write to
    the caller's x changes no draw.  SRSWOR's rows hold N uniforms each,
    the ladder designs' a pool of up to N units; Brewer's hold a drawn
    mask of M bytes over the M active units and n picks.
    """
    pi = target_pi(kind, pi, x, n, N)
    if kind is DesignKind.SRSWOR:
        return Sampler(pi.N, partial(_srswor_rows, pi.N, pi.n), pi.N), pi
    ladder = kind in (DesignKind.CHAO, DesignKind.TILLE_ELIMINATION)
    x = _as_readonly(x) if ladder and x is not None else None
    if kind is DesignKind.BREWER:
        # M, the count of active units, is read off pi, not the plan.
        rows, cells = _brewer_plan_rows, max(-(-np.count_nonzero(pi.pi < 1) // 8), pi.n)
    else:
        step = _step_label(kind, pi.N, pi.n)
        rows, cells = partial(_eliminate if ladder else _midzuno_rows, context=step), pi.N
    plan = None

    def draw_rows(seeds: Sequence[int]) -> np.ndarray:
        # The plan is read on the first draw and kept for later ones.
        nonlocal plan
        if plan is None:
            plan = _plan(kind, pi, x)
        return rows(plan, seeds)

    return Sampler(pi.N, draw_rows, cells), pi


def _step_label(kind: DesignKind, N: int, n: int) -> Callable[[int], str]:
    """How a ladder design's errors name its step j, in the sampler and
    the oracle alike."""
    if kind is DesignKind.CHAO:
        return lambda j: f"chao step t={n + 1 + j}"
    if kind is DesignKind.TILLE_ELIMINATION:
        return lambda j: f"tille step i={N - 1 - j}"
    return lambda j: f"midzuno step {j + 1}"


def _plan(
    kind: DesignKind, pi: InclusionProbabilities, x=None
) -> Ladder | MidzunoPlan | BrewerPlan:
    """The plan a design draws ``pi`` from, for the samplers, the traced
    draw and the oracle alike, kept in pi's private ``_plans`` slot with
    what its draws build (``Ladder.law``, ``Ladder.segments``,
    ``BrewerPlan.guide``).  It only plans, on inputs ``target_pi`` has
    checked.

    Midzuno and Brewer keep one plan per pi.  Chao and Tille keep one
    ladder per pi, of x, or of pi's capped shares without x, and build
    it again when the sizes asked for are not the ladder's own x.
    """
    kept = pi._plans
    if kind in (DesignKind.CHAO, DesignKind.TILLE_ELIMINATION):
        sizes = pi.pi if x is None else x
        if kind not in kept or not np.array_equal(kept[kind].x, sizes):
            build = chao_plan if kind is DesignKind.CHAO else tille_plan
            kept[kind] = build(sizes, pi.n)
    elif kind not in kept:
        midzuno = kind is DesignKind.GENERALIZED_MIDZUNO
        kept[kind] = midzuno_plan(pi) if midzuno else brewer_plan(pi.pi)
    return kept[kind]


def target_pi(
    kind: DesignKind, pi: InclusionProbabilities | None, x, n: int | None, N: int | None
) -> InclusionProbabilities:
    """The inclusion probabilities a design runs on: ``pi``, else n/N per
    unit for SRSWOR and ``compute_pips(x, n)`` for the other designs.

    Every check of a design's inputs is made here, before any plan is
    built.  ``kind`` must be a ``DesignKind``, and a given ``n`` or ``N``
    must agree with pi.  An x given next to a pi not computed from it
    must hold one positive, finite size per unit.  For every design but
    SRSWOR, which draws at n/N whatever x is, pi must also be x's capped
    shares at size n, which Chao and Tille draw from x and Midzuno and
    Brewer from pi: every unit's ``min(1, lam x)`` within
    ``PROB_SUM_TOL`` of its pi, lam the ratio of the pi and x totals over
    the units below 1.  So pi = lam x off the certainty units and lam x
    >= 1 - ``PROB_SUM_TOL`` on them.  A NaN fails.  A pi that x does not
    give would otherwise be silently sampled as another one.  The check
    costs a few array passes, reads no plan and makes no
    ``compute_pips`` call.
    """
    if not isinstance(kind, DesignKind):
        raise InvalidInputError(f"unknown design kind {kind!r}")
    if pi is None and kind is not DesignKind.SRSWOR:
        if x is None or n is None:
            raise InvalidInputError(f"{kind.value} needs pi, or x and n")
        # A pi computed from x is not checked against it again.
        pi, x = compute_pips(np.asarray(x, dtype=float), int(n)), None
    elif pi is None:
        if N is None or n is None:
            raise InvalidInputError("srswor needs N and n (or pi)")
        pi = InclusionProbabilities(pi=np.full(N, n / N), n=int(n))
    if n not in (None, pi.n) or N not in (None, pi.N):
        raise InvalidInputError(f"pi has n={pi.n}, N={pi.N}, not n={n}, N={N}")
    if x is None:
        return pi
    x = _check_sizes(x)
    if x.size != pi.N:
        raise InvalidInputError("x and pi must have equal length")
    if kind is DesignKind.SRSWOR:
        return pi
    # At n = N every x gives pi = 1.  A total of x that overflows gives
    # lam = 0, which fails, with no warning.
    free = pi.pi < 1.0
    with np.errstate(over="ignore"):
        lam = pi.pi.sum(where=free) / x.sum(where=free) if pi.n < pi.N else np.inf
        off = np.abs(np.minimum(lam * x, 1.0) - pi.pi).max()
    if not off <= PROB_SUM_TOL:
        raise InvalidInputError(
            "pi does not match the capped size shares of x at size n"
        )
    return pi

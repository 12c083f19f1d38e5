"""Brewer's lockstep batch against the kernel it replaced.

The batch reads each trial's uniforms from its row's stream at the
row's counter, runs a step's first rejection round on whole arrays,
takes a later round's trials several at a time and proposes from a guide
table.  None of that may change a pick: the kernel below, which read a
row-major block, read every row's stream on when one ran short and
bisected ``cum`` for every proposal, is kept as it was, and both must
give every seed the same picks on the frames that reach each of its
paths.
"""

import collections
from typing import Sequence

import numpy as np
import pytest

from splitsamp import compute_pips, derive_seed
from splitsamp import designs
from splitsamp.designs import (
    _MAX_TRIALS,
    _UNIFORMS_PER_DRAW,
    BrewerPlan,
    _brewer_fallback,
    _brewer_heads,
    _by_rejection,
    _g,
    _proposals,
    _uniforms,
    brewer_plan,
)
from splitsamp.montecarlo import _chunk_seeds


# The kernel as it was, verbatim.

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


def _brewer_compose(
    plan: BrewerPlan,
    seeds: Sequence[int],
    u: np.ndarray,
    used: np.ndarray,
    drawn: np.ndarray,
    rows: np.ndarray,
    base: np.ndarray,
    top: np.ndarray,
    c: np.ndarray,
    G: np.ndarray,
    r: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Composition picks of one step for ``rows`` of a batch, with
    ``base``, ``top``, ``c`` and the envelope ``G`` given per entry of
    ``rows``: the trials of ``_brewer_row``, two uniforms each, until
    every row accepts.  Advances ``used`` and returns ``u``, read on
    where a row ran short, with the picks."""
    p, cum, M = plan.p, plan.cum, plan.p.size
    q_star = (G - r) / (G - 1.0)
    head, head_cum = _brewer_heads(plan, drawn, base, top, c, q_star, r)
    e_head = head_cum[:, -1]
    cg = c * G
    e_all = e_head + cg * cum[-1]
    picks = np.empty(rows.size, dtype=np.intp)
    # A round takes each live row's next int(_MAX_TRIALS) trials at once
    # and keeps the first that accepts.
    trials = 2 * np.arange(int(_MAX_TRIALS))
    live = np.arange(rows.size)
    while live.size:
        at_row = rows[live]
        u = _reserve(u, used, seeds, at_row, 2 * trials.size)
        at = used[at_row, None] + trials
        v = u[at_row[:, None], at] * e_all[live, None]
        hit = v < e_head[live, None]
        k = np.searchsorted(cum, (v - e_head[live, None]) / cg[live, None], side="right")
        ok = k < M
        k[~ok] = 0
        q = c[live, None] * p[k]
        ok &= ~drawn[base[live, None] + k] & (q < q_star[live, None])
        q[~ok] = 0.0
        ok &= u[at_row[:, None], at + 1] * G[live, None] < _g(q, r)
        done = hit | ok
        first = done.argmax(axis=1)
        took = done[np.arange(live.size), first]
        used[at_row] += np.where(took, 2 * first + 2, 2 * trials.size)
        i, f = np.flatnonzero(took), first[took]
        by_head = hit[i, f]
        h, fh = i[by_head], f[by_head]
        j = np.count_nonzero(head_cum[live[h]] <= v[h, fh, None], axis=1)
        picks[live[h]] = head[live[h], j]
        picks[live[i[~by_head]]] = k[i[~by_head], f[~by_head]]
        live = live[~took]
    return u, picks


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
            G = _MAX_TRIALS * r * left[slow] / total
            composed = (q_max[slow] < 1.0) & (G > r)
            guard = slow[~composed]
            if guard.size:
                u = _reserve(u, used, seeds, guard, 1)
                block = drawn.reshape(R, M)[guard]
                at = u[guard, used[guard]]
                pick[guard] = _brewer_fallback(p, block, c[guard], r, at, t)
                used[guard] += 1
            rows = slow[composed]
            if rows.size:
                u, pick[rows] = _brewer_compose(
                    plan, seeds, u, used, drawn, rows,
                    base[rows], top[rows], c[rows], G[composed], r,
                )
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


EXPONENTIAL_X = -np.log1p(-np.random.default_rng(77).random(50))
FRAMES = {
    # Every step takes the rejection pick.
    "criterion-05": (np.random.default_rng(20260819).uniform(1.0, 2.0, size=200), 40, 655),
    # Composition picks: heads and tails.
    "criterion-04": (EXPONENTIAL_X, 10, 655),
    "lognormal-1": (np.random.default_rng(5).lognormal(0.0, 1.0, size=200), 40, 655),
    "large-frame": (np.random.default_rng(31).lognormal(0.0, 1.5, size=2000), 200, 65),
    # Late steps take the fallback guard's inverse CDF.
    "near-one": (np.array([19.0] * 5 + [1.0] * 5), 5, 655),
    # Some rows spend more than the uniforms the kernel below reads up
    # front, so it refills its block.
    "refills": (np.random.default_rng(3).lognormal(0.0, 1.5, size=300), 30, 300),
}
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**128 - 1]


def both(plan, seeds):
    new = designs._brewer_batch(plan, seeds)
    old = _brewer_batch(plan, seeds)
    assert new.dtype == old.dtype and new.shape == old.shape
    return new, old


@pytest.mark.parametrize("frame", list(FRAMES))
def test_picks_equal_the_kernel_it_replaced(frame, monkeypatch):
    x, n, R = FRAMES[frame]
    plan = brewer_plan(compute_pips(x, n).pi)
    calls = collections.Counter()

    def stream(keys, at):
        # A read past the block the kernel below reads up front.
        calls["deep"] += int(at.max(initial=0)) >= _UNIFORMS_PER_DRAW * plan.draws
        return read(keys, at)

    def fallback(*args):
        calls["fallback"] += 1
        return guard(*args)

    def heads(*args):
        calls["composition"] += 1
        return compose(*args)

    read, guard, compose = designs._stream, designs._brewer_fallback, designs._brewer_heads
    monkeypatch.setattr(designs, "_stream", stream)
    monkeypatch.setattr(designs, "_brewer_fallback", fallback)
    monkeypatch.setattr(designs, "_brewer_heads", heads)
    chunk = _chunk_seeds(5, 0, R)
    new, old = both(plan, chunk)
    assert np.array_equal(new, old)
    listed = EDGE_SEEDS + [derive_seed(9, r) for r in range(R - len(EDGE_SEEDS))]
    new, old = both(plan, listed)
    assert np.array_equal(new, old)
    # The frame reaches the path it stands for, in the batch under test.
    reached = {
        "criterion-05": calls.keys() <= {"deep"},
        "criterion-04": calls["composition"] > 0,
        "lognormal-1": calls["composition"] > 0,
        "large-frame": calls["composition"] > 0,
        "near-one": calls["fallback"] > 0,
        "refills": calls["deep"] > 0,
    }
    assert reached[frame], calls


@pytest.mark.parametrize("R", [0, 1, 2])
@pytest.mark.parametrize("frame", ["criterion-04", "near-one", "census"])
def test_small_batches_and_no_active_unit(frame, R):
    if frame == "census":
        # Every unit is certain: no active unit and no draw.
        x, n = np.arange(1.0, 7.0), 6
    else:
        x, n, _ = FRAMES[frame]
    plan = brewer_plan(compute_pips(x, n).pi)
    assert (plan.p.size == 0) == (frame == "census")
    for seeds in ([derive_seed(3, r) for r in range(R)], _chunk_seeds(3, 0, R)):
        new, old = both(plan, seeds)
        assert new.shape == (R, plan.draws)
        assert np.array_equal(new, old)


def clustered_pis():
    """Inclusion probabilities whose cumulative sums have clusters of
    tiny and zero p, so that some guide buckets hold several edges."""
    rng = np.random.default_rng(11)
    yield np.r_[np.full(7, 0.4), np.full(40, 1e-12), 0.3, np.zeros(5), np.full(30, 1e-300)]
    yield rng.permutation(np.r_[rng.uniform(0.05, 0.5, 60), np.full(200, 1e-9), np.zeros(10)])
    yield np.r_[np.full(3, 1e-15), rng.uniform(0.0, 0.2, 500), np.full(3, 1e-15)]
    yield np.r_[0.7, 0.3]
    yield np.full(10, 0.5)


@pytest.mark.parametrize("pi", list(clustered_pis()), ids=lambda pi: f"M{pi.size}")
def test_guide_equals_searchsorted(pi):
    plan = brewer_plan(pi)
    guide, crowded = plan.guide
    cum, K = plan.cum, guide.size
    assert K & (K - 1) == 0 and K > 4 * cum.size
    # Each bucket's first u and where u T first reaches each cumulative
    # sum, with their neighbouring doubles, 0 and the largest uniform.
    points = np.r_[np.arange(K) / K, cum / cum[-1]]
    u = np.r_[
        0.0, points, np.nextafter(points, 0.0), np.nextafter(points, 1.0),
        1.0 - 2.0**-53, np.random.default_rng(K).random(5000),
    ]
    u = u[(u >= 0.0) & (u < 1.0)]
    expect = np.searchsorted(cum, u * cum[-1], side="right")
    assert np.array_equal(_proposals(plan, u), expect)
    # A block of rows x trials, as a later rejection round asks.
    block = u[: u.size // 4 * 4].reshape(-1, 4)
    assert np.array_equal(_proposals(plan, block), expect[: block.size].reshape(-1, 4))
    first = np.searchsorted(cum, np.arange(K + 1) / K * cum[-1], side="right")
    assert np.array_equal(guide, first[:-1])
    if pi.size > 20:
        # Keys fall in crowded buckets, which only a search settles.
        assert np.array_equal(crowded, np.diff(first) > 1)
        assert crowded[(u * K).astype(np.intp)].any()
    else:
        assert np.all(np.diff(first) <= 1) and crowded.size == 0


def test_guide_built_once_by_the_first_batch_and_read_only():
    pi = compute_pips(*FRAMES["lognormal-1"][:2])
    draw, _ = designs.make_sampler(designs.DesignKind.BREWER, pi=pi)
    plan = designs._plan(designs.DesignKind.BREWER, pi)
    draw(7)
    assert "guide" not in vars(plan)
    draw.rows(range(3))
    guide, crowded = plan.guide
    draw.rows(range(3))
    assert plan.guide[0] is guide and crowded.size
    for a in (plan.p, plan.cum, guide, crowded):
        assert not a.flags.writeable


def rounds(monkeypatch, used, live, accept_at):
    """Run ``designs._rounds`` with a stream whose uniform j of row r is
    j + r / 8, so the toy trial can tell which uniforms it was handed.
    A row accepts the trial whose first uniform has an index in
    ``accept_at[row]``, and its unit is 1000 row + that index.  Returns
    ``used``, the picks and each call's (live rows, first indices, picks
    so far)."""
    R = len(used)
    calls = []

    def stream(keys, at):
        return at + keys / 8

    def trial(rows, u0, u1):
        j = np.floor(u0).astype(np.intp)
        assert np.array_equal((u0 - j) * 8, np.broadcast_to(rows[:, None], j.shape))
        assert np.array_equal(u1, u0 + 1)
        calls.append((rows.copy(), j, pick.copy()))
        ok = np.array([[i in accept_at[r] for i in row] for r, row in zip(rows, j)])
        return ok, 1000 * rows[:, None] + j

    monkeypatch.setattr(designs, "_stream", stream)
    used = np.array(used, dtype=np.intp)
    pick = np.full(R, -1)
    designs._rounds(np.arange(R), used, np.array(live), pick, trial)
    return used, pick, calls


def test_rounds_advance_used_past_the_first_accepted_trial(monkeypatch):
    # Row 0 accepts at its sixth trial, row 1 at its first, row 2 at its
    # third; row 3 is not live.  Row 2 starts far into its stream.
    accept_at = {0: {10}, 1: {2}, 2: {10_008}}
    used, pick, calls = rounds(monkeypatch, [0, 2, 10_004, 0], [0, 1, 2], accept_at)
    # A round takes int(_MAX_TRIALS) trials a row: used moves by 2 per
    # trial that accepts none, else to just past the accepted one.
    assert [c[1].shape for c in calls] == [(3, int(_MAX_TRIALS)), (1, int(_MAX_TRIALS))]
    assert np.array_equal(calls[0][1][:, 0], [0, 2, 10_004])
    assert np.array_equal(calls[1][1], [[8, 10, 12, 14]])
    assert used.tolist() == [12, 4, 10_010, 0]
    # Only a row that accepts gets a pick, and only in the round it does.
    assert calls[1][2].tolist() == [-1, 1002, 12_008, -1]
    assert pick.tolist() == [10, 1002, 12_008, -1]
    # No live row, no round.
    used, pick, calls = rounds(monkeypatch, [3, 5], [], {})
    assert calls == [] and used.tolist() == [3, 5] and pick.tolist() == [-1, -1]


def test_stream_reads_the_uniforms_at_each_counter():
    # Any counters of any rows, in any shape, give the bits of
    # ``_uniforms``: past a first block, far into a stream and at the
    # edge seeds, whose keys are read in Python.
    keys = designs._keys(EDGE_SEEDS)
    block = _uniforms(EDGE_SEEDS, 64, start=4000)
    at = 4000 + np.random.default_rng(2).integers(0, 64, size=(len(EDGE_SEEDS), 5))
    got = designs._stream(keys[:, None], at)
    expect = np.take_along_axis(block, at - 4000, axis=1)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))
    step_major = designs._stream(keys, np.arange(3)[:, None] + np.zeros(len(keys), np.intp))
    assert np.array_equal(step_major, _uniforms(EDGE_SEEDS, 3).T)

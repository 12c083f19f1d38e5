"""Correctness checks on the outputs the benchmark gets from splitsamp.

Every check tests a property the method must have, or compares with a
value computed here apart from the program.  None compares with a stored
copy of an earlier output.  A failed check raises ``CheckError``.
"""

from __future__ import annotations

import math

import numpy as np


class CheckError(AssertionError):
    """An output of the program broke a property it must have."""


def _fail(msg: str) -> None:
    raise CheckError(msg)


def pips(pi: np.ndarray, x: np.ndarray, n: int, tol: float = 1e-9) -> None:
    """Capped size-proportional probabilities: they sum to n, lie in
    (0, 1], are proportional to x off the certainty units, and every
    certainty unit is at least as large as it would need to be."""
    pi = np.asarray(pi, dtype=float)
    x = np.asarray(x, dtype=float)
    if pi.shape != x.shape:
        _fail(f"pi has shape {pi.shape}, x has {x.shape}")
    if abs(math.fsum(pi) - n) > tol:
        _fail(f"pi sums to {math.fsum(pi)!r}, expected {n}")
    if float(pi.min()) <= 0.0 or float(pi.max()) > 1.0:
        _fail(f"pi leaves (0, 1]: min {pi.min()!r}, max {pi.max()!r}")
    free = pi < 1.0
    if not free.any():
        return
    ratio = pi[free] / x[free]
    lam = float(np.median(ratio))
    if float(np.max(np.abs(ratio - lam))) > tol * lam:
        _fail("pi is not proportional to x off the certainty units")
    if (~free).any() and float(lam * x[~free].min()) < 1.0 - tol:
        _fail("a certainty unit is smaller than its share allows")


def sample_rows(rows: np.ndarray, N: int, n: int, certain: np.ndarray) -> None:
    """Each row holds n distinct units of 0..N-1, certainty units included."""
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != n:
        _fail(f"samples have shape {rows.shape}, expected (*, {n})")
    if rows.size == 0:
        return
    if int(rows.min()) < 0 or int(rows.max()) >= N:
        _fail(f"sample unit out of range 0..{N - 1}")
    srt = np.sort(rows, axis=1)
    if n > 1 and bool((np.diff(srt, axis=1) == 0).any()):
        _fail("a sample repeats a unit")
    for k in np.asarray(certain, dtype=int):
        if not bool((srt == k).any(axis=1).all()):
            _fail(f"a sample misses certainty unit {int(k)}")


def ht_total(t_hat: float, selected, y: np.ndarray, pi: np.ndarray) -> None:
    """The HT estimate is the sum of y/pi over the sample."""
    idx = list(selected)
    expect = math.fsum(float(y[k]) / float(pi[k]) for k in idx)
    scale = 1.0 + math.fsum(abs(float(y[k]) / float(pi[k])) for k in idx)
    if abs(float(t_hat) - expect) > 1e-12 * scale:
        _fail(f"HT estimate {t_hat!r}, expected {expect!r}")


def certified(rows) -> None:
    """Every grid point of a certification passed."""
    for row in rows:
        if not row.passed:
            _fail(
                f"bound fails at eps={row.eps}: freq {row.freq} over "
                f"bound {row.bound} (Wilson {row.wilson})"
            )


def unbiased_mean(errors: np.ndarray, z: float = 6.0) -> None:
    """Mean HT error within z standard errors of 0."""
    errors = np.asarray(errors, dtype=float)
    mean = float(errors.mean())
    se = float(errors.std(ddof=1)) / math.sqrt(errors.size)
    if abs(mean) > z * se + 1e-15:
        _fail(f"mean error {mean!r} is {abs(mean) / se:.1f} standard errors from 0")


def close(value: float, expect: float, tol: float, what: str) -> None:
    if not abs(float(value) - float(expect)) <= tol:
        _fail(f"{what}: {value!r} differs from {expect!r} by more than {tol}")


def at_most(value: float, limit: float, what: str) -> None:
    if not float(value) <= limit:
        _fail(f"{what}: {value!r} exceeds {limit}")


def support(dist, n: int, tol: float = 1e-9) -> None:
    """Every support element has n units; support plus pruned mass is 1."""
    for key in dist.support:
        if len(key) != n or len(set(key)) != n:
            _fail(f"support element {key!r} is not a set of {n} units")
    mass = math.fsum(dist.support.values()) + float(dist.pruned_mass)
    if abs(mass - 1.0) > tol:
        _fail(f"support mass plus pruned mass is {mass!r}, expected 1")


def first_order(pi1: np.ndarray, pi: np.ndarray, tol: float = 1e-9) -> None:
    gap = float(np.max(np.abs(np.asarray(pi1) - np.asarray(pi))))
    if gap > tol:
        _fail(f"first-order probabilities miss pi by {gap!r}")


def increments(trace, tol: float = 1e-12) -> None:
    """Each Brewer step moves |delta|_1 = 2 (1 - pi_drawn), where the
    drawn unit is the one raised to 1."""
    cur = np.array(trace.pi0, dtype=float)
    for step in trace.steps:
        d = np.asarray(step.realized_delta, dtype=float)
        drawn = int(np.argmax(d))
        l1 = float(np.abs(d).sum())
        if abs(l1 - 2.0 * (1.0 - cur[drawn])) > tol:
            _fail(f"step {step.t}: |delta|_1 = {l1!r}, expected {2.0 * (1.0 - cur[drawn])!r}")
        cur += d


def same_sample(a, b, what: str) -> None:
    if tuple(a) != tuple(b):
        _fail(f"{what}: {tuple(a)} != {tuple(b)}")

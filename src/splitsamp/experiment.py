"""Closed-form comparison of the Bernstein-type and concentration bounds
on a synthetic skewed population.

The population is x_k = 1 + g_k with g_k standard exponential; study
values are y_k = x_k + sigma * e_k with e_k standard normal, one noise
vector shared across all sigma levels.  Size-proportional inclusion
probabilities pi_k = n x_k / sum(x) are used as-is.  For every
(sigma, n) cell the difference bernstein - cna is evaluated on a linear
eps grid; no sampling is involved, so the full N = 10^4 scale runs in
seconds.

Variate generation is pinned for within-build determinism: a single
numpy Generator supplies uniforms; exponentials come from the inverse
CDF -log(1 - u), normals from the Marsaglia polar transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import BoundInputs, bernstein_bound, cna_bound
from .errors import InvalidInputError
from .population import StudyVector

DEFAULT_SIGMAS = (0.0, 0.5, 1.0, 5.0)
DEFAULT_NS = (100.0, 10.0**2.5, 1000.0, 10.0**3.5)
DEFAULT_SEED = 987654321

# The eps grid reaches this multiple of the population mean.
_EPS_UPPER_FACTOR = 2.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid specification for the bound-difference curves.

    The eps grid is linear with ``eps_count`` points on
    (0, 2 pop_mean], where pop_mean = mean(y) depends on sigma.
    """

    N: int = 10_000
    sigma_list: tuple[float, ...] = DEFAULT_SIGMAS
    n_list: tuple[float, ...] = DEFAULT_NS
    eps_count: int = 200
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.N < 2:
            raise InvalidInputError("population size must be at least 2")
        if not self.sigma_list or any(s < 0 for s in self.sigma_list):
            raise InvalidInputError("sigma values must be nonnegative")
        if not self.n_list or any(not 0 < n <= self.N for n in self.n_list):
            raise InvalidInputError("sample sizes must lie in (0, N]")
        if self.eps_count < 1:
            raise InvalidInputError("eps grid needs at least one point")


@dataclass(frozen=True)
class ExperimentRow:
    sigma: float
    n: float
    eps: float
    diff: float
    pop_mean: float


def polar_normals(rng: np.random.Generator, count: int) -> np.ndarray:
    """Standard normals via the Marsaglia polar method.

    Consumes uniforms from ``rng`` in rejection rounds; pair draws map to
    pairs of normals, used in order.
    """
    out = np.empty(count)
    filled = 0
    while filled < count:
        need = count - filled
        # Acceptance rate is pi/4; oversample to usually finish in one round.
        m = need // 2 + 8
        u = 2.0 * rng.random(m) - 1.0
        v = 2.0 * rng.random(m) - 1.0
        s = u * u + v * v
        ok = (s > 0.0) & (s < 1.0)
        us, vs, ss = u[ok], v[ok], s[ok]
        f = np.sqrt(-2.0 * np.log(ss) / ss)
        z = np.empty(2 * ss.size)
        z[0::2] = us * f
        z[1::2] = vs * f
        take = min(z.size, need)
        out[filled : filled + take] = z[:take]
        filled += take
    return out


def generate_population(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Draw (x, noise): sizes 1 + Exp(1) and the shared N(0,1) vector."""
    rng = np.random.default_rng(config.seed)
    u = rng.random(config.N)
    gamma = -np.log1p(-u)
    noise = polar_normals(rng, config.N)
    return 1.0 + gamma, noise


def run_experiment(config: ExperimentConfig | None = None) -> list[ExperimentRow]:
    """Evaluate bernstein - cna over the full (sigma, n, eps) grid.

    Exactly len(sigma_list) * len(n_list) * eps_count rows, in that
    nesting order.
    """
    if config is None:
        config = ExperimentConfig()
    x, noise = generate_population(config)
    x_total = float(x.sum())
    rows: list[ExperimentRow] = []
    for sigma in config.sigma_list:
        y = x + sigma * noise
        pop_mean = float(y.mean())
        if pop_mean <= 0:
            raise InvalidInputError(
                f"sigma={sigma}: population mean {pop_mean} is not positive; "
                "the eps grid upper end would be empty"
            )
        upper = _EPS_UPPER_FACTOR * pop_mean
        eps_grid = upper * np.arange(1, config.eps_count + 1) / config.eps_count
        for n in config.n_list:
            pi = n * x / x_total
            sv = StudyVector(y_check=y / pi, _y=y, _pi=pi)
            inputs = BoundInputs.from_study(sv, n=float(n), eps=0.0)
            for eps in eps_grid:
                diff = bernstein_bound(inputs, float(eps)) - cna_bound(
                    inputs, float(eps)
                )
                rows.append(
                    ExperimentRow(
                        sigma=float(sigma),
                        n=float(n),
                        eps=float(eps),
                        diff=float(diff),
                        pop_mean=pop_mean,
                    )
                )
    return rows


def overfull_units(config: ExperimentConfig) -> list[tuple[float, int, float]]:
    """The sample sizes at which some unit gets pi = n x / sum(x) > 1,
    which ``run_experiment`` uses uncapped: per such n, the count of
    those units and the largest pi."""
    x, _ = generate_population(config)
    x_total = float(x.sum())
    found = []
    for n in config.n_list:
        pi = n * x / x_total
        over = int(np.count_nonzero(pi > 1.0))
        if over:
            found.append((float(n), over, float(pi.max())))
    return found


def experiment_csv(rows: list[ExperimentRow]) -> str:
    lines = ["sigma,n,eps,diff,pop_mean"]
    for r in rows:
        lines.append(f"{r.sigma!r},{r.n!r},{r.eps!r},{r.diff!r},{r.pop_mean!r}")
    return "\n".join(lines) + "\n"

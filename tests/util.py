"""Small model builders and statistics shared across test modules."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from pdifmp import CumulativeKernel, HybridState, ModeSet, PDifMPModel


def ks_statistic(samples: Sequence[float], cdf: Callable[[float], float]) -> float:
    """Kolmogorov-Smirnov statistic sup |empirical CDF - cdf|."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    if n == 0:
        raise ValueError("samples must be nonempty")
    f = np.array([cdf(x) for x in xs])
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


def flip_kernel() -> CumulativeKernel:
    # two modes, mandatory flip
    return CumulativeKernel(lambda y, v: [0.0, 0.0, 1.0] if v == 0 else [0.0, 1.0, 1.0])


def constant_rate_model(
    rate: float,
    rate_bound: float,
    drift=lambda y, v: (0.0,),
    diffusion=lambda y, v: (0.0,),
    horizon: float = 1.0,
    y0: tuple = (1.0,),
) -> PDifMPModel:
    """Two-mode flip model with a constant jump rate; trivial dynamics by
    default so thinning behaviour can be tested in isolation."""
    return PDifMPModel(
        modes=ModeSet((0, 1)),
        drift=drift,
        diffusion=diffusion,
        rate=lambda y, v: rate,
        rate_bound=rate_bound,
        kernel=flip_kernel(),
        horizon=horizon,
        initial_state=HybridState(y0, 0),
        name="flip",
    )


def uniform3_kernel() -> CumulativeKernel:
    # four modes, uniform over the three modes other than the current one
    def weights(y, v):
        out = [0.0]
        acc = 0.0
        for i in range(4):
            if i != v:
                acc += 1.0 / 3.0
            out.append(acc)
        out[-1] = 1.0
        return out

    return CumulativeKernel(weights)

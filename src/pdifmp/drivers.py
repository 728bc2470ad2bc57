"""Deterministic, seedable stochastic driver streams.

Each path owns four independent substreams, one per kind of randomness the
simulation consumes:

* ``poisson``  (0) -- exponential waiting times between proposed jump
  times, generated by inverse CDF at a dominating rate fixed per stream;
* ``thinning`` (1) -- the uniforms that accept or reject each proposal;
* ``kernel``   (2) -- the uniforms that resample the mode (and, for models
  that rescale the continuous state at jumps, the jump magnitude);
* ``wiener``   (3) -- Gaussian increments for the Brownian driver.

Substream ``s`` of path ``path_id`` is numpy's Philox generator keyed by
``(seed, (path_id << 3) | s)``, so a draw is a pure function of the seed,
the path, the substream and the draw index: replays are bitwise identical,
and draws from one substream never perturb another.  ``fork_for_path``
builds four generators for a new stream.  Philox is counter-based, so
``reset`` re-keys an existing stream by writing each substream's 128-bit
key and a zero counter into its generator: about 6 us against about 80 us
for a new stream (x86-64, Python 3.11, numpy 2.4).  Loops over paths reuse
one stream.

Draw-order contract
-------------------
Indices are 1-based, and ``counters[s]`` counts the draws taken from
substream ``s``.

* ``proposal_time(k, rate)`` is the sum of the first ``k`` waiting times
  ``-log1p(-u) / rate``, ``u`` running over the poisson uniforms in order
  and skipping ``u = 0``; the rate is frozen at the stream's first draw.
* ``thinning_uniform(k)`` is the ``k``-th thinning uniform.
* ``kernel_slots(k)`` is the pair of kernel uniforms ``2k - 1`` (mode) and
  ``2k`` (magnitude).  A rejected proposal leaves its pair unused, so two
  consumers of one stream agree on every index even if their
  accept/reject decisions differ.
* ``wiener_block(n, h)`` is the next ``n`` wiener normals times
  ``sqrt(h)`` as one float64 array, one per grid cell in time order;
  blocks of consecutive segments concatenate to one stream, and so do the
  blocks a long segment is split into.  ``h = 0`` gives zeros and draws
  nothing.  A path or a coupled pair that diverges draws Wiener
  increments only through its failing block: both sides of a pair step
  each block before the next is drawn.

Lockstep lanes (``jump_engine.coupled_distance_rows``, a level's paths as
one lane group) draw per substream in the same order from one stream,
re-keyed per path twice: to lay out the path's proposal times and read the
thinning uniforms and kernel slots of every proposal it tests, which
``_thinning_test`` and ``_jump`` then take as arguments, then to draw its
Wiener increments one segment at a time.  The draws of different
substreams interleave differently, and kernel uniforms of rejected
proposals are drawn too, which changes no value.

The first three are memoised, so coupled consumers reading the same stream
instance observe identical values at identical indices.
"""

from __future__ import annotations

import math
from operator import index as _index

import numpy as np

_MASK64 = (1 << 64) - 1
_MAX_PATH = 1 << 60

_SUB_POISSON = 0
_SUB_THINNING = 1
_SUB_KERNEL = 2
_SUB_WIENER = 3


def _state_template(substream: int) -> dict:
    # ``reset`` writes a key into this and assigns it to the bit generator,
    # which is much cheaper than constructing Philox(key=...) per path.  The
    # setter copies the values and never writes back, so the counter and
    # buffer stay zero; it copies plain int lists faster than uint64 arrays.
    # Equality with an independently keyed Philox is pinned by a test.
    return {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [0, substream]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


class DriverStream:
    """Reproducible randomness for one simulated path."""

    __slots__ = ("_gens", "_bitgens", "_states", "counters", "_proposal_rate", "_proposal_times", "_memo")

    def __init__(self, seed: int, path_id: int = 0) -> None:
        self._bitgens = [np.random.Philox(key=[0, 0]) for _ in range(4)]
        self._gens = [np.random.Generator(bg) for bg in self._bitgens]
        self._states = [_state_template(sub) for sub in range(4)]
        self.reset(seed, path_id)

    def reset(self, seed: int, path_id: int) -> None:
        """Re-key the stream in place; equivalent to a fresh construction.

        ``seed`` and ``path_id`` are integers of any kind (numpy's too); the
        seed is taken modulo 2**64.
        """
        try:
            seed = _index(seed) & _MASK64
        except TypeError:
            raise TypeError(f"seed must be an integer, got {seed!r}") from None
        try:
            path_id = _index(path_id)
        except TypeError:
            raise TypeError(f"path_id must be an integer, got {path_id!r}") from None
        if not 0 <= path_id < _MAX_PATH:
            raise ValueError(f"path_id must lie in [0, 2**60), got {path_id!r}")
        key_hi = path_id << 3
        for sub, (bg, st) in enumerate(zip(self._bitgens, self._states)):
            key = st["state"]["key"]
            key[0] = seed
            key[1] = key_hi | sub
            bg.state = st
        self.counters = [0, 0, 0, 0]
        self._proposal_rate: float | None = None
        self._proposal_times: list[float] = []
        self._memo: list[list[float]] = [[], [], [], []]  # thinning and kernel only

    def proposal_time(self, k: int, rate_bound: float) -> float:
        """The k-th proposed jump time (1-based), memoised."""
        if k < 1:
            raise ValueError(f"proposal index must be >= 1, got {k!r}")
        times = self._proposal_times
        if len(times) < k:
            if not rate_bound > 0.0:
                raise ValueError(f"rate_bound must be positive, got {rate_bound!r}")
            if self._proposal_rate is None:
                self._proposal_rate = float(rate_bound)
            elif rate_bound != self._proposal_rate:
                raise ValueError(
                    f"stream already serves proposals at rate {self._proposal_rate!r}; got {rate_bound!r}"
                )
            gen = self._gens[_SUB_POISSON]
            t = times[-1] if times else 0.0
            while len(times) < k:
                inc = -math.log1p(-gen.random()) / rate_bound
                self.counters[_SUB_POISSON] += 1
                if inc != 0.0:  # u = 0 would stall the proposal clock
                    t += inc
                    times.append(t)
        return times[k - 1]

    def _uniforms(self, sub: int, n: int) -> list[float]:
        """The memoised uniforms of substream ``sub``, at least ``n`` long."""
        cache = self._memo[sub]
        gen = self._gens[sub]
        while len(cache) < n:
            cache.append(gen.random())
            self.counters[sub] += 1
        return cache

    def thinning_uniform(self, k: int) -> float:
        """The acceptance uniform for proposal k (1-based), memoised."""
        if k < 1:
            raise ValueError(f"proposal index must be >= 1, got {k!r}")
        return self._uniforms(_SUB_THINNING, k)[k - 1]

    def kernel_slots(self, k: int) -> tuple[float, float]:
        """(mode uniform, magnitude uniform) allocated to proposal k, memoised."""
        if k < 1:
            raise ValueError(f"proposal index must be >= 1, got {k!r}")
        cache = self._uniforms(_SUB_KERNEL, 2 * k)
        return cache[2 * k - 2], cache[2 * k - 1]

    def wiener_block(self, n: int, h: float) -> np.ndarray:
        """n increments for consecutive cells of width h, in grid order, as
        one float64 array."""
        if n < 1:
            raise ValueError(f"block size must be >= 1, got {n!r}")
        if h < 0.0:
            raise ValueError(f"step must be nonnegative, got {h!r}")
        if h == 0.0:
            return np.zeros(n)
        self.counters[_SUB_WIENER] += n
        return self._gens[_SUB_WIENER].standard_normal(n) * math.sqrt(h)


def fork_for_path(seed: int, path_id: int) -> DriverStream:
    """Independent stream for one path; pure in (seed, path_id)."""
    return DriverStream(seed, path_id)

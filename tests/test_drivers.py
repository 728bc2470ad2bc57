import math

import numpy as np
import pytest

from pdifmp import DriverStream, fork_for_path

from util import ks_statistic

MASK64 = (1 << 64) - 1


def philox(seed: int, path_id: int, substream: int) -> np.random.Generator:
    # the documented keying: (seed, (path_id << 3) | substream)
    key = np.array([seed & MASK64, (path_id << 3) | substream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def test_proposal_time_rejects_bad_rate():
    s = fork_for_path(1, 0)
    for rate in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            s.proposal_time(1, rate)
    assert s.counters == [0, 0, 0, 0]
    with pytest.raises(ValueError):
        s.proposal_time(0, 1.0)


def test_proposal_rate_is_frozen_per_stream():
    s = fork_for_path(1, 0)
    s.proposal_time(1, 2.0)
    with pytest.raises(ValueError):
        s.proposal_time(2, 3.0)
    s.reset(1, 0)
    s.proposal_time(1, 3.0)


def test_proposal_time_skips_zero_uniform():
    class Uniforms:
        def __init__(self, values):
            self.values = iter(values)

        def random(self):
            return next(self.values)

    s = fork_for_path(1, 0)
    s._gens[0] = Uniforms([0.0, 0.5, 0.0, 0.25])
    assert s.proposal_time(1, 2.0) == -math.log1p(-0.5) / 2.0
    assert s.proposal_time(2, 2.0) == -math.log1p(-0.5) / 2.0 - math.log1p(-0.25) / 2.0
    assert s.counters[0] == 4


def test_exponential_increment_mean():
    # law of large numbers: mean of 1e5 exp(2) waiting times is 0.5 +- 3 se
    s = fork_for_path(42, 0)
    n = 100_000
    se = 0.5 / math.sqrt(n)
    assert abs(s.proposal_time(n, 2.0) / n - 0.5) < 3 * se


def test_proposal_times_strictly_increase():
    s = fork_for_path(3, 5)
    times = [s.proposal_time(k, 1.0) for k in range(1, 200)]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_replay_determinism():
    a = fork_for_path(9, 4)
    b = fork_for_path(9, 4)
    assert [a.proposal_time(k, 1.5) for k in range(1, 51)] == [
        b.proposal_time(k, 1.5) for k in range(1, 51)
    ]
    assert np.array_equal(a.wiener_block(10, 0.1), b.wiener_block(10, 0.1))
    assert [a.thinning_uniform(k) for k in range(1, 11)] == [b.thinning_uniform(k) for k in range(1, 11)]
    assert [a.kernel_slots(k) for k in range(1, 6)] == [b.kernel_slots(k) for k in range(1, 6)]
    assert a.counters == b.counters


def test_reset_matches_fresh_construction():
    fresh = fork_for_path(77, 3)
    reused = fork_for_path(5, 0)
    # consume every substream first, then re-key
    reused.proposal_time(3, 1.0)
    reused.wiener_block(7, 0.2)
    reused.thinning_uniform(2)
    reused.kernel_slots(1)
    reused.reset(77, 3)
    assert reused.counters == [0, 0, 0, 0]
    assert fresh.proposal_time(4, 2.5) == reused.proposal_time(4, 2.5)
    assert np.array_equal(fresh.wiener_block(5, 0.3), reused.wiener_block(5, 0.3))
    assert fresh.thinning_uniform(4) == reused.thinning_uniform(4)
    assert fresh.kernel_slots(2) == reused.kernel_slots(2)
    assert fresh.counters == reused.counters


def assert_matches_numpy_philox(s: DriverStream, seed: int, path_id: int) -> None:
    # every accessor of a stream keyed (seed, path_id) with nothing drawn yet
    rate = 1.5
    u = philox(seed, path_id, 0).random(20)
    assert [s.proposal_time(k, rate) for k in range(1, 21)] == list(
        np.cumsum([-math.log1p(-x) / rate for x in u])
    )
    assert [s.thinning_uniform(k) for k in range(1, 11)] == list(philox(seed, path_id, 1).random(10))
    kernel = philox(seed, path_id, 2).random(8)
    assert [s.kernel_slots(k) for k in range(1, 5)] == [(kernel[2 * i], kernel[2 * i + 1]) for i in range(4)]
    assert np.array_equal(s.wiener_block(6, 0.25), philox(seed, path_id, 3).standard_normal(6) * 0.5)
    assert s.counters == [20, 10, 8, 6]


@pytest.mark.parametrize("seed, path_id", [(0, 0), (12345, 7), ((1 << 64) + 11, (1 << 60) - 1)])
def test_accessors_match_numpy_philox(seed, path_id):
    assert_matches_numpy_philox(fork_for_path(seed, path_id), seed, path_id)


def test_reset_matches_numpy_philox():
    # re-keying a stream that has drawn from all four substreams gives the
    # draws of an independently keyed Philox, not only those of a new stream
    s = fork_for_path(5, 3)
    s.proposal_time(3, 1.0)
    s.thinning_uniform(2)
    s.kernel_slots(2)
    s.wiener_block(7, 0.2)
    seed, path_id = (1 << 64) + 11, (1 << 60) - 1
    s.reset(seed, path_id)
    assert s.counters == [0, 0, 0, 0]
    assert_matches_numpy_philox(s, seed, path_id)


def test_wiener_block_edge_cases():
    s = fork_for_path(2, 0)
    # one float64 array, as the engine slices it
    zeros = s.wiener_block(3, 0.0)
    assert zeros.dtype == np.float64 and zeros.tolist() == [0.0, 0.0, 0.0]
    assert s.counters[3] == 0
    block = s.wiener_block(2, 1.0)
    assert block.dtype == np.float64 and block.shape == (2,)
    assert np.array_equal(block, fork_for_path(2, 0).wiener_block(2, 1.0))
    with pytest.raises(ValueError):
        s.wiener_block(1, -0.1)
    with pytest.raises(ValueError):
        s.wiener_block(0, 0.1)


def test_wiener_variance():
    # sample variance of 1e5 N(0, 0.25) draws; chi-square spread gives
    # se ~ var * sqrt(2/n)
    s = fork_for_path(11, 0)
    n = 100_000
    draws = np.array(s.wiener_block(n, 0.25))
    assert abs(draws.mean()) < 3 * 0.5 / math.sqrt(n)
    assert abs(draws.var() - 0.25) < 3 * 0.25 * math.sqrt(2.0 / n)


def test_wiener_partition_additivity():
    # summing increments over any partition of [0,1], each segment split
    # into its own number of equal cells, gives a N(0,1) total; sample
    # variance over many paths ~ 1 regardless of the partitions
    rng = np.random.default_rng(0)
    totals = []
    for pid in range(2000):
        s = fork_for_path(123, pid)
        cuts = np.sort(rng.uniform(0.0, 1.0, size=rng.integers(1, 12)))
        widths = np.diff(np.concatenate(([0.0], cuts, [1.0])))
        total = 0.0
        for w in widths:
            n = int(rng.integers(1, 4))
            total += sum(s.wiener_block(n, float(w) / n))
        totals.append(total)
    var = np.var(totals)
    assert abs(var - 1.0) < 3 * math.sqrt(2.0 / len(totals))


def test_wiener_block_equals_scalars():
    # blocks of consecutive segments concatenate to one stream
    a = fork_for_path(6, 1)
    b = fork_for_path(6, 1)
    c = fork_for_path(6, 1)
    block = a.wiener_block(16, 0.5)
    assert block.tolist() == [b.wiener_block(1, 0.5)[0] for _ in range(16)]
    assert np.array_equal(block, np.concatenate([c.wiener_block(5, 0.5), c.wiener_block(11, 0.5)]))


def test_thinning_uniforms_pass_ks():
    s = fork_for_path(101, 0)
    n = 10_000
    samples = [s.thinning_uniform(k) for k in range(1, n + 1)]
    assert ks_statistic(samples, lambda x: min(max(x, 0.0), 1.0)) < 1.36 / math.sqrt(n)


def test_substream_isolation():
    # interleaving draws from the other substreams must not perturb any one
    plain = fork_for_path(8, 2)
    thinning = [plain.thinning_uniform(k) for k in range(1, 21)]
    kernel = [plain.kernel_slots(k) for k in range(1, 21)]
    proposals = [plain.proposal_time(k, 1.0) for k in range(1, 21)]
    wiener = plain.wiener_block(20, 0.1).tolist()
    mixed = fork_for_path(8, 2)
    got = ([], [], [], [])
    for k in range(1, 21):
        got[1].append(mixed.kernel_slots(k))
        got[0].append(mixed.thinning_uniform(k))
        got[3].extend(mixed.wiener_block(1, 0.1).tolist())
        got[2].append(mixed.proposal_time(k, 1.0))
    assert got == (thinning, kernel, proposals, wiener)


def test_indexed_views_match_sequential():
    # reading out of order draws up to the highest index once; re-reads are
    # memoised and draw nothing more
    seq = fork_for_path(19, 7)
    idx = fork_for_path(19, 7)
    sequential = [seq.thinning_uniform(k) for k in range(1, 11)]
    slots = [seq.kernel_slots(k) for k in range(1, 6)]
    times = [seq.proposal_time(k, 0.5) for k in range(1, 9)]
    assert idx.thinning_uniform(10) == sequential[9]
    assert idx.kernel_slots(5) == slots[4]
    assert idx.proposal_time(8, 0.5) == times[7]
    counts = list(idx.counters)
    assert [idx.thinning_uniform(k) for k in (3, 1, 10)] == [sequential[2], sequential[0], sequential[9]]
    assert [idx.kernel_slots(k) for k in (2, 5, 1)] == [slots[1], slots[4], slots[0]]
    assert [idx.proposal_time(k, 0.5) for k in (4, 8)] == [times[3], times[7]]
    assert idx.counters == counts == seq.counters[:3] + [0]


def test_fork_is_pure_and_paths_differ():
    a1 = fork_for_path(55, 0)
    a2 = fork_for_path(55, 0)
    b = fork_for_path(55, 1)
    assert a1.wiener_block(1, 1.0) == a2.wiener_block(1, 1.0)
    assert fork_for_path(55, 0).wiener_block(1, 1.0) != b.wiener_block(1, 1.0)


def test_cross_path_correlation_near_zero():
    n = 10_000
    xs = np.empty(n)
    ys = np.empty(n)
    stream = DriverStream(31, 0)
    for i in range(n):
        stream.reset(31, 2 * i)
        xs[i] = stream.wiener_block(1, 1.0)[0]
        stream.reset(31, 2 * i + 1)
        ys[i] = stream.wiener_block(1, 1.0)[0]
    r = np.corrcoef(xs, ys)[0, 1]
    assert abs(r) < 3.0 / math.sqrt(n)


def test_path_id_range_checked():
    with pytest.raises(ValueError):
        fork_for_path(1, -1)
    with pytest.raises(ValueError):
        fork_for_path(1, 1 << 61)


def test_kernel_slots_layout():
    # proposal k owns flat kernel uniforms 2k - 1 and 2k, whatever the
    # order of the reads
    flat = philox(12, 0, 2).random(6)
    s = fork_for_path(12, 0)
    assert s.kernel_slots(1) == (flat[0], flat[1])
    assert s.kernel_slots(3) == (flat[4], flat[5])
    assert s.kernel_slots(2) == (flat[2], flat[3])
    assert s.counters[2] == 6
    with pytest.raises(ValueError):
        s.kernel_slots(0)

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from pdifmp import (
    CumulativeKernel,
    DriverStream,
    EulerMaruyama,
    HybridState,
    ModeSet,
    PDifMPModel,
    cumulative_weights,
    sample_mode,
    simulate_path,
    validate_model,
)
from pdifmp.errors import ModelDefinitionError

from util import constant_rate_model, flip_kernel, uniform3_kernel


def test_mode_set_rejects_duplicates():
    with pytest.raises(ModelDefinitionError):
        ModeSet((1, 1, 2))


def test_mode_set_indexing_is_stable():
    ms = ModeSet((-0.5, 0.5, 2.0))
    assert ms.index(0.5) == 1
    assert len(ms) == 3


def test_hybrid_state_rejects_nonfinite():
    with pytest.raises(ValueError):
        HybridState((math.nan,), 0)
    with pytest.raises(ValueError):
        HybridState((math.inf,), 0)


def test_cumulative_weights_flip():
    assert cumulative_weights(flip_kernel(), (3.0,), 0) == [0.0, 0.0, 1.0]


def test_cumulative_weights_uniform_over_three():
    a = cumulative_weights(uniform3_kernel(), (0.0,), 1)
    assert a == pytest.approx([0.0, 1 / 3, 1 / 3, 2 / 3, 1.0], abs=1e-15)


def test_cumulative_weights_rejects_unnormalised():
    bad = CumulativeKernel(lambda y, v: [0.0, 0.4, 0.9])
    with pytest.raises(ModelDefinitionError):
        cumulative_weights(bad, (0.0,), 0)


def test_cumulative_weights_rejects_self_mass():
    bad = CumulativeKernel(lambda y, v: [0.0, 0.3, 1.0])  # mass 0.3 on mode 0
    with pytest.raises(ModelDefinitionError):
        cumulative_weights(bad, (0.0,), 0)


def test_cumulative_weights_rejects_decreasing():
    bad = CumulativeKernel(lambda y, v: [0.0, 0.0, 0.7, 0.6, 1.0])
    with pytest.raises(ModelDefinitionError):
        cumulative_weights(bad, (0.0,), 0)


@pytest.mark.parametrize(
    "weights",
    [[0.0, math.nan, 1.0], [0.0, 1.0, math.nan], [0.0, math.inf, 1.0], [0.0, 1.0, math.inf]],
    ids=["nan-inside", "nan-at-end", "inf-inside", "inf-at-end"],
)
def test_cumulative_weights_rejects_nonfinite(weights):
    # with v = 1 a NaN also makes the self-mass NaN, which no tolerance
    # check catches; sample_mode must not walk such weights
    bad = CumulativeKernel(lambda y, v: weights)
    with pytest.raises(ModelDefinitionError):
        cumulative_weights(bad, (0.0,), 1)
    with pytest.raises(ModelDefinitionError):
        sample_mode(bad, (0.0,), 1, 0.5)


def test_sample_mode_flip_always_other():
    y, v = (0.0,), 0
    for u in (1e-12, 0.3, 0.7, 1.0):
        assert sample_mode(flip_kernel(), y, v, u) == 1


def test_sample_mode_uniform3_walk():
    # current mode 1; cumulative [0, 1/3, 1/3, 2/3, 1]: u=0.5 lands in the
    # second eligible mode (index 2)
    y, v = (0.0,), 1
    assert sample_mode(uniform3_kernel(), y, v, 0.5) == 2
    assert sample_mode(uniform3_kernel(), y, v, 1.0) == 3
    assert sample_mode(uniform3_kernel(), y, v, 0.2) == 0


def test_sample_mode_u_zero_first_positive_bin():
    assert sample_mode(uniform3_kernel(), (0.0,), 1, 0.0) == 0
    assert sample_mode(flip_kernel(), (0.0,), 0, 0.0) == 1


def test_sample_mode_rejects_bad_uniform():
    with pytest.raises(ValueError):
        sample_mode(flip_kernel(), (0.0,), 0, 1.5)
    with pytest.raises(ValueError):
        sample_mode(flip_kernel(), (0.0,), 0, -0.1)


def shared_row_kernel() -> tuple[CumulativeKernel, list]:
    # rewrites one list in place from y and returns that same list each time
    row = [0.0, 0.0, 0.0, 0.0]

    def weights(y, v):
        row[:] = y
        return row

    return CumulativeKernel(weights), row


def test_sample_mode_rereads_a_rewritten_shared_row():
    kernel, row = shared_row_kernel()
    assert sample_mode(kernel, (0.0, 0.0, 1.0, 1.0), 0, 0.5) == 1
    assert sample_mode(kernel, (0.0, 0.0, 0.0, 1.0), 0, 0.5) == 2
    with pytest.raises(ModelDefinitionError, match="end at 1"):
        sample_mode(kernel, (0.0, 0.0, 0.0, 0.5), 0, 0.5)
    assert row == [0.0, 0.0, 0.0, 0.5]


def test_sample_mode_checks_each_mode_on_its_own():
    # [0, 0, 1, 1] is valid at mode 0 but puts all its mass on mode 1
    kernel, _ = shared_row_kernel()
    assert sample_mode(kernel, (0.0, 1.0, 1.0, 1.0), 1, 0.5) == 0
    assert sample_mode(kernel, (0.0, 0.0, 1.0, 1.0), 0, 0.5) == 1
    with pytest.raises(ModelDefinitionError, match="self-jumps are forbidden"):
        sample_mode(kernel, (0.0, 0.0, 1.0, 1.0), 1, 0.5)


def test_sample_mode_tuple_and_array_rows_match_the_list():
    a = [0.0, 0.25, 0.25, 1.0]
    forms = (list, tuple, np.array)
    kernel = CumulativeKernel(lambda y, v: forms[int(y[0])](a))
    for u, mode in ((0.0, 0), (0.25, 0), (0.5, 2), (1.0, 2)):
        for form in (0, 1, 2, 0, 2, 1):
            assert sample_mode(kernel, (float(form),), 1, u) == mode
    bad = CumulativeKernel(lambda y, v: (0.0, 0.5, 0.5, 1.0))
    for _ in range(2):
        with pytest.raises(ModelDefinitionError, match="self-jumps are forbidden"):
            sample_mode(bad, (0.0,), 0, 0.5)


def test_kernel_row_cache_leaves_equality_and_hash():
    weights = uniform3_kernel().weights
    used, fresh = CumulativeKernel(weights), CumulativeKernel(weights)
    sample_mode(used, (0.0,), 1, 0.5)
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)


def test_model_rejects_kernel_without_cumulative_weights():
    # a kernel in any other form, here a bare sampler, fails at construction
    # instead of at the first accepted jump
    with pytest.raises(ModelDefinitionError, match="CumulativeKernel"):
        PDifMPModel(
            modes=ModeSet((0, 1)),
            drift=lambda y, v: (0.0,),
            diffusion=lambda y, v: (0.0,),
            rate=lambda y, v: 0.5,
            rate_bound=1.0,
            kernel=lambda u, y, v: 1 - v,
            horizon=1.0,
            initial_state=HybridState((1.0,), 0),
        )


@given(st.floats(min_value=1e-12, max_value=1.0), st.integers(min_value=0, max_value=3))
def test_sample_mode_never_returns_current_mode(u, v):
    assert sample_mode(uniform3_kernel(), (0.0,), v, u) != v


@given(
    masses=st.lists(
        st.sampled_from([0.0, 0.5, 1.0]) | st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=8
    ),
    end=st.sampled_from([1.0, 1.0 - 1e-13]),
    data=st.data(),
)
def test_sample_mode_rule_with_zero_mass_modes(masses, end, data):
    # sample_mode is the first mode i with positive mass and u <= a_{i+1},
    # else the last mode with positive mass; u runs over 0, every cut
    # point, random values and 1 (above a_end when the weights end at 1 - eps)
    v = data.draw(st.integers(min_value=0, max_value=len(masses) - 1))
    masses[v] = 0.0
    assume(sum(masses) > 0.0)
    cum = np.cumsum(masses)
    a = [0.0] + [float(c / cum[-1]) * end for c in cum]
    kernel = CumulativeKernel(lambda y, w: a)
    positive = [i for i in range(len(masses)) if a[i + 1] > a[i]]
    us = [0.0, *a, *data.draw(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=5)), 1.0]
    for u in us:
        reached = [i for i in positive if u <= a[i + 1]]
        i = sample_mode(kernel, (0.0,), v, u)
        assert i == (reached[0] if reached else positive[-1])
        if 0.0 < u <= a[-1]:
            assert a[i] < u <= a[i + 1]


def walk(a: list, u: float) -> int:
    # the inverse-CDF walk sample_mode once ran over each freshly checked row
    for i in range(1, len(a)):
        if a[i] > a[i - 1]:
            last = i - 1
            if u <= a[i]:
                break
    return last


@given(
    masses=st.lists(
        st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(min_value=0.0, max_value=10.0), min_size=5, max_size=5),
        min_size=1,
        max_size=4,
    ),
    data=st.data(),
)
def test_sample_mode_matches_the_walk_on_one_kernel(masses, data):
    # several rows share one kernel object and a few mode indices, so calls
    # hit the per-mode cache, replace its entry and come back to it
    rows = []
    for m in masses:
        v = data.draw(st.integers(min_value=0, max_value=2))
        m[v] = 0.0
        assume(sum(m) > 0.0)
        end = data.draw(st.sampled_from([1.0, 1.0 - 1e-13]))
        cum = np.cumsum(m)
        rows.append((v, [0.0] + [float(c / cum[-1]) * end for c in cum]))
    kernel = CumulativeKernel(lambda y, v: list(rows[y[0]][1]))
    randoms = data.draw(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=3))
    for _ in range(2):
        for j, (v, a) in enumerate(rows):
            for u in (0.0, *a, *randoms, 1.0):
                assert sample_mode(kernel, (j,), v, u) == walk(a, u)


def test_sample_mode_reproduces_kernel_weights():
    # push 1e5 uniforms through the inverse-CDF walk; counts must match the
    # weights within 3 binomial standard errors per mode
    rng = np.random.default_rng(7)
    y, v = (0.0,), 1
    n = 100_000
    counts = np.zeros(4)
    for u in rng.random(n):
        counts[sample_mode(uniform3_kernel(), y, v, float(u))] += 1
    assert counts[1] == 0
    p = 1 / 3
    se = math.sqrt(p * (1 - p) / n)
    for i in (0, 2, 3):
        assert abs(counts[i] / n - p) < 3 * se


def test_validate_model_passes_clean_model():
    model = constant_rate_model(rate=0.5, rate_bound=1.0)
    probes = [HybridState((y,), v) for y in (0.0, 1.0, -2.0) for v in (0, 1)]
    report = validate_model(model, probes)
    assert report.passed
    assert report.checked_states == 6


def test_validate_model_flags_rate_bound_violation():
    model = constant_rate_model(rate=0.5, rate_bound=1.0)
    object.__setattr__(model, "rate", lambda y, v: 2.0 * y[0])
    report = validate_model(model, [HybridState((1.0,), 0)])
    assert not report.passed
    assert any(i.check == "rate_bound" for i in report.issues)


def test_validate_model_reports_nan_rate_once():
    # a NaN rate is a rate issue; NaN != NaN must not read as impurity
    model = constant_rate_model(rate=math.nan, rate_bound=1.0)
    report = validate_model(model, [HybridState((1.0,), 0)])
    assert [i.check for i in report.issues] == ["rate"]


def test_validate_model_flags_self_jump_mass():
    model = constant_rate_model(rate=0.5, rate_bound=1.0)
    object.__setattr__(model, "kernel", CumulativeKernel(lambda y, v: [0.0, 0.3, 1.0]))
    report = validate_model(model, [HybridState((1.0,), 0)])
    assert not report.passed
    assert any(i.check == "kernel" for i in report.issues)


def test_kernel_mode_outside_mode_set_is_an_error():
    # two modes, but every jump is sent to a third
    model = constant_rate_model(rate=1.0, rate_bound=1.0, horizon=10.0)
    object.__setattr__(model, "kernel", CumulativeKernel(lambda y, v: [0.0, 0.0, 0.0, 1.0]))
    report = validate_model(model, [HybridState((1.0,), 0)])
    assert [(i.check, i.message) for i in report.issues] == [("kernel", "weights cover 3 modes; the model has 2")]
    with pytest.raises(ModelDefinitionError, match="kernel sampled mode 2 at t=.*; the model has 2 modes"):
        simulate_path(model, EulerMaruyama(), DriverStream(1, 0), h=0.1)


def test_validate_model_requires_probes():
    model = constant_rate_model(rate=0.5, rate_bound=1.0)
    with pytest.raises(ValueError):
        validate_model(model, [])

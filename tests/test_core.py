import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pdifmp import (
    CumulativeKernel,
    HybridState,
    ModeSet,
    PDifMPModel,
    cumulative_weights,
    sample_mode,
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
        HybridState((math.nan,), 0, 0.0)
    with pytest.raises(ValueError):
        HybridState((1.0,), 0, -0.5)
    with pytest.raises(ValueError):
        HybridState((math.inf,), 0, 0.0)


def test_cumulative_weights_flip():
    x = HybridState((3.0,), 0, 0.0)
    assert cumulative_weights(flip_kernel(), x) == [0.0, 0.0, 1.0]


def test_cumulative_weights_uniform_over_three():
    x = HybridState((0.0,), 1, 0.0)
    a = cumulative_weights(uniform3_kernel(), x)
    assert a == pytest.approx([0.0, 1 / 3, 1 / 3, 2 / 3, 1.0], abs=1e-15)


def test_cumulative_weights_rejects_unnormalised():
    bad = CumulativeKernel(lambda y, v: [0.0, 0.4, 0.9])
    with pytest.raises(ModelDefinitionError):
        cumulative_weights(bad, HybridState((0.0,), 0, 0.0))


def test_cumulative_weights_rejects_self_mass():
    bad = CumulativeKernel(lambda y, v: [0.0, 0.3, 1.0])  # mass 0.3 on mode 0
    with pytest.raises(ModelDefinitionError):
        cumulative_weights(bad, HybridState((0.0,), 0, 0.0))


def test_cumulative_weights_rejects_decreasing():
    bad = CumulativeKernel(lambda y, v: [0.0, 0.0, 0.7, 0.6, 1.0])
    with pytest.raises(ModelDefinitionError):
        cumulative_weights(bad, HybridState((0.0,), 0, 0.0))


def test_sample_mode_flip_always_other():
    x = HybridState((0.0,), 0, 0.0)
    for u in (1e-12, 0.3, 0.7, 1.0):
        assert sample_mode(flip_kernel(), x, u) == 1


def test_sample_mode_uniform3_walk():
    # current mode 1; cumulative [0, 1/3, 1/3, 2/3, 1]: u=0.5 lands in the
    # second eligible mode (index 2)
    x = HybridState((0.0,), 1, 0.0)
    assert sample_mode(uniform3_kernel(), x, 0.5) == 2
    assert sample_mode(uniform3_kernel(), x, 1.0) == 3
    assert sample_mode(uniform3_kernel(), x, 0.2) == 0


def test_sample_mode_u_zero_first_positive_bin():
    x = HybridState((0.0,), 1, 0.0)
    assert sample_mode(uniform3_kernel(), x, 0.0) == 0
    assert sample_mode(flip_kernel(), HybridState((0.0,), 0, 0.0), 0.0) == 1


def test_sample_mode_rejects_bad_uniform():
    with pytest.raises(ValueError):
        sample_mode(flip_kernel(), HybridState((0.0,), 0, 0.0), 1.5)
    with pytest.raises(ValueError):
        sample_mode(flip_kernel(), HybridState((0.0,), 0, 0.0), -0.1)


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
            initial_state=HybridState((1.0,), 0, 0.0),
        )


@given(st.floats(min_value=1e-12, max_value=1.0), st.integers(min_value=0, max_value=3))
def test_sample_mode_never_returns_current_mode(u, v):
    x = HybridState((0.0,), v, 0.0)
    assert sample_mode(uniform3_kernel(), x, u) != v


def test_sample_mode_reproduces_kernel_weights():
    # push 1e5 uniforms through the inverse-CDF walk; counts must match the
    # weights within 3 binomial standard errors per mode
    rng = np.random.default_rng(7)
    x = HybridState((0.0,), 1, 0.0)
    n = 100_000
    counts = np.zeros(4)
    for u in rng.random(n):
        counts[sample_mode(uniform3_kernel(), x, float(u))] += 1
    assert counts[1] == 0
    p = 1 / 3
    se = math.sqrt(p * (1 - p) / n)
    for i in (0, 2, 3):
        assert abs(counts[i] / n - p) < 3 * se


def test_validate_model_passes_clean_model():
    model = constant_rate_model(rate=0.5, rate_bound=1.0)
    probes = [HybridState((y,), v, 0.0) for y in (0.0, 1.0, -2.0) for v in (0, 1)]
    report = validate_model(model, probes)
    assert report.passed
    assert report.checked_states == 6


def test_validate_model_flags_rate_bound_violation():
    model = constant_rate_model(rate=0.5, rate_bound=1.0)
    object.__setattr__(model, "rate", lambda y, v: 2.0 * y[0])
    report = validate_model(model, [HybridState((1.0,), 0, 0.0)])
    assert not report.passed
    assert any(i.check == "rate_bound" for i in report.issues)


def test_validate_model_flags_self_jump_mass():
    model = constant_rate_model(rate=0.5, rate_bound=1.0)
    object.__setattr__(model, "kernel", CumulativeKernel(lambda y, v: [0.0, 0.3, 1.0]))
    report = validate_model(model, [HybridState((1.0,), 0, 0.0)])
    assert not report.passed
    assert any(i.check == "kernel" for i in report.issues)


def test_validate_model_requires_probes():
    model = constant_rate_model(rate=0.5, rate_bound=1.0)
    with pytest.raises(ValueError):
        validate_model(model, [])

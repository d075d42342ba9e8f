import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evsynth.spiking import (LifParams, SurrogateConfig, soft_bilif,
                             surrogate_grad, surrogate_sigma)
from lif_oracle import NeuronState, bilif_sequence, bilif_step, lif_step


def test_lif_step_fires_and_subtracts():
    p = LifParams(tau=2.0, v_th=1.0)
    state, s = lif_step(NeuronState(0.0), 1.5, p)
    assert s == 1 and state.v == pytest.approx(0.5)


def test_lif_step_decays_without_firing():
    p = LifParams(tau=2.0, v_th=1.0)
    state, s = lif_step(NeuronState(0.8), 0.0, p)
    assert s == 0 and state.v == pytest.approx(0.4)


def test_quiescence():
    p = LifParams()
    state = NeuronState(0.0)
    for _ in range(10):
        state, s = lif_step(state, 0.0, p)
        assert s == 0 and state.v == 0.0


def test_bilif_sequence_zero_input_is_silent():
    spikes, final = bilif_sequence(np.zeros(20), LifParams())
    assert not spikes.any() and final.v == 0.0


def test_bilif_negative_step_emits_trailing_pulses():
    # single -3.0 input then zeros: two -1 spikes then silence
    p = LifParams(tau=100.0, v_th=1.0)
    spikes, final = bilif_sequence([-3.0, 0.0, 0.0, 0.0], p)
    assert spikes.tolist() == [-1, -1, 0, 0]
    # tick3 potential is 0.99 * -0.98 = -0.9702, below threshold
    assert final.v == pytest.approx(-0.9702 * 0.99)


def test_bilif_subthreshold_drive_converges_below_threshold():
    p = LifParams(tau=2.0, v_th=1.0)
    spikes, final = bilif_sequence([0.4] * 200, p)
    assert not spikes.any()
    assert final.v == pytest.approx(0.8, abs=1e-9)  # geometric limit 0.4/(1/2)


def test_internal_state_bias_changes_first_fire_tick():
    p = LifParams(tau=100.0, v_th=1.0)
    x = [0.2] * 30
    s_hi, _ = bilif_sequence(x, p, v0=0.9)
    s_lo, _ = bilif_sequence(x, p, v0=-0.9)
    first = lambda s: int(np.argmax(s != 0))
    assert s_hi.any() and s_lo.any()
    assert first(s_hi) != first(s_lo)
    assert first(s_hi) == 0  # 0.99*0.9 + 0.2 = 1.091 >= 1 on the first tick


@given(st.lists(st.floats(-3, 3), min_size=1, max_size=60))
def test_bilif_odd_symmetry_from_zero_state(xs):
    p = LifParams(tau=3.0, v_th=1.0)
    pos, _ = bilif_sequence(np.asarray(xs), p)
    neg, _ = bilif_sequence(-np.asarray(xs), p)
    assert np.array_equal(pos, -neg)


@given(st.lists(st.floats(-2, 2), min_size=1, max_size=80))
def test_no_leak_conservation(xs):
    # perfect integrator: sum(I) - v_final = v_th * sum(S)
    p = LifParams(tau=np.inf, v_th=1.0)
    x = np.asarray(xs, np.float64)
    spikes, final = bilif_sequence(x, p)
    assert x.sum() - final.v == pytest.approx(p.v_th * spikes.sum(), abs=1e-9)


def test_single_subtraction_shrinks_potential():
    p = LifParams(tau=2.0, v_th=1.0)
    for vp in (1.0, 1.3, 1.9, -1.5):
        state, s = bilif_step(NeuronState(0.0), vp, p)  # decayed 0 + vp
        assert s != 0
        assert abs(state.v) < abs(vp)


def test_surrogate_peak_value_at_threshold():
    p, sc = LifParams(v_th=1.0), SurrogateConfig(alpha=2.0)
    got = surrogate_grad(1.0, p, sc)
    tail = (0.5 * 2.0) / (1.0 + (np.pi * 2.0 * -2.0 / 2.0) ** 2)
    assert got == pytest.approx(2.0 / 2.0 + tail)


def test_surrogate_symmetric_positive_peaks():
    p, sc = LifParams(v_th=1.0), SurrogateConfig(alpha=2.0)
    v = np.linspace(-4, 4, 1601)
    g = surrogate_grad(v, p, sc)
    assert np.all(g > 0)
    assert np.allclose(g, g[::-1])  # even function
    peaks = v[np.argsort(g)[-2:]]
    assert sorted(np.round(peaks, 2).tolist()) == [-1.0, 1.0]


def test_surrogate_sigma_unit_mass():
    # sigma is a CDF-like sigmoid: its derivative integrates to 1.  The
    # stated [-50, 50] window misses ~4e-3 of tail mass at alpha=2, so the
    # 1e-3 claim needs the wider window; both facts are asserted.
    sc = SurrogateConfig(alpha=2.0)
    p = LifParams(v_th=1.0)
    for lim, tol in ((50.0, 5e-3), (500.0, 1e-3)):
        v = np.linspace(-lim, lim, 200_001)
        integral = np.trapezoid(
            (0.5 * sc.alpha) / (1 + (np.pi * sc.alpha * (v - p.v_th) / 2) ** 2), v)
        assert integral == pytest.approx(1.0, abs=tol)
    assert surrogate_sigma(np.inf, sc) == pytest.approx(1.0)
    assert surrogate_sigma(-np.inf, sc) == pytest.approx(0.0)


def test_soft_bilif_is_odd_and_bounded():
    p, sc = LifParams(), SurrogateConfig()
    v = np.linspace(-10, 10, 101)
    s = soft_bilif(v, p, sc)
    assert np.allclose(s, -s[::-1])
    assert np.all(np.abs(s) < 1.0)
    assert soft_bilif(0.0, p, sc) == pytest.approx(0.0)


def test_param_validation():
    with pytest.raises(ValueError):
        LifParams(tau=1.0)
    with pytest.raises(ValueError):
        LifParams(v_th=0.0)
    with pytest.raises(ValueError):
        SurrogateConfig(alpha=0.0)

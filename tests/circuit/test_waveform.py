"""Tests for repro.circuit.waveform."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuit.waveform import Waveform, piecewise_linear


def ramp_wave():
    t = np.linspace(0.0, 1e-9, 11)
    return Waveform("n", t, np.linspace(0.0, 1.0, 11))


class TestWaveformBasics:
    def test_validation_length_mismatch(self):
        with pytest.raises(ValueError):
            Waveform("n", np.array([0.0, 1.0]), np.array([0.0]))

    def test_validation_time_ordering(self):
        with pytest.raises(ValueError):
            Waveform("n", np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_at_interpolates(self):
        assert ramp_wave().at(0.5e-9) == pytest.approx(0.5)

    def test_at_clamps_outside_range(self):
        assert ramp_wave().at(-1.0) == pytest.approx(0.0)
        assert ramp_wave().at(1.0) == pytest.approx(1.0)

    def test_min_max_settle(self):
        w = ramp_wave()
        assert w.min() == 0.0
        assert w.max() == 1.0
        assert w.settle_value() == pytest.approx(1.0, abs=0.01)


class TestStimuli:
    def test_pwl(self):
        f = piecewise_linear([(0.0, 0.0), (1e-9, 1.0), (2e-9, 0.5)])
        assert f(0.5e-9) == pytest.approx(0.5)
        assert f(1.5e-9) == pytest.approx(0.75)

    def test_pwl_validation(self):
        with pytest.raises(ValueError):
            piecewise_linear([(0.0, 0.0)])
        with pytest.raises(ValueError):
            piecewise_linear([(1.0, 0.0), (0.0, 1.0)])


class TestWaveformProperties:
    @given(st.floats(min_value=-1.0, max_value=2.0))
    def test_interp_within_value_bounds(self, t_query):
        w = ramp_wave()
        v = w.at(t_query * 1e-9)
        assert w.min() - 1e-12 <= v <= w.max() + 1e-12

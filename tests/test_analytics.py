import math

import numpy as np
import pytest
from scipy.optimize import brentq

from filtercool.analytics import (
    NOT_APPLICABLE,
    THREE_LAYER_THRESHOLD,
    THREE_VS_ONE_THRESHOLD,
    TWO_LAYER_THRESHOLD,
    best_protocol_largeOmega,
    energy_1layer,
    energy_2layer,
    energy_2layer_largeOmega,
    energy_3layer,
    energy_3layer_largeOmega,
    energy_bandpass,
)
from filtercool.moment_systems import (
    ProtocolKind,
    ProtocolParams,
    build_moment_system,
    steady_state,
)


class TestSingleLayer:
    def test_ground_state_point(self):
        res = energy_1layer(1.0, 2.0)
        assert res.energy_over_hw == pytest.approx(0.5, abs=1e-14)
        assert res.physical

    def test_detuned(self):
        assert energy_1layer(1.0, 1.0).energy_over_hw == pytest.approx(0.625)

    def test_minimum_at_twice_lam(self):
        lam = 1.3
        gammas = np.linspace(0.5, 6.0, 2001) * lam
        energies = [energy_1layer(lam, g).energy_over_hw for g in gammas]
        assert gammas[int(np.argmin(energies))] == pytest.approx(2.0 * lam, rel=2e-3)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            energy_1layer(0.0, 1.0)


class TestTwoLayer:
    def test_value(self):
        assert energy_2layer(1.0, 2.0, 2.0, 1.0).energy_over_hw == pytest.approx(0.78125)

    def test_limit_to_single(self):
        e2 = energy_2layer(1.0, 2.0, 1e8, 1.0).energy_over_hw
        assert abs(e2 - energy_1layer(1.0, 2.0).energy_over_hw) < 1e-7


class TestThreeLayer:
    def test_limit_to_single(self):
        e3 = energy_3layer(1.0, 2.0, 1e6, 1.0).energy_over_hw
        assert abs(e3 - 0.5) < 1e-5

    def test_near_first_order_value(self):
        # at Omega = 100 the first-order value 0.615 is met up to O(1/Omega^2)
        e3 = energy_3layer(1.0, 4.0, 100.0, 1.0).energy_over_hw
        assert abs(e3 - 0.615) < 5e-3

    def test_vanishing_denominator_flagged(self):
        # locate a root of the closed-form denominator in Omega and check
        # the classification there
        g, lam, w = 1.0, 1.0, 10.0

        def den(Om):
            return (4 * g**4 * Om - 4 * w**2 * Om**3 + 4 * Om**5
                    - 2 * g**3 * (w**2 - 8 * Om**2)
                    + g**2 * (-9 * w**2 * Om + 24 * Om**3)
                    + 4 * g * (-3 * w**2 * Om**2 + 4 * Om**4))

        root = brentq(den, 1.0, 20.0, xtol=1e-15)
        res = energy_3layer(lam, g, root, w)
        assert res.note == NOT_APPLICABLE and not res.physical
        assert math.isnan(res.energy_over_hw)

    def test_oracle_agreement(self):
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 100:
            lam, g, Om, w = rng.uniform(0.1, 10.0, 4)
            p = ProtocolParams(lam, w, g, Om, ProtocolKind.LOWPASS3)
            ss = steady_state(build_moment_system(p))
            if not ss.stable:
                continue
            exact = energy_3layer(lam, g, Om, w).energy_over_hw
            assert abs(ss.energy_over_hw - exact) <= 1e-9 * abs(exact)
            checked += 1


class TestBandpass:
    def test_zero_center_reduces_to_single(self):
        for lam, g, w in [(1.0, 1.7, 1.3), (0.3, 2.5, 0.9)]:
            assert (energy_bandpass(lam, g, 0.0, w).energy_over_hw
                    == energy_1layer(lam, g).energy_over_hw)

    def test_value_and_classification(self):
        res = energy_bandpass(1.0, 1.0, 0.5, 1.0)
        assert res.energy_over_hw == pytest.approx(0.765625)
        assert res.physical

    def test_runaway_region_unphysical(self):
        res = energy_bandpass(1.0, 1.0, 2.0, 1.0)
        assert res.energy_over_hw < 0 and not res.physical

    def test_resonant_denominator_flagged(self):
        g, w = 1.0, 2.0
        res = energy_bandpass(1.0, g, math.sqrt(g * g + w * w / 4.0), w)
        assert res.note == NOT_APPLICABLE

    def test_small_center_gap_scales_quadratically(self):
        lam, g, w = 1.0, 1.7, 1.3
        e1 = energy_1layer(lam, g).energy_over_hw
        gaps = [abs(energy_bandpass(lam, g, Om, w).energy_over_hw - e1)
                for Om in (1e-3, 2e-3, 4e-3)]
        assert 3.5 < gaps[1] / gaps[0] < 4.5
        assert 3.5 < gaps[2] / gaps[1] < 4.5


class TestLargeOmegaExpansions:
    def test_two_layer_value(self):
        assert energy_2layer_largeOmega(1.0, 4.0, 100.0) == pytest.approx(0.615)

    def test_two_layer_correction_sign_flip(self):
        lam, Om = 1.0, 1e4
        base = lambda g: energy_1layer(lam, g).energy_over_hw
        below = TWO_LAYER_THRESHOLD * lam * 0.99
        above = TWO_LAYER_THRESHOLD * lam * 1.01
        assert energy_2layer_largeOmega(lam, below, Om) > base(below)
        assert energy_2layer_largeOmega(lam, above, Om) < base(above)

    def test_three_layer_beats_single_above_threshold(self):
        lam, Om = 1.0, 1e4
        for g, better in [(THREE_VS_ONE_THRESHOLD * 0.98, False),
                          (THREE_VS_ONE_THRESHOLD * 1.02, True)]:
            e3 = energy_3layer_largeOmega(lam, g, Om)
            e1 = energy_1layer(lam, g).energy_over_hw
            assert (e3 < e1) is better

    def test_three_layer_beats_two_above_four(self):
        lam, Om = 1.0, 1e4
        for g, better in [(3.9, False), (4.1, True)]:
            e3 = energy_3layer_largeOmega(lam, g, Om)
            e2 = energy_2layer_largeOmega(lam, g, Om)
            assert (e3 < e2) is better

    def test_infinite_limit(self):
        e1 = energy_1layer(1.0, 3.0).energy_over_hw
        assert abs(energy_2layer_largeOmega(1.0, 3.0, 1e12) - e1) < 1e-11
        assert abs(energy_3layer_largeOmega(1.0, 3.0, 1e12) - e1) < 1e-11

    def test_residual_is_second_order(self):
        lam, g, w = 1.0, 4.0, 1.0
        res2, res3 = [], []
        for Om in (1e3, 2e3, 4e3):
            res2.append(abs(energy_2layer(lam, g, Om, w).energy_over_hw
                            - energy_2layer_largeOmega(lam, g, Om)))
            res3.append(abs(energy_3layer(lam, g, Om, w).energy_over_hw
                            - energy_3layer_largeOmega(lam, g, Om)))
        for res in (res2, res3):
            assert res[0] / res[1] >= 3.9
            assert res[1] / res[2] >= 3.9


class TestBestProtocol:
    @pytest.mark.parametrize("ratio,kind", [
        (2.0, ProtocolKind.LOWPASS1),
        (3.0, ProtocolKind.LOWPASS2),
        (5.0, ProtocolKind.LOWPASS3),
    ])
    def test_decision_table(self, ratio, kind):
        assert best_protocol_largeOmega(ratio) is kind

    def test_boundaries(self):
        eps = 1e-12
        assert best_protocol_largeOmega(TWO_LAYER_THRESHOLD) is ProtocolKind.LOWPASS1
        assert best_protocol_largeOmega(TWO_LAYER_THRESHOLD + eps) is ProtocolKind.LOWPASS2
        assert best_protocol_largeOmega(THREE_LAYER_THRESHOLD) is ProtocolKind.LOWPASS2
        assert best_protocol_largeOmega(THREE_LAYER_THRESHOLD + eps) is ProtocolKind.LOWPASS3

    def test_numeric_argmin_matches_thresholds(self):
        lam, Om, w = 1.0, 1e4, 1.0
        ratios = np.geomspace(1.0, 10.0, 4001)
        best = []
        for r in ratios:
            es = [energy_1layer(lam, r).energy_over_hw,
                  energy_2layer(lam, r, Om, w).energy_over_hw,
                  energy_3layer(lam, r, Om, w).energy_over_hw]
            best.append(int(np.argmin(es)))
        best = np.array(best)
        first_morethan1 = ratios[np.nonzero(best != 0)[0][0]]
        first_3 = ratios[np.nonzero(best == 2)[0][0]]
        assert abs(first_morethan1 / TWO_LAYER_THRESHOLD - 1.0) < 0.02
        assert abs(first_3 / THREE_LAYER_THRESHOLD - 1.0) < 0.02


class TestOracleAgreementAllProtocols:
    def test_closed_forms_match_steady_states(self):
        rng = np.random.default_rng(12)
        fns = {
            ProtocolKind.LOWPASS1: lambda lam, g, Om, w: energy_1layer(lam, g),
            ProtocolKind.LOWPASS2: energy_2layer,
            ProtocolKind.LOWPASS3: energy_3layer,
            ProtocolKind.BANDPASS: energy_bandpass,
        }
        for kind in ProtocolKind:
            checked = 0
            while checked < 100:
                lam, g, Om, w = rng.uniform(0.1, 10.0, 4)
                p = ProtocolParams(lam, w, g, None if kind is ProtocolKind.LOWPASS1 else Om,
                                   kind)
                ss = steady_state(build_moment_system(p))
                if not ss.stable:
                    continue
                exact = fns[kind](lam, g, Om, w).energy_over_hw
                assert abs(ss.energy_over_hw - exact) <= 1e-9 * max(abs(exact), 1.0)
                checked += 1


def _energy_1layer_4(lam, gamma, Omega, omega):
    return energy_1layer(lam, gamma)


def _array_cells():
    rng = np.random.default_rng(11)
    lam, g, Om, w = rng.uniform(0.1, 10.0, (4, 300))
    # append a root of the three-stage denominator (w^2 = 64/27 at
    # gamma = Omega = 1) and a band-pass resonance (4 g^2 + w^2 = 4 Om^2)
    return (np.append(lam, [1.0, 1.0]), np.append(g, [1.0, 1.5]),
            np.append(Om, [1.0, 2.5]), np.append(w, [math.sqrt(64.0 / 27.0), 4.0]))


ENERGY_FNS = [_energy_1layer_4, energy_2layer, energy_3layer, energy_bandpass]


class TestArrayInputs:
    @pytest.mark.parametrize("fn", ENERGY_FNS)
    def test_matches_scalar_calls(self, fn):
        cells = _array_cells()
        res = fn(*cells)
        scalar = [fn(*(float(v) for v in cell)) for cell in zip(*cells)]
        assert np.array_equal(res.note, [r.note for r in scalar])
        assert np.array_equal(res.physical, [r.physical for r in scalar])
        np.testing.assert_allclose(res.energy_over_hw,
                                   [r.energy_over_hw for r in scalar], rtol=1e-14)

    def test_denominator_roots_flagged(self):
        cells = _array_cells()
        assert energy_3layer(*cells).note[-2] == NOT_APPLICABLE
        assert energy_bandpass(*cells).note[-1] == NOT_APPLICABLE
        assert np.isnan(energy_bandpass(*cells).energy_over_hw[-1])

    def test_broadcast_shape(self):
        g, Om = np.geomspace(0.1, 10.0, 4), np.geomspace(0.1, 10.0, 3)
        res = energy_3layer(1.0, g[:, None], Om[None, :], 1.0)
        assert res.energy_over_hw.shape == res.physical.shape == res.note.shape == (4, 3)
        assert res.energy_over_hw[2, 1] == pytest.approx(
            energy_3layer(1.0, g[2], Om[1], 1.0).energy_over_hw, rel=1e-14)

    @pytest.mark.parametrize("fn, args", [
        (_energy_1layer_4, (1.0, 2.0, 1.0, 1.0)),
        (energy_2layer, (1.0, 2.0, 2.0, 1.0)),
        (energy_3layer, (1.0, 1.0, 1.0, math.sqrt(64.0 / 27.0))),  # not applicable
        (energy_bandpass, (1.0, 1.0, 2.0, 1.0)),  # unphysical
    ])
    def test_scalar_calls_return_python_types(self, fn, args):
        res = fn(*args)
        assert type(res.energy_over_hw) is float
        assert type(res.physical) is bool
        assert type(res.note) is str

    @pytest.mark.parametrize("fn", ENERGY_FNS)
    def test_nonpositive_entry_rejected(self, fn):
        g = np.array([1.0, 2.0, -1.0])
        with pytest.raises(ValueError):
            fn(1.0, g, 1.0, 1.0)

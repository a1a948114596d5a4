"""Overlap integrals and stimulated four-wave mixing."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from braggsim import fwm, model, transfer
from segment_reference import overlap_segment_sum, segment_exp_integral, upper_band_edge

REF = model.GratingSpec(period=320e-9, duty_cycle=0.5, n_periods=2000,
                        n_lo=2.414, delta_n=3.4985e-3)
PARAMS = model.NonlinearParams(gamma=200.0, coupled_pump_power=1.29e-3,
                               coupled_signal_power=1.23e-3)

W_P = model.omega_from_wavelength(REF.bragg_wavelength)
W_S = model.omega_from_wavelength(1560.05e-9)


def uniform_spec(n_periods=5000):
    return model.GratingSpec(period=320e-9, duty_cycle=0.5, n_periods=n_periods,
                             n_lo=2.414, delta_n=0.0)


def test_idler_energy_conservation():
    w_i = fwm.idler_omega(W_P, W_S)
    assert w_i == 2.0 * W_P - W_S
    lam_i = fwm.idler_wavelength(REF.bragg_wavelength, 1560.05e-9)
    assert 2.0 / REF.bragg_wavelength == pytest.approx(
        1.0 / 1560.05e-9 + 1.0 / lam_i, rel=1e-12)
    assert lam_i == pytest.approx(1532.357e-9, abs=2e-12)


def test_wavelength_domain_enforced():
    w_out = model.omega_from_wavelength(1450e-9)
    with pytest.raises(model.OutOfDomain):
        fwm.stimulated_idler(REF, PARAMS, w_out, W_S)
    with pytest.raises(model.OutOfDomain):
        fwm.stimulated_idler(REF, PARAMS, W_P, model.omega_from_wavelength(1620e-9))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field", ["pump", "signal", "idler"])
def test_nan_frequency_is_out_of_domain(field):
    # a NaN frequency fails the domain check, where it once passed every
    # comparison and reached the kernel as a NaN J
    omegas = {"pump": np.array([W_P, W_P]), "signal": np.array([W_S]),
              "idler": np.full(2, 2.0 * W_P - W_S)}
    omegas[field][-1] = math.nan
    with pytest.raises(model.OutOfDomain, match=field):
        fwm.overlap_elements(REF, *omegas.values())


@pytest.mark.filterwarnings("error")
def test_pump_sweep_refuses_a_nan_wavelength():
    with pytest.raises(model.OutOfDomain, match="pump"):
        fwm.pump_sweep(REF, PARAMS, [1545e-9, math.nan, 1546e-9], 1560e-9)


class TestSegmentExpIntegral:
    def test_zero_kappa(self):
        assert segment_exp_integral(0.0, 3.2e-6) == pytest.approx(3.2e-6)

    @pytest.mark.parametrize("kappa,length", [
        (1.0e5, 2.0e-6), (-3.7e6, 1.6e-7), (9.9e6, 5.0e-7)])
    def test_matches_quadrature(self, kappa, length):
        z = np.linspace(0.0, length, 20001)
        direct = np.trapezoid(np.exp(1j * kappa * z), z)
        assert segment_exp_integral(kappa, length) == pytest.approx(
            direct, rel=1e-8)

    def test_conjugate_symmetry(self):
        val = segment_exp_integral(2.2e6, 7.7e-7)
        assert segment_exp_integral(-2.2e6, 7.7e-7) == pytest.approx(
            np.conj(val), rel=1e-12)


def overlap(spec, w_p, w_s, w_i=None):
    """J at one setting, the idler energy-matched unless given."""
    w_i = 2.0 * w_p - w_s if w_i is None else w_i
    return fwm.overlap_elements(spec, [w_p], [w_s], [w_i])[0]


class TestOverlapIntegral:
    def test_uniform_guide_has_unit_cell_efficiency(self):
        spec = uniform_spec()
        # phase matching is exact for a dispersionless uniform guide
        assert abs(overlap(spec, W_P, W_S)) == pytest.approx(spec.total_length, rel=1e-9)

    def test_uniform_guide_detuned_idler_gives_sinc(self):
        spec = uniform_spec(2000)
        L = spec.total_length
        w_i = fwm.idler_omega(W_P, W_S) + 3e11   # violate energy matching
        kappa = spec.n_lo * (2 * W_P - W_S - w_i) / 299792458.0
        assert abs(overlap(spec, W_P, W_S, w_i)) == pytest.approx(
            abs(L * np.sinc(kappa * L / (2 * math.pi))), rel=1e-9)

    def test_default_idler_is_energy_matched(self):
        res = fwm.stimulated_idler(REF, PARAMS, W_P, W_S)
        assert res.omega_i == pytest.approx(2 * W_P - W_S, rel=1e-15)
        assert res.overlap == overlap(REF, W_P, W_S, 2 * W_P - W_S)

    def test_reference_structure_value(self):
        # frozen regression: pump at the stopband center, signal at 1560.05 nm
        assert abs(overlap(REF, W_P, W_S)) == pytest.approx(1.13499021e-4, rel=1e-6)

    def test_elements_match_scalar_loop(self):
        w_p = np.array([W_P, W_P + 2e11, W_P - 5e11])
        w_s = np.array([W_S, W_S - 1e11, W_S + 4e11])
        w_i = 2 * w_p - w_s
        batch = fwm.overlap_elements(REF, w_p, w_s, w_i)
        for j in range(3):
            single = fwm.stimulated_idler(REF, PARAMS, w_p[j], w_s[j], w_i[j]).overlap
            assert batch[j] == pytest.approx(single, rel=1e-12)

    def test_matches_field_quadrature(self):
        """Independent check: integrate the internal-field product on a
        dense z grid and compare with the piecewise-analytic result."""
        spec = model.GratingSpec(period=330e-9, duty_cycle=0.37, n_periods=8,
                                 n_lo=2.38, delta_n=6e-3,
                                 lead_in_length=0.8e-6, lead_out_length=0.4e-6)
        w_p = model.omega_from_wavelength(1547.1e-9)
        w_s = model.omega_from_wavelength(1559.2e-9)
        w_i = fwm.idler_omega(w_p, w_s)

        u = np.linspace(0.0, 1.0, 1500)
        # the conjugated idler mode is the field launched from the right facet
        fields = []
        for w, side in ((w_p, "left"), (w_s, "left"), (w_i, "right")):
            _, lengths, n_effs, A, B = transfer._segment_amplitudes(spec, [w], side)
            z = lengths[:, None] * u                    # (segment, sample)
            phase = np.exp(1j * transfer.wavenumber(n_effs, w)[:, None] * z)
            fields.append(A[:, :1] * phase + B[:, :1] / phase)
        integrand = fields[0] ** 2 * np.conj(fields[1]) * fields[2]
        total = np.sum(np.trapezoid(integrand, z, axis=1))

        assert overlap(spec, w_p, w_s, w_i) == pytest.approx(total, rel=1e-5)


class TestStimulatedIdler:
    def test_uniform_closed_form(self):
        spec = uniform_spec()          # 5000 periods -> L = 1.6 mm
        res = fwm.stimulated_idler(spec, PARAMS, W_P, W_S)
        expected = (PARAMS.gamma * PARAMS.coupled_pump_power
                    * spec.total_length) ** 2 * PARAMS.coupled_signal_power
        assert res.idler_power == pytest.approx(expected, rel=1e-9)
        assert res.idler_power == pytest.approx(2.0959672e-10, rel=1e-6)
        assert res.idler_rate == pytest.approx(
            res.idler_power / (1.054571817e-34 * res.omega_i), rel=1e-12)

    def test_rate_normalization(self):
        res = fwm.stimulated_idler(REF, PARAMS, W_P, W_S)
        pump_mw = PARAMS.coupled_pump_power / 1e-3
        assert res.rate_per_mw2 == pytest.approx(res.idler_rate / pump_mw ** 2)
        assert res.rate_per_mw2_external is None

    def test_external_normalization_factor(self):
        lossy = model.NonlinearParams(gamma=200.0, coupled_pump_power=1.29e-3,
                                      coupled_signal_power=1.23e-3,
                                      coupling_loss_db=5.0)
        res = fwm.stimulated_idler(REF, lossy, W_P, W_S)
        assert res.rate_per_mw2_external == pytest.approx(
            res.rate_per_mw2 * 10 ** (-1.0), rel=1e-12)

    def test_scaling_laws_exact(self):
        base = fwm.stimulated_idler(REF, PARAMS, W_P, W_S)
        double_gamma = model.NonlinearParams(gamma=400.0, coupled_pump_power=1.29e-3,
                                             coupled_signal_power=1.23e-3)
        double_pump = model.NonlinearParams(gamma=200.0, coupled_pump_power=2.58e-3,
                                            coupled_signal_power=1.23e-3)
        double_sig = model.NonlinearParams(gamma=200.0, coupled_pump_power=1.29e-3,
                                           coupled_signal_power=2.46e-3)
        assert fwm.stimulated_idler(REF, double_gamma, W_P, W_S).idler_power \
            == pytest.approx(4 * base.idler_power, rel=1e-12)
        assert fwm.stimulated_idler(REF, double_pump, W_P, W_S).idler_power \
            == pytest.approx(4 * base.idler_power, rel=1e-12)
        assert fwm.stimulated_idler(REF, double_sig, W_P, W_S).idler_power \
            == pytest.approx(2 * base.idler_power, rel=1e-12)

    def test_warns_when_nonlinear_phase_large(self):
        strong = model.NonlinearParams(gamma=200.0, coupled_pump_power=0.8,
                                       coupled_signal_power=1.23e-3)
        with pytest.warns(UserWarning, match="nonlinear phase"):
            fwm.stimulated_idler(REF, strong, W_P, W_S)

    def test_sweep_warns_when_nonlinear_phase_large(self):
        strong = model.NonlinearParams(gamma=200.0, coupled_pump_power=0.8,
                                       coupled_signal_power=1.23e-3)
        with pytest.warns(UserWarning, match="nonlinear phase"):
            fwm.pump_sweep(REF, strong, [1545e-9, 1546e-9], 1560.0e-9)


@pytest.fixture(scope="module")
def sweep():
    lams = np.linspace(1541.9e-9, 1550e-9, 163)
    return fwm.pump_sweep(REF, PARAMS, lams, 1560.0e-9)


class TestPumpSweepDip:
    def test_columns_and_axis(self, sweep):
        assert sweep.x_name == "pump_wavelength_nm"
        assert sweep.x[0] == pytest.approx(1541.9)
        assert set(sweep.columns) == {"idler_rate_per_s_per_mw2", "idler_power_w"}

    def test_dip_location_and_depth(self, sweep):
        # frozen regression for the reference sweep
        rep = fwm.dip_report(sweep)
        assert rep.center_x == pytest.approx(1546.10, abs=0.051)
        assert rep.suppression_db == pytest.approx(14.76, abs=0.05)
        assert rep.min_value < rep.baseline_median

    def test_dip_coincides_with_stopband(self, sweep):
        grid = model.make_wavelength_grid(1546e-9, 8e-9, 4001)
        stop = transfer.stopband_report(REF, grid)
        rep = fwm.dip_report(sweep)
        assert abs(rep.center_x * 1e-9 - stop.center_wavelength) < 0.1e-9

    def test_dip_report_needs_baseline(self, sweep):
        with pytest.raises(model.InvalidArgument):
            fwm.dip_report(sweep, exclude_halfwidth=100.0)


@pytest.mark.parametrize("size,levels", [(41, None), (40, None), (41, 3), (40, 3)],
                         ids=["odd", "even", "odd-tied", "even-tied"])
def test_dip_baseline_equals_np_median(size, levels):
    # the baseline is the median of the off-band points, formed as np.median
    # forms it, bit for bit
    rng = np.random.default_rng(size + 10 * (levels or 0))
    if levels is None:
        y = rng.uniform(1.0, 2.0, size + 1)
    else:
        y = 1.0 + rng.integers(0, levels, size + 1) / 7.0
    dip = size // 2
    y[dip] = 0.5
    sweep = model.SweepResult(x_name="x", x=np.arange(size + 1.0), columns={"y": y})
    report = fwm.dip_report(sweep, column="y", exclude_halfwidth=0.5)
    assert report.baseline_median == np.median(np.delete(y, dip))


# --------------------------------------------------------------------------
# closed-form Bloch-mode overlap against the segment-sum oracle


def oracle(spec, w_p, w_s, w_i, chunk=256):
    """Segment-sum J, evaluated in chunks of frequencies to bound memory."""
    return np.concatenate([
        overlap_segment_sum(spec, w_p[i:i + chunk], w_s[i:i + chunk],
                            w_i[i:i + chunk])
        for i in range(0, w_p.size, chunk)])


def pump_scan(lam_lo, lam_hi, n_points, signal=1560.05e-9):
    w_p = 2.0 * math.pi * 299792458.0 / np.linspace(lam_lo, lam_hi, n_points)
    w_s = np.full_like(w_p, model.omega_from_wavelength(signal))
    return w_p, w_s, 2.0 * w_p - w_s


def max_rel(value, reference, scale=None):
    scale = np.abs(reference) if scale is None else scale
    return float(np.max(np.abs(value - reference) / scale))


def random_spec(seed, n_periods, sign):
    rng = np.random.default_rng(seed)
    n_lo = rng.uniform(2.3, 2.5)
    delta_n = sign * rng.uniform(5e-4, 5e-3)
    duty = rng.uniform(0.2, 0.8)
    mean = duty * n_lo + (1.0 - duty) * (n_lo + delta_n)
    return model.GratingSpec(period=rng.uniform(1535e-9, 1565e-9) / (2.0 * mean),
                             duty_cycle=duty, n_periods=n_periods, n_lo=n_lo,
                             delta_n=delta_n,
                             lead_in_length=rng.uniform(0.1e-6, 20e-6),
                             lead_out_length=rng.uniform(0.1e-6, 20e-6))


class TestBlochOverlap:
    def test_one_signal_broadcasts_bitwise(self):
        # a sweep's one signal frequency is solved once and broadcast
        w_p, w_s, w_i = pump_scan(1542e-9, 1550e-9, 41)
        np.testing.assert_array_equal(fwm.overlap_elements(REF, w_p, w_s[:1], w_i),
                                      fwm.overlap_elements(REF, w_p, w_s, w_i))

    def test_lengths_must_broadcast(self):
        with pytest.raises(model.InvalidArgument):
            fwm.overlap_elements(REF, [W_P] * 3, [W_S] * 2, [2 * W_P - W_S] * 3)

    def test_reference_pump_sweep(self):
        args = pump_scan(1541.9e-9, 1550e-9, 1621, signal=1560.0e-9)
        assert max_rel(fwm.overlap_elements(REF, *args), oracle(REF, *args)) < 1e-9

    @pytest.mark.parametrize("seed,n_periods,sign", [
        (11, 10, -1.0), (12, 57, 1.0), (13, 240, -1.0), (14, 911, 1.0),
        (15, 1999, -1.0), (16, 3000, 1.0)])
    def test_random_specs(self, seed, n_periods, sign):
        spec = random_spec(seed, n_periods, sign)
        args = pump_scan(spec.bragg_wavelength - 4e-9, spec.bragg_wavelength + 4e-9, 101)
        assert max_rel(fwm.overlap_elements(spec, *args), oracle(spec, *args)) < 1e-9

    def test_second_order_grating(self):
        # cos(K Lambda) -> +1 at the second-order Bragg condition
        spec = model.GratingSpec(period=640e-9, duty_cycle=0.35, n_periods=1500,
                                 n_lo=2.414, delta_n=3.4985e-3,
                                 lead_in_length=3e-6, lead_out_length=1e-6)
        lam_b = spec.mean_index * spec.period
        args = pump_scan(lam_b - 3e-9, lam_b + 3e-9, 121)
        sign, q = transfer._bloch_cosine(spec, args[0])
        assert np.all(sign > 0) and np.any(q < 0)
        assert max_rel(fwm.overlap_elements(spec, *args), oracle(spec, *args)) < 1e-9

    def test_deep_design_normalized_by_sweep_maximum(self):
        # the oracle's forward recursion is only ~3e-10 accurate inside this
        # stopband, so the comparison is scaled by the sweep's largest |J|
        spec = replace(REF, n_periods=transfer.design_periods(100.0, REF.n_lo,
                                                              REF.delta_n))
        args = pump_scan(1541.9e-9, 1550e-9, 81, signal=1560.0e-9)
        ref = oracle(spec, *args)
        value = fwm.overlap_elements(spec, *args)
        assert max_rel(value, ref, scale=np.max(np.abs(ref))) < 1e-9

    @pytest.mark.filterwarnings("error")
    def test_zero_contrast_raises_no_warning(self):
        spec = uniform_spec(1000)
        args = pump_scan(1541e-9, 1551e-9, 101)
        value = fwm.overlap_elements(spec, *args)
        assert max_rel(value, oracle(spec, *args)) < 1e-9

    @pytest.mark.parametrize("dn_db,n_periods,expected", [
        (200.0, 16379, -6.6707886381029105e-06 - 1.1021401386969649e-04j),
        (300.0, 24328, 2.4416682238325378e-05 - 1.0767293690477662e-04j)])
    def test_deep_design_pins(self, dn_db, n_periods, expected):
        # 60-digit evaluation of the segment recursion; the float64 segment
        # sum misses these by 5e-7 (200 dB) and a factor ~5000 (300 dB)
        assert transfer.design_periods(dn_db, REF.n_lo, REF.delta_n) == n_periods
        spec = replace(REF, n_periods=n_periods)
        w_p = model.omega_from_wavelength(spec.bragg_wavelength)
        value = fwm.overlap_elements(spec, [w_p], [W_S], [2.0 * w_p - W_S])[0]
        assert abs(value - expected) / abs(expected) < 1e-9


class TestSeriesBranches:
    @pytest.mark.filterwarnings("error")
    def test_both_sides_of_the_near_test(self, monkeypatch):
        # a fine pump scan through phase matching moves mode combinations'
        # N |R - 1| across 1, where the geometric series switches from the
        # ratio of differences to the wrapped-log form; in the last element
        # pump, signal and idler share one frequency, so r = 0 exactly
        w_0 = model.omega_from_wavelength(1552e-9)
        args = tuple(np.append(w, w_0) for w in pump_scan(
            REF.bragg_wavelength - 3e-9, REF.bragg_wavelength + 3e-9, 201))
        fp, fs, fi = fwm._field_tables(REF, *args)
        ratio = fp["ratio"][:, None, None] * fs["ratio"][None, :, None] \
            * fi["ratio"][None, None, :]
        gap = REF.n_periods * np.abs(ratio - 1.0)     # (pump pair, signal, idler, element)
        assert np.any((gap > 0.5) & (gap < 1.0)) and np.any((gap > 1.0) & (gap < 2.0))
        nearest = np.min(gap, axis=(0, 1, 2))
        assert np.any(nearest < 1.0) and np.any(nearest > 1.0)

        wrapped, wrap = [], fwm._wrap_phase

        def recording(x):
            wrapped.append(wrap(x))
            return wrapped[-1]

        monkeypatch.setattr(fwm, "_wrap_phase", recording)
        value = fwm.overlap_elements(REF, *args)
        r = np.concatenate(wrapped)
        assert r.size == np.count_nonzero(gap < 1.0)   # the near form, there only
        assert np.any(r == 0)
        rel = np.abs(value - oracle(REF, *args)) / np.abs(value)
        assert np.all(rel < 1e-9)


@pytest.fixture(scope="module")
def band_edge():
    return upper_band_edge(REF)


class TestBandEdge:
    @pytest.mark.filterwarnings("error")
    def test_matches_oracle_near_edge(self, band_edge):
        offsets = np.array([s * 10.0 ** -k for k in range(3, 17) for s in (-1.0, 1.0)])
        w_p = band_edge * (1.0 + offsets)
        w_s = np.full_like(w_p, W_S)
        args = (w_p, w_s, 2.0 * w_p - w_s)
        _, q = transfer._bloch_cosine(REF, w_p)
        assert np.min(np.abs(q)) < 1e-17 < transfer.BAND_EDGE_Q < np.max(np.abs(q))
        value = fwm.overlap_elements(REF, *args)
        rel = np.abs(value - oracle(REF, *args)) / np.abs(value)
        assert np.all(rel < 1e-9), dict(zip(offsets, rel))

    def test_deep_grating_refuses_the_segment_sum(self, monkeypatch):
        # with every element flagged, the pump at the Bragg centre takes the
        # segment sum; it grows by e^2.9 across the reference and by e^34.8
        # across 24000 periods, where the segment sum misses J by ~1e4
        w_p = model.omega_from_wavelength(REF.bragg_wavelength)
        args = ([w_p], [W_S], [2.0 * w_p - W_S])
        closed_form = fwm.overlap_elements(REF, *args)
        monkeypatch.setattr(transfer, "BAND_EDGE_Q", math.inf)
        assert transfer._bloch_fields(REF, [w_p], "left")["band_edge"].all()
        assert max_rel(fwm.overlap_elements(REF, *args), closed_form) < 1e-9
        with pytest.raises(model.OutOfDomain, match="segment sum"):
            fwm.overlap_elements(replace(REF, n_periods=24000), *args)

    @pytest.mark.parametrize("seed,n_periods,sign", [
        (11, 10, -1.0), (12, 57, 1.0), (13, 240, -1.0), (14, 911, 1.0)])
    def test_segment_sum_with_leads(self, monkeypatch, seed, n_periods, sign):
        # with every element flagged, the random specs' leads meet the
        # band-edge path, whose lead terms also come from the exact facet states
        spec = random_spec(seed, n_periods, sign)
        assert spec.lead_in_length > 0 and spec.lead_out_length > 0
        args = pump_scan(spec.bragg_wavelength - 4e-9, spec.bragg_wavelength + 4e-9, 101)
        closed_form = fwm.overlap_elements(spec, *args)
        monkeypatch.setattr(transfer, "BAND_EDGE_Q", math.inf)
        assert transfer._bloch_fields(spec, args[0], "left")["band_edge"].all()
        value = fwm.overlap_elements(spec, *args)
        assert max_rel(value, oracle(spec, *args)) < 1e-9
        assert max_rel(value, closed_form) < 1e-9

    @pytest.mark.parametrize("seed,n_periods,sign,lead_in,lead_out", [
        (11, 10, -1.0, 7e-6, 0.0), (12, 57, 1.0, 0.0, 13e-6),
        (13, 240, -1.0, 2.5e-6, 19e-6), (14, 911, 1.0, 50e-6, 30e-6)])
    def test_segment_sum_leads_shift_only_the_phase(self, monkeypatch, seed, n_periods, sign,
                                                    lead_in, lead_out):
        # a lead is the ambient waveguide (k = n_hi omega / c), so the band-edge
        # path's period sum with leads is the one without times
        # exp(i[(2 k_p - k_s) L_in + k_i L_out]): it holds no lead term
        spec = replace(random_spec(seed, n_periods, sign), lead_in_length=lead_in,
                       lead_out_length=lead_out)
        bare = replace(spec, lead_in_length=0.0, lead_out_length=0.0)
        args = pump_scan(spec.bragg_wavelength - 4e-9, spec.bragg_wavelength + 4e-9, 41)
        k_p, k_s, k_i = (transfer.wavenumber(spec.n_hi, w) for w in args)
        phase = np.exp(1j * ((2.0 * k_p - k_s) * lead_in + k_i * lead_out))
        monkeypatch.setattr(transfer, "BAND_EDGE_Q", math.inf)

        def periods(spec):
            tables = fwm._field_tables(spec, *args)
            assert all(t["band_edge"].all() for t in tables)
            return fwm._band_edge_sum(spec, *tables,
                                      fwm._wave_sum(*tables, "period", fwm._Work()))

        assert max_rel(periods(spec), phase * periods(bare)) < 1e-11

    def test_float_period_count(self, monkeypatch):
        # stored as an int: the segment recursion slices by it, and the
        # band-edge path's matrix power takes it bit by bit
        spec, whole = replace(REF, n_periods=200.0), replace(REF, n_periods=200)
        assert type(spec.n_periods) is int
        w_p = model.omega_from_wavelength(REF.bragg_wavelength)
        for a, b in zip(transfer._segment_amplitudes(spec, [w_p], "left"),
                        transfer._segment_amplitudes(whole, [w_p], "left")):
            np.testing.assert_array_equal(a, b)
        monkeypatch.setattr(transfer, "BAND_EDGE_Q", math.inf)
        real, calls = fwm._band_edge_sum, []

        def recording(spec, *args):
            calls.append(spec.n_periods)
            return real(spec, *args)

        monkeypatch.setattr(fwm, "_band_edge_sum", recording)
        args = ([w_p], [W_S], [2.0 * w_p - W_S])
        assert fwm.overlap_elements(spec, *args) == fwm.overlap_elements(whole, *args)
        assert calls == [200, 200]

    @pytest.mark.filterwarnings("error")
    def test_exactly_degenerate_modes(self, band_edge, monkeypatch):
        # q == 0: the two Bloch modes coincide and the closed form is undefined
        edge = band_edge
        w_p = np.array([edge, edge * 1.001])
        w_s = np.full(2, W_S)
        args = (w_p, w_s, 2.0 * w_p - w_s)
        exact = transfer._bloch_cosine

        def degenerate(spec, omegas):
            sign, q = exact(spec, omegas)
            return sign, np.where(omegas == edge, 0.0, q)

        monkeypatch.setattr(transfer, "_bloch_cosine", degenerate)
        assert list(transfer._bloch_fields(REF, w_p, "left")["band_edge"]) == [True, False]
        value = fwm.overlap_elements(REF, *args)
        assert np.all(np.isfinite(value))
        assert max_rel(value, oracle(REF, *args)) < 1e-9

    @pytest.mark.parametrize("call", ["elements", "table"])
    def test_one_field_solve_per_task(self, monkeypatch, band_edge, call):
        # the band-edge path reads the tables of its task's one field solve,
        # so the facet states and period maps are formed there and only there
        counts = dict.fromkeys(("_field_tables", "_band_edge_sum", "_facet_states",
                                "_period_maps"), 0)
        for module in (fwm, transfer):
            for name in counts:
                if name in vars(module):
                    def counting(*args, real=getattr(module, name), name=name):
                        counts[name] += 1
                        return real(*args)

                    monkeypatch.setattr(module, name, counting)
        if call == "elements":
            # two tasks, the last element of the second on the band edge
            w_p = band_edge * (1.0 + np.linspace(-1e-3, 0.0, fwm._CHUNK // 4 + 9))
            fwm.overlap_elements(REF, w_p, [W_S], 2.0 * w_p - W_S)
        else:
            # q == 0 forced at one signal frequency: one row of the table
            step = 2.0 ** 29
            w1 = W_S + step * np.arange(5)
            w2 = 2.0 * W_P - W_S + step * np.arange(7)
            exact = transfer._bloch_cosine

            def degenerate(spec, omegas):
                sign, q = exact(spec, omegas)
                return sign, np.where(omegas == w1[2], 0.0, q)

            monkeypatch.setattr(transfer, "_bloch_cosine", degenerate)
            fwm.overlap_table(REF, w1, w2)
        assert counts["_band_edge_sum"] >= 1
        assert counts["_field_tables"] == (2 if call == "elements" else 1)
        assert counts["_facet_states"] == counts["_period_maps"] == counts["_field_tables"]

    def test_tables_hold_the_role_forms_only_with_a_band_edge(self, band_edge, monkeypatch):
        # only the band-edge path reads the period map and entry state, so a
        # field solve with no band-edge frequency leaves them out; with one,
        # every table holds them in its role's form
        off_edge = fwm._field_tables(REF, np.array([W_P]), np.array([W_S]),
                                     np.array([2.0 * W_P - W_S]))
        assert not any({"fwd", "entry"} & set(table) for table in off_edge)

        w_p = np.array([band_edge, band_edge * 1.001])
        w_s = np.full(2, W_S)
        exact = transfer._bloch_cosine

        def degenerate(spec, omegas):
            sign, q = exact(spec, omegas)
            return sign, np.where(omegas == band_edge, 0.0, q)

        monkeypatch.setattr(transfer, "_bloch_cosine", degenerate)
        pump, signal, _ = fwm._field_tables(REF, w_p, w_s, 2.0 * w_p - w_s)
        assert list(pump["band_edge"]) == [True, False]
        # the pump's map and entry state act on the distinct pairs (00, 01, 11)
        # of its two photons' product state: pairs(F e) = fwd . pairs(e)
        field = transfer._bloch_fields(REF, w_p, "left")
        (f00, f01), (f10, f11) = field["fwd"]
        e0, e1 = field["entry"]
        assert pump["fwd"].shape == (3, 3, 2)
        np.testing.assert_array_equal(pump["fwd"], [
            [f00 * f00, 2.0 * f00 * f01, f01 * f01],
            [f00 * f10, f00 * f11 + f01 * f10, f01 * f11],
            [f10 * f10, 2.0 * f10 * f11, f11 * f11]])
        np.testing.assert_array_equal(pump["entry"], [e0 * e0, e0 * e1, e1 * e1])
        field = transfer._bloch_fields(REF, w_s, "left")
        np.testing.assert_array_equal(signal["fwd"], np.conj(field["fwd"]))
        np.testing.assert_array_equal(signal["entry"], np.conj(field["entry"]))


class TestLiftedPower:
    @pytest.fixture
    def centre(self):
        w_p = model.omega_from_wavelength(REF.bragg_wavelength)
        return [w_p], [W_S], [2.0 * w_p - W_S]

    def test_limit_of_the_lifted_growth(self, monkeypatch, centre):
        # with every field lifted, the pump at the Bragg centre is the
        # lifted state's only growing part, twice; just under the limit J
        # holds the kernel's 1e-9, one period more is refused
        per_period = transfer._bloch_fields(REF, centre[0], "left")["log_ratio"].real.max()
        n = math.floor(fwm._LIFTED_GROWTH / (2.0 * per_period))
        under, over = replace(REF, n_periods=n), replace(REF, n_periods=n + 1)
        closed_form = fwm.overlap_elements(under, *centre)
        monkeypatch.setattr(transfer, "BAND_EDGE_Q", math.inf)
        assert max_rel(fwm.overlap_elements(under, *centre), closed_form) < 1e-9
        with pytest.raises(model.OutOfDomain, match="grow by e\\^11.0 across"):
            fwm.overlap_elements(over, *centre)

    def test_random_spec_matches_the_oracle(self, monkeypatch):
        spec = random_spec(16, 3000, 1.0)
        args = pump_scan(spec.bragg_wavelength - 4e-9, spec.bragg_wavelength + 4e-9, 41)
        monkeypatch.setattr(transfer, "BAND_EDGE_Q", math.inf)
        assert transfer._bloch_fields(spec, args[0], "left")["band_edge"].all()
        assert max_rel(fwm.overlap_elements(spec, *args), oracle(spec, *args)) < 1e-9

    def test_cost_does_not_grow_with_the_period_count(self, band_edge):
        # the lifted power holds one 13 x 13 matrix per element at any N: a
        # lone band-edge element peaks at 39.9 KB under tracemalloc at both N
        args = ([band_edge], [W_S], [2.0 * band_edge - W_S])

        def peak(n):
            spec = replace(REF, n_periods=n)
            assert transfer._bloch_fields(spec, args[0], "left")["band_edge"].all()
            fwm.overlap_elements(spec, *args)
            tracemalloc.start()
            try:
                fwm.overlap_elements(spec, *args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(24000) < 1.3 * peak(2000)


class TestSweepTasks:
    def test_tasks_solve_their_own_fields(self, monkeypatch):
        # a sweep's fields are solved task by task, its one signal frequency
        # in every task
        real, sizes = fwm._field_tables, []

        def recording(spec, omega_p, omega_s, omega_i):
            sizes.append((omega_p.size, omega_s.size, omega_i.size))
            return real(spec, omega_p, omega_s, omega_i)

        monkeypatch.setattr(fwm, "_field_tables", recording)
        task = fwm._CHUNK // 4
        w_p, w_s, w_i = pump_scan(1541.9e-9, 1550e-9, 2 * task + 7)
        fwm.overlap_elements(REF, w_p, w_s[:1], w_i)
        assert sizes == [(task, 1, task), (task, 1, task), (7, 1, 7)]

    @pytest.mark.parametrize("kind", ["sweep", "table"])
    def test_one_set_of_work_arrays_per_call(self, monkeypatch, kind):
        # a sweep's tasks and a table's run in the kernel's one task loop, so
        # every task of a call writes into the one _Work the call created
        created, handed = [], []

        class Counting(fwm._Work):
            def __init__(self):
                super().__init__()
                created.append(self)

        real = fwm._bloch_chunk

        def recording(spec, fp, fs, fi, work):
            handed.append(work)
            return real(spec, fp, fs, fi, work)

        monkeypatch.setattr(fwm, "_Work", Counting)
        monkeypatch.setattr(fwm, "_bloch_chunk", recording)
        if kind == "sweep":
            task = fwm._CHUNK // 4
            w_p, w_s, w_i = pump_scan(1541.9e-9, 1550e-9, 2 * task + 7)
            fwm.overlap_elements(REF, w_p, w_s[:1], w_i)
        else:
            rows, step = fwm._CHUNK // 101, 2.0 * math.pi * 1e9
            fwm.overlap_table(REF, W_S + step * np.arange(2 * rows + 7),
                              2.0 * W_P - W_S + step * np.arange(101))
        assert len(created) == 1 and len(handed) == 3
        assert all(work is created[0] for work in handed)

    @pytest.mark.parametrize("chunk", [512, 1024, 2048])
    @pytest.mark.parametrize("case", ["reference", "leads", "band-edge"])
    def test_sweep_does_not_depend_on_the_task_size(self, monkeypatch, band_edge, chunk,
                                                    case):
        # 1300 elements end in a partial task at each task size, and the
        # pieces of 97 elements the sweep is checked against do not line up
        # with its tasks; the band-edge element is in task 5, 3 and 2 of them
        monkeypatch.setattr(fwm, "_CHUNK", chunk)
        w_p, w_s, w_i = pump_scan(1541.9e-9, 1550e-9, 1300)
        spec = REF
        if case == "leads":
            spec = replace(REF, lead_in_length=7e-6, lead_out_length=3e-6)
        elif case == "band-edge":
            w_p[600] = band_edge
            w_i = 2.0 * w_p - w_s
            exact = transfer._bloch_cosine

            def degenerate(spec, omegas):
                sign, q = exact(spec, omegas)
                return sign, np.where(omegas == band_edge, 0.0, q)

            monkeypatch.setattr(transfer, "_bloch_cosine", degenerate)
            assert transfer._bloch_fields(REF, w_p[600:601], "left")["band_edge"].all()
        task = fwm._CHUNK // 4
        assert w_p.size > task and w_p.size % task
        sweep = fwm.overlap_elements(spec, w_p, w_s[:1], w_i)
        pieces = [fwm.overlap_elements(spec, w_p[i:i + 97], w_s[:1], w_i[i:i + 97])
                  for i in range(0, w_p.size, 97)]
        np.testing.assert_array_equal(sweep, np.concatenate(pieces))

    def test_empty_sweep(self):
        for args in (([], [], []), ([], [W_S], [])):
            value = fwm.overlap_elements(REF, *args)
            assert value.shape == (0,) and value.dtype == complex

    def test_sweep_memory_does_not_grow_with_its_length(self):
        # one task's fields and work arrays are held at a time, so beyond
        # the result (16 bytes per element) the peak does not grow with the
        # sweep: off the stopband a one-task sweep peaks at 0.89 MB under
        # tracemalloc and a 16-task sweep at 0.96 MB (7.8 MB when every
        # field was solved before the first task)
        task = fwm._CHUNK // 4

        def peak(n):
            w_p, w_s, w_i = pump_scan(1541e-9, 1544e-9, n)
            fwm.overlap_elements(REF, w_p, w_s[:1], w_i)
            tracemalloc.start()
            try:
                fwm.overlap_elements(REF, w_p, w_s[:1], w_i)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(16 * task) < 1.3 * peak(task)


# --------------------------------------------------------------------------
# coupled-mode-theory oracle at the stopband centre


def cmt_overlap_per_length(spec):
    """(|J|/L, kappa L) at the Bragg wavelength from coupled-mode theory
    (Kogelnik & Shank 1972; Erdogan 1997).

    kappa = 2 |delta_n| sin(pi D) / lambda_B; the forward pump envelope is
    cosh(kappa (L - z)) / cosh(kappa L) and signal and idler are taken as
    unit plane waves, so J = int F^2 dz. None of the transfer-matrix, facet
    or idler-mode conventions of the Bloch kernel enter.
    """
    kappa = (2.0 * abs(spec.delta_n) * math.sin(math.pi * spec.duty_cycle)
             / spec.bragg_wavelength)
    length = spec.total_length
    kl = kappa * length
    j = (length / 2.0 + math.sinh(2.0 * kl) / (4.0 * kappa)) / math.cosh(kl) ** 2
    return j / length, kl


def cmt_spec(seed):
    """Random (delta_n, D, N) with kappa L drawn from 0.5 to 6."""
    rng = np.random.default_rng(seed)
    delta_n = rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 8e-3)
    duty = rng.uniform(0.2, 0.8)
    kappa_l = rng.uniform(0.5, 6.0)
    spec = model.GratingSpec(period=320e-9, duty_cycle=duty, n_periods=1,
                             n_lo=2.414, delta_n=delta_n)
    kappa = 2.0 * abs(delta_n) * math.sin(math.pi * duty) / spec.bragg_wavelength
    return replace(spec, n_periods=max(1, round(kappa_l / (kappa * spec.period))))


def bloch_overlap_per_length(spec, lambda_s):
    w_p = model.omega_from_wavelength(spec.bragg_wavelength)
    w_s = model.omega_from_wavelength(lambda_s)
    j = fwm.overlap_elements(spec, [w_p], [w_s], [2.0 * w_p - w_s])[0]
    return abs(j) / spec.total_length


class TestCoupledModeOracle:
    def test_reference_grating(self):
        expected, kl = cmt_overlap_per_length(REF)
        assert kl == pytest.approx(2.8964, abs=1e-4)
        value = bloch_overlap_per_length(REF, 1560.05e-9)
        assert abs(value / expected - 1.0) < 0.01

    @pytest.mark.parametrize("seed", range(8))
    def test_random_specs(self, seed):
        # signal and idler ~30 nm from the stopband, where the oracle's
        # unit plane waves hold; nearer in, the grating's ripple on them
        # adds an error of order (kappa / detuning)^2
        spec = cmt_spec(seed)
        expected, kl = cmt_overlap_per_length(spec)
        assert 0.49 < kl < 6.01
        value = bloch_overlap_per_length(spec, spec.bragg_wavelength + 30e-9)
        assert abs(value / expected - 1.0) < 0.01, (spec, kl, value / expected - 1.0)

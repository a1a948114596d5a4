"""Top-level acceptance gates for the bundled reference scenario.

Each test prints one "ACCEPTANCE n: PASS/FAIL" line on the real console
(outside pytest's capture) before asserting, so the verdict list is always
visible in a full run.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from braggsim import cli, fwm, model, quantum, transfer
from braggsim.constants import HBAR


@pytest.fixture
def say(capsys):
    def _say(n, ok, detail):
        with capsys.disabled():
            print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} ({detail})",
                  flush=True)
    return _say


@pytest.fixture(scope="module")
def stopband(scenario):
    center, span = scenario.spectrum_grid_args
    grid = model.make_wavelength_grid(center, span, scenario.spectrum_points)
    return transfer.stopband_report(scenario.grating, grid)


@pytest.fixture(scope="module")
def pump_dip(scenario):
    start, stop, signal = scenario.pump_sweep_range
    sweep = fwm.pump_sweep(scenario.grating, scenario.params,
                           np.linspace(start, stop, scenario.sweep_points), signal)
    return fwm.dip_report(sweep)


@pytest.fixture(scope="module")
def contrast_report(scenario):
    return quantum.contrast_sweep(scenario.grating, scenario.target_rejection_db,
                                  scenario.contrasts, scenario.params,
                                  scenario.pulse, scenario.signal_window)


def test_acceptance_01_stopband_rejection(stopband, say):
    ok = (abs(stopband.rejection_db - 19.1) <= 1.0
          and 1544e-9 <= stopband.center_wavelength <= 1547e-9)
    say(1, ok, f"rejection {stopband.rejection_db:.2f} dB at "
               f"{stopband.center_wavelength * 1e9:.3f} nm")
    assert abs(stopband.rejection_db - 19.1) <= 1.0
    assert 1544e-9 <= stopband.center_wavelength <= 1547e-9


def test_acceptance_02_stopband_width(stopband, say):
    width = stopband.band_width
    ok = width is not None and 0.5e-9 <= width <= 1.5e-9
    say(2, ok, f">10 dB band {width * 1e9:.3f} nm")
    assert ok, f"band width {width}"


def test_acceptance_03_design_rule_round_trip(scenario, say):
    g = scenario.grating
    n_a = transfer.design_periods(19.14, g.n_lo, g.delta_n)
    n_b = transfer.design_periods(20.0, g.n_lo, g.delta_n)
    ok = abs(n_a - 2000) <= 1 and abs(n_b - 2068) <= 1
    say(3, ok, f"19.14 dB -> {n_a}, 20 dB -> {n_b}")
    assert abs(n_a - 2000) <= 1
    assert abs(n_b - 2068) <= 1


def test_acceptance_04_uniform_waveguide_oracle(scenario, say):
    spec = replace(scenario.grating, delta_n=0.0, n_periods=5000)  # L = 1.6 mm
    params = scenario.params
    res = fwm.stimulated_idler(
        spec, params, model.omega_from_wavelength(spec.bragg_wavelength),
        model.omega_from_wavelength(1560.05e-9))
    closed = (params.gamma * params.coupled_pump_power
              * spec.total_length) ** 2 * params.coupled_signal_power
    rel = abs(res.idler_power - closed) / closed
    quoted = abs(res.idler_power - 2.10e-10) / 2.10e-10
    ok = rel <= 1e-6 and quoted <= 0.01
    say(4, ok, f"P_i {res.idler_power:.4e} W, closed-form rel {rel:.1e}")
    assert rel <= 1e-6
    assert quoted <= 0.01


def test_acceptance_05_pump_sweep_dip(stopband, pump_dip, say):
    offset_nm = abs(pump_dip.center_x - stopband.center_wavelength * 1e9)
    ok = offset_nm <= 0.1 and pump_dip.suppression_db >= 30.0
    say(5, ok, f"dip at {pump_dip.center_x:.3f} nm (offset {offset_nm:.3f} nm), "
               f"depth {pump_dip.suppression_db:.2f} dB")
    assert offset_nm <= 0.1
    assert pump_dip.suppression_db >= 30.0, \
        f"dip depth {pump_dip.suppression_db:.2f} dB is below the 30 dB gate"


def test_acceptance_06_spontaneous_unit_check(scenario, say):
    spec = replace(scenario.grating, delta_n=0.0, n_periods=5000)
    w_p = model.omega_from_wavelength(1546.08e-9)
    w_s = model.omega_from_wavelength(fwm.idler_wavelength(1546.08e-9, 1560.0e-9))
    stim = fwm.stimulated_idler(spec, scenario.params, w_p, w_s)
    window = model.CollectionWindow(1560.0e-9, 2 * math.pi * 1e10)
    spont = quantum.spont_from_stim(stim, stim.idler_power, window)
    rel = abs(spont.spont_power - 8.0e-9) / 8.0e-9
    ok = rel <= 5e-3
    say(6, ok, f"P_spont {spont.spont_power:.4e} W, rel {rel:.2e}")
    assert rel <= 5e-3


def test_acceptance_07_pair_probabilities(bw_state, ring_state, say):
    bw_ratio = bw_state.beta_sq / 1.5366e-11
    ring_ratio = ring_state.beta_sq / 1.0427e-3
    ok = 1 / 3 <= bw_ratio <= 3 and 1 / 3 <= ring_ratio <= 3
    say(7, ok, f"|beta_BW|^2 {bw_state.beta_sq:.4e} (x{bw_ratio:.3g} of anchor), "
               f"|beta_Ring|^2 {ring_state.beta_sq:.4e} (x{ring_ratio:.3g})")
    assert 1 / 3 <= ring_ratio <= 3
    assert 1 / 3 <= bw_ratio <= 3, \
        f"waveguide pair probability is {bw_ratio:.3g}x the anchor value"


def test_acceptance_08_contrast_law(scenario, contrast_report, say):
    slope = contrast_report.slope
    base = quantum.contrast_sweep(scenario.grating, scenario.target_rejection_db,
                                  [scenario.grating.delta_n], scenario.params,
                                  scenario.pulse, scenario.signal_window)
    deep = quantum.contrast_sweep(scenario.grating, scenario.compare_rejection_db,
                                  [scenario.grating.delta_n], scenario.params,
                                  scenario.pulse, scenario.signal_window)
    r0 = float(base.sweep.column("pair_rate_per_s")[0])
    r1 = float(deep.sweep.column("pair_rate_per_s")[0])
    rel = abs(r1 - r0) / r0
    ok = abs(slope + 2.0) <= 0.05 and rel < 0.05
    say(8, ok, f"slope {slope:.3f}, 20 vs 100 dB rate change {100 * rel:.2f}%")
    assert abs(slope + 2.0) <= 0.05
    assert rel < 0.05


def test_acceptance_09_jsd_structure(bw_state, ring_state, say):
    ridge = quantum.ridge_width_ratio(bw_state)
    bw_purity = quantum.schmidt_analysis(bw_state).purity
    axis = quantum.principal_axis_ratio(ring_state)
    ring_purity = quantum.schmidt_analysis(ring_state).purity
    ok = (ridge < 0.1 and bw_purity < 0.1
          and 0.5 <= axis <= 2.0 and ring_purity > 0.85)
    say(9, ok, f"BW ridge {ridge:.4f}, BW purity {bw_purity:.4f}; "
               f"ring axis {axis:.3f}, ring purity {ring_purity:.4f}")
    assert ridge < 0.1
    assert 0.5 <= axis <= 2.0
    assert ring_purity > 0.85
    assert bw_purity < 0.1, \
        f"waveguide Schmidt purity {bw_purity:.4f} sits at the 0.1 gate"


def test_acceptance_10_stimulated_emission_consistency(scenario, bw_state, say):
    rate_from_beta = bw_state.beta_sq / scenario.pulse.duration
    params = model.NonlinearParams(gamma=scenario.params.gamma,
                                   coupled_pump_power=scenario.pulse.peak_power,
                                   coupled_signal_power=1e-3)
    stim = fwm.stimulated_idler(
        scenario.grating, params, scenario.pulse.center_omega,
        scenario.signal_window.center_omega)
    spont = quantum.spont_from_stim(stim, params.coupled_signal_power,
                                    scenario.signal_window)
    rel = abs(rate_from_beta - spont.rate) / spont.rate
    ok = rel <= 0.20
    say(10, ok, f"beta-derived {rate_from_beta:.3f} /s vs stimulated-derived "
                f"{spont.rate:.3f} /s, rel {100 * rel:.1f}%")
    assert rel <= 0.20


def test_acceptance_11_property_suite(scenario, bw_state, tmp_path, say):
    rng = np.random.default_rng(3)
    worst_ts = 0.0
    worst_det = 0.0
    for _ in range(40):
        n_periods = int(rng.integers(1, 500))
        n_lo = rng.uniform(1.6, 3.1)
        # bound the design rejection so the matrix entries stay small enough
        # for the determinant identity to be numerically meaningful
        target_db = rng.uniform(5.0, 45.0)
        ratio = math.expm1((target_db * math.log(10) / 10 + math.log(4))
                           / (2 * n_periods))
        spec = model.GratingSpec(
            period=rng.uniform(260e-9, 380e-9),
            duty_cycle=rng.uniform(0.2, 0.8),
            n_periods=n_periods,
            n_lo=n_lo,
            delta_n=min(ratio, 0.099) * n_lo,
        )
        m = transfer.structure_matrix(
            spec, model.omega_from_wavelength(rng.uniform(1500e-9, 1600e-9)))
        t, r = 1.0 / abs(m[0, 0]) ** 2, abs(m[1, 0] / m[0, 0]) ** 2
        worst_ts = max(worst_ts, abs(t + r - 1.0))
        worst_det = max(worst_det, abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] - 1.0))

    w_p = model.omega_from_wavelength(scenario.grating.bragg_wavelength)
    w_s = scenario.signal_window.center_omega
    base = fwm.stimulated_idler(scenario.grating, scenario.params, w_p, w_s)
    g2 = replace(scenario.params, gamma=2 * scenario.params.gamma)
    p2 = replace(scenario.params,
                 coupled_pump_power=2 * scenario.params.coupled_pump_power)
    gamma_rel = abs(fwm.stimulated_idler(scenario.grating, g2, w_p, w_s).idler_power
                    - 4 * base.idler_power) / (4 * base.idler_power)
    pump_rel = abs(fwm.stimulated_idler(scenario.grating, p2, w_p, w_s).idler_power
                   - 4 * base.idler_power) / (4 * base.idler_power)

    halved = quantum.two_photon_state_bw(
        scenario.grating, scenario.params, scenario.pulse,
        scenario.signal_window, scenario.idler_window, n_points=101)
    drift = abs(halved.beta_sq - bw_state.beta_sq) / bw_state.beta_sq

    out = tmp_path / "cli"
    argv = ["stim-sweep", "--out", str(out), "--quiet"]
    assert cli.main(argv) == 0
    first = (out / "stim_sweep.csv").read_bytes()
    assert cli.main(argv + ["--force"]) == 0
    identical = (out / "stim_sweep.csv").read_bytes() == first

    ok = (worst_ts <= 1e-9 and worst_det <= 1e-9 and gamma_rel <= 1e-12
          and pump_rel <= 1e-12 and drift < 0.02 and identical)
    say(11, ok, f"T+R err {worst_ts:.1e}, det err {worst_det:.1e}, "
                f"scaling err {max(gamma_rel, pump_rel):.1e}, "
                f"grid drift {100 * drift:.2f}%, "
                f"cli {'byte-identical' if identical else 'DIFFERS'}")
    assert worst_ts <= 1e-9
    assert worst_det <= 1e-9
    assert gamma_rel <= 1e-12 and pump_rel <= 1e-12
    assert drift < 0.02
    assert identical

"""Grids, structure specs, pulses, and sweep-table serialization."""

from __future__ import annotations

import math

import numpy as np
import pytest

from braggsim import model
from braggsim.constants import HBAR, SPEED_OF_LIGHT


def test_wavelength_omega_round_trip():
    lam = 1.54608e-6
    w = model.omega_from_wavelength(lam)
    assert w == pytest.approx(2.0 * math.pi * SPEED_OF_LIGHT / lam, rel=1e-15)
    assert model.wavelength_from_omega(w) == pytest.approx(lam, rel=1e-15)


def test_make_wavelength_grid_endpoints_and_midpoint():
    center, span, n = 1546e-9, 8e-9, 4001
    grid = model.make_wavelength_grid(center, span, n)
    assert grid.n_points == n
    # endpoints hit the converted wavelengths exactly
    assert grid.wavelengths[0] == pytest.approx(center + span / 2, rel=1e-14)
    assert grid.wavelengths[-1] == pytest.approx(center - span / 2, rel=1e-14)
    # the middle point matches omega(center) only to second order in span/center
    mid = grid.points[(n - 1) // 2]
    rel = abs(mid - model.omega_from_wavelength(center)) / mid
    assert rel < 1e-5
    assert rel > 1e-7  # the quadratic term is real, not a rounding artifact
    assert np.all(np.diff(grid.points) > 0)


def test_grid_around_omega_spacing():
    grid = model.grid_around_omega(1.2e15, 4e11, 81)
    assert grid.points[0] == pytest.approx(1.2e15 - 2e11)
    assert grid.points[-1] == pytest.approx(1.2e15 + 2e11)
    assert grid.spacing == pytest.approx(4e11 / 80)


def test_frequency_grid_rejects_nonuniform_points():
    pts = np.array([1.0e15, 1.1e15, 1.25e15])
    with pytest.raises(model.InvalidArgument):
        model.FrequencyGrid(points=pts, spacing=1e14)


def test_frequency_grid_rejects_descending_points():
    pts = np.linspace(1.3e15, 1.2e15, 11)
    with pytest.raises(model.InvalidArgument):
        model.FrequencyGrid(points=pts, spacing=float(pts[1] - pts[0]))


def test_frequency_grid_accepts_linspace_at_optical_scale():
    # ulp-level jitter of linspace must stay under the uniformity tolerance
    pts = np.linspace(1.205e15, 1.225e15, 4001)
    grid = model.FrequencyGrid(points=pts, spacing=float(pts[1] - pts[0]))
    assert grid.n_points == 4001


class TestGratingSpec:
    def spec(self, **kw):
        base = dict(period=320e-9, duty_cycle=0.5, n_periods=2000,
                    n_lo=2.414, delta_n=3.4985e-3)
        base.update(kw)
        return model.GratingSpec(**base)

    def test_derived_quantities(self):
        s = self.spec()
        assert s.n_hi == pytest.approx(2.4174985)
        assert s.grating_length == pytest.approx(640e-6)
        assert s.total_length == pytest.approx(640e-6)
        assert s.mean_index == pytest.approx(0.5 * (2.414 + 2.4174985))
        # lambda_B = 2 * Lambda * mean index
        assert s.bragg_wavelength == pytest.approx(1.54607952e-6, rel=1e-9)

    def test_leads_extend_total_length_only(self):
        s = self.spec(lead_in_length=10e-6, lead_out_length=5e-6)
        assert s.grating_length == pytest.approx(640e-6)
        assert s.total_length == pytest.approx(655e-6)

    @pytest.mark.parametrize("bad", [
        dict(period=0.0),
        dict(duty_cycle=0.0),
        dict(duty_cycle=1.0),
        dict(duty_cycle=1.7),
        dict(n_periods=0),
        dict(n_lo=0.0),
        dict(delta_n=0.5),         # contrast ratio above the model's validity
        dict(lead_in_length=-1e-6),
    ])
    def test_validation(self, bad):
        with pytest.raises(model.InvalidArgument):
            self.spec(**bad)

    def test_zero_contrast_is_a_valid_uniform_guide(self):
        s = self.spec(delta_n=0.0)
        assert s.n_hi == s.n_lo


class TestRingSpec:
    def ring(self, **kw):
        base = dict(radius=15e-6, lambda_p=1534.55e-9, lambda_s=1544.27e-9,
                    lambda_i=1524.94e-9, quality_factor=40000.0)
        base.update(kw)
        return model.RingSpec(**base)

    def test_geometry_and_group_index(self):
        r = self.ring()
        assert r.circumference == pytest.approx(2 * math.pi * 15e-6)
        # group index from the mean resonance spacing of the triplet
        assert r.group_index_effective == pytest.approx(2.58525, rel=1e-4)
        assert r.round_trip_time == pytest.approx(812.74e-15, rel=1e-4)

    def test_scalar_quality_factor_broadcasts(self):
        r = self.ring()
        assert r.q_of("pump") == r.q_of("signal") == r.q_of("idler") == 40000.0
        r3 = self.ring(quality_factor=(1e4, 2e4, 3e4))
        assert r3.q_of("idler") == 3e4

    def test_dwelling_time_and_linewidth(self):
        r = self.ring()
        w = r.resonance_omega("pump")
        assert r.dwelling_time("pump") == pytest.approx(r.q_of("pump") / w)
        assert r.linewidth("pump") == pytest.approx(w / r.q_of("pump"))
        assert r.dwelling_time("pump") == pytest.approx(32.587e-12, rel=1e-3)

    def test_explicit_group_index_must_match_spacing(self):
        # consistent value within 5% passes, a far-off one raises
        self.ring(group_index=2.6)
        with pytest.raises(model.InvalidArgument):
            self.ring(group_index=4.0)

    def test_fsr_is_mean_spacing_of_the_triplet(self):
        r = self.ring()
        w_p = model.omega_from_wavelength(r.lambda_p)
        w_s = model.omega_from_wavelength(r.lambda_s)
        w_i = model.omega_from_wavelength(r.lambda_i)
        assert r.fsr_omega == pytest.approx(0.5 * ((w_p - w_s) + (w_i - w_p)))


class TestPumpPulse:
    def test_tophat_energy_and_width(self):
        p = model.PumpPulse(model.PulseShape.TOPHAT, 1e-9, 1e-3, 1546.08e-9)
        assert p.energy == pytest.approx(1e-12)
        assert p.spectral_width == pytest.approx(2 * math.pi / 1e-9)

    def test_gaussian_energy(self):
        tau = 23.334e-12
        p = model.PumpPulse(model.PulseShape.GAUSSIAN, tau, 2e-3, 1534.55e-9)
        assert p.energy == pytest.approx(2e-3 * tau * math.sqrt(math.pi))
        assert p.spectral_width == pytest.approx(1.0 / tau)

    def test_envelope_spectrum_peak_value(self):
        p = model.PumpPulse(model.PulseShape.TOPHAT, 1e-9, 1e-3, 1546.08e-9)
        flux0 = 1e-3 / (HBAR * p.center_omega)
        assert p.envelope_squared_spectrum(0.0) == pytest.approx(flux0 * 1e-9)

    def test_envelope_spectrum_matches_time_integral(self):
        # G(Omega) is the Fourier transform of the flux envelope
        tau = 20e-12
        p = model.PumpPulse(model.PulseShape.GAUSSIAN, tau, 1e-3, 1534.55e-9)
        t = np.linspace(-8 * tau, 8 * tau, 20001)
        flux = p.peak_power * np.exp(-(t / tau) ** 2) / (HBAR * p.center_omega)
        for omega in (0.0, 0.3 / tau, 1.1 / tau):
            direct = np.trapezoid(flux * np.exp(1j * omega * t), t)
            assert p.envelope_squared_spectrum(omega) == pytest.approx(
                direct.real, rel=1e-6)

    def test_validation(self):
        with pytest.raises(model.InvalidArgument):
            model.PumpPulse(model.PulseShape.TOPHAT, -1e-9, 1e-3, 1546e-9)


class TestPumpSpectralAmplitude:
    def test_gaussian_norm(self):
        p = model.PumpPulse(model.PulseShape.GAUSSIAN, 23.334e-12, 1e-3, 1534.55e-9)
        grid = model.grid_around_omega(p.center_omega, 30 * p.spectral_width, 3001)
        alpha = model.pump_spectral_amplitude(p, grid)
        norm = np.trapezoid(np.abs(alpha) ** 2, grid.points) / (2 * math.pi)
        assert norm == pytest.approx(p.energy / (HBAR * p.center_omega), rel=1e-3)

    def test_narrow_grid_rejected(self):
        p = model.PumpPulse(model.PulseShape.GAUSSIAN, 23.334e-12, 1e-3, 1534.55e-9)
        grid = model.grid_around_omega(p.center_omega, 5 * p.spectral_width, 101)
        with pytest.raises(model.InvalidArgument):
            model.pump_spectral_amplitude(p, grid)

    def test_tophat_coverage_within_tolerance(self):
        # sinc tails decay slowly; a wide grid still captures 99% of the norm
        p = model.PumpPulse(model.PulseShape.TOPHAT, 1e-9, 1e-3, 1546.08e-9)
        grid = model.grid_around_omega(p.center_omega, 200 * p.spectral_width, 40001)
        alpha = model.pump_spectral_amplitude(p, grid)
        norm = np.trapezoid(np.abs(alpha) ** 2, grid.points) / (2 * math.pi)
        assert norm == pytest.approx(p.energy / (HBAR * p.center_omega), rel=0.02)


def test_collection_window_grid_spans_width():
    win = model.CollectionWindow(center_wavelength=1560.05e-9, width=2 * math.pi * 1e10)
    grid = win.grid(41)
    assert grid.points[-1] - grid.points[0] == pytest.approx(win.width)
    assert grid.points[20] == pytest.approx(win.center_omega)


def test_facet_transmission():
    p = model.NonlinearParams(gamma=200.0, coupled_pump_power=1e-3,
                              coupled_signal_power=1e-3)
    assert p.facet_transmission == 1.0
    p5 = model.NonlinearParams(gamma=200.0, coupled_pump_power=1e-3,
                               coupled_signal_power=1e-3, coupling_loss_db=5.0)
    assert p5.facet_transmission == pytest.approx(10 ** -0.5)
    with pytest.raises(model.InvalidArgument):
        model.NonlinearParams(gamma=-1.0, coupled_pump_power=1e-3,
                              coupled_signal_power=1e-3)


VALID = {
    model.GratingSpec: dict(period=320e-9, duty_cycle=0.5, n_periods=2000,
                            n_lo=2.414, delta_n=3.4985e-3),
    model.RingSpec: dict(radius=15e-6, lambda_p=1534.55e-9, lambda_s=1544.27e-9,
                         lambda_i=1524.94e-9, quality_factor=40000.0),
    model.PumpPulse: dict(shape=model.PulseShape.TOPHAT, duration=1e-9,
                          peak_power=1e-3, center_wavelength=1546.08e-9),
    model.CollectionWindow: dict(center_wavelength=1560.05e-9, width=6.3e10),
    model.NonlinearParams: dict(gamma=200.0, coupled_pump_power=1e-3,
                                coupled_signal_power=1e-3, coupling_loss_db=None),
}


@pytest.mark.parametrize("cls,field,value", [
    (model.GratingSpec, "period", math.nan),
    (model.GratingSpec, "n_lo", math.inf),
    (model.GratingSpec, "delta_n", math.nan),
    (model.GratingSpec, "lead_out_length", math.inf),
    (model.RingSpec, "radius", math.nan),
    (model.RingSpec, "lambda_s", math.inf),
    (model.RingSpec, "quality_factor", math.inf),
    (model.RingSpec, "quality_factor", (4e4, math.nan, 4e4)),
    (model.RingSpec, "group_index", math.nan),
    (model.PumpPulse, "duration", math.inf),
    (model.PumpPulse, "peak_power", math.nan),
    (model.CollectionWindow, "center_wavelength", math.inf),
    (model.CollectionWindow, "width", math.nan),
    (model.NonlinearParams, "gamma", math.nan),
    (model.NonlinearParams, "coupled_signal_power", math.inf),
    (model.NonlinearParams, "coupling_loss_db", math.nan),
], ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
def test_non_finite_fields_rejected(cls, field, value):
    # every comparison with NaN is False, so range guards alone let it pass;
    # the optional fields left at None above still construct
    cls(**VALID[cls])
    with pytest.raises(model.InvalidArgument):
        cls(**{**VALID[cls], field: value})


class TestSweepResult:
    def test_csv_layout(self):
        r = model.SweepResult(x_name="x", x=np.array([1.0, 2.5]),
                              columns={"y": np.array([0.25, 1e-10])})
        lines = r.to_csv_text().splitlines()
        assert lines[0] == "x,y"
        assert lines[1] == "1.00000000e+00,2.50000000e-01"
        assert lines[2] == "2.50000000e+00,1.00000000e-10"

    def test_json_obj_mirrors_columns(self):
        r = model.SweepResult(x_name="x", x=np.array([1.0]),
                              columns={"y": np.array([2.0])})
        obj = r.to_json_obj()
        assert obj == {"x": ["1.00000000e+00"], "y": ["2.00000000e+00"]}

    def test_length_mismatch_rejected(self):
        with pytest.raises(model.InvalidArgument):
            model.SweepResult(x_name="x", x=np.array([1.0, 2.0]),
                              columns={"y": np.array([1.0])})

    def test_columns_are_read_only(self):
        r = model.SweepResult(x_name="x", x=np.array([1.0, 2.0]),
                              columns={"y": np.array([3.0, 4.0])})
        with pytest.raises(ValueError):
            r.column("y")[0] = 9.0

"""Grids, structure specs, pulses, and sweep-table serialization."""

from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braggsim import model, quantum
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


@pytest.mark.parametrize("make", [
    lambda: model.FrequencyGrid(points=np.array([1.0, 2.0, 3.0]), spacing=math.nan),
    lambda: model.FrequencyGrid(points=np.array([1.0, 2.0, math.inf]), spacing=1.0),
    lambda: model.grid_around_omega(1e15, math.nan, 5),
    lambda: model.make_wavelength_grid(1550e-9, math.nan, 5),
    lambda: model.grid_around_omega(math.nan, 1e9, 5),
], ids=["nan-spacing", "inf-point", "nan-width", "nan-span", "nan-centre"])
def test_frequency_grid_rejects_non_finite_input(make):
    # every comparison with NaN is False, so the range and uniformity
    # guards alone would pass these grids
    with pytest.raises(model.InvalidArgument, match="finite"):
        make()


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
        dict(n_periods=True),
        dict(n_periods=np.True_),
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

    @pytest.mark.parametrize("shape", list(model.PulseShape))
    def test_shape_given_by_name(self, shape):
        by_name = model.PumpPulse(shape.value, 1e-9, 1e-3, 1546e-9)
        assert by_name == model.PumpPulse(shape, 1e-9, 1e-3, 1546e-9)
        assert by_name.shape is shape

    def test_unknown_shape_rejected(self):
        with pytest.raises(model.InvalidArgument, match="'square'"):
            model.PumpPulse("square", 1e-9, 1e-3, 1546e-9)


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


# The scans of spectrum_stopband and _profile_fwhm as they were written
# before they shared model._level_crossings.


def _stopband_scan(lam, db, imin, level):
    def _crossing(lam, db, i0, i1, level):
        f = (level - db[i0]) / (db[i1] - db[i0])
        return lam[i0] + f * (lam[i1] - lam[i0])

    left = None
    for i in range(imin, 0, -1):
        if db[i - 1] > level >= db[i]:
            left = _crossing(lam, db, i - 1, i, level)
            break
    right = None
    for i in range(imin, lam.size - 1):
        if db[i + 1] > level >= db[i]:
            right = _crossing(lam, db, i + 1, i, level)
            break
    return left, right


def _profile_fwhm_scan(centers, profile):
    peak = int(np.argmax(profile))
    half = profile[peak] / 2.0
    left = centers[0]
    for i in range(peak, 0, -1):
        if profile[i - 1] < half <= profile[i]:
            f = (half - profile[i - 1]) / (profile[i] - profile[i - 1])
            left = centers[i - 1] + f * (centers[i] - centers[i - 1])
            break
    right = centers[-1]
    for i in range(peak, profile.size - 1):
        if profile[i + 1] < half <= profile[i]:
            f = (half - profile[i + 1]) / (profile[i] - profile[i + 1])
            right = centers[i + 1] - f * (centers[i + 1] - centers[i])
            break
    return float(right - left)


def _bits(value):
    return None if value is None else float(value).hex()


def _random_profiles(rng):
    """(x, y) pairs of 2 to 12 samples, x ascending: y of small integers, so
    that samples exactly at an integer level are common, and of normal
    floats; one in ten y is sorted, which leaves one side without a crossing."""
    for n in range(2, 13):
        for _ in range(30):
            x = np.cumsum(rng.uniform(0.1, 2.0, n)) + rng.normal()
            for y in (rng.integers(0, 5, n).astype(float), rng.normal(size=n)):
                yield x, np.sort(y) if rng.random() < 0.1 else y


def test_level_crossings_equal_the_stopband_scan():
    rng = np.random.default_rng(5)
    for x, y in _random_profiles(rng):
        for level in (2.0, 0.5, float(rng.normal())):
            for start in range(y.size):
                got = model._level_crossings(x, y, start, level)
                ref = _stopband_scan(x, y, start, level)
                assert tuple(map(_bits, got)) == tuple(map(_bits, ref))


def test_profile_fwhm_equals_its_scan():
    rng = np.random.default_rng(6)
    for x, y in _random_profiles(rng):
        y = np.abs(y)
        # an even integer peak, at either end or inside, puts the half
        # maximum on integer samples
        y[rng.choice([0, y.size - 1, rng.integers(y.size)])] = max(8.0, y.max())
        assert _bits(quantum._profile_fwhm(x, y)) == _bits(_profile_fwhm_scan(x, y))


# --------------------------------------------------------------------------
# the numpy _FMT formatter

def _ties():
    """Doubles whose exact decimal has ten digits, the last a 5: (10 n + 5) 2^-k
    has the digits of (10 n + 5) 5^k, so n is taken where those are ten digits
    long. Scaled by 10^j too, which keeps them exact."""
    ties = []
    for k in range(11):
        lo, hi = -(-(10 ** 9 // 5 ** k - 5) // 10), (10 ** 10 // 5 ** k - 5) // 10
        ties += [(10 * n + 5) * 2.0 ** -k * 10.0 ** (k % 6)
                 for n in np.linspace(lo, hi, 200, dtype=np.int64).tolist()]
    return ties


_POWERS = [10.0 ** p for p in range(-307, 308)]
_TIES = _ties()
_rng = np.random.default_rng(17)
_FORMAT_EDGES = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 9.9999999995,
    # mantissas that round up to the next decade
    9.99999999951, 99999999.96, -9.9999999996e-300, 9.9999999999e99, 9.99999999951e-101,
    *_POWERS, *np.nextafter(_POWERS, 0.0), *np.nextafter(_POWERS, np.inf),
    *_TIES, *np.nextafter(_TIES, 0.0), *np.nextafter(_TIES, np.inf),
    # the doubles nearest to decimal ties, at every scale: without the tie
    # margin a third of these round the wrong way
    *(float(f"{d}5e{p}") for d, p in zip(_rng.integers(10 ** 8, 10 ** 9, 3000).tolist(),
                                         _rng.integers(-315, 300, 3000).tolist())),
    # subnormals
    *(_rng.uniform(0.0, 2.2250738585072014e-308, 200)),
]


def _formatted_lines(values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return model._csv_rows([model._format_cells(values)]).splitlines()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
def test_format_cells_equals_fmt(values):
    assert _formatted_lines(values) == [model._FMT.format(v) for v in values]


def test_format_cells_equals_fmt_on_edges():
    from decimal import Decimal
    digits = [Decimal(v).normalize().as_tuple().digits for v in _TIES]
    assert all(len(d) == 10 and d[-1] == 5 for d in digits)
    values = np.concatenate([_FORMAT_EDGES, np.negative(_FORMAT_EDGES),
                             [np.nan, -np.nan, np.inf, -np.inf]]).tolist()
    assert _formatted_lines(values) == [model._FMT.format(v) for v in values]
    # one value per table: each cell is written with no other row beside it
    for v in values[::25]:
        assert _formatted_lines([v]) == [model._FMT.format(v)]
    r = model.SweepResult(x_name="x", x=np.array(values))
    assert r.to_json_obj() == {"x": [model._FMT.format(v) for v in values]}


# cells of every layout in one column: signs, +-0, 2- and 3-digit exponents,
# a subnormal and non-finite values
_MIXED = [1.5, -2e-5, -0.0, 0.0, 3e300, -1e-120, 5e-324, np.nan, np.inf, -np.inf,
          9.99999999951, -7.0]


def test_csv_rows_of_broadcast_tables_equal_fmt():
    rng = np.random.default_rng(3)
    rows = np.array(_MIXED)
    cols = rng.permutation(np.array(_MIXED + [2.5, -1e-200]))
    table = rng.permutation(np.resize(_MIXED, (rows.size, cols.size)).ravel())
    table = table.reshape(rows.size, cols.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = model._csv_rows([model._format_cells(rows[:, None]),
                                model._format_cells(cols[None, :]),
                                model._format_cells(table)])
    assert text == "".join(",".join(model._FMT.format(float(v))
                                    for v in (rows[a], cols[b], table[a, b])) + "\n"
                           for a in range(rows.size) for b in range(cols.size))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True)
                | st.sampled_from(_FORMAT_EDGES), min_size=1, max_size=40))
def test_json_obj_equals_fmt(values):
    r = model.SweepResult(x_name="x", x=np.array(values), columns={"y": np.negative(values)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        obj = r.to_json_obj()
    assert obj == {"x": [model._FMT.format(v) for v in r.x],
                   "y": [model._FMT.format(v) for v in r.column("y")]}


class TestSweepResult:
    def test_csv_layout(self):
        r = model.SweepResult(x_name="x", x=np.array([1.0, 2.5]),
                              columns={"y": np.array([0.25, 1e-10])})
        lines = r.to_csv_text().splitlines()
        assert lines[0] == "x,y"
        assert lines[1] == "1.00000000e+00,2.50000000e-01"
        assert lines[2] == "2.50000000e+00,1.00000000e-10"

    def test_csv_matches_per_value_format(self):
        # columns of one width, of mixed widths, and of non-finite values
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        columns = {"neg": np.array([-1.5, -2e-5, -3e300, -0.0, -7.0, -1e-200]),
                   "mixed": np.array([0.25, -0.0, 1e-120, np.nan, -np.inf, np.inf]),
                   "pos": np.array([0.0, 1e10, 9.9999999995, 5e-324, 1.0, 2.0])}
        r = model.SweepResult(x_name="x", x=x, columns=columns)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lines = r.to_csv_text().splitlines()
        assert lines[0] == "x,neg,mixed,pos"
        assert lines[1:] == [",".join(model._FMT.format(float(c[i]))
                                      for c in (x, *columns.values()))
                             for i in range(x.size)]

    def test_csv_blocks_join_to_the_text(self, monkeypatch):
        # 2500 rows make three blocks; y keeps one layout in the first block
        # and changes it from row to row after
        rng = np.random.default_rng(5)
        x = np.linspace(1540.0, 1550.0, 2500)
        y = rng.uniform(-1.0, 1.0, x.size) * 10.0 ** rng.integers(-120, 120, x.size)
        y[:model._CSV_BLOCK] = rng.uniform(1.0, 2.0, model._CSV_BLOCK)
        r = model.SweepResult(x_name="x", x=x, columns={"y": y, "z": x * 1e-3})
        blocks = list(r.csv_blocks())
        assert [b.count("\n") for b in blocks] == [model._CSV_BLOCK] * 2 + [452]
        text = r.to_csv_text()
        assert text == r.csv_header() + "".join(blocks)
        monkeypatch.setattr(model, "_CSV_BLOCK", x.size)
        assert list(r.csv_blocks()) == [text[len("x,y,z\n"):]]

    def test_csv_memory_does_not_grow_with_the_rows(self):
        # one block's cell tables and text are held at a time
        def peak(n):
            x = np.linspace(1540.0, 1550.0, n)
            r = model.SweepResult(x_name="x", x=x, columns={"y": np.sin(x), "z": np.exp(-x)})
            tracemalloc.start()
            try:
                for _ in r.csv_blocks():
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(16210) < 1.3 * peak(1621)

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

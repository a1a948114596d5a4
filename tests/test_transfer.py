"""Transfer matrices, stopband metrics, and internal fields."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braggsim import model, transfer

REF = model.GratingSpec(period=320e-9, duty_cycle=0.5, n_periods=2000,
                        n_lo=2.414, delta_n=3.4985e-3)


def bounded_spec(period, duty_cycle, n_periods, n_lo, target_db):
    """Random grating whose closed-form design rejection stays below
    target_db, keeping the cascade well conditioned (the determinant of a
    very deep grating cancels catastrophically in floats)."""
    ratio = math.expm1((target_db * math.log(10) / 10 + math.log(4))
                       / (2 * n_periods))
    return model.GratingSpec(period=period, duty_cycle=duty_cycle,
                             n_periods=n_periods, n_lo=n_lo,
                             delta_n=min(ratio, 0.099) * n_lo)


spec_strategy = st.builds(
    bounded_spec,
    period=st.floats(250e-9, 400e-9),
    duty_cycle=st.floats(0.15, 0.85),
    n_periods=st.integers(1, 400),
    n_lo=st.floats(1.5, 3.2),
    target_db=st.floats(5.0, 45.0),
)

wavelength_strategy = st.floats(1500e-9, 1600e-9)


def det(m):
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def transmission(m):
    return 1.0 / np.abs(m[..., 0, 0]) ** 2


def reflection(m):
    return np.abs(m[..., 1, 0] / m[..., 0, 0]) ** 2


# --------------------------------------------------------------------------
# matrix algebra


def test_propagation_matrix_is_diagonal_phase():
    k = transfer.wavenumber(2.4, 1.2e15)
    m = transfer._prop_stack(k, 1e-6)
    assert m.shape == (2, 2)
    assert m[0, 1] == 0 and m[1, 0] == 0
    assert m[0, 0] == pytest.approx(np.exp(-1j * k * 1e-6))
    assert m[1, 1] == pytest.approx(np.exp(1j * k * 1e-6))
    assert abs(det(m) - 1.0) < 1e-12


def test_interface_matrix_elements():
    k1, k2 = 2.0, 3.0
    m = transfer._iface_stack(k1, k2)
    assert m[0, 0] == pytest.approx((k1 + k2) / (2 * k1))
    assert m[0, 1] == pytest.approx((k1 - k2) / (2 * k1))
    assert m[1, 0] == pytest.approx((k1 - k2) / (2 * k1))
    assert m[1, 1] == pytest.approx((k1 + k2) / (2 * k1))
    # a single interface is not flux-preserving in amplitude terms
    assert det(m) == pytest.approx(k2 / k1)


def test_interface_pair_cancels():
    m = transfer._iface_stack(2.0, 3.5) @ transfer._iface_stack(3.5, 2.0)
    np.testing.assert_allclose(m, np.eye(2), atol=1e-14)


@pytest.mark.parametrize("count", [0, 1, 2, 3, 7, 13])
def test_matrix_power_binary_equals_naive(count):
    omegas = model.omega_from_wavelength(np.array([1540e-9, 1546e-9, 1552e-9]))
    cells = transfer.unit_cell_matrix(REF, omegas)
    np.testing.assert_allclose(transfer._matmul_power(cells, count),
                               np.linalg.matrix_power(cells, count),
                               rtol=1e-12, atol=1e-15)


def test_bare_grating_equals_cell_power():
    w = model.omega_from_wavelength(1545.5e-9)
    cell = transfer.unit_cell_matrix(REF, w)
    direct = transfer.structure_matrix(REF, w)
    assert cell.shape == direct.shape == (2, 2)
    np.testing.assert_allclose(direct, np.linalg.matrix_power(cell, REF.n_periods),
                               rtol=1e-10)
    # a frequency array gives the same matrices stacked on its shape
    ws = np.array([[w, 1.01 * w], [0.99 * w, w]])
    stacked = transfer.structure_matrix(REF, ws)
    assert stacked.shape == (2, 2, 2, 2)
    np.testing.assert_array_equal(stacked[1, 1], direct)


def test_layer_stack_layout():
    layers = transfer.layer_stack(REF)
    assert len(layers) == 2 * REF.n_periods
    n0, l0 = layers[0]
    n1, l1 = layers[1]
    assert (n0, l0) == (REF.n_lo, pytest.approx(160e-9))
    assert (n1, l1) == (REF.n_hi, pytest.approx(160e-9))
    with_leads = transfer.layer_stack(
        model.GratingSpec(period=320e-9, duty_cycle=0.5, n_periods=3,
                          n_lo=2.414, delta_n=3.4985e-3,
                          lead_in_length=2e-6, lead_out_length=1e-6))
    assert len(with_leads) == 8
    assert with_leads[0] == (REF.n_hi, 2e-6)
    assert with_leads[-1] == (REF.n_hi, 1e-6)


# --------------------------------------------------------------------------
# conservation properties


@settings(max_examples=60, deadline=None)
@given(spec=spec_strategy, lam=wavelength_strategy)
def test_energy_conservation_and_unimodularity(spec, lam):
    m = transfer.structure_matrix(spec, model.omega_from_wavelength(lam))
    assert abs(transmission(m) + reflection(m) - 1.0) <= 1e-9
    assert abs(det(m) - 1.0) <= 1e-9


def test_leads_change_phase_only():
    from dataclasses import replace
    w = model.omega_from_wavelength(1546.2e-9)
    bare = transfer.structure_matrix(REF, w)
    led = transfer.structure_matrix(
        replace(REF, lead_in_length=7e-6, lead_out_length=3e-6), w)
    assert transmission(led) == pytest.approx(transmission(bare), rel=1e-12)
    assert reflection(led) == pytest.approx(reflection(bare), rel=1e-12)
    assert abs(1.0 / led[0, 0]) == pytest.approx(abs(1.0 / bare[0, 0]), rel=1e-12)


# --------------------------------------------------------------------------
# spectra and stopband metrics

SPECTRUM_GRID = model.make_wavelength_grid(1546e-9, 8e-9, 4001)


@pytest.fixture(scope="module")
def reference_report():
    return transfer.stopband_report(REF, SPECTRUM_GRID)


def test_transmission_spectrum_table():
    grid = model.make_wavelength_grid(1546e-9, 8e-9, 41)
    sweep = transfer.transmission_spectrum(REF, grid)
    assert sweep.x_name == "wavelength_nm"
    assert np.all(np.diff(sweep.x) > 0)
    t = sweep.column("transmission")
    assert np.all((t > 0) & (t <= 1 + 1e-12))
    np.testing.assert_allclose(sweep.column("transmission_db"),
                               10 * np.log10(t), rtol=1e-12)
    # spot-check one row against the single-frequency evaluator
    i = 7
    w = model.omega_from_wavelength(sweep.x[i] * 1e-9)
    assert t[i] == pytest.approx(transmission(transfer.structure_matrix(REF, w)),
                                 rel=1e-9)


def test_stopband_metrics(reference_report):
    rep = reference_report
    # frozen regression values for the reference structure
    assert rep.rejection_db == pytest.approx(19.1637, abs=5e-3)
    assert rep.center_wavelength == pytest.approx(1546.0797e-9, abs=5e-12)
    assert rep.band_width == pytest.approx(1.4073e-9, abs=5e-12)
    assert rep.threshold_db == 10.0
    assert rep.band_start < rep.center_wavelength < rep.band_stop


def test_stopband_threshold_widens_band(reference_report):
    shallow = transfer.stopband_report(REF, SPECTRUM_GRID, threshold_db=3.0)
    assert shallow.band_width > reference_report.band_width


def test_stopband_without_band_crossing():
    # 100 periods reject far less than 10 dB: no contiguous band exists
    from dataclasses import replace
    rep = transfer.stopband_report(replace(REF, n_periods=100), SPECTRUM_GRID)
    assert rep.band_start is None and rep.band_stop is None
    assert rep.band_width is None


# --------------------------------------------------------------------------
# design rule


def test_rejection_estimate_matches_closed_form():
    est = transfer.rejection_estimate_db(2069, 2.414, 3.4985e-3)
    expected = 10 * (2 * 2069 * math.log1p(3.4985e-3 / 2.414) - math.log(4)) / math.log(10)
    assert est == pytest.approx(expected, rel=1e-12)
    assert est == pytest.approx(20.00525, abs=1e-4)


def test_design_periods_reference_targets():
    assert transfer.design_periods(19.14, 2.414, 3.4985e-3) == 2001
    assert transfer.design_periods(20.0, 2.414, 3.4985e-3) == 2069


@settings(max_examples=40, deadline=None)
@given(target=st.floats(6.1, 120.0), n_lo=st.floats(1.5, 3.2),
       rel_dn=st.floats(0.01, 0.99))
def test_design_periods_is_the_minimal_count(target, n_lo, rel_dn):
    dn = rel_dn * 0.1 * n_lo
    n = transfer.design_periods(target, n_lo, dn)
    assert transfer.rejection_estimate_db(n, n_lo, dn) >= target - 1e-9
    if n > 1:
        assert transfer.rejection_estimate_db(n - 1, n_lo, dn) < target


def test_design_periods_domain():
    # below the zero-period intercept 10*log10(4) no count can help
    with pytest.raises(model.OutOfDomain):
        transfer.design_periods(6.0, 2.414, 3.4985e-3)
    with pytest.raises(model.InvalidArgument):
        transfer.design_periods(20.0, 2.414, 0.0)


# --------------------------------------------------------------------------
# internal fields

SMALL = model.GratingSpec(period=320e-9, duty_cycle=0.42, n_periods=6,
                          n_lo=2.414, delta_n=8e-3,
                          lead_in_length=1.3e-6, lead_out_length=0.9e-6)


def launch(spec, omega, side):
    """(z_starts, lengths, n_effs, a_fwd, a_bwd) of the field launched from
    `side`, amplitudes referenced to each segment's left edge."""
    z0, lengths, n_effs, A, B = transfer._segment_amplitudes(spec, [omega], side)
    return z0, lengths, n_effs, A[:, 0], B[:, 0]


def edge_values(spec, omega, side):
    """Field of every segment evaluated at its own two edges."""
    _, lengths, n_effs, a, b = launch(spec, omega, side)
    phase = np.exp(1j * transfer.wavenumber(n_effs, omega) * lengths)
    return a + b, a * phase + b / phase


def field_at(spec, omega, side, z):
    z0, _, n_effs, a, b = launch(spec, omega, side)
    j = np.searchsorted(z0, z, side="right") - 1
    phase = np.exp(1j * transfer.wavenumber(n_effs[j], omega) * (z - z0[j]))
    return a[j] * phase + b[j] / phase


@pytest.mark.parametrize("side", ["left", "right"])
def test_field_continuity_at_interfaces(side):
    # the one-sided limits from adjacent segments agree exactly
    w = model.omega_from_wavelength(1546.3e-9)
    left, right = edge_values(SMALL, w, side)
    np.testing.assert_allclose(right[:-1], left[1:], rtol=1e-10)


def test_field_boundary_values_left_launch():
    w = model.omega_from_wavelength(1546.3e-9)
    m = transfer.structure_matrix(SMALL, w)
    left, right = edge_values(SMALL, w, "left")
    # total field is continuous with the ambient side: 1 + r at the input
    # facet, t at the output facet
    assert left[0] == pytest.approx(1.0 + m[1, 0] / m[0, 0], rel=1e-9)
    assert right[-1] == pytest.approx(1.0 / m[0, 0], rel=1e-9)


def test_out_to_right_is_conjugate_of_right_launch():
    # the collected right-going output mode is the phase conjugate of a unit
    # wave launched from the right facet, so its facet value is conj(t): the
    # right launch reaches z = 0 as t
    w = model.omega_from_wavelength(1546.3e-9)
    m = transfer.structure_matrix(SMALL, w)
    left, _ = edge_values(SMALL, w, "right")
    assert left[0] == pytest.approx(1.0 / m[0, 0], rel=1e-9)


def test_uniform_guide_field_is_unit_plane_wave():
    uniform = model.GratingSpec(period=320e-9, duty_cycle=0.5, n_periods=50,
                                n_lo=2.414, delta_n=0.0)
    w = model.omega_from_wavelength(1546.3e-9)
    k = complex(transfer.wavenumber(2.414, w))
    for z in (0.0, 3.7e-6, uniform.total_length):
        assert field_at(uniform, w, "left", z) == pytest.approx(np.exp(1j * k * z),
                                                                rel=1e-9)

"""Transfer matrices, stopband metrics, and internal fields."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braggsim import model, transfer
from braggsim.constants import SPEED_OF_LIGHT as C0
from segment_reference import reference_segment_amplitudes, upper_band_edge

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


def random_stack(rng, n):
    """n random unitary 2x2 complex matrices."""
    q, _ = np.linalg.qr(rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))
    return q


def periodic_stack(rng, n):
    """n random matrices of Gaussian integers of order 3, 4 or 6: every power
    is a small Gaussian-integer matrix, so every product is exact."""
    bases = np.array([[[0, -1], [1, -1]], [[0, -1], [1, 0]], [[0, -1], [1, 1]]])
    a, b = (rng.integers(-2, 3, (n, 2)) @ [1, 1j] for _ in range(2))
    upper = np.zeros((n, 2, 2), dtype=complex) + np.eye(2)
    lower = upper.copy()
    upper[:, 0, 1], lower[:, 1, 0] = a, b
    inverse = np.linalg.inv(upper @ lower).round()
    return upper @ lower @ bases[rng.integers(0, 3, n)] @ inverse


def max_rel_norm(value, reference):
    """Largest error over the stack, relative to each matrix's largest entry."""
    scale = np.max(np.abs(reference), axis=(-2, -1), keepdims=True)
    return float(np.max(np.abs(value - reference) / scale))


@pytest.mark.parametrize("n", [1, 3, 1621])
def test_written_out_product_equals_matmul(n):
    rng = np.random.default_rng(n)
    a, b = random_stack(rng, n), random_stack(rng, n)
    column = b[..., :1]
    assert max_rel_norm(transfer._mul(a, b), a @ b) < 1e-13
    assert transfer._mul(a, column).shape == (n, 2, 1)
    assert max_rel_norm(transfer._mul(a, column), a @ column) < 1e-13
    # a lone matrix broadcasts against a stack, on either side
    assert max_rel_norm(transfer._mul(a[0], b), a[0] @ b) < 1e-13
    assert max_rel_norm(transfer._mul(a, b[0]), a @ b[0]) < 1e-13


@pytest.mark.parametrize("count", [1, 2, 3, 7, 13, 2000])
@pytest.mark.parametrize("n", [1, 3, 1621])
def test_binary_power_equals_numpy(n, count):
    rng = np.random.default_rng(n + count)
    exact = periodic_stack(rng, n)
    np.testing.assert_array_equal(transfer._mat_power(exact, count),
                                  np.linalg.matrix_power(exact, count))
    if count <= 13:
        # each product's rounding grows up to count-fold through a power, in
        # either form (2.8e-13 at count 2000), so rounding is compared at
        # the small counts and the order of the products at all of them
        m = random_stack(rng, n)
        assert max_rel_norm(transfer._mat_power(m, count),
                            np.linalg.matrix_power(m, count)) < 1e-13


@pytest.mark.parametrize("n_periods", [2000, 16379])
def test_structure_matrix_against_a_50_digit_power(n_periods):
    # the same float inputs, taken through the cell and its power in 50-digit
    # arithmetic; 1546.1 nm lies in the stopband
    mp = pytest.importorskip("mpmath")
    spec = replace(REF, n_periods=n_periods)
    omegas = model.omega_from_wavelength(np.array([1542e-9, 1545.2e-9, 1546.1e-9, 1550e-9]))

    def product(a, b):
        return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)] for i in range(2)]

    def exact(omega):
        k_lo, k_hi = (mp.mpf(n) * mp.mpf(float(omega)) / mp.mpf(C0)
                      for n in (spec.n_lo, spec.n_hi))
        d_lo = spec.duty_cycle * spec.period

        def prop(k, length):
            return [[mp.exp(-1j * k * length), 0], [0, mp.exp(1j * k * length)]]

        def iface(k1, k2):
            s, d = (k1 + k2) / (2 * k1), (k1 - k2) / (2 * k1)
            return [[s, d], [d, s]]

        cell = product(product(product(iface(k_hi, k_lo), prop(k_lo, mp.mpf(d_lo))),
                               iface(k_lo, k_hi)), prop(k_hi, mp.mpf(spec.period - d_lo)))
        result, count = None, n_periods
        while count:
            count, bit = divmod(count, 2)
            if bit:
                result = cell if result is None else product(result, cell)
            if count:
                cell = product(cell, cell)
        return result

    got = transfer.structure_matrix(spec, omegas)
    _, q = transfer._bloch_cosine(spec, omegas)
    assert q[2] < 0             # in the stopband
    for m, omega in zip(got, omegas):
        with mp.workdps(50):
            reference = exact(omega)
        for row in (0, 1):
            want = complex(reference[row][0])
            assert abs(m[row, 0] - want) < 5e-11 * abs(want)


@pytest.mark.parametrize("count", [1, 2, 3, 7, 13])
def test_matrix_power_binary_equals_naive(count):
    # a lead-free grating of `count` periods is the product of `count` cells
    omegas = model.omega_from_wavelength(np.array([1540e-9, 1546e-9, 1552e-9]))
    cells = transfer.unit_cell_matrix(REF, omegas)
    naive = cells
    for _ in range(count - 1):
        naive = naive @ cells
    np.testing.assert_allclose(
        transfer.structure_matrix(replace(REF, n_periods=count), omegas), naive,
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
    def layout(spec):
        _, lengths, n_effs, _, _ = transfer._segment_amplitudes(spec, [1.2e15], "left")
        return list(zip(n_effs, lengths))

    layers = layout(REF)
    assert len(layers) == 2 * REF.n_periods
    n0, l0 = layers[0]
    n1, l1 = layers[1]
    assert (n0, l0) == (REF.n_lo, pytest.approx(160e-9))
    assert (n1, l1) == (REF.n_hi, pytest.approx(160e-9))
    with_leads = layout(
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


def test_spectrum_in_tasks_equals_one_solve():
    # transmission_spectrum solves the structure matrix _CHUNK frequencies at
    # a time; 2 _CHUNK + 37 points end in a partial task
    grid = model.make_wavelength_grid(1546e-9, 8e-9, 2 * transfer._CHUNK + 37)
    sweep = transfer.transmission_spectrum(REF, grid)
    t = 1.0 / np.abs(transfer.structure_matrix(REF, grid.points)[..., 0, 0]) ** 2
    np.testing.assert_array_equal(sweep.column("transmission"),
                                  t[np.argsort(grid.wavelengths)])


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


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
def test_design_periods_rejects_a_non_finite_target(target):
    with pytest.raises(model.InvalidArgument, match="finite"):
        transfer.design_periods(target, 2.414, 3.4985e-3)


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
@pytest.mark.parametrize("spec,omegas", [
    (SMALL, model.omega_from_wavelength(np.array([1546.3e-9]))),
    (REF, np.append(model.omega_from_wavelength(np.array([1541.0e-9, REF.bragg_wavelength])),
                    upper_band_edge(REF))),
], ids=["small-with-leads", "ref-out-centre-edge"])
def test_segment_amplitudes_match_the_segment_loop(spec, omegas, side):
    # summation order differs (powers of the period map against one segment
    # at a time), so amplitudes agree to rounding, scaled per frequency by
    # the field's largest amplitude
    _, q = transfer._bloch_cosine(spec, omegas)
    assert spec is SMALL or abs(q[-1]) < transfer.BAND_EDGE_Q
    value = transfer._segment_amplitudes(spec, omegas, side)
    reference = reference_segment_amplitudes(spec, omegas, side)
    for got, want in zip(value[:3], reference[:3]):
        np.testing.assert_array_equal(got, want)
    scale = np.max(np.hypot(np.abs(reference[3]), np.abs(reference[4])), axis=0)
    for got, want in zip(value[3:], reference[3:]):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want) / scale) < 1e-12


def test_segment_amplitudes_reject_an_unknown_side():
    with pytest.raises(model.InvalidArgument, match="side"):
        transfer._segment_amplitudes(SMALL, [1.2e15], "up")


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

"""Spontaneous rates, two-photon states, Schmidt metrics, contrast sweep."""

from __future__ import annotations

import itertools
import math
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from braggsim import fwm, model, quantum, transfer
from braggsim.constants import HBAR
from segment_reference import overlap_segment_sum

REF = model.GratingSpec(period=320e-9, duty_cycle=0.5, n_periods=2000,
                        n_lo=2.414, delta_n=3.4985e-3)
SMALL = replace(REF, n_periods=240)
PARAMS = model.NonlinearParams(gamma=200.0, coupled_pump_power=1.29e-3,
                               coupled_signal_power=1.23e-3)
PULSE = model.PumpPulse(model.PulseShape.TOPHAT, 1e-9, 1e-3, REF.bragg_wavelength)
SIGNAL_WIN = model.CollectionWindow(center_wavelength=1560.05e-9,
                                    width=2 * math.pi * 1e10)
IDLER_WIN = model.CollectionWindow(
    center_wavelength=fwm.idler_wavelength(REF.bragg_wavelength, 1560.05e-9),
    width=2 * math.pi * 1e10)

RING = model.RingSpec(radius=15e-6, lambda_p=1534.55e-9, lambda_s=1544.27e-9,
                      lambda_i=1524.94e-9, quality_factor=40000.0)
RING_PULSE = model.PumpPulse(model.PulseShape.GAUSSIAN, 23.334e-12, 1e-3,
                             1534.55e-9)


def small_state(n_points=41, gamma=200.0):
    params = model.NonlinearParams(gamma=gamma, coupled_pump_power=1.29e-3,
                                   coupled_signal_power=1.23e-3)
    return quantum.two_photon_state_bw(SMALL, params, PULSE, SIGNAL_WIN,
                                       IDLER_WIN, n_points=n_points)


# --------------------------------------------------------------------------
# stimulated-to-spontaneous conversion


class TestSpontFromStim:
    def test_unit_conversion_ratio(self):
        # with P_stim/P_s = 1, lambda_i = 1560 nm and a 2pi x 10 GHz window
        # the spontaneous power is pinned by constants alone
        spec = model.GratingSpec(period=320e-9, duty_cycle=0.5, n_periods=5000,
                                 n_lo=2.414, delta_n=0.0)
        w_p = model.omega_from_wavelength(1546.08e-9)
        w_s = model.omega_from_wavelength(
            fwm.idler_wavelength(1546.08e-9, 1560.0e-9))
        stim = fwm.stimulated_idler(spec, PARAMS, w_p, w_s)
        assert stim.omega_i == pytest.approx(
            model.omega_from_wavelength(1560.0e-9), rel=1e-12)
        window = model.CollectionWindow(1560.0e-9, 2 * math.pi * 1e10)
        sp = quantum.spont_from_stim(stim, stim.idler_power, window)
        assert sp.spont_power == pytest.approx(8.0008e-9, rel=5e-4)
        assert sp.rate == pytest.approx(window.width, rel=1e-12)

    def test_rate_identity(self):
        stim = fwm.stimulated_idler(REF, PARAMS,
                                    model.omega_from_wavelength(REF.bragg_wavelength),
                                    model.omega_from_wavelength(1560.05e-9))
        sp = quantum.spont_from_stim(stim, PARAMS.coupled_signal_power, SIGNAL_WIN)
        assert sp.rate == pytest.approx(
            SIGNAL_WIN.width * stim.idler_power / PARAMS.coupled_signal_power,
            rel=1e-12)
        assert sp.bandwidth == SIGNAL_WIN.width
        # the normalized rates inherit the stimulated-to-spontaneous scale
        assert sp.rate_per_mw2 / stim.rate_per_mw2 == pytest.approx(
            sp.rate / stim.idler_rate, rel=1e-12)

    def test_rejects_nonpositive_signal_power(self):
        stim = fwm.stimulated_idler(REF, PARAMS,
                                    model.omega_from_wavelength(REF.bragg_wavelength),
                                    model.omega_from_wavelength(1560.05e-9))
        with pytest.raises(model.InvalidArgument):
            quantum.spont_from_stim(stim, 0.0, SIGNAL_WIN)


def _reference_stim():
    return fwm.stimulated_idler(REF, PARAMS, model.omega_from_wavelength(REF.bragg_wavelength),
                                model.omega_from_wavelength(1560.05e-9))


def _with_sample(values, bad):
    """A copy of `values` with its middle sample set to `bad`."""
    values = np.array(values)
    values.flat[values.size // 2] = bad
    return values


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda bad: quantum.spont_from_stim(_reference_stim(), bad, SIGNAL_WIN),
    lambda bad: quantum.SpontRate(rate=bad, bandwidth=1.0, spont_power=0.0, rate_per_mw2=0.0,
                                  rate_per_mw2_external=None),
    lambda bad: fwm.idler_omega(bad, model.omega_from_wavelength(1560.05e-9)),
    lambda bad: quantum.TwoPhotonState(_with_sample(np.full((5, 5), 1e-3 + 0j), bad),
                                       SIGNAL_WIN.grid(5), IDLER_WIN.grid(5)),
    lambda bad: fwm.dip_report(model.SweepResult("x", np.arange(9.0),
                                                 {"y": _with_sample(np.arange(1.0, 10.0), bad)}),
                               column="y", exclude_halfwidth=0.5),
], ids=["spont-signal-power", "spont-rate", "idler-omega", "state-amplitude", "dip-column"])
def test_non_finite_fails_the_guards(call, bad):
    # every comparison with NaN is False, so a guard written as the failing
    # condition (x <= 0) passes NaN on; each is written as the passing one,
    # which NaN and inf fail, before any arithmetic that would warn
    with pytest.raises(model.InvalidArgument):
        call(bad)


# --------------------------------------------------------------------------
# waveguide two-photon state


class TestWaveguideState:
    def test_jsd_normalization(self):
        st = small_state()
        total = np.sum(st.jsd) * st.signal_grid.spacing * st.idler_grid.spacing
        assert total == pytest.approx(1.0, abs=1e-9)
        assert st.amplitude is not None and not st.is_zero

    def test_amplitude_matches_envelope_times_overlap(self):
        # public-surface check of the tabulated amplitude against the
        # elementwise overlap evaluator
        st = small_state(n_points=21)
        w1 = st.signal_grid.points
        w2 = st.idler_grid.points
        pp = (w1[:, None] + w2[None, :]) / 2.0
        j = fwm.overlap_elements(SMALL, pp.ravel(),
                                 np.broadcast_to(w1[:, None], pp.shape).ravel(),
                                 np.broadcast_to(w2[None, :], pp.shape).ravel())
        g = PULSE.envelope_squared_spectrum(w1[:, None] + w2[None, :]
                                            - 2 * PULSE.center_omega)
        phi = (math.sqrt(2 * math.pi) * 200.0 * HBAR * PULSE.center_omega
               * g * j.reshape(pp.shape))
        np.testing.assert_allclose(st.amplitude, phi, rtol=1e-9)

    def test_overlap_table_matches_segment_sum(self):
        grid1 = SIGNAL_WIN.grid(21)
        grid2 = IDLER_WIN.grid(21)
        table = fwm.overlap_table(REF, grid1.points, grid2.points)
        w1, w2 = np.meshgrid(grid1.points, grid2.points, indexing="ij")
        oracle = overlap_segment_sum(REF, ((w1 + w2) / 2.0).ravel(),
                                     w1.ravel(), w2.ravel())
        np.testing.assert_allclose(table.ravel(), oracle, rtol=1e-9, atol=0.0)

    def test_cw_limit_rate_identity(self):
        # a pulse much longer than the inverse collection bandwidth gives
        # beta_sq = width * duration * (gamma P0 |J|)^2; the finite windows
        # truncate the sinc side lobes of the pump convolution, so the exact
        # value sits a few percent below that product
        st = small_state(81)
        w_p = model.omega_from_wavelength(SMALL.bragg_wavelength)
        w_s = SIGNAL_WIN.center_omega
        j = abs(fwm.overlap_elements(SMALL, [w_p], [w_s], [2 * w_p - w_s])[0])
        expected = SIGNAL_WIN.width * PULSE.duration \
            * (200.0 * PULSE.peak_power * j) ** 2
        assert 0.90 < st.beta_sq / expected < 1.0

    def test_grid_refinement_stability(self):
        b41 = small_state(41).beta_sq
        b81 = small_state(81).beta_sq
        assert abs(b81 - b41) / b81 < 0.02

    def test_anti_diagonal_ridge(self):
        st = small_state(81)
        assert quantum.ridge_width_ratio(st) < 0.2

    def test_zero_gamma_gives_zero_state(self):
        st = small_state(n_points=11, gamma=0.0)
        assert st.is_zero and st.beta_sq == 0.0
        assert not np.any(st.jsd)
        with pytest.raises(model.InvalidArgument):
            quantum.schmidt_analysis(st)
        with pytest.raises(model.InvalidArgument):
            quantum.ridge_width_ratio(st)
        with pytest.raises(model.InvalidArgument):
            quantum.principal_axis_ratio(st)

    def test_pair_probability_limit(self):
        with pytest.raises(model.InvalidArgument, match="^waveguide state: .*first-order"):
            small_state(n_points=11, gamma=2e5)

    def test_windows_must_straddle_the_stripe(self):
        far = model.CollectionWindow(1565.0e-9, 2 * math.pi * 1e10)
        with pytest.raises(model.InvalidArgument, match="stripe"):
            quantum.two_photon_state_bw(SMALL, PARAMS, PULSE, SIGNAL_WIN, far,
                                        n_points=11)

    def test_window_on_the_pump_line_rejected(self):
        on_pump = model.CollectionWindow(REF.bragg_wavelength, 2 * math.pi * 1e10)
        with pytest.raises(model.InvalidArgument, match="pump"):
            quantum.two_photon_state_bw(SMALL, PARAMS, PULSE, on_pump, on_pump,
                                        n_points=11)

    def test_short_pulse_warns(self):
        short = model.PumpPulse(model.PulseShape.TOPHAT, 1e-11, 1e-3,
                                REF.bragg_wavelength)
        with pytest.warns(UserWarning, match="long-pulse"):
            quantum.two_photon_state_bw(SMALL, PARAMS, short, SIGNAL_WIN,
                                        IDLER_WIN, n_points=11)


# --------------------------------------------------------------------------
# overlap table evaluated in tasks of whole rows


def exact_grids(n1, n2):
    """Signal and idler grids of spacing 2**29 rad/s on multiples of it, so
    that (w1 + w2)/2 reproduces the table's pump midpoints bit for bit."""
    step = 2.0 ** 29
    start1 = round(SIGNAL_WIN.center_omega / step) * step
    start2 = round(IDLER_WIN.center_omega / step) * step
    return start1 + step * np.arange(n1), start2 + step * np.arange(n2)


def task_rows(n2):
    """Rows of the table per task of the Bloch kernel for n2 idler points."""
    return max(1, fwm._CHUNK // n2)


def three_task_grids():
    """exact_grids of 101 idler points and two and a half tasks of rows:
    two full tasks and a partial third."""
    n2 = 101
    return exact_grids(5 * task_rows(n2) // 2, n2)


def pieces_of_elements(spec, w1, w2, size):
    """overlap_elements over the flattened product grid in pieces of `size`
    elements, which need not line up with the table's tasks."""
    s1, s2 = np.meshgrid(w1, w2, indexing="ij")
    args = (((s1 + s2) / 2.0).ravel(), s1.ravel(), s2.ravel())
    pieces = [fwm.overlap_elements(spec, *(a[i:i + size] for a in args))
              for i in range(0, s1.size, size)]
    return np.concatenate(pieces).reshape(s1.shape)


class TestChunkedTable:
    def test_reference_table_memory(self):
        # the ROADMAP target for the 401^2 reference table: J is formed a
        # fixed number of elements at a time, so the peak does not grow
        # with the grid
        w1 = SIGNAL_WIN.grid(401).points
        w2 = IDLER_WIN.grid(401).points
        tracemalloc.start()
        try:
            fwm.overlap_table(REF, w1, w2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_reference_table_memory_without_index_arrays(self):
        # the fields reach the kernel as views, so beyond the 2.6 MB result
        # and the per-frequency field tables the 401^2 table holds only the
        # one set of work arrays its tasks share (5.2 MB measured)
        w1 = SIGNAL_WIN.grid(401).points
        w2 = IDLER_WIN.grid(401).points
        tracemalloc.start()
        try:
            fwm.overlap_table(REF, w1, w2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7e6

    def test_table_over_three_chunks_equals_elements(self):
        w1, w2 = three_task_grids()
        table = fwm.overlap_table(REF, w1, w2)
        # two full tasks and a partial third one
        assert 2 * task_rows(w2.size) < w1.size < 3 * task_rows(w2.size)
        assert 2 * fwm._CHUNK < table.size < 3 * fwm._CHUNK
        # pieces smaller than one task, not aligned with the table's tasks
        np.testing.assert_array_equal(table, pieces_of_elements(REF, w1, w2, 1000))

    @pytest.mark.parametrize("spec,n1,n2", [
        # each row exceeds _CHUNK elements, so each is a task of its own
        (REF, 3, fwm._CHUNK + 53),
        # the lead amplitudes reach the kernel through the same views
        (replace(REF, lead_in_length=7e-6, lead_out_length=3e-6), 61, 61),
    ], ids=["rows-wider-than-a-task", "leads"])
    def test_table_equals_elements(self, spec, n1, n2):
        w1, w2 = exact_grids(n1, n2)
        table = fwm.overlap_table(spec, w1, w2)
        np.testing.assert_array_equal(table, pieces_of_elements(spec, w1, w2, 1000))

    @pytest.mark.parametrize("bad", [np.array([0.0, 1.0, 3.0, 4.0]), np.array([0.0]),
                                     np.array([0.0, 1.0, math.nan, 3.0])],
                             ids=["non-uniform", "one-point", "nan-point"])
    @pytest.mark.filterwarnings("error")
    def test_table_refuses_a_grid_that_is_not_uniform(self, bad):
        # the pump midpoints are read off the first points and the spacing,
        # so a non-uniform grid would put its pump at the wrong frequencies;
        # a NaN past the first step once passed the check, as every
        # comparison with NaN is False
        w1, w2 = SIGNAL_WIN.center_omega, IDLER_WIN.center_omega
        step = 2.0 * math.pi * 1e9
        for grids in ((w1 + step * bad, w2 + step * np.arange(4)),
                      (w1 + step * np.arange(4), w2 + step * bad)):
            with pytest.raises(model.InvalidArgument):
                fwm.overlap_table(REF, *grids)

    @pytest.mark.filterwarnings("error")
    def test_band_edge_row_in_a_later_chunk(self, monkeypatch):
        # q == 0 forced at one signal frequency whose row of the table is the
        # first row of the second task
        w1, w2 = three_task_grids()
        rows = task_rows(w2.size)
        row = rows                          # the first row of task 2
        assert rows <= row < 2 * rows <= w1.size
        clean = fwm.overlap_table(REF, w1, w2)
        exact, band_edge_sum = transfer._bloch_cosine, fwm._band_edge_sum
        calls = []

        def degenerate(spec, omegas):
            sign, q = exact(spec, omegas)
            return sign, np.where(omegas == w1[row], 0.0, q)

        def recording(spec, fp, fs, fi, weight):
            calls.append(fs["omega"].copy())
            return band_edge_sum(spec, fp, fs, fi, weight)

        monkeypatch.setattr(transfer, "_bloch_cosine", degenerate)
        monkeypatch.setattr(fwm, "_band_edge_sum", recording)
        table = fwm.overlap_table(REF, w1, w2)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], np.full(w2.size, w1[row]))
        tables = fwm._field_tables(REF, (w1[row] + w2) / 2.0, calls[0], w2)
        weight = fwm._wave_sum(*tables, "period", fwm._Work())
        np.testing.assert_array_equal(table[row], band_edge_sum(REF, *tables, weight))
        np.testing.assert_allclose(table[row], clean[row], rtol=1e-9, atol=0.0)
        others = np.arange(w1.size) != row
        np.testing.assert_array_equal(table[others], clean[others])

    def test_band_edge_row_memory(self, monkeypatch):
        # the band-edge path holds a few small matrices per element, whatever
        # the period count, and reads the weight the task formed in its work
        # arrays, so a 201^2 table with one band-edge row peaks at 4.03 MB
        # under tracemalloc, 0.78 MB above the table without it
        w1, w2 = exact_grids(201, 201)
        row = task_rows(w2.size)
        exact = transfer._bloch_cosine

        def degenerate(spec, omegas):
            sign, q = exact(spec, omegas)
            return sign, np.where(omegas == w1[row], 0.0, q)

        monkeypatch.setattr(transfer, "_bloch_cosine", degenerate)
        assert transfer._bloch_fields(REF, w1[row:row + 1], "left")["band_edge"].all()
        tracemalloc.start()
        try:
            fwm.overlap_table(REF, w1, w2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5e6

    @pytest.mark.parametrize("n1,n2", [(97, 101), (201, 201)])
    def test_table_does_not_depend_on_thread_count(self, monkeypatch, n1, n2):
        # 97 x 101 ends in a partial task; BRAGGSIM_THREADS caps BLAS and
        # OpenMP only, so the kernel does not read it
        w1, w2 = exact_grids(n1, n2)
        tables = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("BRAGGSIM_THREADS", threads)
            tables.append(fwm.overlap_table(REF, w1, w2))
        for table in tables[1:]:
            np.testing.assert_array_equal(table, tables[0])

    def test_tasks_run_on_the_calling_thread(self, monkeypatch):
        # every task of a table runs on the calling thread, one after another,
        # and the call starts no thread
        real = fwm._bloch_chunk
        calls = []

        def recording(*args):
            calls.append(threading.current_thread())
            return real(*args)

        monkeypatch.setattr(fwm, "_bloch_chunk", recording)
        before = threading.active_count()
        w1, w2 = exact_grids(97, 101)
        fwm.overlap_table(REF, w1, w2)
        assert len(calls) == -(-w1.size // task_rows(w2.size)) > 1
        assert set(calls) == {threading.main_thread()}
        assert threading.active_count() == before

    def test_error_in_a_later_task_reaches_the_caller(self, monkeypatch):
        # the second task fails; the error reaches the caller and no later task runs
        real = fwm._bloch_chunk
        count = itertools.count(1)

        def second_fails(*args):
            if next(count) == 2:
                raise RuntimeError("failed in the second task")
            return real(*args)

        monkeypatch.setattr(fwm, "_bloch_chunk", second_fails)
        w1, w2 = exact_grids(97, 101)
        with pytest.raises(RuntimeError, match="second task"):
            fwm.overlap_table(REF, w1, w2)
        assert next(count) == 3

    @pytest.mark.parametrize("chunk", [512, 1024, 2048])
    @pytest.mark.parametrize("case", ["reference", "leads", "band-edge-row"])
    def test_table_does_not_depend_on_the_task_size(self, monkeypatch, chunk, case):
        # the tasks reuse one set of work arrays, sized by the first task;
        # 61 rows of 41 end in a partial task at each task size, and the
        # band-edge row is in task 3, 2 and 1 of them
        monkeypatch.setattr(fwm, "_CHUNK", chunk)
        w1, w2 = exact_grids(61, 41)
        spec = REF
        if case == "leads":
            spec = replace(REF, lead_in_length=7e-6, lead_out_length=3e-6)
        elif case == "band-edge-row":
            exact, row = transfer._bloch_cosine, 30

            def degenerate(spec, omegas):
                sign, q = exact(spec, omegas)
                return sign, np.where(omegas == w1[row], 0.0, q)

            monkeypatch.setattr(transfer, "_bloch_cosine", degenerate)
            assert transfer._bloch_fields(REF, w1[row:row + 1], "left")["band_edge"].all()
        table = fwm.overlap_table(spec, w1, w2)
        np.testing.assert_array_equal(table, pieces_of_elements(spec, w1, w2, 1000))


# --------------------------------------------------------------------------
# microring two-photon state


class TestRingState:
    def test_reference_values(self, ring_state):
        # frozen regression at the default 201-point grids
        assert ring_state.beta_sq == pytest.approx(7.43723342e-4, rel=1e-6)
        rep = quantum.schmidt_analysis(ring_state)
        assert rep.purity == pytest.approx(0.87639, abs=5e-4)
        assert quantum.principal_axis_ratio(ring_state) == pytest.approx(
            1.8137, abs=5e-3)

    def test_grids_track_the_resonances(self, ring_state):
        # both grids span +-6 of the broader linewidth around their resonance,
        # so they share one spacing and each covers +-6 of its own linewidth
        half = 6 * max(RING.linewidth("signal"), RING.linewidth("idler"))
        assert ring_state.signal_grid.spacing == ring_state.idler_grid.spacing
        for mode, grid in (("signal", ring_state.signal_grid),
                           ("idler", ring_state.idler_grid)):
            w0, g = RING.resonance_omega(mode), RING.linewidth(mode)
            assert grid.points[0] == pytest.approx(w0 - half, rel=1e-12)
            assert grid.points[-1] == pytest.approx(w0 + half, rel=1e-12)
            assert grid.points[0] <= w0 - 6 * g and grid.points[-1] >= w0 + 6 * g

    def test_lattice_view_matches_per_element_interpolation(self, scenario, ring_state):
        # H read on the 2n-1 lattice of sums and viewed onto the grid equals
        # H interpolated at every w1 + w2 (the two differ by rounding only)
        w1, w2 = ring_state.signal_grid.points, ring_state.idler_grid.points
        sums, h_table = quantum._pump_pair_spectrum(
            scenario.ring_pulse, RING.resonance_omega("pump"), RING.linewidth("pump"))
        s = w1[:, None] + w2[None, :]
        h = (np.interp(s, sums, h_table.real, left=0.0, right=0.0)
             + 1j * np.interp(s, sums, h_table.imag, left=0.0, right=0.0))
        expected = (h * np.conj(quantum._lorentzian(
            w1 - RING.resonance_omega("signal"), RING.linewidth("signal")))[:, None]
            * np.conj(quantum._lorentzian(
                w2 - RING.resonance_omega("idler"), RING.linewidth("idler")))[None, :])
        # the state is this times one prefactor, read off at the centre
        c = w1.size // 2
        scale = ring_state.amplitude[c, c] / expected[c, c]
        np.testing.assert_allclose(ring_state.amplitude, scale * expected, rtol=1e-9)

    def test_converged_at_101_and_201_points(self, scenario, ring_state):
        coarse = quantum.two_photon_state_ring(scenario.ring, scenario.params,
                                               scenario.ring_pulse, n_points=101)
        assert coarse.beta_sq == pytest.approx(ring_state.beta_sq, rel=5e-4)
        assert quantum.schmidt_analysis(coarse).purity == pytest.approx(
            quantum.schmidt_analysis(ring_state).purity, abs=1e-4)
        ridge = quantum.ridge_width_ratio(ring_state)
        assert math.isfinite(ridge)
        assert quantum.ridge_width_ratio(coarse) == pytest.approx(ridge, rel=0.01)

    def test_pair_probability_grows_with_pulse_duration(self):
        betas = []
        for scale in (0.7, 1.0, 1.3):
            pulse = model.PumpPulse(model.PulseShape.GAUSSIAN,
                                    scale * 23.334e-12, 1e-3, 1534.55e-9)
            betas.append(quantum.two_photon_state_ring(
                RING, PARAMS, pulse, n_points=101).beta_sq)
        assert betas[0] < betas[1] < betas[2]

    def test_purity_falls_with_pulse_duration(self):
        purities = []
        for scale in (0.7, 1.3):
            pulse = model.PumpPulse(model.PulseShape.GAUSSIAN,
                                    scale * 23.334e-12, 1e-3, 1534.55e-9)
            st = quantum.two_photon_state_ring(RING, PARAMS, pulse, n_points=101)
            purities.append(quantum.schmidt_analysis(st).purity)
        assert purities[0] > purities[1]

    def test_narrow_resonances_factorize_the_state(self):
        # with an exactly energy-matched triplet, raising Q narrows the
        # Lorentzians against the fixed pump bandwidth and the state
        # approaches a product state
        lam_i = 1.0 / (2.0 / 1534.55e-9 - 1.0 / 1544.27e-9)
        matched = model.RingSpec(radius=15e-6, lambda_p=1534.55e-9,
                                 lambda_s=1544.27e-9, lambda_i=lam_i,
                                 quality_factor=40000.0)
        sharp = model.RingSpec(radius=15e-6, lambda_p=1534.55e-9,
                               lambda_s=1544.27e-9, lambda_i=lam_i,
                               quality_factor=640000.0)
        p_base = quantum.schmidt_analysis(quantum.two_photon_state_ring(
            matched, PARAMS, RING_PULSE, n_points=101)).purity
        p_sharp = quantum.schmidt_analysis(quantum.two_photon_state_ring(
            sharp, PARAMS, RING_PULSE, n_points=101)).purity
        assert p_sharp > p_base
        assert p_sharp > 0.90

    def test_reference_state_memory(self, scenario):
        # the 201^2 reference state takes about 1.8 MB; 10 MB leaves room for
        # numpy's temporaries and still fails a several-fold regression
        tracemalloc.start()
        try:
            quantum.two_photon_state_ring(
                scenario.ring, scenario.params, scenario.ring_pulse,
                n_points=scenario.jsd_points,
                span_linewidths=scenario.ring_span_linewidths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_pair_probability_limit_names_the_ring(self):
        # beta^2 grows as the square of the peak power: 7.4e-4 at 1 mW
        loud = replace(RING_PULSE, peak_power=5e-3)
        with pytest.raises(model.InvalidArgument, match="^ring state: .*first-order"):
            quantum.two_photon_state_ring(RING, PARAMS, loud, n_points=41)

    def test_energy_violating_triplet_warns(self):
        off = model.RingSpec(radius=15e-6, lambda_p=1534.55e-9,
                             lambda_s=1544.27e-9, lambda_i=1525.44e-9,
                             quality_factor=40000.0)
        zero = model.NonlinearParams(gamma=0.0, coupled_pump_power=1e-3,
                                     coupled_signal_power=1e-3)
        with pytest.warns(UserWarning, match="energy conservation"):
            quantum.two_photon_state_ring(off, zero, RING_PULSE, n_points=11)


def _closed_form_pump_amplitude(pulse, w_p0, g_p, w, lo, hi):
    """alpha * L_p written out from the pulse parameters, zero outside the
    pump grid [lo, hi] (half a grid step of slack for rounding in s - w)."""
    t = pulse.duration
    d = w - pulse.center_omega
    amp = math.sqrt(pulse.peak_power / (HBAR * pulse.center_omega)) * t
    if pulse.shape is model.PulseShape.TOPHAT:
        alpha = amp * np.sinc(d * t / (2.0 * math.pi))
    else:
        alpha = amp * math.sqrt(2.0 * math.pi) * np.exp(-(d * t) ** 2 / 2.0)
    lorentz = (g_p / 2.0) / (g_p / 2.0 - 1j * (w - w_p0))
    slack = (hi - lo) / 16000
    return np.where((w > lo - slack) & (w < hi + slack), alpha * lorentz, 0.0)


@pytest.mark.parametrize("pulse", [
    RING_PULSE,
    model.PumpPulse(model.PulseShape.TOPHAT, 100e-12, 1e-3, 1534.55e-9),
    # detuned from the pump resonance: the grid starts 20 widths below
    # the lower of the two, so the sum grid starts away from 2 * w_p0
    model.PumpPulse(model.PulseShape.GAUSSIAN, 23.334e-12, 1e-3, 1534.60e-9),
], ids=["gaussian", "tophat", "detuned"])
def test_pump_pair_spectrum_matches_direct_sum(pulse):
    # H(s) = (1/2pi) int a(w) a(s - w) dw by the trapezoid rule on the pump
    # grid, with a(s - w) from the closed form at each returned sum s. The
    # trapezoid and the plain autoconvolution differ only by half the end
    # samples, which vanish here (Gaussian tails, sinc nulls at 20 widths).
    w_p0 = RING.resonance_omega("pump")
    g_p = RING.linewidth("pump")
    sums, h = quantum._pump_pair_spectrum(pulse, w_p0, g_p)
    width = max(pulse.spectral_width, g_p)
    lo = min(pulse.center_omega, w_p0) - 20.0 * width
    hi = max(pulse.center_omega, w_p0) + 20.0 * width
    wp = np.linspace(lo, hi, 8001)
    a = _closed_form_pump_amplitude(pulse, w_p0, g_p, wp, lo, hi)
    assert sums.size == 16001
    picks = np.arange(0, sums.size, 31)
    direct = np.array([
        np.trapezoid(a * _closed_form_pump_amplitude(pulse, w_p0, g_p, s - wp, lo, hi), wp)
        for s in sums[picks]]) / (2.0 * math.pi)
    assert np.max(np.abs(h[picks] - direct)) <= 1e-10 * np.max(np.abs(h))
    # H is an FFT autoconvolution: against the direct one of the same samples
    grid = model.FrequencyGrid(points=wp, spacing=(hi - lo) / 8000)
    samples = model.pump_spectral_amplitude(pulse, grid) * quantum._lorentzian(wp - w_p0, g_p)
    convolved = np.convolve(samples, samples) * grid.spacing / (2.0 * math.pi)
    assert np.max(np.abs(h - convolved)) <= 1e-13 * np.max(np.abs(h))


# --------------------------------------------------------------------------
# Schmidt decomposition on synthetic states


def _state_from_amplitude(amp, grid1, grid2):
    """The state of amp scaled to a pair probability of 1e-6; the Schmidt
    spectrum and the normalized JSD do not depend on the scale."""
    raw = float(np.sum(np.abs(amp) ** 2)) * grid1.spacing * grid2.spacing \
        / (2 * math.pi) ** 2
    return quantum.TwoPhotonState(amp * math.sqrt(1e-6 / raw), grid1, grid2)


def _grids(n1=24, n2=24):
    g1 = model.grid_around_omega(1.207e15, 8e10, n1)
    g2 = model.grid_around_omega(1.230e15, 8e10, n2)
    return g1, g2


class TestStateConstructor:
    def test_beta_sq_and_jsd_from_the_amplitude(self):
        rng = np.random.default_rng(3)
        g1, g2 = _grids(24, 20)
        amp = 1e-13 * (rng.normal(size=(24, 20)) + 1j * rng.normal(size=(24, 20)))
        st = quantum.TwoPhotonState(amp, g1, g2)
        d1, d2 = g1.spacing, g2.spacing
        power = np.abs(amp) ** 2
        assert st.beta_sq == pytest.approx(
            np.sum(power) * d1 * d2 / (2 * math.pi) ** 2, rel=1e-12)
        assert np.sum(st.jsd) * d1 * d2 == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(st.jsd, power / (np.sum(power) * d1 * d2),
                                   rtol=1e-12)
        assert not st.is_zero

    def test_zero_amplitude_is_a_zero_state(self):
        g1, g2 = _grids(12, 12)
        st = quantum.TwoPhotonState(np.zeros((12, 12), dtype=complex), g1, g2)
        assert st.is_zero and st.beta_sq == 0.0
        assert st.jsd.shape == (12, 12) and not np.any(st.jsd)

    @pytest.mark.parametrize("shape", [(12, 11), (11, 12), (144,)])
    def test_amplitude_shape_must_match_the_grids(self, shape):
        g1, g2 = _grids(12, 12)
        with pytest.raises(model.InvalidArgument, match="shape"):
            quantum.TwoPhotonState(np.ones(shape, dtype=complex), g1, g2)


def test_schmidt_rank_one_state():
    rng = np.random.default_rng(7)
    g1, g2 = _grids()
    a = rng.normal(size=24) + 1j * rng.normal(size=24)
    b = rng.normal(size=24) + 1j * rng.normal(size=24)
    rep = quantum.schmidt_analysis(_state_from_amplitude(np.outer(a, b), g1, g2))
    assert rep.purity == pytest.approx(1.0, abs=1e-9)
    assert rep.schmidt_number == pytest.approx(1.0, abs=1e-9)
    assert rep.schmidt_coefficients[0] == pytest.approx(1.0, abs=1e-9)


def test_schmidt_two_mode_state():
    n = 30
    g1, g2 = _grids(n, n)
    i = np.arange(n)
    u1 = math.sqrt(2 / (n + 1)) * np.sin(math.pi * 1 * (i + 1) / (n + 1))
    u2 = math.sqrt(2 / (n + 1)) * np.sin(math.pi * 2 * (i + 1) / (n + 1))
    amp = math.sqrt(0.8) * np.outer(u1, u1) + math.sqrt(0.2) * np.outer(u2, u2)
    rep = quantum.schmidt_analysis(_state_from_amplitude(amp, g1, g2))
    np.testing.assert_allclose(rep.schmidt_coefficients[:2],
                               [math.sqrt(0.8), math.sqrt(0.2)], rtol=1e-9)
    assert rep.purity == pytest.approx(0.68, abs=1e-9)
    assert rep.schmidt_number == pytest.approx(1 / 0.68, rel=1e-9)


def _svd_schmidt(amp):
    """The oracle: normalized singular values of amp, and their purity."""
    sv = np.linalg.svd(amp, compute_uv=False)
    lam = sv / math.sqrt(float(np.sum(sv ** 2)))
    return lam, float(np.sum(lam ** 4))


_amplitudes = st.tuples(st.integers(2, 9), st.integers(2, 9)).flatmap(
    lambda shape: hnp.arrays(complex, shape, elements=st.complex_numbers(
        max_magnitude=1.0, allow_nan=False, allow_infinity=False, allow_subnormal=False)))


@settings(max_examples=100, deadline=None)
@given(amp=_amplitudes)
def test_schmidt_purity_matches_the_svd(amp):
    # purity = tr rho^2 of the signal's reduced density matrix, which is
    # sum sigma^4 / (sum sigma^2)^2 of the amplitude's singular values
    assume(np.max(np.abs(amp)) > 1e-3)
    g1, g2 = _grids(*amp.shape)
    rep = quantum.schmidt_analysis(_state_from_amplitude(amp, g1, g2))
    purity = _svd_schmidt(amp)[1]
    assert rep.purity == pytest.approx(purity, rel=1e-12)
    assert rep.schmidt_number == pytest.approx(1.0 / purity, rel=1e-12)


@pytest.mark.parametrize("kind", ["rank-one", "near-maximally-mixed", "random"])
def test_schmidt_purity_and_lazy_coefficients(kind):
    rng = np.random.default_rng(5)
    n = 24
    g1, g2 = _grids(n, n)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if kind == "rank-one":
        amp = np.outer(z[0], z[1])
    elif kind == "near-maximally-mixed":       # n equal Schmidt modes, perturbed
        amp = np.linalg.qr(z)[0] + 1e-3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    else:
        amp = z
    lam, purity = _svd_schmidt(amp)
    rep = quantum.schmidt_analysis(_state_from_amplitude(amp, g1, g2))
    assert rep.purity == pytest.approx(purity, rel=1e-12)
    assert "schmidt_coefficients" not in vars(rep)      # not computed until read
    coefficients = rep.schmidt_coefficients
    assert rep.schmidt_coefficients is coefficients
    np.testing.assert_allclose(coefficients, lam, rtol=0, atol=1e-12)
    assert np.all(np.diff(coefficients) <= 0)
    assert float(np.sum(coefficients ** 2)) == pytest.approx(1.0, abs=1e-12)


def test_schmidt_exchange_invariance():
    rng = np.random.default_rng(11)
    g1, g2 = _grids(18, 18)
    amp = rng.normal(size=(18, 18)) + 1j * rng.normal(size=(18, 18))
    a = quantum.schmidt_analysis(_state_from_amplitude(amp, g1, g2))
    b = quantum.schmidt_analysis(_state_from_amplitude(amp.T.copy(), g2, g1))
    assert a.purity == pytest.approx(b.purity, rel=1e-12)


# --------------------------------------------------------------------------
# density-shape metrics on synthetic ridges


def _gaussian_ridge_state(sigma_u, sigma_v, n=121):
    g1, g2 = _grids(n, n)
    d1 = g1.points - g1.points[(n - 1) // 2]
    d2 = g2.points - g2.points[(n - 1) // 2]
    u = (d1[:, None] + d2[None, :]) / math.sqrt(2)
    v = (d1[:, None] - d2[None, :]) / math.sqrt(2)
    p = np.exp(-u ** 2 / (2 * sigma_u ** 2) - v ** 2 / (2 * sigma_v ** 2))
    return _state_from_amplitude(np.sqrt(p), g1, g2)


def test_ridge_width_ratio_recovers_aspect():
    # both FWHMs must span several lattice lines (h/sqrt(2) apart) for the
    # linear interpolation at the half-maximum crossings to be accurate
    w = 8e10
    st = _gaussian_ridge_state(w / 20, w / 5)
    assert quantum.ridge_width_ratio(st) == pytest.approx(0.25, rel=0.12)
    round_st = _gaussian_ridge_state(w / 12, w / 12)
    assert quantum.ridge_width_ratio(round_st) == pytest.approx(1.0, rel=0.1)


def test_ridge_width_ratio_converges_to_the_top_hat_ridge(scenario, bw_state):
    # the 1 ns top-hat's sinc^2 ridge is 0.63 GHz across and runs along the
    # whole sqrt(2) x 10 GHz diagonal of the windows: 0.0444
    def ratio(n_points):
        return quantum.ridge_width_ratio(quantum.two_photon_state_bw(
            scenario.grating, scenario.params, scenario.pulse,
            scenario.signal_window, scenario.idler_window, n_points=n_points))

    assert quantum.ridge_width_ratio(bw_state) == pytest.approx(0.0444, rel=0.02)
    r101, r401 = ratio(101), ratio(401)
    assert abs(r401 - r101) < 0.01 * r101


def test_ridge_width_ratio_needs_one_spacing():
    g1 = model.grid_around_omega(1.207e15, 8e10, 24)
    g2 = model.grid_around_omega(1.230e15, 8.1e10, 24)
    with pytest.raises(model.InvalidArgument, match="spacing"):
        quantum.ridge_width_ratio(_state_from_amplitude(np.ones((24, 24)), g1, g2))


def test_principal_axis_ratio_recovers_aspect():
    w = 8e10
    st = _gaussian_ridge_state(w / 50, w / 10)
    assert quantum.principal_axis_ratio(st) == pytest.approx(5.0, rel=0.05)
    round_st = _gaussian_ridge_state(w / 12, w / 12)
    assert quantum.principal_axis_ratio(round_st) == pytest.approx(1.0, rel=0.02)
    assert quantum.principal_axis_ratio(st) >= 1.0


# --------------------------------------------------------------------------
# index-contrast sweep


def _polyfit_slope(rep):
    """The oracle: numpy's LAPACK line fit of log rate on log delta_n."""
    return np.polyfit(np.log(rep.sweep.x), np.log(rep.sweep.column("pair_rate_per_s")), 1)[0]


class TestContrastSweep:
    def test_inverse_square_law(self):
        rep = quantum.contrast_sweep(REF, 12.0, [2e-3, 4e-3, 8e-3], PARAMS,
                                     PULSE, SIGNAL_WIN)
        assert rep.slope == pytest.approx(-2.0, abs=0.05)
        assert rep.slope == pytest.approx(_polyfit_slope(rep), rel=1e-12, abs=0)
        periods = rep.sweep.column("n_periods")
        assert np.all(np.diff(periods) < 0)
        rates = rep.sweep.column("pair_rate_per_s")
        assert np.all(np.diff(rates) < 0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("contrasts", [[3e-3], [3e-3, 3e-3]],
                             ids=["one-contrast", "two-equal-contrasts"])
    def test_single_point(self, contrasts):
        # fewer than two distinct contrasts leave the slope undefined
        rep = quantum.contrast_sweep(REF, 12.0, contrasts, PARAMS, PULSE,
                                     SIGNAL_WIN)
        assert rep.slope is None
        assert rep.sweep.x.size == len(contrasts)

    @pytest.mark.parametrize("seed,size,repeats", [(0, 16, 0), (1, 9, 4), (2, 2, 0),
                                                   (3, 5, 3)],
                             ids=["16-distinct", "9-with-repeats", "two-points",
                                  "5-with-repeats"])
    def test_slope_is_the_least_squares_slope(self, monkeypatch, seed, size, repeats):
        # seeded positive contrasts and rates, some contrasts repeated, stand in
        # for the field solve; the closed form must match the LAPACK fit
        rng = np.random.default_rng(seed)
        contrasts = rng.uniform(5e-4, 1e-2, size)
        contrasts = np.concatenate([contrasts, rng.choice(contrasts, repeats)])
        rates = iter(np.exp(rng.normal(3.0, 2.0, contrasts.size)))
        monkeypatch.setattr(quantum, "designed_pair_rate",
                            lambda *args: (100, float(next(rates))))
        rep = quantum.contrast_sweep(REF, 12.0, contrasts, PARAMS, PULSE, SIGNAL_WIN)
        assert rep.sweep.x.size == contrasts.size
        assert rep.slope == pytest.approx(_polyfit_slope(rep), rel=1e-12, abs=0)

    def test_slope_takes_no_lapack_fit(self, monkeypatch):
        # polyfit binds lstsq at import, so the gufuncs under every binding are
        # refused as well as the public names
        from numpy.linalg import _umath_linalg

        def refuse(*args, **kwargs):
            raise AssertionError("a LAPACK fit was taken")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        for name in ("lstsq", "svd", "svd_f", "svd_s"):
            monkeypatch.setattr(_umath_linalg, name, refuse)
        rep = quantum.contrast_sweep(REF, 12.0, [2e-3, 4e-3, 8e-3], PARAMS,
                                     PULSE, SIGNAL_WIN)
        assert rep.slope == pytest.approx(-2.0, abs=0.05)

    def test_contrast_domain(self):
        with pytest.raises(model.InvalidArgument):
            quantum.contrast_sweep(REF, 12.0, [2e-4], PARAMS, PULSE, SIGNAL_WIN)
        with pytest.raises(model.InvalidArgument):
            quantum.contrast_sweep(REF, 12.0, [2e-2], PARAMS, PULSE, SIGNAL_WIN)

    @pytest.mark.parametrize("delta_n,text", [(2e-4, "0.0002"), (2e-2, "0.02"),
                                              (math.nan, "nan")],
                             ids=["2e-4", "2e-2", "nan"])
    def test_designed_pair_rate_names_an_out_of_range_contrast(self, delta_n, text):
        match = f"delta_n {text} lies outside the contrast law's range"
        with pytest.raises(model.InvalidArgument, match=match):
            quantum.designed_pair_rate(REF, 12.0, delta_n, PARAMS, PULSE, SIGNAL_WIN)
        with pytest.raises(model.InvalidArgument, match=match):
            quantum.contrast_sweep(REF, 12.0, [3e-3, delta_n], PARAMS, PULSE, SIGNAL_WIN)

    @pytest.mark.parametrize("config", ["reference", "contrast-many-7"])
    def test_designed_pair_rate_is_each_row(self, config):
        from braggsim import cli
        path = cli.bundled_config_path() if config == "reference" \
            else Path(__file__).parent / "golden" / "configs" / f"{config}.json"
        cfg = cli.build_scenario(cli.load_config_dict(path))
        rep = quantum.contrast_sweep(cfg.grating, cfg.target_rejection_db, cfg.contrasts,
                                     cfg.params, cfg.pulse, cfg.signal_window)
        assert rep.slope == pytest.approx(_polyfit_slope(rep), rel=1e-12, abs=0)
        rows = zip(rep.sweep.x, rep.sweep.column("n_periods"),
                   rep.sweep.column("pair_rate_per_s"))
        for dn, n_periods, rate in rows:
            assert quantum.designed_pair_rate(
                cfg.grating, cfg.target_rejection_db, dn, cfg.params, cfg.pulse,
                cfg.signal_window) == (n_periods, rate)

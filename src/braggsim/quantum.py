"""Spontaneous four-wave mixing: pair rates, two-photon states, Schmidt modes.

Two routes to the pair rate are implemented side by side:

* the stimulated-to-spontaneous converter, which turns a classical stimulated
  idler power into a spontaneous rate in a collection window
  (P_spont = hbar omega_i * bandwidth * P_stim / P_signal), and
* the first-order two-photon state, whose unnormalized amplitude is

      phi(w1, w2) = sqrt(2 pi) gamma hbar w0 G(w1 + w2 - 2 w0) J(...)

  with G the Fourier transform of the squared pump envelope (photon-flux
  normalized) and J the classical phase-matching overlap of structure fields.
  |beta|^2 = (1/2pi)^2 double-integral of |phi|^2 is the pair probability per
  pulse; for a long top-hat pump it reduces to bandwidth * duration *
  (gamma P0 |J|)^2, which ties the two routes together.

The microring comparator replaces the structure fields by Lorentzian
resonance responses at the pump, signal, and idler resonances with a field
intensity enhancement set by critical coupling (twice the photon dwelling
time over the round-trip time).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .constants import HBAR, SPEED_OF_LIGHT as C0
from .model import (
    CollectionWindow,
    FrequencyGrid,
    GratingSpec,
    InvalidArgument,
    NonlinearParams,
    PumpPulse,
    RingSpec,
    SweepResult,
    grid_around_omega,
    pump_spectral_amplitude,
)
from .fwm import (
    StimulatedResult,
    _bloch_overlap,
    _check_domain,
    overlap_elements,
)
from .transfer import _bloch_fields, design_periods

__all__ = [
    "SpontRate",
    "TwoPhotonState",
    "SchmidtReport",
    "ContrastReport",
    "spont_from_stim",
    "two_photon_state_bw",
    "two_photon_state_ring",
    "schmidt_analysis",
    "contrast_sweep",
    "ridge_width_ratio",
    "principal_axis_ratio",
]

# first-order perturbation theory: pair probability per pulse must stay small
_BETA_SQ_LIMIT = 1e-2


# --------------------------------------------------------------------------
# stimulated -> spontaneous converter


@dataclass(frozen=True)
class SpontRate:
    """Spontaneous pair rate inferred from a stimulated measurement."""

    rate: float                  # pairs/s into the collection window
    bandwidth: float             # collection bandwidth (rad/s)
    spont_power: float           # hbar*omega_i * rate (W)
    rate_per_mw2: float | None   # normalized by squared internal pump power
    rate_per_mw2_external: float | None

    def __post_init__(self):
        if self.rate < 0:
            raise InvalidArgument("rate must be >= 0")


def spont_from_stim(stim: StimulatedResult, signal_power: float,
                    window: CollectionWindow) -> SpontRate:
    """Spontaneous power in the window from the stimulated conversion ratio:
    P_spont = hbar omega_i * bandwidth * (P_stim / P_signal)."""
    if signal_power <= 0:
        raise InvalidArgument("signal power must be > 0")
    ratio = stim.idler_power / signal_power
    spont_power = HBAR * stim.omega_i * window.width * ratio
    rate = window.width * ratio
    scale = None
    if stim.idler_rate > 0:
        scale = rate / stim.idler_rate
    per_mw2 = stim.rate_per_mw2 * scale if scale is not None else None
    per_mw2_ext = None
    if scale is not None and stim.rate_per_mw2_external is not None:
        per_mw2_ext = stim.rate_per_mw2_external * scale
    return SpontRate(
        rate=rate,
        bandwidth=window.width,
        spont_power=spont_power,
        rate_per_mw2=per_mw2,
        rate_per_mw2_external=per_mw2_ext,
    )


# --------------------------------------------------------------------------
# two-photon states


@dataclass(frozen=True)
class TwoPhotonState:
    """Discretized first-order two-photon state on a signal x idler grid.

    jsd is the normalized joint spectral density (integrates to 1 over the
    grids); amplitude keeps the unnormalized complex samples of phi so the
    Schmidt decomposition can use the phase. A zero state (no nonlinearity)
    carries is_zero=True and skips the normalization invariant.
    """

    beta_sq: float
    jsd: np.ndarray
    signal_grid: FrequencyGrid
    idler_grid: FrequencyGrid
    amplitude: np.ndarray | None = None
    is_zero: bool = False

    def __post_init__(self):
        jsd = np.asarray(self.jsd, dtype=float)
        jsd.flags.writeable = False
        object.__setattr__(self, "jsd", jsd)
        if self.amplitude is not None:
            amp = np.asarray(self.amplitude, dtype=complex)
            amp.flags.writeable = False
            object.__setattr__(self, "amplitude", amp)
        expected = (self.signal_grid.n_points, self.idler_grid.n_points)
        if jsd.shape != expected:
            raise InvalidArgument("jsd shape does not match the grids")
        if np.any(jsd < 0):
            raise InvalidArgument("jsd must be nonnegative")
        if self.beta_sq < 0:
            raise InvalidArgument("beta_sq must be >= 0")
        if self.beta_sq >= _BETA_SQ_LIMIT:
            raise InvalidArgument(
                "pair probability per pulse too large for first-order theory "
                f"({self.beta_sq:.3g} >= {_BETA_SQ_LIMIT:g})")
        if not self.is_zero:
            total = float(np.sum(jsd)) * self.signal_grid.spacing * self.idler_grid.spacing
            if abs(total - 1.0) > 1e-6:
                raise InvalidArgument("jsd is not normalized to 1 over the grids")


def _assemble_state(phi: np.ndarray, signal_grid: FrequencyGrid,
                    idler_grid: FrequencyGrid) -> TwoPhotonState:
    d1, d2 = signal_grid.spacing, idler_grid.spacing
    power = np.abs(phi) ** 2
    total = float(np.sum(power))
    if total == 0.0:
        return TwoPhotonState(
            beta_sq=0.0, jsd=np.zeros_like(power), signal_grid=signal_grid,
            idler_grid=idler_grid, amplitude=None, is_zero=True)
    beta_sq = total * d1 * d2 / (2.0 * math.pi) ** 2
    jsd = power / (total * d1 * d2)
    return TwoPhotonState(beta_sq=beta_sq, jsd=jsd, signal_grid=signal_grid,
                          idler_grid=idler_grid, amplitude=phi)


def _require_window_grid(grid: FrequencyGrid, window: CollectionWindow,
                         label: str) -> None:
    """The quadrature grid must span exactly the collection window."""
    lo = window.center_omega - window.width / 2.0
    hi = window.center_omega + window.width / 2.0
    tol = grid.spacing
    if abs(grid.points[0] - lo) > tol or abs(grid.points[-1] - hi) > tol:
        raise InvalidArgument(f"{label} grid does not match its collection window")


def _bw_overlap_table(spec: GratingSpec, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """J evaluated on the product grid with both pump photons at the
    energy-conserving midpoint (w1 + w2)/2.

    The two grids must share their spacing: the midpoints then live on a
    single uniform grid of 2n-1 frequencies, so the structure fields are
    solved once per distinct frequency and gathered onto the grid by index.
    """
    d1 = w1[1] - w1[0]
    d2 = w2[1] - w2[0]
    if abs(d1 - d2) > 1e-9 * abs(d1):
        raise InvalidArgument("signal and idler grids must share their spacing")
    n1, n2 = w1.size, w2.size
    mids = 0.5 * (w1[0] + w2[0]) + 0.5 * d1 * np.arange(n1 + n2 - 1)
    for w, label in ((mids, "pump"), (w1, "signal"), (w2, "idler")):
        _check_domain(w, label)

    rows, cols = np.indices((n1, n2))
    fields = (_bloch_fields(spec, mids, "left"), _bloch_fields(spec, w1, "left"),
              _bloch_fields(spec, w2, "right"))
    return _bloch_overlap(spec, fields, (rows + cols, rows, cols))


def two_photon_state_bw(spec: GratingSpec, params: NonlinearParams,
                        pulse: PumpPulse, signal_window: CollectionWindow,
                        idler_window: CollectionWindow,
                        signal_grid: FrequencyGrid | None = None,
                        idler_grid: FrequencyGrid | None = None,
                        n_points: int = 201) -> TwoPhotonState:
    """First-order two-photon state of the corrugated waveguide.

    The pair amplitude concentrates on the stripe w1 + w2 = 2*w0; the windows
    must straddle that stripe or no pairs are collected. The pump convolution
    is evaluated in the long-pulse limit: both pump photons sit at the
    energy-conserving midpoint of (w1, w2), and the squared-envelope spectrum
    G carries the detuning dependence.
    """
    if signal_grid is None:
        signal_grid = signal_window.grid(n_points)
    if idler_grid is None:
        idler_grid = idler_window.grid(n_points)
    _require_window_grid(signal_grid, signal_window, "signal")
    _require_window_grid(idler_grid, idler_window, "idler")

    w0 = pulse.center_omega
    stripe_miss = abs(2.0 * w0 - signal_window.center_omega - idler_window.center_omega)
    if stripe_miss > (signal_window.width + idler_window.width) / 2.0:
        raise InvalidArgument(
            "collection windows do not intersect the energy-conservation stripe")
    for win in (signal_window, idler_window):
        if abs(win.center_omega - w0) < (win.width / 2.0 + pulse.spectral_width):
            raise InvalidArgument("collection window overlaps the pump line")
    if pulse.spectral_width > signal_window.width:
        warnings.warn("pump bandwidth exceeds the collection bandwidth; the "
                      "long-pulse limit is not reached", stacklevel=2)

    w1 = signal_grid.points
    w2 = idler_grid.points
    if params.gamma == 0.0:
        return _assemble_state(np.zeros((w1.size, w2.size), dtype=complex),
                               signal_grid, idler_grid)
    j_table = _bw_overlap_table(spec, w1, w2)
    g = pulse.envelope_squared_spectrum(w1[:, None] + w2[None, :] - 2.0 * w0)
    phi = math.sqrt(2.0 * math.pi) * params.gamma * HBAR * w0 * g * j_table
    return _assemble_state(phi, signal_grid, idler_grid)


def _lorentzian(delta, gamma_fwhm):
    """Resonant field response (gamma/2) / (gamma/2 - i*delta), unity on
    resonance with intensity FWHM gamma_fwhm."""
    return (gamma_fwhm / 2.0) / (gamma_fwhm / 2.0 - 1j * np.asarray(delta))


def _pump_pair_spectrum(pulse: PumpPulse, w_p0: float, g_p: float):
    """Intracavity pump-pair spectrum H(s) = (1/2pi) int a(w) a(s - w) dw with
    a = alpha * L_p, as the discrete autoconvolution of a on a uniform pump
    grid of 8001 points spanning +-20 widths. Returns the sum grid
    s_k = 2 p_lo + k dw (k = 0 ... 16000) and H on it."""
    width = max(pulse.spectral_width, g_p)
    p_lo = min(pulse.center_omega, w_p0) - 20.0 * width
    p_hi = max(pulse.center_omega, w_p0) + 20.0 * width
    pump_grid = FrequencyGrid(points=np.linspace(p_lo, p_hi, 8001),
                              spacing=(p_hi - p_lo) / 8000)
    a = (pump_spectral_amplitude(pulse, pump_grid)
         * _lorentzian(pump_grid.points - w_p0, g_p))
    h = np.convolve(a, a) * pump_grid.spacing / (2.0 * math.pi)
    return 2.0 * p_lo + pump_grid.spacing * np.arange(h.size), h


def two_photon_state_ring(ring: RingSpec, params: NonlinearParams,
                          pulse: PumpPulse,
                          signal_grid: FrequencyGrid | None = None,
                          idler_grid: FrequencyGrid | None = None,
                          n_points: int = 201,
                          span_linewidths: float = 6.0) -> TwoPhotonState:
    """First-order two-photon state of the side-coupled microring.

    Each resonance contributes a Lorentzian field response; the pump pair
    amplitude is the spectral autoconvolution of the enhanced intracavity
    pump. At critical coupling the peak intensity enhancement equals twice
    the dwelling time over the round-trip time, which is how the quality
    factor and the ring size enter the absolute rate.
    """
    w_s0 = ring.resonance_omega("signal")
    w_i0 = ring.resonance_omega("idler")
    w_p0 = ring.resonance_omega("pump")
    g_s = ring.linewidth("signal")
    g_i = ring.linewidth("idler")
    g_p = ring.linewidth("pump")

    mismatch = abs(2.0 * w_p0 - w_s0 - w_i0)
    if mismatch > 10.0 * g_p:
        warnings.warn("resonance triplet violates energy conservation by more "
                      f"than 10 linewidths ({mismatch / g_p:.1f})", stacklevel=2)

    if signal_grid is None:
        signal_grid = grid_around_omega(w_s0, 2.0 * span_linewidths * g_s, n_points)
    if idler_grid is None:
        idler_grid = grid_around_omega(w_i0, 2.0 * span_linewidths * g_i, n_points)
    w1 = signal_grid.points
    w2 = idler_grid.points
    if params.gamma == 0.0:
        return _assemble_state(np.zeros((w1.size, w2.size), dtype=complex),
                               signal_grid, idler_grid)

    sums, h_table = _pump_pair_spectrum(pulse, w_p0, g_p)
    s_grid = w1[:, None] + w2[None, :]
    h = (np.interp(s_grid, sums, h_table.real, left=0.0, right=0.0)
         + 1j * np.interp(s_grid, sums, h_table.imag, left=0.0, right=0.0))

    enhancement = 2.0 * ring.dwelling_time("pump") / ring.round_trip_time
    phi = (math.sqrt(2.0 * math.pi) * params.gamma * HBAR * pulse.center_omega
           * ring.circumference * enhancement ** 2 * h
           * np.conj(_lorentzian(w1 - w_s0, g_s))[:, None]
           * np.conj(_lorentzian(w2 - w_i0, g_i))[None, :])
    return _assemble_state(phi, signal_grid, idler_grid)


# --------------------------------------------------------------------------
# Schmidt decomposition and JSD shape metrics


@dataclass(frozen=True)
class SchmidtReport:
    """Schmidt spectrum of a two-photon state.

    amplitude_based is False when only the density was available: the
    decomposition of sqrt(JSD) ignores phase and its purity is only an
    upper-bound surrogate for the true value.
    """

    schmidt_coefficients: np.ndarray   # descending, squares sum to 1
    purity: float
    schmidt_number: float
    amplitude_based: bool

    def __post_init__(self):
        lam = np.asarray(self.schmidt_coefficients, dtype=float)
        lam.flags.writeable = False
        object.__setattr__(self, "schmidt_coefficients", lam)
        if np.any(np.diff(lam) > 0):
            raise InvalidArgument("schmidt coefficients must be descending")
        if abs(float(np.sum(lam ** 2)) - 1.0) > 1e-6:
            raise InvalidArgument("squared schmidt coefficients must sum to 1")
        if not 0.0 < self.purity <= 1.0 + 1e-12:
            raise InvalidArgument("purity must lie in (0, 1]")


def schmidt_analysis(state: TwoPhotonState) -> SchmidtReport:
    """Singular-value decomposition of the discretized pair amplitude.

    On a uniform grid the quadrature weights are a constant factor and drop
    out of the normalized spectrum.
    """
    if state.is_zero:
        raise InvalidArgument("cannot decompose an all-zero state")
    if state.amplitude is not None:
        matrix = state.amplitude
        amplitude_based = True
    else:
        matrix = np.sqrt(state.jsd)
        amplitude_based = False
    sv = np.linalg.svd(matrix, compute_uv=False)
    norm = float(np.sum(sv ** 2))
    if norm == 0.0:
        raise InvalidArgument("cannot decompose an all-zero state")
    lam = sv / math.sqrt(norm)
    purity = float(np.sum(lam ** 4))
    return SchmidtReport(
        schmidt_coefficients=lam,
        purity=purity,
        schmidt_number=1.0 / purity,
        amplitude_based=amplitude_based,
    )


def _profile_fwhm(centers: np.ndarray, profile: np.ndarray) -> float:
    """Full width at half maximum with linear interpolation at the crossings;
    clamped to the profile support when a flank never falls below half."""
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


def ridge_width_ratio(state: TwoPhotonState, n_bins: int | None = None) -> float:
    """FWHM across the anti-diagonal ridge divided by FWHM along it.

    The density is resampled onto rotated coordinates u = (d1 + d2)/sqrt(2)
    (across the stripe of constant w1 + w2) and v = (d1 - d2)/sqrt(2), with
    d the detuning from each grid center. Values well below 1 indicate
    spectrally anti-correlated pairs.
    """
    if state.is_zero:
        raise InvalidArgument("ridge width undefined for an all-zero state")
    w1 = state.signal_grid.points
    w2 = state.idler_grid.points
    if n_bins is None:
        n_bins = w1.size
    d1 = w1 - 0.5 * (w1[0] + w1[-1])
    d2 = w2 - 0.5 * (w2[0] + w2[-1])
    u = (d1[:, None] + d2[None, :]) / math.sqrt(2.0)
    v = (d1[:, None] - d2[None, :]) / math.sqrt(2.0)
    weights = state.jsd.ravel()
    widths = []
    for coord in (u, v):
        hist, edges = np.histogram(coord.ravel(), bins=n_bins, weights=weights)
        centers = 0.5 * (edges[:-1] + edges[1:])
        widths.append(_profile_fwhm(centers, hist))
    return widths[0] / widths[1]


def principal_axis_ratio(state: TwoPhotonState) -> float:
    """Ratio (>= 1) of the standard deviations along the principal axes of
    the joint spectral density."""
    if state.is_zero:
        raise InvalidArgument("axis ratio undefined for an all-zero state")
    p = state.jsd / np.sum(state.jsd)
    w1 = state.signal_grid.points
    w2 = state.idler_grid.points
    g1 = w1[:, None] * np.ones_like(w2)[None, :]
    g2 = np.ones_like(w1)[:, None] * w2[None, :]
    m1 = float(np.sum(p * g1))
    m2 = float(np.sum(p * g2))
    c11 = float(np.sum(p * (g1 - m1) ** 2))
    c22 = float(np.sum(p * (g2 - m2) ** 2))
    c12 = float(np.sum(p * (g1 - m1) * (g2 - m2)))
    ev = np.linalg.eigvalsh(np.array([[c11, c12], [c12, c22]]))
    if ev[0] <= 0:
        raise InvalidArgument("degenerate joint spectral density")
    return math.sqrt(ev[1] / ev[0])


# --------------------------------------------------------------------------
# index-contrast sweep


@dataclass(frozen=True)
class ContrastReport:
    """Pair rate against index contrast at fixed designed rejection."""

    sweep: SweepResult
    slope: float | None           # d log(rate) / d log(delta_n); None if 1 point
    target_rejection_db: float


def contrast_sweep(base_spec: GratingSpec, target_rejection_db: float,
                   contrasts, params: NonlinearParams, pulse: PumpPulse,
                   signal_window: CollectionWindow) -> ContrastReport:
    """Pair generation rate vs index contrast at constant designed rejection.

    For each contrast the period count is recomputed from the design rule, the
    pump sits at that structure's own stopband center, and the rate follows
    the long-pulse identity rate = bandwidth * (gamma P0 |J|)^2 with P0 the
    pulse peak power.
    """
    contrasts = np.atleast_1d(np.asarray(contrasts, dtype=float))
    if contrasts.ndim != 1 or contrasts.size < 1:
        raise InvalidArgument("contrasts must be a nonempty 1-D array")
    if np.any(contrasts < 5e-4) or np.any(contrasts > 1e-2):
        raise InvalidArgument("contrasts must lie within [5e-4, 1e-2]")
    order = np.argsort(contrasts)
    contrasts = contrasts[order]

    w_s = signal_window.center_omega
    rates = np.empty(contrasts.size)
    periods = np.empty(contrasts.size)
    for i, dn in enumerate(contrasts):
        n = design_periods(target_rejection_db, base_spec.n_lo, dn)
        spec = replace(base_spec, delta_n=float(dn), n_periods=n)
        w_p = 2.0 * math.pi * C0 / spec.bragg_wavelength
        w_i = 2.0 * w_p - w_s
        j = overlap_elements(spec, [w_p], [w_s], [w_i])[0]
        rates[i] = signal_window.width * (params.gamma * pulse.peak_power * abs(j)) ** 2
        periods[i] = n
    if np.any(rates == 0.0):
        raise InvalidArgument("pair rate is zero (zero gamma or pump peak power); "
                              "the contrast law is undefined")

    slope = None
    if contrasts.size >= 2:
        slope = float(np.polyfit(np.log(contrasts), np.log(rates), 1)[0])
    sweep = SweepResult(
        x_name="delta_n",
        x=contrasts,
        columns={"n_periods": periods, "pair_rate_per_s": rates},
    )
    return ContrastReport(sweep=sweep, slope=slope,
                          target_rejection_db=target_rejection_db)

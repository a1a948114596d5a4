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
from dataclasses import InitVar, dataclass, field, replace
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .constants import HBAR
from .model import (
    CollectionWindow,
    FrequencyGrid,
    GratingSpec,
    InvalidArgument,
    NonlinearParams,
    PumpPulse,
    RingSpec,
    SweepResult,
    _level_crossings,
    grid_around_omega,
    omega_from_wavelength,
    pump_spectral_amplitude,
)
from .fwm import StimulatedResult, overlap_elements, overlap_table
from .transfer import design_periods

__all__ = [
    "SpontRate",
    "TwoPhotonState",
    "SchmidtReport",
    "ContrastReport",
    "spont_from_stim",
    "two_photon_state_bw",
    "two_photon_state_ring",
    "schmidt_analysis",
    "designed_pair_rate",
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
    rate_per_mw2: float          # normalized by squared internal pump power
    rate_per_mw2_external: float | None

    def __post_init__(self):
        if not 0 <= self.rate < math.inf:
            raise InvalidArgument("rate must be finite and >= 0")


def spont_from_stim(stim: StimulatedResult, signal_power: float,
                    window: CollectionWindow) -> SpontRate:
    """Spontaneous power in the window from the stimulated conversion ratio:
    P_spont = hbar omega_i * bandwidth * (P_stim / P_signal)."""
    if not 0 < signal_power < math.inf:
        raise InvalidArgument("signal power must be finite and > 0")
    ratio = stim.idler_power / signal_power
    spont_power = HBAR * stim.omega_i * window.width * ratio
    rate = window.width * ratio
    # no stimulated idler (gamma or pump power 0): no pairs per mW^2 either
    scale = rate / stim.idler_rate if stim.idler_rate > 0 else 0.0
    per_mw2_ext = None
    if stim.rate_per_mw2_external is not None:
        per_mw2_ext = stim.rate_per_mw2_external * scale
    return SpontRate(
        rate=rate,
        bandwidth=window.width,
        spont_power=spont_power,
        rate_per_mw2=stim.rate_per_mw2 * scale,
        rate_per_mw2_external=per_mw2_ext,
    )


# --------------------------------------------------------------------------
# two-photon states


@dataclass(frozen=True)
class TwoPhotonState:
    """Discretized first-order two-photon state on a signal x idler grid.

    amplitude holds the unnormalized complex samples of phi, which the
    Schmidt decomposition reads with their phase; beta_sq and the joint
    spectral density jsd (normalized to 1 over the grids) are derived from
    it. An all-zero amplitude (no nonlinearity) gives is_zero, beta_sq = 0
    and an all-zero jsd. `source` names the state in the error raised past
    the first-order limit.

    Unlike the types of model, the state takes over a complex amplitude
    array that it is handed: it makes that array read-only in place rather
    than copy it, since a copy of the n^2 samples would add to the peak
    memory of a run. A write through that array's base still reaches the
    state, so a caller hands over an array it no longer writes to.
    """

    amplitude: np.ndarray
    signal_grid: FrequencyGrid
    idler_grid: FrequencyGrid
    source: InitVar[str] = "two-photon"
    beta_sq: float = field(init=False)
    jsd: np.ndarray = field(init=False)
    is_zero: bool = field(init=False)

    def __post_init__(self, source):
        amp = np.asarray(self.amplitude, dtype=complex)
        amp.flags.writeable = False
        object.__setattr__(self, "amplitude", amp)
        if amp.shape != (self.signal_grid.n_points, self.idler_grid.n_points):
            raise InvalidArgument("amplitude shape does not match the grids")
        d1, d2 = self.signal_grid.spacing, self.idler_grid.spacing
        power = np.abs(amp) ** 2
        total = float(np.sum(power))
        beta_sq = total * d1 * d2 / (2.0 * math.pi) ** 2
        if not beta_sq < _BETA_SQ_LIMIT:     # NaN and inf fail it too
            raise InvalidArgument(
                f"{source} state: pair probability per pulse too large for first-order theory "
                f"({beta_sq:.3g}, not below {_BETA_SQ_LIMIT:g})")
        is_zero = total == 0.0
        jsd = np.zeros_like(power) if is_zero else power / (total * d1 * d2)
        jsd.flags.writeable = False
        object.__setattr__(self, "beta_sq", beta_sq)
        object.__setattr__(self, "jsd", jsd)
        object.__setattr__(self, "is_zero", is_zero)


def two_photon_state_bw(spec: GratingSpec, params: NonlinearParams,
                        pulse: PumpPulse, signal_window: CollectionWindow,
                        idler_window: CollectionWindow,
                        n_points: int = 201) -> TwoPhotonState:
    """First-order two-photon state of the corrugated waveguide.

    The pair amplitude concentrates on the stripe w1 + w2 = 2*w0; the windows
    must straddle that stripe or no pairs are collected. The pump convolution
    is evaluated in the long-pulse limit: both pump photons sit at the
    energy-conserving midpoint of (w1, w2), and the squared-envelope spectrum
    G carries the detuning dependence. The two windows must be equally wide,
    so that their grids share one spacing (see overlap_table).
    """
    if abs(signal_window.width - idler_window.width) > 1e-9 * signal_window.width:
        ghz = 2.0 * math.pi * 1e9
        raise InvalidArgument(
            f"signal and idler windows must be equally wide: signal "
            f"{signal_window.width / ghz:g} GHz, idler {idler_window.width / ghz:g} GHz")
    signal_grid = signal_window.grid(n_points)
    idler_grid = idler_window.grid(n_points)

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
    j_table = overlap_table(spec, w1, w2)
    g = pulse.envelope_squared_spectrum(w1[:, None] + w2[None, :] - 2.0 * w0)
    phi = math.sqrt(2.0 * math.pi) * params.gamma * HBAR * w0 * g * j_table
    return TwoPhotonState(phi, signal_grid, idler_grid, "waveguide")


def _lorentzian(delta, gamma_fwhm):
    """Resonant field response (gamma/2) / (gamma/2 - i*delta), unity on
    resonance with intensity FWHM gamma_fwhm."""
    return (gamma_fwhm / 2.0) / (gamma_fwhm / 2.0 - 1j * np.asarray(delta))


def _pump_pair_spectrum(pulse: PumpPulse, w_p0: float, g_p: float):
    """Intracavity pump-pair spectrum H(s) = (1/2pi) int a(w) a(s - w) dw with
    a = alpha * L_p, as the discrete autoconvolution of a on a uniform pump
    grid of 8001 points spanning +-20 widths, taken by a zero-padded FFT
    (np.fft is loaded here, so commands without a ring state never load it).
    Returns the sum grid s_k = 2 p_lo + k dw (k = 0 ... 16000) and H on it."""
    width = max(pulse.spectral_width, g_p)
    p_lo = min(pulse.center_omega, w_p0) - 20.0 * width
    p_hi = max(pulse.center_omega, w_p0) + 20.0 * width
    pump_grid = FrequencyGrid(points=np.linspace(p_lo, p_hi, 8001),
                              spacing=(p_hi - p_lo) / 8000)
    a = (pump_spectral_amplitude(pulse, pump_grid)
         * _lorentzian(pump_grid.points - w_p0, g_p))
    n_sums = 2 * a.size - 1
    spectrum = np.fft.fft(a, 1 << (n_sums - 1).bit_length())
    h = np.fft.ifft(spectrum * spectrum)[:n_sums] * pump_grid.spacing / (2.0 * math.pi)
    return 2.0 * p_lo + pump_grid.spacing * np.arange(n_sums), h


def two_photon_state_ring(ring: RingSpec, params: NonlinearParams,
                          pulse: PumpPulse,
                          n_points: int = 201,
                          span_linewidths: float = 6.0) -> TwoPhotonState:
    """First-order two-photon state of the side-coupled microring.

    Each resonance contributes a Lorentzian field response; the pump pair
    amplitude is the spectral autoconvolution of the enhanced intracavity
    pump. At critical coupling the peak intensity enhancement equals twice
    the dwelling time over the round-trip time, which is how the quality
    factor and the ring size enter the absolute rate. Both grids span
    +-span_linewidths of the broader signal or idler linewidth, so they share
    one spacing: H is read once on the 2n-1 lattice of sums (see overlap_table).
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

    width = 2.0 * span_linewidths * max(g_s, g_i)
    signal_grid = grid_around_omega(w_s0, width, n_points)
    idler_grid = grid_around_omega(w_i0, width, n_points)
    w1, w2 = signal_grid.points, idler_grid.points
    sums, h_table = _pump_pair_spectrum(pulse, w_p0, g_p)
    lattice = w1[0] + w2[0] + signal_grid.spacing * np.arange(2 * n_points - 1)
    h = sliding_window_view(np.interp(lattice, sums, h_table, left=0.0, right=0.0), n_points)

    enhancement = 2.0 * ring.dwelling_time("pump") / ring.round_trip_time
    phi = (math.sqrt(2.0 * math.pi) * params.gamma * HBAR * pulse.center_omega
           * ring.circumference * enhancement ** 2 * h
           * np.conj(_lorentzian(w1 - w_s0, g_s))[:, None]
           * np.conj(_lorentzian(w2 - w_i0, g_i))[None, :])
    return TwoPhotonState(phi, signal_grid, idler_grid, "ring")


# --------------------------------------------------------------------------
# Schmidt decomposition and JSD shape metrics


@dataclass(frozen=True)
class SchmidtReport:
    """Schmidt spectrum of a two-photon state with amplitude samples A:
    purity = tr rho^2 of the signal's reduced density matrix
    rho = A A^H / tr(A A^H), and Schmidt number = 1 / purity. The Schmidt
    coefficients, the square roots of rho's eigenvalues (the singular values
    of A over their root-sum-square), are computed when first read."""

    amplitude: np.ndarray
    purity: float
    schmidt_number: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.purity <= 1.0 + 1e-12:
            raise InvalidArgument("purity must lie in (0, 1]")
        object.__setattr__(self, "schmidt_number", 1.0 / self.purity)

    @cached_property
    def schmidt_coefficients(self) -> np.ndarray:
        """Descending, with squares summing to 1."""
        sv = np.linalg.svd(self.amplitude, compute_uv=False)
        lam = sv / math.sqrt(float(np.sum(sv ** 2)))
        lam.flags.writeable = False
        return lam


_GRAM_ROWS = 32   # rows of A A^H per block of the purity sum; bounds its temporaries


def schmidt_analysis(state: TwoPhotonState) -> SchmidtReport:
    """Schmidt purity and number of the discretized pair amplitude A, with no
    decomposition: tr rho^2 = ||A A^H||_F^2 / tr(A A^H)^2, summed over blocks
    of rows of conj(A A^H), so no n x n array is formed.

    On a uniform grid the quadrature weights are a constant factor and drop
    out of rho.
    """
    if state.is_zero:
        raise InvalidArgument("cannot decompose an all-zero state")
    a = state.amplitude
    gram_sq = 0.0
    for lo in range(0, a.shape[0], _GRAM_ROWS):
        rows = a[lo:lo + _GRAM_ROWS].conj() @ a.T
        gram_sq += float(np.vdot(rows, rows).real)
    return SchmidtReport(amplitude=a, purity=gram_sq / float(np.vdot(a, a).real) ** 2)


def _profile_fwhm(centers: np.ndarray, profile: np.ndarray) -> float:
    """Full width at half maximum with linear interpolation at the crossings;
    clamped to the profile support when a flank never falls below half."""
    peak = int(np.argmax(profile))
    left, right = _level_crossings(centers, -profile, peak, -profile[peak] / 2.0)
    return float((centers[-1] if right is None else right)
                 - (centers[0] if left is None else left))


def ridge_width_ratio(state: TwoPhotonState) -> float:
    """FWHM across the anti-diagonal ridge divided by FWHM along it.

    The widths are those of the marginals of the density along the rotated
    coordinates u = (d1 + d2)/sqrt(2) (across the stripe of constant
    w1 + w2) and v = (d1 - d2)/sqrt(2), with d the detuning. Both grids must
    share one spacing h: the grid points then lie on lines of constant i + j
    (constant u) and of constant i - j (constant v), h/sqrt(2) apart in
    both, so each marginal is the density summed along its lines and both
    widths are counted in lines. Values well below 1 indicate spectrally
    anti-correlated pairs.
    """
    if state.is_zero:
        raise InvalidArgument("ridge width undefined for an all-zero state")
    h = state.signal_grid.spacing
    if abs(h - state.idler_grid.spacing) > 1e-9 * h:
        raise InvalidArgument("signal and idler grids must share their spacing")
    n1, n2 = state.jsd.shape
    i, j = np.indices((n1, n2))
    lines = np.arange(n1 + n2 - 1.0)
    weights = state.jsd.ravel()
    across = _profile_fwhm(lines, np.bincount((i + j).ravel(), weights=weights))
    along = _profile_fwhm(lines, np.bincount((i - j + n2 - 1).ravel(), weights=weights))
    return across / along


def principal_axis_ratio(state: TwoPhotonState) -> float:
    """Ratio (>= 1) of the standard deviations along the principal axes of
    the joint spectral density."""
    if state.is_zero:
        raise InvalidArgument("axis ratio undefined for an all-zero state")
    g1, g2 = np.meshgrid(state.signal_grid.points, state.idler_grid.points,
                         indexing="ij")
    cov = np.cov(g1.ravel(), g2.ravel(), aweights=state.jsd.ravel(), bias=True)
    ev = np.linalg.eigvalsh(cov)
    if ev[0] <= 0:
        raise InvalidArgument("degenerate joint spectral density")
    return math.sqrt(ev[1] / ev[0])


# --------------------------------------------------------------------------
# index-contrast sweep


@dataclass(frozen=True)
class ContrastReport:
    """Pair rate against index contrast at fixed designed rejection. `slope` is
    the ordinary-least-squares slope of log rate on log delta_n, computed in
    closed form; None for fewer than two distinct contrasts."""

    sweep: SweepResult
    slope: float | None


def designed_pair_rate(base_spec: GratingSpec, target_rejection_db: float,
                       delta_n: float, params: NonlinearParams, pulse: PumpPulse,
                       signal_window: CollectionWindow) -> tuple[int, float]:
    """(n_periods, pair rate) of base_spec redesigned to contrast delta_n: the
    design rule sets the period count for the target rejection, the pump sits
    at that structure's own stopband center, and the rate is the long-pulse
    identity rate = bandwidth * (gamma P0 |J|)^2 with P0 the pulse peak power."""
    if not 5e-4 <= delta_n <= 1e-2:
        raise InvalidArgument(
            f"delta_n {delta_n:g} lies outside the contrast law's range [5e-4, 1e-2]")
    n = design_periods(target_rejection_db, base_spec.n_lo, delta_n)
    spec = replace(base_spec, delta_n=float(delta_n), n_periods=n)
    w_p = omega_from_wavelength(spec.bragg_wavelength)
    w_s = signal_window.center_omega
    j = overlap_elements(spec, [w_p], [w_s], [2.0 * w_p - w_s])[0]
    rate = float(signal_window.width * (params.gamma * pulse.peak_power * abs(j)) ** 2)
    if rate == 0.0:
        raise InvalidArgument("pair rate is zero (zero gamma or pump peak power); "
                              "the contrast law is undefined")
    return n, rate


def contrast_sweep(base_spec: GratingSpec, target_rejection_db: float,
                   contrasts, params: NonlinearParams, pulse: PumpPulse,
                   signal_window: CollectionWindow) -> ContrastReport:
    """Pair generation rate vs index contrast at constant designed rejection:
    designed_pair_rate at each contrast, in ascending order."""
    contrasts = np.atleast_1d(np.asarray(contrasts, dtype=float))
    if contrasts.ndim != 1 or contrasts.size < 1:
        raise InvalidArgument("contrasts must be a nonempty 1-D array")
    contrasts = np.sort(contrasts)
    periods, rates = np.array([
        designed_pair_rate(base_spec, target_rejection_db, dn, params, pulse, signal_window)
        for dn in contrasts]).T

    slope = None
    if contrasts[-1] > contrasts[0]:    # at least two distinct contrasts
        # least-squares slope in closed form: a LAPACK fit (polyfit) of a line
        # through a few points costs a fresh process about 1 MB of RSS
        x = np.log(contrasts)
        y = np.log(rates)
        x -= x.mean()
        slope = float(np.sum(x * (y - y.mean())) / np.sum(x * x))
    sweep = SweepResult(x_name="delta_n", x=contrasts,
                        columns={"n_periods": periods, "pair_rate_per_s": rates})
    return ContrastReport(sweep=sweep, slope=slope)

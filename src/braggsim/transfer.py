"""Transfer-matrix model of layered effective-index structures.

Conventions
-----------
State vectors hold (forward, backward) amplitudes and matrices map the state
on the RIGHT of a section to the state on its LEFT: v_left = M @ v_right.
The ambient medium on both sides of a structure is the unperturbed waveguide
(index n_hi), so a grating with zero-length leads reduces exactly to the
N-th power of its unit-cell matrix. z = 0 sits at the left facet.

For lossless index steps the scattering amplitudes follow from the matrix
entries as t = 1/m00 and r = m10/m00, with |t|^2 + |r|^2 = 1 and det M = 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT as C0
from .model import (
    FrequencyGrid,
    GratingSpec,
    InvalidArgument,
    OutOfDomain,
    SweepResult,
)

__all__ = [
    "StopbandReport",
    "unit_cell_matrix",
    "structure_matrix",
    "transmission_spectrum",
    "stopband_report",
    "spectrum_stopband",
    "rejection_estimate_db",
    "design_periods",
]


def wavenumber(n_eff: float, omega) -> np.ndarray:
    """Propagation constant n_eff * omega / c."""
    return n_eff * np.asarray(omega) / C0


# --------------------------------------------------------------------------
# stacked 2x2 primitives (leading axes broadcast over frequency)


def _prop_stack(k, length: float) -> np.ndarray:
    """Uniform section of propagation constant k and the given length."""
    k = np.asarray(k, dtype=complex)
    out = np.zeros(k.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = np.exp(-1j * k * length)
    out[..., 1, 1] = np.exp(1j * k * length)
    return out


def _iface_stack(k1, k2) -> np.ndarray:
    """Step from a medium with k1 (left) to one with k2 (right)."""
    k1 = np.asarray(k1, dtype=complex)
    k2 = np.asarray(k2, dtype=complex)
    out = np.empty(np.broadcast(k1, k2).shape + (2, 2), dtype=complex)
    s = (k1 + k2) / (2.0 * k1)
    d = (k1 - k2) / (2.0 * k1)
    out[..., 0, 0] = s
    out[..., 0, 1] = d
    out[..., 1, 0] = d
    out[..., 1, 1] = s
    return out


def _matmul_power(m: np.ndarray, count: int) -> np.ndarray:
    """m^count by binary exponentiation on stacked 2x2 arrays."""
    result = np.zeros_like(m)
    result[..., 0, 0] = 1.0
    result[..., 1, 1] = 1.0
    base = m
    n = count
    while n:
        if n & 1:
            result = result @ base
        n >>= 1
        if n:
            base = base @ base
    return result


# --------------------------------------------------------------------------
# structures


def unit_cell_matrix(spec: GratingSpec, omega) -> np.ndarray:
    """One period as entered from the unperturbed medium, shape omega.shape + (2, 2)."""
    omega = np.asarray(omega, dtype=float)
    k_lo = wavenumber(spec.n_lo, omega)
    k_hi = wavenumber(spec.n_hi, omega)
    d_lo = spec.duty_cycle * spec.period
    d_hi = spec.period - d_lo
    m = _iface_stack(k_hi, k_lo) @ _prop_stack(k_lo, d_lo)
    m = m @ _iface_stack(k_lo, k_hi) @ _prop_stack(k_hi, d_hi)
    return m


def structure_matrix(spec: GratingSpec, omega) -> np.ndarray:
    """Full structure (leads + grating) between unperturbed ambient media,
    shape omega.shape + (2, 2)."""
    omega = np.asarray(omega, dtype=float)
    k_hi = wavenumber(spec.n_hi, omega)
    m = _matmul_power(unit_cell_matrix(spec, omega), spec.n_periods)
    if spec.lead_in_length > 0:
        m = _prop_stack(k_hi, spec.lead_in_length) @ m
    if spec.lead_out_length > 0:
        m = m @ _prop_stack(k_hi, spec.lead_out_length)
    return m


def transmission_spectrum(spec: GratingSpec, grid: FrequencyGrid) -> SweepResult:
    """Power transmission over the grid, tabulated by ascending wavelength."""
    m = structure_matrix(spec, grid.points)
    trans = 1.0 / np.abs(m[..., 0, 0]) ** 2
    lam_nm = grid.wavelengths * 1e9
    order = np.argsort(lam_nm)
    trans = trans[order]
    return SweepResult(
        x_name="wavelength_nm",
        x=lam_nm[order],
        columns={
            "transmission": trans,
            "transmission_db": 10.0 * np.log10(trans),
        },
    )


# --------------------------------------------------------------------------
# stopband characterization


@dataclass(frozen=True)
class StopbandReport:
    """Location and depth of the transmission minimum, plus the band over
    which transmission stays below the threshold (None when the band is not
    bracketed inside the grid)."""

    center_wavelength: float
    min_transmission: float
    rejection_db: float
    threshold_db: float
    band_start: float | None
    band_stop: float | None

    @property
    def band_width(self) -> float | None:
        if self.band_start is None or self.band_stop is None:
            return None
        return self.band_stop - self.band_start


def _crossing(lam: np.ndarray, db: np.ndarray, i0: int, i1: int, level: float) -> float:
    """Linear interpolation of the wavelength where db crosses level."""
    f = (level - db[i0]) / (db[i1] - db[i0])
    return lam[i0] + f * (lam[i1] - lam[i0])


def stopband_report(spec: GratingSpec, grid: FrequencyGrid,
                    threshold_db: float = 10.0) -> StopbandReport:
    """Characterize the stopband on the given grid.

    The center is the sampled transmission minimum; the band edges are
    interpolated crossings of -threshold_db on either side of it.
    """
    return spectrum_stopband(transmission_spectrum(spec, grid), threshold_db)


def spectrum_stopband(sweep: SweepResult, threshold_db: float = 10.0) -> StopbandReport:
    """stopband_report from a transmission_spectrum already computed."""
    if threshold_db <= 0:
        raise InvalidArgument("threshold_db must be > 0")
    lam = sweep.x * 1e-9
    trans = sweep.column("transmission")
    db = sweep.column("transmission_db")
    imin = int(np.argmin(trans))
    level = -threshold_db

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

    return StopbandReport(
        center_wavelength=float(lam[imin]),
        min_transmission=float(trans[imin]),
        rejection_db=float(-db[imin]),
        threshold_db=threshold_db,
        band_start=left,
        band_stop=right,
    )


# --------------------------------------------------------------------------
# period-count design rule


def rejection_estimate_db(n_periods: int, n_lo: float, delta_n: float) -> float:
    """Closed-form deep-grating rejection 10*log10(exp(2 N ln(1+dn/n)) / 4)."""
    if n_periods < 1:
        raise InvalidArgument("n_periods must be >= 1")
    if n_lo <= 0 or delta_n <= 0:
        raise InvalidArgument("n_lo and delta_n must be > 0")
    return 10.0 * (2.0 * n_periods * math.log1p(delta_n / n_lo) - math.log(4.0)) / math.log(10.0)


def design_periods(target_rejection_db: float, n_lo: float, delta_n: float) -> int:
    """Smallest period count whose estimated rejection meets the target.

    The estimate caps below 10*log10(4) dB as N -> 0, so targets at or below
    that floor are rejected as out of domain.
    """
    if n_lo <= 0 or delta_n <= 0:
        raise InvalidArgument("n_lo and delta_n must be > 0")
    if not math.isfinite(target_rejection_db):
        raise InvalidArgument("target rejection must be finite")
    floor_db = 10.0 * math.log10(4.0)
    if target_rejection_db <= floor_db:
        raise OutOfDomain(
            f"target rejection must exceed {floor_db:.2f} dB for this design rule")
    exact = (math.log(4.0) + target_rejection_db * math.log(10.0) / 10.0) / (
        2.0 * math.log1p(delta_n / n_lo))
    n = math.ceil(exact)
    # guard against ceil landing one high on exact integer solutions
    if n > 1 and rejection_estimate_db(n - 1, n_lo, delta_n) >= target_rejection_db:
        n -= 1
    return n


# --------------------------------------------------------------------------
# internal fields


def _period_maps(spec: GratingSpec, omegas: np.ndarray):
    """(k_lo, k_hi, into_lo, lo_to_hi, fwd): wavenumbers and forward maps of
    one period. From the state entering a period, into_lo enters its
    low-index segment, lo_to_hi crosses that segment and fwd the period."""
    k_lo = wavenumber(spec.n_lo, omegas)
    k_hi = wavenumber(spec.n_hi, omegas)
    d_lo = spec.duty_cycle * spec.period
    into_lo = _iface_stack(k_lo, k_hi)
    lo_to_hi = _iface_stack(k_hi, k_lo) @ _prop_stack(k_lo, -d_lo)
    fwd = _prop_stack(k_hi, -(spec.period - d_lo)) @ lo_to_hi @ into_lo
    return k_lo, k_hi, into_lo, lo_to_hi, fwd


def _facet_states(spec: GratingSpec, omegas: np.ndarray, side: str):
    """Exact states of the field launched from `side` (see
    _segment_amplitudes), from structure_matrix: (start, entry, exit_) at
    z = 0, entering the grating and at the grating's right end."""
    m = structure_matrix(spec, omegas)
    k_hi = wavenumber(spec.n_hi, omegas)
    one, zero = np.ones_like(k_hi), np.zeros_like(k_hi)
    if side == "left":
        start = np.stack([one, m[..., 1, 0] / m[..., 0, 0]], axis=-1)
        facet_r = np.stack([1.0 / m[..., 0, 0], zero], axis=-1)
    elif side == "right":
        start = np.stack([zero, 1.0 / m[..., 0, 0]], axis=-1)
        facet_r = np.stack([-m[..., 0, 1] / m[..., 0, 0], one], axis=-1)
    else:
        raise InvalidArgument("side must be 'left' or 'right'")
    entry = (_prop_stack(k_hi, -spec.lead_in_length) @ start[..., None])[..., 0]
    exit_ = (_prop_stack(k_hi, spec.lead_out_length) @ facet_r[..., None])[..., 0]
    return start, entry, exit_


def _segment_amplitudes(spec: GratingSpec, omegas: np.ndarray, side: str):
    """Per-segment (forward, backward) amplitudes at each segment's left edge
    of the field launched with unit amplitude from the `side` ('left' or
    'right') ambient.

    Returns (z_starts, lengths, n_effs, A, B) where A and B have shape
    (n_segments, n_frequencies); segments run from the lead-in (if any)
    through each period's low-index and unperturbed segments to the lead-out.

    The states entering periods [m, 2m) are fwd^m times those entering
    [0, m), from the exact entry state; the lead-out starts from the state
    after period N, not the exact exit state, so tests of it check the recursion.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    _, _, into_lo, lo_to_hi, fwd = _period_maps(spec, omegas)
    start, entry, _ = _facet_states(spec, omegas, side)
    n = spec.n_periods
    states, power = entry[None], fwd            # power = fwd^len(states)
    while len(states) <= n:
        states = np.concatenate([states, (power @ states[..., None])[..., 0]])
        power = power @ power
    into_segments = np.stack([into_lo, lo_to_hi @ into_lo])
    amps = (into_segments @ states[:n, None, ..., None])[..., 0]

    d_lo = spec.duty_cycle * spec.period
    parts = [(np.tile([spec.n_lo, spec.n_hi], n), np.tile([d_lo, spec.period - d_lo], n),
              amps.reshape((2 * n,) + entry.shape))]
    if spec.lead_in_length > 0:
        parts.insert(0, ([spec.n_hi], [spec.lead_in_length], start[None]))
    if spec.lead_out_length > 0:
        parts.append(([spec.n_hi], [spec.lead_out_length], states[n:n + 1]))
    n_effs, lengths, amps = (np.concatenate(p) for p in zip(*parts))
    z_starts = np.concatenate(([0.0], np.cumsum(lengths)[:-1]))
    return z_starts, lengths, n_effs, amps[..., 0], amps[..., 1]


# Below this q = 1 - |cos K Lambda| the two Bloch modes are too close to
# parallel (they coincide at the band edge) for the closed form: its error
# grows as ~1e-19 / |q|, so such frequencies are flagged for the segment sum.
BAND_EDGE_Q = 1e-9


@dataclass(frozen=True)
class BlochField:
    """Field launched from one side of a structure, per frequency, written
    through the two Bloch modes of the grating (Yariv & Yeh, ch. 6).

    In period m (0 <= m < N) the state entering the period is

        coef[0] * ratio[0]**(m - N) * e_0 + coef[1] * ratio[1]**m * e_1,

    with ratio = exp(log_ratio). Mode 0 is the one that grows forward inside
    a stopband, so it is referenced to the grating's right end and mode 1 to
    its left end: neither power ever exceeds 1 in modulus. Leading axes
    index frequency; trailing axes are, in order, the mode, the segment
    (low-index then unperturbed) and the (forward, backward) pair:

    - k:          (..., 2)        wavenumber in each segment
    - log_ratio:  (..., 2)        per-period log eigenvalue of each mode
    - coef:       (..., 2)
    - segments:   (..., 2, 2, 2)  each mode's amplitudes at the left edge of
                                  each segment of a period
    - lead_in:    (..., 2)        amplitudes at z = 0 (start of the lead-in)
    - lead_out:   (..., 2)        amplitudes at the grating's right end
    - band_edge:  (...)           |q| < BAND_EDGE_Q: the modes are unusable
    """

    omega: np.ndarray
    k: np.ndarray
    log_ratio: np.ndarray
    coef: np.ndarray
    segments: np.ndarray
    lead_in: np.ndarray
    lead_out: np.ndarray
    band_edge: np.ndarray


def _bloch_cosine(spec: GratingSpec, omegas: np.ndarray):
    """(sign of cos K Lambda, q = 1 - |cos K Lambda|) per frequency.

    Taken from the two-layer dispersion relation with 1 -+ cos formed
    without cancellation: the trace of the multiplied period matrix loses
    ~3 digits near the Bragg condition, where |cos K Lambda| -> 1.
    """
    k_lo = wavenumber(spec.n_lo, omegas)
    k_hi = wavenumber(spec.n_hi, omegas)
    d_lo = spec.duty_cycle * spec.period
    phi_lo, phi_hi = k_lo * d_lo, k_hi * (spec.period - d_lo)
    dk = wavenumber(spec.delta_n, omegas)
    mix = dk ** 2 / (2.0 * k_lo * k_hi) * np.sin(phi_lo) * np.sin(phi_hi)
    half = 0.5 * (phi_lo + phi_hi)
    one_plus = 2.0 * np.cos(half) ** 2 - mix
    one_minus = 2.0 * np.sin(half) ** 2 + mix
    return np.where(one_plus < one_minus, -1.0, 1.0), np.minimum(one_plus, one_minus)


def _bloch_fields(spec: GratingSpec, omegas, side: str) -> BlochField:
    """Bloch-mode form of the field launched from `side` ('left' or 'right',
    unit amplitude from that ambient; see _segment_amplitudes)."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    k_lo, k_hi, into_lo, lo_to_hi, fwd = _period_maps(spec, omegas)

    sign, q = _bloch_cosine(spec, omegas)
    root = np.sqrt(np.abs(q) / 2.0)
    # eigenvalues sign * exp(+-kappa); kappa >= 0 in a stopband, i*theta outside
    kappa = np.where(q < 0, 2.0 * np.arcsinh(root), 2j * np.arcsin(root))
    log_sign = np.where(sign < 0, 1j * math.pi, 0.0)
    log_ratio = np.stack([log_sign + kappa, log_sign - kappa], axis=-1)

    # eigenvectors (F01, lambda - F00) or (lambda - F11, F10), taking for
    # each mode the form whose free entry does not cancel
    sh = sign * np.sinh(kappa)
    delta = 0.5 * (fwd[..., 1, 1] - fwd[..., 0, 0])
    plus, minus = delta + sh, delta - sh
    first = np.abs(plus) >= np.abs(minus)
    f01, f10 = fwd[..., 0, 1], fwd[..., 1, 0]
    modes = np.empty(omegas.shape + (2, 2), dtype=complex)   # columns = modes
    modes[..., 0, 0] = np.where(first, f01, -minus)
    modes[..., 1, 0] = np.where(first, plus, f10)
    modes[..., 0, 1] = np.where(first, -plus, f01)
    modes[..., 1, 1] = np.where(first, f10, minus)
    lo = into_lo @ modes
    segments = np.stack([lo, lo_to_hi @ lo], axis=-1)     # (..., fwd/bwd, mode, seg)
    segments = np.moveaxis(segments, -3, -1)              # (..., mode, seg, fwd/bwd)

    start, entry, exit_ = _facet_states(spec, omegas, side)

    band_edge = np.abs(q) < BAND_EDGE_Q
    det = modes[..., 0, 0] * modes[..., 1, 1] - modes[..., 1, 0] * modes[..., 0, 1]
    det = np.where(band_edge, 1.0, det)
    coef = np.stack([
        (exit_[..., 0] * modes[..., 1, 1] - exit_[..., 1] * modes[..., 0, 1]) / det,
        (modes[..., 0, 0] * entry[..., 1] - modes[..., 1, 0] * entry[..., 0]) / det,
    ], axis=-1)
    return BlochField(omega=omegas, k=np.stack([k_lo, k_hi], axis=-1),
                      log_ratio=log_ratio, coef=coef, segments=segments,
                      lead_in=start, lead_out=exit_,
                      band_edge=band_edge)

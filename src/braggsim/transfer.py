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
    _level_crossings,
    wavelength_from_omega,
)

__all__ = [
    "WAVELENGTH_DOMAIN",
    "StopbandReport",
    "unit_cell_matrix",
    "structure_matrix",
    "transmission_spectrum",
    "stopband_report",
    "spectrum_stopband",
    "rejection_estimate_db",
    "design_periods",
]


# validity window of the constant-effective-index dispersion model
WAVELENGTH_DOMAIN = (1500e-9, 1600e-9)

# frequencies per task of the array kernels, so that their temporaries do
# not grow with the number of frequencies asked for: transmission_spectrum
# solves structure_matrix _CHUNK frequencies at a time. fwm's Bloch overlap
# runs its tasks in one loop that writes into one set of work arrays per call,
# about 1.8 KB per element of a task. A JSD table takes tasks of whole rows of
# at most _CHUNK elements (one row when a row is wider) that view factor
# tables solved once for the grid. A sweep takes tasks of _CHUNK // 4
# elements, since each also solves its own factor tables (about 1 KB per
# element, 2 KB while they are solved) and the heap keeps the high-water mark
# of a task's arrays.
_CHUNK = 1024


def _check_domain(omega, label: str) -> None:
    lam = wavelength_from_omega(np.asarray(omega, dtype=float))
    lo, hi = WAVELENGTH_DOMAIN
    if not np.all((lam >= lo * (1 - 1e-12)) & (lam <= hi * (1 + 1e-12))):   # NaN fails it
        raise OutOfDomain(
            f"{label} wavelength outside the {lo * 1e9:.0f}-{hi * 1e9:.0f} nm model domain")


def wavenumber(n_eff: float, omega) -> np.ndarray:
    """Propagation constant n_eff * omega / c."""
    return n_eff * np.asarray(omega) / C0


def _period_segments(spec: GratingSpec, omega):
    """((k_lo, k_hi), (d_lo, d_hi)): the wavenumbers and lengths of a period's
    low-index and unperturbed segments. The leads and the ambient share k_hi."""
    d_lo = spec.duty_cycle * spec.period
    return ((wavenumber(spec.n_lo, omega), wavenumber(spec.n_hi, omega)),
            (d_lo, spec.period - d_lo))


# --------------------------------------------------------------------------
# stacked 2x2 primitives (leading axes broadcast over frequency)


def _prop_stack(k, length: float) -> np.ndarray:
    """Uniform section of propagation constant k and the given length."""
    k = np.asarray(k, dtype=complex)
    out = np.zeros(k.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = np.exp(-1j * k * length)
    out[..., 1, 1] = np.exp(1j * k * length)
    return out


def _mul(a, b) -> np.ndarray:
    """Stacked matrix products a @ b as broadcast outer products summed in
    order: numpy's matmul makes one BLAS call per small matrix."""
    terms = [a[..., :, k:k + 1] * b[..., k:k + 1, :] for k in range(a.shape[-1])]
    return sum(terms[1:], terms[0])


def _mat_power(m, n: int, mul=_mul) -> np.ndarray:
    """m**n for n >= 1 by repeated squaring, multiplied by `mul` in the
    order of np.linalg.matrix_power."""
    result = None
    while True:
        n, bit = divmod(n, 2)
        if bit:
            result = m if result is None else mul(result, m)
        if not n:
            return result
        m = mul(m, m)


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


# --------------------------------------------------------------------------
# structures


def unit_cell_matrix(spec: GratingSpec, omega) -> np.ndarray:
    """One period as entered from the unperturbed medium, shape omega.shape + (2, 2)."""
    (k_lo, k_hi), (d_lo, d_hi) = _period_segments(spec, np.asarray(omega, dtype=float))
    m = _mul(_iface_stack(k_hi, k_lo), _prop_stack(k_lo, d_lo))
    return _mul(_mul(m, _iface_stack(k_lo, k_hi)), _prop_stack(k_hi, d_hi))


def structure_matrix(spec: GratingSpec, omega) -> np.ndarray:
    """Full structure (leads + grating) between unperturbed ambient media,
    shape omega.shape + (2, 2)."""
    omega = np.asarray(omega, dtype=float)
    (_, k_hi), _ = _period_segments(spec, omega)
    m = _mat_power(unit_cell_matrix(spec, omega), spec.n_periods)
    return _mul(_mul(_prop_stack(k_hi, spec.lead_in_length), m),
                _prop_stack(k_hi, spec.lead_out_length))


def transmission_spectrum(spec: GratingSpec, grid: FrequencyGrid) -> SweepResult:
    """Power transmission over the grid, inside the model domain, by ascending wavelength."""
    _check_domain(grid.points, "spectrum")
    trans = np.empty(grid.n_points)
    for lo in range(0, trans.size, _CHUNK):
        m = structure_matrix(spec, grid.points[lo:lo + _CHUNK])
        trans[lo:lo + _CHUNK] = 1.0 / np.abs(m[..., 0, 0]) ** 2
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


def stopband_report(spec: GratingSpec, grid: FrequencyGrid,
                    threshold_db: float = 10.0) -> StopbandReport:
    """Characterize the stopband on the given grid.

    The center is the sampled transmission minimum; the band edges are
    interpolated crossings of -threshold_db on either side of it.
    """
    return spectrum_stopband(transmission_spectrum(spec, grid), threshold_db)


def spectrum_stopband(sweep: SweepResult, threshold_db: float = 10.0) -> StopbandReport:
    """stopband_report from a transmission_spectrum already computed."""
    if not threshold_db > 0:
        raise InvalidArgument("threshold_db must be > 0")
    lam = sweep.x * 1e-9
    trans = sweep.column("transmission")
    db = sweep.column("transmission_db")
    imin = int(np.argmin(trans))
    left, right = _level_crossings(lam, db, imin, -threshold_db)
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
    if not n_periods >= 1:
        raise InvalidArgument("n_periods must be >= 1")
    if not (n_lo > 0 and delta_n > 0):
        raise InvalidArgument("n_lo and delta_n must be > 0")
    return 10.0 * (2.0 * n_periods * math.log1p(delta_n / n_lo) - math.log(4.0)) / math.log(10.0)


def design_periods(target_rejection_db: float, n_lo: float, delta_n: float) -> int:
    """Smallest period count whose estimated rejection meets the target.

    The estimate caps below 10*log10(4) dB as N -> 0, so targets at or below
    that floor are rejected as out of domain.
    """
    if not (n_lo > 0 and delta_n > 0):
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
    """(into_lo, lo_to_hi, fwd): forward maps of one period. From the state
    entering a period, into_lo enters its low-index segment, lo_to_hi
    crosses that segment and fwd the period."""
    (k_lo, k_hi), (d_lo, d_hi) = _period_segments(spec, omegas)
    into_lo = _iface_stack(k_lo, k_hi)
    lo_to_hi = _mul(_iface_stack(k_hi, k_lo), _prop_stack(k_lo, -d_lo))
    fwd = _mul(_mul(_prop_stack(k_hi, -d_hi), lo_to_hi), into_lo)
    return into_lo, lo_to_hi, fwd


def _facet_states(spec: GratingSpec, omegas: np.ndarray, side):
    """Exact states of the field launched from `side` (see
    _segment_amplitudes), from structure_matrix: (start, entry, exit_) at
    z = 0, entering the grating and at the grating's right end. `side` is
    'left', 'right' or a boolean array over the frequencies, True where the
    field is launched from the right."""
    if isinstance(side, str):
        if side not in ("left", "right"):
            raise InvalidArgument("side must be 'left' or 'right'")
        side = side == "right"
    m = structure_matrix(spec, omegas)
    (_, k_hi), _ = _period_segments(spec, omegas)
    one, zero = np.ones_like(k_hi), np.zeros_like(k_hi)
    right = np.asarray(side)[..., None]
    start = np.where(right, np.stack([zero, 1.0 / m[..., 0, 0]], axis=-1),
                     np.stack([one, m[..., 1, 0] / m[..., 0, 0]], axis=-1))
    facet_r = np.where(right, np.stack([-m[..., 0, 1] / m[..., 0, 0], one], axis=-1),
                       np.stack([1.0 / m[..., 0, 0], zero], axis=-1))
    entry = _mul(_prop_stack(k_hi, -spec.lead_in_length), start[..., None])[..., 0]
    exit_ = _mul(_prop_stack(k_hi, spec.lead_out_length), facet_r[..., None])[..., 0]
    return start, entry, exit_


def _segment_amplitudes(spec: GratingSpec, omegas: np.ndarray, side: str):
    """Per-segment (forward, backward) amplitudes at each segment's left edge
    of the field launched with unit amplitude from the `side` ('left' or
    'right') ambient.

    Returns (z_starts, lengths, n_effs, A, B) where A and B have shape
    (n_segments, n_frequencies); segments run from the lead-in (if any)
    through each period's low-index and unperturbed segments to the lead-out.

    The states entering the periods are those of _period_states, from the
    exact entry state; the lead-out starts from the state after period N,
    not the exact exit state, so tests of it check the recursion.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    into_lo, lo_to_hi, fwd = _period_maps(spec, omegas)
    start, entry, _ = _facet_states(spec, omegas, side)
    n = spec.n_periods
    states = _period_states(fwd, entry, n + 1)
    into_segments = np.stack([into_lo, _mul(lo_to_hi, into_lo)])
    amps = _mul(into_segments, states[:n, None, ..., None])[..., 0]

    _, lengths = _period_segments(spec, omegas)
    parts = [(np.tile([spec.n_lo, spec.n_hi], n), np.tile(lengths, n),
              amps.reshape((2 * n,) + entry.shape))]
    if spec.lead_in_length > 0:
        parts.insert(0, ([spec.n_hi], [spec.lead_in_length], start[None]))
    if spec.lead_out_length > 0:
        parts.append(([spec.n_hi], [spec.lead_out_length], states[n:n + 1]))
    n_effs, lengths, amps = (np.concatenate(p) for p in zip(*parts))
    z_starts = np.concatenate(([0.0], np.cumsum(lengths)[:-1]))
    return z_starts, lengths, n_effs, amps[..., 0], amps[..., 1]


def _period_states(fwd, entry, count: int):
    """The states fwd^m entry entering periods m < count, by doubling."""
    states, power = entry[None], fwd            # power = fwd^len(states)
    while len(states) < count:
        states = np.concatenate([states, _mul(power, states[..., None])[..., 0]])
        power = _mul(power, power)
    return states[:count]


# Below this q = 1 - |cos K Lambda| the two Bloch modes are too close to
# parallel (they coincide at the band edge) for the closed form: its error
# grows as ~1e-19 / |q|, so such frequencies are flagged for fwm's lifted power.
BAND_EDGE_Q = 1e-9


def _bloch_cosine(spec: GratingSpec, omegas: np.ndarray):
    """(sign of cos K Lambda, q = 1 - |cos K Lambda|) per frequency.

    Taken from the two-layer dispersion relation with 1 -+ cos formed
    without cancellation: the trace of the multiplied period matrix loses
    ~3 digits near the Bragg condition, where |cos K Lambda| -> 1.
    """
    (k_lo, k_hi), (d_lo, d_hi) = _period_segments(spec, omegas)
    phi_lo, phi_hi = k_lo * d_lo, k_hi * d_hi
    # delta_n directly, not k_hi - k_lo, which would cancel
    dk = wavenumber(spec.delta_n, omegas)
    mix = dk ** 2 / (2.0 * k_lo * k_hi) * np.sin(phi_lo) * np.sin(phi_hi)
    half = 0.5 * (phi_lo + phi_hi)
    one_plus = 2.0 * np.cos(half) ** 2 - mix
    one_minus = 2.0 * np.sin(half) ** 2 + mix
    return np.where(one_plus < one_minus, -1.0, 1.0), np.minimum(one_plus, one_minus)


def _bloch_fields(spec: GratingSpec, omegas, side) -> dict:
    """The field launched from `side` (unit amplitude from that ambient;
    'left', 'right' or per frequency, see _facet_states), per frequency,
    written through the two Bloch modes of the grating (Yariv & Yeh, ch. 6).

    In period m (0 <= m < N) the state entering the period is

        coef[0] * ratio[0]**(m - N) * e_0 + coef[1] * ratio[1]**m * e_1,

    with ratio = exp(log_ratio). Mode 0 is the one that grows forward inside
    a stopband, so it is referenced to the grating's right end and mode 1 to
    its left end: neither power ever exceeds 1 in modulus. Returns a dict of
    arrays whose trailing axes index frequency, as omegas does; the leading
    axes are, in order, the mode, the segment (low-index then unperturbed)
    and the (forward, backward) pair:

    - omega:      (...)           the frequencies
    - log_ratio:  (2, ...)        per-period log eigenvalue of each mode
    - period:     (2, 2, 2, ...)  coef times each mode's amplitudes at the
                                  left edge of each segment of a period
    - lead_in:    (2, ...)        amplitudes at z = 0 (start of the lead-in)
    - lead_out:   (2, ...)        amplitudes at the grating's right end
    - fwd:        (2, 2, ...)     the forward map of one period (_period_maps)
    - entry:      (2, ...)        the state entering the grating
    - band_edge:  (...)           |q| < BAND_EDGE_Q: the modes are unusable, and
                                  the identity stands for them, with coef 1
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    into_lo, lo_to_hi, fwd = _period_maps(spec, omegas)

    sign, q = _bloch_cosine(spec, omegas)
    root = np.sqrt(np.abs(q) / 2.0)
    # eigenvalues sign * exp(+-kappa); kappa >= 0 in a stopband, i*theta outside
    kappa = np.where(q < 0, 2.0 * np.arcsinh(root), 2j * np.arcsin(root))
    log_sign = np.where(sign < 0, 1j * math.pi, 0.0)

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
    band_edge = np.abs(q) < BAND_EDGE_Q
    modes[band_edge] = np.eye(2)
    lo = _mul(into_lo, modes)
    segments = np.stack([lo, _mul(lo_to_hi, lo)])           # (seg, ..., fwd/bwd, mode)

    start, entry, exit_ = _facet_states(spec, omegas, side)

    det = modes[..., 0, 0] * modes[..., 1, 1] - modes[..., 1, 0] * modes[..., 0, 1]
    coef = np.where(band_edge, 1.0, np.stack([
        exit_[..., 0] * modes[..., 1, 1] - exit_[..., 1] * modes[..., 0, 1],
        modes[..., 0, 0] * entry[..., 1] - modes[..., 1, 0] * entry[..., 0]]) / det)
    return {"omega": omegas,
            "log_ratio": np.stack([log_sign + kappa, log_sign - kappa]),
            "period": coef[:, None, None] * np.moveaxis(segments, (-1, 0, -2), (0, 1, 2)),
            "lead_in": np.moveaxis(start, -1, 0), "lead_out": np.moveaxis(exit_, -1, 0),
            "fwd": np.moveaxis(fwd, (-2, -1), (0, 1)), "entry": np.moveaxis(entry, -1, 0),
            "band_edge": band_edge}

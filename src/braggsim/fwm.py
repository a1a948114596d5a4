"""Degenerate-pump four-wave mixing in layered structures.

The central object is the phase-matching overlap

    J = integral over the structure of  f_p(z)^2 f_s(z)* f_i(z)* dz

where f_p and f_s are the fields launched from the left facet at the pump and
signal frequencies and f_i is the idler mode that exits to the right (whose
conjugate equals the field launched from the right facet). J has units of
length and reduces exactly to the structure length for a uniform waveguide at
perfect phase matching.

Stimulated idler power follows the undepleted-pump result
P_i = (gamma P_p)^2 P_s |J|^2.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import HBAR, SPEED_OF_LIGHT as C0
from .model import (
    GratingSpec,
    InvalidArgument,
    NonlinearParams,
    OutOfDomain,
    SweepResult,
    omega_from_wavelength,
    wavelength_from_omega,
)
from .transfer import BlochField, _bloch_fields, _segment_amplitudes

__all__ = [
    "WAVELENGTH_DOMAIN",
    "idler_omega",
    "idler_wavelength",
    "segment_exp_integral",
    "overlap_elements",
    "StimulatedResult",
    "stimulated_idler",
    "pump_sweep",
    "dip_report",
]

# validity window of the constant-effective-index dispersion model
WAVELENGTH_DOMAIN = (1500e-9, 1600e-9)


def idler_omega(omega_p: float, omega_s: float) -> float:
    """Idler frequency from energy conservation, 2*omega_p = omega_s + omega_i."""
    w = 2.0 * omega_p - omega_s
    if w <= 0:
        raise InvalidArgument("signal frequency exceeds twice the pump frequency")
    return w


def idler_wavelength(lambda_p: float, lambda_s: float) -> float:
    return wavelength_from_omega(
        idler_omega(omega_from_wavelength(lambda_p), omega_from_wavelength(lambda_s)))


def _check_domain(omega, label: str) -> None:
    lam = 2.0 * math.pi * C0 / np.asarray(omega, dtype=float)
    lo, hi = WAVELENGTH_DOMAIN
    if np.any(lam < lo * (1 - 1e-12)) or np.any(lam > hi * (1 + 1e-12)):
        raise OutOfDomain(
            f"{label} wavelength outside the {lo * 1e9:.0f}-{hi * 1e9:.0f} nm model domain")


def segment_exp_integral(kappa, length):
    """integral_0^length exp(i kappa u) du, stable for kappa -> 0.

    Written as length * exp(i kappa length / 2) * sinc(kappa length / (2 pi))
    so the phase is explicit and the modulus never suffers cancellation.
    """
    kappa = np.asarray(kappa)
    return length * np.exp(0.5j * kappa * length) * np.sinc(
        kappa * length / (2.0 * math.pi))


def _plane_wave_integral(pump1, pump2, signal, idler, kp, ks, ki, length):
    """integral_0^length of g_1 g_2 conj(g_s) g_i over one uniform segment,
    where each g = fwd * exp(i k u) + bwd * exp(-i k u) is given as its
    (fwd, bwd) pair: three pump plane waves times two each for signal and
    idler, twelve terms in total. Arguments broadcast."""
    pump = ((pump1[0] * pump2[0], 2.0),
            (pump1[0] * pump2[1] + pump1[1] * pump2[0], 0.0),
            (pump1[1] * pump2[1], -2.0))
    sig = ((np.conj(signal[0]), -1.0), (np.conj(signal[1]), 1.0))
    idl = ((idler[0], 1.0), (idler[1], -1.0))
    # nested sums: each coefficient multiplies only what its factor spans
    total = 0.0
    for cp, sp in pump:
        by_pump = 0.0
        for cs, ss in sig:
            by_signal = 0.0
            for ci, si in idl:
                by_signal = by_signal + ci * segment_exp_integral(
                    sp * kp + ss * ks + si * ki, length)
            by_pump = by_pump + cs * by_signal
        total = total + cp * by_pump
    return total


def _wrap_phase(x):
    """x shifted by the multiple of 2*pi*i that brings its phase nearest 0."""
    return x - 2j * math.pi * np.round(x.imag / (2.0 * math.pi))


def _geometric_sum(rate, grow, n: int):
    """sum_{m=0}^{n-1} exp(m * rate - n * grow), for Re(rate - grow) <= 0
    and Re(grow) >= 0 so that no intermediate exceeds 1 in modulus."""
    rate = _wrap_phase(rate)
    grow = _wrap_phase(grow)
    scaled = np.exp(-n * grow)
    near = np.abs(n * rate) < 1.0      # difference form would cancel here
    out = (np.exp(n * (rate - grow)) - scaled) / np.expm1(np.where(near, 1.0, rate))
    r = rate[near]
    r_safe = np.where(r == 0, 1.0, r)
    out[near] = scaled[near] * np.where(r == 0, n, np.expm1(n * r) / np.expm1(r_safe))
    return out


def _mode_axis(x, axis: int):
    """Move the trailing mode axis of x to `axis` of four combination axes."""
    shape = [1, 1, 1, 1]
    shape[axis] = 2
    return x.reshape(x.shape[:-1] + tuple(shape))


# elements per pass of the Bloch kernel: its (elements x 16 mode combinations)
# temporaries stay near 1 MB each however many elements are asked for
_CHUNK = 4096


def _bloch_overlap(spec: GratingSpec, fields, index) -> np.ndarray:
    """J from the (pump, signal, idler) BlochField tables `fields` gathered by
    the matching triple `index` of equal-shape integer arrays (the result's
    shape), _CHUNK elements at a time so that memory stays bounded."""
    flat = [np.ravel(i) for i in index]
    out = np.empty(flat[0].size, dtype=complex)
    for lo in range(0, out.size, _CHUNK):
        part = slice(lo, lo + _CHUNK)
        out[part] = _bloch_chunk(spec, *(f.take(i[part]) for f, i in zip(fields, flat)))
    return out.reshape(np.shape(index[0]))


def _bloch_chunk(spec: GratingSpec, fp: BlochField, fs: BlochField,
                 fi: BlochField) -> np.ndarray:
    """J from Bloch-mode fields gathered element-wise (equal leading shapes).

    Each of the 16 (pump, pump, signal*, idler) mode combinations is a
    geometric series over the N periods times one per-period weight; the
    leads are single uniform segments. Elements with a field at a band edge
    fall back to the segment sum.
    """
    def combine(x, op=np.add):
        return op(op(op(_mode_axis(x(fp), 0), _mode_axis(x(fp), 1)),
                     np.conj(_mode_axis(x(fs), 2))), _mode_axis(x(fi), 3))

    d_lo = spec.duty_cycle * spec.period
    weight = 0.0
    for seg, length in enumerate((d_lo, spec.period - d_lo)):
        def amps(f, axis):
            return (_mode_axis(f.segments[..., seg, 0], axis),
                    _mode_axis(f.segments[..., seg, 1], axis))
        kp, ks, ki = (f.k[..., seg, None, None, None, None] for f in (fp, fs, fi))
        weight = weight + _plane_wave_integral(amps(fp, 0), amps(fp, 1), amps(fs, 2),
                                               amps(fi, 3), kp, ks, ki, length)
    growing = np.array([1.0, 0.0])       # mode 0 is referenced to period N
    series = _geometric_sum(combine(lambda f: f.log_ratio),
                            combine(lambda f: f.log_ratio * growing),
                            spec.n_periods)
    coef = combine(lambda f: f.coef, op=np.multiply)
    total = np.sum(coef * series * weight, axis=(-4, -3, -2, -1))

    for lead, length in (("lead_in", spec.lead_in_length),
                         ("lead_out", spec.lead_out_length)):
        if length > 0:
            p, s, i = (getattr(f, lead) for f in (fp, fs, fi))
            pair = (p[..., 0], p[..., 1])
            total = total + _plane_wave_integral(
                pair, pair, (s[..., 0], s[..., 1]), (i[..., 0], i[..., 1]),
                fp.k[..., 1], fs.k[..., 1], fi.k[..., 1], length)

    edge = fp.band_edge | fs.band_edge | fi.band_edge
    if np.any(edge):
        total[edge] = _overlap_segment_sum(spec, fp.omega[edge], fs.omega[edge],
                                           fi.omega[edge])
    return total


def _overlap_segment_sum(spec: GratingSpec, omega_p, omega_s, omega_i) -> np.ndarray:
    """J element-wise as a sum over every uniform segment of the structure.

    Fields come from the forward segment recursion, which amplifies rounding
    in the growing mode of deep stopbands; this is the band-edge fallback of
    the Bloch kernel and its test oracle, not the production path.
    """
    _, lengths, n_effs, Ap, Bp = _segment_amplitudes(spec, omega_p, "left")
    _, _, _, As, Bs = _segment_amplitudes(spec, omega_s, "left")
    _, _, _, Ai, Bi = _segment_amplitudes(spec, omega_i, "right")
    kp, ks, ki = (np.outer(n_effs, w) / C0 for w in (omega_p, omega_s, omega_i))
    terms = _plane_wave_integral((Ap, Bp), (Ap, Bp), (As, Bs), (Ai, Bi),
                                 kp, ks, ki, lengths[:, None])
    return np.sum(terms, axis=0)


def overlap_elements(spec: GratingSpec, omega_p, omega_s, omega_i) -> np.ndarray:
    """J evaluated element-wise for equal-length frequency arrays.

    The three fields are solved once per frequency as Bloch modes of the
    grating, and the z-integral is summed over the periods in closed form,
    so the cost does not grow with the period count.
    """
    omega_p = np.atleast_1d(np.asarray(omega_p, dtype=float))
    omega_s = np.atleast_1d(np.asarray(omega_s, dtype=float))
    omega_i = np.atleast_1d(np.asarray(omega_i, dtype=float))
    if not omega_p.shape == omega_s.shape == omega_i.shape:
        raise InvalidArgument("frequency arrays must have matching shapes")
    for w, label in ((omega_p, "pump"), (omega_s, "signal"), (omega_i, "idler")):
        _check_domain(w, label)
    fields = (_bloch_fields(spec, omega_p, "left"), _bloch_fields(spec, omega_s, "left"),
              _bloch_fields(spec, omega_i, "right"))
    return _bloch_overlap(spec, fields, (np.arange(omega_p.size),) * 3)


# --------------------------------------------------------------------------
# stimulated four-wave mixing


@dataclass(frozen=True)
class StimulatedResult:
    """Stimulated idler generation at one pump/signal setting.

    overlap is J at (omega_p, omega_s, omega_i). idler_power and idler_rate
    are internal (inside the waveguide). rate_per_mw2 normalizes the rate by
    the squared internal pump power in milliwatts; rate_per_mw2_external
    re-expresses it per squared pump power quoted before the input facet
    (None when no coupling loss is configured).
    """

    overlap: complex
    omega_i: float
    idler_power: float
    idler_rate: float
    rate_per_mw2: float
    rate_per_mw2_external: float | None


def stimulated_idler(spec: GratingSpec, params: NonlinearParams, omega_p: float,
                     omega_s: float, omega_i: float | None = None) -> StimulatedResult:
    """Stimulated idler at one setting; the idler defaults to 2*omega_p - omega_s."""
    if omega_i is None:
        omega_i = idler_omega(omega_p, omega_s)
    j = complex(overlap_elements(spec, [omega_p], [omega_s], [omega_i])[0])
    if params.gamma * params.coupled_pump_power * spec.total_length >= 0.1:
        warnings.warn("nonlinear phase is not small; the undepleted-pump "
                      "result may be inaccurate", stacklevel=2)
    power = (params.gamma * params.coupled_pump_power) ** 2 \
        * params.coupled_signal_power * abs(j) ** 2
    rate = power / (HBAR * omega_i)
    pump_mw = params.coupled_pump_power / 1e-3
    per_mw2 = rate / pump_mw ** 2 if pump_mw > 0 else 0.0
    external = None
    if params.coupling_loss_db is not None:
        external = per_mw2 * params.facet_transmission ** 2
    return StimulatedResult(
        overlap=j,
        omega_i=float(omega_i),
        idler_power=power,
        idler_rate=rate,
        rate_per_mw2=per_mw2,
        rate_per_mw2_external=external,
    )


def pump_sweep(spec: GratingSpec, params: NonlinearParams, pump_wavelengths,
               signal_wavelength: float) -> SweepResult:
    """Stimulated idler response against pump wavelength at a fixed signal.

    The idler frequency tracks energy conservation point by point. Columns:
    pump_wavelength_nm, idler_rate_per_s_per_mw2 (internal), idler_power_w.
    """
    lam_p = np.asarray(pump_wavelengths, dtype=float)
    if lam_p.ndim != 1 or lam_p.size < 1:
        raise InvalidArgument("pump_wavelengths must be a 1-D array")
    w_p = 2.0 * math.pi * C0 / lam_p
    w_s = np.full_like(w_p, omega_from_wavelength(signal_wavelength))
    w_i = 2.0 * w_p - w_s
    j = overlap_elements(spec, w_p, w_s, w_i)
    power = (params.gamma * params.coupled_pump_power) ** 2 \
        * params.coupled_signal_power * np.abs(j) ** 2
    rate = power / (HBAR * w_i)
    pump_mw = params.coupled_pump_power / 1e-3
    per_mw2 = rate / pump_mw ** 2 if pump_mw > 0 else np.zeros_like(rate)
    order = np.argsort(lam_p)
    return SweepResult(
        x_name="pump_wavelength_nm",
        x=lam_p[order] * 1e9,
        columns={
            "idler_rate_per_s_per_mw2": per_mw2[order],
            "idler_power_w": power[order],
        },
    )


@dataclass(frozen=True)
class DipReport:
    """Location and contrast of the deepest minimum of a swept column."""

    center_x: float
    min_value: float
    baseline_median: float
    suppression_db: float


def dip_report(sweep: SweepResult, column: str = "idler_rate_per_s_per_mw2",
               exclude_halfwidth: float = 1.0) -> DipReport:
    """Characterize the deepest dip of sweep[column].

    The baseline is the median of points farther than exclude_halfwidth
    (in the sweep's x units) from the minimum.
    """
    y = sweep.column(column)
    x = sweep.x
    imin = int(np.argmin(y))
    off = np.abs(x - x[imin]) > exclude_halfwidth
    if not np.any(off):
        raise InvalidArgument("no baseline points outside the excluded band")
    baseline = float(np.median(y[off]))
    if y[imin] <= 0 or baseline <= 0:
        raise InvalidArgument("dip contrast undefined for non-positive values")
    return DipReport(
        center_x=float(x[imin]),
        min_value=float(y[imin]),
        baseline_median=baseline,
        suppression_db=10.0 * math.log10(baseline / y[imin]),
    )

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
from numpy.lib.stride_tricks import sliding_window_view

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
from .threads import thread_count
from .transfer import BlochField, _bloch_fields, _segment_amplitudes

__all__ = [
    "WAVELENGTH_DOMAIN",
    "idler_omega",
    "idler_wavelength",
    "segment_exp_integral",
    "overlap_elements",
    "overlap_table",
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
    """integral_0^length exp(i kappa u) du for real kappa, stable for kappa -> 0.

    Written as length * exp(i theta) * sin(theta) / theta with theta =
    kappa * length / 2, from the real sine and cosine, so the phase is
    explicit and the modulus never suffers cancellation.
    """
    theta = 0.5 * np.asarray(kappa) * length
    sin = np.sin(theta)
    sinc = _sinc(theta, sin)
    out = np.empty(np.shape(theta), dtype=complex)
    np.multiply(sinc, np.cos(theta), out=out.real)
    np.multiply(sinc, sin, out=out.imag)
    return length * out


def _sinc(theta, sin):
    """sin(theta) / theta from theta and its sine; 1 at theta = 0."""
    return np.divide(sin, theta, out=np.ones_like(theta), where=theta != 0)


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


# elements per task of the Bloch kernel: its widest temporaries, (elements x
# 24 plane-wave phases), stay near 0.8 MB each however many elements are asked
# for; a task is whole rows of the result, so a row wider than this is one task
_CHUNK = 2048
# elements in flight at once, whatever the thread count, which bounds the
# kernel's memory: with _CHUNK it caps the kernel at two threads, the count
# its speed and memory were measured at
_IN_FLIGHT = 4096


def _bloch_overlap(spec: GratingSpec, tables) -> np.ndarray:
    """J from the (pump, signal, idler) factor tables `tables` of
    _field_factors, whose trailing (frequency) shapes are each the result's
    shape; a product grid passes views (broadcast or windowed), so it needs
    no copy of its own size.

    The rows along the first frequency axis are split into tasks of _CHUNK
    elements (at least one row), run on _workers() threads; each task takes
    views of its rows and writes only those rows of the result, so J does not
    depend on the thread count.
    """
    shape = tables[0]["omega"].shape
    out = np.empty(shape, dtype=complex)
    rows = max(1, _CHUNK // math.prod(shape[1:]))
    rest = (slice(None),) * (len(shape) - 1)

    def task(lo):
        part = (Ellipsis, slice(lo, lo + rows)) + rest
        out[part] = _bloch_chunk(spec, *({name: v[part] for name, v in table.items()}
                                         for table in tables))

    starts = range(0, shape[0], rows)
    workers = _workers(len(starts))
    if workers == 1:
        for lo in starts:
            task(lo)
    else:
        # numpy releases the interpreter lock inside its ufuncs, so the
        # threads overlap; imported here to keep it out of short commands
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(task, starts))
    return out


def _workers(tasks: int) -> int:
    """Threads for `tasks` tasks: thread_count(), at most _IN_FLIGHT // _CHUNK
    and at most `tasks`. One task reads no setting."""
    return 1 if tasks < 2 else min(thread_count(), _IN_FLIGHT // _CHUNK, tasks)


# Largest growth g = N * max Re(log_ratio) of a field for the segment sum, a
# forward recursion: with the reference's pump at the Bragg centre its J
# misses the closed form by 1.3e-11 at g = 17.4, 1.4e-10 at 18.8, 2.4e-9 at
# 20.3 and 8e-7 at 23.2 (growing as e^2g), past the 1e-9 the kernel is held to.
_SEGMENT_SUM_GROWTH = 19.0


def _bloch_chunk(spec: GratingSpec, fp: dict, fs: dict, fi: dict) -> np.ndarray:
    """J from the factor tables of _field_factors paired element-wise (equal
    trailing shapes).

    Each of the 12 (pump pair, signal*, idler) mode combinations is a
    geometric series over the N periods, sum_m R**m scaled so that no term
    exceeds 1 in modulus, times one per-period weight; R is the product of
    the combination's per-period ratios, and the series is the product of
    the num[0] factors less that of num[1], over R - 1. Where |R - 1| < 1/N,
    where that would cancel, it is taken from the wrapped log of R. The leads are
    single uniform segments. Elements with a field at a band edge fall back
    to the segment sum, or raise OutOfDomain where a field grows too much
    across the grating for it.
    """
    def combine(name, index=slice(None)):
        return (fp[name][index][:, None, None] * fs[name][index][None, :, None]
                * fi[name][index][None, None, :])

    n = spec.n_periods
    weight = _wave_sum(fp, fs, fi, "period")
    upper, lower = combine("num", 0), combine("num", 1)
    den = combine("ratio") - 1.0
    near = np.abs(den) < 1.0 / n
    den[near] = 1.0
    series = np.subtract(upper, lower, out=upper)
    series /= den
    if np.any(near):
        pair, sig, idl, *elems = np.nonzero(near)
        elems = tuple(elems)
        r = _wrap_phase(fp["log_ratio"][(pair,) + elems] + fs["log_ratio"][(sig,) + elems]
                        + fi["log_ratio"][(idl,) + elems])
        r_safe = np.where(r == 0, 1.0, r)
        series[near] = lower[near] * np.where(r == 0, n, np.expm1(n * r) / np.expm1(r_safe))
    total = np.sum(series * weight, axis=(0, 1, 2))

    for lead in ("lead_in", "lead_out"):
        if lead in fp:
            total = total + _wave_sum(fp, fs, fi, lead)[0, 0, 0]

    edge = fp["band_edge"] | fs["band_edge"] | fi["band_edge"]
    if np.any(edge):
        growth = max(np.max(f["growth"][edge]) for f in (fp, fs, fi))
        if growth > _SEGMENT_SUM_GROWTH:
            raise OutOfDomain(f"band-edge element on a grating too deep for the segment "
                              f"sum: a field grows by e^{growth:.1f} across it")
        total[edge] = _overlap_segment_sum(spec, fp["omega"][edge], fs["omega"][edge],
                                           fi["omega"][edge])
    return total


def _wave_sum(fp: dict, fs: dict, fi: dict, part: str) -> np.ndarray:
    """(pump pair, signal mode, idler mode, elements...) integral over the
    segments of `part` of the products of the fields' plane waves: the sum
    over segments and waves of the three amplitudes times the wave integral
    of _wave_integrals. The pump amplitudes carry the segment lengths."""
    # each stage's input is dropped once used: a task then holds at most
    # three arrays of (elements x 24), which bounds the table's memory
    e = _wave_integrals(fp, fs, fi, part)
    p, s, i = fp[part], fs[part], fi[part]
    by_signal = i[:, :, None, None, 0] * e[None, :, :, :, 0]     # (idler, segment,
    by_signal += i[:, :, None, None, 1] * e[None, :, :, :, 1]    # pump, signal waves)
    del e
    by_pump = s[:, None, :, None, 0] * by_signal[None, :, :, :, 0]   # (signal, idler,
    by_pump += s[:, None, :, None, 1] * by_signal[None, :, :, :, 1]  # segment, pump waves)
    del by_signal
    total = 0.0
    for seg in range(p.shape[1]):
        for wave in range(p.shape[2]):
            total += p[:, None, None, seg, wave] * by_pump[None, :, :, seg, wave]
    return total


def _wave_integrals(fp: dict, fs: dict, fi: dict, part: str) -> np.ndarray:
    """(segment, pump, signal, idler waves, elements...) exp(i theta) *
    sin(theta) / theta, theta the sum of the three waves' angles, from each
    field's exp(i angle). Only the pump waves 2k and 0 are evaluated: the -2k
    wave with the other fields' waves swapped has the opposite theta, and so
    the conjugate value."""
    angle, turn = part + "_angle", part + "_turn"
    theta = (fp[angle][:, :2, None, None] + fs[angle][:, None, :, None]
             + fi[angle][:, None, None, :])
    half = (fp[turn][:, :2, None] * fs[turn][:, None, :])[:, :, :, None] \
        * fi[turn][:, None, None, :]
    sinc = _sinc(theta, np.sin(theta))
    half.real *= sinc
    half.imag *= sinc
    return np.concatenate([half, np.conj(half[:, :1, ::-1, ::-1])], axis=1)


def _overlap_segment_sum(spec: GratingSpec, omega_p, omega_s, omega_i) -> np.ndarray:
    """J element-wise as a sum over every uniform segment of the structure.

    Fields come from the forward segment recursion, which amplifies rounding
    in the growing mode of deep stopbands. This is the Bloch kernel's path
    for band-edge elements, which a pump sweep across the stopband meets,
    and its test oracle; its fields cost O(log N) array operations.
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
    tables = _field_tables(spec, omega_p.ravel(), omega_s.ravel(), omega_i.ravel())
    return _bloch_overlap(spec, tables).reshape(omega_p.shape)


def _field_tables(spec: GratingSpec, omega_p, omega_s, omega_i):
    """The (pump, signal, idler) factor tables of _field_factors for 1-D
    frequency arrays, each frequency checked against the model domain; the
    idler is launched from the right facet."""
    for w, label in ((omega_p, "pump"), (omega_s, "signal"), (omega_i, "idler")):
        _check_domain(w, label)
    return (_field_factors(spec, _bloch_fields(spec, omega_p, "left"), "pump"),
            _field_factors(spec, _bloch_fields(spec, omega_s, "left"), "signal"),
            _field_factors(spec, _bloch_fields(spec, omega_i, "right"), "idler"))


# plane waves of each field's share of the integrand within a uniform
# segment, as multiples of its wavenumber: the product of the two pump
# photons (2k, 0, -2k), the conjugated signal (-k, k) and the idler (k, -k)
_WAVES = {"pump": (2.0, 0.0, -2.0), "signal": (-1.0, 1.0), "idler": (1.0, -1.0)}


def _pairs(modes: int):
    """The distinct (a, b) pairs of `modes` modes with their multiplicities:
    the two pump photons share one field, so the pairs ab and ba are equal."""
    return [(a, b, 1.0 if a == b else 2.0) for a in range(modes) for b in range(a, modes)]


def _pump_waves(x, y):
    """(forward, backward) amplitude pairs x and y, along axis 1, multiplied
    into the amplitudes of the pump product's three plane waves."""
    return np.stack([x[:, 0] * y[:, 0], x[:, 0] * y[:, 1] + x[:, 1] * y[:, 0],
                     x[:, 1] * y[:, 1]], axis=1)


def _power(log_ratio, n: int):
    """exp(n * log_ratio) with a phase whose rounding does not grow with n:
    the imaginary part is split into a multiple of 2**-30, whose product with
    n is exact for n < 2**20, and a remainder below 2**-31."""
    high = np.round(log_ratio.imag * 2.0 ** 30) / 2.0 ** 30
    return (np.exp(n * log_ratio.real + 1j * (n * high))
            * np.exp(1j * (n * (log_ratio.imag - high))))


def _field_factors(spec: GratingSpec, field: BlochField, role: str) -> dict:
    """The per-frequency factors of one field ('pump', 'signal' or 'idler')
    that _bloch_chunk reads, with the frequency axis last. Mode axes come
    first; for the pump they run over the mode pairs of _pairs. The signal's
    factors are conjugated, as J reads it.

    - ratio, log_ratio:  (mode,)  per-period eigenvalue, and its log
    - num:           (2, mode)  (1, ratio[1]**N) and (ratio[0]**-N, 1): the
                     numerator of a combination's geometric series is the
                     product of num[0] less that of num[1]
    - period:        (mode, segment, wave)  coef times the amplitude of each
                     plane wave of _WAVES in each segment of a period; the
                     pump's carry the segment length and pair multiplicity
    - period_angle:  (segment, wave)  each wave's wavenumber times half the
                     segment length, and period_turn its exp(i angle)
    - lead_in, lead_out (with _angle, _turn): the same for the field itself
                     in that lead, one segment of one mode; present only if
                     the lead has a length
    - omega, band_edge, growth:  for the band-edge fallback; growth is
                     N * max Re(log_ratio), the field's growth across the grating
    """
    n = spec.n_periods
    lr = field.log_ratio.T
    ratio = np.exp(lr)
    one = np.ones_like(ratio[0])
    num = np.array([[one, _power(lr[1], n)], [_power(-lr[0], n), one]])
    if role == "pump":
        pairs = _pairs(2)
        ratio = np.stack([ratio[a] * ratio[b] for a, b, _ in pairs])
        lr = np.stack([lr[a] + lr[b] for a, b, _ in pairs])
        num = np.stack([num[:, a] * num[:, b] for a, b, _ in pairs], axis=1)
    elif role == "signal":
        ratio, lr, num = np.conj(ratio), np.conj(lr), np.conj(num)
    table = {"omega": field.omega, "band_edge": field.band_edge,
             "growth": n * np.max(field.log_ratio.real, axis=-1),
             "ratio": ratio, "log_ratio": lr, "num": num}

    d_lo = spec.duty_cycle * spec.period
    k = field.k.T
    parts = {"period": (np.array([d_lo, spec.period - d_lo]), k,
                        np.moveaxis(field.coef[..., None, None] * field.segments, 0, -1))}
    for name, length, state in (("lead_in", spec.lead_in_length, field.lead_in),
                                ("lead_out", spec.lead_out_length, field.lead_out)):
        if length > 0:
            parts[name] = (np.array([length]), k[1:], state.T[None, None])
    waves = np.array(_WAVES[role])
    for name, (lengths, k, amps) in parts.items():
        if role == "pump":
            amps = np.stack([w * _pump_waves(amps[a], amps[b])
                             for a, b, w in _pairs(len(amps))]) * lengths[:, None, None]
        elif role == "signal":
            amps = np.conj(amps)
        angle = 0.5 * lengths[:, None, None] * waves[:, None] * k[:, None]
        table.update({name: amps, name + "_angle": angle,
                      name + "_turn": np.exp(1j * angle)})
    # contiguous, so that the kernel's inner loops run along frequency
    return {name: np.ascontiguousarray(v) for name, v in table.items()}


def overlap_table(spec: GratingSpec, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """J evaluated on the product grid with both pump photons at the
    energy-conserving midpoint (w1 + w2)/2.

    The two grids must share their spacing: the midpoints then live on a
    single uniform grid of 2n-1 frequencies, so the factors of the structure
    fields are formed once per distinct frequency and viewed onto the grid
    without a copy: element (r, c) reads the pump at midpoint r + c.
    """
    d1 = w1[1] - w1[0]
    d2 = w2[1] - w2[0]
    if abs(d1 - d2) > 1e-9 * abs(d1):
        raise InvalidArgument("signal and idler grids must share their spacing")
    n1, n2 = w1.size, w2.size
    mids = 0.5 * (w1[0] + w2[0]) + 0.5 * d1 * np.arange(n1 + n2 - 1)
    pump, signal, idler = _field_tables(spec, mids, w1, w2)
    tables = ({name: sliding_window_view(v, n2, axis=-1) for name, v in pump.items()},
              {name: np.broadcast_to(v[..., None], v.shape + (n2,))
               for name, v in signal.items()},
              {name: np.broadcast_to(v[..., None, :], v.shape[:-1] + (n1, n2))
               for name, v in idler.items()})
    return _bloch_overlap(spec, tables)


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

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

from .constants import HBAR
from .model import (
    GratingSpec,
    InvalidArgument,
    NonlinearParams,
    OutOfDomain,
    SweepResult,
    _require_uniform,
    omega_from_wavelength,
    wavelength_from_omega,
)
from .transfer import (_CHUNK, WAVELENGTH_DOMAIN, _bloch_fields, _check_domain, _mat_power,
                       _mul, _period_segments)

__all__ = [
    "WAVELENGTH_DOMAIN",
    "idler_omega",
    "idler_wavelength",
    "overlap_elements",
    "overlap_table",
    "StimulatedResult",
    "stimulated_idler",
    "pump_sweep",
    "dip_report",
]

def idler_omega(omega_p: float, omega_s: float) -> float:
    """Idler frequency from energy conservation, 2*omega_p = omega_s + omega_i."""
    w = 2.0 * omega_p - omega_s
    if not 0 < w < math.inf:
        raise InvalidArgument("signal frequency exceeds twice the pump frequency, or a "
                              "frequency is not finite")
    return w


def idler_wavelength(lambda_p: float, lambda_s: float) -> float:
    return wavelength_from_omega(
        idler_omega(omega_from_wavelength(lambda_p), omega_from_wavelength(lambda_s)))


def _wrap_phase(x):
    """x shifted by the multiple of 2*pi*i that brings its phase nearest 0."""
    return x - 2j * math.pi * np.round(x.imag / (2.0 * math.pi))


class _Work:
    """The work arrays that every task of one kernel call writes its large
    temporaries into, so that a call allocates them once: glibc hands freed
    arrays of this size back to the OS, and the next task would fault them
    in again."""

    def __init__(self):
        self._arrays = {}

    def like(self, name: str, *operands, dtype=complex) -> np.ndarray:
        """The array `name` as a C-contiguous view of the broadcast shape of
        the arrays `operands`, reallocated only when it is too small."""
        shape = np.broadcast(*operands).shape
        size = math.prod(shape)
        flat = self._arrays.get(name)
        if flat is None or flat.size < size:
            flat = self._arrays[name] = np.empty(size, dtype)
        return flat[:size].reshape(shape)

    def product(self, name: str, x, y) -> np.ndarray:
        """x * y as the array `name`."""
        return np.multiply(x, y, out=self.like(name, x, y))


def _bloch_overlap(spec: GratingSpec, shape: tuple, rows: int, tables_of) -> np.ndarray:
    """J on a grid of frequency shape `shape`, the kernel's one task loop.

    The grid's rows (its first axis) are taken in tasks of `rows`, one after
    another on the calling thread, all writing into one _Work. A task's
    (pump, signal, idler) factor tables are those of _field_factors that
    tables_of(rows) returns for its slice of rows: a sweep solves them task
    by task, a product grid views tables solved once (broadcast or windowed)
    without a copy of its own size. Each task writes only its rows of the
    result.
    """
    out = np.empty(shape, dtype=complex)
    work = _Work()
    for lo in range(0, shape[0], rows):
        out[lo:lo + rows] = _bloch_chunk(spec, *tables_of(slice(lo, lo + rows)), work)
    return out


def _bloch_chunk(spec: GratingSpec, fp: dict, fs: dict, fi: dict, work: _Work) -> np.ndarray:
    """J from the factor tables of _field_factors paired element-wise (equal
    trailing shapes), with every large temporary in `work`.

    Each of the 12 (pump pair, signal*, idler) mode combinations is a
    geometric series over the N periods, sum_m R**m scaled so that no term
    exceeds 1 in modulus, times one per-period weight; R is the product of
    the combination's per-period ratios, and the series is the product of
    the num[0] factors less that of num[1], over R - 1. Where |R - 1| < 1/N,
    where that would cancel, it is taken from the wrapped log of R. Elements
    with a field at a band edge, where its two modes coincide, take the sum
    over the periods from _band_edge_sum instead, handed their per-period
    weights: a matrix power whose cost does not grow with N either. The
    leads, single uniform segments, are then added from the facet states.
    """
    def combine(into, name, index=slice(None)):
        pair = work.product("pair", fp[name][index][:, None, None],
                            fs[name][index][None, :, None])
        return work.product(into, pair, fi[name][index][None, None, :])

    n = spec.n_periods
    weight = _wave_sum(fp, fs, fi, "period", work)
    # the series takes the arrays of _wave_sum's spent stages
    upper, lower = combine("waves", "num", 0), combine("by_signal", "num", 1)
    den = combine("term", "ratio")
    den -= 1.0
    near = np.less(np.abs(den, out=work.like("theta", den, dtype=float)), 1.0 / n,
                   out=work.like("near", den, dtype=bool))
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
    series *= weight
    total = np.sum(series, axis=(0, 1, 2))

    edge = fp["band_edge"] | fs["band_edge"] | fi["band_edge"]
    if np.any(edge):
        total[edge] = _band_edge_sum(spec, *({name: v[..., edge] for name, v in f.items()}
                                             for f in (fp, fs, fi)), weight[..., edge])
    for lead in ("lead_in", "lead_out"):     # present for a lead with a length; one mode
        if lead in fp:
            total += _wave_sum(fp, fs, fi, lead, work)[0, 0, 0]
    return total


def _wave_sum(fp: dict, fs: dict, fi: dict, part: str, work: _Work) -> np.ndarray:
    """(pump pair, signal mode, idler mode, elements...) integral over the
    segments of `part` of the products of the fields' plane waves: the sum
    over segments and waves of the three amplitudes times the wave integral
    of _wave_integrals. The pump amplitudes carry the segment lengths. The
    result, like every stage, is an array of `work`."""
    e = _wave_integrals(fp, fs, fi, part, work)
    p, s, i = fp[part], fs[part], fi[part]
    product = work.product
    # (idler, segment, pump, signal waves)
    by_signal = product("by_signal", i[:, :, None, None, 0], e[None, :, :, :, 0])
    by_signal += product("term", i[:, :, None, None, 1], e[None, :, :, :, 1])
    # (signal, idler, segment, pump waves), in the array of the spent e
    by_pump = product("waves", s[:, None, :, None, 0], by_signal[None, :, :, :, 0])
    by_pump += product("term", s[:, None, :, None, 1], by_signal[None, :, :, :, 1])
    total = work.like("wave_sum", p[:, None, None, 0, 0], by_pump[None, :, :, 0, 0])
    total[...] = 0.0
    for seg in range(p.shape[1]):
        for wave in range(p.shape[2]):
            total += product("term", p[:, None, None, seg, wave], by_pump[None, :, :, seg, wave])
    return total


def _wave_integrals(fp: dict, fs: dict, fi: dict, part: str, work: _Work) -> np.ndarray:
    """(segment, pump, signal, idler waves, elements...) exp(i theta) *
    sin(theta) / theta, theta the sum of the three waves' angles, from each
    field's exp(i angle), as the array "waves" of `work`. Only the pump waves
    2k and 0 are evaluated: the -2k wave with the other fields' waves swapped
    has the opposite theta, and so the conjugate value."""
    angle, turn = part + "_angle", part + "_turn"
    a, b = fp[angle][:, :2, None], fs[angle][:, None, :]
    pair = np.add(a, b, out=work.like("pair_angle", a, b, dtype=float))[:, :, :, None]
    c = fi[angle][:, None, None, :]
    theta = np.add(pair, c, out=work.like("theta", pair, c, dtype=float))
    sinc = np.sin(theta, out=work.like("sinc", theta, dtype=float))
    zero = theta == 0
    np.divide(sinc, theta, out=sinc, where=~zero)
    sinc[zero] = 1.0
    x, y, z = fp[turn][:, :, None, None], fs[turn][:, None, :, None], fi[turn][:, None, None, :]
    waves = work.like("waves", x, y, z)
    half = np.multiply(work.product("pair", x[:, :2], y), z, out=waves[:, :2])
    half.real *= sinc
    half.imag *= sinc
    np.conj(half[:, :1, ::-1, ::-1], out=waves[:, 2:])
    return waves


# Largest growth G, N times the summed max Re(log_ratio) of _band_edge_sum's
# lifted fields: J then misses the closed form by up to ~3e-15 e^G (see README).
_LIFTED_GROWTH = 11.0


def _band_edge_sum(spec: GratingSpec, fp: dict, fs: dict, fi: dict,
                   weight: np.ndarray) -> np.ndarray:
    """The periods' share of J at band-edge elements (1-D) from the factor
    tables of _field_factors and the per-period weight of _wave_sum that
    _bloch_chunk formed from them.

    A field flagged band_edge is lifted: its tables hold the two basis
    states in place of its Bloch modes (see _bloch_fields), and it enters
    period m in the state F^m e, F its table's `fwd` map and e its `entry`
    state, both in the field's role form. The others stay in their Bloch
    modes, whose maps are diagonal, so no growing mode of theirs is squared.
    The product state moves by the Kronecker product T of the three maps,
    and the sum is weight . sum_{m<N} T^m y_0, the last column of
    [[T, y_0], [0, 1]]^N by squaring (Van Loan, IEEE Trans. Autom. Control
    23, 395 (1978)).
    """
    n = len(fp["omega"])
    growth = spec.n_periods * np.max(sum(np.max(f["log_ratio"].real, axis=0) * f["band_edge"]
                                         for f in (fp, fs, fi)))
    if growth > _LIFTED_GROWTH:
        raise OutOfDomain(f"band-edge element on a grating too deep for the segment "
                          f"sum: its lifted fields grow by e^{growth:.1f} across it")
    maps, starts = [], []
    for f in (fp, fs, fi):
        lift, modes = f["band_edge"], f["ratio"].T[:, :, None] * np.eye(len(f["ratio"]))
        maps.append(np.where(lift[:, None, None], np.moveaxis(f["fwd"], -1, 0), modes))
        starts.append(np.where(lift[:, None], f["entry"].T, f["num"][1].T))
    yp, ys, yi = starts
    lifted = (*maps, yp[:, :, None, None] * ys[:, None, :, None] * yi[:, None, None, :])
    states = _mat_power(lifted, spec.n_periods, _lifted_product)[-1]
    return _mul(weight.reshape(-1, n).T[:, None], states.reshape(n, -1, 1))[:, 0, 0]


def _lifted_product(a, b):
    """[[T_a T_b, T_a y_b + y_a], [0, 1]] from two maps [[T, y], [0, 1]] of
    _band_edge_sum, each held as T's (pump, signal, idler) factors, of any
    size, and y."""
    (pa, sa, ia, ya), (pb, sb, ib, yb) = a, b
    y = _mul(pa, yb.reshape(*yb.shape[:2], -1)).reshape(yb.shape)
    y = _mul(_mul(sa[:, None], y), ia[:, None].swapaxes(-1, -2))
    return _mul(pa, pb), _mul(sa, sb), _mul(ia, ib), y + ya


def overlap_elements(spec: GratingSpec, omega_p, omega_s, omega_i) -> np.ndarray:
    """J evaluated element-wise for 1-D frequency arrays that broadcast to
    one length (a sweep passes its one signal frequency as one element).

    The three fields are solved as Bloch modes of the grating, and the
    z-integral is summed over the periods in closed form (by a matrix power
    at a band edge), so the cost does not grow with the period count. The
    elements are taken by _bloch_overlap in tasks of _CHUNK // 4, each of
    which solves the fields of its own frequencies (a single frequency is
    solved in every task and broadcast along it), so the memory does not
    grow with the sweep's length.
    """
    omegas = [np.atleast_1d(np.asarray(w, dtype=float)) for w in (omega_p, omega_s, omega_i)]
    try:
        (size,) = np.broadcast_shapes(*(w.shape for w in omegas))
    except ValueError:
        raise InvalidArgument("frequency arrays must be 1-D and broadcast to one length") from None

    def tables_of(rows):
        ws = [w if w.size == 1 else w[rows] for w in omegas]
        n = max(w.size for w in ws)
        # a field of one frequency (the sweep's signal) is viewed along the task
        return tuple(t if t["omega"].size == n else
                     {name: np.broadcast_to(v, v.shape[:-1] + (n,)) for name, v in t.items()}
                     for t in _field_tables(spec, *ws))

    return _bloch_overlap(spec, (size,), _CHUNK // 4, tables_of)


def _field_tables(spec: GratingSpec, omega_p, omega_s, omega_i):
    """The (pump, signal, idler) factor tables of _field_factors for 1-D
    frequency arrays, each frequency checked against the model domain. The
    three fields are solved in one _bloch_fields call, the idler launched
    from the right facet."""
    for w, label in ((omega_p, "pump"), (omega_s, "signal"), (omega_i, "idler")):
        _check_domain(w, label)
    sizes = [omega_p.size, omega_s.size, omega_i.size]
    field = _bloch_fields(spec, np.concatenate([omega_p, omega_s, omega_i]),
                          np.repeat([False, False, True], sizes))
    if not np.any(field["band_edge"]):     # only the band-edge path reads them
        del field["fwd"], field["entry"]
    bounds = np.cumsum([0] + sizes)
    return tuple(_field_factors(spec, {name: v[..., lo:hi] for name, v in field.items()}, role)
                 for lo, hi, role in zip(bounds, bounds[1:], ("pump", "signal", "idler")))


# plane waves of each field's share of the integrand within a uniform
# segment, as multiples of its wavenumber: the product of the two pump
# photons (2k, 0, -2k), the conjugated signal (-k, k) and the idler (k, -k)
_WAVES = {"pump": (2.0, 0.0, -2.0), "signal": (-1.0, 1.0), "idler": (1.0, -1.0)}


# the distinct (a, b) mode pairs of the two pump photons, which share one
# field, so that ab and ba are one pair: index arrays (a, b, multiplicity)
# for the Bloch solve's two modes and for a lead's one
_PAIRS = {2: (np.array([0, 0, 1]), np.array([0, 1, 1]), np.array([1.0, 2.0, 1.0])),
          1: (np.array([0]), np.array([0]), np.array([1.0]))}


def _power(log_ratio, n: int):
    """exp(n * log_ratio) with a phase whose rounding does not grow with n:
    the imaginary part is split into a multiple of 2**-30, whose product with
    n is exact for n < 2**20, and a remainder below 2**-31."""
    high = np.round(log_ratio.imag * 2.0 ** 30) / 2.0 ** 30
    return (np.exp(n * log_ratio.real + 1j * (n * high))
            * np.exp(1j * (n * (log_ratio.imag - high))))


def _field_factors(spec: GratingSpec, field: dict, role: str) -> dict:
    """The per-frequency factor tables of one field ('pump', 'signal' or
    'idler') of _bloch_fields that _bloch_chunk reads, with the frequency
    axis last:

    - ratio, log_ratio:  (mode,)  per-period eigenvalue, and its log
    - num:           (2, mode)  (1, ratio[1]**N) and (ratio[0]**-N, 1): the
                     numerator of a combination's geometric series is the
                     product of num[0] less that of num[1]
    - period:        (mode, segment, wave)  the amplitude at each segment's
                     left edge of each plane wave of _WAVES; the pump's carry
                     the segment length
    - period_angle:  (segment, wave)  each wave's wavenumber times half the
                     segment length, and period_turn its exp(i angle)
    - lead_in, lead_out (with _angle, _turn): the same for the field in that
                     lead, one segment of one mode; present only if the lead
                     has a length
    - fwd, entry:    (mode, mode), (mode,)  the period map and entry state of
                     _bloch_fields in the role's form; present only for a
                     field solve with a band-edge frequency (_field_tables)
    - omega, band_edge:  as _bloch_fields gives them

    This is the one function that applies a field's role. Mode axes come
    first; for the pump they run over the mode pairs of _PAIRS, and its fwd
    and entry are their symmetric square. The signal's tables are
    conjugated, as J reads it.
    """
    n = spec.n_periods
    lr = field["log_ratio"]
    ratio = np.exp(lr)
    one = np.ones_like(ratio[0])
    num = np.array([[one, _power(lr[1], n)], [_power(-lr[0], n), one]])
    k, lengths = _period_segments(spec, field["omega"])
    parts = {"period": (lengths, np.stack(k), field["period"])}
    for name, length in (("lead_in", spec.lead_in_length), ("lead_out", spec.lead_out_length)):
        if length > 0:
            parts[name] = ([length], k[1][None], field[name][None, None])
    table, angles = {"ratio": ratio, "log_ratio": lr, "num": num}, {}
    table.update((name, field[name]) for name in ("fwd", "entry") if name in field)
    for name, (lengths, k, amps) in parts.items():
        lengths = np.reshape(lengths, (-1, 1, 1))      # (segment, wave, elements)
        if role == "pump":      # the (forward, backward) amplitudes of each pair
            a, b, w = _PAIRS[len(amps)]
            (x0, x1), (y0, y1) = (np.moveaxis(amps[i], 2, 0) for i in (a, b))
            amps = w[:, None, None, None] * np.stack(
                [x0 * y0, x0 * y1 + x1 * y0, x1 * y1], axis=2) * lengths
        angle = 0.5 * lengths * np.reshape(_WAVES[role], (-1, 1)) * k[:, None]
        table[name] = amps
        angles.update({name + "_angle": angle, name + "_turn": np.exp(1j * angle)})
    if role == "pump":
        a, b, w = _PAIRS[2]
        table.update(ratio=ratio[a] * ratio[b], log_ratio=lr[a] + lr[b],
                     num=num[:, a] * num[:, b])
        if "fwd" in table:      # rows (a, b)[:, None], columns (a, b)
            f, e, ra, rb = table["fwd"], table["entry"], a[:, None], b[:, None]
            table.update(fwd=(f[ra, a] * f[rb, b] + f[ra, b] * f[rb, a]) * (w / 2.0)[:, None],
                         entry=e[a] * e[b])
    elif role == "signal":
        table = {name: np.conj(v) for name, v in table.items()}
    table.update(angles, omega=field["omega"], band_edge=field["band_edge"])
    # contiguous, so that the kernel's inner loops run along frequency
    return {name: np.ascontiguousarray(v) for name, v in table.items()}


def overlap_table(spec: GratingSpec, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """J evaluated on the product grid with both pump photons at the
    energy-conserving midpoint (w1 + w2)/2.

    The two grids must be uniform, as FrequencyGrid's are, and share their
    spacing: the midpoints then live on a single uniform grid of 2n-1
    frequencies, so the factors of the structure fields are formed once per
    distinct frequency and viewed onto the grid without a copy: element
    (r, c) reads the pump at midpoint r + c.
    """
    w1, w2 = np.asarray(w1, dtype=float), np.asarray(w2, dtype=float)
    d1, d2 = _require_uniform(w1), _require_uniform(w2)
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
    return _bloch_overlap(spec, (n1, n2), max(1, _CHUNK // n2), lambda rows: tuple(
        {name: v[..., rows, :] for name, v in table.items()} for table in tables))


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


def _idler_response(spec: GratingSpec, params: NonlinearParams, j, omega_i):
    """(idler power, idler photon rate, rate per squared mW of internal pump)
    from the overlap j, elementwise; warns when the nonlinear phase
    gamma * P * L is too large for the undepleted-pump result."""
    if params.gamma * params.coupled_pump_power * spec.total_length >= 0.1:
        warnings.warn("nonlinear phase is not small; the undepleted-pump "
                      "result may be inaccurate", stacklevel=3)
    power = (params.gamma * params.coupled_pump_power) ** 2 \
        * params.coupled_signal_power * np.abs(j) ** 2
    rate = power / (HBAR * omega_i)
    pump_mw = params.coupled_pump_power / 1e-3
    return power, rate, rate / pump_mw ** 2 if pump_mw > 0 else np.zeros_like(rate)


def stimulated_idler(spec: GratingSpec, params: NonlinearParams, omega_p: float,
                     omega_s: float, omega_i: float | None = None) -> StimulatedResult:
    """Stimulated idler at one setting; the idler defaults to 2*omega_p - omega_s."""
    if omega_i is None:
        omega_i = idler_omega(omega_p, omega_s)
    j = complex(overlap_elements(spec, [omega_p], [omega_s], [omega_i])[0])
    power, rate, per_mw2 = map(float, _idler_response(spec, params, j, omega_i))
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
    w_p = omega_from_wavelength(lam_p)
    w_s = np.array([omega_from_wavelength(signal_wavelength)])
    w_i = 2.0 * w_p - w_s
    power, _, per_mw2 = _idler_response(spec, params,
                                        overlap_elements(spec, w_p, w_s, w_i), w_i)
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
    if not np.all(np.isfinite(y)):
        raise InvalidArgument(f"{column} holds a non-finite value; dip contrast undefined")
    if not np.any(y):
        raise InvalidArgument(f"{column} is zero (zero gamma, pump power or signal "
                              "power); dip contrast undefined")
    x = sweep.x
    imin = int(np.argmin(y))
    off = np.abs(x - x[imin]) > exclude_halfwidth
    if not np.any(off):
        raise InvalidArgument(f"no baseline points outside the excluded band: {sweep.x_name} "
                              f"within {exclude_halfwidth:g} of the dip at {x[imin]:g} is left "
                              f"out, and the sweep spans only {x.min():g} to {x.max():g}")
    # the median as np.median forms it, which would import numpy.ma
    ordered = np.sort(y[off])
    mid = ordered.size // 2
    baseline = float(ordered[mid] if ordered.size % 2 else (ordered[mid - 1] + ordered[mid]) / 2)
    if y[imin] <= 0 or baseline <= 0:
        raise InvalidArgument("dip contrast undefined for non-positive values")
    return DipReport(
        center_x=float(x[imin]),
        min_value=float(y[imin]),
        baseline_median=baseline,
        suppression_db=10.0 * math.log10(baseline / y[imin]),
    )

"""Core domain types: structures, pulses, windows, grids, sweep tables.

All quantities are SI (meters, seconds, watts, rad/s) unless a name says
otherwise. Every type is immutable after construction and every function is
pure, so grid points and sweep entries may be evaluated in any order.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .constants import HBAR, SPEED_OF_LIGHT as C0

__all__ = [
    "InvalidArgument", "OutOfDomain", "omega_from_wavelength", "wavelength_from_omega",
    "FrequencyGrid", "make_wavelength_grid", "grid_around_omega", "GratingSpec",
    "RingSpec", "PulseShape", "PumpPulse", "pump_spectral_amplitude",
    "CollectionWindow", "NonlinearParams", "SweepResult",
]


class InvalidArgument(ValueError):
    """A value violates a type invariant or an operation precondition."""


class OutOfDomain(ValueError):
    """Inputs are structurally valid but outside the model's validity range."""


def omega_from_wavelength(wavelength: float) -> float:
    """Vacuum wavelength (m) -> angular frequency (rad/s), elementwise."""
    return 2.0 * math.pi * C0 / wavelength


def wavelength_from_omega(omega: float) -> float:
    """Angular frequency (rad/s) -> vacuum wavelength (m), elementwise."""
    return 2.0 * math.pi * C0 / omega


def _require_finite(obj) -> None:
    """Reject NaN/Inf in the real-valued fields of a dataclass; every
    comparison with NaN is False, so the range guards alone let it through."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, numbers.Real) and not math.isfinite(value):
            raise InvalidArgument(f"{f.name} must be a finite number, got {value}")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.flags.writeable = False
    return a


def _level_crossings(x: np.ndarray, y: np.ndarray, start: int, level: float):
    """(left, right): where y, walked out from index start to each side, first
    rises from y <= level to y > level, interpolated linearly in x; None for
    a side where it never does."""
    above, below = y > level, y <= level
    left = np.flatnonzero(above[:start] & below[1:start + 1])
    right = start + np.flatnonzero(below[start:-1] & above[start + 1:])

    def cross(out: int, inside: int) -> float:
        f = (level - y[out]) / (y[inside] - y[out])
        return float(x[out] + f * (x[inside] - x[out]))

    return (cross(left[-1], left[-1] + 1) if left.size else None,
            cross(right[0] + 1, right[0]) if right.size else None)


# --------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform, strictly increasing angular-frequency grid.

    Uniformity within 1 part in 1e9 is required so that quadrature weights
    and Schmidt-decomposition weights reduce to a single scalar spacing.
    """

    points: np.ndarray
    spacing: float

    def __post_init__(self):
        pts = _readonly(self.points)
        object.__setattr__(self, "points", pts)
        _require_finite(self)
        if not np.all(np.isfinite(pts)):
            raise InvalidArgument("grid points must be finite numbers")
        _require_uniform(pts, self.spacing)
        if np.any(np.diff(pts) <= 0):
            raise InvalidArgument("grid points must be strictly increasing")

    @property
    def n_points(self) -> int:
        return int(self.points.size)

    @property
    def wavelengths(self) -> np.ndarray:
        """Vacuum wavelengths (m), decreasing along the grid."""
        return wavelength_from_omega(self.points)


def _require_uniform(points: np.ndarray, spacing: float | None = None) -> float:
    """The spacing of a 1-D grid of at least 2 points whose every step equals
    `spacing` (by default its first step) within 1e-9 of it or the float
    granularity of the points; InvalidArgument for any other grid."""
    if points.ndim != 1 or points.size < 2:
        raise InvalidArgument("grid needs at least 2 points")
    if spacing is None:
        spacing = float(points[1] - points[0])
    # tolerance covers float granularity of absolute frequencies ~1e15
    tol = max(1e-9 * abs(spacing), 8.0 * np.finfo(float).eps * float(np.max(np.abs(points))))
    if np.max(np.abs(np.diff(points) - spacing)) > tol:
        raise InvalidArgument("grid spacing is not uniform to 1e-9")
    return spacing


def make_wavelength_grid(center: float, span: float, n_points: int) -> FrequencyGrid:
    """Uniform angular-frequency grid whose endpoints are exactly the
    converted wavelengths center +- span/2.

    The middle point of an odd grid equals omega(center) only to second
    order in span/center (the exact endpoints fix the spacing).
    """
    if span <= 0 or n_points < 2:
        raise InvalidArgument("span must be > 0 and n_points >= 2")
    lo = omega_from_wavelength(center + span / 2.0)
    hi = omega_from_wavelength(center - span / 2.0)
    pts = np.linspace(lo, hi, n_points)
    return FrequencyGrid(points=pts, spacing=(hi - lo) / (n_points - 1))


def grid_around_omega(center_omega: float, full_width: float, n_points: int) -> FrequencyGrid:
    """Uniform grid spanning center_omega +- full_width/2."""
    if full_width <= 0 or n_points < 2:
        raise InvalidArgument("full_width must be > 0 and n_points >= 2")
    pts = np.linspace(center_omega - full_width / 2.0, center_omega + full_width / 2.0, n_points)
    return FrequencyGrid(points=pts, spacing=full_width / (n_points - 1))


# --------------------------------------------------------------------------
# structures


@dataclass(frozen=True)
class GratingSpec:
    """Periodically corrugated waveguide between uniform access waveguides.

    The narrow segment carries the lower effective index n_lo and occupies
    duty_cycle of each period; the unperturbed (wide) segment and both leads
    carry n_lo + delta_n. delta_n may be negative, but the model assumes a
    weak perturbation (|delta_n|/n_lo <= 0.1).
    """

    period: float
    duty_cycle: float
    n_periods: int
    n_lo: float
    delta_n: float
    lead_in_length: float = 0.0
    lead_out_length: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if self.period <= 0:
            raise InvalidArgument("period must be > 0")
        if not 0.0 < self.duty_cycle < 1.0:
            raise InvalidArgument("duty_cycle must lie strictly between 0 and 1")
        if isinstance(self.n_periods, (bool, np.bool_)) or \
                int(self.n_periods) != self.n_periods or self.n_periods < 1:
            raise InvalidArgument("n_periods must be a positive integer")
        object.__setattr__(self, "n_periods", int(self.n_periods))
        if self.n_lo <= 1.0:
            raise InvalidArgument("n_lo must exceed 1")
        if abs(self.delta_n) / self.n_lo > 0.1:
            raise InvalidArgument("|delta_n|/n_lo > 0.1 is outside the weak-corrugation model")
        if self.lead_in_length < 0 or self.lead_out_length < 0:
            raise InvalidArgument("lead lengths must be >= 0")

    @property
    def n_hi(self) -> float:
        return self.n_lo + self.delta_n

    @property
    def grating_length(self) -> float:
        return self.n_periods * self.period

    @property
    def total_length(self) -> float:
        return self.lead_in_length + self.grating_length + self.lead_out_length

    @property
    def mean_index(self) -> float:
        return self.duty_cycle * self.n_lo + (1.0 - self.duty_cycle) * self.n_hi

    @property
    def bragg_wavelength(self) -> float:
        """First-order Bragg condition 2 * mean_index * period."""
        return 2.0 * self.mean_index * self.period


@dataclass(frozen=True)
class RingSpec:
    """Side-coupled microring comparator described by its resonance triplet.

    quality_factor may be a single value shared by all three resonances or a
    (pump, signal, idler) triple. group_index is used for the round-trip time
    and the free-spectral-range sanity check; when omitted it is derived from
    the resonance spacing and the radius.
    """

    radius: float
    lambda_p: float
    lambda_s: float
    lambda_i: float
    quality_factor: object = 40000.0
    group_index: float | None = None

    def __post_init__(self):
        _require_finite(self)
        if self.radius <= 0:
            raise InvalidArgument("radius must be > 0")
        for lam in (self.lambda_p, self.lambda_s, self.lambda_i):
            if lam <= 0:
                raise InvalidArgument("resonance wavelengths must be > 0")
        q = self.quality_factor
        qs = tuple(float(x) for x in q) if np.iterable(q) else (float(q),) * 3
        if len(qs) != 3 or not all(0 < x < math.inf for x in qs):
            raise InvalidArgument("quality_factor must be positive and finite (one value or three)")
        object.__setattr__(self, "quality_factor", qs)
        if self.group_index is not None:
            rel = abs(self.group_index - self._derived_group_index()) / self._derived_group_index()
            if rel > 0.05:
                raise InvalidArgument(
                    "group_index is inconsistent with the resonance spacing "
                    f"(relative error {rel:.2%}, limit 5%)")

    @property
    def circumference(self) -> float:
        return 2.0 * math.pi * self.radius

    @property
    def fsr_omega(self) -> float:
        """Mean resonance spacing (rad/s) of the quoted triplet."""
        w_p = omega_from_wavelength(self.lambda_p)
        w_s = omega_from_wavelength(self.lambda_s)
        w_i = omega_from_wavelength(self.lambda_i)
        return 0.5 * (abs(w_s - w_p) + abs(w_i - w_p))

    def _derived_group_index(self) -> float:
        return 2.0 * math.pi * C0 / (self.fsr_omega * self.circumference)

    @property
    def group_index_effective(self) -> float:
        return self.group_index if self.group_index is not None else self._derived_group_index()

    @property
    def round_trip_time(self) -> float:
        return self.group_index_effective * self.circumference / C0

    def q_of(self, which: str) -> float:
        return dict(zip(("pump", "signal", "idler"), self.quality_factor))[which]

    def resonance_omega(self, which: str) -> float:
        lam = dict(pump=self.lambda_p, signal=self.lambda_s, idler=self.lambda_i)[which]
        return omega_from_wavelength(lam)

    def dwelling_time(self, which: str = "pump") -> float:
        """Photon lifetime Q/omega_0 at the chosen resonance."""
        return self.q_of(which) / self.resonance_omega(which)

    def linewidth(self, which: str = "pump") -> float:
        """Intensity FWHM (rad/s) of the chosen resonance."""
        return self.resonance_omega(which) / self.q_of(which)


# --------------------------------------------------------------------------
# pump pulses


class PulseShape(Enum):
    TOPHAT = "tophat"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class PumpPulse:
    """Pump envelope. duration is the full width for TOPHAT and the
    1/e-intensity half-duration for GAUSSIAN (intensity ~ exp(-t^2/duration^2)).
    """

    shape: PulseShape
    duration: float
    peak_power: float
    center_wavelength: float

    def __post_init__(self):
        try:
            object.__setattr__(self, "shape", PulseShape(self.shape))
        except ValueError:
            raise InvalidArgument(f"unknown pulse shape {self.shape!r}") from None
        _require_finite(self)
        if self.duration <= 0 or self.peak_power < 0 or self.center_wavelength <= 0:
            raise InvalidArgument("pulse duration/peak power/center wavelength out of range")

    @property
    def center_omega(self) -> float:
        return omega_from_wavelength(self.center_wavelength)

    @property
    def energy(self) -> float:
        if self.shape is PulseShape.TOPHAT:
            return self.peak_power * self.duration
        return self.peak_power * self.duration * math.sqrt(math.pi)

    @property
    def spectral_width(self) -> float:
        """Characteristic half-width (rad/s): first sinc null for TOPHAT,
        1/e half-width of |alpha|^2 for GAUSSIAN."""
        if self.shape is PulseShape.TOPHAT:
            return 2.0 * math.pi / self.duration
        return 1.0 / self.duration

    def envelope_squared_spectrum(self, detuning) -> np.ndarray:
        """G(Omega) = integral of u(t)^2 e^{i Omega t} dt, with |u(t)|^2 the
        instantaneous photon flux P(t)/(hbar omega_c). Real and positive for
        both shapes; this is the kernel of the two-pump-photon convolution.
        """
        d = np.asarray(detuning, dtype=float)
        flux0 = self.peak_power / (HBAR * self.center_omega)
        if self.shape is PulseShape.TOPHAT:
            return flux0 * self.duration * np.sinc(d * self.duration / (2.0 * math.pi))
        tau = self.duration
        return flux0 * tau * math.sqrt(math.pi) * np.exp(-(d * tau) ** 2 / 4.0)


def pump_spectral_amplitude(pulse: PumpPulse, grid: FrequencyGrid) -> np.ndarray:
    """Spectral amplitude alpha(omega) on the grid, photon-number normalized:
    (1/2pi) * integral |alpha|^2 d omega = pulse energy / (hbar omega_c).

    Raises if the grid is narrower than 20 spectral widths or if the grid
    quadrature misses more than 1% of the analytic norm (coverage error).
    """
    w0 = pulse.center_omega
    span = grid.points[-1] - grid.points[0]
    if span < 20.0 * pulse.spectral_width:
        raise InvalidArgument("grid must span at least 20 spectral widths of the pulse")
    d = grid.points - w0
    flux0 = pulse.peak_power / (HBAR * w0)
    if pulse.shape is PulseShape.TOPHAT:
        t = pulse.duration
        alpha = math.sqrt(flux0) * t * np.sinc(d * t / (2.0 * math.pi))
    else:
        tau = pulse.duration
        alpha = math.sqrt(flux0) * tau * math.sqrt(2.0 * math.pi) * np.exp(-(d * tau) ** 2 / 2.0)
    norm = np.trapezoid(np.abs(alpha) ** 2, grid.points) / (2.0 * math.pi)
    target = pulse.energy / (HBAR * w0)
    if abs(norm - target) > 0.01 * target:
        raise InvalidArgument(
            f"grid truncates the pulse spectrum ({abs(norm - target) / target:.2%} of norm)")
    return alpha


# --------------------------------------------------------------------------
# windows and nonlinear parameters


@dataclass(frozen=True)
class CollectionWindow:
    """Spectral collection interval: center wavelength and angular width."""

    center_wavelength: float
    width: float

    def __post_init__(self):
        _require_finite(self)
        if self.width <= 0:
            raise InvalidArgument("window width must be > 0")
        if self.center_wavelength <= 0:
            raise InvalidArgument("window center must be > 0")

    @property
    def center_omega(self) -> float:
        return omega_from_wavelength(self.center_wavelength)

    def grid(self, n_points: int) -> FrequencyGrid:
        return grid_around_omega(self.center_omega, self.width, n_points)


@dataclass(frozen=True)
class NonlinearParams:
    """Waveguide nonlinearity and the cw powers inside the structure.

    Powers are internal (after coupling loss). coupling_loss_db, when given,
    is the per-facet loss used to also report externally normalized rates.
    """

    gamma: float
    coupled_pump_power: float
    coupled_signal_power: float
    coupling_loss_db: float | None = None

    def __post_init__(self):
        _require_finite(self)
        if self.gamma < 0:
            raise InvalidArgument("gamma must be >= 0")
        if self.coupled_pump_power < 0 or self.coupled_signal_power < 0:
            raise InvalidArgument("powers must be >= 0")
        if self.coupling_loss_db is not None and self.coupling_loss_db < 0:
            raise InvalidArgument("coupling_loss_db must be >= 0")

    @property
    def facet_transmission(self) -> float:
        """Power transmission of one facet (1.0 when no loss is configured)."""
        if self.coupling_loss_db is None:
            return 1.0
        return 10.0 ** (-self.coupling_loss_db / 10.0)


# --------------------------------------------------------------------------
# sweep tables


_FMT = "{:.8e}"  # fixed scientific notation, 9 significant digits
_CSV_BLOCK = 1024  # rows per block of SweepResult.csv_blocks

# A cell is the _FMT text of one value in 16 byte slots, 0 where unused:
# sign, digit, ".", 8 digits, "e", exponent sign, hundreds, tens, units
# (non-finite text is left-aligned instead)
_CELL = 16
_DIGIT_SLOTS = (10, 9, 8, 7, 6, 5, 4, 3, 1)  # mantissa digits, last first
_POW10 = np.array([10.0 ** p for p in range(301)])
# a scaled value closer than this to a rounding tie is formatted by _FMT
_TIE_MARGIN = 1e-4


def _format_cells(values) -> np.ndarray:
    """The _FMT text of each value as a cell of 16 uint8 bytes, byte for
    byte equal to _FMT.format: a table of the values' shape plus an axis of 16.

    Each value is split into sign, exponent e = floor(log10|x|) and the
    9-digit mantissa m = rint(|x| 10^(8 - e)), the scale capped at 10^300.
    The scaled value is good to a few units of 1e-7, so m is exact unless
    it lies within _TIE_MARGIN of a rounding tie. Such values, non-finite
    values and values whose m is not in [1e8, 1e9) (subnormals, 9.99999999951
    whose m rounds up to 1e9) are formatted by _FMT.format instead."""
    shape = np.shape(values)
    x = np.asarray(values, dtype=float).ravel()
    a = np.abs(x)
    nonzero = np.isfinite(x) & (a != 0.0)
    e = np.zeros(x.size, dtype=np.int64)
    e[nonzero] = np.floor(np.log10(a[nonzero]))
    k = 8 - e
    scale = _POW10[np.minimum(np.abs(k), 300)]
    y = np.zeros_like(a)            # |x| 10^k, for finite nonzero x only
    np.multiply(a, scale, out=y, where=nonzero & (k >= 0))
    np.divide(a, scale, out=y, where=nonzero & (k < 0))
    m = np.rint(y)
    slow = ~np.isfinite(x) | (nonzero & ((y < 1e8) | (m >= 1e9)
                                         | (np.abs(y - np.floor(y) - 0.5) < _TIE_MARGIN)))
    m[slow] = 0
    m = m.astype(np.int32)
    non_finite = {}
    for i in np.flatnonzero(slow).tolist():
        text = _FMT.format(x[i])
        if text[-2].isdigit():      # finite: take its digits and exponent
            body = text.lstrip("-")
            m[i], e[i] = int(body[0] + body[2:10]), int(body[11:])
        else:
            non_finite[i] = text

    cells = np.zeros((x.size, _CELL), dtype=np.uint8)
    cells[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    for slot in _DIGIT_SLOTS:       # int32 by a scalar is numpy's fast division
        rest = m // 10
        cells[:, slot] = m - 10 * rest + ord("0")
        m = rest
    cells[:, 2] = ord(".")
    cells[:, 11] = ord("e")
    cells[:, 12] = np.where(e < 0, ord("-"), ord("+"))
    ae = np.abs(e).astype(np.int32)
    cells[:, 13] = np.where(ae >= 100, ae // 100 + ord("0"), 0)
    cells[:, 14] = ae // 10 % 10 + ord("0")
    cells[:, 15] = ae % 10 + ord("0")
    for i, text in non_finite.items():
        cells[i] = 0
        cells[i, :len(text)] = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return cells.reshape(*shape, _CELL)


def _csv_rows(columns) -> str:
    """CSV rows from cell tables (_format_cells), one table per column, whose
    leading axes broadcast to the rows' shape: each row, in C order, joins
    its cell of each column with commas and ends with a newline. The unused
    (zero) bytes of every cell are then deleted from the text."""
    shape = np.broadcast_shapes(*(c.shape[:-1] for c in columns))
    out = np.empty((*shape, len(columns), _CELL + 1), dtype=np.uint8)
    for j, c in enumerate(columns):
        out[..., j, :_CELL] = c
    out[..., -1] = ord(",")
    out[..., -1, -1] = ord("\n")
    return out.tobytes().translate(None, b"\0").decode("ascii")


@dataclass(frozen=True)
class SweepResult:
    """Tabulated observables against a swept abscissa.

    columns preserves insertion order; serialization is deterministic
    (fixed float formatting, no timestamps).
    """

    x_name: str
    x: np.ndarray
    columns: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "x", _readonly(self.x))
        cols = {k: _readonly(v) for k, v in self.columns.items()}
        for k, v in cols.items():
            if v.shape != self.x.shape:
                raise InvalidArgument(f"column {k!r} length does not match abscissa")
        object.__setattr__(self, "columns", cols)

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def csv_header(self) -> str:
        return ",".join([self.x_name, *self.columns]) + "\n"

    def csv_blocks(self):
        """The CSV rows, each value formatted as _FMT, in blocks of _CSV_BLOCK."""
        for lo in range(0, self.x.size, _CSV_BLOCK):
            yield _csv_rows([_format_cells(s[lo:lo + _CSV_BLOCK])
                             for s in (self.x, *self.columns.values())])

    def to_csv_text(self) -> str:
        """The header and every row."""
        return self.csv_header() + "".join(self.csv_blocks())

    def to_json_obj(self) -> dict:
        """Each array's _FMT strings by name, split from its CSV rows."""
        return {name: _csv_rows([_format_cells(v)]).split()
                for name, v in ((self.x_name, self.x), *self.columns.items())}

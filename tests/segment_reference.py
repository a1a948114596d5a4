"""Reference helpers shared by the tests.

`reference_segment_amplitudes` is the segment recursion taken one segment at
a time. `transfer._segment_amplitudes` computes the same amplitudes by
doubling over periods; the tests pin it to this form.

`overlap_segment_sum` is the oracle of record for the overlap J: the twelve
plane-wave terms of `plane_wave_integral` integrated over every uniform
segment, written independently of the Bloch kernel's factor tables.
"""

from __future__ import annotations

import numpy as np

from braggsim import model, transfer
from braggsim.constants import SPEED_OF_LIGHT as C0


def reference_layer_stack(spec):
    """(n_eff, length) tuples left to right, zero-length leads omitted."""
    layers = []
    if spec.lead_in_length > 0:
        layers.append((spec.n_hi, spec.lead_in_length))
    d_lo = spec.duty_cycle * spec.period
    d_hi = spec.period - d_lo
    for _ in range(spec.n_periods):
        layers.append((spec.n_lo, d_lo))
        layers.append((spec.n_hi, d_hi))
    if spec.lead_out_length > 0:
        layers.append((spec.n_hi, spec.lead_out_length))
    return tuple(layers)


def reference_segment_amplitudes(spec, omegas, side):
    """The segment recursion one segment at a time: the reference for
    transfer._segment_amplitudes, same signature and return."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    layers = reference_layer_stack(spec)
    n_effs = np.array([n for n, _ in layers])
    lengths = np.array([l for _, l in layers])
    z_starts = np.concatenate(([0.0], np.cumsum(lengths)[:-1]))

    m = transfer.structure_matrix(spec, omegas)
    k_amb = transfer.wavenumber(spec.n_hi, omegas)
    if side == "left":
        v = np.stack([np.ones_like(omegas, dtype=complex),
                      m[..., 1, 0] / m[..., 0, 0]])
    elif side == "right":
        v = np.stack([np.zeros_like(omegas, dtype=complex),
                      1.0 / m[..., 0, 0]])
    else:
        raise model.InvalidArgument("side must be 'left' or 'right'")

    A = np.empty((len(layers), omegas.size), dtype=complex)
    B = np.empty_like(A)
    n_prev = spec.n_hi
    k_prev = k_amb
    # cache interface matrices between the only index values that occur
    iface_cache = {}
    for j, (n_eff, length) in enumerate(layers):
        k = transfer.wavenumber(n_eff, omegas)
        key_in = (n_prev, n_eff)
        if key_in not in iface_cache:
            iface_cache[key_in] = transfer._iface_stack(k, k_prev)
        step = iface_cache[key_in]
        v = np.stack([step[..., 0, 0] * v[0] + step[..., 0, 1] * v[1],
                      step[..., 1, 0] * v[0] + step[..., 1, 1] * v[1]])
        A[j] = v[0]
        B[j] = v[1]
        phase = np.exp(1j * k * length)
        v = np.stack([v[0] * phase, v[1] / phase])
        n_prev, k_prev = n_eff, k
    return z_starts, lengths, n_effs, A, B


def upper_band_edge(spec):
    """Bisected frequency where the first-order stopband ends (q changes sign)."""
    inside = model.omega_from_wavelength(spec.bragg_wavelength)
    outside = inside * 1.01
    while True:
        mid = 0.5 * (inside + outside)
        if mid in (inside, outside):
            return outside
        _, q = transfer._bloch_cosine(spec, np.array([mid]))
        if q[0] < 0:
            inside = mid
        else:
            outside = mid


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


def plane_wave_integral(pump1, pump2, signal, idler, kp, ks, ki, length, kind):
    """integral_0^length of g_1 g_2 conj(g_s) g_i over each uniform segment,
    where each g = fwd * exp(i k u) + bwd * exp(-i k u) is given as its
    (fwd, bwd) pair: three pump plane waves times two each for signal and
    idler, twelve terms in total. The amplitudes hold one row per segment;
    the wavenumbers and lengths one row per segment kind, and kind[j] is
    the row of segment j, so each integral is evaluated once per kind."""
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
                integral = segment_exp_integral(sp * kp + ss * ks + si * ki, length)
                by_signal = by_signal + ci * integral[kind]
            by_pump = by_pump + cs * by_signal
        total = total + cp * by_pump
    return total


def overlap_segment_sum(spec, omega_p, omega_s, omega_i):
    """J element-wise as a sum over every uniform segment of the structure,
    with the fields of the forward segment recursion. The segments come in a
    few kinds (the two layers of a period, the leads), so the integrals are
    evaluated per kind and frequency. Its memory grows as segments x
    elements, so callers pass a few hundred elements at a time."""
    _, lengths, n_effs, Ap, Bp = transfer._segment_amplitudes(spec, omega_p, "left")
    _, _, _, As, Bs = transfer._segment_amplitudes(spec, omega_s, "left")
    _, _, _, Ai, Bi = transfer._segment_amplitudes(spec, omega_i, "right")
    kinds, kind = np.unique(np.column_stack([n_effs, lengths]), axis=0, return_inverse=True)
    kp, ks, ki = (np.outer(kinds[:, 0], w) / C0 for w in (omega_p, omega_s, omega_i))
    terms = plane_wave_integral((Ap, Bp), (Ap, Bp), (As, Bs), (Ai, Bi),
                                kp, ks, ki, kinds[:, 1:], kind.ravel())
    return np.sum(terms, axis=0)

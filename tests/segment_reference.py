"""Reference helpers shared by the tests.

`reference_segment_amplitudes` is the segment recursion taken one segment at
a time. `transfer._segment_amplitudes` computes the same amplitudes by
doubling over periods; the tests pin it to this form.
"""

from __future__ import annotations

import numpy as np

from braggsim import model, transfer


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

"""Shared fixtures.

The bundled scenario and the two full-resolution two-photon states are
expensive; they are session scoped so the per-module tests and the
acceptance suite reuse the same objects.
"""

from __future__ import annotations

import pytest

from braggsim import cli, quantum


@pytest.fixture(scope="session")
def scenario():
    return cli.build_scenario(cli.load_config_dict(cli.bundled_config_path()))


@pytest.fixture(scope="session")
def grating(scenario):
    return scenario.grating


@pytest.fixture(scope="session")
def params(scenario):
    return scenario.params


@pytest.fixture(scope="session")
def pulse(scenario):
    return scenario.pulse


@pytest.fixture(scope="session")
def signal_window(scenario):
    return scenario.signal_window


@pytest.fixture(scope="session")
def idler_window(scenario):
    return scenario.idler_window


@pytest.fixture(scope="session")
def bw_state(scenario):
    # ~0.5 s at the default 201x201 grid
    return quantum.two_photon_state_bw(
        scenario.grating, scenario.params, scenario.pulse,
        scenario.signal_window, scenario.idler_window,
        n_points=scenario.jsd_points)


@pytest.fixture(scope="session")
def ring_state(scenario):
    return quantum.two_photon_state_ring(
        scenario.ring, scenario.params, scenario.ring_pulse,
        n_points=scenario.jsd_points,
        span_linewidths=scenario.ring_span_linewidths)

"""Satellite-to-ground channel vectors for planar-array downlinks.

Each link is a free-space path: an amplitude set by path loss, atmospheric
attenuation and array size, a random carrier phase, and a planar-array
response whose phase progression follows the link's steering coordinates.
A link's channel is a plain read-only (n,) complex array; the channel map
of a seed maps (satellite, terminal) to it.
"""

import math

import numpy as np

from .geometry import SatelliteState, Scenario, RadioParams, distance, upa_angles


def path_loss(wavelength_m, distance_m):
    """Free-space power gain (wavelength / (4 pi distance))**2."""
    if distance_m <= 0.0:
        raise ValueError("distance must be positive")
    if wavelength_m <= 0.0:
        raise ValueError("wavelength must be positive")
    ratio = wavelength_m / (4.0 * math.pi * distance_m)
    return ratio * ratio


def upa_response(theta_x, theta_y, nx, ny):
    """Unit-norm planar-array response vector.

    Kronecker product of the two per-axis responses with entries
    exp(-j*pi*(m*theta_x + n*theta_y)) / sqrt(nx*ny); the x index is the
    major (slow) index of the flattened vector.
    """
    if nx < 1 or ny < 1:
        raise ValueError("array dimensions must be at least 1")
    vx = np.exp(-1j * math.pi * theta_x * np.arange(nx)) / math.sqrt(nx)
    vy = np.exp(-1j * math.pi * theta_y * np.arange(ny)) / math.sqrt(ny)
    return np.kron(vx, vy)


def channel_vector(sat: SatelliteState, ue, radio: RadioParams, rng) -> np.ndarray:
    """Draw the read-only (n,) channel of one link; deterministic given the
    generator state.

    The random carrier phase is common to all antennas, so co-satellite
    channels stay correlated through their steering vectors; every entry has
    the magnitude sqrt(path_gain * atmosphere_gain).
    """
    theta_x, theta_y = upa_angles(sat, ue)
    gain = path_loss(radio.wavelength_m, distance(sat.position, ue))
    phase = rng.uniform(0.0, 2.0 * math.pi)
    amplitude = math.sqrt(gain * radio.atmosphere_gain * radio.n_antennas)
    response = upa_response(theta_x, theta_y, radio.nx, radio.ny)
    h = amplitude * np.exp(-1j * phase) * response
    h.setflags(write=False)
    return h


def build_channel_map(scenario: Scenario, rng):
    """Channel map: (satellite id, terminal) -> that link's :func:`channel_vector`,
    drawn satellite by satellite, terminals in order."""
    channels = {}
    for sat in scenario.satellites:
        for c in range(scenario.n_ues):
            channels[(sat.id, c)] = channel_vector(sat, scenario.ues[c], scenario.radio, rng)
    return channels

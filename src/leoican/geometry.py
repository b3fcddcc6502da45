"""Geometric snapshot of a LEO constellation over a hexagonal cell grid.

Everything is expressed in an Earth-centered Cartesian frame (meters) on a
spherical Earth. A scenario is a single instant in time: satellite positions
with nadir-pointing planar-array frames, one user terminal per cell, and the
radio parameters shared by every link.
"""

import math
from dataclasses import dataclass, field

import numpy as np

EARTH_RADIUS_M = 6_371_000.0
SPEED_OF_LIGHT_M_S = 299_792_458.0

# local frame of the cell grid, whose center is EARTH_RADIUS_M * UP
UP = np.array([1.0, 0.0, 0.0])
EAST = np.array([0.0, 1.0, 0.0])
NORTH = np.array([0.0, 0.0, 1.0])


class ScenarioGenerationError(RuntimeError):
    """Satellite sampling failed to meet separation/visibility constraints."""


def db_to_linear(db):
    """Linear value of ``db`` decibels; ``inf`` beyond the float range."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class RadioParams:
    """Link-budget parameters shared by all satellites in a scenario.

    The fields are the keys of a config's ``radio`` section, with the
    reference configuration (4 GHz / 50 MHz, 4x4 arrays) as defaults. The
    links read the linear values ``beam_power_w``, ``noise_power_w`` (over
    the full bandwidth) and ``atmosphere_gain`` (<= 1 for a loss).

    Attributes
    ----------
    frequency_hz : float
        Carrier frequency.
    bandwidth_hz : float
        Bandwidth allocated to each satellite.
    beam_power_dbw : float
        Transmit power budget of a single beam.
    noise_density_dbm_hz : float
        Receiver noise power spectral density.
    atmosphere_loss_db : float
        Atmospheric attenuation.
    nx, ny : int
        Planar-array element counts along the two array axes.
    """

    frequency_hz: float = 4.0e9
    bandwidth_hz: float = 50.0e6
    beam_power_dbw: float = 26.0
    noise_density_dbm_hz: float = -174.0
    atmosphere_loss_db: float = 0.5
    nx: int = 4
    ny: int = 4

    @property
    def beam_power_w(self) -> float:
        return db_to_linear(self.beam_power_dbw)

    @property
    def noise_power_w(self) -> float:
        return db_to_linear(self.noise_density_dbm_hz - 30.0) * self.bandwidth_hz

    @property
    def atmosphere_gain(self) -> float:
        return db_to_linear(-self.atmosphere_loss_db)

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_M_S / self.frequency_hz

    @property
    def n_antennas(self) -> int:
        return self.nx * self.ny


@dataclass(frozen=True)
class ScenarioSpec:
    """Input knobs for :func:`generate_scenario`."""

    n_satellites: int = 7
    n_cells: int = 7
    altitude_m: float = 600.0e3
    cell_radius_m: float = 43.3e3
    min_elevation_deg: float = 20.0
    min_separation_deg: float = 15.0
    cap_halfangle_deg: float = 8.0
    radio: RadioParams = field(default_factory=RadioParams)


@dataclass(frozen=True)
class SatelliteState:
    """One satellite: position plus the orthonormal frame of its planar array.

    ``frame`` rows are (x-axis, y-axis, boresight); the boresight points at
    the sub-satellite point (nadir) and the x-axis follows local East.
    """

    id: int
    position: np.ndarray
    frame: np.ndarray


@dataclass(frozen=True)
class Scenario:
    """Immutable world state for one experiment snapshot."""

    satellites: tuple
    ues: np.ndarray
    radio: RadioParams
    seed: int

    @property
    def n_satellites(self) -> int:
        return len(self.satellites)

    @property
    def n_ues(self) -> int:
        return self.ues.shape[0]


def distance(a, b):
    """Euclidean distance between two points (meters)."""
    return float(np.linalg.norm(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))


def elevation_deg(ue, sat_position):
    """Elevation of a satellite above the local horizon at a ground point."""
    ue = np.asarray(ue, dtype=float)
    up = ue / np.linalg.norm(ue)
    los = np.asarray(sat_position, dtype=float) - ue
    los = los / np.linalg.norm(los)
    return math.degrees(math.asin(np.clip(np.dot(los, up), -1.0, 1.0)))


def nadir_frame(position):
    """Orthonormal (x, y, boresight) triad for a nadir-pointing array.

    The boresight points from the satellite toward the Earth's center and the
    x-axis follows the projection of local East; a satellite directly over a
    pole falls back to the global x direction.
    """
    position = np.asarray(position, dtype=float)
    radial = position / np.linalg.norm(position)
    east = np.cross([0.0, 0.0, 1.0], radial)
    if np.linalg.norm(east) < 1e-9:
        east = np.cross(radial, [1.0, 0.0, 0.0])
    x_axis = east / np.linalg.norm(east)
    boresight = -radial
    y_axis = np.cross(boresight, x_axis)
    return np.vstack([x_axis, y_axis, boresight])


def hex_grid_offsets(count, cell_radius_m):
    """Planar (east, north) offsets of `count` hexagonal cell centers.

    Cells are laid out in a spiral (center first, then successive rings);
    adjacent centers are sqrt(3) * cell_radius apart.
    """
    pitch = math.sqrt(3.0) * cell_radius_m
    # axial coordinates of the six ring-walk directions
    directions = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
    axial = [(0, 0)]
    ring = 1
    while len(axial) < count:
        q, r = ring, 0
        for dq, dr in directions[2:] + directions[:2]:
            for _ in range(ring):
                if len(axial) >= count:
                    break
                axial.append((q, r))
                q, r = q + dq, r + dr
        ring += 1
    offsets = np.empty((count, 2))
    for i, (q, r) in enumerate(axial[:count]):
        offsets[i, 0] = pitch * (q + 0.5 * r)
        offsets[i, 1] = pitch * (math.sqrt(3.0) / 2.0) * r
    return offsets


def terminal_positions(spec: ScenarioSpec):
    """User terminals at the hexagonal cell centers around the grid center,
    on the sphere: an (n_cells, 3) array."""
    offsets = hex_grid_offsets(spec.n_cells, spec.cell_radius_m)
    center = EARTH_RADIUS_M * UP
    ues = center[None, :] + offsets[:, 0:1] * EAST[None, :] + offsets[:, 1:2] * NORTH[None, :]
    ues *= EARTH_RADIUS_M / np.linalg.norm(ues, axis=1, keepdims=True)
    return ues


def zenith_elevation_deg(spec: ScenarioSpec):
    """Lowest elevation of the zenith satellite over the terminals: the
    largest ``min_elevation_deg`` that :func:`generate_scenario` can meet."""
    zenith = (EARTH_RADIUS_M + spec.altitude_m) * UP
    return min(elevation_deg(ue, zenith) for ue in terminal_positions(spec))


def generate_scenario(spec: ScenarioSpec, seed: int) -> Scenario:
    """Generate a deterministic scenario from a spec and a seed.

    User terminals sit at the hexagonal cell centers around a fixed reference
    point on the sphere. The first satellite is placed at the zenith of that
    point; the remaining ones are rejection-sampled inside a spherical cap so
    that every pair keeps the configured minimum angular separation (as seen
    from the grid center) and every satellite sees every terminal above the
    minimum elevation.

    Raises
    ------
    ScenarioGenerationError
        If the separation/visibility constraints cannot be met after a
        bounded number of retries.
    """
    if spec.n_satellites < 1 or spec.n_cells < 1:
        raise ValueError("need at least one satellite and one cell")
    if spec.altitude_m <= 0 or spec.cell_radius_m <= 0:
        raise ValueError("altitude and cell radius must be positive")

    if zenith_elevation_deg(spec) < spec.min_elevation_deg:
        raise ScenarioGenerationError("zenith satellite violates the elevation constraint")

    rng = np.random.default_rng((int(seed), 0))
    center = EARTH_RADIUS_M * UP
    ues = terminal_positions(spec)

    orbit_radius = EARTH_RADIUS_M + spec.altitude_m
    cos_cap = math.cos(math.radians(spec.cap_halfangle_deg))
    min_sep = math.radians(spec.min_separation_deg)

    def visible_to_all(pos):
        return all(elevation_deg(ue, pos) >= spec.min_elevation_deg for ue in ues)

    def separation_ok(pos, accepted):
        d_new = pos - center
        d_new = d_new / np.linalg.norm(d_new)
        for other in accepted:
            d_old = other - center
            d_old = d_old / np.linalg.norm(d_old)
            if math.acos(np.clip(np.dot(d_new, d_old), -1.0, 1.0)) < min_sep:
                return False
        return True

    positions = [orbit_radius * UP]

    max_tries = 2000
    while len(positions) < spec.n_satellites:
        for attempt in range(max_tries + 1):
            if attempt == max_tries:
                raise ScenarioGenerationError(
                    f"could not place satellite {len(positions)} after {max_tries} tries; "
                    "relax min_separation_deg or enlarge cap_halfangle_deg"
                )
            cos_psi = rng.uniform(cos_cap, 1.0)
            sin_psi = math.sqrt(max(0.0, 1.0 - cos_psi * cos_psi))
            azimuth = rng.uniform(0.0, 2.0 * math.pi)
            direction = cos_psi * UP + sin_psi * (math.cos(azimuth) * EAST + math.sin(azimuth) * NORTH)
            candidate = orbit_radius * direction
            if visible_to_all(candidate) and separation_ok(candidate, positions):
                positions.append(candidate)
                break

    satellites = tuple(
        SatelliteState(id=i, position=pos, frame=nadir_frame(pos))
        for i, pos in enumerate(positions)
    )
    ues.setflags(write=False)
    return Scenario(
        satellites=satellites,
        ues=ues,
        radio=spec.radio,
        seed=int(seed),
    )


def upa_angles(sat: SatelliteState, ue):
    """Steering coordinates of a ground terminal in a satellite's array frame.

    The satellite-to-terminal unit direction is expressed in the array frame;
    with polar angle measured from the frame's y-axis and azimuth measured in
    the x/boresight plane, the returned pair is
    (sin(polar) * cos(azimuth), cos(polar)). Both values lie in [-1, 1].

    Raises
    ------
    ValueError
        If the terminal lies behind the array plane.
    """
    los = np.asarray(ue, dtype=float) - sat.position
    los = los / np.linalg.norm(los)
    ux, uy, uz = sat.frame @ los
    if uz < -1e-12:
        raise ValueError("terminal is behind the array plane")
    polar = math.acos(np.clip(uy, -1.0, 1.0))
    azimuth = math.atan2(uz, ux)
    return math.sin(polar) * math.cos(azimuth), math.cos(polar)

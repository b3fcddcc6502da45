"""Joint beamforming and satellite selection for LEO networks that serve
communication and navigation with the same downlink signal."""

from .geometry import (
    EARTH_RADIUS_M,
    RadioParams,
    SatelliteState,
    Scenario,
    ScenarioGenerationError,
    ScenarioSpec,
    default_radio,
    distance,
    generate_scenario,
    upa_angles,
)
from .channel import ChannelVector, build_channel_map, channel_vector, path_loss, upa_response
from .metrics import gdop, geometry_matrix, per_ue_rates, rates_from_gains
from .convex_kernel import SurrogateCore, SurrogateSolution, quadforms, solve_surrogate
from .beamforming import (
    DcTrace,
    ZeroForcingRankError,
    ZeroForcingSizeError,
    dc_beamforming,
    make_engine,
    rank1_extract,
)
from .selection import (
    InfeasibleSelectionError,
    StructureEvaluator,
    build_preference_list,
    cfg_selection,
    gdop_greedy_selection,
    gdop_selection,
    gdop_tables,
)
from .harness import (
    DEFAULT_SCHEMES,
    ExperimentConfig,
    ExperimentReport,
    SchemeId,
    emit_reports,
    run_experiment,
)

__version__ = "0.1.0"

"""faradaycorr: time-ordered spin correlations via weak Faraday-rotation shots.

Exact superoperator evaluation, an all-orders interferometric pipeline,
stochastic photon-counting trajectories, and closed-form SNR feasibility.
"""

__version__ = "0.1.0"

from .correlations import (  # noqa: F401
    BranchSign,
    CorrelationQuery,
    correlation,
    correlation_grid,
)
from .quantum_core import (  # noqa: F401
    DensityMatrix,
    SpectralData,
    TargetModel,
    pure_state,
    spin_operators,
    thermal_state,
)
from .sensor_optics import (  # noqa: F401
    MeasurementBasis,
    SensorConfig,
)
from .snr import (  # noqa: F401
    FeasibilityReport,
    SnrScenario,
    faraday_angle,
    lihof4_scenario,
    snr_kth_order,
    snr_material,
)
from .trajectory_mc import (  # noqa: F401
    ClassicalFieldModel,
    FieldKind,
    McEstimate,
    TrajectoryConfig,
    empirical_snr,
    run_sequences,
)
from .weak_measurement import (  # noqa: F401
    GkResult,
    ProtocolSpec,
    ShotSpec,
    gk_exact_unitary,
    gk_leading,
    protocol_grids,
)

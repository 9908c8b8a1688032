"""Simulation and reconstruction of bandlimited fields under linear PDEs,
sampled by a location- and time-unaware mobile sensor."""

__version__ = "0.1.0"

from .errors import (
    ConfigInvalid,
    DegenerateFit,
    DegenerateRoots,
    FieldReconError,
    InfeasiblePde,
    InsufficientSamples,
    RankDeficient,
    UnknownScenario,
)
from .pde_core import (
    HarmonicRoots,
    PdeSpec,
    StabilityReport,
    characteristic_roots,
    check_stability,
    eval_poly,
    solve_initial_coefficients,
)
from .field import (
    CATALOG,
    CatalogEntry,
    FieldState,
    catalog_entry,
    coefficients_at,
    evaluate,
    evaluate_at_points,
    field_from_mode_values,
    random_real_field,
    scenario_field,
)
from .sampling import (
    NoiseSpec,
    PathBlock,
    RenewalSpec,
    draw_path,
    draw_paths,
    grid_deviation,
    sample_field,
)
from .streams import substream
from .estimator import (
    ConditionReport,
    DesignMatrix,
    ReconstructionResult,
    build_design_matrix,
    condition_diagnostics,
    reconstruct,
)
from .oracle import (
    bandlimit_preservation_check,
    grid_deviation_scaling,
    integrate_coefficient_ode,
)
from .experiments import (
    ExperimentConfig,
    SweepResult,
    distortion,
    fit_loglog_slope,
    load_config,
    run_sweep,
)

"""Continuous surrogates for discontinuous cellwise coefficient fields.

Fits closed-form, mesh-independent reconstructions of piecewise-constant
data using Shepard-normalized Gaussian RBF dictionaries with Elastic Net
regression, residual-driven adaptive enrichment, and embarrassingly parallel
domain decomposition, plus a P1 Darcy solver to measure downstream impact.
"""

from .adaptive import (
    AdaptiveConfig,
    RoundReport,
    enrich,
    fit_adaptive,
    mark,
    reports_to_csv,
    residual_indicators,
)
from .darcy import (
    DarcyProblem,
    PressureSolution,
    Triangulation,
    line_mesh,
    pressure_rel_error,
    solve_darcy,
    triangulate,
    write_pressure_text,
)
from .elastic_net import ElasticNetConfig, FitResult, fit, fit_log_field, soft_threshold
from .errors import ConfigError, DataError, FieldfitError, NumericalError
from .fields import (
    FieldData,
    SubdomainField,
    box_field_2d,
    relative_l2_error,
    smooth_field_2d,
    step_field_1d,
)
from .geometry import Box, Mesh, build_mesh, locate_many
from .io import read_field, read_spe10, write_field, write_grid_csv
from .partition import (
    DictionarySpec,
    GlobalSurrogate,
    ParallelFitReport,
    Partition,
    fit_parallel,
    load,
    make_partition,
    save,
)
from .rbf import (
    LocalSurrogate,
    RbfDictionary,
    centroid_dictionary,
    lattice_dictionary,
    shepard_eval,
    shepard_features,
)
from .step_approx import (
    L1ErrorResult,
    StepInterfaceSpec,
    error_grid,
    heaviside,
    l1_error,
    logistic_profile,
    two_center_shepard,
)

__version__ = "0.1.0"

"""Filtering and retrodictive smoothing for continuously monitored qubits."""

from .channels import CPMap, DimMismatchError, adjoint_apply, apply, compose, petz_recover
from .classical import ConditionalKernel
from .dynamics import (
    InvalidParamsError,
    ModelParams,
    StepOperators,
    build_step_operators,
    filter_trajectory,
    unconditional_series,
)
from .ensemble import EnsembleSpec, run_ensemble
from .qmath import NotPSDError, ZeroTraceError, hermitian_sqrt, min_eigenvalue, pinv_sqrt
from .smoothing import (
    DegenerateWeightsError,
    SmoothingResult,
    gw_smooth,
    petz_fuchs,
    petz_fuchs_recursive,
    retrofilter,
    smooth_trajectory,
    swv_state,
)

__version__ = "0.1.0"

"""Iterative matrix inversion and least-squares estimation via factored
matrix power series, with an instrumented multiplication cost model."""

from .matrix_core import (
    MulCounter,
    SpectralRadiusError,
    fro_norm,
    inf_norm,
    load_matrix,
    load_vector,
    mat_mul,
    mat_vec,
    residual_of,
    save_matrix,
    save_vector,
    spectral_radius,
    square_matrix,
    vector,
)
from .splitting import (
    NotSPDError,
    Splitting,
    is_positive_definite,
    split_scalar,
)
from .series_toolkit import (
    FactorPlan,
    Horner,
    PrimeWrap,
    Split,
    TableForm,
    efficiency_index,
    factored_eval,
    factored_mmm,
    geometric_apply,
    horner_eval,
    nested_eval,
    plan_order,
    plan_str,
    split_candidates,
    table_plans,
)
from .newton_schulz import (
    CompositeSpec,
    DoubleNsState,
    NsState,
    additive_correction_step,
    additive_exponents,
    classical_exponent,
    composite_exponent,
    composite_step,
    double_exponent,
    double_ns_step,
    initial_double,
    initial_series,
    ns_step,
)
from .richardson import (
    RichardsonState,
    cumulative_exponent,
    cumulative_exponent_closed,
    initial_richardson,
    richardson_recursive_step,
    richardson_step,
    step_exponent_general,
)
from .harness import (
    HarmonicRegressorSpec,
    MethodSpec,
    RunRecord,
    condition_number,
    emit_exponent_surface,
    emit_mmm_surface,
    gen_harmonic_matrix,
    parse_run_records,
    records_to_csv,
    run_comparison,
    toolkit_check,
)

__version__ = "0.1.0"

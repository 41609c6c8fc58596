"""Entropic optimal transport on grid measures with regularity diagnostics."""

from .couplings import (
    AffineFit,
    Coupling,
    HashRegion,
    affine_fit,
    check_marginals,
    diagonal_coupling,
    load_coupling,
    local_energy,
    long_trajectory_stats,
    monge_coupling,
    radius_scan_rows,
    save_coupling,
)
from .errors import (
    AdmissibilityError,
    CertificateError,
    ConfigError,
    DomainError,
    EotlabError,
    MassMismatchError,
    SizeError,
    SmallnessError,
)
from .grids import (
    DataTermReport,
    GridMeasure,
    GridSpec,
    data_term,
    density_at,
    holder_seminorm,
    load_measure,
    make_measure,
    measure_from_density,
    save_measure,
    symmetric_grid,
)
from .regularity import (
    CampanatoTrace,
    DefectReport,
    HarmonicFit,
    OneStepOutcome,
    RegularityConfig,
    campanato_iterate,
    expansion_experiment,
    fit_harmonic_displacement,
    harmonic_fit,
    long_traj_experiment,
    one_step,
    quasimin_defect,
    soft_lemma_check,
)
from .scalings import (
    Scaling,
    apply_to_coupling,
    apply_to_measures,
    compose,
    identity_scaling,
    normalizing_scaling,
    transform_source_atoms,
    transform_target_atoms,
)
from .solvers import (
    ExactOTResult,
    SinkhornResult,
    SinkhornStage,
    entropic_cost,
    exact_ot,
    gibbs_identity_check,
    sinkhorn,
)

__version__ = "0.1.0"

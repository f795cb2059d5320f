"""Invert nonlinear dimensionality-reduction embeddings with RBF interpolation.

The package builds the forward map (Laplacian eigenmaps on the symmetric
normalized kernel), fits the approximate inverse by interpolating each
coordinate function with radial basis functions (cubic with a linear tail by
default, Gaussian and Shepard baselines), and ships the diagnostics used to
study kernel conditioning, leave-one-out convergence, and the Nystrom
extension's behavior under sparsification.
"""

__version__ = "0.1.0"

from .dataset import (
    PointCloud,
    fill_distance,
    load_cloud,
    local_fill_distance,
    random_unitary_embed,
    sample_sphere,
    save_cloud,
)
from .embedding import (
    Embedding,
    embedding_from_kernel,
    laplacian_eigenmaps,
    load_embedding,
    save_embedding,
    unisolvency_rank,
)
from .inverse import (
    InterpolationError,
    NeighborhoodPolicy,
    RbfModel,
    ScaleUnderflowError,
    SingularSystemError,
    UnisolvencyError,
    eval_rbf,
    fit_local_rbf,
    fit_rbf,
    load_model,
    save_model,
    shepard_eval,
)
from .kernels import (
    KernelSpec,
    condition_number,
    cubic,
    degree_vector,
    eval_kernel,
    gaussian,
    kernel_matrix,
    radial_power,
    sparsify,
    thin_plate,
)
from .nystrom import (
    ExtensionResult,
    ScanProfile,
    ZeroDegreeError,
    discontinuity_scan,
    nystrom_extend,
    nystrom_via_rbf,
    scan_to_csv,
)
from .evaluation import (
    ConditioningConfig,
    CondRow,
    LooFolds,
    LooReport,
    SphereConfig,
    SweepResult,
    SweepRow,
    TableRow,
    conditioning_sweep,
    convergence_sweep,
    loo_error,
    loo_folds,
    scale_table,
    sphere_pipeline,
    sweep_to_csv,
)

"""seqclust: sequential robust clustering.

Single-pass, constant-memory-per-cluster clustering built around a
stochastic-gradient k-medians recursion with iterate averaging, plus the
MacQueen recursive k-means, a PAM baseline for small samples, evaluation
metrics, data generators and a benchmark harness.
"""

__version__ = "0.1.0"

from .core import (
    Dataset,
    FitReport,
    assign_nearest,
    normalized_distances,
    read_csv,
    read_model,
    write_csv,
    write_model,
)
from .metrics import cer, empirical_l1_risk
from .kmeans import KMeansState, kmeans_fit, kmeans_init, kmeans_step
from .kmedians import (
    GainConfig,
    KMediansState,
    kmedians_fit,
    kmedians_fit_data_driven,
    kmedians_init,
    kmedians_step,
    kmedians_stream,
    mc_gradient,
    state_from_model,
)
from .pam import PamSizeError, pam_fit
from .recursion import draw_seeds
from .datagen import (
    Sim1Config,
    Sim2Config,
    profiles_sample,
    save_dataset,
    sim1_sample,
    sim2_sample,
)

__all__ = [
    "Dataset",
    "FitReport",
    "GainConfig",
    "KMeansState",
    "KMediansState",
    "PamSizeError",
    "Sim1Config",
    "Sim2Config",
    "assign_nearest",
    "cer",
    "draw_seeds",
    "empirical_l1_risk",
    "kmeans_fit",
    "kmeans_init",
    "kmeans_step",
    "kmedians_fit",
    "kmedians_fit_data_driven",
    "kmedians_init",
    "kmedians_step",
    "kmedians_stream",
    "mc_gradient",
    "normalized_distances",
    "pam_fit",
    "profiles_sample",
    "read_csv",
    "read_model",
    "save_dataset",
    "sim1_sample",
    "sim2_sample",
    "state_from_model",
    "write_csv",
    "write_model",
]

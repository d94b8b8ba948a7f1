"""Quality functions for HBEs: sensitive originals and DP-ready variants."""

from .exclusivity import exclusivity_low_sens, exclusivity_range, mixed_score
from .distances import (
    jensen_shannon_distance,
    jensen_shannon_divergence,
    jsd_counts,
    normalize_counts,
    tvd_counts,
    tvd_probs,
)
from .diversity import (
    diversity_range,
    global_diversity_low_sens,
    global_diversity_sensitive,
    pair_diversity_low_sens,
)
from .interestingness import (
    global_interestingness_low_sens,
    global_interestingness_tvd,
    interestingness_jsd,
    interestingness_low_sens,
    interestingness_tvd,
)
from .scores import (
    SCORE_SENSITIVITY,
    SENSITIVE_SCORE_SENSITIVITY,
    Weights,
    global_score,
    global_score_range,
    sensitive_single_cluster_score,
    single_cluster_score,
    single_cluster_scores_matrix,
    single_cluster_scores_matrix_reference,
)
from .sufficiency import (
    cluster_sufficiency_normalized,
    global_sufficiency_low_sens,
    global_sufficiency_sensitive,
    sufficiency_low_sens,
)

__all__ = [
    "exclusivity_low_sens",
    "exclusivity_range",
    "mixed_score",
    "jensen_shannon_distance",
    "jensen_shannon_divergence",
    "jsd_counts",
    "normalize_counts",
    "tvd_counts",
    "tvd_probs",
    "diversity_range",
    "global_diversity_low_sens",
    "global_diversity_sensitive",
    "pair_diversity_low_sens",
    "global_interestingness_low_sens",
    "global_interestingness_tvd",
    "interestingness_jsd",
    "interestingness_low_sens",
    "interestingness_tvd",
    "SCORE_SENSITIVITY",
    "SENSITIVE_SCORE_SENSITIVITY",
    "Weights",
    "global_score",
    "global_score_range",
    "sensitive_single_cluster_score",
    "single_cluster_score",
    "single_cluster_scores_matrix",
    "single_cluster_scores_matrix_reference",
    "cluster_sufficiency_normalized",
    "global_sufficiency_low_sens",
    "global_sufficiency_sensitive",
    "sufficiency_low_sens",
]

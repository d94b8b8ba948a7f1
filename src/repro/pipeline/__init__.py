"""End-to-end private pipeline: DP clustering + DP explanation, one ledger.

The paper's evaluation clusters with DP-k-means (eps = 1) *before*
explaining; this package turns that two-stage workflow into a
budget-audited object, :class:`PrivatePipeline`, which
:class:`~repro.session.PrivateAnalysisSession` builds on.  The
:class:`ClusteringSpec` release identity is shared more widely: the batched
sweep layer (:func:`~repro.evaluation.sweeps.run_pipeline_batched`) and the
explanation service's ``/v1/pipeline`` route call :meth:`ClusteringSpec.fit`
directly.

Quickstart::

    from repro import diabetes_like
    from repro.pipeline import ClusteringSpec, PrivatePipeline
    from repro.privacy.budget import PrivacyAccountant

    data = diabetes_like(n_rows=20_000)
    pipe = PrivatePipeline(data, PrivacyAccountant(limit=2.0), rng=0)
    spec = ClusteringSpec("dp-kmeans", n_clusters=5, epsilon=1.0)
    result = pipe.run(spec)                  # charges 1.0 + 0.3
    again = pipe.run(spec)                   # reuses the fit: charges 0.3
    assert not again.refit
"""

from .pipeline import PipelineResult, PrivatePipeline
from .spec import PIPELINE_METHODS, ClusteringSpec

__all__ = [
    "PipelineResult",
    "PrivatePipeline",
    "PIPELINE_METHODS",
    "ClusteringSpec",
]

"""End-to-end private pipeline: DP clustering + DP explanation, one ledger.

The paper's evaluation clusters with DP-k-means (eps = 1) *before*
explaining.  :class:`ClusteringSpec` names one such DP fit precisely enough
to charge it to the explanation's ledger and to recognise a repeat as the
same release.  Three front ends run the two stages under one ledger:
:meth:`~repro.session.PrivateAnalysisSession.run_pipeline` (single analyst,
fit-or-reuse within the session),
:func:`~repro.evaluation.sweeps.run_pipeline_batched` (fit once, explain a
seed sweep) and the explanation service's ``/v1/pipeline`` route.

Quickstart::

    from repro import PrivateAnalysisSession, diabetes_like
    from repro.pipeline import ClusteringSpec

    data = diabetes_like(n_rows=20_000)
    session = PrivateAnalysisSession(data, total_epsilon=2.0, seed=0)
    spec = ClusteringSpec("dp-kmeans", n_clusters=5, epsilon=1.0)
    result = session.run_pipeline(spec)      # charges 1.0 + 0.3
    again = session.run_pipeline(spec)       # reuses the fit: charges 0.3
    assert not again.refit
"""

from .spec import PIPELINE_METHODS, ClusteringSpec, PipelineResult

__all__ = [
    "PipelineResult",
    "PIPELINE_METHODS",
    "ClusteringSpec",
]

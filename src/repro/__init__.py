"""DPClustX — Differentially Private Explanations for Clusters (SIGMOD 2025).

A full reproduction of Gilad, Milo, Razmadze & Zadicario's framework for
histogram-based explanations of black-box clustering results under pure
epsilon-differential privacy, including every substrate it relies on
(tabular datasets with finite domains, DP primitives, five clustering
algorithms, synthetic stand-ins for the paper's datasets) and the three
baselines of its experimental study.

Quickstart::

    from repro import DPClustX, KMeans, diabetes_like, describe

    data = diabetes_like(n_rows=20_000)
    clustering = KMeans(n_clusters=5).fit(data, rng=0)
    explanation = DPClustX().explain(data, clustering, rng=0)
    print(explanation.render())
    print(describe(explanation))
"""

from .baselines import DPNaive, DPTabEE, TabEE
from .clustering import (
    Agglomerative,
    ClusteringFunction,
    DPKMeans,
    DPKModes,
    GaussianMixture,
    KMeans,
    KModes,
)
from .core import (
    AttributeCombination,
    ClusteredCounts,
    CountsStack,
    DPClustX,
    GlobalExplanation,
    MultiDPClustX,
    ScoringEngine,
    SingleClusterExplanation,
    Weights,
    describe,
    scoring_engine,
    select_candidates,
)
from .dataset import Attribute, Dataset, Schema
from .evaluation import QualityEvaluator, mae, quality
from .privacy import (
    ExplanationBudget,
    ExponentialMechanism,
    GeometricHistogram,
    LaplaceHistogram,
    OneShotTopK,
    PrivacyAccountant,
)
from .pipeline import ClusteringSpec, PipelineResult
from .session import PrivateAnalysisSession
from .synth import census_like, diabetes_like, stackoverflow_like

__version__ = "1.0.0"

__all__ = [
    "DPNaive",
    "DPTabEE",
    "TabEE",
    "Agglomerative",
    "ClusteringFunction",
    "DPKMeans",
    "DPKModes",
    "PrivateAnalysisSession",
    "ClusteringSpec",
    "PipelineResult",
    "GaussianMixture",
    "KMeans",
    "KModes",
    "AttributeCombination",
    "ClusteredCounts",
    "CountsStack",
    "DPClustX",
    "GlobalExplanation",
    "MultiDPClustX",
    "ScoringEngine",
    "SingleClusterExplanation",
    "Weights",
    "describe",
    "scoring_engine",
    "select_candidates",
    "Attribute",
    "Dataset",
    "Schema",
    "QualityEvaluator",
    "mae",
    "quality",
    "ExplanationBudget",
    "ExponentialMechanism",
    "GeometricHistogram",
    "LaplaceHistogram",
    "OneShotTopK",
    "PrivacyAccountant",
    "census_like",
    "diabetes_like",
    "stackoverflow_like",
    "__version__",
]

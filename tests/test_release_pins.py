"""Golden digests of every explainer's histogram releases and ledger rows.

Six explainers (DPClustX, DP-TabEE, MultiDPClustX, ``explain_with_pairs``,
DP-Naive, the manual-EDA session) run under three histogram mechanisms
(Geometric, Laplace, Hierarchical) over a few seeds on two tables: a
Diabetes-like one whose selected attributes have ragged domain widths, and a
uniform one whose attributes all share one width.  Every released histogram
and every ledger row's ``(units, composition)`` pair is folded into one
SHA-256 per (explainer, mechanism).  Charge labels are left out: they are
display text, and no caller reads them.

The digests were recorded before Algorithm 2's histogram stage was
written once for all explainers, so "the same noise on the same stream,
charged the same way" survives any rewrite of the release code.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.baselines.dp_naive import DPNaive
from repro.baselines.dp_tabee import DPTabEE
from repro.baselines.manual_eda import ManualEDASession
from repro.core.counts import ClusteredCounts
from repro.core.dpclustx import DPClustX
from repro.core.multi import MultiDPClustX
from repro.core.pairs import ProductCounts, explain_with_pairs
from repro.dataset import Dataset, Schema
from repro.privacy.budget import PrivacyAccountant
from repro.privacy.hierarchical import HierarchicalHistogram
from repro.privacy.histograms import GeometricHistogram, LaplaceHistogram
from repro.synth import diabetes_like

from helpers import CodeModuloClustering

SEEDS = (0, 1, 2, 3, 4)

MECHANISMS = {
    "geometric": lambda: GeometricHistogram(1.0),
    "laplace": lambda: LaplaceHistogram(1.0),
    "hierarchical": lambda: HierarchicalHistogram(1.0),
}


def _tables():
    ragged = diabetes_like(n_rows=600, n_groups=3, seed=5)
    rng = np.random.default_rng(11)
    uniform = Dataset(
        Schema.from_domains(
            {f"u{i}": tuple(f"v{j}" for j in range(4)) for i in range(5)}
        ),
        {f"u{i}": rng.integers(0, 4, size=300) for i in range(5)},
    )
    return [
        (ragged, CodeModuloClustering("age", 3)),
        (uniform, CodeModuloClustering("u0", 3)),
    ]


def _explanation_parts(expl):
    for entry in expl.per_cluster:
        for e in entry if isinstance(entry, tuple) else (entry,):
            yield e.attribute.name
            yield e.hist_cluster
            yield e.hist_rest


def _run(name, mech, dataset, clustering, counts, seed, acct):
    if name == "DPClustX":
        expl = DPClustX(histogram_mechanism=mech).explain(
            dataset, clustering, seed, acct, counts=counts
        )
        return list(_explanation_parts(expl))
    if name == "DPTabEE":
        expl = DPTabEE(histogram_mechanism=mech).explain(
            dataset, clustering, seed, acct, counts=counts
        )
        return list(_explanation_parts(expl))
    if name == "MultiDPClustX":
        expl = MultiDPClustX(ell=2, histogram_mechanism=mech).explain(
            dataset, clustering, seed, acct, counts=counts
        )
        return list(_explanation_parts(expl))
    if name == "pairs":
        a, b, c = counts.names[:3]
        pc = ProductCounts(counts, pairs=[(a, b), (a, c), (b, c)])
        expl = explain_with_pairs(
            DPClustX(histogram_mechanism=mech), pc, seed, acct
        )
        return list(_explanation_parts(expl))
    if name == "DPNaive":
        naive = DPNaive(histogram_mechanism=mech)
        noisy = naive.release_noisy_counts(counts, seed, acct)
        parts = []
        for a in counts.names:
            parts += [a, noisy.full(a), noisy.by_cluster(a)]
        expl = naive.explain(dataset, clustering, seed, acct, counts=counts)
        return parts + list(_explanation_parts(expl))
    if name == "ManualEDASession":
        session = ManualEDASession(histogram_mechanism=mech)
        return list(session.select_combination(counts, seed, acct))
    raise AssertionError(name)


def release_digest(name: str, mechanism: str) -> str:
    """SHA-256 over every release and ledger row of one explainer."""
    h = hashlib.sha256()
    for dataset, clustering in _tables():
        counts = ClusteredCounts(dataset, clustering)
        for seed in SEEDS:
            acct = PrivacyAccountant()
            parts = _run(
                name, MECHANISMS[mechanism](), dataset, clustering, counts,
                seed, acct,
            )
            for part in parts:
                if isinstance(part, str):
                    h.update(part.encode() + b"\0")
                else:
                    arr = np.ascontiguousarray(part, dtype=np.float64)
                    h.update(repr(arr.shape).encode())
                    h.update(arr.tobytes())
            for charge in acct.charges():
                h.update(f"{charge.units}:{charge.composition};".encode())
    return h.hexdigest()


#: SHA-256 hex digest per (explainer, mechanism).
GOLDEN = {
    ('DPClustX', 'geometric'): 'cd18145c8e7f8bacc542518ee17b2672d0905366626169473a8a1b325dbcead2',
    ('DPClustX', 'hierarchical'): '67abe8eb5cc1e3503434d5a1ddc431c7ff4deb1969cc17bc87f848356ab88b7e',
    ('DPClustX', 'laplace'): '65208e12f8750a2bc2ad6e09c95444fb4bd30350051362cb5526cba9e4f94afd',
    ('DPTabEE', 'geometric'): 'c01dc57c54abe8dd915c9c36c275e7af8cc2cea7a49023c1a90ff917c16a5440',
    ('DPTabEE', 'hierarchical'): 'dda27258802709253cb75ceadab2324e0ade9da969b9cc83f09adfb528c7f220',
    ('DPTabEE', 'laplace'): '530309288eac30a10de9af19e95600f4b62c38d2879730b2addd0776ec2ae569',
    ('MultiDPClustX', 'geometric'): '1b483af5815b54330b2e9e1fd8bd9b5647f5dadfaf866b24df53de30c368f08a',
    ('MultiDPClustX', 'hierarchical'): '13f77fdb219af3881f69de855dea46324b6ef28150c8943fe39434c487e2a412',
    ('MultiDPClustX', 'laplace'): 'ea482da80e8387b0f38bb15f1b93a3213582ce67283851b4bdac80f66c717786',
    ('pairs', 'geometric'): '3caa643cdb7c89559e3063bcc40461dbfe877843a28a91660721a8737be5dbbf',
    ('pairs', 'hierarchical'): 'd242e3656bb7b9cf9813eaadd3e202a37c1bfe95ac9c1fa76b406e4e32be62c9',
    ('pairs', 'laplace'): '8e3ff4403fff7492a0649cac228e678b390c9bb9ec35a17476b89647f8f11b82',
    ('DPNaive', 'geometric'): '8f14412b6cfe1d287898480898b08ebe5311eb52a35730845c36c886f6d5ab97',
    ('DPNaive', 'hierarchical'): '157c071347621d6fb951d31ef7f7839cc9f62f8dbf66e5b52298efa0a9f9e6bd',
    ('DPNaive', 'laplace'): '39758e7b0843c82126eaac2aed3007697639b795693682ad82b5cc26b1331577',
    ('ManualEDASession', 'geometric'): '6c92ac4673484f758ebca8d0c3ee7fb2c0c76a2dc81577fc0b4070385bd72d75',
    ('ManualEDASession', 'hierarchical'): 'c6645e4cb2311574760a8ecd0b8a6335dc331725b9671371e9dcaaf5c643b054',
    ('ManualEDASession', 'laplace'): '55659af23bf950b40e7d0207ffe6961ed222c6614d0e938a68e1c025726a433a',
}


@pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
@pytest.mark.parametrize(
    "name",
    ["DPClustX", "DPTabEE", "MultiDPClustX", "pairs", "DPNaive",
     "ManualEDASession"],
)
def test_releases_and_ledger_rows_are_pinned(name, mechanism):
    assert release_digest(name, mechanism) == GOLDEN[(name, mechanism)]

"""Simulated manual EDA sessions — the workflow DPClustX replaces.

The paper's motivation (Section 1, Example 1.1): "Instead of exhausting the
privacy budget through a manual EDA session, the analyst employs DPClustX".
To quantify that claim we simulate the manual alternative: an analyst who
probes attributes one round at a time, each round releasing a noisy
histogram pair (full data + per-cluster) for one attribute, judging every
cluster's fit from the noisy releases, and stopping when the budget is gone.

Modelling choices (documented, deliberately favourable to the analyst):

* Rounds probe attributes in a uniformly random order (no data-dependent
  skipping — that would need extra budget to stay DP).
* Round cost is ``2 * eps_probe``: the full-data histogram (sequential
  across rounds) plus the per-cluster histograms (parallel across the
  disjoint clusters, sequential across rounds).
* The analyst scores each probed attribute per cluster by the noisy TVD
  between the released pair, and finally picks each cluster's best-scoring
  probed attribute — optimal play given the releases.

With total budget ``eps`` the analyst sees only ``eps / (2 eps_probe)``
attributes, each under per-release noise at ``eps_probe`` — losing to
DPClustX on both coverage and accuracy.  This is the coverage/accuracy
dilemma Section 1 describes, reproduced quantitatively in
``benchmarks/bench_manual_eda.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.counts import CountsProvider
from ..core.engine.kernels import tvd_rows
from ..core.hbe import AttributeCombination
from ..privacy.budget import PrivacyAccountant, check_epsilon, quantize_epsilon
from ..privacy.histograms import GeometricHistogram, HistogramMechanism
from ..privacy.rng import ensure_rng


@dataclass(frozen=True)
class ManualEDASession:
    """Budgeted random-exploration analyst baseline.

    Parameters
    ----------
    epsilon:
        Total privacy budget for the whole exploration session.
    eps_probe:
        Budget per released histogram; each exploration round consumes
        ``2 * eps_probe`` (full-data release + parallel cluster releases).
    """

    epsilon: float = 0.2
    eps_probe: float = 0.01
    histogram_mechanism: HistogramMechanism = field(
        default_factory=lambda: GeometricHistogram(1.0)
    )

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)
        check_epsilon(self.eps_probe, name="eps_probe")
        if 2 * quantize_epsilon(self.eps_probe) > quantize_epsilon(self.epsilon):
            raise ValueError("budget does not cover even one probe round")

    @property
    def n_rounds(self) -> int:
        """How many attributes the session can afford to inspect.

        Counted on the integer nano-epsilon grid: float floor-division
        mis-counts here (``0.3 // 0.1 == 2.0`` in binary floats — one
        whole probe round lost to representation error).
        """
        return int(quantize_epsilon(self.epsilon) // (2 * quantize_epsilon(self.eps_probe)))

    def select_combination(
        self,
        counts: CountsProvider,
        rng: np.random.Generator | int | None = None,
        accountant: PrivacyAccountant | None = None,
        names: tuple[str, ...] | None = None,
    ) -> AttributeCombination:
        """Run the simulated session and return the analyst's final picks."""
        gen = ensure_rng(rng)
        names = names if names is not None else counts.names
        n_clusters = counts.n_clusters
        mech = self.histogram_mechanism.with_epsilon(self.eps_probe)
        n_probed = min(self.n_rounds, len(names))

        # The whole session is charged before the first draw, all or
        # nothing, so a refusal leaves ledger and generator untouched.
        if accountant is not None:
            accountant.spend_many([
                (self.eps_probe * n_probed, "manual-eda: full-data histograms"),
                (
                    [self.eps_probe * n_probed] * n_clusters,
                    "manual-eda: cluster histograms",
                ),
            ])

        probed = [names[int(idx)] for idx in gen.permutation(len(names))[:n_probed]]
        # One noise call for the whole session: each round's full-data row,
        # then its cluster rows, in probe order (the per-row release order).
        blocks = []
        for a in probed:
            blocks += [counts.full(a)[None], counts.by_cluster(a)]
        noisy = mech.release_blocks(blocks, gen)

        best_attr = [probed[0]] * n_clusters
        best_score = np.full(n_clusters, -np.inf)
        for r, a in enumerate(probed):
            # Judge all clusters at once from the round's noisy releases.
            scores = tvd_rows(noisy[2 * r][0], noisy[2 * r + 1])
            improved = scores > best_score
            best_score = np.where(improved, scores, best_score)
            for c in np.flatnonzero(improved):
                best_attr[int(c)] = a
        return AttributeCombination(tuple(best_attr))

    def session_cost(self, n_attributes: int) -> float:
        """Epsilon consumed by :meth:`select_combination` (<= ``epsilon``)."""
        n_probed = min(self.n_rounds, n_attributes)
        return 2.0 * self.eps_probe * n_probed

"""Two-dimensional (attribute-pair) explanations — the paper's future work #2.

Section 8: "One possible way to extend DPClustX to higher-dimensional
histograms is by considering the Cartesian product of the domains.  However
... it comes at the cost of increased complexity, and may result in
histograms where all counts are small, making it challenging to accurately
compute them under DP."

We implement exactly that extension: :class:`ProductCounts` wraps a base
counts provider and exposes every requested attribute *pair* as a pseudo-
attribute whose domain is the Cartesian product.  Because it subclasses
:class:`~repro.core.counts.CountsProvider`, the unmodified
Algorithms 1-2 run over pairs — quality functions, sensitivities (still 1:
one tuple still lands in exactly one product-domain cell) and privacy
analysis all carry over.  The small-counts caveat the paper predicts is
observable in the benches: product cells hold fractions of the 1-D counts,
so histogram noise hurts more.
"""

from __future__ import annotations

import itertools
from typing import Iterable

import numpy as np

from ..dataset.schema import Attribute
from .counts import ClusteredCounts, CountsProvider

PAIR_SEPARATOR = "*"


def pair_name(a: str, b: str) -> str:
    """Canonical pseudo-attribute name for the pair ``(a, b)``."""
    return f"{a}{PAIR_SEPARATOR}{b}"


def split_pair_name(name: str) -> tuple[str, str]:
    """Inverse of :func:`pair_name`."""
    if PAIR_SEPARATOR not in name:
        raise ValueError(f"{name!r} is not a pair pseudo-attribute")
    a, b = name.split(PAIR_SEPARATOR, 1)
    return a, b


def product_attribute(first: Attribute, second: Attribute) -> Attribute:
    """The product-domain attribute with labels ``"u | v"``."""
    domain = tuple(
        f"{u} | {v}" for u in first.domain for v in second.domain
    )
    return Attribute(pair_name(first.name, second.name), domain)


class ProductCounts(CountsProvider):
    """Counts provider over attribute pairs (Cartesian-product domains).

    Parameters
    ----------
    base:
        The exact 1-D counts of the dataset under the clustering.
    pairs:
        The attribute pairs to expose.  Defaults to all unordered pairs of
        the base attributes — note this squares the candidate pool, which is
        the complexity cost the paper warns about.
    include_singletons:
        Also expose the original 1-D attributes, letting the selection
        mechanisms choose between 1-D and 2-D explanations on merit.
    """

    def __init__(
        self,
        base: ClusteredCounts,
        pairs: Iterable[tuple[str, str]] | None = None,
        include_singletons: bool = True,
    ):
        super().__init__()
        self._base = base
        self._sizes = base.sizes()
        if pairs is None:
            pairs = itertools.combinations(base.names, 2)
        self._pairs: dict[str, tuple[str, str]] = {}
        for a, b in pairs:
            if a == b:
                raise ValueError(f"pair ({a!r}, {a!r}) repeats an attribute")
            for name in (a, b):
                if name not in base.names:
                    raise ValueError(f"unknown attribute {name!r}")
            self._pairs[pair_name(a, b)] = (a, b)
        self._include_singletons = include_singletons
        self._names = (
            tuple(base.names) + tuple(self._pairs)
            if include_singletons
            else tuple(self._pairs)
        )
        self._by_cluster_cache: dict[str, np.ndarray] = {}

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def n_clusters(self) -> int:
        return self._base.n_clusters

    @property
    def n(self) -> int:
        return self._base.n

    @property
    def base(self) -> ClusteredCounts:
        return self._base

    def is_pair(self, name: str) -> bool:
        return name in self._pairs

    def pair_members(self, name: str) -> tuple[str, str]:
        return self._pairs[name]

    def domain_size(self, name: str) -> int:
        if name in self._pairs:
            a, b = self._pairs[name]
            return self._base.domain_size(a) * self._base.domain_size(b)
        return self._base.domain_size(name)

    def attribute(self, name: str) -> Attribute:
        """The (pseudo-)attribute for rendering released histograms."""
        schema = self._base.dataset.schema
        if name in self._pairs:
            a, b = self._pairs[name]
            return product_attribute(schema.attribute(a), schema.attribute(b))
        return schema.attribute(name)

    def by_cluster(self, name: str) -> np.ndarray:
        if name not in self._pairs:
            return self._base.by_cluster(name)
        cached = self._by_cluster_cache.get(name)
        if cached is None:
            a, b = self._pairs[name]
            m_a = self._base.domain_size(a)
            m_b = self._base.domain_size(b)
            codes_a = np.asarray(self._base.dataset.column(a))
            codes_b = np.asarray(self._base.dataset.column(b))
            joint = codes_a * m_b + codes_b
            labels = self._base.labels
            flat = labels * (m_a * m_b) + joint
            cached = (
                np.bincount(flat, minlength=self.n_clusters * m_a * m_b)
                .reshape(self.n_clusters, m_a * m_b)
                .astype(np.int64)
            )
            self._by_cluster_cache[name] = cached
        return cached


def explain_with_pairs(
    explainer,
    counts: ProductCounts,
    rng=None,
    accountant=None,
):
    """Run Algorithm 2 over a pair-extended candidate pool.

    ``explainer`` is a :class:`~repro.core.dpclustx.DPClustX`; Stages 1-2 run
    unchanged over the pseudo-attribute pool (the sensitivity analysis is
    identical), and noisy histograms are released over the product domains
    with the same eps_Hist allocation.  Returns a
    :class:`~repro.core.hbe.GlobalExplanation` whose attributes may be
    product pseudo-attributes (rendered with "u | v" labelled bins).
    """
    from ..privacy.rng import ensure_rng
    from .dpclustx import release_cluster_histograms
    from .hbe import GlobalExplanation

    gen = ensure_rng(rng)
    combination = explainer.select_combination(counts, gen, accountant).combination
    per_cluster = release_cluster_histograms(
        explainer.histogram_mechanism,
        explainer.budget.eps_hist,
        counts,
        [(a,) for a in combination.attributes],
        counts.attribute,
        gen,
        accountant,
    )
    return GlobalExplanation(
        per_cluster=tuple(e for (e,) in per_cluster),
        combination=combination,
        metadata={
            "framework": "DPClustX+pairs",
            "budget": explainer.budget,
            "epsilon_total": explainer.budget.total,
            "pair_pool": tuple(n for n in counts.names if counts.is_pair(n)),
        },
    )


def top_pairs_by_interestingness(
    counts: ClusteredCounts, limit: int
) -> list[tuple[str, str]]:
    """Cheap *non-private* pre-filter of pairs by 1-D interestingness sums.

    All-pairs pseudo-attribute pools grow as |A|^2; a practical deployment
    restricts the pool to pairs of individually-promising attributes.  The
    returned list pairs up the ``ceil(sqrt(2*limit)) + 1`` attributes with
    the highest total low-sensitivity interestingness.  NOTE: selecting the
    pool from the data leaks information; to stay DP, callers should either
    use a data-independent pool or budget a Stage-0 selection (we expose this
    helper for the non-private ablation in the benches).
    """
    from .engine import scoring_engine

    per_attr = scoring_engine(counts).interestingness_matrix().sum(axis=0)
    scores = dict(zip(counts.names, per_attr))
    ranked = sorted(scores, key=lambda a: -scores[a])
    head = ranked[: max(int(np.ceil(np.sqrt(2 * limit))) + 1, 2)]
    pairs = list(itertools.combinations(head, 2))[:limit]
    return pairs

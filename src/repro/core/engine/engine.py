"""The batched scoring engine — one shared evaluator per counts provider.

:class:`ScoringEngine` wraps a counts provider, materialises its
:class:`~repro.core.engine.stacks.CountsStack` once, and serves every score
the selection pipeline needs from cached ``(|C|, |A|)`` matrices:

* Stage-1 (Algorithm 1): :meth:`score_matrix` — the full ``Score_gamma``
  matrix in one shot;
* Stage-2 (Algorithm 2, Lines 5-6): :meth:`combination_score_tensor` — the
  ``k_1 x ... x k_|C|`` tensor of ``GlScore_lambda`` values assembled from
  per-cluster vectors and pairwise diversity blocks;
* Appendix B: :meth:`multi_combination_score_tensor` — the set-valued
  analogue over ``C(k, ell)^|C|`` combinations;
* baselines/evaluation: :meth:`sensitive_score_matrix`,
  :meth:`cluster_tvd_square` (TabEE, DP-TabEE, DP-Naive via
  ``QualityEvaluator``).

Use :func:`scoring_engine` to obtain the memoised engine of a provider; all
consumers of the same counts then share one stack and one set of cached
matrices.
"""

from __future__ import annotations

import itertools
import math
import weakref
from typing import Sequence

import numpy as np

from . import kernels
from .stacks import CountsStack


class ScoringEngine:
    """Vectorised quality evaluation over one counts provider."""

    def __init__(self, counts):
        # Hold the provider weakly: scoring_engine() keys its memo table on
        # the provider, so a strong reference here would keep every entry
        # (provider + dataset + stack) alive forever.
        self._counts_ref = weakref.ref(counts)
        self._stack = counts.by_cluster_stack()
        self._matrices: dict = {}
        self._tvd_square: dict[str, np.ndarray] = {}

    # -- structure --------------------------------------------------------- #

    @property
    def counts(self):
        """The provider this engine was built from (None once collected)."""
        return self._counts_ref()

    @property
    def stack(self) -> CountsStack:
        return self._stack

    @property
    def names(self) -> tuple[str, ...]:
        return self._stack.names

    @property
    def n_clusters(self) -> int:
        return self._stack.n_clusters

    def columns(self, names: Sequence[str]) -> np.ndarray:
        return self._stack.columns(names)

    # -- cached base matrices (columns follow self.names) ------------------- #

    def _matrix(self, key: str, build) -> np.ndarray:
        cached = self._matrices.get(key)
        if cached is None:
            cached = build(self._stack)
            self._matrices[key] = cached
        return cached

    def interestingness_matrix(self) -> np.ndarray:
        """``Int_p`` (Definition 4.3) as a ``(|C|, |A|)`` matrix."""
        return self._matrix("int", kernels.interestingness_low_sens_matrix)

    def sufficiency_matrix(self) -> np.ndarray:
        """``Suf_p`` (Definition 4.6) as a ``(|C|, |A|)`` matrix."""
        return self._matrix("suf", kernels.sufficiency_low_sens_matrix)

    def exclusivity_matrix(self) -> np.ndarray:
        """``Exc_p`` (majority mass) as a ``(|C|, |A|)`` matrix."""
        return self._matrix("exc", kernels.exclusivity_low_sens_matrix)

    def interestingness_tvd_matrix(self) -> np.ndarray:
        """Sensitive TVD interestingness (Eq. 1) as a ``(|C|, |A|)`` matrix."""
        return self._matrix("int_tvd", kernels.interestingness_tvd_matrix)

    def sufficiency_normalized_matrix(self) -> np.ndarray:
        """``Suf_p / |D_c|`` in [0, 1] as a ``(|C|, |A|)`` matrix."""
        cached = self._matrices.get("suf_norm")
        if cached is None:
            cached = kernels.sufficiency_normalized_matrix(
                self._stack, self.sufficiency_matrix()
            )
            self._matrices["suf_norm"] = cached
        return cached

    # -- Stage-1 score matrices -------------------------------------------- #

    def _score(self, gamma_int: float, gamma_suf: float) -> np.ndarray:
        """The cached ``gamma_int * Int_p + gamma_suf * Suf_p`` matrix.

        Composed from the cached :meth:`interestingness_matrix` and
        :meth:`sufficiency_matrix`, once per gamma pair.  Cached arrays are
        frozen read-only: they are returned to callers without copying.
        """
        key = ("score", float(gamma_int), float(gamma_suf))
        cached = self._matrices.get(key)
        if cached is None:
            cached = (
                gamma_int * self.interestingness_matrix()
                + gamma_suf * self.sufficiency_matrix()
            )
            cached.flags.writeable = False
            self._matrices[key] = cached
        return cached

    def score_matrix(
        self,
        gamma_int: float,
        gamma_suf: float,
        names: Sequence[str] | None = None,
    ) -> np.ndarray:
        """``Score_gamma`` (Definition 4.11) for every (cluster, attribute).

        Returns a ``(|C|, |names|)`` matrix with columns in ``names`` order
        (all stack attributes when omitted).  Memoised per gamma pair; the
        full-width result is a shared read-only array.
        """
        out = self._score(gamma_int, gamma_suf)
        if names is not None and tuple(names) != self._stack.names:
            out = out[:, self.columns(names)]
        return out

    def sensitive_score_matrix(
        self,
        gamma_int: float,
        gamma_suf: float,
        names: Sequence[str] | None = None,
    ) -> np.ndarray:
        """TabEE-style per-cluster score in [0, 1] for every pair."""
        out = np.zeros((self.n_clusters, self._stack.n_attributes))
        if gamma_int:
            out = out + gamma_int * self.interestingness_tvd_matrix()
        if gamma_suf:
            out = out + gamma_suf * self.sufficiency_normalized_matrix()
        if names is not None and tuple(names) != self._stack.names:
            out = out[:, self.columns(names)]
        return out

    # -- diversity --------------------------------------------------------- #

    def pair_tvd_tensor(self) -> np.ndarray:
        """``(|A|, |C|, |C|)`` tensor of all cluster-pair TVDs (Def. 4.8)."""
        return self._matrix("pair_tvd", kernels.pair_tvd_tensor)

    def pair_tvd(self, c: int, c2: int) -> np.ndarray:
        """Per-attribute cluster-vs-cluster TVD vector (Definition 4.8)."""
        return self.pair_tvd_tensor()[:, c, c2]

    def diversity_block(
        self,
        c: int,
        c2: int,
        attrs_c: Sequence[str],
        attrs_c2: Sequence[str],
    ) -> np.ndarray:
        """``(k_c, k_c')`` pair-diversity block between two candidate sets."""
        return kernels.diversity_block(
            self._stack,
            c,
            c2,
            self.columns(attrs_c),
            self.columns(attrs_c2),
            self.pair_tvd(c, c2),
        )

    def cluster_tvd_square(self, name: str) -> np.ndarray:
        """All-pairs normalised TVD between clusters on one attribute."""
        cached = self._tvd_square.get(name)
        if cached is None:
            cached = kernels.cluster_tvd_square(self._stack, name)
            self._tvd_square[name] = cached
        return cached

    # -- Stage-2: the GlScore tensor --------------------------------------- #

    def combination_score_tensor(
        self,
        candidate_sets: Sequence[Sequence[str]],
        weights,
        max_combinations: int | None = None,
    ) -> np.ndarray:
        """``GlScore_lambda`` for every candidate combination, batched.

        The global score decomposes into per-cluster terms (interestingness,
        sufficiency) plus pairwise diversity terms, so the full
        ``k_1 x ... x k_|C|`` tensor is assembled from ``|C|`` vectors and
        ``C(|C|, 2)`` blocks — the same ``O(k^|C|)`` evaluation count as the
        paper's complexity analysis, with no per-(cluster, attribute) Python
        calls.
        """
        n_clusters = self.n_clusters
        if len(candidate_sets) != n_clusters:
            raise ValueError("need one candidate set per cluster")
        shape = tuple(len(s) for s in candidate_sets)
        total = math.prod(shape)
        if max_combinations is not None and total > max_combinations:
            raise ValueError(
                f"{total} candidate combinations exceed the enumeration guard "
                f"({max_combinations}); reduce k or |C|"
            )
        cols = [self.columns(s) for s in candidate_sets]
        tensor = np.zeros(shape, dtype=np.float64)

        # Additive per-cluster part: (lInt * Int_p + lSuf * Suf_p) / |C|.
        base = self._score(weights.lambda_int, weights.lambda_suf)
        for c in range(n_clusters):
            shp = [1] * n_clusters
            shp[c] = shape[c]
            tensor += (base[c, cols[c]] / n_clusters).reshape(shp)

        # Pairwise diversity part: lDiv * d(c, c') / C(|C|, 2).
        if weights.lambda_div and n_clusters >= 2:
            scale = weights.lambda_div / math.comb(n_clusters, 2)
            uniform = len(set(shape)) == 1
            if uniform:
                # One broadcast computes every (c, c') diversity block:
                # D[c, j, c', j'] = d(D, f, c, c', sets[c][j], sets[c'][j']).
                m = np.stack(cols)
                cidx = np.arange(n_clusters)
                s = self._stack.sizes[m, cidx[:, None]]
                w = np.minimum(s[:, :, None, None], s[None, None, :, :])
                tvd = self.pair_tvd_tensor()[
                    m[:, :, None, None],
                    cidx[:, None, None, None],
                    cidx[None, None, :, None],
                ]
                eq = m[:, :, None, None] == m[None, None, :, :]
                blocks = scale * np.where(eq, w * tvd, w)
            for c, c2 in itertools.combinations(range(n_clusters), 2):
                if uniform:
                    block = blocks[c, :, c2, :]
                else:
                    block = scale * kernels.diversity_block(
                        self._stack, c, c2, cols[c], cols[c2], self.pair_tvd(c, c2)
                    )
                shp = [1] * n_clusters
                shp[c] = shape[c]
                shp[c2] = shape[c2]
                tensor += block.reshape(shp)
        return tensor

    # -- Appendix B: set-valued combinations ------------------------------- #

    def multi_combination_score_tensor(
        self,
        per_cluster_sets: Sequence[Sequence[Sequence[str]]],
        weights,
    ) -> np.ndarray:
        """Appendix B's ``GlScore`` over set-valued combinations, batched.

        ``per_cluster_sets[c]`` lists the candidate ``ell``-subsets of
        cluster ``c``; entry ``[s_1, ..., s_|C|]`` of the returned tensor is
        ``multi_global_score`` of the combination drawing subset ``s_c`` from
        each cluster.  All subsets must share one cardinality ``ell``.
        """
        n_clusters = self.n_clusters
        if len(per_cluster_sets) != n_clusters:
            raise ValueError("need one subset list per cluster")
        members = []
        ell = None
        for subsets in per_cluster_sets:
            if not subsets:
                raise ValueError("empty candidate subset list")
            idx = np.array(
                [[self._stack.index[a] for a in s] for s in subsets], dtype=np.intp
            )
            if ell is None:
                ell = idx.shape[1]
            elif idx.shape[1] != ell:
                raise ValueError("all subsets must share one cardinality ell")
            members.append(idx)
        n_cands = n_clusters * ell
        shape = tuple(m.shape[0] for m in members)
        tensor = np.zeros(shape, dtype=np.float64)

        # Per-cluster Int/Suf subset sums, averaged over all |C|*ell candidates.
        base = self._score(weights.lambda_int, weights.lambda_suf)
        for c in range(n_clusters):
            shp = [1] * n_clusters
            shp[c] = shape[c]
            tensor += (base[c, members[c]].sum(axis=1) / n_cands).reshape(shp)

        if weights.lambda_div and n_cands >= 2:
            n_pairs = math.comb(n_cands, 2)
            sizes = self._stack.sizes
            scale = weights.lambda_div / n_pairs

            # Within-cluster pairs: distinct attributes of one cluster, so
            # d = min(|D_c|, |D_c|) per-attribute weights with no TVD factor.
            for c in range(n_clusters):
                d_cc = np.minimum(sizes[:, c][:, None], sizes[:, c][None, :])
                m = members[c]
                ordered = d_cc[m[:, :, None], m[:, None, :]].sum(axis=(1, 2))
                diag = d_cc[m, m].sum(axis=1)
                shp = [1] * n_clusters
                shp[c] = shape[c]
                tensor += (scale * 0.5 * (ordered - diag)).reshape(shp)

            # Cross-cluster pairs: weight matrix with TVD on the diagonal.
            for c, c2 in itertools.combinations(range(n_clusters), 2):
                d = np.minimum(sizes[:, c][:, None], sizes[:, c2][None, :])
                diag = np.arange(sizes.shape[0])
                d[diag, diag] = d[diag, diag] * self.pair_tvd(c, c2)
                block = d[
                    members[c][:, None, :, None], members[c2][None, :, None, :]
                ].sum(axis=(2, 3))
                shp = [1] * n_clusters
                shp[c] = shape[c]
                shp[c2] = shape[c2]
                tensor += (scale * block).reshape(shp)
        return tensor


_ENGINES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def scoring_engine(counts) -> ScoringEngine:
    """The memoised :class:`ScoringEngine` of a counts provider.

    Keyed weakly on provider identity: every consumer of the same counts
    (Stage-1, Stage-2, baselines, evaluation) shares one stack and one set
    of cached score matrices, and the cache dies with the provider.
    """
    engine = _ENGINES.get(counts)
    if engine is None:
        engine = _ENGINES[counts] = ScoringEngine(counts)
    return engine

"""Regression tests for the charge-before-release reordering (repro-lint).

The charge-before-release rule surfaced the PR-4 bug class in ~10 more
functions: noise was sampled first and the accountant charged after, so a
``BudgetError`` fired *after* privacy had already been burned.  Each fix
moves the charge ahead of the first draw; the behavioural contract pinned
here is that a **refused charge consumes zero randomness and leaves the
ledger empty** — the generator's bit-stream state is untouched, so the
refusal is observationally free.

(For successful runs the released bytes are unchanged: only the charge
moved, never a ``gen`` call — the existing byte-identity suites cover
that direction.)
"""

import numpy as np
import pytest

from helpers import CodeModuloClustering, make_dataset

from repro.baselines.dp_naive import DPNaive
from repro.baselines.dp_tabee import DPTabEE
from repro.baselines.manual_eda import ManualEDASession
from repro.core.counts import ClusteredCounts
from repro.core.dpclustx import DPClustX
from repro.core.engine import scoring_engine
from repro.core.hbe import AttributeCombination
from repro.core.multi import MultiDPClustX
from repro.core.pairs import ProductCounts, explain_with_pairs
from repro.core.quality.scores import (
    SCORE_SENSITIVITY,
    SENSITIVE_SCORE_SENSITIVITY,
)
from repro.core.select_candidates import draw_candidate_sets, select_candidates
from repro.privacy.budget import BudgetError, PrivacyAccountant, quantize_epsilon
from repro.privacy.queries import QueryEngine


@pytest.fixture
def counts():
    dataset = make_dataset()
    return ClusteredCounts(dataset, CodeModuloClustering("color", 2))


def assert_refusal_is_free(acc, gen, call):
    """A refused charge must leave both the ledger and the RNG untouched."""
    state_before = gen.bit_generator.state
    with pytest.raises(BudgetError):
        call()
    assert gen.bit_generator.state == state_before
    assert acc.total() == 0.0
    assert acc.charges() == ()


def assert_stage2_refusal_is_free(counts, explainer, select, sensitive=False):
    """A ledger with room for Stage 1 only: Stage 2 is refused with Stage 1's
    charge alone on the ledger, and the generator stopped exactly where the
    Stage-1 draws alone leave it, so no Stage-2 noise was drawn."""
    budget = explainer.budget
    acc = PrivacyAccountant(limit=budget.eps_cand_set)
    gen = np.random.default_rng(7)
    with pytest.raises(BudgetError, match="^charge '.*stage2"):
        select(gen, acc)
    assert acc.total_units() == quantize_epsilon(budget.eps_cand_set)
    assert len(acc.charges()) == 1
    gamma = explainer.weights.gamma()
    engine = scoring_engine(counts)
    if sensitive:
        matrix = engine.sensitive_score_matrix(gamma[0], gamma[1], counts.names)
        sensitivity = SENSITIVE_SCORE_SENSITIVITY
    else:
        matrix = engine.score_matrix(gamma[0], gamma[1], counts.names)
        sensitivity = SCORE_SENSITIVITY
    twin = np.random.default_rng(7)
    draw_candidate_sets(
        matrix, counts.names, budget.eps_cand_set, explainer.n_candidates,
        [twin], score_sensitivity=sensitivity,
    )
    assert gen.bit_generator.state == twin.bit_generator.state


class TestRefusalDrawsNoNoise:
    def test_select_candidates(self, counts):
        acc = PrivacyAccountant(limit=0.01)
        gen = np.random.default_rng(7)
        assert_refusal_is_free(
            acc, gen,
            lambda: select_candidates(counts, (0.5, 0.5), 0.1, 2, gen, acc),
        )

    def test_dpclustx_release_histograms(self, counts):
        acc = PrivacyAccountant(limit=0.001)
        gen = np.random.default_rng(7)
        combination = AttributeCombination(("size", "size"))
        assert_refusal_is_free(
            acc, gen,
            lambda: DPClustX().release_histograms(
                counts, combination, gen, accountant=acc
            ),
        )

    def test_multi_dpclustx_stage2(self, counts):
        # Enough budget for Stage 1, none for Stage 2: the EM draw must not
        # happen, and the refund contract is per-call so Stage 1's charge
        # legitimately stands (its noise WAS released).
        explainer = MultiDPClustX(ell=2)
        assert_stage2_refusal_is_free(
            counts, explainer,
            lambda g, a: explainer.select_combination(counts, g, a),
        )

    def test_dpclustx_stage2(self, counts):
        explainer = DPClustX()
        assert_stage2_refusal_is_free(
            counts, explainer,
            lambda g, a: explainer.select_combination(counts, g, a),
        )

    def test_dp_tabee_stage2(self, counts):
        explainer = DPTabEE()
        assert_stage2_refusal_is_free(
            counts, explainer,
            lambda g, a: explainer.select_combination(counts, g, a),
            sensitive=True,
        )

    def test_dp_naive_release_noisy_counts(self, counts):
        acc = PrivacyAccountant(limit=0.01)
        gen = np.random.default_rng(7)
        assert_refusal_is_free(
            acc, gen,
            lambda: DPNaive(epsilon=0.5).release_noisy_counts(
                counts, gen, acc
            ),
        )

    def test_dp_tabee_stage1(self, counts):
        acc = PrivacyAccountant(limit=0.001)
        gen = np.random.default_rng(7)
        assert_refusal_is_free(
            acc, gen,
            lambda: DPTabEE().select_combination(counts, gen, acc),
        )

    def test_manual_eda_session(self, counts):
        acc = PrivacyAccountant(limit=0.001)
        gen = np.random.default_rng(7)
        assert_refusal_is_free(
            acc, gen,
            lambda: ManualEDASession(
                epsilon=0.2, eps_probe=0.01
            ).select_combination(counts, gen, acc),
        )

    def test_query_engine_mean(self):
        dataset = make_dataset()
        acc = PrivacyAccountant(limit=0.001)
        engine = QueryEngine(dataset, accountant=acc, rng=7)
        gen = engine._rng
        assert_refusal_is_free(acc, gen, lambda: engine.mean("size", 0.1))

    def test_query_engine_partitioned_histograms(self):
        dataset = make_dataset()
        acc = PrivacyAccountant(limit=0.001)
        engine = QueryEngine(dataset, accountant=acc, rng=7)
        gen = engine._rng
        assert_refusal_is_free(
            acc, gen,
            lambda: engine.partitioned_histograms("color", "size", 0.1),
        )


def _explainers(counts):
    """``name -> (explain(gen, acc), select(gen, acc))`` for every explainer
    whose histograms go through Algorithm 2's shared histogram stage."""
    dataset = counts.dataset
    clustering = CodeModuloClustering("color", 2)
    pairs = ProductCounts(counts)
    return {
        "DPClustX": (
            lambda g, a: DPClustX().explain(dataset, clustering, g, a, counts),
            lambda g, a: DPClustX().select_combination(counts, g, a),
        ),
        "DPTabEE": (
            lambda g, a: DPTabEE().explain(dataset, clustering, g, a, counts),
            lambda g, a: DPTabEE().select_combination(counts, g, a),
        ),
        "MultiDPClustX": (
            lambda g, a: MultiDPClustX(ell=2).explain(
                dataset, clustering, g, a, counts
            ),
            lambda g, a: MultiDPClustX(ell=2).select_combination(counts, g, a),
        ),
        "pairs": (
            lambda g, a: explain_with_pairs(DPClustX(), pairs, g, a),
            lambda g, a: DPClustX().select_combination(pairs, g, a),
        ),
    }


class TestRefusedHistogramStageChargesNothing:
    """A ledger with room for both selection stages (0.1 each) and the
    full-data histograms (0.05), but not the cluster histograms (0.05):
    the histogram stage is refused whole.  Neither half stays charged and
    no histogram noise is drawn."""

    @pytest.mark.parametrize(
        "name", ["DPClustX", "DPTabEE", "MultiDPClustX", "pairs"]
    )
    def test_refusal_leaves_only_the_selection_charges(self, counts, name):
        explain, select = _explainers(counts)[name]
        acc = PrivacyAccountant(limit=0.25)
        gen = np.random.default_rng(7)
        with pytest.raises(BudgetError):
            explain(gen, acc)
        assert acc.total_units() == 2 * quantize_epsilon(0.1)
        assert len(acc.charges()) == 2
        # The generator stopped where selection alone leaves it.
        twin = np.random.default_rng(7)
        select(twin, PrivacyAccountant())
        assert gen.bit_generator.state == twin.bit_generator.state


class TestManualEdaIntegerRounds:
    def test_n_rounds_counts_on_the_integer_grid(self):
        # 0.3 // (2 * 0.05) == 2.0 in binary floats; the exact answer is 3.
        session = ManualEDASession(epsilon=0.3, eps_probe=0.05)
        assert session.n_rounds == 3

    def test_one_round_budget_check_is_exact(self):
        # 2 * 0.05 > 0.1 is True in binary floats — the grid admits it.
        session = ManualEDASession(epsilon=0.1, eps_probe=0.05)
        assert session.n_rounds == 1

    def test_genuinely_insufficient_budget_still_rejected(self):
        with pytest.raises(ValueError, match="one probe round"):
            ManualEDASession(epsilon=0.01, eps_probe=0.05)

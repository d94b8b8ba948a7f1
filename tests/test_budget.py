"""Unit tests for repro.privacy.budget (Proposition 2.7 calculus)."""

import threading

import pytest

from repro.privacy.budget import (
    BudgetError,
    ExplanationBudget,
    PrivacyAccountant,
    check_epsilon,
)


class TestCheckEpsilon:
    def test_accepts_positive(self):
        assert check_epsilon(0.5) == 0.5

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_non_positive_or_non_finite(self, bad):
        with pytest.raises(BudgetError):
            check_epsilon(bad)


class TestAccountant:
    def test_sequential_composition_adds(self):
        acc = PrivacyAccountant()
        acc.spend(0.1, "a")
        acc.spend(0.2, "b")
        assert acc.total() == pytest.approx(0.3)

    def test_parallel_composition_takes_max(self):
        acc = PrivacyAccountant()
        acc.parallel([0.05, 0.2, 0.1], "clusters")
        assert acc.total() == pytest.approx(0.2)

    def test_parallel_needs_epsilons(self):
        with pytest.raises(BudgetError):
            PrivacyAccountant().parallel([], "empty")

    def test_limit_enforced(self):
        acc = PrivacyAccountant(limit=0.25)
        acc.spend(0.2, "a")
        with pytest.raises(BudgetError, match="exceed"):
            acc.spend(0.1, "b")

    def test_cap_fills_exactly_on_the_grid(self):
        """0.1 * 3 != 0.3 in floats, but the nano-eps grid makes the three
        charges sum to exactly the cap: full admission, zero remaining, and
        the next positive epsilon refused with zero slack."""
        acc = PrivacyAccountant(limit=0.3)
        for _ in range(3):
            acc.spend(0.1, "x")
        assert acc.remaining() == 0.0
        assert acc.total_units() == 300_000_000
        with pytest.raises(BudgetError, match="exceed"):
            acc.spend(1e-9, "one more nano-eps")

    @pytest.mark.parametrize(
        "charge, item",
        [
            (lambda acc: acc.spend(0.1, "x"), (0.1, "x")),
            (lambda acc: acc.parallel([0.1, 0.05], "x"), ([0.1, 0.05], "x")),
        ],
    )
    def test_one_item_spend_many_refuses_like_its_single_charge(
        self, charge, item
    ):
        messages = []
        for call in (charge, lambda acc: acc.spend_many([item])):
            with pytest.raises(BudgetError) as refused:
                call(PrivacyAccountant(limit=0.01))
            messages.append(str(refused.value))
        assert messages[0] == messages[1]
        with pytest.raises(BudgetError, match="^2 charges from 'x' of 0.2 "):
            PrivacyAccountant(limit=0.01).spend_many([(0.1, "x"), (0.1, "y")])

    def test_remaining_without_limit(self):
        assert PrivacyAccountant().remaining() == float("inf")

    def test_charges_recorded_in_order(self):
        acc = PrivacyAccountant()
        acc.spend(0.1, "first")
        acc.parallel([0.2], "second")
        labels = [c.label for c in acc]
        assert labels == ["first", "second"]
        assert acc.charges()[1].composition == "parallel-group"

    def test_summary_mentions_total(self):
        acc = PrivacyAccountant()
        acc.spend(0.1, "x")
        assert "0.1" in acc.summary()


class TestAccountantConcurrency:
    def test_concurrent_charges_never_overspend_the_cap(self):
        """The check-and-append is atomic: 32 racing spenders of 0.1 against
        a 1.0 cap must land exactly 10 charges, never 11."""
        acc = PrivacyAccountant(limit=1.0)
        refused = []
        barrier = threading.Barrier(8)

        def spender(worker: int) -> None:
            barrier.wait()
            for i in range(4):
                try:
                    acc.spend(0.1, f"w{worker}.{i}")
                except BudgetError:
                    refused.append((worker, i))

        threads = [threading.Thread(target=spender, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert acc.total() == pytest.approx(1.0)
        assert len(acc.charges()) == 10
        assert len(refused) == 32 - 10

    def test_concurrent_mixed_spend_and_parallel(self):
        acc = PrivacyAccountant(limit=0.5)

        def charge() -> None:
            for _ in range(10):
                try:
                    acc.spend(0.05, "seq")
                except BudgetError:
                    pass
                try:
                    acc.parallel([0.02, 0.05], "par")
                except BudgetError:
                    pass

        threads = [threading.Thread(target=charge) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert acc.total() <= 0.5  # exact: no tolerance window exists any more


class TestTokenRefund:
    """Refund-by-token removes the exact reserved charge, never a lookalike."""

    def test_spend_returns_distinct_tokens(self):
        acc = PrivacyAccountant()
        tokens = [acc.spend(0.1, "same-label") for _ in range(3)]
        assert len(set(tokens)) == 3

    def test_refund_by_token_restores_the_room(self):
        acc = PrivacyAccountant(limit=0.5)
        token = acc.spend(0.3, "a")
        acc.refund(token)
        assert acc.total() == pytest.approx(0.0)
        acc.spend(0.5, "b")  # full cap is available again

    def test_refund_targets_its_own_charge_among_equal_labels(self):
        """The review scenario: two charges share a label (same dataset+seed,
        different epsilon configs); refunding the first must not delete the
        second — the recorded release with the *other* epsilon."""
        acc = PrivacyAccountant()
        first = acc.spend(0.1, "service: dataset=d seed=0")
        acc.spend(0.4, "service: dataset=d seed=0")
        acc.refund(first)
        assert [c.epsilon for c in acc] == [pytest.approx(0.4)]

    def test_refund_same_token_twice_raises(self):
        acc = PrivacyAccountant()
        token = acc.spend(0.1, "x")
        acc.refund(token)
        with pytest.raises(BudgetError, match="refund"):
            acc.refund(token)

    def test_parallel_charge_is_refundable_by_token(self):
        acc = PrivacyAccountant()
        token = acc.parallel([0.1, 0.2], "p")
        acc.refund(token)
        assert acc.total() == pytest.approx(0.0)

    def test_tokens_from_before_a_restore_are_invalid(self):
        acc = PrivacyAccountant(limit=1.0)
        stale = acc.spend(0.2, "old")
        # Restore keeps tokens: the snapshot must not name the stale one.
        acc.restore({"limit": 1.0, "charges": [
            {"label": "new", "epsilon": 0.2, "composition": "sequential",
             "units": 200_000_000, "token": stale + 1}
        ]})
        with pytest.raises(BudgetError, match="refund"):
            acc.refund(stale)
        assert acc.total() == pytest.approx(0.2)

    def test_refunding_a_middle_token_keeps_token_order(self):
        acc = PrivacyAccountant()
        tokens = [acc.spend(0.1, f"c{i}") for i in range(4)]
        acc.refund(tokens[1])
        assert [c.label for c in acc.charges()] == ["c0", "c2", "c3"]
        rows = acc.snapshot()["charges"]
        assert [r["token"] for r in rows] == [tokens[0], tokens[2], tokens[3]]
        assert [r["label"] for r in rows] == ["c0", "c2", "c3"]
        assert acc.spend(0.1, "c4") == tokens[3] + 1


class TestSnapshotRestore:
    def test_roundtrip(self):
        acc = PrivacyAccountant(limit=1.0)
        acc.spend(0.3, "a")
        acc.parallel([0.1, 0.2], "b")
        restored = PrivacyAccountant.from_snapshot(acc.snapshot())
        assert restored.total() == pytest.approx(acc.total())
        assert restored.limit == acc.limit
        assert [c.label for c in restored] == ["a", "b"]
        assert restored.charges()[1].composition == "parallel-group"

    def test_snapshot_is_json_able(self):
        import json

        acc = PrivacyAccountant(limit=0.5)
        acc.spend(0.1, "x")
        state = json.loads(json.dumps(acc.snapshot()))
        assert PrivacyAccountant.from_snapshot(state).total() == pytest.approx(0.1)

    def test_restore_replaces_existing_charges(self):
        acc = PrivacyAccountant(limit=1.0)
        acc.spend(0.9, "old")
        acc.restore({"limit": 1.0, "charges": [
            {"label": "new", "epsilon": 0.2, "composition": "sequential",
             "units": 200_000_000, "token": 0}
        ]})
        assert acc.total() == pytest.approx(0.2)
        assert [c.label for c in acc] == ["new"]

    def test_overspent_snapshot_rejected(self):
        with pytest.raises(BudgetError, match="overspent"):
            PrivacyAccountant.from_snapshot(
                {"limit": 0.1, "charges": [
                    {"label": "x", "epsilon": 0.5, "composition": "sequential",
                     "units": 500_000_000, "token": 0}
                ]}
            )

    def test_repeated_token_rejected(self):
        row = {"label": "x", "epsilon": 0.1, "composition": "sequential",
               "units": 100_000_000, "token": 3}
        acc = PrivacyAccountant()
        with pytest.raises(BudgetError, match="repeat token"):
            acc.restore({"limit": None, "charges": [row, dict(row)]})
        assert acc.charges() == ()

    def test_restored_ledger_keeps_enforcing_the_cap(self):
        acc = PrivacyAccountant(limit=0.5)
        acc.spend(0.4, "a")
        restored = PrivacyAccountant.from_snapshot(acc.snapshot())
        with pytest.raises(BudgetError):
            restored.spend(0.2, "b")


class TestExplanationBudget:
    def test_total_matches_theorem_5_3(self):
        b = ExplanationBudget(0.1, 0.2, 0.3)
        assert b.total == pytest.approx(0.6)
        assert b.selection_total == pytest.approx(0.3)

    def test_paper_defaults(self):
        b = ExplanationBudget()
        assert b.eps_cand_set == b.eps_top_comb == b.eps_hist == 0.1

    def test_split_selection_even(self):
        b = ExplanationBudget.split_selection(0.2)
        assert b.eps_cand_set == pytest.approx(0.1)
        assert b.eps_top_comb == pytest.approx(0.1)

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(BudgetError):
            ExplanationBudget(eps_cand_set=0.0)

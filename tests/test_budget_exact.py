"""Property tests for exact integer budget accounting (PR 5 tentpole).

Three families of claims, each proven with hypothesis rather than examples:

* **Zero-slack admission** — any charge sequence whose grid quantizations
  sum exactly to the cap is admitted in full, and *any* further positive
  epsilon (down to one nano-eps) is refused.  No ``TOLERANCE`` window
  exists in any admission path.
* **Order-insensitive reconstruction** — snapshot→restore totals are
  invariant under permutation of the charge rows, and no snapshot or
  journal replay can ever reconstruct a ledger whose spend exceeds its cap.
* **Refund exactness** — charge-then-refund round-trips return the ledger
  to the exact unit count it started from (no float drift accumulates over
  arbitrarily long reserve/rollback traffic).
"""

import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.privacy.budget import (
    GRID,
    BudgetError,
    PrivacyAccountant,
    epsilon_from_units,
    quantize_epsilon,
)

# Epsilons as exact grid-unit counts, spanning sub-micro-eps to ~100 eps.
# Floats produced by epsilon_from_units() round-trip through
# quantize_epsilon() exactly on this range (double precision has spare
# bits: ulp(100.0) ~ 1.4e-14 << 0.5 nano-eps).
unit_counts = st.integers(min_value=1, max_value=100 * GRID)


class TestQuantizationPolicy:
    @given(unit_counts)
    def test_units_roundtrip_through_float(self, units):
        assert quantize_epsilon(epsilon_from_units(units)) == units

    @pytest.mark.parametrize(
        "eps,units",
        [
            (0.1, 100_000_000),  # float 0.1 > 1/10 but quantizes to 1/10
            (0.3, 300_000_000),  # float 0.3 < 3/10 but quantizes to 3/10
            (1e-9, 1),  # the grid's resolution
            (1.0, GRID),
        ],
    )
    def test_decimal_epsilons_land_on_their_grid_point(self, eps, units):
        assert quantize_epsilon(eps) == units

    def test_below_grid_epsilon_refused(self):
        with pytest.raises(BudgetError, match="grid"):
            quantize_epsilon(1e-12)

    @pytest.mark.parametrize("bad", [0.0, -0.1, float("inf"), float("nan")])
    def test_invalid_epsilons_refused(self, bad):
        with pytest.raises(BudgetError):
            quantize_epsilon(bad)


class TestZeroSlackAdmission:
    @settings(max_examples=200, deadline=None)
    @given(
        charges=st.lists(unit_counts, min_size=1, max_size=30),
        extra=st.integers(min_value=1, max_value=GRID),
    )
    def test_exact_cap_admits_and_one_more_unit_refuses(self, charges, extra):
        """The cap is the *exact* sum of the incoming charges: every charge
        admits, the ledger lands on the cap to the unit, and any further
        positive epsilon — even a single nano-eps — refuses."""
        cap_units = sum(charges)
        acc = PrivacyAccountant(limit=epsilon_from_units(cap_units))
        for u in charges:
            acc.spend(epsilon_from_units(u), "charge")
        assert acc.total_units() == cap_units
        balance = acc.balance()
        assert balance.remaining_units == 0
        assert balance.spent_units + balance.remaining_units == balance.limit_units
        assert not acc.can_spend(epsilon_from_units(extra))
        with pytest.raises(BudgetError, match="exceed"):
            acc.spend(epsilon_from_units(extra), "over")

    @settings(max_examples=50, deadline=None)
    @given(k=st.integers(min_value=1, max_value=300))
    def test_many_tenths_fill_a_three_tenths_k_cap_exactly(self, k):
        """The adversarial decimal case: 3k charges of float 0.1 against a
        cap of 0.3*k.  In floats neither side is exact; on the grid the sum
        is exactly the cap."""
        cap = epsilon_from_units(3 * k * quantize_epsilon(0.1))
        acc = PrivacyAccountant(limit=cap)
        for _ in range(3 * k):
            acc.spend(0.1, "tenth")
        assert acc.balance().remaining_units == 0
        with pytest.raises(BudgetError):
            acc.spend(1e-9, "one nano-eps too many")

    @settings(max_examples=100, deadline=None)
    @given(
        charges=st.lists(unit_counts, min_size=1, max_size=30),
        cap=unit_counts,
    )
    def test_admission_agrees_with_can_spend(self, charges, cap):
        """can_spend() is the same integer comparison spend() performs:
        over any traffic they can never disagree."""
        acc = PrivacyAccountant(limit=epsilon_from_units(cap))
        for u in charges:
            eps = epsilon_from_units(u)
            predicted = acc.can_spend(eps)
            try:
                acc.spend(eps, "c")
                admitted = True
            except BudgetError:
                admitted = False
            assert admitted == predicted
        assert acc.total_units() <= cap


class TestReconstructionSafety:
    @settings(max_examples=100, deadline=None)
    @given(
        charges=st.lists(unit_counts, min_size=1, max_size=20),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_restore_total_is_order_insensitive(self, charges, seed):
        acc = PrivacyAccountant(limit=epsilon_from_units(sum(charges)))
        for u in charges:
            acc.spend(epsilon_from_units(u), "c")
        state = acc.snapshot()
        shuffled = dict(state)
        shuffled["charges"] = list(state["charges"])
        random.Random(seed).shuffle(shuffled["charges"])
        restored = PrivacyAccountant.from_snapshot(shuffled)
        assert restored.total_units() == acc.total_units()
        assert restored.balance().remaining_units == 0

    @settings(max_examples=100, deadline=None)
    @given(
        charges=st.lists(unit_counts, min_size=1, max_size=20),
        deficit=st.integers(min_value=1, max_value=GRID),
    )
    def test_overspent_snapshot_never_reconstructs(self, charges, deficit):
        """A snapshot whose charges exceed its cap by even one nano-eps is
        refused: no restore path can materialise an overspent ledger."""
        cap_units = sum(charges) - deficit
        if cap_units <= 0:
            cap_units = 1
            deficit = sum(charges) - 1
        if deficit <= 0:
            return  # single 1-unit charge: nothing to overspend by
        state = {
            "limit": epsilon_from_units(cap_units),
            "charges": [
                {
                    "label": "c",
                    "epsilon": epsilon_from_units(u),
                    "composition": "sequential",
                    "units": u,
                    "token": i,
                }
                for i, u in enumerate(charges)
            ],
        }
        with pytest.raises(BudgetError, match="overspent"):
            PrivacyAccountant.from_snapshot(state)

    @settings(max_examples=100, deadline=None)
    @given(
        charges=st.lists(unit_counts, min_size=1, max_size=20),
        field=st.sampled_from(["units", "token"]),
        data=st.data(),
    )
    def test_row_without_units_or_token_refuses(self, charges, field, data):
        """Every snapshot row carries ``units`` and ``token``: a row missing
        either (the old float-only shape) refuses, and the ledger it
        was meant to replace stays exactly as it was."""
        acc = PrivacyAccountant()
        acc.spend(0.25, "kept")
        before = (acc.charges(), acc.total_units(), acc.snapshot()["next_token"])
        rows = [
            {
                "label": "c",
                "epsilon": epsilon_from_units(u),
                "composition": "sequential",
                "units": u,
                "token": 10 + i,
            }
            for i, u in enumerate(charges)
        ]
        del rows[data.draw(st.integers(0, len(rows) - 1))][field]
        with pytest.raises(BudgetError, match="units or token"):
            acc.restore({"limit": None, "next_token": 99, "charges": rows})
        after = (acc.charges(), acc.total_units(), acc.snapshot()["next_token"])
        assert after == before


class TestRefundExactness:
    @settings(max_examples=100, deadline=None)
    @given(
        base=st.lists(unit_counts, min_size=0, max_size=10),
        churn=st.lists(unit_counts, min_size=1, max_size=30),
    )
    def test_reserve_rollback_traffic_leaves_units_exact(self, base, churn):
        acc = PrivacyAccountant()
        for u in base:
            acc.spend(epsilon_from_units(u), "kept")
        start = acc.total_units()
        for u in churn:
            token = acc.spend(epsilon_from_units(u), "reserved")
            acc.refund(token)
        assert acc.total_units() == start

    @settings(max_examples=50, deadline=None)
    @given(charges=st.lists(unit_counts, min_size=2, max_size=10))
    def test_refund_reopens_exactly_the_refunded_room(self, charges):
        cap_units = sum(charges)
        acc = PrivacyAccountant(limit=epsilon_from_units(cap_units))
        tokens = [
            acc.spend(epsilon_from_units(u), "c") for u in charges
        ]
        acc.refund(tokens[0])
        assert acc.balance().remaining_units == charges[0]
        acc.spend(epsilon_from_units(charges[0]), "again")
        assert acc.balance().remaining_units == 0

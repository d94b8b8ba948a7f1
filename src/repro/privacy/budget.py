"""Privacy budgets and the composition calculus of Proposition 2.7.

:class:`PrivacyAccountant` is a run-time ledger for pure epsilon-DP.  Charges
are recorded with a label and combined under:

* **sequential composition** — epsilons add;
* **parallel composition** — the *max* epsilon over charges against disjoint
  input partitions counts once (modelled by :meth:`PrivacyAccountant.parallel`);
* **post-processing** — free, therefore never charged.

The DPClustX facade threads an accountant through Algorithms 1-2 so the
end-to-end guarantee of Theorem 5.3 — ``eps_CandSet + eps_TopComb + eps_Hist``
— is checked at run time rather than only on paper.

Exact integer accounting
------------------------

The ledger does **no float arithmetic on the admission path**.  Every
epsilon is quantized onto a fixed rational grid of *nano-epsilon* units
(:data:`GRID` = 1e9 units per unit of epsilon) the moment it enters the
accountant, and all cap checks are integer compare-and-add:

* **Quantization policy** — an incoming float ``eps`` maps to
  ``round(Fraction(eps) * GRID)`` (exact binary-rational arithmetic,
  ties-to-even).  Two floats within half a nano-eps of the same grid point
  coincide; a positive epsilon that rounds to zero units is *below the grid*
  and refused.  The float is kept verbatim on the
  :class:`Charge` for audit display; the ``units`` integer is the accounting
  truth.
* **Exactness** — a charge sequence whose quantized units sum exactly to the
  quantized cap is admitted in full, and any further positive epsilon is
  refused.  There is no tolerance window: the pre-PR-5 ``TOLERANCE = 1e-9``
  slack (which admitted up to a nano-eps *past* the cap and required an
  O(n) re-sum of the ledger per charge) is gone.
* **O(1) admission** — the accountant maintains a running
  ``_spent_units`` integer, so :meth:`spend` / :meth:`parallel` /
  :meth:`can_spend` cost one integer comparison regardless of ledger length.

The accountant is thread-safe: the cap check and the charge append happen
atomically under an internal lock, so concurrent callers (the explanation
service's worker pool) can never jointly overspend a limit.  Every charge,
whatever its composition, is admitted by :meth:`PrivacyAccountant.spend_many`:
:meth:`~PrivacyAccountant.spend` and :meth:`~PrivacyAccountant.parallel` are
its one-item calls.  It admits a release all-or-nothing, with one admission
check and (through the observer's commit group) one fsync for all its
records.

This module owns the persisted charge format.  A charge is written as a
snapshot row (:meth:`PrivacyAccountant.snapshot`) or as a journal record
(the ``record`` of an observer event, see
:meth:`PrivacyAccountant.set_observer`), and :func:`parse_charge` is the one
reader of both.  :meth:`PrivacyAccountant.restore` rebuilds a ledger from a
snapshot plus the journal records written after it, in one pass.
"""

from __future__ import annotations

import threading

from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

#: Nano-epsilon grid: integer accounting units per 1.0 of epsilon.
GRID = 10**9


class BudgetError(ValueError):
    """Raised on non-positive epsilons or ledger misuse."""


def check_epsilon(epsilon: float, *, name: str = "epsilon") -> float:
    """Validate that an epsilon is a positive finite float and return it."""
    eps = float(epsilon)
    if not eps > 0.0:
        raise BudgetError(f"{name} must be positive, got {epsilon!r}")
    if not eps < float("inf"):
        raise BudgetError(f"{name} must be finite, got {epsilon!r}")
    return eps


def quantize_epsilon(epsilon: float, *, name: str = "epsilon") -> int:
    """Map an epsilon onto the integer nano-eps grid (the quantization policy).

    ``round(Fraction(eps) * GRID)`` — the float's exact binary rational,
    scaled and rounded to the nearest grid point (ties-to-even), so e.g.
    three charges of float ``0.1`` sum to *exactly* the quantization of a
    ``0.3`` cap.  Raises :class:`BudgetError` for epsilons that are invalid
    or so small they round to zero units (below the grid's resolution).
    """
    eps = check_epsilon(epsilon, name=name)
    units = int(round(Fraction(eps) * GRID))
    if units <= 0:
        raise BudgetError(
            f"{name} {epsilon!r} is below the accounting grid "
            f"(resolution 1/{GRID} epsilon)"
        )
    return units


def epsilon_from_units(units: int) -> float:
    """The float epsilon a grid-unit count represents (display only)."""
    return units / GRID


@dataclass(frozen=True, slots=True)
class Charge:
    """One recorded privacy expenditure.

    ``epsilon`` is the caller's float, kept verbatim for audit display;
    ``units`` is its exact grid quantization and the value the accountant
    actually sums.
    """

    label: str
    epsilon: float
    composition: str  # "sequential" | "parallel-group"
    units: int


def parse_charge(row: Mapping) -> "tuple[int, Charge]":
    """Read one persisted charge: a snapshot row or a journal charge record.

    Both carry ``label``, ``epsilon``, ``composition``, ``units`` and
    ``token``; other keys (a record's ``seq``, ``dataset`` and ``op``) are
    not read.  Returns ``(token, charge)``.  Raises :class:`BudgetError` on
    a row that lacks its units or token, or has non-positive units or an
    invalid epsilon.
    """
    units, token = row.get("units"), row.get("token")
    if units is None or token is None:
        raise BudgetError(
            f"restored charge {row.get('label')!r} lacks its units or token"
        )
    units = int(units)
    if units <= 0:
        raise BudgetError(f"restored charge has non-positive units {units}")
    return int(token), Charge(
        str(row["label"]),
        check_epsilon(row["epsilon"], name="restored charge"),
        str(row.get("composition", "sequential")),
        units,
    )


def _record_token(record: Mapping) -> int:
    token = record.get("token")
    if token is None:
        raise BudgetError(f"journal record {record.get('op')!r} lacks its token")
    return int(token)


@dataclass(frozen=True)
class Balance:
    """One atomic read of a ledger's position: spent/remaining/limit together.

    Produced by :meth:`PrivacyAccountant.balance` under a single lock
    acquisition, so ``spent + remaining == limit`` holds exactly (in units)
    even while other threads charge — the invariant separate ``total()`` /
    ``remaining()`` calls cannot give.
    """

    spent: float
    remaining: float
    limit: float | None
    spent_units: int
    remaining_units: int | None
    limit_units: int | None


class PrivacyAccountant:
    """Pure-epsilon ledger with sequential and parallel composition.

    Parameters
    ----------
    limit:
        Optional hard cap; :meth:`spend` raises once the sequential total
        would exceed it.  Admission is exact on the nano-eps grid: the cap
        fills to the last unit and refuses the first unit past it.
    """

    def __init__(self, limit: float | None = None):
        self._lock = threading.RLock()
        # token -> charge.  Tokens are unique over the accountant's
        # lifetime and only grow, so insertion order is token order, and a
        # refund can only ever remove the exact charge its reservation
        # created — two charges with identical labels (same dataset+seed,
        # different epsilon configs) are still distinguishable.
        # snapshot()/restore() preserve tokens, so a charge's identity
        # survives persistence (the journal layer keys replay on it).
        self._charges: dict[int, Charge] = {}
        self._next_token = 0
        self._spent_units = 0
        self._limit = None if limit is None else float(limit)
        self._limit_units = (
            None if limit is None else quantize_epsilon(self._limit, name="limit")
        )
        self._observer: "Callable[[dict], None] | None" = None
        self._group: "Callable[[], AbstractContextManager]" = nullcontext

    def __repr__(self) -> str:
        return (
            f"PrivacyAccountant(limit={self._limit!r}, "
            f"charges={len(self._charges)}, spent_units={self._spent_units})"
        )

    @property
    def limit(self) -> float | None:
        return self._limit

    # -- observer --------------------------------------------------------- #

    def set_observer(
        self,
        observer: "Callable[[dict], None] | None",
        group: "Callable[[], AbstractContextManager] | None" = None,
    ) -> None:
        """Install a mutation hook, called *under the ledger lock* with one
        event dict per charge or refund: ``{"record", "spent_units",
        "limit_units"}``.  ``record`` is what a journal persists and
        :meth:`restore` reads back: ``{"op": "charge", "token", "label",
        "epsilon", "units", "composition"}`` or ``{"op": "refund", "token",
        "units"}``.  The post-mutation position beside it lets telemetry
        sinks publish budget-remaining gauges without a second lock round.
        :meth:`restore` does *not* emit events; callers that restore a
        wired accountant must resync their sink out-of-band.

        Record, then apply: the hook runs *before* the ledger changes, and
        the change is applied only once it returns.  A hook that raises
        leaves the ledger as it was (a failed charge still retires its
        token), so memory never holds a mutation its record lacks.

        The service layer's journal writes its record inside this hook.
        Every charge is durable before the first draw against it: every
        :meth:`spend_many` (so every :meth:`spend`) runs in ``group`` — a
        context-manager factory, the journal's commit scope — whose exit
        fsyncs once per journal, outside the ledger lock, before the call
        returns; inside an enclosing scope (a service batch) the fsync
        waits for that scope's exit.
        """
        with self._lock:
            self._observer = observer
            self._group = nullcontext if group is None else group

    def _notify(self, record: dict, spent_units: int) -> None:
        if self._observer is not None:
            self._observer(
                {
                    "record": record,
                    "spent_units": spent_units,
                    "limit_units": self._limit_units,
                }
            )

    # -- charging --------------------------------------------------------- #

    def spend(self, epsilon: float, label: str) -> int:
        """Record a sequentially-composed charge of ``epsilon``.

        The cap check and the append are one atomic O(1) step under the
        internal lock (integer compare-and-add on the running units total),
        so parallel spenders cannot interleave past the limit and admission
        cost does not grow with ledger length.

        Returns an opaque token identifying *this* charge, accepted by
        :meth:`refund` — the only safe way to roll back a reservation when
        other charges may share its label.  A one-item :meth:`spend_many`.
        """
        return self.spend_many([(epsilon, label)])[0]

    def parallel(self, epsilons: list[float], label: str) -> int:
        """Record charges against *disjoint* partitions; only max(eps) counts.

        This implements parallel composition (Proposition 2.7): mechanisms
        applied to disjoint subsets of the input domain jointly satisfy
        ``max_i eps_i``-DP.  Callers are responsible for the disjointness
        claim (e.g. per-cluster histograms in Algorithm 2, Line 16).

        Returns a refund token, as :meth:`spend` does.  A one-item
        :meth:`spend_many`.
        """
        return self.spend_many([(tuple(epsilons), label)])[0]

    def spend_many(
        self, items: "Sequence[tuple[float | Sequence[float], str]]"
    ) -> "list[int]":
        """Record several charges all-or-nothing; returns their tokens.

        Each item is ``(epsilon, label)`` — a sequential charge, as
        :meth:`spend` — or ``(epsilons, label)`` with a list or tuple of
        epsilons — a parallel group, as :meth:`parallel`.  Under one lock
        acquisition the summed units face one integer admission check;
        then every item is appended, or none is.  A refusal raises
        :class:`BudgetError` with the ledger untouched and no record
        written.  The records go out inside the observer's commit group,
        so a journal-backed ledger pays one fsync for all of them, taken
        before this returns (or, inside an enclosing commit scope, at that
        scope's exit).  If a record or the commit fails, the items already
        appended are refunded and the error propagates.
        """
        charges = [
            self._parallel(eps, label) if isinstance(eps, (list, tuple))
            else self._sequential(eps, label)
            for eps, label in items
        ]
        if not charges:
            return []
        tokens: "list[int]" = []
        try:
            with self._group():
                with self._lock:
                    self._admit(charges)
                    for charge in charges:
                        tokens.append(self._append(charge))
        except BaseException:
            with self._lock:
                for token in reversed(tokens):
                    self._remove(token)
            raise
        return tokens

    @staticmethod
    def _sequential(epsilon: float, label: str) -> Charge:
        what = f"charge {label!r}"
        eps = check_epsilon(epsilon, name=what)
        return Charge(label, eps, "sequential", quantize_epsilon(eps, name=what))

    @staticmethod
    def _parallel(epsilons: "Sequence[float]", label: str) -> Charge:
        what = f"parallel charge {label!r}"
        if not epsilons:
            raise BudgetError(f"{what} needs at least one epsilon")
        eps = max(check_epsilon(e, name=what) for e in epsilons)
        units = max(quantize_epsilon(e, name=what) for e in epsilons)
        return Charge(label, eps, "parallel-group", units)

    def can_spend(self, epsilon: float) -> bool:
        """O(1) admission query: would a charge of ``epsilon`` be admitted?

        The exact same integer comparison :meth:`spend` performs, without
        mutating the ledger — the replacement for the pre-PR-5 callers that
        re-derived admission as ``epsilon > remaining + TOLERANCE``.
        """
        units = quantize_epsilon(epsilon)
        with self._lock:
            if self._limit_units is None:
                return True
            return self._spent_units + units <= self._limit_units

    def _admit(self, charges: "list[Charge]") -> None:
        """Raise if ``charges`` would exceed the limit.  Caller holds the
        lock.  One integer compare — no ledger traversal, no tolerance."""
        units = sum([c.units for c in charges])
        if (
            self._limit_units is not None
            and self._spent_units + units > self._limit_units
        ):
            # One item (spend / parallel) refuses naming its own charge.
            first = charges[0]
            if len(charges) > 1:
                what = f"{len(charges)} charges from {first.label!r}"
            elif first.composition == "parallel-group":
                what = f"parallel charge {first.label!r}"
            else:
                what = f"charge {first.label!r}"
            raise BudgetError(
                f"{what} of {epsilon_from_units(units)} would exceed the "
                f"budget limit {self._limit} "
                f"(already spent {epsilon_from_units(self._spent_units)})"
            )

    def _append(self, charge: Charge) -> int:
        """Record, then apply, a charge; returns its token.  Caller holds
        the lock.

        The token is retired before the observer (the durability hook)
        runs, so a charge whose record fails is never re-minted; the
        charge itself enters the ledger only once its record is written.
        Nothing was released (the caller's ``spend`` raises before any
        mechanism runs), so a failed record leaves nothing to undo.
        """
        token = self._next_token
        self._next_token += 1
        spent_units = self._spent_units + charge.units
        self._notify(
            {
                "op": "charge",
                "token": token,
                "label": charge.label,
                "epsilon": charge.epsilon,
                "units": charge.units,
                "composition": charge.composition,
            },
            spent_units,
        )
        self._charges[token] = charge
        self._spent_units = spent_units
        return token

    # -- introspection ---------------------------------------------------- #

    def total(self) -> float:
        """Total epsilon under sequential composition of recorded charges."""
        with self._lock:
            return epsilon_from_units(self._spent_units)

    def total_units(self) -> int:
        """The running units total — the exact integer the cap checks use."""
        with self._lock:
            return self._spent_units

    def remaining(self) -> float:
        """Remaining budget, ``inf`` when no limit was set."""
        return self.balance().remaining

    def balance(self) -> Balance:
        """Spent, remaining and limit in **one** locked read.

        Concurrent charges can land between two separate ``total()`` /
        ``remaining()`` calls, yielding stats where spent + remaining !=
        limit; this method is the atomic alternative every reporting path
        (service ``/v1/ledger``, ``/v1/stats``, refusal envelopes,
        :meth:`summary`) goes through.
        """
        with self._lock:
            spent_units = self._spent_units
            limit_units = self._limit_units
            limit = self._limit
        if limit_units is None:
            return Balance(
                spent=epsilon_from_units(spent_units),
                remaining=float("inf"),
                limit=None,
                spent_units=spent_units,
                remaining_units=None,
                limit_units=None,
            )
        remaining_units = limit_units - spent_units
        return Balance(
            spent=epsilon_from_units(spent_units),
            remaining=epsilon_from_units(remaining_units),
            limit=limit,
            spent_units=spent_units,
            remaining_units=remaining_units,
            limit_units=limit_units,
        )

    def charges(self) -> tuple[Charge, ...]:
        with self._lock:
            return tuple(self._charges.values())

    def __iter__(self) -> Iterator[Charge]:
        return iter(self.charges())

    def summary(self) -> str:
        """Human-readable ledger dump (total and rows from one locked read)."""
        with self._lock:
            total = epsilon_from_units(self._spent_units)
            charges = tuple(self._charges.values())
        lines = [f"privacy ledger (total eps = {total:.6g})"]
        for c in charges:
            lines.append(f"  {c.label:<40s} eps={c.epsilon:<10.6g} [{c.composition}]")
        return "\n".join(lines)

    # -- refunds ----------------------------------------------------------- #

    def refund(self, token: int) -> None:
        """Remove the exact charge that :meth:`spend` minted ``token`` for.

        For infrastructure that charges *before* running a mechanism (the
        explanation service's atomic reserve-then-compute): when the
        computation fails before any data-dependent output is produced, no
        privacy was consumed and the reservation is rolled back.  Refunding
        by token cannot touch any other charge, even one with an identical
        label (same dataset+seed under a different epsilon config).  Never
        call this after a release has been observed.
        """
        with self._lock:
            if token not in self._charges:
                raise BudgetError(f"no charge with token {token!r} to refund")
            self._remove(token)

    def _remove(self, token: int) -> None:
        """Record, then apply, the refund of charge ``token``.  Caller
        holds the lock.

        If the refund record cannot be written, the charge stays and the
        error propagates — the ledger keeps the spend (overcounting: safe
        in the privacy direction) rather than letting memory and disk
        diverge.
        """
        units = self._charges[token].units
        spent_units = self._spent_units - units
        self._notify({"op": "refund", "token": token, "units": units}, spent_units)
        self._charges.pop(token)
        self._spent_units = spent_units

    # -- persistence ----------------------------------------------------- #

    def snapshot(self) -> dict:
        """A JSON-able copy of the ledger (limit + charges in token order).

        Each charge carries its exact ``units`` and its refund ``token``
        (plus ``next_token``), so a restore reconstructs charge identity —
        the property the service journal's replay keys on.
        """
        with self._lock:
            return {
                "limit": self._limit,
                "next_token": self._next_token,
                "charges": [
                    {
                        "label": c.label,
                        "epsilon": c.epsilon,
                        "composition": c.composition,
                        "units": c.units,
                        "token": t,
                    }
                    for t, c in self._charges.items()
                ],
            }

    def restore(
        self, state: Mapping, journal: "Iterable[Mapping]" = ()
    ) -> None:
        """Replace the ledger with a :meth:`snapshot` plus the ``journal``
        records written after it (crash-recovery path), in one pass.

        ``journal`` holds observer-event ``record`` dicts in write order.
        Replay is idempotent: a charge record whose token the ledger
        already holds is a no-op, and a refund of an absent token skips
        (a directory a compacting writer left can hold both).  A record
        with any other ``op`` refuses.

        The restored charges are replayed against *this accountant's* cap;
        the snapshot's ``limit`` is not read, so restoring can never widen
        a cap.  Charges that end over the cap, a row that lacks its
        ``units`` or ``token``, or a record that lacks its ``token`` raise
        :class:`BudgetError` and leave the accountant unchanged.  The replay
        is exact integer arithmetic with no tolerance window.  Charge tokens
        are preserved, so persisted charge identity survives a restart.
        """
        rows: "dict[int, Charge]" = {}
        for row in state.get("charges", ()):
            token, charge = parse_charge(row)
            if token in rows:
                raise BudgetError(f"restored charges repeat token {token}")
            rows[token] = charge
        next_token = int(state.get("next_token", 0))
        for record in journal:
            op, token = record.get("op"), _record_token(record)
            if op == "charge":
                if token not in rows:
                    rows[token] = parse_charge(record)[1]
            elif op == "refund":
                rows.pop(token, None)
            else:
                raise BudgetError(f"journal record has unknown op {op!r}")
            next_token = max(next_token, token + 1)
        spent_units = sum(c.units for c in rows.values())
        if self._limit_units is not None and spent_units > self._limit_units:
            raise BudgetError(
                f"snapshot is overspent: {epsilon_from_units(spent_units)} "
                f"exceeds the limit {self._limit}"
            )
        with self._lock:
            self._charges = dict(sorted(rows.items()))
            self._next_token = max(
                self._next_token, max(rows, default=-1) + 1, next_token
            )
            self._spent_units = spent_units

    @classmethod
    def from_snapshot(cls, state: Mapping) -> "PrivacyAccountant":
        """Rebuild an accountant from a :meth:`snapshot` dict, capped at the
        snapshot's own ``limit``."""
        acc = cls(state.get("limit"))
        acc.restore(state)
        return acc


@dataclass(frozen=True)
class ExplanationBudget:
    """The three-way budget of Algorithm 2 / Theorem 5.3.

    ``eps_cand_set`` funds Stage-1 candidate selection, ``eps_top_comb`` the
    Stage-2 exponential mechanism, ``eps_hist`` the noisy histograms.  The
    paper's default is 0.1 each (Section 6.1).
    """

    eps_cand_set: float = 0.1
    eps_top_comb: float = 0.1
    eps_hist: float = 0.1

    def __post_init__(self) -> None:
        check_epsilon(self.eps_cand_set, name="eps_cand_set")
        check_epsilon(self.eps_top_comb, name="eps_top_comb")
        check_epsilon(self.eps_hist, name="eps_hist")

    @property
    def total(self) -> float:
        """``eps_CandSet + eps_TopComb + eps_Hist`` (Theorem 5.3)."""
        return self.eps_cand_set + self.eps_top_comb + self.eps_hist

    @property
    def selection_total(self) -> float:
        """Budget spent on attribute *selection* only (Figures 5-6 x-axis)."""
        return self.eps_cand_set + self.eps_top_comb

    @classmethod
    def split_selection(
        cls, eps_selection: float, *, eps_hist: float = 0.1
    ) -> "ExplanationBudget":
        """Paper sweep convention: ``eps_CandSet = eps_TopComb = eps/2``."""
        eps = check_epsilon(eps_selection, name="eps_selection")
        return cls(eps / 2.0, eps / 2.0, eps_hist)

"""``repro.analysis.flow`` — the interprocedural half of the rule catalogue.

Two rule families on one fixpoint dataflow substrate:

* **Dataflow** (``taint.py`` over ``dataflow.py``): ``charge-before-release``
  reads the walk's charge/draw ordering facts — a noise draw reached, at
  any call depth, before the ledger charge in an accounting function.  For
  privacy taint, sources are the raw row/count accessors, sanitizers are
  the mechanism release methods declared in :mod:`repro.privacy.manifest`
  (new backends self-register), sinks are the serving tier's output
  channels.  Any source → sink path that never crosses a sanitizer is a
  ``taint-unsanitized-release`` finding; tainted values in exception
  messages / error envelopes are ``taint-error-envelope`` findings.
  Findings carry a full flow trace (source → hops → sink, or caller →
  hops → draw) in the v2 JSON schema.

* **Lockset** (``lockset.py``): infers guarded-by relations for shared
  mutable attributes in classes that own locks, verifies the
  caller-holds-lock helper idiom by fixpoint, and reports accesses outside
  the inferred lockset (``lockset-unguarded-access``), unlocked writes to
  an accountant's declared-guarded ledger (``locked-ledger-mutation``) and
  inconsistent lock-acquisition orders (``lockset-order-cycle``).

The rules run in the same :class:`~repro.analysis.engine.Linter` pass as
the syntactic rules of :mod:`repro.analysis.rules`: same
Finding/suppression model, same report schema, same CLI.
"""

from .dataflow import FlowAnalysis, FunctionSummary, Taint, TaintConfig, fixpoint
from .lockset import (
    LockedLedgerMutationRule,
    LocksetOrderCycleRule,
    LocksetUnguardedAccessRule,
)
from .taint import (
    ChargeBeforeReleaseRule,
    TaintErrorEnvelopeRule,
    TaintUnsanitizedReleaseRule,
    load_taint_config,
)

#: The flow half of the rule catalogue, in catalogue order.
FLOW_RULES = (
    ChargeBeforeReleaseRule(),
    TaintUnsanitizedReleaseRule(),
    TaintErrorEnvelopeRule(),
    LocksetUnguardedAccessRule(),
    LockedLedgerMutationRule(),
    LocksetOrderCycleRule(),
)

FLOW_RULE_NAMES = tuple(rule.name for rule in FLOW_RULES)

__all__ = [
    "FLOW_RULES",
    "FLOW_RULE_NAMES",
    "ChargeBeforeReleaseRule",
    "FlowAnalysis",
    "FunctionSummary",
    "LockedLedgerMutationRule",
    "LocksetOrderCycleRule",
    "LocksetUnguardedAccessRule",
    "Taint",
    "TaintConfig",
    "TaintErrorEnvelopeRule",
    "TaintUnsanitizedReleaseRule",
    "fixpoint",
    "load_taint_config",
]

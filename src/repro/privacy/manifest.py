"""The taint manifest: sources, sanitizers, and sinks of private data.

``repro lint`` (its taint rules, ``repro.analysis.flow``) proves the
paper's core guarantee statically: every value derived from raw rows or
counts passes through a *charged DP mechanism release* before it reaches
any output channel.  That proof needs three vocabularies, declared here —
in the privacy package, next to the mechanisms themselves — so a new
backend registers its release surface in the same commit that adds it:

* **sources** — accessor methods whose results are raw row/count data
  (``Dataset.row``, ``ClusteredCounts.cluster_size``, ``CountsStack``
  tensors, ...).  Anything computed from them is tainted.
* **sanitizers** — the mechanism release/selection methods.  A value
  returned by a sanitizer is differentially private; taint stops there.
* **sinks** — the output channels of the serving tier: HTTP/frame
  envelopes, ``logging`` calls, metrics label values, trace attachments,
  and journal records.  Tainted data reaching a sink without crossing a
  sanitizer is a ``taint-unsanitized-release`` finding.

A fourth, :data:`PUBLIC_GENERATORS`, names the data-independent synthetic
table generators, whose seeded draws ``charge-before-release`` never
counts as releases.

Self-registration
-----------------

Mechanism modules call :func:`register_sanitizer` at import time::

    # in privacy/mymech.py
    from .manifest import register_sanitizer
    register_sanitizer("release_widgets")   # MyMech.release_widgets(...)

The flow engine consumes the manifest two ways, so registration works both
for the shipped package and for code the linter merely parses:

1. it imports this module (importing ``repro.privacy`` runs every
   mechanism module's registration calls), and
2. it *statically scans* the analysed tree for ``register_sanitizer("x")``
   / ``register_source`` / ``register_sink`` calls with literal string
   arguments — a new backend registers correctly even when the linted
   checkout is never imported.

Names registered here are **method/function names**, not qualified paths:
the linter is a conservative AST tool and classifies call sites by name.
Keep names specific (``release_blocks``, not ``get``).
"""

from __future__ import annotations

import re

#: Accessor methods returning raw row- or count-derived values.  Seeded with
#: the Dataset and CountsStack surfaces and the accessors of the
#: ``CountsProvider`` base, whose exact subclasses (ClusteredCounts,
#: StreamedCounts, ProductCounts, StackCounts) return true counts.
#: A call only counts as a source when the method name appears here AND the
#: receiver matches :data:`TAINT_SOURCE_RECV_RE` — ``dataset.histogram(...)``
#: is raw, ``query_engine.histogram(...)`` is a charged DP release with the
#: same method name.
TAINT_SOURCE_METHODS: "set[str]" = {
    # Dataset row/column accessors (dataset/table.py)
    "row",
    "row_codes",
    "histogram",
    "count",
    "column",
    "active_domain",
    "to_matrix",
    "code_matrix",
    "lookup_matrix",
    "lookup_columns",
    "iter_chunks",
    # CountsProvider / CountsStack accessors (core/counts.py,
    # core/engine/stacks.py) — on every exact provider subclass they return
    # true (un-noised) counts; only NoisyCounts serves released ones.
    "full",
    "cluster",
    "total",
    "sizes",
    "by_cluster",
    "by_cluster_stack",
    "cluster_size",
    "totals_vector",
    "sizes_matrix",
    "true_blocks",
    "true_counts",
}

#: Attribute reads that are sources under the same receiver gate
#: (``counts.labels`` is the raw per-row cluster assignment).
TAINT_SOURCE_ATTRS: "set[str]" = {"labels"}

#: Receiver-name gate for sources: the innermost name the accessor is called
#: on must look like a dataset / counts / stack holder.
TAINT_SOURCE_RECV_RE = re.compile(
    r"dataset|counts|stack|table|chunk|^data$|_data$|^ds$|^rows?$",
    re.IGNORECASE,
)

#: Mechanism release / selection methods: crossing one of these makes a
#: value differentially private.  ``privacy`` backends self-register theirs.
SANITIZER_METHODS: "set[str]" = set()

#: Data-independent generators: the public synthetic-table entry points of
#: :mod:`repro.synth`.  They draw from a seeded ``Generator`` to *build* a
#: public demo table before any private data exists, so their draws are not
#: releases and ``charge-before-release`` never counts a call to one.
PUBLIC_GENERATORS: "set[str]" = {
    "diabetes_like", "diabetes_generator",
    "census_like", "census_generator",
    "stackoverflow_like", "stackoverflow_generator",
}

#: Sink *method* names grouped by channel.  The flow engine applies
#: receiver/keyword heuristics on top (see ``analysis/flow/taint.py``).
SINK_CHANNELS: "dict[str, set[str]]" = {
    # logging.<level>(...) / logger.<level>(...)
    "log": {
        "debug", "info", "warning", "warn", "error", "exception", "critical",
        "log",
    },
    # metrics label values: the labels= kwarg of these obs calls
    "metric-label": {"inc", "set", "observe"},
    # journal / ledger-store records
    "journal": {"append", "append_event", "append_record", "record",
                "write_event"},
    # frame / HTTP payload writers
    "frame": {"write_frame", "write_frame_async", "send_json", "_send_json"},
    # trace attachments
    "trace": {"attach_trace"},
}


def register_source(name: str) -> str:
    """Declare an accessor method whose results are raw row/count data."""
    TAINT_SOURCE_METHODS.add(name)
    return name


def register_sanitizer(name: str) -> str:
    """Declare a mechanism release method: its return value is DP-safe.

    Call this at module import time, next to the mechanism definition.  The
    flow engine also discovers calls to this function statically, so an
    out-of-tree backend is picked up by ``repro lint`` without
    being imported.
    """
    SANITIZER_METHODS.add(name)
    return name


def register_sink(channel: str, name: str) -> str:
    """Declare an output-channel method the flow engine treats as a sink."""
    SINK_CHANNELS.setdefault(channel, set()).add(name)
    return name

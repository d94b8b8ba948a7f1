"""JSON (de)serialization of explanations.

Released explanations are post-processed data — persisting and re-loading
them costs no privacy.  The format is stable and self-describing: attribute
domains travel with the histograms, so a reader needs no access to the
original schema (which may itself be sensitive infrastructure).
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from ..dataset.schema import Attribute
from .hbe import (
    AttributeCombination,
    GlobalExplanation,
    MultiAttributeCombination,
    MultiGlobalExplanation,
    SingleClusterExplanation,
)

FORMAT_VERSION = 1


class ExplanationFormatError(ValueError):
    """Raised when a payload does not parse as a serialized explanation."""


def single_to_dict(e: SingleClusterExplanation) -> dict[str, Any]:
    """One cluster's explanation as a JSON-able dict (also the service's
    response rows), keys in sorted order and histograms as float lists."""
    return {
        "attribute": e.attribute.name,
        "cluster": e.cluster,
        "domain": list(e.attribute.domain),
        "hist_cluster": e.hist_cluster.astype(np.float64, copy=False).tolist(),
        "hist_rest": e.hist_rest.astype(np.float64, copy=False).tolist(),
    }


def _single_from_dict(payload: dict[str, Any]) -> SingleClusterExplanation:
    try:
        attr = Attribute(payload["attribute"], tuple(payload["domain"]))
        return SingleClusterExplanation(
            cluster=int(payload["cluster"]),
            attribute=attr,
            hist_rest=np.asarray(payload["hist_rest"], dtype=np.float64),
            hist_cluster=np.asarray(payload["hist_cluster"], dtype=np.float64),
        )
    except (KeyError, TypeError) as exc:
        raise ExplanationFormatError(f"malformed single-cluster payload: {exc}") from exc


def _jsonable_metadata(metadata: Any) -> dict[str, Any]:
    out = {}
    for k, v in dict(metadata).items():
        try:
            json.dumps(v)
            out[k] = v
        except TypeError:
            out[k] = repr(v)
    return out


def explanation_to_dict(explanation: GlobalExplanation) -> dict[str, Any]:
    """Serialize a global explanation to a JSON-ready dictionary."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "global",
        "combination": list(explanation.combination.attributes),
        "per_cluster": [single_to_dict(e) for e in explanation.per_cluster],
        "metadata": _jsonable_metadata(explanation.metadata),
    }


def explanation_from_dict(payload: dict[str, Any]) -> GlobalExplanation:
    """Rebuild a global explanation from :func:`explanation_to_dict` output."""
    if payload.get("kind") != "global":
        raise ExplanationFormatError(
            f"expected kind='global', got {payload.get('kind')!r}"
        )
    if payload.get("format_version") != FORMAT_VERSION:
        raise ExplanationFormatError(
            f"unsupported format version {payload.get('format_version')!r}"
        )
    singles = tuple(_single_from_dict(p) for p in payload["per_cluster"])
    return GlobalExplanation(
        per_cluster=singles,
        combination=AttributeCombination(tuple(payload["combination"])),
        metadata=payload.get("metadata", {}),
    )


def multi_explanation_to_dict(explanation: MultiGlobalExplanation) -> dict[str, Any]:
    """Serialize an Appendix-B multi-explanation."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "multi",
        "combination": [list(s) for s in explanation.combination.attribute_sets],
        "per_cluster": [
            [single_to_dict(e) for e in cluster_expls]
            for cluster_expls in explanation.per_cluster
        ],
        "metadata": _jsonable_metadata(explanation.metadata),
    }


def multi_explanation_from_dict(payload: dict[str, Any]) -> MultiGlobalExplanation:
    if payload.get("kind") != "multi":
        raise ExplanationFormatError(
            f"expected kind='multi', got {payload.get('kind')!r}"
        )
    per_cluster = tuple(
        tuple(_single_from_dict(p) for p in cluster_payloads)
        for cluster_payloads in payload["per_cluster"]
    )
    return MultiGlobalExplanation(
        per_cluster=per_cluster,
        combination=MultiAttributeCombination(
            tuple(tuple(s) for s in payload["combination"])
        ),
        metadata=payload.get("metadata", {}),
    )


def dumps(explanation: "GlobalExplanation | MultiGlobalExplanation", **kwargs: Any) -> str:
    """Serialize an explanation to a JSON string."""
    if isinstance(explanation, GlobalExplanation):
        payload = explanation_to_dict(explanation)
    elif isinstance(explanation, MultiGlobalExplanation):
        payload = multi_explanation_to_dict(explanation)
    else:
        raise TypeError(f"cannot serialize {type(explanation).__name__}")
    return json.dumps(payload, **kwargs)


def loads(text: str) -> "GlobalExplanation | MultiGlobalExplanation":
    """Parse an explanation from a JSON string."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ExplanationFormatError(f"invalid JSON: {exc}") from exc
    kind = payload.get("kind")
    if kind == "global":
        return explanation_from_dict(payload)
    if kind == "multi":
        return multi_explanation_from_dict(payload)
    raise ExplanationFormatError(f"unknown explanation kind {kind!r}")


def save(explanation: "GlobalExplanation | MultiGlobalExplanation", path: str) -> None:
    """Write an explanation to a JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(explanation, indent=2))


def load(path: str) -> "GlobalExplanation | MultiGlobalExplanation":
    """Read an explanation from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())

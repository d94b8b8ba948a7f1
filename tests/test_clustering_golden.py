"""Golden digests of every clustering substrate's released bytes.

Each fitter runs with a fixed seed on ``diabetes_like(n_rows=3000, seed=0)``
and three artifacts are pinned by SHA-256: the fitted centers (or modes),
the ``assign`` labels over the same table, and the canonical JSON of one
explanation released over that clustering.  The digests were recorded
before the encoders switched to per-attribute lookup tables, so this
file makes "release bytes identical across encoder rewrites" a permanent
check: any change to encoded values *or their memory layout* (which moves
BLAS and reduction results by an ulp) shows up here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import diabetes_like
from repro.clustering import (
    Agglomerative,
    DPKMeans,
    DPKModes,
    GaussianMixture,
    KMeans,
    KModes,
)
from repro.service import ExplanationService, canonical_json

FITTERS = {
    "k-means": lambda: KMeans(4),
    "DP-k-means": lambda: DPKMeans(4, epsilon=1.0),
    "GMM": lambda: GaussianMixture(3),
    "k-modes": lambda: KModes(4),
    "DP-k-modes": lambda: DPKModes(4, epsilon=1.0),
    "Agglomerative": lambda: Agglomerative(4, max_fit_rows=600),
}

#: ``(model, labels, payload)`` SHA-256 hex digests per fitter.
GOLDEN = {
    "k-means": (
        "b09300bd42e22e4aafd714f73d31aca4f5c9445c0e3bf819062bc91f1b321727",
        "2884cdda1ea541a53f56fd6b2ad106030dd2777f1687da5f37e9fd803be7e839",
        "903fabe82d8c3b5a5e893b9f631a80c1855773d79305cdd51f059f5934023db2",
    ),
    "DP-k-means": (
        "7f9b513bb807e0d3502ddb1dd417b4ff4d93675879d8ec580ebde546f60b9645",
        "151ff79f29e96d211576b9a2e3e78f518b26109916616945d50cdee82dd2ba8b",
        "c6d8033891576f64ce3ae44885bb05f137bd1f21d6f37d69f0277b967797d849",
    ),
    "GMM": (
        "e8ac0d85572fb2630f56d0e0c0fe6c537b4018ca43b4ac65a6907deba676180d",
        "9f97766a1e17d3f1fa39029555bdcb31b53ff6cecfb4dcdb8d0a858d39444148",
        "7ab83ad4af77c1cec0602c785cd49e8ffb16482c48137e42fc4837089ee9e40d",
    ),
    "k-modes": (
        "fd0c047e691e18af82e3de7662de8f9d231f93d1c4172d8743c559f1fedb5fbb",
        "9232a44216dc904d269f2f73aed5e1705ed8c6fc3d88d666461f8da307cf9401",
        "420ea09371164dd4aad21abd3b832a63c6f7c2d34e1f2198b7ce5215116ce09c",
    ),
    "DP-k-modes": (
        "57f774bc45848b4ecf4d2c1b029b614dd60bae2e9370096ac72c066ab8f657a2",
        "a914ec87234bb21424ca0e1af7f62338a56fbf1864146b2ff8da5c1199fe56cc",
        "78468a0edea2eacf84e8ee3067b18b1ae2a25cadc80ea512a01e1af87f2f2038",
    ),
    "Agglomerative": (
        "02cd20b60e6cc8fb455c642ff87d099e3c24bda95c8c1bd62bc845abcbe68624",
        "b2d4885a5cf06c4050cf6bd274056cca7d6d698d6cfc735e50ce922ef0d90fe3",
        "12749c0714f0e5d582e6eb8418ef096d2b3aae510d3ecd401acb1f4bec351bf0",
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _model_bytes(fitted) -> bytes:
    """The released parameters of a fitted clustering, as raw array bytes."""
    if hasattr(fitted, "modes"):
        arrays = [fitted.modes]
    elif hasattr(fitted, "variances"):
        arrays = [fitted.means, fitted.variances, fitted.log_weights]
    else:
        arrays = [fitted.centers]
    return b"".join(
        np.ascontiguousarray(a).tobytes() + str(a.dtype).encode() for a in arrays
    )


@pytest.fixture(scope="module")
def dataset():
    return diabetes_like(n_rows=3000, seed=0)


def digests(dataset, method: str) -> tuple[str, str, str]:
    fitted = FITTERS[method]().fit(dataset, rng=0)
    labels = np.ascontiguousarray(fitted.assign(dataset), dtype=np.int64)
    service = ExplanationService()
    service.register_dataset("d", dataset, fitted)
    service.create_tenant("t", 10.0)
    envelope = service.explain(tenant="t", dataset="d", seed=0)
    assert envelope["status"] == "ok", envelope
    return (
        _sha(_model_bytes(fitted)),
        _sha(labels.tobytes()),
        _sha(canonical_json(envelope["result"]).encode("utf-8")),
    )


@pytest.mark.parametrize("method", sorted(FITTERS))
def test_release_bytes_match_golden(dataset, method):
    model, labels, payload = digests(dataset, method)
    want_model, want_labels, want_payload = GOLDEN[method]
    assert model == want_model, "fitted centers/modes changed"
    assert labels == want_labels, "assign labels changed"
    assert payload == want_payload, "released explanation bytes changed"

"""Regression tests pinning the redacted shape of every error surface.

The flow engine's ``taint-unsanitized-release`` / ``taint-error-envelope``
audit found exception text flowing into tenant-visible envelopes and
raise messages interpolating raw-data-derived counts.  These tests pin
the fixes: internal errors surface only the exception *type name*, and
data-shape mismatches report no row counts or chunk lengths.
"""

from __future__ import annotations

import json

from concurrent.futures import Future
from types import SimpleNamespace

import numpy as np
import pytest

from repro import KMeans, diabetes_like
from repro.clustering import (
    GaussianMixture,
    KModes,
    kmeans_pp_init,
    ward_labels,
)
from repro.core.counts import StreamingCountsBuilder
from repro.service import ExplanationService

#: A sentinel no envelope, frame, or message may ever contain.
SECRET = "raw-row-payload-31337"


class Boom(RuntimeError):
    """A deep-layer failure whose message embeds raw data."""


@pytest.fixture(scope="module")
def dataset():
    return diabetes_like(n_rows=240, n_groups=3, seed=7)


@pytest.fixture(scope="module")
def clustering(dataset):
    return KMeans(3).fit(dataset, rng=0)


def make_service(dataset, clustering) -> ExplanationService:
    service = ExplanationService()
    service.register_dataset("diabetes", dataset, clustering)
    service.create_tenant("t", budget_limit=50.0)
    return service


# --------------------------------------------------------------------------- #
# service envelopes: type name only, never str(exc)
# --------------------------------------------------------------------------- #

class TestEnvelopeRedaction:
    def test_pipeline_internal_error_is_type_name_only(
        self, dataset, clustering, monkeypatch
    ):
        service = make_service(dataset, clustering)

        def explode(*args, **kwargs):
            raise Boom(f"fit blew up on {SECRET}")

        monkeypatch.setattr(service, "_fitted_entry", explode)
        envelope = service.pipeline(dataset="diabetes", tenant="t")
        assert envelope["status"] == "error"
        assert envelope["code"] == 500
        assert envelope["error"]["reason"] == "internal-error"
        assert envelope["error"]["message"] == "Boom"
        assert SECRET not in json.dumps(envelope)

    def test_batch_execution_failure_is_type_name_only(
        self, dataset, clustering, monkeypatch
    ):
        service = make_service(dataset, clustering)

        def explode(batch):
            raise Boom(f"worker saw {SECRET}")

        monkeypatch.setattr(service, "_serve_batch", explode)
        envelope = service.explain(tenant="t", dataset="diabetes")
        assert envelope["status"] == "error"
        assert envelope["error"]["reason"] == "internal-error"
        assert envelope["error"]["message"] == "Boom"
        assert SECRET not in json.dumps(envelope)

    def test_shard_reply_redacts_future_exception(self):
        """The ``reply`` closure in ``ShardWorker._handle_explain`` sits in
        a call-graph blind spot (nested def) — this pins its redaction."""
        from repro.service.shard import ShardWorker

        class Frames:
            def __init__(self):
                self.sent = []

            def write(self, obj):
                self.sent.append(obj)

        class FakeService:
            def submit(self, request):
                fut = Future()
                fut.set_exception(Boom(f"engine saw {SECRET}"))
                return fut

        worker = ShardWorker.__new__(ShardWorker)
        worker.service = FakeService()
        # A one-shard worker owns every tenant, so the admitted request
        # reaches submit() and the pre-failed future drives reply().
        worker.config = SimpleNamespace(index=0, n_shards=1)
        frames = Frames()
        worker._handle_explain(frames, 7, {"tenant": "t", "dataset": "d"})
        (msg,) = frames.sent
        assert msg["id"] == 7
        envelope = msg["envelope"]
        assert envelope["status"] == "error"
        assert envelope["error"]["reason"] == "internal-error"
        assert envelope["error"]["message"] == "Boom"
        assert SECRET not in json.dumps(frames.sent)


# --------------------------------------------------------------------------- #
# raise messages: no raw-data-derived counts
# --------------------------------------------------------------------------- #

class TestMessageRedaction:
    N_TINY = 4  # rows in the under-populated inputs below
    K = 9       # requested clusters — public config, allowed in messages

    @pytest.fixture()
    def tiny(self, dataset):
        mask = np.zeros(len(dataset), dtype=bool)
        mask[: self.N_TINY] = True
        return dataset.subset(mask)

    @pytest.mark.parametrize(
        "model", [KMeans(9), GaussianMixture(9), KModes(9)],
        ids=["kmeans", "gmm", "kmodes"],
    )
    def test_fit_message_has_no_row_count(self, model, tiny):
        with pytest.raises(ValueError) as exc:
            model.fit(tiny, rng=0)
        msg = str(exc.value)
        assert str(self.K) in msg          # public parameter stays
        assert str(self.N_TINY) not in msg  # data-derived count does not

    def test_ward_labels_message_has_no_point_count(self):
        points = np.zeros((self.N_TINY, 2))
        with pytest.raises(ValueError) as exc:
            ward_labels(points, self.K)
        msg = str(exc.value)
        assert str(self.K) in msg
        assert str(self.N_TINY) not in msg

    def test_kmeans_pp_init_message_has_no_point_count(self):
        points = np.zeros((self.N_TINY, 2))
        with pytest.raises(ValueError) as exc:
            kmeans_pp_init(points, self.K, np.random.default_rng(0))
        msg = str(exc.value)
        assert str(self.K) in msg
        assert str(self.N_TINY) not in msg

    def test_streaming_builder_mismatch_has_no_chunk_lengths(self, dataset):
        builder = StreamingCountsBuilder(dataset.schema, n_clusters=3)
        labels = np.zeros(5, dtype=np.int64)
        columns = {
            name: np.zeros(7, dtype=np.int64) for name in dataset.schema.names
        }
        with pytest.raises(ValueError) as exc:
            builder.add_chunk(columns, labels)
        msg = str(exc.value)
        assert "does not match" in msg
        assert "5" not in msg and "7" not in msg

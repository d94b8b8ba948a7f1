"""Tests for the explanation service layer (repro.service).

Covers the four contracts the ISSUE pins down:

* cache hits are byte-identical re-serves that charge zero budget;
* K concurrent identical requests coalesce into one batched engine call;
* budget exhaustion yields a structured 429-style refusal, and no budget
  cap can be exceeded under parallel load;
* ledgers persist crash-safely and reload into a fresh service.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import threading
import warnings
import urllib.error
import urllib.request

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusteringSpec, DPClustX, KMeans, diabetes_like
from repro.core.counts import ClusteredCounts
from repro.dataset.rebin import rebin_dataset
from repro.obs.tracing import trace_id_of
from repro.privacy.budget import quantize_epsilon
from repro.service import (
    CacheEntry,
    ExplainRequest,
    ExplanationService,
    PipelineRequest,
    RequestQueue,
    ServiceClient,
    ServiceError,
    ServiceRegistry,
    Tenant,
    canonical_json,
    explanation_payload,
    make_server,
)

EPS_TOTAL = 0.3  # the default request budget (0.1 + 0.1 + 0.1)


@pytest.fixture(scope="module")
def dataset():
    return diabetes_like(n_rows=1_500, n_groups=3, seed=7)


@pytest.fixture(scope="module")
def clustering(dataset):
    return KMeans(3).fit(dataset, rng=0)


def fitted_count(service: ExplanationService) -> int:
    """How many server-side fits (derived entries) the registry holds."""
    return sum(e.is_derived for e in service.registry.datasets())


def make_service(dataset, clustering, **kwargs) -> ExplanationService:
    service = ExplanationService(**kwargs)
    service.register_dataset("diabetes", dataset, clustering)
    return service


class TestRegistry:
    def test_register_and_describe(self, dataset, clustering):
        registry = ServiceRegistry()
        entry = registry.register_dataset("d", dataset, clustering)
        info = entry.describe()
        assert info["rows"] == len(dataset)
        assert info["fingerprint"] == dataset.fingerprint()
        assert registry.dataset("d") is entry

    def test_unknown_dataset_raises_404(self):
        with pytest.raises(ServiceError) as exc:
            ServiceRegistry().dataset("nope")
        assert exc.value.code == 404

    def test_unknown_tenant_raises_404_without_auto(self):
        with pytest.raises(ServiceError) as exc:
            ServiceRegistry().tenant("ghost")
        assert exc.value.code == 404

    def test_tenant_autoprovision(self):
        registry = ServiceRegistry()
        tenant = registry.tenant("new", auto_budget=2.0)
        assert tenant.budget_limit == 2.0
        assert registry.tenant("new") is tenant

    def test_duplicate_tenant_rejected(self):
        registry = ServiceRegistry()
        registry.create_tenant("a", 1.0)
        with pytest.raises(ValueError):
            registry.create_tenant("a", 1.0)


class TestRequestValidation:
    def test_from_json_roundtrip(self):
        req = ExplainRequest.from_json(
            {"tenant": "t", "dataset": "d", "seed": 3, "weights": [0.5, 0.5, 0.0]}
        )
        assert req.seed == 3 and req.weights == (0.5, 0.5, 0.0)

    def test_from_json_requires_tenant_and_dataset(self):
        with pytest.raises(ServiceError) as exc:
            ExplainRequest.from_json({"dataset": "d"})
        assert exc.value.code == 400

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ServiceError):
            ExplainRequest.from_json({"tenant": "t", "dataset": "d", "evil": 1})

    def test_validated_rejects_bad_epsilon(self):
        req = ExplainRequest(tenant="t", dataset="d", eps_hist=-1.0)
        with pytest.raises(ServiceError) as exc:
            req.validated()
        assert exc.value.code == 400

    def test_validated_rejects_unknown_explainer(self):
        req = ExplainRequest(tenant="t", dataset="d", explainer="Magic")
        with pytest.raises(ServiceError):
            req.validated()

    def test_bad_request_resolves_as_error_envelope(self, dataset, clustering):
        service = make_service(dataset, clustering)
        service.create_tenant("t", 1.0)
        envelope = service.explain(
            ExplainRequest(tenant="t", dataset="missing", seed=0)
        )
        assert envelope["status"] == "error"
        assert envelope["code"] == 404

    @pytest.mark.parametrize(
        "bad_fields",
        [
            {"seed": -1},
            {"seed": "zero"},
            {"tenant": 123},
            {"dataset": ""},
            {"n_candidates": 99},  # exceeds the attribute count
            {"weights": (0.25, 0.25, 0.25, 0.25)},  # wrong arity (JSON shape)
            {"weights": (0.5, 0.5)},
            {"weights": "uniform"},
            {"n_candidates": "3"},
            {"n_candidates": 2.5},
            {"n_candidates": True},
            {"eps_cand_set": "0.1"},  # float() would admit it
            {"eps_top_comb": True},  # float() would charge it as 1.0
            {"seed": 1.7},  # int() would serve it as seed 1
            {"seed": float("inf")},  # JSON 1e400; int() raised OverflowError
            {"seed": float("nan")},
            {"seed": True},
            {"eps_hist": True},
            {"eps_hist": "1e-1"},
            {"eps_hist": 10**400},  # a real too large for a float
            {"eps_hist": float("nan")},
            {"n_candidates": 2.9},
            {"weights": (True, False, False)},
            {"weights": ("1", 0, 0)},
            {"weights": (10**400, 0, 0)},
            {"weights": [[1], 0, 0]},
            {"explainer": ["DPClustX"]},
            {"trace_id": 5},
        ],
    )
    def test_malformed_request_refused_without_burning_budget(
        self, dataset, clustering, bad_fields
    ):
        """Bad parameters must 400 at admission, never charge, never 500."""
        service = make_service(dataset, clustering)
        service.create_tenant("t", 1.0)
        fields = {"tenant": "t", "dataset": "diabetes", "seed": 0, **bad_fields}
        envelope = service.explain(ExplainRequest(**fields))
        assert envelope["status"] == "error"
        assert envelope["code"] == 400
        assert envelope["error"]["reason"] == "invalid-request"
        assert service.registry.tenant("t").accountant("diabetes").total() == 0.0

    @pytest.mark.parametrize(
        "bad_fields",
        [
            {"n_clusters": True},  # would fit k=1 under a "kTrue" slug
            {"n_iterations": True},
            {"clustering_epsilon": "1.0"},
            {"clustering_epsilon": True},  # float() would charge it as 1.0
            {"clustering_epsilon": 10**400},
            {"n_clusters": 2.5},
            {"clustering_seed": 1.7},
            {"method": None},
        ],
    )
    def test_pipeline_refuses_mistyped_clustering_fields(
        self, dataset, clustering, bad_fields
    ):
        service = make_service(dataset, clustering)
        service.create_tenant("t", 5.0)
        envelope = service.pipeline(
            PipelineRequest(
                **{"tenant": "t", "dataset": "diabetes", "n_clusters": 3,
                   **bad_fields}
            )
        )
        assert envelope["status"] == "error" and envelope["code"] == 400
        assert envelope["error"]["reason"] == "invalid-request"
        assert envelope["error"]["trace_id"]
        assert service.registry.tenant("t").accountant("diabetes").total() == 0.0
        assert fitted_count(service) == 0

    @pytest.mark.parametrize(
        "bad_fields",
        [
            {"seed": 1.7},
            {"seed": float("inf")},  # what json.loads reads 1e400 as
            {"eps_hist": True},
            {"eps_hist": "1e-1"},
            {"n_candidates": 2.9},
            {"weights": [0.5, 0.5]},
            {"trace_id": 5},
        ],
    )
    def test_json_edge_refuses_what_it_once_coerced(self, bad_fields):
        with pytest.raises(ServiceError) as exc:
            ExplainRequest.from_json({"tenant": "t", "dataset": "d", **bad_fields})
        assert exc.value.code == 400

    def test_validated_normalises_to_one_form(self):
        """Both edges admit a request into one normal form: float epsilons
        and weights, int counts.  The cache key does not change."""
        raw = ExplainRequest(
            tenant="t", dataset="d", eps_hist=1, n_candidates=np.int64(2),
            weights=[1, 0, 0], seed=3.0,
        )
        admitted = raw.validated()
        assert admitted.eps_hist == 1.0 and type(admitted.eps_hist) is float
        assert type(admitted.n_candidates) is int and type(admitted.seed) is int
        assert admitted.weights == (1.0, 0.0, 0.0)
        assert [type(w) for w in admitted.weights] == [float] * 3
        assert admitted == ExplainRequest.from_json(
            {"tenant": "t", "dataset": "d", "eps_hist": 1, "n_candidates": 2,
             "weights": [1, 0, 0], "seed": 3.0}
        )
        plain = ExplainRequest(tenant="t", dataset="d", seed=3)
        assert plain.validated() is plain  # the hot path allocates nothing
        assert admitted.validated() is admitted

    def test_pipeline_refuses_a_string_epsilon(self, dataset, clustering):
        """The explanation half of a pipeline request is admitted by the
        same check, before the clustering charge."""
        service = make_service(dataset, clustering)
        service.create_tenant("t", 5.0)
        envelope = service.pipeline(
            PipelineRequest(
                tenant="t", dataset="diabetes", n_clusters=3,
                clustering_epsilon=1.0, eps_hist="0.1",
            )
        )
        assert envelope["status"] == "error" and envelope["code"] == 400
        assert envelope["error"]["reason"] == "invalid-request"
        assert service.registry.tenant("t").accountant("diabetes").total() == 0.0


def _typed(obj):
    """``obj`` with its key order and every leaf's type spelled out."""
    if isinstance(obj, dict):
        return ("dict", [(k, _typed(v)) for k, v in obj.items()])
    if isinstance(obj, list):
        return ("list", [_typed(v) for v in obj])
    return (type(obj).__name__, repr(obj))


_FLOAT_EPSILONS = st.floats(
    min_value=0.0, max_value=1e6, exclude_min=True,
    allow_nan=False, allow_infinity=False,
)
_EPSILONS = st.one_of(
    _FLOAT_EPSILONS,
    _FLOAT_EPSILONS.map(np.float64),  # a programmatic caller's numpy scalar
    st.integers(min_value=1, max_value=10**6),
)


@st.composite
def _weights(draw):
    if draw(st.booleans()):
        return draw(st.permutations((1, 0, 0)))
    raw = draw(
        st.lists(st.floats(0.0, 5.0), min_size=3, max_size=3).filter(
            lambda w: sum(w) > 0.1
        )
    )
    return tuple(w / sum(raw) for w in raw)


_REQUESTS = st.builds(
    ExplainRequest,
    tenant=st.text(min_size=1, max_size=8),
    dataset=st.text(min_size=1, max_size=8),
    eps_cand_set=_EPSILONS,
    eps_top_comb=_EPSILONS,
    eps_hist=_EPSILONS,
    n_candidates=st.integers(min_value=1, max_value=64),
    weights=_weights(),
    seed=st.integers(min_value=0, max_value=2**70),
    trace_id=st.text(max_size=8),
)


@pytest.fixture(scope="module")
def released(dataset, clustering):
    """One registered entry and one explanation released over it."""
    entry = ServiceRegistry().register_dataset("d", dataset, clustering)
    return entry, DPClustX().explain(dataset, clustering, rng=0)


class TestDecodedPayload:
    @settings(max_examples=300, deadline=None)
    @given(request=_REQUESTS)
    def test_payload_is_its_own_canonical_decode(self, released, request):
        entry, explanation = released
        body = explanation_payload(request.validated(), entry, explanation)
        decoded = json.loads(canonical_json(body))
        assert body == decoded
        assert _typed(body) == _typed(decoded)
        copy = CacheEntry.of(body, request.epsilon_total).payload()
        assert _typed(copy) == _typed(decoded)


class TestCacheSemantics:
    def test_hit_is_byte_identical_and_free(self, dataset, clustering):
        service = make_service(dataset, clustering)
        service.create_tenant("alice", 1.0)
        client = ServiceClient(service, tenant="alice", dataset="diabetes")

        first = client.explain(seed=0)
        spent_after_first = service.registry.tenant("alice").accountant(
            "diabetes"
        ).total()
        second = client.explain(seed=0)
        spent_after_second = service.registry.tenant("alice").accountant(
            "diabetes"
        ).total()

        assert first["meta"]["cache"] == "miss"
        assert first["meta"]["charged_epsilon"] == pytest.approx(EPS_TOTAL)
        assert second["meta"]["cache"] == "hit"
        assert second["meta"]["charged_epsilon"] == 0.0
        # Byte-identical re-serve (post-processing is free).
        assert json.dumps(first["result"], sort_keys=True) == json.dumps(
            second["result"], sort_keys=True
        )
        # Zero extra budget.
        assert spent_after_second == spent_after_first == pytest.approx(EPS_TOTAL)

    def test_hit_free_for_other_tenants_too(self, dataset, clustering):
        service = make_service(dataset, clustering)
        service.create_tenant("payer", 1.0)
        service.create_tenant("rider", 1.0)
        ServiceClient(service, "payer", "diabetes").explain(seed=0)
        response = ServiceClient(service, "rider", "diabetes").explain(seed=0)
        assert response["meta"]["cache"] == "hit"
        assert service.registry.tenant("rider").accountant("diabetes").total() == 0.0

    def test_different_seed_or_epsilon_misses(self, dataset, clustering):
        service = make_service(dataset, clustering)
        service.create_tenant("alice", 5.0)
        client = ServiceClient(service, "alice", "diabetes")
        assert client.explain(seed=0)["meta"]["cache"] == "miss"
        assert client.explain(seed=1)["meta"]["cache"] == "miss"
        assert (
            client.explain(seed=0, eps_hist=0.2)["meta"]["cache"] == "miss"
        )
        assert client.explain(seed=0)["meta"]["cache"] == "hit"

    def test_response_matches_serial_explain(self, dataset, clustering):
        """The served release is byte-identical to the serial DPClustX path."""
        service = make_service(dataset, clustering)
        service.create_tenant("alice", 1.0)
        response = ServiceClient(service, "alice", "diabetes").explain(seed=5)

        counts = ClusteredCounts(dataset, clustering)
        serial = DPClustX().explain(dataset, clustering, rng=5, counts=counts)
        assert response["result"]["combination"] == list(serial.combination)
        for got, expected in zip(response["result"]["clusters"], serial):
            assert got["attribute"] == expected.attribute.name
            assert np.array_equal(got["hist_cluster"], expected.hist_cluster)
            assert np.array_equal(got["hist_rest"], expected.hist_rest)

    def test_mutating_a_response_does_not_poison_the_cache(
        self, dataset, clustering
    ):
        service = make_service(dataset, clustering)
        service.create_tenant("alice", 1.0)
        client = ServiceClient(service, "alice", "diabetes")
        first = client.explain(seed=0)
        original = canonical_json(first["result"])
        first["result"]["combination"][0] = "tampered"
        first["result"]["clusters"][0]["attribute"] = "tampered"
        first["result"]["clusters"][1]["hist_cluster"].append(-1.0)
        second = client.explain(seed=0)
        assert second["result"]["combination"][0] != "tampered"
        # Nested values too: each hit is a deep copy, so mutating one
        # response's clusters[i] dicts and histogram lists leaves no trace.
        second["result"]["clusters"][0]["hist_cluster"][0] = -1.0
        third = client.explain(seed=0)
        assert third["meta"]["cache"] == "hit"
        assert canonical_json(third["result"]) == original

    def test_hits_decode_no_json(self, dataset, clustering, monkeypatch):
        """A hit re-serves the entry's copy form; it never parses JSON."""
        import repro.service.cache as cache_mod

        service = make_service(dataset, clustering)
        service.create_tenant("alice", 1.0)
        client = ServiceClient(service, "alice", "diabetes")
        expected = canonical_json(client.explain(seed=0)["result"])

        calls = []

        def counting_loads(*args, **kwargs):
            calls.append(args)
            return json.loads(*args, **kwargs)

        monkeypatch.setattr(
            cache_mod, "json", SimpleNamespace(dumps=json.dumps, loads=counting_loads)
        )
        for _ in range(100):
            envelope = client.explain(seed=0)
            assert envelope["meta"]["cache"] == "hit"
        assert calls == []
        assert canonical_json(envelope["result"]) == expected

    def test_hit_strings_are_not_interned(self, dataset, clustering):
        """The copy form holds fresh strings, as the decoded JSON did, so a
        hit does not re-intern every key and domain value it loads."""
        service = make_service(dataset, clustering)
        service.create_tenant("alice", 1.0)
        client = ServiceClient(service, "alice", "diabetes")
        client.explain(seed=0)
        body = client.explain(seed=0)["result"]

        def strings(node):
            if isinstance(node, dict):
                for k, v in node.items():
                    yield k
                    yield from strings(v)
            elif isinstance(node, list):
                for v in node:
                    yield from strings(v)
            elif isinstance(node, str):
                yield node

        # An interned string is the one ``sys.intern`` returns for any
        # equal fresh copy; one-character strings are shared singletons.
        interned = [
            s for s in strings(body)
            if len(s) > 1 and sys.intern(s.encode().decode()) is s
        ]
        assert "clusters" in body and interned == []

    def test_funded_miss_neither_encodes_nor_parses_json(
        self, dataset, clustering, monkeypatch
    ):
        """A miss marshals the decoded body; no JSON text is made or read."""
        service = make_service(dataset, clustering)
        service.create_tenant("alice", 1.0)
        client = ServiceClient(service, "alice", "diabetes")
        calls = []
        real_dumps, real_loads = json.dumps, json.loads

        def counting_dumps(*args, **kwargs):
            calls.append("dumps")
            return real_dumps(*args, **kwargs)

        def counting_loads(*args, **kwargs):
            calls.append("loads")
            return real_loads(*args, **kwargs)

        monkeypatch.setattr(json, "dumps", counting_dumps)
        monkeypatch.setattr(json, "loads", counting_loads)
        envelope = client.explain(seed=3)
        monkeypatch.undo()
        assert envelope["meta"]["cache"] == "miss"
        assert calls == []
        # The payer's body is the one the cache re-serves, byte for byte.
        hit = client.explain(seed=3)
        assert hit["meta"]["cache"] == "hit"
        assert canonical_json(hit["result"]) == canonical_json(envelope["result"])
        assert hit["result"] == envelope["result"]

    def test_reregistering_rebinned_dataset_invalidates(
        self, dataset, clustering
    ):
        service = make_service(dataset, clustering)
        service.create_tenant("alice", 5.0)
        client = ServiceClient(service, "alice", "diabetes")
        client.explain(seed=0)
        assert len(service.cache) == 1

        rebinned = rebin_dataset(dataset, 2)
        labels = clustering.assign(dataset)
        service.register_dataset(
            "diabetes", rebinned, labels, n_clusters=clustering.n_clusters
        )
        assert len(service.cache) == 0  # old fingerprint evicted
        fresh = client.explain(seed=0)
        assert fresh["meta"]["cache"] == "miss"
        assert fresh["result"]["fingerprint"] == rebinned.fingerprint()

    def test_reregistering_new_clustering_same_data_invalidates(
        self, dataset, clustering
    ):
        """Same data + new clustering keeps the fingerprint but changes the
        signature: the old entries are unreachable and must be evicted, not
        left squatting in LRU slots."""
        service = make_service(dataset, clustering)
        service.create_tenant("alice", 5.0)
        client = ServiceClient(service, "alice", "diabetes")
        client.explain(seed=0)
        assert len(service.cache) == 1

        relabeled = (clustering.assign(dataset) + 1) % clustering.n_clusters
        entry = service.register_dataset(
            "diabetes", dataset, relabeled, n_clusters=clustering.n_clusters
        )
        assert entry.fingerprint == dataset.fingerprint()  # data unchanged
        assert len(service.cache) == 0  # ...but the releases are orphaned
        fresh = client.explain(seed=0)
        assert fresh["meta"]["cache"] == "miss"

    def test_alias_dataset_id_pays_for_and_names_its_own_release(
        self, dataset, clustering
    ):
        """Two ids over the same data and clustering are distinct releases:
        the second id is never served a body naming the first, and its own
        ledger pays for it."""
        service = ExplanationService()
        service.register_dataset("a", dataset, clustering)
        service.register_dataset("b", dataset, clustering)
        service.create_tenant("alice", 5.0)
        client = ServiceClient(service, "alice")
        first = client.explain("a", seed=0)
        second = client.explain("b", seed=0)
        assert first["meta"]["cache"] == "miss"
        assert first["result"]["dataset"] == "a"
        assert second["meta"]["cache"] == "miss"
        assert second["result"]["dataset"] == "b"
        tenant = service.registry.tenant("alice")
        assert tenant.accountant("a").total() == pytest.approx(EPS_TOTAL)
        assert tenant.accountant("b").total() == pytest.approx(EPS_TOTAL)

    def test_list_weights_accepted_programmatically(self, dataset, clustering):
        """Python callers naturally pass weights as a list; it must be
        normalised to a hashable tuple, not crash cache_key()."""
        service = make_service(dataset, clustering)
        service.create_tenant("alice", 1.0)
        envelope = service.explain(
            ExplainRequest(
                tenant="alice",
                dataset="diabetes",
                weights=[0.5, 0.25, 0.25],
            )
        )
        assert envelope["status"] == "ok"
        assert envelope["result"]["weights"] == [0.5, 0.25, 0.25]


class TestCoalescing:
    def test_identical_requests_one_engine_call_one_charge(
        self, dataset, clustering
    ):
        service = make_service(dataset, clustering)
        service.create_tenant("bob", 5.0)
        futures = [
            service.submit(ExplainRequest(tenant="bob", dataset="diabetes", seed=0))
            for _ in range(5)
        ]
        assert service.process_pending() == 1
        assert service.describe()["stats"]["engine_calls"] == 1
        results = [f.result(timeout=5) for f in futures]
        statuses = sorted(r["meta"]["cache"] for r in results)
        assert statuses == ["coalesced"] * 4 + ["miss"]
        bodies = {json.dumps(r["result"], sort_keys=True) for r in results}
        assert len(bodies) == 1  # byte-identical
        spent = service.registry.tenant("bob").accountant("diabetes").total()
        assert spent == pytest.approx(EPS_TOTAL)  # exactly one charge

    def test_mixed_seeds_coalesce_into_one_scoring_pass(
        self, dataset, clustering
    ):
        service = make_service(dataset, clustering)
        service.create_tenant("bob", 5.0)
        futures = [
            service.submit(ExplainRequest(tenant="bob", dataset="diabetes", seed=s))
            for s in (0, 1, 2, 0, 1)
        ]
        service.process_pending()
        assert service.describe()["stats"]["engine_calls"] == 1
        assert service.describe()["stats"]["releases"] == 3
        for f in futures:
            assert f.result(timeout=5)["status"] == "ok"
        spent = service.registry.tenant("bob").accountant("diabetes").total()
        assert spent == pytest.approx(3 * EPS_TOTAL)  # one charge per release

    def test_different_configs_do_not_coalesce(self, dataset, clustering):
        service = make_service(dataset, clustering)
        service.create_tenant("bob", 5.0)
        service.submit(ExplainRequest(tenant="bob", dataset="diabetes", seed=0))
        service.submit(
            ExplainRequest(
                tenant="bob", dataset="diabetes", seed=0, n_candidates=2
            )
        )
        assert service.process_pending() == 2
        assert service.describe()["stats"]["engine_calls"] == 2

    def test_queue_take_batch_groups_by_key(self):
        queue = RequestQueue()
        for key, item in [("a", 1), ("b", 2), ("a", 3), ("b", 4)]:
            queue.put(key, item)
        assert queue.take_batch(timeout=0) == [1, 3]
        assert queue.take_batch(timeout=0) == [2, 4]
        assert queue.take_batch(timeout=0) == []

    def test_queue_skips_a_held_key(self):
        queue = RequestQueue()
        queue.put("a", 1)
        assert queue.take_batch(timeout=0) == [1]  # "a" is now held
        queue.put("a", 2)
        queue.put("b", 3)
        assert queue.take_batch(timeout=0) == [3]  # no head-of-line blocking
        assert len(queue) == 1

    def test_queue_hands_out_a_released_key(self):
        queue = RequestQueue()
        queue.put("a", 1)
        assert queue.take_batch(timeout=0) == [1]
        queue.put("a", 2)
        queue.put("a", 3)
        queue.release("a")
        assert queue.take_batch(timeout=0) == [2, 3]

    def test_queue_returns_nothing_when_only_held_keys_are_queued(self):
        queue = RequestQueue()
        queue.put("a", 1)
        queue.put("b", 2)
        assert queue.take_batch(timeout=0) == [1]
        assert queue.take_batch(timeout=0) == [2]
        queue.put("a", 3)
        queue.put("b", 4)
        assert queue.take_batch(timeout=0) == []
        assert queue.take_batch(timeout=0.01) == []
        assert len(queue) == 2

    def test_queue_release_wakes_a_blocked_taker(self):
        queue = RequestQueue()
        queue.put("a", 1)
        assert queue.take_batch(timeout=0) == [1]
        queue.put("a", 2)
        taken: "list[list]" = []
        taker = threading.Thread(target=lambda: taken.append(queue.take_batch(30)))
        taker.start()
        queue.release("a")
        taker.join(timeout=30)
        assert taken == [[2]]

    def test_queue_release_all_hands_out_every_held_key(self):
        queue = RequestQueue()
        queue.put("a", 1)
        queue.put("b", 2)
        queue.take_batch(timeout=0)
        queue.take_batch(timeout=0)
        queue.put("a", 3)
        queue.put("b", 4)
        queue.release_all()
        assert queue.take_batch(timeout=0) == [3]
        assert queue.take_batch(timeout=0) == [4]


class TestBudgetEnforcement:
    def test_refusal_is_structured_429(self, dataset, clustering):
        service = make_service(dataset, clustering)
        service.create_tenant("carol", 0.5)  # one 0.3 request fits, not two
        client = ServiceClient(service, "carol", "diabetes")
        assert client.explain(seed=0)["status"] == "ok"
        refusal = client.explain(seed=1)
        assert refusal["status"] == "refused"
        assert refusal["code"] == 429
        error = refusal["error"]
        assert error["reason"] == "budget-exhausted"
        assert error["requested_epsilon"] == pytest.approx(EPS_TOTAL)
        assert error["remaining"] == pytest.approx(0.2)
        assert error["limit"] == pytest.approx(0.5)

    def test_refusal_does_not_touch_the_ledger(self, dataset, clustering):
        service = make_service(dataset, clustering)
        service.create_tenant("carol", 0.5)
        client = ServiceClient(service, "carol", "diabetes")
        client.explain(seed=0)
        before = service.registry.tenant("carol").accountant("diabetes").total()
        client.explain(seed=1)  # refused
        after = service.registry.tenant("carol").accountant("diabetes").total()
        assert before == after

    def test_cache_hit_served_even_when_budget_exhausted(
        self, dataset, clustering
    ):
        service = make_service(dataset, clustering)
        service.create_tenant("carol", 0.3)
        client = ServiceClient(service, "carol", "diabetes")
        assert client.explain(seed=0)["status"] == "ok"  # exactly exhausts
        again = client.explain(seed=0)
        assert again["status"] == "ok" and again["meta"]["cache"] == "hit"

    def test_engine_failure_refunds_the_charge(
        self, dataset, clustering, monkeypatch
    ):
        """An engine crash after funding must roll the reservation back."""
        import repro.service.service as service_module

        service = make_service(dataset, clustering)
        service.create_tenant("t", 1.0)

        def boom(*args, **kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(service_module, "explain_batched", boom)
        envelope = service.explain(
            ExplainRequest(tenant="t", dataset="diabetes", seed=0)
        )
        assert envelope["status"] == "error" and envelope["code"] == 500
        assert service.registry.tenant("t").accountant("diabetes").total() == 0.0

        monkeypatch.undo()
        retry = service.explain(ExplainRequest(tenant="t", dataset="diabetes", seed=0))
        assert retry["status"] == "ok"  # budget intact, key re-claimable

    def test_failed_refund_spares_other_eps_config_same_seed(
        self, dataset, clustering, monkeypatch
    ):
        """The review scenario: one tenant, same dataset+seed, two epsilon
        configs (a typical eps sweep).  When the second config's engine call
        fails, the refund must remove *that* reservation — not the first
        config's recorded (and served!) release, which would leave a real DP
        release unaccounted for."""
        import repro.service.service as service_module

        service = make_service(dataset, clustering)
        service.create_tenant("t", 5.0)
        client = ServiceClient(service, "t", "diabetes")

        ok = client.explain(seed=0)  # eps_hist=0.1, total 0.3
        assert ok["status"] == "ok"

        real = service_module.explain_batched

        def fail_big_eps(explainer, *args, **kwargs):
            if explainer.budget.eps_hist == pytest.approx(0.2):
                raise RuntimeError("engine exploded")
            return real(explainer, *args, **kwargs)

        monkeypatch.setattr(service_module, "explain_batched", fail_big_eps)
        failed = client.explain(seed=0, eps_hist=0.2)  # total 0.4, will fail
        assert failed["status"] == "error" and failed["code"] == 500

        accountant = service.registry.tenant("t").accountant("diabetes")
        # Only the failed 0.4 reservation was rolled back; the served 0.3
        # release is still on the ledger.
        assert accountant.total() == pytest.approx(EPS_TOTAL)
        assert [c.epsilon for c in accountant] == [pytest.approx(EPS_TOTAL)]

    def test_concurrent_batches_never_double_charge_one_release(
        self, dataset, clustering, monkeypatch
    ):
        """Two workers, one release: the twin arrives while the first batch
        is inside the engine, and is served from the cache it fills."""
        import repro.service.service as service_module

        real = service_module.explain_batched
        entered = threading.Event()
        gate = threading.Event()

        def gated_explain_batched(*args, **kwargs):
            entered.set()
            assert gate.wait(timeout=30)
            return real(*args, **kwargs)

        monkeypatch.setattr(service_module, "explain_batched", gated_explain_batched)
        service = make_service(dataset, clustering)
        service.create_tenant("t", 5.0)
        service.start(workers=2)
        try:
            first = service.submit(
                ExplainRequest(tenant="t", dataset="diabetes", seed=0)
            )
            assert entered.wait(timeout=30)  # the first batch is mid-engine
            second = service.submit(
                ExplainRequest(tenant="t", dataset="diabetes", seed=0)
            )
            gate.set()
            results = [first.result(timeout=30), second.result(timeout=30)]
        finally:
            gate.set()
            service.stop()
        assert [r["status"] for r in results] == ["ok", "ok"]
        assert [r["meta"]["cache"] for r in results] == ["miss", "hit"]
        spent = service.registry.tenant("t").accountant("diabetes").total()
        assert spent == pytest.approx(EPS_TOTAL)  # one charge, not two
        assert service.describe()["stats"]["engine_calls"] == 1
        bodies = {json.dumps(r["result"], sort_keys=True) for r in results}
        assert len(bodies) == 1

    def test_held_key_waits_queued_while_other_keys_are_served(
        self, dataset, clustering, monkeypatch
    ):
        """Worker 1 holds engine key A in a gated batch.  A same-key twin
        stays queued and uncharged, worker 2 serves a different engine key
        meanwhile, and once the gate opens the twin is a hit: one charge
        for A in total."""
        import repro.service.service as service_module

        real = service_module.explain_batched
        entered = threading.Event()
        gate = threading.Event()
        workers: "dict[float, str]" = {}

        def gate_key_a(explainer, *args, **kwargs):
            eps_hist = explainer.budget.eps_hist
            workers[eps_hist] = threading.current_thread().name
            if eps_hist == pytest.approx(0.1):  # key A; key B has 0.2
                entered.set()
                assert gate.wait(timeout=30)
            return real(explainer, *args, **kwargs)

        monkeypatch.setattr(service_module, "explain_batched", gate_key_a)
        service = make_service(dataset, clustering)
        service.create_tenant("t", 5.0)
        accountant = service.registry.tenant("t").accountant("diabetes")
        service.start(workers=2)
        try:
            first = service.submit(
                ExplainRequest(tenant="t", dataset="diabetes", seed=0)
            )
            assert entered.wait(timeout=30)
            twin = service.submit(
                ExplainRequest(tenant="t", dataset="diabetes", seed=0)
            )
            other = service.submit(
                ExplainRequest(tenant="t", dataset="diabetes", seed=0, eps_hist=0.2)
            )
            # Worker 2 passes over the queued twin to serve key B.
            served = other.result(timeout=30)
            assert served["status"] == "ok" and served["meta"]["cache"] == "miss"
            assert workers[0.2] != workers[0.1]
            assert not twin.done()
            assert service.describe()["queued"] == 1
            assert [c.epsilon for c in accountant] == [
                pytest.approx(EPS_TOTAL),
                pytest.approx(0.4),
            ]
            gate.set()
            results = [first.result(timeout=30), twin.result(timeout=30)]
        finally:
            gate.set()
            service.stop()
        assert [r["meta"]["cache"] for r in results] == ["miss", "hit"]
        assert results[1]["meta"]["charged_epsilon"] == 0.0
        assert canonical_json(results[0]["result"]) == canonical_json(
            results[1]["result"]
        )
        assert [c.epsilon for c in accountant] == [
            pytest.approx(EPS_TOTAL),
            pytest.approx(0.4),
        ]
        assert service.describe()["stats"]["engine_calls"] == 2

    def test_no_cap_exceeded_under_parallel_load(self, dataset, clustering):
        """Hard acceptance criterion: concurrent load cannot overspend."""
        cap = 1.0  # funds exactly 3 releases of 0.3
        service = make_service(dataset, clustering)
        service.create_tenant("dave", cap)
        service.start(workers=3)
        try:
            results: "list[dict]" = []
            lock = threading.Lock()

            def call(seed: int) -> None:
                response = ServiceClient(service, "dave", "diabetes").explain(
                    seed=seed
                )
                with lock:
                    results.append(response)

            threads = [
                threading.Thread(target=call, args=(seed,)) for seed in range(12)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            service.stop()

        spent = service.registry.tenant("dave").accountant("diabetes").total()
        assert spent <= cap + 1e-9
        ok = [r for r in results if r["status"] == "ok"]
        refused = [r for r in results if r["status"] == "refused"]
        assert len(ok) == 3 and len(refused) == 9
        assert spent == pytest.approx(
            sum(r["meta"]["charged_epsilon"] for r in ok)
        )

    def test_charged_epsilon_sums_to_the_ledger_exactly(
        self, dataset, clustering
    ):
        """Envelopes report the grid units charged, not a float sum: over a
        tenant's funded releases the quantized charges add up to the
        ledger's units exactly, and the default triple reads 0.3."""
        service = make_service(dataset, clustering)
        service.create_tenant("erin", 3.0)
        client = ServiceClient(service, "erin", "diabetes")
        triples = [(0.1, 0.1, 0.1), (0.1, 0.2, 0.3), (1 / 3, 1 / 3, 1 / 3),
                   (0.07, 0.11, 0.13), (0.1, 0.1, 0.1)]
        charged = []
        for seed, (cand, top, hist) in enumerate(triples):
            for _ in range(2):  # the repeat is a free hit
                envelope = client.explain(
                    seed=seed, eps_cand_set=cand, eps_top_comb=top,
                    eps_hist=hist,
                )
                assert envelope["status"] == "ok"
                charged.append(envelope["meta"]["charged_epsilon"])
        assert charged[0] == 0.3  # not 0.30000000000000004
        funded = [eps for eps in charged if eps]
        assert len(funded) == len(triples)
        accountant = service.registry.tenant("erin").accountant("diabetes")
        assert sum(map(quantize_epsilon, funded)) == accountant.total_units()
        service.create_tenant("broke", 0.1)
        refused = ServiceClient(service, "broke", "diabetes").explain(seed=99)
        assert refused["error"]["requested_epsilon"] == 0.3


class TestPersistence:
    def test_ledger_survives_restart(self, dataset, clustering, tmp_path):
        service = make_service(dataset, clustering, ledger_dir=tmp_path)
        service.create_tenant("alice", 0.5)
        ServiceClient(service, "alice", "diabetes").explain(seed=0)

        # Simulated crash: a brand-new service over the same ledger dir.
        reloaded = make_service(dataset, clustering, ledger_dir=tmp_path)
        accountant = reloaded.registry.tenant("alice").accountant("diabetes")
        assert accountant.total() == pytest.approx(EPS_TOTAL)
        assert accountant.limit == pytest.approx(0.5)
        # The reloaded ledger keeps refusing what the crashed one could not
        # afford (0.2 remaining < 0.3 requested).
        refusal = ServiceClient(reloaded, "alice", "diabetes").explain(seed=1)
        assert refusal["status"] == "refused" and refusal["code"] == 429

    def test_stop_closes_the_journals(self, dataset, clustering, tmp_path):
        service = make_service(dataset, clustering, ledger_dir=tmp_path)
        service.create_tenant("alice", 1.0)
        ServiceClient(service, "alice", "diabetes").explain(seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            service.stop()
            del service
            gc.collect()
        assert [w for w in caught if w.category is ResourceWarning] == []

    def test_restarted_service_still_journals(
        self, dataset, clustering, tmp_path
    ):
        service = make_service(dataset, clustering, ledger_dir=tmp_path)
        service.create_tenant("alice", 1.0)
        client = ServiceClient(service, "alice", "diabetes")
        client.explain(seed=0)
        service.stop()
        service.start(workers=1)
        try:
            client.explain(seed=1)
        finally:
            service.stop()
        reloaded = make_service(dataset, clustering, ledger_dir=tmp_path)
        accountant = reloaded.registry.tenant("alice").accountant("diabetes")
        assert accountant.total() == pytest.approx(2 * EPS_TOTAL)

    def test_requests_append_o1_journal_records_not_snapshot_rewrites(
        self, dataset, clustering, tmp_path
    ):
        """PR 5 contract: serving a request appends one journal record and
        leaves the tenant snapshot file untouched (persistence is O(1)
        bytes per request, not O(ledger))."""
        service = make_service(dataset, clustering, ledger_dir=tmp_path)
        service.create_tenant("alice", 5.0)
        snapshot_before = (tmp_path / "alice.json").read_bytes()
        for seed in range(3):
            ServiceClient(service, "alice", "diabetes").explain(seed=seed)
        assert (tmp_path / "alice.json").read_bytes() == snapshot_before
        lines = (tmp_path / "alice.journal").read_text().splitlines()
        assert len(lines) == 3
        sizes = [len(ln) for ln in lines]
        assert max(sizes) - min(sizes) <= 4  # O(1) record size

        reloaded = make_service(dataset, clustering, ledger_dir=tmp_path)
        acc = reloaded.registry.tenant("alice").accountant("diabetes")
        assert acc.total_units() == 3 * 300_000_000

    def test_cap_fills_exactly_with_zero_slack(self, dataset, clustering):
        """A 0.9 cap funds exactly three 0.3 requests — the third lands on
        the cap to the nano-eps — and the fourth is refused, with the
        refusal envelope's spent/remaining/limit mutually consistent."""
        service = make_service(dataset, clustering)
        service.create_tenant("eve", 0.9)
        client = ServiceClient(service, "eve", "diabetes")
        for seed in range(3):
            assert client.explain(seed=seed)["status"] == "ok"
        accountant = service.registry.tenant("eve").accountant("diabetes")
        assert accountant.balance().remaining_units == 0
        refusal = client.explain(seed=3)
        assert refusal["status"] == "refused" and refusal["code"] == 429
        err = refusal["error"]
        assert err["remaining"] == 0.0
        assert err["spent"] == err["limit"] == pytest.approx(0.9)

    def test_similar_tenant_ids_never_share_a_ledger_file(
        self, dataset, clustering, tmp_path
    ):
        """Filenames are percent-encoded bijectively: 'team a' and 'team_a'
        must persist separately, or one tenant's spend silently clobbers
        the other's and a restart resurrects the clobbered budget."""
        service = make_service(dataset, clustering, ledger_dir=tmp_path)
        service.create_tenant("team a", 1.0)
        service.create_tenant("team_a", 1.0)
        ServiceClient(service, "team a", "diabetes").explain(seed=0)
        assert len(list(tmp_path.glob("*.json"))) == 2

        reloaded = make_service(dataset, clustering, ledger_dir=tmp_path)
        spent = reloaded.registry.tenant("team a").accountant("diabetes")
        untouched = reloaded.registry.tenant("team_a").accountant("diabetes")
        assert spent.total() == pytest.approx(EPS_TOTAL)
        assert untouched.total() == 0.0

    def test_misses_and_stop_never_rewrite_the_snapshot(
        self, dataset, clustering, tmp_path
    ):
        """The snapshot is written once, at creation: funded misses and a
        clean stop() only append journal records, and a restart reloads
        the exact units from the journal."""
        service = make_service(dataset, clustering, ledger_dir=tmp_path)
        service.create_tenant("alice", 5.0)
        created = (tmp_path / "alice.json").read_bytes()
        client = ServiceClient(service, "alice", "diabetes")
        for seed in range(5):
            assert client.explain(seed=seed)["meta"]["cache"] == "miss"
        service.stop()
        assert (tmp_path / "alice.json").read_bytes() == created
        assert len((tmp_path / "alice.journal").read_text().splitlines()) == 5
        live = service.registry.tenant("alice").accountant("diabetes")
        reloaded = ServiceRegistry(ledger_dir=tmp_path).tenant("alice")
        assert reloaded.accountant("diabetes").total_units() == (
            live.total_units()
        )
        assert live.total_units() == 5 * 300_000_000

    def test_orphaned_tmp_files_ignored_on_reload(
        self, dataset, clustering, tmp_path
    ):
        service = make_service(dataset, clustering, ledger_dir=tmp_path)
        service.create_tenant("alice", 1.0)
        ServiceClient(service, "alice", "diabetes").explain(seed=0)
        # A crash mid-write leaves a partial temp file behind.
        (tmp_path / "alice.json.tmp").write_text("{\"tenant\": \"alice\", tru")
        reloaded = ServiceRegistry(ledger_dir=tmp_path)
        assert reloaded.tenant("alice").accountant("diabetes").total() == (
            pytest.approx(EPS_TOTAL)
        )

    def test_corrupt_ledger_raises_service_error(self, tmp_path):
        (tmp_path / "bad.json").write_text("not json")
        with pytest.raises(ServiceError) as exc:
            ServiceRegistry(ledger_dir=tmp_path)
        assert exc.value.reason == "corrupt-ledger"

    def test_overspent_snapshot_rejected(self):
        """Charges replay against the *tenant's* cap, which they exceed."""
        tenant = Tenant("t", 0.1)
        with pytest.raises(Exception):
            tenant.restore(
                {
                    "budget_limit": 1.0,  # snapshot claims a roomier cap
                    "ledgers": {
                        "d": {
                            "limit": 1.0,
                            "charges": [
                                {"label": "x", "epsilon": 0.5,
                                 "composition": "sequential",
                                 "units": 500_000_000, "token": 0}
                            ],
                        }
                    },
                }
            )

    def test_snapshot_budget_limit_cannot_widen_the_cap(self):
        """A tampered top-level ``budget_limit`` is ignored on restore: the
        tenant keeps its own cap and ledgers replay against it."""
        tenant = Tenant("t", 0.5)
        tenant.restore(
            {
                "budget_limit": 100.0,  # tampered/stale
                "ledgers": {
                    "d": {
                        "limit": 100.0,
                        "charges": [
                            {"label": "x", "epsilon": 0.4,
                             "composition": "sequential",
                             "units": 400_000_000, "token": 0}
                        ],
                    }
                },
            }
        )
        assert tenant.budget_limit == pytest.approx(0.5)
        accountant = tenant.accountant("d")
        assert accountant.limit == pytest.approx(0.5)
        with pytest.raises(Exception):
            accountant.spend(0.2, "over")  # 0.4 + 0.2 > 0.5

    def test_tampered_ledger_limit_cannot_widen_the_cap(self):
        """The per-ledger ``limit`` field is ignored on restore: charges
        replay against the tenant's own budget_limit."""
        tenant = Tenant("t", 0.5)
        tenant.restore(
            {
                "budget_limit": 0.5,
                "ledgers": {
                    "d": {
                        "limit": 100.0,  # tampered/stale
                        "charges": [
                            {"label": "x", "epsilon": 0.4,
                             "composition": "sequential",
                             "units": 400_000_000, "token": 0}
                        ],
                    }
                },
            }
        )
        accountant = tenant.accountant("d")
        assert accountant.limit == pytest.approx(0.5)
        with pytest.raises(Exception):
            accountant.spend(0.2, "over")  # 0.4 + 0.2 > 0.5


class TestGroupCommit:
    """A batch funds every release in one journal commit scope: one fsync
    per touched tenant journal, all before the batch's first draw."""

    def test_batch_fsyncs_once_per_touched_tenant(
        self, dataset, clustering, tmp_path, monkeypatch
    ):
        service = make_service(dataset, clustering, ledger_dir=tmp_path)
        for tenant in ("a", "b"):
            service.create_tenant(tenant, 50.0)
        real_fsync = os.fsync
        calls = []

        def counting_fsync(fd):
            calls.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        futures = [
            service.submit(
                ExplainRequest(tenant="ab"[i % 2], dataset="diabetes", seed=i)
            )
            for i in range(16)
        ]
        assert service.process_pending() == 1
        assert [f.result(timeout=5)["meta"]["cache"] for f in futures] == (
            ["miss"] * 16
        )
        assert len(calls) == 2
        monkeypatch.undo()
        reloaded = make_service(dataset, clustering, ledger_dir=tmp_path)
        for tenant in ("a", "b"):
            acc = reloaded.registry.tenant(tenant).accountant("diabetes")
            assert acc.total_units() == 8 * 300_000_000

    def test_failed_commit_answers_500_and_draws_nothing(
        self, dataset, clustering, tmp_path, monkeypatch
    ):
        """``os.fsync`` fails at the batch's commit: every reservation is
        refunded, the batch answers 500, and no noise is drawn — the engine
        (which builds each seed's generator) never runs."""
        import repro.service.service as service_module

        service = make_service(dataset, clustering, ledger_dir=tmp_path)
        service.create_tenant("t", 5.0)
        client = ServiceClient(service, "t", "diabetes")
        assert client.explain(seed=0)["status"] == "ok"
        accountant = service.registry.tenant("t").accountant("diabetes")
        units_before = accountant.total_units()

        real_fsync = os.fsync
        failures = []

        def failing_commit(fd):
            if not failures:
                failures.append(fd)
                raise OSError("fsync failed")
            real_fsync(fd)

        engine_calls = []
        real_engine = service_module.explain_batched

        def spy_engine(*args, **kwargs):
            engine_calls.append(args)
            return real_engine(*args, **kwargs)

        monkeypatch.setattr(os, "fsync", failing_commit)
        monkeypatch.setattr(service_module, "explain_batched", spy_engine)
        futures = [
            service.submit(ExplainRequest(tenant="t", dataset="diabetes", seed=s))
            for s in (1, 2, 3)
        ]
        service.process_pending()
        envelopes = [f.result(timeout=5) for f in futures]
        assert failures, "the commit fsync was never attempted"
        assert all(e["status"] == "error" and e["code"] == 500 for e in envelopes)
        assert engine_calls == []
        assert accountant.total_units() == units_before
        monkeypatch.undo()

        reloaded = make_service(dataset, clustering, ledger_dir=tmp_path)
        acc = reloaded.registry.tenant("t").accountant("diabetes")
        assert acc.total_units() == units_before
        # Nothing was drawn or cached: the retry is the release a fresh
        # service makes for the same seed.
        retry = client.explain(seed=1)
        fresh = make_service(dataset, clustering)
        fresh.create_tenant("t", 5.0)
        assert retry["meta"]["cache"] == "miss"
        assert retry["result"] == (
            ServiceClient(fresh, "t", "diabetes").explain(seed=1)["result"]
        )


class TestPipelineRoute:
    """The /v1/pipeline path: server-side DP clustering under one ledger."""

    def make_labels_free(self, dataset, **kwargs) -> ExplanationService:
        service = ExplanationService(**kwargs)
        service.register_dataset("raw", dataset)  # no clustering
        return service

    def test_explain_on_labels_free_dataset_is_refused_400(self, dataset):
        service = self.make_labels_free(dataset)
        service.create_tenant("t", 5.0)
        envelope = service.explain(ExplainRequest(tenant="t", dataset="raw"))
        assert envelope["status"] == "error" and envelope["code"] == 400
        assert envelope["error"]["reason"] == "no-clustering"
        assert service.registry.tenant("t").accountant("raw").total() == 0.0

    def test_pipeline_charges_both_stages_to_one_ledger(self, dataset):
        service = self.make_labels_free(dataset)
        service.create_tenant("alice", 5.0)
        envelope = service.pipeline(
            PipelineRequest(
                tenant="alice", dataset="raw", n_clusters=3,
                clustering_epsilon=1.0,
            )
        )
        assert envelope["status"] == "ok"
        assert envelope["pipeline"]["clustering_cache"] == "miss"
        assert envelope["pipeline"]["charged_clustering_epsilon"] == 1.0
        assert envelope["meta"]["cache"] == "miss"
        assert envelope["meta"]["charged_total_epsilon"] == pytest.approx(1.3)
        # Both stages landed in the one (tenant, base-dataset) ledger.
        accountant = service.registry.tenant("alice").accountant("raw")
        assert accountant.total() == pytest.approx(1.3)
        labels = [c.label for c in accountant]
        assert any(label.startswith("pipeline: dp-kmeans") for label in labels)
        assert any(label.startswith("service: DPClustX") for label in labels)

    def test_charged_total_epsilon_is_the_ledger_units(self, dataset):
        service = self.make_labels_free(dataset)
        service.create_tenant("t", 5.0)
        envelope = service.pipeline(
            PipelineRequest(
                tenant="t", dataset="raw", n_clusters=3,
                clustering_epsilon=0.7, eps_hist=0.2,
            )
        )
        assert envelope["pipeline"]["charged_clustering_epsilon"] == 0.7
        assert envelope["meta"]["charged_epsilon"] == 0.4
        assert envelope["meta"]["charged_total_epsilon"] == 1.1  # not 1.0999...
        accountant = service.registry.tenant("t").accountant("raw")
        assert quantize_epsilon(1.1) == accountant.total_units()

    def test_repeat_request_hits_both_caches_at_zero_charge(self, dataset):
        service = self.make_labels_free(dataset)
        service.create_tenant("alice", 5.0)
        request = PipelineRequest(
            tenant="alice", dataset="raw", n_clusters=3, clustering_epsilon=1.0
        )
        first = service.pipeline(request)
        spent = service.registry.tenant("alice").accountant("raw").total()
        second = service.pipeline(request)
        assert second["pipeline"]["clustering_cache"] == "hit"
        assert second["pipeline"]["charged_clustering_epsilon"] == 0.0
        assert second["meta"]["cache"] == "hit"
        assert second["meta"]["charged_total_epsilon"] == 0.0
        assert json.dumps(first["result"], sort_keys=True) == json.dumps(
            second["result"], sort_keys=True
        )
        after = service.registry.tenant("alice").accountant("raw").total()
        assert after == spent == pytest.approx(1.3)

    def test_new_explain_seed_reuses_the_fit(self, dataset):
        service = self.make_labels_free(dataset)
        service.create_tenant("alice", 5.0)
        request = PipelineRequest(
            tenant="alice", dataset="raw", n_clusters=3, clustering_epsilon=1.0
        )
        service.pipeline(request)
        fresh = service.pipeline(
            PipelineRequest(
                tenant="alice", dataset="raw", n_clusters=3,
                clustering_epsilon=1.0, seed=9,
            )
        )
        assert fresh["pipeline"]["clustering_cache"] == "hit"
        assert fresh["meta"]["cache"] == "miss"  # new explanation release
        accountant = service.registry.tenant("alice").accountant("raw")
        assert accountant.total() == pytest.approx(1.3 + 0.3)

    def test_fit_is_free_for_a_second_tenant(self, dataset):
        """The fitted clustering is a released object: once paid for, any
        tenant's pipeline request naming it reuses it (post-processing)."""
        service = self.make_labels_free(dataset)
        service.create_tenant("payer", 5.0)
        service.create_tenant("rider", 5.0)
        service.pipeline(
            PipelineRequest(tenant="payer", dataset="raw", n_clusters=3)
        )
        rider = service.pipeline(
            PipelineRequest(tenant="rider", dataset="raw", n_clusters=3)
        )
        assert rider["pipeline"]["clustering_cache"] == "hit"
        assert rider["meta"]["cache"] == "hit"
        assert service.registry.tenant("rider").accountant("raw").total() == 0.0

    def test_over_budget_clustering_is_structured_429(self, dataset):
        service = self.make_labels_free(dataset)
        service.create_tenant("poor", 0.5)  # < clustering_epsilon
        envelope = service.pipeline(
            PipelineRequest(
                tenant="poor", dataset="raw", n_clusters=3,
                clustering_epsilon=1.0,
            )
        )
        assert envelope["status"] == "refused" and envelope["code"] == 429
        assert envelope["error"]["reason"] == "budget-exhausted"
        assert envelope["error"]["stage"] == "clustering"
        assert envelope["error"]["requested_epsilon"] == 1.0
        assert service.registry.tenant("poor").accountant("raw").total() == 0.0
        assert fitted_count(service) == 0  # nothing was fitted

    def test_bad_clustering_params_400_before_any_charge(self, dataset):
        service = self.make_labels_free(dataset)
        service.create_tenant("t", 5.0)
        envelope = service.pipeline(
            PipelineRequest(tenant="t", dataset="raw", method="k-means")
        )
        assert envelope["status"] == "error" and envelope["code"] == 400
        assert service.registry.tenant("t").accountant("raw").total() == 0.0

    def test_too_many_candidates_400_before_any_charge(self, dataset):
        service = self.make_labels_free(dataset)
        service.create_tenant("t", 5.0)
        envelope = service.pipeline(
            PipelineRequest(tenant="t", dataset="raw", n_candidates=99)
        )
        assert envelope["code"] == 400
        assert envelope["error"]["message"] == (
            f"n_candidates=99 exceeds the {dataset.schema.width} attributes "
            "of 'raw'"
        )
        assert service.registry.tenant("t").accountant("raw").total() == 0.0

    def test_response_matches_the_serial_pipeline(self, dataset):
        """Served release == spec-seeded fit + serial DPClustX explain."""
        service = self.make_labels_free(dataset)
        service.create_tenant("t", 5.0)
        envelope = service.pipeline(
            PipelineRequest(
                tenant="t", dataset="raw", n_clusters=3,
                clustering_epsilon=1.0, clustering_seed=2, seed=5,
            )
        )
        clustering = ClusteringSpec("dp-kmeans", 3, 1.0, seed=2).fit(dataset)
        counts = ClusteredCounts(dataset, clustering)
        serial = DPClustX().explain(dataset, clustering, rng=5, counts=counts)
        assert envelope["result"]["combination"] == list(serial.combination)
        for got, expected in zip(envelope["result"]["clusters"], serial):
            assert np.array_equal(got["hist_cluster"], expected.hist_cluster)
            assert np.array_equal(got["hist_rest"], expected.hist_rest)

    def test_reregistering_evicts_fitted_and_derived_entries(
        self, dataset, clustering
    ):
        """Extends the PR 3 orphan-eviction fix: replacing a dataset id
        drops its fitted clusterings and derived entries alongside its
        explanation cache entries."""
        service = self.make_labels_free(dataset)
        service.create_tenant("t", 10.0)
        request = PipelineRequest(tenant="t", dataset="raw", n_clusters=3)
        first = service.pipeline(request)
        derived_id = first["pipeline"]["fitted_dataset"]
        assert fitted_count(service) == 1 and len(service.cache) == 1
        assert service.registry.dataset(derived_id) is not None

        labels = clustering.assign(dataset)
        service.register_dataset(
            "raw", dataset, labels, n_clusters=clustering.n_clusters
        )
        assert fitted_count(service) == 0
        assert len(service.cache) == 0
        with pytest.raises(ServiceError):
            service.registry.dataset(derived_id)  # derived entry dropped

        # A repeat request refits (and legitimately re-charges).
        again = service.pipeline(request)
        assert again["pipeline"]["clustering_cache"] == "miss"

    def test_identical_reregistration_keeps_the_caches(self, dataset):
        service = self.make_labels_free(dataset)
        service.create_tenant("t", 5.0)
        service.pipeline(PipelineRequest(tenant="t", dataset="raw", n_clusters=3))
        service.register_dataset("raw", dataset)  # same data, still labels-free
        assert fitted_count(service) == 1
        assert len(service.cache) == 1

    def test_lru_evicted_fit_drops_its_derived_registry_entry(self, dataset):
        """The registry must not become an unbounded shadow store: a fit
        pushed out of the LRU takes its derived entry with it."""
        service = ExplanationService(fitted_entries=1, auto_tenant_budget=100.0)
        service.register_dataset("raw", dataset)
        first = service.pipeline(
            PipelineRequest(tenant="t", dataset="raw", n_clusters=3)
        )
        second = service.pipeline(
            PipelineRequest(
                tenant="t", dataset="raw", n_clusters=3, clustering_seed=1
            )
        )
        assert fitted_count(service) == 1  # capacity bound held
        with pytest.raises(ServiceError):
            service.registry.dataset(first["pipeline"]["fitted_dataset"])
        assert service.registry.dataset(second["pipeline"]["fitted_dataset"])

    def test_a_hit_refreshes_the_fits_recency(self, dataset):
        """The bound drops the least recently *used* fit, not the oldest."""
        service = ExplanationService(fitted_entries=2, auto_tenant_budget=100.0)
        service.register_dataset("raw", dataset)

        def fit(clustering_seed: int) -> dict:
            return service.pipeline(
                PipelineRequest(
                    tenant="t", dataset="raw", n_clusters=3,
                    clustering_seed=clustering_seed,
                )
            )["pipeline"]

        first, second = fit(0), fit(1)
        assert fit(0)["clustering_cache"] == "hit"  # first is now the newest
        fit(2)
        assert fitted_count(service) == 2
        assert service.registry.dataset(first["fitted_dataset"])
        with pytest.raises(ServiceError):
            service.registry.dataset(second["fitted_dataset"])
        assert service.describe()["fitted_clusterings"] == {
            "entries": 2,
            "max_entries": 2,
        }

    def test_nearby_clustering_epsilons_are_distinct_fits(self, dataset):
        """An epsilon that 6 significant digits cannot tell from 1.0 is a
        different release: it is fitted and charged, not served as 1.0's."""
        service = self.make_labels_free(dataset)
        service.create_tenant("t", 10.0)
        first = service.pipeline(
            PipelineRequest(
                tenant="t", dataset="raw", n_clusters=3, clustering_epsilon=1.0
            )
        )
        second = service.pipeline(
            PipelineRequest(
                tenant="t", dataset="raw", n_clusters=3,
                clustering_epsilon=1.0000001,
            )
        )
        assert first["pipeline"]["fitted_dataset"] == (
            "raw::dp-kmeans/k3/eps1/T5/s0"
        )
        assert second["pipeline"]["fitted_dataset"] == (
            "raw::dp-kmeans/k3/eps1.0000001/T5/s0"
        )
        assert second["pipeline"]["clustering_cache"] == "miss"
        assert second["pipeline"]["charged_clustering_epsilon"] == 1.0000001
        accountant = service.registry.tenant("t").accountant("raw")
        fits = [c.epsilon for c in accountant if c.label.startswith("pipeline:")]
        assert fits == [1.0, 1.0000001]

    def test_registered_ids_may_not_name_a_fit(self, dataset, clustering):
        """``::`` joins derived ids, so no registration may use it: a fit
        can never replace a dataset an operator registered."""
        service = self.make_labels_free(dataset)
        service.create_tenant("t", 5.0)
        derived_id = "raw::dp-kmeans/k3/eps1/T5/s0"
        with pytest.raises(ValueError, match="::"):
            service.register_dataset(derived_id, dataset, clustering)
        with pytest.raises(ValueError, match="::"):
            service.registry.register_dataset(derived_id, dataset)
        envelope = service.pipeline(
            PipelineRequest(
                tenant="t", dataset="raw", n_clusters=3, clustering_epsilon=1.0
            )
        )
        assert envelope["status"] == "ok"
        assert envelope["pipeline"]["fitted_dataset"] == derived_id
        assert envelope["pipeline"]["clustering_cache"] == "miss"
        assert service.registry.dataset(derived_id).is_derived

    def test_base_replaced_mid_fit_is_409_and_refunded(
        self, dataset, monkeypatch
    ):
        service = self.make_labels_free(dataset)
        service.create_tenant("t", 5.0)
        fit = ClusteringSpec.fit

        def fit_while_replacing(spec, data, *args, **kwargs):
            service.register_dataset("raw", dataset)  # a new base object
            return fit(spec, data, *args, **kwargs)

        monkeypatch.setattr(ClusteringSpec, "fit", fit_while_replacing)
        envelope = service.pipeline(
            PipelineRequest(tenant="t", dataset="raw", n_clusters=3)
        )
        assert envelope["code"] == 409
        assert envelope["error"]["reason"] == "dataset-replaced"
        assert service.registry.tenant("t").accountant("raw").total() == 0.0
        assert fitted_count(service) == 0

    def test_registry_identity_guards(self, dataset, clustering):
        from repro.service import DatasetEntry

        registry = ServiceRegistry()
        base = registry.register_dataset("d", dataset, clustering)
        entry = DatasetEntry("d::x", dataset, clustering, base_id="d")
        assert registry.add_entry_if_current(entry, base)
        # Replacing the base makes the captured base object stale...
        registry.register_dataset("d", dataset, clustering)
        entry2 = DatasetEntry("d::y", dataset, clustering, base_id="d")
        assert not registry.add_entry_if_current(entry2, base)

    def test_concurrent_pipeline_requests_cannot_overspend(self, dataset):
        """ISSUE satellite: the 12-thread no-overspend proof, pipeline
        flavour — one fit charge (single-flight), then exactly as many
        explanation charges as the remaining cap affords."""
        cap = 2.0  # 1.0 fit + exactly 3 explanations of 0.3
        service = self.make_labels_free(dataset)
        service.create_tenant("dave", cap)
        service.start(workers=3)
        try:
            results: "list[dict]" = []
            lock = threading.Lock()

            def call(seed: int) -> None:
                response = service.pipeline(
                    PipelineRequest(
                        tenant="dave", dataset="raw", n_clusters=3,
                        clustering_epsilon=1.0, seed=seed,
                    ),
                    timeout=60.0,
                )
                with lock:
                    results.append(response)

            threads = [
                threading.Thread(target=call, args=(seed,)) for seed in range(12)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            service.stop()

        accountant = service.registry.tenant("dave").accountant("raw")
        assert accountant.total() <= cap + 1e-9
        ok = [r for r in results if r["status"] == "ok"]
        refused = [r for r in results if r["status"] == "refused"]
        assert len(ok) == 3 and len(refused) == 9
        # The fit was charged exactly once despite 12 racing requests.
        fit_charges = [
            c for c in accountant if c.label.startswith("pipeline: dp-kmeans")
        ]
        assert len(fit_charges) == 1
        assert service.describe()["stats"]["clustering_fits"] == 1


class TestHTTP:
    @pytest.fixture()
    def server(self, dataset, clustering):
        service = make_service(dataset, clustering, auto_tenant_budget=1.0)
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()

    def _post(self, server, path: str, body: dict):
        port = server.server_address[1]
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}",
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            return response.status, json.load(response)

    def _get(self, server, path: str):
        port = server.server_address[1]
        with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as response:
            return response.status, json.load(response)

    def test_explain_roundtrip(self, server):
        status, envelope = self._post(
            server, "/v1/explain", {"tenant": "web", "dataset": "diabetes"}
        )
        assert status == 200 and envelope["status"] == "ok"
        assert envelope["result"]["combination"]
        status, ledger = self._get(server, "/v1/ledger/web")
        assert ledger["ledgers"]["diabetes"]["spent"] == pytest.approx(EPS_TOTAL)

    def test_ledger_route_decodes_percent_encoded_tenant_ids(self, server):
        self._post(
            server, "/v1/explain", {"tenant": "team a", "dataset": "diabetes"}
        )
        status, ledger = self._get(server, "/v1/ledger/team%20a")
        assert status == 200 and ledger["tenant"] == "team a"
        assert ledger["ledgers"]["diabetes"]["spent"] == pytest.approx(EPS_TOTAL)

    def test_pipeline_roundtrip(self, server):
        status, envelope = self._post(
            server,
            "/v1/pipeline",
            {
                "tenant": "pipe",
                "dataset": "diabetes",
                "n_clusters": 3,
                "clustering_epsilon": 0.5,
            },
        )
        assert status == 200 and envelope["status"] == "ok"
        assert envelope["pipeline"]["clustering_cache"] == "miss"
        assert envelope["result"]["combination"]
        status, ledger = self._get(server, "/v1/ledger/pipe")
        # Clustering + explanation under the base dataset's one ledger.
        assert ledger["ledgers"]["diabetes"]["spent"] == pytest.approx(
            0.5 + EPS_TOTAL
        )

    def test_pipeline_unknown_field_maps_to_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            self._post(
                server, "/v1/pipeline",
                {"tenant": "t", "dataset": "diabetes", "evil": 1},
            )
        assert exc.value.code == 400

    def test_budget_refusal_maps_to_429(self, server):
        for seed in range(3):  # 3 * 0.3 exhausts the 1.0 auto budget
            self._post(
                server, "/v1/explain",
                {"tenant": "heavy", "dataset": "diabetes", "seed": seed},
            )
        with pytest.raises(urllib.error.HTTPError) as exc:
            self._post(
                server, "/v1/explain",
                {"tenant": "heavy", "dataset": "diabetes", "seed": 99},
            )
        assert exc.value.code == 429
        envelope = json.load(exc.value)
        assert envelope["error"]["reason"] == "budget-exhausted"

    def test_health_stats_and_404(self, server):
        assert self._get(server, "/healthz")[1]["status"] == "ok"
        status, stats = self._get(server, "/v1/stats")
        assert "cache" in stats and "stats" in stats
        with pytest.raises(urllib.error.HTTPError) as exc:
            self._get(server, "/no/such/route")
        assert exc.value.code == 404

    def test_bad_json_maps_to_400(self, server):
        port = server.server_address[1]
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/v1/explain",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(request)
        assert exc.value.code == 400

    @pytest.mark.parametrize(
        "seed_literal",
        [b"1e400", b"1.7", b"9" * 5000],  # 5000 digits exceed int parsing
        ids=["1e400", "1.7", "5000-digits"],
    )
    def test_unservable_seed_maps_to_400_with_trace_id(
        self, server, seed_literal
    ):
        status, envelope = _post_raw(
            server, "/v1/explain",
            b'{"tenant": "web", "dataset": "diabetes", "seed": '
            + seed_literal + b"}",
        )
        assert status == 400 and envelope["code"] == 400
        assert envelope["error"]["reason"] == "invalid-request"
        assert trace_id_of(envelope)
        assert not server.service.registry.tenants()  # nothing was charged

    @pytest.mark.parametrize(
        "data",
        [b"\x80", b"\xff\xfe{", b"[" * 100_000],
        ids=["bad-utf8", "bad-utf16", "deep-nesting"],
    )
    def test_undecodable_body_maps_to_400(self, server, data):
        """Bad bytes and too deep a nesting raise ValueError/RecursionError
        from json.loads, not JSONDecodeError; each is still a 400."""
        status, envelope = _post_raw(server, "/v1/explain", data)
        assert status == 400 and envelope["error"]["reason"] == "invalid-request"
        assert trace_id_of(envelope)

    @pytest.mark.parametrize(
        "supplied, status",
        [("abc", 200), ("", 200), (5, 400), (None, 400), (["abc"], 400)],
    )
    def test_trace_id_adopted_only_when_a_non_empty_string(
        self, server, supplied, status
    ):
        body = {"tenant": "web", "dataset": "diabetes", "trace_id": supplied}
        got, envelope = _post_raw(
            server, "/v1/explain", json.dumps(body).encode()
        )
        assert got == status
        trace_id = trace_id_of(envelope)
        assert trace_id and isinstance(trace_id, str)
        assert (trace_id == supplied) == (supplied == "abc")


def _post_raw(server, path: str, data: bytes) -> "tuple[int, dict]":
    """POST ``data`` as sent; returns the status and the decoded envelope."""
    port = server.server_address[1]
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)


_EXPLAIN_FIELDS = tuple(ExplainRequest.__dataclass_fields__)
_PIPELINE_FIELDS = tuple(PipelineRequest.__dataclass_fields__)

#: Values a bad field takes: non-finite, huge, bool, string and nested.
_EDGE_CASES = st.sampled_from([
    True, False, None, float("inf"), float("-inf"), float("nan"), 1.7, 3.0,
    2**63, 10**400, -(10**400), -1, 0, "", "0.1", "1e-1", "3", [], {},
    [1, 0, 0],
])
_JSON_VALUES = st.one_of(
    # Edge cases three times in four: a bad field is rare among any values.
    _EDGE_CASES,
    _EDGE_CASES,
    _EDGE_CASES,
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=8,
    ),
)
#: Python-edge values add what JSON cannot carry.
_PY_VALUES = st.one_of(
    _JSON_VALUES,
    st.tuples(_JSON_VALUES, _JSON_VALUES, _JSON_VALUES),
    st.floats().map(np.float64),
    st.integers(-3, 10).map(np.int64),
    st.sampled_from([b"0.1", {1, 2, 3}, np.ones(3), (1, 0, 0), 0.5 + 0j]),
)


#: In-range values per field, so a body with one bad field gets past the
#: others to the check that must refuse it (or to the engine and ledger).
_PLAUSIBLE = {
    "tenant": st.sampled_from(["p0", "p1"]),
    "dataset": st.just("diabetes"),
    "eps_cand_set": st.sampled_from([0.05, 0.1, 1]),
    "eps_top_comb": st.sampled_from([0.05, 0.1, 1]),
    "eps_hist": st.sampled_from([0.05, 0.1, 1]),
    "n_candidates": st.integers(1, 3),
    "weights": st.sampled_from([[1 / 3, 1 / 3, 1 / 3], [1, 0, 0]]),
    "seed": st.integers(0, 5),
    "explainer": st.just("DPClustX"),
    "trace_id": st.text(max_size=4),
    "method": st.sampled_from(["dp-kmeans", "dp-kmodes"]),
    "n_clusters": st.integers(2, 3),
    "clustering_epsilon": st.sampled_from([0.2, 1.0]),
    "n_iterations": st.integers(1, 3),
    "clustering_seed": st.integers(0, 2),
}


@st.composite
def _request_bodies(draw, fields, values):
    """A body of in-range ``fields`` with one or two of them set to any of
    ``values``."""
    body = {
        f: draw(_PLAUSIBLE[f])
        for f in fields
        if f in ("tenant", "dataset") or draw(st.booleans())
    }
    for f in draw(st.lists(st.sampled_from(fields), min_size=1, max_size=2)):
        body[f] = draw(values)
    return body


def _spent(service) -> dict:
    return {t.tenant_id: t.describe()["ledgers"] for t in service.registry.tenants()}


def _assert_answered(envelope: dict, before: dict, service) -> None:
    """``ok``, or a structured 4xx/429 refusal; a 400 moves no budget."""
    assert envelope["status"] in ("ok", "error", "refused"), envelope
    code = envelope["code"]
    if envelope["status"] == "ok":
        assert code == 200
    else:
        assert 400 <= code < 500, envelope
    assert trace_id_of(envelope)
    if code == 400:
        assert _spent(service) == before


@pytest.fixture(scope="module")
def admission_server(dataset, clustering):
    service = make_service(dataset, clustering, auto_tenant_budget=1.0)
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture(scope="module")
def client_service(dataset, clustering):
    return make_service(dataset, clustering, auto_tenant_budget=1.0)


class TestAdmissionProperties:
    """Any body or keyword set is served or refused in a structured way."""

    @settings(max_examples=300, deadline=None)
    @given(
        route=st.sampled_from(["/v1/explain", "/v1/pipeline"]),
        body=st.data(),
    )
    def test_any_json_body_gets_an_envelope(self, admission_server, route, body):
        fields = _PIPELINE_FIELDS if route == "/v1/pipeline" else _EXPLAIN_FIELDS
        drawn = body.draw(
            _request_bodies(fields, _JSON_VALUES)
            | _JSON_VALUES
            | st.dictionaries(st.text(max_size=5), _JSON_VALUES, max_size=3)
        )
        service = admission_server.service
        before = _spent(service)
        status, envelope = _post_raw(
            admission_server, route, json.dumps(drawn).encode()
        )
        assert status == envelope["code"]
        _assert_answered(envelope, before, service)

    @settings(max_examples=300, deadline=None)
    @given(pipeline=st.booleans(), data=st.data())
    def test_any_client_keywords_get_an_envelope(
        self, client_service, pipeline, data
    ):
        fields = _PIPELINE_FIELDS if pipeline else _EXPLAIN_FIELDS
        params = data.draw(_request_bodies(fields, _PY_VALUES))
        client = ServiceClient(client_service, params.pop("tenant"), "diabetes")
        before = _spent(client_service)
        call = client.pipeline if pipeline else client.explain
        envelope = call(**params)
        _assert_answered(envelope, before, client_service)
        assert client.last_trace_id == trace_id_of(envelope)


class TestLatencyStats:
    """Per-request-class latency histograms surfaced through describe()."""

    def test_latency_summary_by_request_class(self, dataset, clustering):
        service = make_service(dataset, clustering, auto_tenant_budget=5.0)
        try:
            service.explain(tenant="a", dataset="diabetes", seed=0)  # miss
            service.explain(tenant="a", dataset="diabetes", seed=0)  # hit
        finally:
            service.stop()
        latency = service.describe()["latency"]
        assert set(latency) >= {"miss", "hit"}
        for cls in ("miss", "hit"):
            block = latency[cls]
            assert block["count"] == 1
            assert 0.0 < block["p50_s"] <= block["p99_s"]

    def test_refusals_are_their_own_class(self, dataset, clustering):
        service = make_service(dataset, clustering, auto_tenant_budget=0.3)
        try:
            service.explain(tenant="a", dataset="diabetes", seed=0)
            refused = service.explain(tenant="a", dataset="diabetes", seed=1)
            assert refused["code"] == 429
        finally:
            service.stop()
        latency = service.describe()["latency"]
        assert latency["refused"]["count"] == 1

    def test_sharded_counters_stay_exact_under_threads(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.service.service import latency_summary

        registry = MetricsRegistry()
        events = registry.counter("repro_service_events_total", "", ("event",))
        latency = registry.histogram(
            "repro_request_duration_seconds", "", ("class",)
        )
        n_threads, per_thread = 8, 500

        def hammer():
            for _ in range(per_thread):
                events.inc(1, ("requests",))
                latency.observe(0.001, ("miss",))

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert events.value(("requests",)) == n_threads * per_thread
        summary = latency_summary(latency)
        assert summary["miss"]["count"] == n_threads * per_thread
        assert summary["miss"]["p50_s"] <= summary["miss"]["p99_s"]

    def test_quantiles_bracket_observed_values(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.service.service import latency_summary

        latency = MetricsRegistry().histogram(
            "repro_request_duration_seconds", "", ("class",)
        )
        for ms in (1, 1, 1, 1, 1, 1, 1, 1, 1, 100):
            latency.observe(ms / 1000.0, ("miss",))
        summary = latency_summary(latency)["miss"]
        # Geometric buckets: quantiles are upper bounds of their bucket, so
        # p50 sits near 1ms (within one growth factor) and p99 near 100ms.
        assert 0.0005 < summary["p50_s"] < 0.002
        assert 0.05 < summary["p99_s"] < 0.2


class TestPerReleaseState:
    """Released misses leave no state behind outside the cache and ledger."""

    def test_misses_hold_no_core_or_evaluation_memory(self):
        import gc
        import tracemalloc

        dataset = diabetes_like(n_rows=2_000, n_groups=5)
        service = make_service(
            dataset, KMeans(5).fit(dataset, rng=0), auto_tenant_budget=1e3
        )
        filters = [
            tracemalloc.Filter(True, pattern)
            for pattern in ("*/repro/core/*", "*/repro/evaluation/*")
        ]

        def live_bytes() -> int:
            """Live bytes allocated by a line of ``repro.core`` or
            ``repro.evaluation`` (the innermost frame, so numpy's own
            buffer caches do not count)."""
            gc.collect()
            snapshot = tracemalloc.take_snapshot().filter_traces(filters)
            return sum(stat.size for stat in snapshot.statistics("filename"))

        def serve(seeds) -> None:
            for seed in seeds:
                out = service.explain(tenant="a", dataset="diabetes", seed=seed)
                assert out["meta"]["cache"] == "miss"

        tracemalloc.start()
        try:
            serve(range(20))  # warm-up: the engine's per-dataset memos
            before = live_bytes()
            serve(range(20, 220))
            growth = live_bytes() - before
        finally:
            tracemalloc.stop()
            service.stop()
        assert growth < 16 * 1024, f"{growth} B retained over 200 misses"

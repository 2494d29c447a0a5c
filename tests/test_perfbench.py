import importlib
from pathlib import Path

import numpy as np
import pytest

from aekit.gateway import MockEmbeddingProvider, ProviderConfig, RemoteEmbeddingProvider
from aekit.measure import ProbeSet, PromptPair, extract_concept_vector

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_library_target_exists(monkeypatch):
    # The benchmark reports a layer whose target was renamed away as
    # missing rather than failing, so the rename has to fail here.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.missing_targets() == set()


def test_remote_provider_batches_against_the_benchmark_server(monkeypatch):
    # The score workload's oracles assume the wire input string and the
    # array-input batching the provider uses; this pins both.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setenv("AEKIT_TEST_TOKEN", "token")
    fakeserver = importlib.import_module("fakeserver")
    workloads = importlib.import_module("workloads")
    server = fakeserver.FakeServer(seed=5, dim=16, token="token")
    cfg = ProviderConfig("http://fake.invalid", "m", auth_token_env="AEKIT_TEST_TOKEN", batch_size=32)
    provider = RemoteEmbeddingProvider(cfg, transport=server)
    items = [(f"prompt {i % 4}", f"document {i}") for i in range(40)]
    block = provider.embed_many(items)
    for row, (prompt, doc) in zip(block, items):
        assert np.array_equal(row, server.vector(workloads.wire_input(prompt, doc)))
    counters = server.counters()
    assert counters.embed_requests == 2
    assert counters.embed_items == 40


def test_mock_layer_sees_one_embed_many_span_per_extraction(monkeypatch):
    # train's gateway.mock_embed_s sums the gateway.mock.* spans of the
    # provider proxy; this pins that extraction reaches the mock through it.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    store = tracing.SpanStore()
    provider = tracing.provider_proxy(store, MockEmbeddingProvider(seed=3, dim=16))
    probes = ProbeSet(tuple(f"probe {i}" for i in range(7)))
    pair = PromptPair("easy pole", "hard pole", "plain reading", "test-concept")
    extract_concept_vector(probes, pair, provider)
    assert [s.name for s in store.spans] == ["gateway.mock.embed_many"]
    assert sum(s.attrs["items"] for s in store.spans) == 2 * probes.count


@pytest.mark.parametrize(
    "name, n_papers, n_train, dim", [("Score", 24, 8, 64), ("Train", 30, 20, 64)]
)
def test_small_workload_passes_the_benchmark_oracles(monkeypatch, tmp_path, name, n_papers, n_train, dim):
    # The benchmark's own checks (eigh PCA, exhaustive cutoff, independent
    # projections, byte-identical reruns) on a small corpus, so that a
    # library change that breaks a workload fails here, not only in a
    # benchmark run.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")

    class Small(getattr(workloads, name)):
        N_PAPERS, N_TRAIN, DIM = n_papers, n_train, dim

    token = workloads.dummy_token(5)
    monkeypatch.setenv(workloads.TOKEN_ENV, token)
    workload = Small(5, token)
    workload.setup(tmp_path / "setup")
    workload.prepare_checks()
    for i in range(2):
        out = tmp_path / f"op{i}"
        out.mkdir()
        assert workload.check(out, workload.op(out, None)) == (0, [])


def test_the_tracer_sees_the_pipelines_per_paper_calls(monkeypatch, tmp_path):
    # missing_targets() checks only that the patched names exist; this
    # checks that run_pipeline still calls them, once per paper and stage.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")

    class Small(workloads.Score):
        N_PAPERS, N_TRAIN, DIM = 24, 8, 64

    token = workloads.dummy_token(5)
    monkeypatch.setenv(workloads.TOKEN_ENV, token)
    workload = Small(5, token)
    workload.setup(tmp_path / "setup")
    store = tracing.SpanStore()
    out = tmp_path / "op"
    out.mkdir()
    with tracing.patched(store):
        workload.op(out, store)
    names = [s.name for s in store.spans]
    assert names.count("pipeline.run") == 1
    assert names.count("rate.document") == len(workload.rate_inputs) == 20
    assert names.count("assess.document") == len(workload.assess_inputs) == 24

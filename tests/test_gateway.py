import hashlib
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from aekit.gateway import (
    DEFAULT_BATCH_SIZE,
    AuthFailure,
    ChatMessage,
    EmbeddingDimensionMismatch,
    GatewayError,
    MockEmbeddingProvider,
    ProviderConfig,
    RemoteChatProvider,
    RemoteEmbeddingProvider,
    RetryExhausted,
    ScriptExhausted,
    ScriptedChatProvider,
    mock_embed,
)
from aekit.jsonio import canonical_dumps
from aekit.pipeline import ConfigError, load_pipeline_config

from conftest import VectorTransport, document_encodings


class FakeTransport:
    """Scripted (status, body) responses; records every request."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def __call__(self, url, headers, body, timeout):
        self.requests.append({"url": url, "headers": dict(headers), "body": body})
        if not self.responses:
            raise AssertionError("transport called more often than scripted")
        entry = self.responses.pop(0)
        if isinstance(entry, Exception):
            raise entry
        return entry


def embedding_body(values):
    return json.dumps({"data": [{"embedding": values}]}).encode()


def batch_body(rows, indexes):
    data = [{"index": i, "embedding": row} for i, row in zip(indexes, rows)]
    return json.dumps({"data": data}).encode()


def make_cfg(**overrides):
    defaults = dict(
        endpoint_url="http://fake.test",
        model_name="test-model",
        auth_token_env="AEKIT_TEST_TOKEN",
        timeout=5.0,
        max_retries=3,
    )
    defaults.update(overrides)
    return ProviderConfig(**defaults)


@pytest.fixture(autouse=True)
def token_env(monkeypatch):
    monkeypatch.setenv("AEKIT_TEST_TOKEN", "s3cr3t-token-value")


class TestMockEmbed:
    def test_identical_inputs_identical_vectors(self):
        a = mock_embed(1, 8, "sys", "doc")
        b = mock_embed(1, 8, "sys", "doc")
        assert np.array_equal(a, b)

    def test_differing_system_prompt_changes_vector(self):
        a = mock_embed(1, 8, "prompt one", "same document")
        b = mock_embed(1, 8, "prompt two", "same document")
        assert np.any(a != b)

    def test_output_length_matches_dim(self):
        assert mock_embed(0, 8, "s", "d").shape == (8,)

    def test_values_in_unit_interval(self):
        vec = mock_embed(4, 256, "s", "d")
        assert np.all(vec >= -1.0) and np.all(vec <= 1.0)

    def test_provider_class_wraps_function(self):
        provider = MockEmbeddingProvider(seed=2, dim=6)
        assert np.array_equal(provider.embed("s", "d"), mock_embed(2, 6, "s", "d"))
        assert provider.provider_id == "mock-embed-2-d6"


def reference_mock_embed(seed, dim, system_prompt, document):
    """The mock's formula, written out: sha256 -> default_rng -> uniform."""
    payload = canonical_dumps([seed, system_prompt, document]).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big")).uniform(-1.0, 1.0, size=dim)


MOCK_TEXTS = ["plain", 'quote " and \\ backslash', "control \x00\x01\n\t\x1f", "non-BMP \U0001F600 \U00010348",
              "a,b", "c", "a", "b,c", '"],[', "", "é" * 300]


class TestMockEmbedMany:
    ITEMS = [(p, d) for p in MOCK_TEXTS[:6] for d in MOCK_TEXTS]

    @pytest.mark.parametrize("seed", [0, -5, 2**70, True])
    def test_rows_equal_the_formula_bit_for_bit(self, seed):
        block = MockEmbeddingProvider(seed=seed, dim=16).embed_many(self.ITEMS)
        assert block.shape == (len(self.ITEMS), 16)
        for row, (prompt, doc) in zip(block, self.ITEMS):
            expected = reference_mock_embed(seed, 16, prompt, doc)
            assert row.tobytes() == expected.tobytes()
            assert row.tobytes() == mock_embed(seed, 16, prompt, doc).tobytes()

    def test_ambiguous_splits_give_different_rows(self):
        block = MockEmbeddingProvider(seed=3, dim=16).embed_many([("a,b", "c"), ("a", "b,c")])
        assert np.any(block[0] != block[1])
        assert block[1].tobytes() == reference_mock_embed(3, 16, "a", "b,c").tobytes()

    def test_repeated_items_give_equal_rows(self):
        items = [("p", "x"), ("q", "x"), ("p", "x"), ("p", "y"), ("q", "x")]
        block = MockEmbeddingProvider(seed=1, dim=8).embed_many(items)
        assert block[0].tobytes() == block[2].tobytes()
        assert block[1].tobytes() == block[4].tobytes()
        for row, (prompt, doc) in zip(block, items):
            assert row.tobytes() == reference_mock_embed(1, 8, prompt, doc).tobytes()

    def test_empty_call_gives_an_empty_block(self):
        assert MockEmbeddingProvider(seed=1, dim=8).embed_many([]).shape == (0, 8)

    @pytest.mark.parametrize("item", [("p", "lone \ud800"), ("lone \udfff", "d")])
    def test_lone_surrogate_raises_like_mock_embed(self, item):
        with pytest.raises(UnicodeEncodeError):
            reference_mock_embed(0, 4, *item)
        with pytest.raises(UnicodeEncodeError):
            mock_embed(0, 4, *item)
        with pytest.raises(UnicodeEncodeError):
            MockEmbeddingProvider(seed=0, dim=4).embed_many([("p", "d"), item])


class TestMockEmbedManyReuse:
    """A call reuses the previous call's encodings; rows never change."""

    @staticmethod
    def assert_formula(block, items, seed=7, dim=8):
        assert block.shape == (len(items), dim)
        for row, (prompt, doc) in zip(block, items):
            assert row.tobytes() == mock_embed(seed, dim, prompt, doc).tobytes()

    def test_consecutive_and_overlapping_calls_keep_the_formula(self):
        provider = MockEmbeddingProvider(seed=7, dim=8)
        calls = [
            [(p, d) for p in MOCK_TEXTS[:2] for d in MOCK_TEXTS[:6]],
            [(p, d) for p in MOCK_TEXTS[:2] for d in MOCK_TEXTS[:6]],
            [(p, d) for p in MOCK_TEXTS[1:4] for d in MOCK_TEXTS[3:]],
            [(d, p) for p in MOCK_TEXTS[:3] for d in MOCK_TEXTS[3:8]],
            [],
            [(MOCK_TEXTS[0], MOCK_TEXTS[0])],
        ]
        for items in calls:
            self.assert_formula(provider.embed_many(items), items)

    def test_a_call_that_raised_leaves_later_rows_unchanged(self):
        provider = MockEmbeddingProvider(seed=7, dim=8)
        items = [(p, d) for p in MOCK_TEXTS[:3] for d in MOCK_TEXTS[:5]]
        self.assert_formula(provider.embed_many(items), items)
        with pytest.raises(UnicodeEncodeError):
            provider.embed_many(items[:4] + [("p", "lone \ud800")] + items[4:])
        self.assert_formula(provider.embed_many(items), items)
        with pytest.raises(UnicodeEncodeError):
            provider.embed_many([("lone \udfff", MOCK_TEXTS[0])])
        self.assert_formula(provider.embed_many(items[::-1]), items[::-1])

    def test_threads_sharing_one_provider_keep_the_formula(self):
        provider = MockEmbeddingProvider(seed=7, dim=8)
        calls = [
            [(p, d) for p in MOCK_TEXTS[k % 4:k % 4 + 2] for d in MOCK_TEXTS[k % 5:]]
            for k in range(200)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(provider.embed_many, items) for items in calls]
                blocks = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for block, items in zip(blocks, calls):
            self.assert_formula(block, items)

    def test_a_document_left_out_of_a_call_is_encoded_again(self, monkeypatch):
        # The provider keeps one call's encodings, not every document it saw.
        provider = MockEmbeddingProvider(seed=7, dim=8)
        doc = "the probe paper, " * 50
        call = lambda: [  # noqa: E731
            provider.embed_many(items)
            for items in ([("p", doc)], [("p", "other")], [("p", doc)], [("q", doc)])
        ]
        assert document_encodings(monkeypatch, doc, call) == 2


class TestScriptedChat:
    def test_replay_order(self):
        m1, m2 = ChatMessage("assistant", "one"), ChatMessage("assistant", "two")
        provider = ScriptedChatProvider([m1, m2])
        assert provider.next_message([]) is m1
        assert provider.next_message([m1]) is m2

    def test_exhaustion_raises(self):
        provider = ScriptedChatProvider([ChatMessage("assistant", "only")])
        provider.next_message([])
        with pytest.raises(ScriptExhausted):
            provider.next_message([])

    def test_empty_script_raises_immediately(self):
        with pytest.raises(ScriptExhausted):
            ScriptedChatProvider([]).next_message([])

    def test_rejects_non_assistant_messages(self):
        with pytest.raises(ValueError):
            ScriptedChatProvider([ChatMessage("user", "nope")])


class TestRemoteEmbeddings:
    def test_accepts_configured_dimension(self):
        transport = FakeTransport([(200, embedding_body([0.1] * 16))])
        provider = RemoteEmbeddingProvider(make_cfg(embedding_dim=16), transport)
        assert provider.embed("sys", "doc").shape == (16,)

    def test_dimension_mismatch_rejected(self):
        transport = FakeTransport([(200, embedding_body([0.1] * 8))])
        provider = RemoteEmbeddingProvider(make_cfg(embedding_dim=16), transport)
        with pytest.raises(EmbeddingDimensionMismatch):
            provider.embed("sys", "doc")

    def test_dimension_drift_rejected_without_configured_dim(self):
        transport = FakeTransport(
            [(200, embedding_body([0.1] * 8)), (200, embedding_body([0.1] * 9))]
        )
        provider = RemoteEmbeddingProvider(make_cfg(), transport)
        provider.embed("sys", "doc one")
        with pytest.raises(EmbeddingDimensionMismatch):
            provider.embed("sys", "doc two")

    def test_two_transient_failures_then_success_issues_three_requests(self):
        transport = FakeTransport(
            [(503, b""), (500, b""), (200, embedding_body([1.0, 2.0]))]
        )
        sleeps = []
        provider = RemoteEmbeddingProvider(make_cfg(), transport, sleep=sleeps.append)
        vec = provider.embed("sys", "doc")
        assert np.array_equal(vec, [1.0, 2.0])
        assert len(transport.requests) == 3
        assert sleeps == [1.0, 2.0]  # exponential backoff, base 1s, factor 2

    def test_rate_limit_is_retried_with_backoff(self):
        transport = FakeTransport([(429, b""), (200, embedding_body([1.0, 2.0]))])
        sleeps = []
        provider = RemoteEmbeddingProvider(make_cfg(), transport, sleep=sleeps.append)
        assert np.array_equal(provider.embed("sys", "doc"), [1.0, 2.0])
        assert len(transport.requests) == 2
        assert sleeps == [1.0]

    def test_auth_failure_is_not_retried(self):
        transport = FakeTransport([(401, b"")])
        provider = RemoteEmbeddingProvider(make_cfg(), transport)
        with pytest.raises(AuthFailure):
            provider.embed("sys", "doc")
        assert len(transport.requests) == 1

    def test_missing_token_raises_auth_failure(self, monkeypatch):
        monkeypatch.delenv("AEKIT_TEST_TOKEN", raising=False)
        provider = RemoteEmbeddingProvider(make_cfg(), FakeTransport([]))
        with pytest.raises(AuthFailure):
            provider.embed("sys", "doc")

    def test_retry_budget_is_bounded(self):
        transport = FakeTransport([(500, b"")] * 10)
        provider = RemoteEmbeddingProvider(
            make_cfg(max_retries=2), transport, sleep=lambda s: None
        )
        with pytest.raises(RetryExhausted):
            provider.embed("sys", "doc")
        assert len(transport.requests) == 3  # 1 + max_retries

    def test_other_4xx_is_terminal(self):
        transport = FakeTransport([(404, b"")])
        provider = RemoteEmbeddingProvider(make_cfg(), transport)
        with pytest.raises(GatewayError):
            provider.embed("sys", "doc")
        assert len(transport.requests) == 1

    def test_repeat_calls_are_served_only_from_the_disk_cache(self, tmp_path):
        # No vector outlives its call in memory: without a cache_dir the
        # same item costs a request per call.
        transport = FakeTransport([(200, embedding_body([0.5, 0.25]))] * 2)
        provider = RemoteEmbeddingProvider(make_cfg(), transport)
        assert np.array_equal(provider.embed("sys", "doc"), provider.embed("sys", "doc"))
        assert len(transport.requests) == 2

        transport = FakeTransport([(200, embedding_body([0.5, 0.25]))])
        provider = RemoteEmbeddingProvider(make_cfg(cache_dir=str(tmp_path / "cache")), transport)
        assert np.array_equal(provider.embed("sys", "doc"), provider.embed("sys", "doc"))
        assert len(transport.requests) == 1

    def test_disk_cache_layout_and_reuse(self, tmp_path):
        cfg = make_cfg(cache_dir=str(tmp_path / "cache"))
        transport = FakeTransport([(200, embedding_body([0.5]))])
        provider = RemoteEmbeddingProvider(cfg, transport)
        vec = provider.embed("sys", "doc")

        files = list((tmp_path / "cache").rglob("*.json"))
        assert len(files) == 1
        assert len(files[0].stem) == 64  # sha256 hex

        # A fresh provider (new process run, same cache dir) replays from disk.
        replay = RemoteEmbeddingProvider(cfg, FakeTransport([]))
        assert np.array_equal(replay.embed("sys", "doc"), vec)

    ODD = 'q"b\\s\nl\u2028z\x00\u00e9\U0001d11e'

    @pytest.mark.parametrize(
        "model_name, pooling, items",
        [
            ("test-model", "mean", [("sys", "doc")]),
            (
                'mo"del-\u00e9',
                'po"ol-\U0001d11e',
                # One document under several prompts, one prompt over
                # several documents, the empty prompt and the empty document.
                [("", ODD), ("sys", ODD), (ODD, ODD), ("sys", "doc"),
                 ("sys", ""), ("sys", ODD + "2"), ("", "doc")],
            ),
        ],
        ids=["plain", "mixed-escapes"],
    )
    def test_disk_cache_format_is_unchanged_and_replays(self, tmp_path, model_name, pooling, items):
        cfg = make_cfg(model_name=model_name, pooling=pooling, cache_dir=str(tmp_path / "cache"))
        rows = [[0.5, -0.25, 0.1, (i + 1) * 1e-300] for i in range(len(items))]
        transport = FakeTransport([(200, batch_body(rows, range(len(items))))])
        RemoteEmbeddingProvider(cfg, transport).embed_many(items)
        assert len(transport.requests) == 1

        expected = {}
        for i, (prompt, doc) in enumerate(items):
            key = hashlib.sha256(
                canonical_dumps(
                    {
                        "kind": "embeddings",
                        "model": model_name,
                        "pooling": pooling,
                        "system_prompt": prompt,
                        "document": doc,
                    }
                ).encode("utf-8")
            ).hexdigest()
            expected[f"{key}.json"] = f'{{"embedding":[0.5,-0.25,0.1,{i + 1}e-300]}}'.encode()
        cache = tmp_path / "cache" / f"{model_name}+{pooling}"
        assert {path.name: path.read_bytes() for path in cache.iterdir()} == expected

        # Files in that format replay with no request, batched or not.
        transport = FakeTransport([])
        replay = RemoteEmbeddingProvider(cfg, transport)
        assert np.array_equal(replay.embed_many(items + items[::-1]), rows + rows[::-1])
        assert np.array_equal(replay.embed(*items[0]), rows[0])
        assert transport.requests == []

    def test_no_secret_in_emitted_files(self, tmp_path):
        cfg = make_cfg(cache_dir=str(tmp_path / "cache"))
        transport = FakeTransport([(200, embedding_body([0.5]))])
        RemoteEmbeddingProvider(cfg, transport).embed("sys", "doc")
        for path in tmp_path.rglob("*"):
            if path.is_file():
                assert "s3cr3t-token-value" not in path.read_text()

    def test_no_secret_in_config_repr(self):
        cfg = make_cfg()
        assert "s3cr3t-token-value" not in repr(cfg)


class TestRemoteEmbeddingBatches:
    ITEMS = [("prompt a", "doc 1"), ("prompt b", "doc 1"), ("prompt a", "doc 2"),
             ("prompt c", "doc 3"), ("prompt b", "doc 4")]

    def test_batched_rows_equal_per_item_rows(self):
        batched = RemoteEmbeddingProvider(make_cfg(), VectorTransport())
        single = RemoteEmbeddingProvider(make_cfg(), VectorTransport())
        block = batched.embed_many(self.ITEMS)
        assert block.shape == (len(self.ITEMS), 4)
        for row, (prompt, doc) in zip(block, self.ITEMS):
            assert np.array_equal(row, single.embed(prompt, doc))
            assert np.array_equal(row, VectorTransport().vector(f"{prompt}\n\n{doc}"))

    def test_only_misses_are_sent(self, tmp_path):
        transport = VectorTransport()
        provider = RemoteEmbeddingProvider(make_cfg(cache_dir=str(tmp_path / "cache")), transport)
        provider.embed_many(self.ITEMS[1:3])
        block = provider.embed_many(self.ITEMS)
        assert transport.requests[1] == ["prompt a\n\ndoc 1", "prompt c\n\ndoc 3",
                                          "prompt b\n\ndoc 4"]
        assert np.array_equal(block[1:3], provider.embed_many(self.ITEMS[1:3]))
        assert len(transport.requests) == 2

    def test_duplicate_items_are_sent_once(self):
        transport = VectorTransport()
        provider = RemoteEmbeddingProvider(make_cfg(), transport)
        block = provider.embed_many([("p", "x"), ("p", "y"), ("p", "x")])
        assert transport.requests == [["p\n\nx", "p\n\ny"]]
        assert np.array_equal(block[0], block[2])

    @pytest.mark.parametrize("batch_size, n, sizes", [(None, 70, [32, 32, 6]), (2, 5, [2, 2, 1])])
    def test_misses_are_sent_in_chunks_of_batch_size(self, batch_size, n, sizes):
        transport = VectorTransport()
        cfg = make_cfg() if batch_size is None else make_cfg(batch_size=batch_size)
        provider = RemoteEmbeddingProvider(cfg, transport)
        items = [(f"prompt {i % 3}", f"doc {i}") for i in range(n)]
        block = provider.embed_many(items)
        assert DEFAULT_BATCH_SIZE == 32
        assert [len(r) for r in transport.requests] == sizes
        assert [t for r in transport.requests for t in r] == [f"{p}\n\n{d}" for p, d in items]
        assert np.array_equal(block, [transport.vector(f"{p}\n\n{d}") for p, d in items])

    def test_rows_are_placed_by_response_index(self):
        rows = [[0.0, 2.0], [1.0, 0.0], [0.0, 1.0]]
        transport = FakeTransport([(200, batch_body(rows, [2, 0, 1]))])
        provider = RemoteEmbeddingProvider(make_cfg(), transport)
        block = provider.embed_many([("p", "a"), ("p", "b"), ("p", "c")])
        assert np.array_equal(block, [[1.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
        assert transport.requests[0]["body"]["input"] == ["p\n\na", "p\n\nb", "p\n\nc"]

    @pytest.mark.parametrize("indexes", [[0, 1], [0, 1, 2, 3], [0, 0, 1], [0, 1, 3], ["0", 1, 2]])
    def test_indexes_other_than_each_input_once_rejected(self, indexes):
        body = batch_body([[1.0, 0.0]] * len(indexes), indexes)
        provider = RemoteEmbeddingProvider(make_cfg(), FakeTransport([(200, body)]))
        with pytest.raises(GatewayError):
            provider.embed_many([("p", "a"), ("p", "b"), ("p", "c")])

    def test_row_dimension_checked_in_a_batch(self):
        body = batch_body([[1.0, 0.0], [1.0, 0.0, 0.0]], [0, 1])
        provider = RemoteEmbeddingProvider(make_cfg(), FakeTransport([(200, body)]))
        with pytest.raises(EmbeddingDimensionMismatch):
            provider.embed_many([("p", "a"), ("p", "b")])

    def test_returned_rows_do_not_alias_the_cache(self):
        provider = RemoteEmbeddingProvider(make_cfg(), VectorTransport())
        first = provider.embed("p", "a")
        expected = first.copy()
        first[:] = 0.0
        assert np.array_equal(provider.embed("p", "a"), expected)

    def test_empty_batch_sends_nothing(self):
        transport = FakeTransport([])
        block = RemoteEmbeddingProvider(make_cfg(embedding_dim=3), transport).embed_many([])
        assert block.shape == (0, 3)
        assert transport.requests == []


class TestBlockCheck:
    """Each response, and each call's cache hits, is checked as one block."""

    ITEMS = [("p", "a"), ("p", "b")]

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[1.0, 0.0], [float("nan"), 0.0]], "embedding contains non-finite entries"),
            ([[1.0, 0.0], [1.0, "x"]], "could not convert string to float"),
            ([[], []], r"embedding must be a nonempty 1-D vector, got shape \(0,\)"),
            ([[1.0, 0.0], []], r"embedding must be a nonempty 1-D vector, got shape \(0,\)"),
        ],
        ids=["nan", "string", "no-entries", "one-row-without-entries"],
    )
    def test_a_bad_response_row_raises_value_error(self, rows, message):
        provider = RemoteEmbeddingProvider(make_cfg(), FakeTransport([(200, batch_body(rows, [0, 1]))]))
        with pytest.raises(ValueError, match=message):
            provider.embed_many(self.ITEMS)

    def test_ragged_rows_name_the_first_other_width(self):
        body = batch_body([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0, 0.0]], [0, 1, 2])
        provider = RemoteEmbeddingProvider(make_cfg(), FakeTransport([(200, body)]))
        with pytest.raises(EmbeddingDimensionMismatch, match="expected dim 2, response has 3"):
            provider.embed_many(self.ITEMS + [("p", "c")])

    def test_a_cached_row_of_another_width_sends_no_request(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        RemoteEmbeddingProvider(make_cfg(cache_dir=cache_dir), VectorTransport(dim=4)).embed_many(self.ITEMS)
        transport = FakeTransport([])
        provider = RemoteEmbeddingProvider(make_cfg(cache_dir=cache_dir, embedding_dim=3), transport)
        with pytest.raises(EmbeddingDimensionMismatch, match="expected dim 3, response has 4"):
            provider.embed_many(self.ITEMS + [("p", "new")])
        assert transport.requests == []

    def test_a_cached_nan_raises_value_error(self, tmp_path):
        cfg = make_cfg(cache_dir=str(tmp_path / "cache"))
        RemoteEmbeddingProvider(cfg, VectorTransport()).embed_many(self.ITEMS)
        path = sorted((tmp_path / "cache").rglob("*.json"))[0]
        path.write_text('{"embedding":[NaN,0.5,0.5,0.5]}')
        transport = FakeTransport([])
        with pytest.raises(ValueError, match="embedding contains non-finite entries"):
            RemoteEmbeddingProvider(cfg, transport).embed_many(self.ITEMS)
        assert transport.requests == []

    def test_concurrent_cache_writes_leave_whole_files(self, tmp_path):
        cfg = make_cfg(cache_dir=str(tmp_path / "cache"))
        transport = VectorTransport()
        provider = RemoteEmbeddingProvider(cfg, transport)
        items = [(f"prompt {i % 2}", f"doc {i}") for i in range(8)]
        start = threading.Barrier(4)

        def embed(_):
            start.wait()
            return provider.embed_many(items)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                blocks = list(pool.map(embed, range(4)))
        finally:
            sys.setswitchinterval(interval)
        expected = np.array([transport.vector(f"{p}\n\n{d}") for p, d in items])
        assert all(block.tobytes() == expected.tobytes() for block in blocks)
        files = list((tmp_path / "cache").rglob("*"))
        assert len([f for f in files if f.suffix == ".json"]) == 8
        assert [f for f in files if ".tmp-" in f.name] == []

        replay = FakeTransport([])
        assert RemoteEmbeddingProvider(cfg, replay).embed_many(items).tobytes() == expected.tobytes()
        assert replay.requests == []


class TestRemoteChat:
    def test_returns_assistant_message(self):
        body = json.dumps(
            {"choices": [{"message": {"role": "assistant", "content": "hello"}}]}
        ).encode()
        provider = RemoteChatProvider(make_cfg(), FakeTransport([(200, body)]))
        message = provider.next_message([ChatMessage("user", "hi")])
        assert message.role == "assistant"
        assert message.content == "hello"

    def test_history_is_forwarded(self):
        body = json.dumps(
            {"choices": [{"message": {"role": "assistant", "content": "x"}}]}
        ).encode()
        transport = FakeTransport([(200, body)])
        provider = RemoteChatProvider(make_cfg(), transport)
        provider.next_message([ChatMessage("system", "s"), ChatMessage("user", "u")])
        sent = transport.requests[0]["body"]["messages"]
        assert sent == [{"role": "system", "content": "s"}, {"role": "user", "content": "u"}]


class TestChatMessage:
    def test_rejects_unknown_role(self):
        with pytest.raises(ValueError):
            ChatMessage("oracle", "text")

    def test_rejects_empty_user_content(self):
        with pytest.raises(ValueError):
            ChatMessage("user", "")


class TestProviderConfig:
    def test_rejects_excessive_retries(self):
        with pytest.raises(ValueError):
            make_cfg(max_retries=6)

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            make_cfg(timeout=0)

    @pytest.mark.parametrize("timeout", [-1.0, float("inf"), float("nan")])
    def test_rejects_an_unusable_timeout(self, timeout):
        with pytest.raises(ValueError, match="timeout must be finite and positive"):
            make_cfg(timeout=timeout)

    @pytest.mark.parametrize("dim", [0, -3])
    def test_rejects_embedding_dim_below_one(self, dim):
        with pytest.raises(ValueError, match="embedding_dim must be >= 1"):
            make_cfg(embedding_dim=dim)
        assert make_cfg(embedding_dim=1).embedding_dim == 1

    def test_rejects_batch_size_below_one(self, tmp_path):
        with pytest.raises(ValueError):
            make_cfg(batch_size=0)
        ini = tmp_path / "aekit.ini"
        ini.write_text("[embedding]\nkind = remote\nendpoint_url = http://x\nmodel_name = m\nbatch_size = 0\n")
        with pytest.raises(ConfigError):
            load_pipeline_config(ini)
        ini.write_text("[embedding]\nkind = remote\nendpoint_url = http://x\nmodel_name = m\nbatch_size = 8\n")
        assert load_pipeline_config(ini).embedding.remote.batch_size == 8
        # Only embeddings are batched; the chat section has no such setting.
        ini.write_text("[chat]\nkind = remote\nendpoint_url = http://x\nbatch_size = 0\n")
        with pytest.raises(ConfigError):
            load_pipeline_config(ini)

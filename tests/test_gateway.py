import json

import numpy as np
import pytest

from aekit.gateway import (
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

    def test_in_process_cache_avoids_second_request(self):
        transport = FakeTransport([(200, embedding_body([0.5, 0.25]))])
        provider = RemoteEmbeddingProvider(make_cfg(), transport)
        first = provider.embed("sys", "doc")
        second = provider.embed("sys", "doc")
        assert np.array_equal(first, second)
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

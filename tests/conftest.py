import json

import numpy as np
import pytest

from aekit.gateway import ChatMessage, MockEmbeddingProvider, mock_embed


class FixedEmbeddingProvider:
    """Maps (system_prompt, document) to preset vectors; zeros otherwise."""

    def __init__(self, dim, table=None, default=None, provider_id="fixed-test"):
        self.dim = dim
        self.table = dict(table or {})
        self.default = np.zeros(dim) if default is None else np.asarray(default, dtype=float)
        self.provider_id = provider_id
        self.calls = []

    def embed(self, system_prompt, document):
        self.calls.append((system_prompt, document))
        key = (system_prompt, document)
        if key in self.table:
            return np.asarray(self.table[key], dtype=float)
        if document in self.table:
            return np.asarray(self.table[document], dtype=float)
        return self.default.copy()


class CountingMockProvider(MockEmbeddingProvider):
    """The mock provider, recording how many items each ``embed_many`` call embeds."""

    def __init__(self, seed=0, dim=64):
        super().__init__(seed, dim)
        self.calls = []

    def embed_many(self, items):
        self.calls.append(len(items))
        return super().embed_many(items)


class VectorTransport:
    """An embeddings endpoint answering string or array ``input``.

    Each input string gets a fixed pseudo-random vector; every request's
    inputs are recorded, one list per request.
    """

    def __init__(self, dim=4):
        self.dim = dim
        self.requests = []

    def vector(self, text):
        return mock_embed(0, self.dim, "transport", text)

    def __call__(self, url, headers, body, timeout):
        inputs = body["input"]
        inputs = [inputs] if isinstance(inputs, str) else list(inputs)
        self.requests.append(inputs)
        data = [
            {"index": i, "embedding": self.vector(text).tolist()}
            for i, text in enumerate(inputs)
        ]
        return 200, json.dumps({"data": data}).encode()


def document_encodings(monkeypatch, document, call):
    """How many ``canonical_dumps`` outputs in ``aekit.gateway`` hold ``document`` during ``call()``."""
    from aekit import gateway

    dumps = gateway.canonical_dumps
    outputs = []

    def counting_dumps(obj):
        outputs.append(dumps(obj))
        return outputs[-1]

    with monkeypatch.context() as patch:
        patch.setattr(gateway, "canonical_dumps", counting_dumps)
        call()
    return sum(document in text for text in outputs)


class CountingChat:
    """Wraps a chat provider and counts next_message calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def next_message(self, history):
        self.calls += 1
        return self.inner.next_message(history)


def run_message(command):
    return ChatMessage("assistant", f"ACTION: RUN\n```\n{command}\n```")


def done_message(summary="looks good"):
    return ChatMessage("assistant", f"ACTION: DONE {summary}")


def fail_message(reason="giving up"):
    return ChatMessage("assistant", f"ACTION: FAIL {reason}")


@pytest.fixture
def mock_corpus_path():
    from pathlib import Path

    return Path(__file__).parent / "data" / "mock_corpus"


@pytest.fixture
def prepare_scripts_path():
    from pathlib import Path

    return Path(__file__).parent / "data" / "prepare_scripts.json"

import json
import shutil

import numpy as np
import pytest

from aekit.cli import EXIT_OK, main as cli_main
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


# Passed to ``edited`` as the value, it removes the key instead.
DELETE = object()


def edited(doc, path, value):
    """A copy of the JSON document ``doc`` with the value at ``path`` (keys and indices) replaced."""
    root = json.loads(json.dumps(doc))
    node = root
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return root


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


def train_pipeline_assets(tmp_path, mock_corpus_path, prepare_scripts_path):
    """Acceptance criterion 7's setup under ``tmp_path``; returns ``(corpus, config_path)``.

    The mock corpus and chat scripts are copied, a pipeline config with
    every stage on (local sandboxes under ``boxes/``) is written, and its
    concept, cutoff, bank and model are trained through the CLI.
    """
    corpus = tmp_path / "corpus"
    shutil.copytree(mock_corpus_path, corpus)
    scripts = tmp_path / "scripts.json"
    shutil.copy(prepare_scripts_path, scripts)
    config_path = tmp_path / "pipeline.ini"
    config_path.write_text(
        "[embedding]\nkind = mock\nseed = 11\ndim = 48\n\n"
        f"[chat]\nkind = scripted\nscript = {scripts}\n\n"
        f"[rate]\nenabled = true\nconcept = {tmp_path / 'concept.json'}\n"
        f"cutoff = {tmp_path / 'cutoff.json'}\n\n"
        f"[assess]\nenabled = true\nbank = {tmp_path / 'bank.json'}\n"
        f"model = {tmp_path / 'model.json'}\n\n"
        "[prepare]\nenabled = true\nbackend = local\n"
        f"workdir = {tmp_path / 'boxes'}\nmax_iterations = 8\ncommand_timeout = 30\n\n"
        "[pipeline]\ngate = true\nseed = 0\n"
    )
    for cmd in (
        ["--config", str(config_path), "extract-concept", "--corpus", str(corpus),
         "--n-train", "3", "--out-file", str(tmp_path / "concept.json")],
        ["--config", str(config_path), "calibrate", "--corpus", str(corpus),
         "--concept", str(tmp_path / "concept.json"), "--n-train", "3",
         "--out-file", str(tmp_path / "cutoff.json")],
        ["--config", str(config_path), "assess-train", "--corpus", str(corpus),
         "--annotations", str(corpus / "ground_truth.csv"), "--n-train", "3",
         "--bank-out", str(tmp_path / "bank.json"),
         "--model-out", str(tmp_path / "model.json")],
    ):
        assert cli_main(cmd) == EXIT_OK
    return corpus, config_path

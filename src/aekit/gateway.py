"""Uniform access to embedding and chat capabilities.

Two kinds of providers exist: remote HTTP backends speaking the
OpenAI-compatible wire protocol (POST /v1/embeddings and
/v1/chat/completions, bearer-token auth), and deterministic in-process
mocks for offline runs and tests.  Everything downstream only sees the
two small capability interfaces, never model specifics.

Secrets are read from the environment variable named in the config and
never stored or serialized.  Remote embeddings are requested in batches,
each distinct item once per call.  With a cache directory configured they
are also cached on disk, keyed by a content digest, so probing the same
text twice costs one request; without one, no vector outlives its call.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol, Sequence

import numpy as np

from .jsonio import canonical_dumps
from .measure import as_embedding

CHAT_ROLES = ("system", "user", "assistant", "tool")

RETRY_BASE_DELAY = 1.0
RETRY_FACTOR = 2.0
DEFAULT_MAX_IN_FLIGHT = 4
DEFAULT_BATCH_SIZE = 32


class GatewayError(RuntimeError):
    """Base class for provider failures."""


class AuthFailure(GatewayError):
    """Authentication rejected or token missing; never retried."""


class RetryExhausted(GatewayError):
    """Transient failures persisted beyond the retry budget."""


class EmbeddingDimensionMismatch(GatewayError):
    """Provider returned a vector of unexpected length."""


class ScriptExhausted(GatewayError):
    """A scripted chat provider ran out of prepared messages."""


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in CHAT_ROLES:
            raise ValueError(f"unknown chat role: {self.role!r}")
        if self.role in ("user", "assistant") and not self.content:
            raise ValueError(f"{self.role} message content must be nonempty")

    def to_dict(self) -> dict:
        return {"role": self.role, "content": self.content}

    @classmethod
    def from_dict(cls, doc: dict) -> "ChatMessage":
        return cls(role=doc["role"], content=doc["content"])


@dataclass(frozen=True)
class ProviderConfig:
    """Connection settings for one remote backend.

    auth_token_env names the environment variable holding the secret; the
    secret itself is deliberately not a field so configs can be logged and
    serialized freely.
    """

    endpoint_url: str
    model_name: str
    auth_token_env: str = "AEKIT_API_TOKEN"
    timeout: float = 60.0
    max_retries: int = 3
    embedding_dim: int | None = None
    pooling: str = "mean"
    max_in_flight: int = DEFAULT_MAX_IN_FLIGHT
    cache_dir: str | None = None
    # Inputs per embeddings request; servers cap how many one may carry.
    batch_size: int = DEFAULT_BATCH_SIZE

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if not 0 <= self.max_retries <= 5:
            raise ValueError("max_retries must be between 0 and 5")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


class EmbeddingProvider(Protocol):
    """Embeds a document under a system prompt.

    Providers may also offer ``embed_many(items) -> (n, d)`` over
    ``(system_prompt, document)`` pairs; callers that embed a block use
    it when present and fall back to one ``embed`` per item otherwise.
    """

    provider_id: str

    def embed(self, system_prompt: str, document: str) -> np.ndarray: ...


class ChatProvider(Protocol):
    def next_message(self, history: Sequence[ChatMessage]) -> ChatMessage: ...


# --------------------------------------------------------------------------
# Deterministic mocks
# --------------------------------------------------------------------------

def mock_embed(seed: int, dim: int, system_prompt: str, document: str) -> np.ndarray:
    """Deterministic pseudo-embedding in [-1, 1]^dim.

    The vector is derived by hashing (seed, system_prompt, document) into
    an RNG seed, so equal inputs give bitwise-equal vectors on any
    platform and any change to either text changes the vector.
    """
    if dim <= 0:
        raise ValueError("dim must be positive")
    payload = canonical_dumps([seed, system_prompt, document]).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
    return rng.uniform(-1.0, 1.0, size=dim)


class MockEmbeddingProvider:
    """Offline stand-in for a hidden-state embedding backend."""

    def __init__(self, seed: int = 0, dim: int = 64):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.seed = seed
        self.dim = dim
        self.provider_id = f"mock-embed-{seed}-d{dim}"

    def embed(self, system_prompt: str, document: str) -> np.ndarray:
        return mock_embed(self.seed, self.dim, system_prompt, document)


class ScriptedChatProvider:
    """Replays a fixed list of assistant messages, ignoring history.

    Used to drive the preparation agent deterministically in tests and
    demos.  The cursor is lock-protected so a provider instance can be
    shared across workers.
    """

    def __init__(self, script: Sequence[ChatMessage | str]):
        self._script = [
            m if isinstance(m, ChatMessage) else ChatMessage("assistant", m)
            for m in script
        ]
        for m in self._script:
            if m.role != "assistant":
                raise ValueError("scripted messages must have role 'assistant'")
        self._cursor = 0
        self._lock = threading.Lock()

    def next_message(self, history: Sequence[ChatMessage]) -> ChatMessage:
        with self._lock:
            if self._cursor >= len(self._script):
                raise ScriptExhausted(
                    f"script exhausted after {len(self._script)} messages"
                )
            message = self._script[self._cursor]
            self._cursor += 1
            return message


# --------------------------------------------------------------------------
# Disk cache
# --------------------------------------------------------------------------

class ResponseCache:
    """Content-addressed response cache: cache/<provider>/<sha256>.json.

    Writes go through a temp file and an atomic rename so concurrent
    readers never observe a partial file.
    """

    def __init__(self, root: str | Path, provider_id: str):
        safe = provider_id.replace(os.sep, "_").replace(":", "_")
        self._dir = Path(root) / safe
        self._dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    def path_for(self, key: str) -> Path:
        return self._dir / f"{key}.json"

    def get(self, key: str) -> str | None:
        path = self.path_for(key)
        try:
            return path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None

    def put(self, key: str, text: str) -> None:
        path = self.path_for(key)
        with self._lock:
            tmp = path.with_suffix(f".tmp-{os.getpid()}-{threading.get_ident()}")
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, path)


# --------------------------------------------------------------------------
# Remote providers (OpenAI-compatible wire protocol)
# --------------------------------------------------------------------------

# transport(url, headers, body, timeout) -> (status_code, response_bytes)
Transport = Callable[[str, dict, dict, float], tuple[int, bytes]]


def _requests_transport(url: str, headers: dict, body: dict, timeout: float) -> tuple[int, bytes]:
    import requests

    resp = requests.post(url, headers=headers, json=body, timeout=timeout)
    return resp.status_code, resp.content


class _RemoteBase:
    def __init__(
        self,
        cfg: ProviderConfig,
        transport: Transport | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.cfg = cfg
        self._transport = transport or _requests_transport
        self._sleep = sleep
        self._slots = threading.Semaphore(cfg.max_in_flight)

    def _token(self) -> str:
        token = os.environ.get(self.cfg.auth_token_env)
        if not token:
            raise AuthFailure(
                f"no token found in environment variable {self.cfg.auth_token_env}"
            )
        return token

    def _request(self, path: str, body: dict) -> dict:
        """POST with exponential backoff on transient failures.

        Total requests never exceed 1 + max_retries.  Rate limiting (429)
        and 5xx responses are transient; auth rejections and other 4xx
        responses are terminal immediately.
        """
        url = self.cfg.endpoint_url.rstrip("/") + path
        headers = {"Authorization": f"Bearer {self._token()}"}
        last_error: str = ""
        for attempt in range(self.cfg.max_retries + 1):
            if attempt > 0:
                self._sleep(RETRY_BASE_DELAY * RETRY_FACTOR ** (attempt - 1))
            try:
                with self._slots:
                    status, payload = self._transport(
                        url, headers, body, self.cfg.timeout
                    )
            except Exception as exc:  # connection errors / timeouts are transient
                last_error = f"transport error: {exc}"
                continue
            if status in (401, 403):
                raise AuthFailure(f"endpoint rejected credentials (HTTP {status})")
            if 200 <= status < 300:
                try:
                    return json.loads(payload.decode("utf-8"))
                except (ValueError, UnicodeDecodeError) as exc:
                    raise GatewayError(f"malformed provider response: {exc}") from exc
            if status == 429 or status >= 500:
                last_error = f"HTTP {status}"
                continue
            raise GatewayError(f"provider returned HTTP {status}")
        raise RetryExhausted(
            f"gave up after {self.cfg.max_retries + 1} attempts ({last_error})"
        )


class RemoteEmbeddingProvider(_RemoteBase):
    """Embeddings from an OpenAI-compatible endpoint.

    The system prompt and document are rendered into one input string;
    the backend decides pooling, which is recorded in provider_id so that
    scores from different poolings are never silently mixed.  Items not
    in the disk cache (when ``cfg.cache_dir`` is set) are sent as an
    array ``input`` of at most ``cfg.batch_size`` strings per request.
    The provider keeps no vectors between calls.
    """

    def __init__(
        self,
        cfg: ProviderConfig,
        transport: Transport | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        super().__init__(cfg, transport, sleep)
        self.provider_id = f"{cfg.model_name}+{cfg.pooling}"
        self._disk = (
            ResponseCache(cfg.cache_dir, self.provider_id) if cfg.cache_dir else None
        )
        # All vectors from one configuration must share a dimension, even
        # when embedding_dim was left unconfigured.
        self._seen_dim: int | None = cfg.embedding_dim

    def _cache_keys(self, items: Sequence[tuple[str, str]]) -> list[str]:
        """The cache key of each item, in order.

        A key is the sha256 of the canonical JSON of ``{"document",
        "kind", "model", "pooling", "system_prompt"}``.  Sorted keys put
        the document first, so each distinct document is encoded and
        hashed once per call, and each item only hashes its prompt's
        suffix onto a copy of that state.
        """
        head = (
            ',"kind":"embeddings","model":' + canonical_dumps(self.cfg.model_name)
            + ',"pooling":' + canonical_dumps(self.cfg.pooling)
            + ',"system_prompt":'
        )
        prefixes = {}  # document -> sha256 state after its prefix
        keys = []
        for prompt, doc in items:
            prefix = prefixes.get(doc)
            if prefix is None:
                prefix = hashlib.sha256(b'{"document":')
                prefix.update(canonical_dumps(doc).encode("utf-8"))
                prefixes[doc] = prefix
            digest = prefix.copy()
            digest.update((head + canonical_dumps(prompt) + "}").encode("utf-8"))
            keys.append(digest.hexdigest())
        return keys

    def embed(self, system_prompt: str, document: str) -> np.ndarray:
        return self.embed_many([(system_prompt, document)])[0]

    def embed_many(self, items: Sequence[tuple[str, str]]) -> np.ndarray:
        """Embed ``(system_prompt, document)`` pairs as an (n, d) block, in order.

        Each distinct item is looked up in the disk cache, if any; the
        misses are requested once each, first occurrence first, in chunks
        of ``cfg.batch_size``.
        """
        if not items:
            return np.empty((0, self._seen_dim or 0))
        distinct = list(dict.fromkeys(items))
        vectors: dict[tuple[str, str], np.ndarray] = {}
        keys: dict[tuple[str, str], str] = {}
        if self._disk is not None:
            keys = dict(zip(distinct, self._cache_keys(distinct)))
            for item in distinct:
                hit = self._cache_get(keys[item])
                if hit is not None:
                    vectors[item] = hit
        misses = [item for item in distinct if item not in vectors]
        step = self.cfg.batch_size
        for start in range(0, len(misses), step):
            chunk = misses[start:start + step]
            for item, vec in zip(chunk, self._fetch([f"{p}\n\n{d}" for p, d in chunk])):
                if self._disk is not None:
                    self._cache_put(keys[item], vec)
                vectors[item] = vec
        return np.array([vectors[item] for item in items])

    def _fetch(self, inputs: list[str]) -> list[np.ndarray]:
        """One request for ``inputs``; rows placed by each response item's index."""
        doc = self._request("/v1/embeddings", {"model": self.cfg.model_name, "input": inputs})
        try:
            data = doc["data"]
            indexes = [item.get("index", pos) for pos, item in enumerate(data)]
            values = [item["embedding"] for item in data]
        except (KeyError, TypeError, AttributeError) as exc:
            raise GatewayError(f"embedding missing from response: {exc}") from exc
        if any(type(i) is not int for i in indexes) or sorted(indexes) != list(range(len(inputs))):
            raise GatewayError(
                f"response indexes {indexes} do not cover inputs 0..{len(inputs) - 1} once each"
            )
        by_index = dict(zip(indexes, values))
        return [self._checked(by_index[i]) for i in range(len(inputs))]

    def _checked(self, values) -> np.ndarray:
        """An embedding of the configuration's one dimension."""
        vec = as_embedding(values)
        if self._seen_dim is None:
            self._seen_dim = vec.size
        if vec.size != self._seen_dim:
            raise EmbeddingDimensionMismatch(
                f"expected dim {self._seen_dim}, response has {vec.size}"
            )
        return vec

    def _cache_get(self, key: str) -> np.ndarray | None:
        hit = self._disk.get(key)
        return None if hit is None else self._checked(json.loads(hit)["embedding"])

    def _cache_put(self, key: str, vec: np.ndarray) -> None:
        self._disk.put(key, canonical_dumps({"embedding": vec.tolist()}))


class RemoteChatProvider(_RemoteBase):
    """Chat completions from an OpenAI-compatible endpoint."""

    def __init__(
        self,
        cfg: ProviderConfig,
        transport: Transport | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        super().__init__(cfg, transport, sleep)
        self.provider_id = f"{cfg.model_name}+chat"

    def next_message(self, history: Sequence[ChatMessage]) -> ChatMessage:
        body = {
            "model": self.cfg.model_name,
            "messages": [m.to_dict() for m in history],
        }
        doc = self._request("/v1/chat/completions", body)
        try:
            content = doc["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise GatewayError(f"chat completion missing from response: {exc}") from exc
        if not content:
            raise GatewayError("provider returned an empty assistant message")
        return ChatMessage(role="assistant", content=content)

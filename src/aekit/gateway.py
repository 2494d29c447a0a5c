"""Uniform access to embedding and chat capabilities.

Two kinds of providers exist: remote HTTP backends speaking the
OpenAI-compatible wire protocol (POST /v1/embeddings and
/v1/chat/completions, bearer-token auth), and deterministic in-process
mocks for offline runs and tests.  Everything downstream only sees the
two small capability interfaces, never model specifics.

Secrets are read from the environment variable named in the config and
never stored or serialized.  Remote embeddings are requested in batches,
each distinct item once per call.  With a cache directory configured they
are also cached on disk as ``<cache_dir>/<provider_id>/<sha256>.json``,
named by a content digest, so probing the same text twice costs one
request; without one, no vector outlives its call.  Each response, and
each call's cache hits, is converted and checked as one block.
Both embedding providers JSON-encode each distinct document once per
``embed_many`` call, however many prompts it is embedded under.  The mock
also reuses the previous call's encodings, so the pitfall bank's
extractions over one probe set encode each probe once; it keeps no
vectors between calls either.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol, Sequence

import numpy as np

from .jsonio import Artifact, canonical_dumps
from .measure import _as_block

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
class ChatMessage(Artifact):
    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in CHAT_ROLES:
            raise ValueError(f"unknown chat role: {self.role!r}")
        if self.role in ("user", "assistant") and not self.content:
            raise ValueError(f"{self.role} message content must be nonempty")


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
    cache_dir: str | None = None
    # Inputs per embeddings request; servers cap how many one may carry.
    batch_size: int = DEFAULT_BATCH_SIZE

    def __post_init__(self) -> None:
        if not self.endpoint_url.startswith(("http://", "https://")):
            raise ValueError(f"endpoint_url must be an http(s) URL, got {self.endpoint_url!r}")
        if not self.model_name:
            raise ValueError("model_name must not be empty")
        if not 0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be finite and positive, got {self.timeout}")
        if self.embedding_dim is not None and self.embedding_dim < 1:
            raise ValueError(f"embedding_dim must be >= 1, got {self.embedding_dim}")
        if not 0 <= self.max_retries <= 5:
            raise ValueError("max_retries must be between 0 and 5")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


class EmbeddingProvider(Protocol):
    """Embeds a document under a system prompt.

    Providers may also offer ``embed_many(items) -> (n, d)`` over
    ``(system_prompt, document)`` pairs; callers that embed a block use
    it when present and fall back to one ``embed`` per item otherwise.
    Both providers here offer it and encode each distinct document once
    per call; the mock also reuses the previous call's encodings.
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
    return MockEmbeddingProvider(seed, dim).embed(system_prompt, document)


class MockEmbeddingProvider:
    """Offline stand-in for a hidden-state embedding backend."""

    def __init__(self, seed: int = 0, dim: int = 64):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.seed = seed
        self.dim = dim
        self.provider_id = f"mock-embed-{seed}-d{dim}"
        # The last call's prompt states and document encodings (see
        # embed_many); published whole, never mutated, so threads may share.
        self._last: tuple[dict, dict] = ({}, {})

    def embed(self, system_prompt: str, document: str) -> np.ndarray:
        return self.embed_many([(system_prompt, document)])[0]

    def embed_many(self, items: Sequence[tuple[str, str]]) -> np.ndarray:
        """Embed ``(system_prompt, document)`` pairs as an (n, dim) block, in order.

        Row i is ``uniform(-1, 1, dim)`` from a ``default_rng`` seeded by
        the sha256 of ``canonical_dumps([seed, prompt, document])``.  That
        text is the prompt's prefix ``[<seed>,<prompt>,`` followed by the
        document's ``<document>]``, so each item only feeds its document's
        bytes into a copy of its prompt's state.  Each distinct prompt is
        hashed and each distinct document encoded once per call, and the
        call reuses the previous call's prompt states and encodings.  It
        keeps only its own for the next call, so the provider holds one
        call's encodings at most and a document left out of a call is
        encoded again when it returns.
        """
        last_prefixes, last_suffixes = self._last
        prefixes = {}  # prompt -> sha256 state after "[<seed>,<prompt>,"
        suffixes = {}  # document -> UTF-8 of "<document>]"
        block = np.empty((len(items), self.dim))
        for i, (prompt, doc) in enumerate(items):
            prefix = prefixes.get(prompt)
            if prefix is None:
                prefix = prefixes[prompt] = last_prefixes.get(prompt) or hashlib.sha256(
                    f"[{canonical_dumps(self.seed)},{canonical_dumps(prompt)},".encode("utf-8")
                )
            suffix = suffixes.get(doc)
            if suffix is None:
                suffix = suffixes[doc] = (
                    last_suffixes.get(doc) or (canonical_dumps(doc) + "]").encode("utf-8")
                )
            digest = prefix.copy()
            digest.update(suffix)
            rng = np.random.default_rng(int.from_bytes(digest.digest()[:8], "big"))
            rng.random(out=block[i])
        self._last = (prefixes, suffixes)
        # uniform(-1, 1) draws u and returns -1 + 2u; 2u is exact, so
        # mapping the whole block at once gives the same bits, without
        # uniform's per-call overhead.
        block *= 2.0
        block -= 1.0
        return block


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
        self._slots = threading.Semaphore(DEFAULT_MAX_IN_FLIGHT)

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
        # The disk cache: <cache_dir>/<provider_id>/<sha256>.json.
        self._cache_dir: Path | None = None
        if cfg.cache_dir:
            safe = self.provider_id.replace(os.sep, "_").replace(":", "_")
            self._cache_dir = Path(cfg.cache_dir) / safe
            self._cache_dir.mkdir(parents=True, exist_ok=True)
        self._cache_lock = threading.Lock()
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

        Each distinct item is looked up in the disk cache, if any, and the
        call's hits are checked as one block; the misses are requested once
        each, first occurrence first, in chunks of ``cfg.batch_size``.
        """
        if not items:
            return np.empty((0, self._seen_dim or 0))
        distinct = list(dict.fromkeys(items))
        vectors: dict[tuple[str, str], np.ndarray] = {}
        keys: dict[tuple[str, str], str] = {}
        if self._cache_dir is not None:
            keys = dict(zip(distinct, self._cache_keys(distinct)))
            hits = {item: row for item in distinct if (row := self._cache_get(keys[item])) is not None}
            if hits:
                vectors = dict(zip(hits, self._block(list(hits.values()))))
        misses = [item for item in distinct if item not in vectors]
        step = self.cfg.batch_size
        for start in range(0, len(misses), step):
            chunk = misses[start:start + step]
            for item, vec in zip(chunk, self._fetch([f"{p}\n\n{d}" for p, d in chunk])):
                if self._cache_dir is not None:
                    self._cache_put(keys[item], vec)
                vectors[item] = vec
        return np.array([vectors[item] for item in items])

    def _fetch(self, inputs: list[str]) -> np.ndarray:
        """One request for ``inputs``: its rows, placed by each response item's index, as one block."""
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
        return self._block([by_index[i] for i in range(len(inputs))])

    def _block(self, rows: list) -> np.ndarray:
        """``rows`` as one (k, d) float64 block, converted and checked once.

        The rows must be finite and nonempty (``measure._as_block``) and of
        the configuration's one width: ``cfg.embedding_dim``, else the
        first width this provider saw.
        """
        try:
            block = _as_block(np.asarray(rows, dtype=np.float64))
        except ValueError:
            if len(rows) > 1:  # not one block: the first row that fails alone names the fault
                for row in rows:
                    self._block([row])
            raise
        if self._seen_dim is None:
            self._seen_dim = block.shape[1]
        if block.shape[1] != self._seen_dim:
            raise EmbeddingDimensionMismatch(f"expected dim {self._seen_dim}, response has {block.shape[1]}")
        return block

    def _cache_get(self, key: str) -> list | None:
        """The row cached under ``key``, as read, or None."""
        try:
            text = (self._cache_dir / f"{key}.json").read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        return json.loads(text)["embedding"]

    def _cache_put(self, key: str, row: np.ndarray) -> None:
        """Cache ``row`` under ``key`` via a temp file and an atomic rename: no partial reads."""
        path = self._cache_dir / f"{key}.json"
        with self._cache_lock:
            tmp = path.with_suffix(f".tmp-{os.getpid()}-{threading.get_ident()}")
            tmp.write_text(canonical_dumps({"embedding": row.tolist()}), encoding="utf-8")
            os.replace(tmp, path)


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

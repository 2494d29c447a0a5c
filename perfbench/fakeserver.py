"""A fake OpenAI-compatible endpoint, as an ``aekit.gateway.Transport``.

It serves ``/v1/embeddings`` and ``/v1/chat/completions`` in process,
with injected latency and no network.  Like an HTTP client it turns the
request body into bytes and parses it back, so request sizes are real,
and it counts requests, items and chat request bytes.

Vectors come from the server's own hash -> RNG (blake2b keyed by the
seed, Philox, standard normal), independent of ``aekit.gateway.mock_embed``.
:meth:`FakeServer.prerender` renders responses ahead of time so the
server's own CPU cost stays small next to the client's.

Chat replies are chosen statelessly from the request: the paper id comes
from the ``Artifact source:`` line of the history and the turn from the
number of assistant messages, so one server can serve many threads.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from dataclasses import dataclass
from typing import Iterable
from urllib.parse import urlsplit

import numpy as np

EMBED_PATH = "/v1/embeddings"
CHAT_PATH = "/v1/chat/completions"
# Injected latency: per embedding request, per input item, per chat turn.
REQUEST_LATENCY = 0.002
ITEM_LATENCY = 0.0002
CHAT_LATENCY = 0.010
MAX_IN_SERVICE = 4

_SOURCE_RE = re.compile(r"^Artifact source: \S*/(\S+)$", re.MULTILINE)


@dataclass
class ServerCounters:
    embed_requests: int = 0
    embed_items: int = 0
    chat_requests: int = 0
    chat_request_bytes: int = 0

    def __add__(self, other: "ServerCounters") -> "ServerCounters":
        return ServerCounters(**{k: v + getattr(other, k) for k, v in vars(self).items()})

    def __sub__(self, other: "ServerCounters") -> "ServerCounters":
        return ServerCounters(**{k: v - getattr(other, k) for k, v in vars(self).items()})


class FakeServer:
    """Callable as ``transport(url, headers, body, timeout) -> (status, bytes)``."""

    def __init__(self, seed: int, dim: int, token: str):
        self.dim = dim
        self._key = hashlib.sha256(f"fakeserver:{seed}".encode()).digest()[:32]
        self._auth = f"Bearer {token}"
        self._slots = threading.Semaphore(MAX_IN_SERVICE)
        self._thread = threading.local()
        self._lock = threading.Lock()
        self._counters = ServerCounters()
        self._vectors: dict[bytes, bytes] = {}
        self._replies: dict[tuple[str, int], bytes] = {}

    # -- vectors -----------------------------------------------------------

    def _digest(self, text: str) -> bytes:
        return hashlib.blake2b(text.encode("utf-8"), key=self._key, digest_size=16).digest()

    def vector(self, text: str) -> np.ndarray:
        """The embedding this server returns for one input string."""
        seed = int.from_bytes(self._digest(text), "little")
        return np.random.Generator(np.random.Philox(seed)).standard_normal(self.dim)

    def prerender(self, texts: Iterable[str]) -> None:
        for text in texts:
            self._vectors[self._digest(text)] = json.dumps(self.vector(text).tolist()).encode()

    def _rendered(self, text: str) -> bytes:
        rendered = self._vectors.get(self._digest(text))
        return rendered if rendered is not None else json.dumps(self.vector(text).tolist()).encode()

    def script_chat(self, scripts: dict[str, list[str]]) -> None:
        """Pre-render the assistant replies: paper id -> reply per turn."""
        for paper_id, replies in scripts.items():
            for turn, content in enumerate(replies):
                self._replies[paper_id, turn] = _chat_response(content)

    # -- transport -----------------------------------------------------------

    def counters(self) -> ServerCounters:
        with self._lock:
            return ServerCounters(**vars(self._counters))

    def __call__(self, url: str, headers: dict, body: dict, timeout: float) -> tuple[int, bytes]:
        raw = json.dumps(body).encode("utf-8")
        request = json.loads(raw)
        if headers.get("Authorization") != self._auth:
            return 401, b'{"error":{"message":"invalid token"}}'
        path = urlsplit(url).path
        if path == EMBED_PATH:
            status, payload, delay = self._embeddings(request)
        elif path == CHAT_PATH:
            status, payload, delay = self._chat(request, len(raw))
        else:
            return 404, b'{"error":{"message":"unknown path"}}'
        self._wait(delay)
        return status, payload

    def _wait(self, delay: float) -> None:
        """Hold a service slot for `delay`, less what this thread overslept before.

        A sleep ends late by the host's timer and wake-up latency and by
        the wait for the interpreter lock.  Carrying that lateness into
        the calling thread's next wait keeps each thread's total wait at
        the sum of the injected latencies on any host.
        """
        wait = delay - getattr(self._thread, "late", 0.0)
        if wait <= 0:
            self._thread.late = -wait
            return
        with self._slots:
            t0 = time.perf_counter()
            time.sleep(wait)
            self._thread.late = time.perf_counter() - t0 - wait

    def _embeddings(self, request: dict) -> tuple[int, bytes, float]:
        inputs = request["input"]
        if isinstance(inputs, str):
            inputs = [inputs]
        data = b",".join(
            b'{"object":"embedding","index":%d,"embedding":%s}' % (i, self._rendered(text))
            for i, text in enumerate(inputs)
        )
        payload = b'{"object":"list","model":%s,"data":[%s]}' % (
            json.dumps(request["model"]).encode(), data)
        with self._lock:
            self._counters.embed_requests += 1
            self._counters.embed_items += len(inputs)
        return 200, payload, REQUEST_LATENCY + ITEM_LATENCY * len(inputs)

    def _chat(self, request: dict, n_bytes: int) -> tuple[int, bytes, float]:
        messages = request["messages"]
        paper_id = None
        for m in messages:
            if m["role"] == "user":
                match = _SOURCE_RE.search(m["content"])
                if match:
                    paper_id = match.group(1)
                    break
        turn = sum(1 for m in messages if m["role"] == "assistant")
        with self._lock:
            self._counters.chat_requests += 1
            self._counters.chat_request_bytes += n_bytes
        reply = self._replies.get((paper_id, turn))
        if reply is None:
            return 400, b'{"error":{"message":"no scripted reply"}}', CHAT_LATENCY
        return 200, reply, CHAT_LATENCY


def _chat_response(content: str) -> bytes:
    return json.dumps({
        "object": "chat.completion",
        "choices": [{"index": 0, "finish_reason": "stop",
                     "message": {"role": "assistant", "content": content}}],
    }).encode("utf-8")

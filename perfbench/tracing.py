"""Traced runs: spans around the calls into each aekit module, from outside.

Only the traced ops of a ``--trace 1`` run use anything in this file; the
timed runs pass the real library objects.  Three kinds of wrapper record
spans (name, start, end, parent, op id) into an in-memory
:class:`SpanStore`:

* :meth:`SpanStore.proxy` wraps an object the benchmark passes in (an
  embedding or chat provider) or one a patched factory returns (a
  sandbox), and times every public method, so a method added later is
  measured too;
* :meth:`SpanStore.wrap` wraps a callable, such as the fake transport;
* :func:`patched` replaces module attributes that reference public
  functions (``aekit.measure.first_principal_component`` and the like)
  for the duration of one op.

A span's parent is the innermost open span on its thread or, for spans
opened on a worker thread with nothing open, the innermost span open on
the main thread (the pipeline fans papers out to a thread pool).  Self
time is a span's duration minus the part of its interval that its child
spans cover.  A metric whose patch target no longer exists is reported
as missing (``None``), never as 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import statistics
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

# Attributes for a span, computed from (method or function name, result, args).
Annotate = Callable[[str, object, tuple], dict]


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanStore:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self) -> tuple[list[int], int | None, int]:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        sid = next(self._ids)
        stack.append(sid)
        return stack, parent, sid

    def wrap(self, name: str, fn: Callable, annotate: Annotate | None = None) -> Callable:
        method = name.rsplit(".", 1)[-1]

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack, parent, sid = self._open()
            attrs: dict = {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    attrs = annotate(method, result, args)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, self.op, attrs))

        return timed

    def proxy(self, prefix: str, target: object, annotate: Annotate | None = None) -> "TimedProxy":
        return TimedProxy(self, prefix, target, annotate)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


class TimedProxy:
    """Times every public method of the target as span ``<prefix>.<method>``."""

    def __init__(self, store: SpanStore, prefix: str, target: object, annotate: Annotate | None):
        self._store = store
        self._prefix = prefix
        self._target = target
        self._annotate = annotate
        self._timed: dict[str, Callable] = {}

    def __getattr__(self, name: str):
        value = getattr(self._target, name)
        if name.startswith("_") or not callable(value):
            return value
        if name not in self._timed:
            self._timed[name] = self._store.wrap(f"{self._prefix}.{name}", value, self._annotate)
        return self._timed[name]


# --------------------------------------------------------------------------
# Module patches
# --------------------------------------------------------------------------

def _embed_items(method: str, result, args: tuple) -> dict:
    """Items in one provider call: the length of a list argument, else 1."""
    lists = [len(a) for a in args if isinstance(a, (list, tuple))]
    return {"items": sum(lists) if lists else 1}


def _chat_attrs(method: str, result, args: tuple) -> dict:
    content = getattr(result, "content", None)
    return {} if content is None else {"reply": content}


def _sandbox_attrs(method: str, result, args: tuple) -> dict:
    if method == "run":
        return {"timed_out": bool(getattr(result, "timed_out", False))}
    if method == "snapshot" and isinstance(result, str) and os.path.isfile(result):
        return {"bytes": os.path.getsize(result)}
    return {}


def _fit_attrs(name: str, model, args: tuple) -> dict:
    statuses = [c.status for c in model.classifiers]
    return {"trained": statuses.count("trained"), "skipped": len(statuses) - statuses.count("trained")}


def _prepare_attrs(name: str, outcome, args: tuple) -> dict:
    return {"status": outcome.status, "steps": len(outcome.transcript.steps)}


def _pipeline_attrs(name: str, result, args: tuple) -> dict:
    config = args[0]
    rated = [r for r in result.reports if r.rate is not None]
    gated = 0
    if config.prepare.enabled and config.gate:
        gated = sum(1 for r in rated if r.rate.label == "not_runs" and r.prepare is None)
    return {"rated": len(rated), "gated": gated}


def provider_proxy(store: SpanStore, provider) -> TimedProxy:
    """Embedding provider proxy; spans are gateway.mock.* or gateway.embed.*."""
    from aekit import gateway

    mock = isinstance(provider, getattr(gateway, "MockEmbeddingProvider", ()))
    return store.proxy("gateway.mock" if mock else "gateway.embed", provider, _embed_items)


def chat_proxy(store: SpanStore, chat) -> TimedProxy:
    return store.proxy("gateway.chat", chat, _chat_attrs)


def _sandbox_proxy(store: SpanStore, sandbox) -> TimedProxy:
    return store.proxy("sandbox", sandbox, _sandbox_attrs)


@dataclass(frozen=True)
class Patch:
    """Replace ``module.attr`` by a timed wrapper that records span ``span``."""

    module: str
    attr: str
    span: str
    annotate: Annotate | None = None
    # Wraps the returned object, for factories such as open_sandbox.
    result_proxy: Callable | None = None

    @property
    def target(self) -> str:
        return f"{self.module}.{self.attr}"


PATCHES = (
    Patch("aekit.cli", "main", "cli.main"),
    Patch("aekit.cli", "load_corpus", "corpus.load"),
    Patch("aekit.cli", "load_ground_truth", "corpus.load.ground_truth"),
    Patch("aekit.cli", "build_embedding_provider", "gateway.build", result_proxy=provider_proxy),
    Patch("aekit.cli", "extract_concept_vector", "measure.extract"),
    Patch("aekit.cli", "calibrate_cutoff", "rate.calibrate"),
    Patch("aekit.cli", "build_pitfall_bank", "assess.bank"),
    Patch("aekit.cli", "featurize", "assess.featurize"),
    Patch("aekit.cli", "train_assessor", "assess.fit", annotate=_fit_attrs),
    Patch("aekit.cli", "write_text", "report.write"),
    Patch("aekit.assess", "extract_concept_vector", "measure.extract"),
    Patch("aekit.measure", "compute_deltas", "measure.deltas"),
    Patch("aekit.measure", "first_principal_component", "measure.pca"),
    Patch("aekit.corpus", "load_corpus", "corpus.load"),
    Patch("aekit.pipeline", "run_pipeline", "pipeline.run", annotate=_pipeline_attrs),
    Patch("aekit.pipeline", "rate_document", "rate.document"),
    Patch("aekit.pipeline", "assess_document", "assess.document"),
    Patch("aekit.pipeline", "run_prepare_loop", "prepare.loop", annotate=_prepare_attrs),
    Patch("aekit.pipeline", "render_report", "report.render"),
    Patch("aekit.jsonio", "write_text", "report.write"),
    Patch("aekit.prepare", "open_sandbox", "sandbox.open", result_proxy=_sandbox_proxy),
)


# Library functions the per-layer metrics call besides the patch targets.
CALLED = ("aekit.prepare.parse_action", "aekit.prepare.command_denied")


def missing_targets() -> set[str]:
    """Patch targets and called functions that the library no longer defines."""
    missing = set()
    for target in [p.target for p in PATCHES] + list(CALLED):
        module, attr = target.rsplit(".", 1)
        if not hasattr(importlib.import_module(module), attr):
            missing.add(target)
    return missing


@contextlib.contextmanager
def patched(store: SpanStore):
    """Apply every patch whose target exists; restore them all on exit."""
    saved = []
    try:
        for p in PATCHES:
            module = importlib.import_module(p.module)
            original = getattr(module, p.attr, None)
            if original is None:
                continue
            fn = original
            if p.result_proxy is not None:
                def fn(*args, _orig=original, _proxy=p.result_proxy, **kwargs):
                    return _proxy(store, _orig(*args, **kwargs))

            saved.append((module, p.attr, original))
            setattr(module, p.attr, store.wrap(p.span, fn, p.annotate))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# --------------------------------------------------------------------------
# Per-layer metrics
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    # Patch targets the metric is computed from; if one is gone the
    # metric is missing.
    needs: tuple[str, ...] = ()


_CLI = tuple(p.target for p in PATCHES if p.module in ("aekit.cli", "aekit.assess", "aekit.measure"))
_PIPELINE = ("aekit.pipeline.run_pipeline", "aekit.pipeline.rate_document",
             "aekit.pipeline.assess_document", "aekit.pipeline.run_prepare_loop")
_LOOP = ("aekit.pipeline.run_prepare_loop", "aekit.prepare.open_sandbox")
_SANDBOX = ("aekit.prepare.open_sandbox",)

PER_LAYER = (
    LayerMetric("measure.pca_s", "s", ("aekit.measure.first_principal_component",)),
    LayerMetric("measure.pca_calls", "count", ("aekit.measure.first_principal_component",)),
    LayerMetric("gateway.mock_embed_s", "s", ("aekit.cli.build_embedding_provider",)),
    LayerMetric("gateway.embed_items", "count"),
    LayerMetric("gateway.http_requests", "count"),
    LayerMetric("gateway.items_per_request", "items/request"),
    LayerMetric("gateway.server_wait_s", "s"),
    LayerMetric("gateway.self_ms_per_item", "ms"),
    LayerMetric("gateway.cache_hit_ratio", "ratio"),
    LayerMetric("gateway.chat_requests", "count"),
    LayerMetric("gateway.chat_request_kb", "KiB"),
    LayerMetric("http_requests_per_paper", "requests/paper"),
    LayerMetric("rate.calibrate_s", "s", ("aekit.cli.calibrate_cutoff",)),
    LayerMetric("rate.gated_out_ratio", "ratio", ("aekit.pipeline.run_pipeline",)),
    LayerMetric("assess.fit_s", "s", ("aekit.cli.train_assessor",)),
    LayerMetric("assess.classifiers_trained", "count", ("aekit.cli.train_assessor",)),
    LayerMetric("assess.classifiers_skipped", "count", ("aekit.cli.train_assessor",)),
    LayerMetric("sandbox.commands", "count", _SANDBOX),
    LayerMetric("sandbox.run_ms_p50", "ms", _SANDBOX),
    LayerMetric("sandbox.run_ms_p90", "ms", _SANDBOX),
    LayerMetric("sandbox.timeouts", "count", _SANDBOX),
    LayerMetric("sandbox.open_close_ms", "ms", _SANDBOX),
    LayerMetric("sandbox.snapshot_ms", "ms", _SANDBOX),
    LayerMetric("sandbox.snapshot_kb", "KiB", _SANDBOX),
    LayerMetric("prepare.steps", "count", ("aekit.pipeline.run_prepare_loop",)),
    LayerMetric("prepare.chat_turns", "count"),
    LayerMetric("prepare.reprompts", "count", CALLED),
    LayerMetric("prepare.denied", "count", CALLED),
    LayerMetric("prepare.success_ratio", "ratio", ("aekit.pipeline.run_prepare_loop",)),
    LayerMetric("prepare.self_s", "s", _LOOP),
    LayerMetric("pipeline.run_s", "s", _PIPELINE),
    LayerMetric("pipeline.self_s", "s", _PIPELINE),
    LayerMetric("corpus.load_s", "s", ("aekit.corpus.load_corpus", "aekit.cli.load_corpus")),
    LayerMetric("cli.self_s", "s", _CLI),
    LayerMetric("report.render_s", "s",
                ("aekit.pipeline.render_report", "aekit.jsonio.write_text", "aekit.cli.write_text")),
    LayerMetric("trace.overhead_ratio", "ratio"),
)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    return {
        s.sid: s.duration - _union_length([
            (max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.sid, ())
            if c.end > s.start and c.start < s.end
        ])
        for s in spans
    }


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(
    spans: list[Span],
    n_ops: int,
    papers_per_op: int,
    server,
    classify: Callable[[str], tuple[bool, bool]],
    missing: set[str],
) -> dict[str, float | None]:
    """Per-op per-layer metrics of the traced ops (overhead ratio excluded).

    ``server`` holds the fake server's counters summed over the traced
    ops; ``classify(reply) -> (parseable, denied)`` labels chat replies.
    Times and counts are totals per op; percentiles pool every traced op.
    """
    own = self_times(spans)

    def named(prefix: str) -> list[Span]:
        return [s for s in spans if s.name == prefix or s.name.startswith(prefix + ".")]

    def per_op(value: float) -> float:
        return value / n_ops

    def total(prefix: str) -> float:
        return per_op(sum(s.duration for s in named(prefix)))

    def count(prefix: str) -> float:
        return per_op(len(named(prefix)))

    def self_total(prefix: str) -> float:
        return per_op(sum(own[s.sid] for s in named(prefix)))

    def attr_sum(prefix: str, key: str) -> float:
        return per_op(sum(s.attrs.get(key, 0) for s in named(prefix)))

    embed_items = attr_sum("gateway.embed", "items")
    loops = named("prepare.loop")
    runs_ms = [s.duration * 1000 for s in named("sandbox.run")]
    opened = len(named("sandbox.open"))
    snaps = named("sandbox.snapshot")
    pipelines = named("pipeline.run")
    rated = sum(s.attrs.get("rated", 0) for s in pipelines)
    replies = [s.attrs["reply"] for s in named("gateway.chat") if "reply" in s.attrs]
    labels = [] if missing.intersection(CALLED) else [classify(r) for r in replies]
    requests = server.embed_requests + server.chat_requests

    values: dict[str, float] = {
        "measure.pca_s": total("measure.pca"),
        "measure.pca_calls": count("measure.pca"),
        "gateway.mock_embed_s": total("gateway.mock"),
        "gateway.embed_items": embed_items,
        "gateway.http_requests": per_op(requests),
        "gateway.items_per_request": server.embed_items / server.embed_requests if server.embed_requests else 0.0,
        "gateway.server_wait_s": total("gateway.transport"),
        "gateway.self_ms_per_item": 1000 * self_total("gateway.embed") / embed_items if embed_items else 0.0,
        "gateway.cache_hit_ratio": 1 - per_op(server.embed_items) / embed_items if embed_items else 0.0,
        "gateway.chat_requests": per_op(server.chat_requests),
        "gateway.chat_request_kb": per_op(server.chat_request_bytes) / 1024,
        "http_requests_per_paper": per_op(requests) / papers_per_op,
        "rate.calibrate_s": total("rate.calibrate"),
        "rate.gated_out_ratio": sum(s.attrs.get("gated", 0) for s in pipelines) / rated if rated else 0.0,
        "assess.fit_s": total("assess.fit"),
        "assess.classifiers_trained": attr_sum("assess.fit", "trained"),
        "assess.classifiers_skipped": attr_sum("assess.fit", "skipped"),
        "sandbox.commands": per_op(len(runs_ms)),
        "sandbox.run_ms_p50": _percentile(runs_ms, 50),
        "sandbox.run_ms_p90": _percentile(runs_ms, 90),
        "sandbox.timeouts": attr_sum("sandbox.run", "timed_out"),
        "sandbox.open_close_ms": 1000 * (total("sandbox.open") + total("sandbox.close")) * n_ops / opened
        if opened else 0.0,
        "sandbox.snapshot_ms": 1000 * total("sandbox.snapshot") * n_ops / len(snaps) if snaps else 0.0,
        "sandbox.snapshot_kb": sum(s.attrs.get("bytes", 0) for s in snaps) / 1024 / len(snaps) if snaps else 0.0,
        "prepare.steps": attr_sum("prepare.loop", "steps"),
        "prepare.chat_turns": count("gateway.chat"),
        "prepare.reprompts": per_op(sum(1 for parseable, _ in labels if not parseable)),
        "prepare.denied": per_op(sum(1 for _, denied in labels if denied)),
        "prepare.success_ratio": sum(1 for s in loops if s.attrs.get("status") == "success") / len(loops)
        if loops else 0.0,
        "prepare.self_s": self_total("prepare.loop"),
        "pipeline.run_s": total("pipeline.run"),
        "pipeline.self_s": self_total("pipeline.run"),
        "corpus.load_s": total("corpus.load"),
        "cli.self_s": self_total("cli.main"),
        "report.render_s": total("report.render") + total("report.write"),
    }
    return {
        m.name: None if missing.intersection(m.needs) else values[m.name]
        for m in PER_LAYER
        if m.name in values
    }

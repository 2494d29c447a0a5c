"""The benchmark's three workloads: ``train``, ``score`` and ``prepare``.

Each workload has a timed ``setup`` (corpus generation, training the
artifacts it consumes, pre-rendering the fake server's responses,
warm-up), an untimed ``prepare_checks`` that computes oracles once, an
``op`` (the unit that is timed) and a ``check`` run on every op's
outputs.  Ops call the library's public API in this process; remote
providers talk to :class:`fakeserver.FakeServer`, never to a network.

* ``train``: the committee's one-off training through ``aekit.cli.main``
  (extract-concept, calibrate, assess-train) with mock embeddings.  The
  numeric core (PCA, cutoff calibration, logistic fits) does the work.
* ``score``: load_corpus, run_pipeline (rate and assess, no prepare),
  render_report and the two report files, with a fresh remote embedding
  provider per op.  The gateway and the pipeline do the work.
* ``prepare``: a small batch through run_pipeline with the rate gate on
  and the local-process sandbox, chat from scripted replies on the fake
  server.  Sandbox start-up and the agent loop do the work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import tarfile
from pathlib import Path

import numpy as np

from aekit import cli, corpus, jsonio, pipeline
from aekit.assess import build_pitfall_bank, featurize, load_pitfall_specs, train_assessor
from aekit.gateway import ChatMessage, ProviderConfig, RemoteChatProvider, RemoteEmbeddingProvider, mock_embed
from aekit.measure import ProbeSet, extract_concept_vector, project_score
from aekit.pipeline import AssessSettings, PipelineConfig, PrepareSettings, RateSettings
from aekit.prepare import PrepareLimits
from aekit.rate import RateInput, calibrate_cutoff, compose_rate_document, load_default_rate_prompts
from aekit.sandbox import SandboxSpec

import corpusgen
import tracing
from fakeserver import FakeServer, ServerCounters
from tracing import SpanStore

TOKEN_ENV = "AEKIT_API_TOKEN"
# Never resolved: the fake server is the transport, in process.
ENDPOINT = "http://fake-openai.invalid"
EMBED_MODEL = "bench-embed"
CHAT_MODEL = "bench-chat"
SCORE_TOL = 1e-9


def dummy_token(seed: int) -> str:
    return "pb-dummy-" + hashlib.sha256(f"token:{seed}".encode()).hexdigest()[:24]


def wire_input(system_prompt: str, document: str) -> str:
    """The input string RemoteEmbeddingProvider sends for one embed call."""
    return f"{system_prompt}\n\n{document}"


class DirectProvider:
    """The fake server's vectors without a transport, for training in set-up."""

    def __init__(self, server: FakeServer):
        self.server = server
        self.provider_id = f"{EMBED_MODEL}+mean"

    def embed(self, system_prompt: str, document: str) -> np.ndarray:
        return self.server.vector(wire_input(system_prompt, document))


def _seeded_split(ids: list[str], n_train: int, seed: int) -> list[str]:
    """The corpus module's documented split: shuffle sorted ids, take a prefix."""
    ids = sorted(ids)
    random.Random(seed).shuffle(ids)
    return ids[:n_train]


def _rate_doc(p: corpusgen.Paper) -> str:
    return compose_rate_document(RateInput(p.paper_id, p.paper_text, p.readme_text))


def _pitfall_label(value: str | None) -> int | None:
    return {"present": 1, "partial": 1, "absent": 0}.get(value or "")


def _eigh_direction(deltas: np.ndarray) -> np.ndarray:
    """Oracle leading principal component via eigh on the Gram matrix."""
    centered = deltas - deltas.mean(axis=0)
    _, vecs = np.linalg.eigh(centered @ centered.T)
    direction = centered.T @ vecs[:, -1]
    return direction / np.linalg.norm(direction)


def _oracle_cutoff(scores: list[float], runs: list[bool]) -> tuple[float, float, float]:
    """Exhaustive enumeration: (recall, precision, threshold), lexicographic max."""
    s = np.asarray(scores)
    pos = np.asarray(runs)
    best = None
    for t in sorted(set(scores)) + [min(scores) - 1.0]:
        picked = s >= t
        tp = int(np.sum(picked & pos))
        fp = int(np.sum(picked & ~pos))
        key = (tp / int(pos.sum()), tp / (tp + fp) if tp + fp else 0.0, t)
        best = key if best is None or key > best else best
    return best


def _files_containing(root: Path, needle: bytes) -> list[str]:
    return [str(p.relative_to(root)) for p in sorted(root.rglob("*"))
            if p.is_file() and needle in p.read_bytes()]


class Workload:
    name = ""
    papers_per_op = 0

    def __init__(self, seed: int, token: str):
        self.seed = seed
        self.token = token
        self.server: FakeServer | None = None

    def setup(self, root: Path) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Oracles computed once per run, outside every timed region."""

    def op(self, out: Path, store: SpanStore | None):
        raise NotImplementedError

    def check(self, out: Path, result) -> tuple[int, list[str]]:
        """(papers failed, problems) for one op's outputs."""
        raise NotImplementedError

    def counters(self) -> ServerCounters:
        return self.server.counters() if self.server is not None else ServerCounters()

    def _token_leaks(self, out: Path) -> list[str]:
        return [f"token value in {f}" for f in _files_containing(out, self.token.encode())]


# --------------------------------------------------------------------------
# train
# --------------------------------------------------------------------------

class Train(Workload):
    name = "train"
    N_PAPERS = 400
    N_TRAIN = 300
    DIM = 1024
    # Short papers: mock_embed JSON-encodes the whole text, and at tens of
    # KB that encoding, not the numeric core, would dominate the op.
    PAPER_KB = (2, 8)
    papers_per_op = N_TRAIN

    def setup(self, root: Path) -> None:
        self.papers = corpusgen.make_papers(self.seed, self.N_PAPERS, paper_kb=self.PAPER_KB)
        self.corpus = root / "corpus"
        corpusgen.write_corpus(self.corpus, self.papers)
        self.config = root / "aekit.ini"
        self.config.write_text(
            f"[embedding]\nkind = mock\nseed = {self.seed}\ndim = {self.DIM}\n\n"
            f"[pipeline]\nseed = {self.seed}\n",
            encoding="utf-8",
        )
        # Warm-up: one op inside set-up, so that first-call costs (file
        # cache, allocator growth) land here rather than in the first
        # measured op.  It also keeps the corpus writes, whose cost swings
        # with the disk's state, from being most of setup_s.
        codes = self.op(root, None)
        if any(codes):
            raise RuntimeError(f"warm-up op exited {codes}")

    def _embed(self, prompt: str, docs: list[str]) -> np.ndarray:
        return np.vstack([mock_embed(self.seed, self.DIM, prompt, d) for d in docs])

    def _concept_oracle(self, prompts, docs: list[str]) -> np.ndarray:
        return _eigh_direction(np.abs(self._embed(prompts.positive, docs) - self._embed(prompts.negative, docs)))

    def prepare_checks(self) -> None:
        by_id = {p.paper_id: p for p in self.papers}
        rate_ids = _seeded_split(
            [p.paper_id for p in self.papers if p.code_available and p.readme_text], self.N_TRAIN, self.seed)
        rate_docs = [_rate_doc(by_id[i]) for i in rate_ids]
        prompts = load_default_rate_prompts()
        self.rate_direction = self._concept_oracle(prompts, rate_docs)
        self.neutral_embeddings = self._embed(prompts.neutral, rate_docs)
        self.runs = [bool(by_id[i].manually_runnable) for i in rate_ids]

        assess_ids = _seeded_split([p.paper_id for p in self.papers if p.pitfalls], self.N_TRAIN, self.seed)
        texts = [by_id[i].paper_text for i in assess_ids]
        self.pitfall_directions = {}
        self.statuses = {}
        for spec in load_pitfall_specs():
            self.pitfall_directions[spec.pitfall_id] = self._concept_oracle(spec.prompts, texts)
            labels = [_pitfall_label(by_id[i].pitfalls.get(spec.pitfall_id)) for i in assess_ids]
            n_pos, n_neg = labels.count(1), labels.count(0)
            self.statuses[spec.pitfall_id] = (
                "trained" if min(n_pos, n_neg) >= 5 else "skipped_insufficient_data")

    def _commands(self, out: Path) -> tuple[list[str], ...]:
        n, c = str(self.N_TRAIN), str(self.corpus)
        common = ["--config", str(self.config), "--seed", str(self.seed)]
        return (
            [*common, "extract-concept", "--corpus", c, "--n-train", n,
             "--out-file", str(out / "concept.json")],
            [*common, "calibrate", "--corpus", c, "--concept", str(out / "concept.json"),
             "--n-train", n, "--out-file", str(out / "cutoff.json")],
            [*common, "assess-train", "--corpus", c, "--annotations", str(self.corpus / "ground_truth.csv"),
             "--n-train", n, "--bank-out", str(out / "bank.json"), "--model-out", str(out / "model.json")],
        )

    def op(self, out: Path, store: SpanStore | None):
        with contextlib.redirect_stdout(io.StringIO()):
            return [cli.main(argv) for argv in self._commands(out)]

    def check(self, out: Path, result) -> tuple[int, list[str]]:
        problems = [f"command {k} exited {code}" for k, code in enumerate(result) if code != 0]
        if problems:
            return self.papers_per_op, problems

        def agrees(direction, oracle, what):
            cos = abs(float(np.asarray(direction) @ oracle))
            if cos < 1 - 1e-9:
                problems.append(f"{what}: |cos| with the eigh oracle is {cos!r}")

        concept = json.loads((out / "concept.json").read_text("utf-8"))
        direction = np.asarray(concept["direction"])
        agrees(direction, self.rate_direction, "rate concept")

        cutoff = json.loads((out / "cutoff.json").read_text("utf-8"))
        scores = [float(e @ direction) for e in self.neutral_embeddings]
        recall, precision, threshold = _oracle_cutoff(scores, self.runs)
        if (abs(cutoff["threshold"] - threshold) > SCORE_TOL or cutoff["train_recall"] != recall
                or cutoff["train_precision"] != precision or cutoff["n_train"] != len(scores)):
            problems.append(f"cutoff {cutoff} differs from enumeration {(recall, precision, threshold)}")

        bank = json.loads((out / "bank.json").read_text("utf-8"))
        for entry in bank["entries"]:
            agrees(entry["concept"]["direction"], self.pitfall_directions[entry["pitfall_id"]],
                   f"pitfall {entry['pitfall_id']}")
        model = json.loads((out / "model.json").read_text("utf-8"))
        statuses = {c["pitfall_id"]: c["status"] for c in model["classifiers"]}
        if statuses != self.statuses:
            problems.append(f"classifier statuses {statuses} != expected {self.statuses}")

        problems += self._token_leaks(out)
        return (self.papers_per_op if problems else 0), problems


# --------------------------------------------------------------------------
# score and prepare share the fake server and the set-up training
# --------------------------------------------------------------------------

class _Served(Workload):
    DIM = 1024
    WORKERS = 2

    def _train_rate(self, papers: list[corpusgen.Paper], provider) -> tuple[object, list[float]]:
        """Concept from the papers' rate documents; their scores under it."""
        prompts = load_default_rate_prompts()
        docs = [_rate_doc(p) for p in papers]
        concept = extract_concept_vector(ProbeSet(tuple(docs)), prompts, provider)
        scores = [project_score(provider.embed(prompts.neutral, d), concept) for d in docs]
        return concept, scores

    def _providers(self, store: SpanStore | None):
        transport = self.server if store is None else store.wrap("gateway.transport", self.server)
        embed = RemoteEmbeddingProvider(
            ProviderConfig(endpoint_url=ENDPOINT, model_name=EMBED_MODEL, embedding_dim=self.DIM),
            transport=transport)
        chat = RemoteChatProvider(ProviderConfig(endpoint_url=ENDPOINT, model_name=CHAT_MODEL),
                                  transport=transport)
        if store is not None:
            embed = tracing.provider_proxy(store, embed)
            chat = tracing.chat_proxy(store, chat)
        return embed, chat

    def _render(self, out: Path, loaded, result) -> None:
        ground_truth = {e.paper_id: e.ground_truth for e in loaded.entries if e.ground_truth is not None}
        summary, jsonl = pipeline.render_report(result.reports, ground_truth)
        jsonio.write_text(out / "reports.jsonl", jsonl)
        jsonio.write_text(out / "summary.txt", summary)

    def _expected_rate(self, pid: str) -> float | None:
        text = self.rate_inputs.get(pid)
        return None if text is None else float(self.server.vector(text) @ self.rate_direction)

    def _check_rate(self, report: dict) -> list[str]:
        expected = self.expected_rate.get(report["paper_id"])
        rate = report["rate"]
        if expected is None:
            return [] if rate is None else ["rated without a readme"]
        if rate is None:
            return ["not rated"]
        problems = []
        if abs(rate["score"] - expected) > SCORE_TOL:
            problems.append(f"rate score {rate['score']!r} != {expected!r}")
        label = "runs" if rate["score"] >= self.threshold else "not_runs"
        if rate["label"] != label:
            problems.append(f"rate label {rate['label']} disagrees with cutoff")
        return problems


def classify_reply(reply: str) -> tuple[bool, bool]:
    """(parseable, denied) for one assistant reply, by the library's rules."""
    from aekit.prepare import command_denied, parse_action

    action = parse_action(ChatMessage("assistant", reply))
    if action is None:
        return False, False
    return True, action.kind == "RUN" and command_denied(action.payload) is not None


class Score(_Served):
    name = "score"
    N_PAPERS = 100
    N_TRAIN = 40
    papers_per_op = N_PAPERS

    def setup(self, root: Path) -> None:
        papers = corpusgen.make_papers(self.seed, self.N_PAPERS)
        self.corpus = root / "corpus"
        corpusgen.write_corpus(self.corpus, papers)
        self.server = FakeServer(self.seed, self.DIM, self.token)
        direct = DirectProvider(self.server)

        rated = [p for p in papers if p.readme_text]
        train_ids = set(_seeded_split([p.paper_id for p in rated], self.N_TRAIN, self.seed))
        train = [p for p in rated if p.paper_id in train_ids]
        concept, scores = self._train_rate(train, direct)
        cutoff = calibrate_cutoff(scores, ["runs" if p.manually_runnable else "not_runs" for p in train])
        bank = build_pitfall_bank(load_pitfall_specs(), ProbeSet(tuple(p.paper_text for p in train)), direct)
        model = train_assessor(
            [featurize(p.paper_text, bank, direct, paper_id=p.paper_id) for p in train],
            {p.paper_id: p.pitfalls for p in train}, bank.pitfall_ids)
        paths = {name: root / f"{name}.json" for name in ("concept", "cutoff", "bank", "model")}
        for name, artifact in zip(paths, (concept, cutoff, bank, model)):
            jsonio.write_text(paths[name], artifact.to_json())
        self.config = PipelineConfig(
            rate=RateSettings(True, str(paths["concept"]), str(paths["cutoff"])),
            assess=AssessSettings(True, str(paths["bank"]), str(paths["model"])),
            prepare=PrepareSettings(enabled=False),
            seed=self.seed,
            out_dir=str(root / "out"),
            workers=self.WORKERS,
        )

        neutral = load_default_rate_prompts().neutral
        self.rate_inputs = {p.paper_id: wire_input(neutral, _rate_doc(p)) for p in rated}
        self.assess_inputs = {
            p.paper_id: [wire_input(e.neutral_prompt, p.paper_text) for e in bank.entries] for p in papers}
        self.server.prerender(self.rate_inputs.values())
        self.server.prerender(t for texts in self.assess_inputs.values() for t in texts)
        self.rate_direction = concept.direction
        self.threshold = cutoff.threshold
        self.bank = bank
        self.model = model
        self.first_jsonl: bytes | None = None

    def prepare_checks(self) -> None:
        self.expected_rate = {pid: self._expected_rate(pid) for pid in self.rate_inputs}
        self.expected_assess = {
            pid: [float(self.server.vector(t) @ e.concept.direction) for t, e in zip(texts, self.bank.entries)]
            for pid, texts in self.assess_inputs.items()}
        self.statuses = [c.status for c in self.model.classifiers]

    def op(self, out: Path, store: SpanStore | None):
        embed, _ = self._providers(store)
        loaded = corpus.load_corpus(self.corpus)
        result = pipeline.run_pipeline(self.config, loaded.entries, embedding_provider=embed)
        self._render(out, loaded, result)
        return result

    def check(self, out: Path, result) -> tuple[int, list[str]]:
        jsonl = (out / "reports.jsonl").read_bytes()
        if self.first_jsonl is None:
            self.first_jsonl = jsonl
        elif jsonl != self.first_jsonl:
            return self.papers_per_op, ["reports.jsonl differs from the first op's"]
        reports = [json.loads(line) for line in jsonl.decode("utf-8").splitlines()]
        if sorted(r["paper_id"] for r in reports) != sorted(self.assess_inputs):
            return self.papers_per_op, ["reports do not cover the corpus"]
        failed, problems = 0, []
        for r in reports:
            own = [f"stage error {e}" for e in r["errors"]] + self._check_rate(r)
            findings = (r["assess"] or {}).get("findings", [])
            expected = self.expected_assess.get(r["paper_id"], [])
            if len(findings) != len(expected):
                own.append("wrong number of pitfall findings")
            for f, score, status in zip(findings, expected, self.statuses):
                if abs(f["score"] - score) > SCORE_TOL:
                    own.append(f"{f['pitfall_id']} score {f['score']!r} != {score!r}")
                if (f["label"] == "skipped") != (status != "trained"):
                    own.append(f"{f['pitfall_id']} label {f['label']} with classifier {status}")
            if own:
                failed += 1
                problems += [f"{r['paper_id']}: {p}" for p in own]
        leaks = self._token_leaks(out)
        return (self.papers_per_op if leaks else failed), problems + leaks


class Prepare(_Served):
    name = "prepare"
    N_PAPERS = 12
    N_README = 10
    N_GATED = 5
    papers_per_op = N_PAPERS
    LIMITS = PrepareLimits(max_iterations=corpusgen.BUDGET_ITERATIONS, command_timeout=60.0,
                           output_cap=corpusgen.OUTPUT_CAP)
    # Kinds for the papers that pass the gate, in paper-id order.  The
    # order is fixed so that the two workers get the same schedule for
    # every seed; the longest script goes first.
    KIND_ORDER = (corpusgen.KIND_BUDGET, corpusgen.KIND_SUCCESS_3, corpusgen.KIND_RECOVER,
                  corpusgen.KIND_PREMATURE_DONE, corpusgen.KIND_FAIL, corpusgen.KIND_UNPARSEABLE,
                  corpusgen.KIND_DENIED)

    def setup(self, root: Path) -> None:
        papers = corpusgen.make_papers(self.seed, self.N_PAPERS, n_readme=self.N_README, n_code=self.N_PAPERS)
        self.server = FakeServer(self.seed, self.DIM, self.token)
        rated = [p for p in papers if p.readme_text]
        concept, scores = self._train_rate(rated, DirectProvider(self.server))
        # The N_GATED lowest-scoring papers are annotated not runnable, so
        # the recall-first cutoff gates exactly those.
        order = sorted(range(len(rated)), key=lambda k: scores[k])
        runnable = {rated[k].paper_id: rank >= self.N_GATED for rank, k in enumerate(order)}
        cutoff = calibrate_cutoff(scores, ["runs" if runnable[p.paper_id] else "not_runs" for p in rated])
        papers = corpusgen.with_runnable(papers, runnable)
        self.corpus = root / "corpus"
        corpusgen.write_corpus(self.corpus, papers)

        self.gated = {pid for pid, runs in runnable.items() if not runs}
        passing = [p.paper_id for p in papers if p.paper_id not in self.gated]
        kinds = dict(zip(passing, self.KIND_ORDER))
        kinds.update({pid: corpusgen.KIND_SUCCESS_1 for pid in self.gated})
        scripts, self.expected = corpusgen.chat_scripts(self.seed, kinds)
        self.server.script_chat(scripts)
        neutral = load_default_rate_prompts().neutral
        self.rate_inputs = {p.paper_id: wire_input(neutral, _rate_doc(p)) for p in rated}
        self.server.prerender(self.rate_inputs.values())

        paths = {"concept": root / "concept.json", "cutoff": root / "cutoff.json"}
        jsonio.write_text(paths["concept"], concept.to_json())
        jsonio.write_text(paths["cutoff"], cutoff.to_json())
        self.rate_direction = concept.direction
        self.threshold = cutoff.threshold
        self.root = root
        self._warm_up(root / "warmup")

    def _warm_up(self, where: Path) -> None:
        """One sandbox command, so lazy start-up costs land in set-up."""
        from aekit.sandbox import open_sandbox

        box = open_sandbox(SandboxSpec(workdir=str(where)))
        try:
            box.run("true", self.LIMITS.command_timeout, self.LIMITS.output_cap)
        finally:
            box.close()

    def _config(self, out: Path) -> PipelineConfig:
        return PipelineConfig(
            rate=RateSettings(True, str(self.root / "concept.json"), str(self.root / "cutoff.json")),
            prepare=PrepareSettings(
                enabled=True, sandbox=SandboxSpec(workdir=str(out / "sandboxes")), limits=self.LIMITS),
            gate=True,
            seed=self.seed,
            out_dir=str(out),
            workers=self.WORKERS,
        )

    def prepare_checks(self) -> None:
        self.expected_rate = {pid: self._expected_rate(pid) for pid in self.rate_inputs}

    def op(self, out: Path, store: SpanStore | None):
        embed, chat = self._providers(store)
        loaded = corpus.load_corpus(self.corpus)
        result = pipeline.run_pipeline(
            self._config(out), loaded.entries, embedding_provider=embed, chat_factory=lambda _: chat)
        self._render(out, loaded, result)
        transcripts = out / "transcripts"
        transcripts.mkdir()
        for paper_id, outcome in sorted(result.prepare_outcomes.items()):
            jsonio.write_text(transcripts / f"{paper_id}.json", outcome.to_json())
        return result

    def _check_prepared(self, report: dict, outcome) -> list[str]:
        exp = self.expected[report["paper_id"]]
        summary = report["prepare"]
        if summary is None or outcome is None:
            return [f"{exp.kind}: not prepared"]
        got = (summary["outcome"], summary["steps"])
        if got != (exp.status, exp.commands):
            return [f"{exp.kind}: outcome {got} != {(exp.status, exp.commands)}"]
        problems = []
        if exp.exit_code is not None and summary["exit_code"] != exp.exit_code:
            problems.append(f"{exp.kind}: exit code {summary['exit_code']} != {exp.exit_code}")
        if exp.detail is not None and outcome.transcript.outcome_detail != exp.detail:
            problems.append(f"{exp.kind}: detail {outcome.transcript.outcome_detail!r}")
        truncated = sum(1 for s in outcome.transcript.steps if s.truncated)
        if truncated != exp.truncated_steps:
            problems.append(f"{exp.kind}: {truncated} truncated steps, expected {exp.truncated_steps}")
        if exp.status == "success":
            with tarfile.open(outcome.snapshot_ref) as tar:
                names = set(tar.getnames())
                for path, content in exp.files.items():
                    member = tar.extractfile(path) if path in names else None
                    if member is None or member.read().decode("utf-8") != content + "\n":
                        problems.append(f"{exp.kind}: snapshot lacks {path} as written")
        return problems

    def check(self, out: Path, result) -> tuple[int, list[str]]:
        reports = [json.loads(line) for line in (out / "reports.jsonl").read_text("utf-8").splitlines()]
        if sorted(r["paper_id"] for r in reports) != sorted(self.expected):
            return self.papers_per_op, ["reports do not cover the corpus"]
        failed, problems = 0, []
        for r in reports:
            pid = r["paper_id"]
            own = [f"stage error {e}" for e in r["errors"]] + self._check_rate(r)
            if pid in self.gated:
                if r["prepare"] is not None or r["pipeline_label"] != "skipped":
                    own.append("gated paper was prepared")
            else:
                own += self._check_prepared(r, result.prepare_outcomes.get(pid))
            if own:
                failed += 1
                problems += [f"{pid}: {p}" for p in own]
        leaks = self._token_leaks(out)
        return (self.papers_per_op if leaks else failed), problems + leaks


WORKLOADS = {w.name: w for w in (Train, Score, Prepare)}

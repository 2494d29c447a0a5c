"""Seeded synthetic corpora in the layout that ``aekit.corpus.load_corpus`` reads.

The same seed gives byte-identical papers, annotations and chat scripts.
The seed changes contents, never structure: paper counts, the readme
share, class balances and the mix of chat-script kinds are fixed by the
caller, so run time does not swing between seeds.

Layout written by :func:`write_corpus`::

    <root>/<paper_id>/paper.txt     tens of KB of text
    <root>/<paper_id>/readme.txt    for the readme share of papers
    <root>/<paper_id>/source.ref    for papers with code
    <root>/ground_truth.csv         runnability columns and P1..P10

:func:`make_papers` and :func:`chat_scripts` take the seed as an argument.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

PITFALL_IDS = tuple(f"P{i}" for i in range(1, 11))
# P10 is annotated present in only this many papers, so it always falls
# under the five-per-class rule and its classifier is skipped.
RARE_PITFALL = "P10"
RARE_PRESENT = 3
PITFALL_VALUES = ("present", "partial", "absent", "unclear", "")
PITFALL_WEIGHTS = (0.25, 0.10, 0.45, 0.10, 0.10)

SOURCE_PREFIX = "file://artifacts/"

_WORDS = np.array(
    """the a of to and in we our model data dataset training evaluation results
    method approach baseline attack defense malware detection classifier feature
    features sample samples network traffic binary binaries function analysis
    system systems security threat adversarial robust robustness accuracy precision
    recall false positive negative rate experiment experiments table figure section
    propose show demonstrate measure measured evaluate evaluated compare compared
    learning neural deep graph embedding vector representation token sequence
    android windows linux kernel firmware protocol packet flow session user users
    benign malicious label labels ground truth split test validation cross fold
    time temporal drift concept distribution bias sampling snooping leakage
    install run script config dependency dependencies version python docker gpu
    cuda requirements pip conda build compile execute reproduce artifact code
    repository download archive scripts notebook seed random deterministic""".split()
)
_SECTIONS = ("Abstract", "Introduction", "Background", "Method", "Evaluation",
             "Discussion", "Related Work", "Conclusion")


@dataclass(frozen=True)
class Paper:
    paper_id: str
    paper_text: str
    readme_text: str | None
    source_ref: str | None
    code_available: bool
    manually_runnable: bool | None
    pitfalls: dict[str, str] = field(default_factory=dict)


def _text(rng: np.random.Generator, n_bytes: int, headings: tuple[str, ...]) -> str:
    """Word salad of about n_bytes, in headed sections of 14-word lines."""
    n_words = max(40, n_bytes // 7)
    words = _WORDS[rng.integers(0, len(_WORDS), size=n_words)]
    lines = [" ".join(words[i:i + 14]) + "." for i in range(0, n_words, 14)]
    per_section = -(-len(lines) // len(headings))
    parts = []
    for k, heading in enumerate(headings):
        parts.append(f"## {heading}")
        parts.extend(lines[k * per_section:(k + 1) * per_section])
    return "\n".join(parts) + "\n"


def make_papers(
    seed: int,
    n: int,
    n_readme: int | None = None,
    n_code: int | None = None,
    paper_kb: tuple[int, int] = (10, 40),
) -> list[Paper]:
    """n papers with ids p0000..; exactly n_readme of them have a readme.

    Exactly n_code papers have code, every paper with a readme among
    them; by default half of the papers without a readme have code.
    Exactly half of the papers with code (rounded down) are annotated
    manually runnable.
    """
    if n_readme is None:
        n_readme = round(0.85 * n)
    if n_code is None:
        n_code = n_readme + (n - n_readme) // 2
    if not 0 <= n_readme <= n_code <= n:
        raise ValueError("need 0 <= n_readme <= n_code <= n")
    rng = np.random.default_rng([seed, n, 0xAE])
    order = rng.permutation(n)
    with_readme = set(order[:n_readme].tolist())
    with_code = set(order[:n_code].tolist())
    coded = sorted(with_code)
    runnable = set(rng.permutation(coded)[: len(coded) // 2].tolist())
    rare = set(rng.permutation(n)[:RARE_PRESENT].tolist())

    papers = []
    for i in range(n):
        paper_id = f"p{i:04d}"
        size = int(rng.integers(paper_kb[0] * 1024, paper_kb[1] * 1024 + 1))
        paper_text = f"# Paper {paper_id}\n" + _text(rng, size, _SECTIONS)
        readme = None
        if i in with_readme:
            readme = f"# {paper_id} artifact\n" + _text(
                rng, int(rng.integers(1024, 4097)), ("Install", "Usage", "Data"))
        pitfalls = {
            pid: str(v)
            for pid, v in zip(PITFALL_IDS[:-1], rng.choice(PITFALL_VALUES, size=9, p=PITFALL_WEIGHTS))
            if v
        }
        pitfalls[RARE_PITFALL] = "present" if i in rare else str(rng.choice(("absent", "unclear")))
        code = i in with_code
        papers.append(Paper(
            paper_id=paper_id,
            paper_text=paper_text,
            readme_text=readme,
            source_ref=SOURCE_PREFIX + paper_id if code else None,
            code_available=code,
            manually_runnable=(i in runnable) if code else None,
            pitfalls=pitfalls,
        ))
    return papers


def with_runnable(papers: list[Paper], runnable: dict[str, bool]) -> list[Paper]:
    """Copies of papers whose runnability annotation is overridden."""
    return [
        replace(p, manually_runnable=runnable[p.paper_id]) if p.paper_id in runnable else p
        for p in papers
    ]


def write_corpus(root: Path, papers: list[Paper]) -> None:
    root.mkdir(parents=True, exist_ok=True)
    for p in papers:
        d = root / p.paper_id
        d.mkdir()
        (d / "paper.txt").write_text(p.paper_text, encoding="utf-8")
        if p.readme_text is not None:
            (d / "readme.txt").write_text(p.readme_text, encoding="utf-8")
        if p.source_ref is not None:
            (d / "source.ref").write_text(p.source_ref + "\n", encoding="utf-8")

    def flag(value: bool | None) -> str:
        return "" if value is None else str(value).lower()

    with open(root / "ground_truth.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["paper_id", "code_available", "readme_present", "manually_runnable", *PITFALL_IDS])
        for p in papers:
            writer.writerow([
                p.paper_id, flag(p.code_available), flag(p.readme_text is not None),
                flag(p.manually_runnable), *(p.pitfalls.get(pid, "") for pid in PITFALL_IDS),
            ])


# --------------------------------------------------------------------------
# Chat scripts for the prepare agent
# --------------------------------------------------------------------------

KIND_SUCCESS_1 = "success_1"
KIND_SUCCESS_3 = "success_3"
KIND_RECOVER = "fail_then_recover"
KIND_PREMATURE_DONE = "done_after_nonzero"
KIND_FAIL = "fail"
KIND_UNPARSEABLE = "unparseable_then_recover"
KIND_DENIED = "denied_then_recover"
KIND_BUDGET = "budget_exhausted"

# The budget case runs one RUN per iteration, so the sandbox executes
# exactly this many commands before the loop gives up.
BUDGET_ITERATIONS = 6
# The big-output command prints more bytes than this cap.
OUTPUT_CAP = 8192


@dataclass(frozen=True)
class Expected:
    """What the prepare loop must report for one scripted paper."""

    kind: str
    status: str
    commands: int
    files: dict[str, str] = field(default_factory=dict)
    exit_code: int | None = None
    detail: str | None = None
    truncated_steps: int = 0
    reprompts: int = 0
    denied: int = 0


def _run(command: str) -> str:
    return f"I will run the next setup step.\n\nACTION: RUN\n```\n{command}\n```"


def _write(path: str, content: str) -> str:
    return f"mkdir -p env && printf '%s\\n' '{content}' > {path}"


def chat_script(kind: str, paper_id: str, rng: np.random.Generator) -> tuple[list[str], Expected]:
    """Assistant replies for one paper and the outcome they must produce."""
    tag = f"{paper_id}-{int(rng.integers(0, 2**31))}"
    ready = ("env/ready.txt", f"ready {tag}")
    config = ("env/setup.cfg", f"deps {tag} {_WORDS[int(rng.integers(len(_WORDS)))]}")
    done = f"ACTION: DONE artifact {paper_id} runs"
    if kind == KIND_SUCCESS_1:
        return [_run(_write(*ready)), done], Expected(
            kind, "success", 1, files=dict([ready]))
    if kind == KIND_SUCCESS_3:
        return [_run(_write(*config)), _run(f"seq 1 {OUTPUT_CAP // 2}"), _run(_write(*ready)), done], Expected(
            kind, "success", 3, files=dict([config, ready]), truncated_steps=1)
    if kind == KIND_RECOVER:
        return [_run("test -f env/ready.txt"), _run(_write(*ready)), done], Expected(
            kind, "success", 2, files=dict([ready]))
    if kind == KIND_PREMATURE_DONE:
        return [_run(f"test -d build/{paper_id}"), done], Expected(
            kind, "failure", 1, exit_code=1, detail="premature DONE: last command exited 1")
    if kind == KIND_FAIL:
        reason = f"dependency {tag} is not available"
        return [_run(_write(*config)), f"ACTION: FAIL {reason}"], Expected(
            kind, "failure", 1, exit_code=0, detail=reason)
    if kind == KIND_UNPARSEABLE:
        return ["Let me read the readme first and think about the dependencies.",
                _run(_write(*ready)), done], Expected(
            kind, "success", 1, files=dict([ready]), reprompts=1)
    if kind == KIND_DENIED:
        return [_run("vim env/setup.cfg"), _run(_write(*ready)), done], Expected(
            kind, "success", 1, files=dict([ready]), denied=1)
    if kind == KIND_BUDGET:
        replies = [_run(f"mkdir -p env && echo 'step {k} {tag}' >> env/log.txt")
                   for k in range(BUDGET_ITERATIONS)]
        return replies, Expected(
            kind, "budget_exhausted", BUDGET_ITERATIONS,
            detail=f"iteration budget of {BUDGET_ITERATIONS} exhausted")
    raise ValueError(f"unknown script kind: {kind!r}")


def chat_scripts(seed: int, kinds: dict[str, str]) -> tuple[dict[str, list[str]], dict[str, Expected]]:
    """Scripts and expectations for each paper id mapped to a kind."""
    scripts, expected = {}, {}
    for paper_id in sorted(kinds):
        rng = np.random.default_rng([seed, int(paper_id[1:]), 0xC4])
        scripts[paper_id], expected[paper_id] = chat_script(kinds[paper_id], paper_id, rng)
    return scripts, expected


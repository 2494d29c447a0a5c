"""Command-line surface for the evaluation toolkit.

Subcommands: extract-concept, calibrate, rate, prepare, assess-train,
assess, pipeline, evaluate.  Provider settings come from the --config
file (see load_pipeline_config); --seed overrides the configured seed.
Exit codes: 0 on batch completion, 2 on configuration errors (including a
calibration split that lacks one label class).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .assess import (
    AssessorModel,
    PitfallBank,
    assess_document,
    build_pitfall_bank,
    featurize,
    load_pitfall_specs,
    train_assessor,
)
from .corpus import (
    STAGE_ASSESS,
    STAGE_RATE,
    filter_for_stage,
    load_corpus,
    load_ground_truth,
    seeded_split,
)
from .jsonio import canonical_dumps, read_text, write_text
from .measure import ConceptVector, ProbeSet, PromptPair, extract_concept_vector, score_documents
from .metrics import count_confusion, metric_set, render_confusion_table
from .pipeline import (
    ConfigError,
    PipelineConfig,
    build_chat_factory,
    build_embedding_provider,
    load_pipeline_config,
    render_report,
    run_pipeline,
)
from .prepare import ArtifactBundle, PrepareLimits, run_prepare_loop
from .rate import (
    Cutoff,
    DegenerateLabels,
    LABEL_NOT_RUNS,
    LABEL_RUNS,
    RateInput,
    calibrate_cutoff,
    compose_rate_document,
    load_default_rate_prompts,
    rate_document,
)
EXIT_OK = 0
EXIT_CONFIG = 2


def _load_config(args) -> PipelineConfig:
    if args.config:
        config = load_pipeline_config(args.config)
    else:
        config = PipelineConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.out is not None:
        config = dataclasses.replace(config, out_dir=str(args.out))
    return config


def _train_entries(corpus_dir: str, stage: str, n_train: int, seed: int):
    """The stage's seeded training split, in train-id order."""
    subset = filter_for_stage(load_corpus(corpus_dir).entries, stage)
    if len(subset) <= n_train:
        raise ConfigError(
            f"{stage}-eligible corpus has {len(subset)} papers; need more than n_train={n_train}"
        )
    split = seeded_split(subset, n_train, seed)
    by_id = {e.paper_id: e for e in subset}
    return [by_id[pid] for pid in split.train_ids]


def _cmd_extract_concept(args) -> int:
    config = _load_config(args)
    provider = build_embedding_provider(config.embedding)
    train = _train_entries(args.corpus, STAGE_RATE, args.n_train, config.seed)
    if args.prompts:
        doc = json.loads(read_text(args.prompts))
        prompts = PromptPair(
            positive=doc["positive"],
            negative=doc["negative"],
            neutral=doc["neutral"],
            concept_name=doc["concept_name"],
        )
    else:
        prompts = load_default_rate_prompts()
    probes = ProbeSet(
        tuple(
            compose_rate_document(RateInput(e.paper_id, e.paper_text, e.readme_text))
            for e in train
        )
    )
    concept = extract_concept_vector(probes, prompts, provider)
    write_text(args.out_file, concept.to_json())
    print(f"concept vector ({concept.dim} dims, {probes.count} probes) -> {args.out_file}")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    config = _load_config(args)
    provider = build_embedding_provider(config.embedding)
    concept = ConceptVector.from_json(read_text(args.concept))
    neutral = load_default_rate_prompts().neutral
    train = [
        e for e in _train_entries(args.corpus, STAGE_RATE, args.n_train, config.seed)
        if e.ground_truth is not None and e.ground_truth.manually_runnable is not None
    ]
    docs = [compose_rate_document(RateInput(e.paper_id, e.paper_text, e.readme_text)) for e in train]
    scores = score_documents(provider, neutral, docs, concept).tolist()
    labels = [LABEL_RUNS if e.ground_truth.manually_runnable else LABEL_NOT_RUNS for e in train]
    cutoff = calibrate_cutoff(scores, labels)
    write_text(args.out_file, cutoff.to_json())
    n_runs = sum(1 for lab in labels if lab == LABEL_RUNS)
    print(
        f"cutoff {cutoff.threshold:.6g} (train recall {cutoff.train_recall:.3f}, "
        f"precision {cutoff.train_precision:.3f}, balance {n_runs}/{len(labels) - n_runs}) "
        f"-> {args.out_file}"
    )
    return EXIT_OK


def _cmd_rate(args) -> int:
    config = _load_config(args)
    provider = build_embedding_provider(config.embedding)
    concept = ConceptVector.from_json(read_text(args.concept))
    cutoff = Cutoff.from_json(read_text(args.cutoff))
    loaded = load_corpus(args.corpus)
    entries = filter_for_stage(loaded.entries, STAGE_RATE)
    neutral = load_default_rate_prompts().neutral
    with open(args.out_file, "w", encoding="utf-8") as fh:
        for entry in sorted(entries, key=lambda e: e.paper_id):
            verdict = rate_document(
                RateInput(entry.paper_id, entry.paper_text, entry.readme_text),
                concept,
                cutoff,
                provider,
                neutral_prompt=neutral,
            )
            fh.write(verdict.to_json() + "\n")
    print(f"rated {len(entries)} papers -> {args.out_file}")
    return EXIT_OK


def _cmd_prepare(args) -> int:
    config = _load_config(args)
    bundle_dir = Path(args.bundle)
    paper_path = bundle_dir / "paper.txt"
    ref_path = bundle_dir / "source.ref"
    if not paper_path.is_file() or not ref_path.is_file():
        raise ConfigError(f"bundle {bundle_dir} needs paper.txt and source.ref")
    readme_path = bundle_dir / "readme.txt"
    bundle = ArtifactBundle(
        paper_id=bundle_dir.name,
        paper_text=paper_path.read_text("utf-8"),
        source_ref=ref_path.read_text("utf-8").strip(),
        readme_text=readme_path.read_text("utf-8") if readme_path.is_file() else None,
    )

    backend = "local_process" if args.backend == "local" else args.backend
    spec = dataclasses.replace(config.prepare.sandbox, backend=backend)
    limits = config.prepare.limits
    if args.limits:
        doc = json.loads(read_text(args.limits))
        limits = PrepareLimits(
            max_iterations=int(doc.get("max_iterations", limits.max_iterations)),
            command_timeout=float(doc.get("timeout", limits.command_timeout)),
            output_cap=int(doc.get("output_cap", limits.output_cap)),
        )
    chat = build_chat_factory(config.chat)(bundle.paper_id)
    outcome = run_prepare_loop(bundle, spec, chat, limits)
    write_text(args.out_file, outcome.to_json())
    print(f"prepare outcome: {outcome.status} ({len(outcome.transcript.steps)} steps) -> {args.out_file}")
    return EXIT_OK


def _assess_features(entries, bank, provider):
    return [
        featurize(e.paper_text, bank, provider, paper_id=e.paper_id)
        for e in sorted(entries, key=lambda e: e.paper_id)
    ]


def _cmd_assess_train(args) -> int:
    config = _load_config(args)
    provider = build_embedding_provider(config.embedding)
    train = _train_entries(args.corpus, STAGE_ASSESS, args.n_train, config.seed)
    annotations = load_ground_truth(Path(args.annotations))

    specs = load_pitfall_specs(args.pitfalls)
    probes = ProbeSet(tuple(e.paper_text for e in train))
    bank = build_pitfall_bank(specs, probes, provider)
    write_text(args.bank_out, bank.to_json())

    features = _assess_features(train, bank, provider)
    pitfall_annotations = {
        pid: rec.pitfalls for pid, rec in annotations.items()
    }
    model = train_assessor(
        features, pitfall_annotations, bank.pitfall_ids, mode=args.mode
    )
    write_text(args.model_out, model.to_json())
    trained = sum(1 for c in model.classifiers if c.status == "trained")
    print(
        f"bank ({len(bank)} pitfalls) -> {args.bank_out}; "
        f"model ({trained} trained, {len(model.classifiers) - trained} skipped) -> {args.model_out}"
    )
    return EXIT_OK


def _cmd_assess(args) -> int:
    config = _load_config(args)
    provider = build_embedding_provider(config.embedding)
    bank = PitfallBank.from_json(read_text(args.bank))
    model = AssessorModel.from_json(read_text(args.model))
    loaded = load_corpus(args.corpus)
    entries = sorted(loaded.entries, key=lambda e: e.paper_id)
    with open(args.out_file, "w", encoding="utf-8") as fh:
        for entry in entries:
            report = assess_document(
                entry.paper_text, bank, model, provider, paper_id=entry.paper_id
            )
            fh.write(report.to_json() + "\n")
    print(f"assessed {len(entries)} papers -> {args.out_file}")
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    config = _load_config(args)
    loaded = load_corpus(args.corpus)
    result = run_pipeline(config, loaded.entries)

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ground_truth = {
        e.paper_id: e.ground_truth for e in loaded.entries if e.ground_truth is not None
    }
    summary, jsonl = render_report(result.reports, ground_truth)
    write_text(out_dir / "reports.jsonl", jsonl)
    write_text(out_dir / "summary.txt", summary)

    transcripts_dir = out_dir / "transcripts"
    transcripts_dir.mkdir(exist_ok=True)
    for paper_id, outcome in sorted(result.prepare_outcomes.items()):
        write_text(transcripts_dir / f"{paper_id}.json", outcome.to_json())

    sys.stdout.write(summary)
    print(f"reports -> {out_dir / 'reports.jsonl'}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    ground_truth = load_ground_truth(Path(args.ground_truth))
    pairs = []
    seen: set[str] = set()
    with open(args.predictions, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            paper_id = doc["paper_id"]
            if paper_id in seen:
                raise ConfigError(f"predictions name paper {paper_id!r} more than once")
            seen.add(paper_id)
            record = ground_truth.get(paper_id)
            if record is None or record.manually_runnable is None:
                continue
            if args.field == "rate":
                label = doc["label"] if "label" in doc else (doc.get("rate") or {}).get("label")
            else:
                label = doc.get("pipeline_label")
            if label is not None:
                pairs.append((label == "runs", record.manually_runnable))
    cm = count_confusion(pairs)
    if cm.total == 0:
        raise ConfigError("no prediction lines matched annotated papers")
    ms = metric_set(cm)
    table = render_confusion_table(cm, system_label=args.field.capitalize())
    if args.out_file:
        write_text(args.out_file, ms.to_json())
    print(table)
    print(canonical_dumps(json.loads(ms.to_json())))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aekit", description=__doc__)
    parser.add_argument("--config", help="pipeline config file (INI, one section per stage)")
    parser.add_argument("--seed", type=int, default=None, help="override the configured seed")
    parser.add_argument("--out", default=None, help="output directory override")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract-concept", help="distill a reproducibility concept vector")
    p.add_argument("--corpus", required=True)
    p.add_argument("--prompts", default=None, help="prompt pair JSON (default: shipped asset)")
    p.add_argument("--n-train", type=int, default=12)
    p.add_argument("--out-file", required=True)
    p.set_defaults(func=_cmd_extract_concept)

    p = sub.add_parser("calibrate", help="pick the recall-maximizing score cutoff")
    p.add_argument("--corpus", required=True)
    p.add_argument("--concept", required=True)
    p.add_argument("--n-train", type=int, default=12)
    p.add_argument("--out-file", required=True)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("rate", help="score papers and emit runs/not-runs verdicts")
    p.add_argument("--corpus", required=True)
    p.add_argument("--concept", required=True)
    p.add_argument("--cutoff", required=True)
    p.add_argument("--out-file", required=True)
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("prepare", help="agent-driven environment setup for one bundle")
    p.add_argument("--bundle", required=True, help="directory with paper.txt and source.ref")
    p.add_argument("--backend", choices=["container", "local"], default="local")
    p.add_argument("--limits", default=None, help="JSON with max_iterations/timeout/output_cap")
    p.add_argument("--out-file", required=True)
    p.set_defaults(func=_cmd_prepare)

    p = sub.add_parser("assess-train", help="build the pitfall bank and train classifiers")
    p.add_argument("--corpus", required=True)
    p.add_argument("--annotations", required=True, help="ground truth CSV")
    p.add_argument("--pitfalls", default=None, help="pitfall prompts JSON (default: shipped asset)")
    p.add_argument("--n-train", type=int, default=10)
    p.add_argument("--mode", choices=["univariate", "full_vector"], default="univariate")
    p.add_argument("--bank-out", required=True)
    p.add_argument("--model-out", required=True)
    p.set_defaults(func=_cmd_assess_train)

    p = sub.add_parser("assess", help="apply trained pitfall classifiers to a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--bank", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out-file", required=True)
    p.set_defaults(func=_cmd_assess)

    p = sub.add_parser("pipeline", help="run the enabled stages over a corpus")
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("evaluate", help="confusion matrix and metrics vs ground truth")
    p.add_argument("--predictions", required=True, help="JSON-lines verdicts")
    p.add_argument("--ground-truth", required=True, help="ground truth CSV")
    p.add_argument("--field", choices=["pipeline", "rate"], default="pipeline")
    p.add_argument("--out-file", default=None)
    p.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, DegenerateLabels) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

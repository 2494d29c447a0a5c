"""Command-line surface for the evaluation toolkit.

Subcommands: extract-concept, calibrate, rate, prepare, assess-train,
assess, pipeline, evaluate.  Provider settings come from the --config
file (see load_pipeline_config); --seed overrides the configured seed.

Exit codes: 0 on batch completion.  2 when aekit refuses an input's
content (ConfigError) or a path the user gave cannot be used (an OSError
that names its path); the message on stderr names the file or path.  Any
other exception ends in a traceback with exit 1, and apart from a
provider failure (GatewayError) and a closed stdout that is an aekit
defect.  The content checks: a malformed input file (an unknown section
or key in the --config INI and an unknown label in --predictions count),
an --n-train out of range, a calibration split that lacks one label
class, an --annotations file that lacks a training paper, a --bank and
--model that do not match and a paper annotated with a readme that has
no readme.txt.  A corpus directory that cannot be loaded is skipped and
named on stderr; a corpus left with no paper exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .assess import (
    STATUS_TRAINED,
    AssessorModel,
    PitfallBank,
    assess_documents,
    build_pitfall_bank,
    check_alignment,
    featurize,
    load_pitfall_specs,
    train_assessor,
)
from .corpus import (
    README_MISSING,
    STAGE_ASSESS,
    STAGE_RATE,
    _read_paper_dir,
    filter_for_stage,
    load_corpus,
    load_ground_truth,
    seeded_split,
    wants_rating,
)
from .jsonio import checked_input, dumps_jsonl, json_object, load_artifact, write_text
from .measure import MIN_PROBES, ConceptVector, ProbeSet, PromptPair, extract_concept_vector, score_documents
from .metrics import metric_set, paired_confusion, render_confusion_table
from .pipeline import (
    PIPELINE_NOT_RUNS,
    PIPELINE_RUNS,
    PIPELINE_SKIPPED,
    ConfigError,
    PipelineConfig,
    build_chat_factory,
    build_embedding_provider,
    closing_built,
    load_pipeline_config,
    render_report,
    run_pipeline,
)
from .prepare import ArtifactBundle, run_prepare_loop
from .rate import (
    Cutoff,
    LABEL_NOT_RUNS,
    LABEL_RUNS,
    RateInput,
    calibrate_cutoff,
    compose_rate_document,
    load_default_rate_prompts,
    rate_documents,
)

EXIT_OK = 0
EXIT_CONFIG = 2
# The labels `evaluate` accepts in each --field; the first is the positive one.
_EVALUATED_LABELS = {
    "pipeline": (PIPELINE_RUNS, PIPELINE_NOT_RUNS, PIPELINE_SKIPPED),
    "rate": (LABEL_RUNS, LABEL_NOT_RUNS),
}


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


def _load_corpus(root):
    """:func:`load_corpus`, naming each skipped entry on stderr; ConfigError if no paper loads."""
    loaded = load_corpus(root)
    for error in loaded.errors:
        print(f"skipped {error}", file=sys.stderr)
    if not loaded.entries:
        raise ConfigError(f"corpus {root} has no paper to run")
    return loaded


def _rate_inputs(entries) -> list[RateInput]:
    """The entries' rate inputs; ConfigError naming any paper without readme text."""
    missing = [e.paper_id for e in entries if not e.readme_text]
    if missing:
        raise ConfigError(f"{README_MISSING} for: {', '.join(missing)}")
    return [RateInput(e.paper_id, e.paper_text, e.readme_text) for e in entries]


def _train_entries(corpus_dir: str, stage: str, n_train: int, seed: int, minimum: int):
    """The stage's seeded training split of at least ``minimum`` papers, in train-id order."""
    if n_train < minimum:
        raise ConfigError(f"--n-train must be at least {minimum}, got {n_train}")
    subset = filter_for_stage(_load_corpus(corpus_dir).entries, stage)
    if len(subset) <= n_train:
        raise ConfigError(
            f"{stage}-eligible corpus has {len(subset)} papers; need more than n_train={n_train}"
        )
    split = seeded_split(subset, n_train, seed)
    by_id = {e.paper_id: e for e in subset}
    return [by_id[pid] for pid in split.train_ids]


def _cmd_extract_concept(args) -> int:
    config = _load_config(args)
    with closing_built(build_embedding_provider(config.embedding)) as provider:
        train = _train_entries(args.corpus, STAGE_RATE, args.n_train, config.seed, MIN_PROBES)
        prompts = load_artifact(PromptPair, args.prompts) if args.prompts else load_default_rate_prompts()
        probes = ProbeSet(tuple(compose_rate_document(i) for i in _rate_inputs(train)))
        concept = extract_concept_vector(probes, prompts, provider)
    write_text(args.out_file, concept.to_json())
    print(f"concept vector ({concept.dim} dims, {probes.count} probes) -> {args.out_file}")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    config = _load_config(args)
    with closing_built(build_embedding_provider(config.embedding)) as provider:
        concept = load_artifact(ConceptVector, args.concept)
        neutral = load_default_rate_prompts().neutral
        # A cutoff is calibrated on at least two papers, one of each label.
        train = [
            e for e in _train_entries(args.corpus, STAGE_RATE, args.n_train, config.seed, 2)
            if e.ground_truth is not None and e.ground_truth.manually_runnable is not None
        ]
        docs = [compose_rate_document(i) for i in _rate_inputs(train)]
        scores = score_documents(provider, neutral, docs, concept).tolist()
    labels = [LABEL_RUNS if e.ground_truth.manually_runnable else LABEL_NOT_RUNS for e in train]
    with checked_input(f"corpus {args.corpus}"):
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
    with closing_built(build_embedding_provider(config.embedding)) as provider:
        concept = load_artifact(ConceptVector, args.concept)
        cutoff = load_artifact(Cutoff, args.cutoff)
        entries = [e for e in _load_corpus(args.corpus).entries if wants_rating(e)]
        inputs = _rate_inputs(sorted(entries, key=lambda e: e.paper_id))
        verdicts = rate_documents(inputs, concept, cutoff, provider)
    write_text(args.out_file, dumps_jsonl(v.to_dict() for v in verdicts))
    print(f"rated {len(verdicts)} papers -> {args.out_file}")
    return EXIT_OK


def _cmd_prepare(args) -> int:
    config = _load_config(args)
    bundle_dir = Path(args.bundle)
    with checked_input(f"bundle {bundle_dir}"):
        entry = _read_paper_dir(bundle_dir)
        bundle = ArtifactBundle(entry.paper_id, entry.paper_text, entry.source_ref, entry.readme_text)

    spec = config.prepare.sandbox
    if args.backend is not None:
        with checked_input(f"--backend {args.backend}"):
            spec = dataclasses.replace(spec, backend=args.backend)
    with closing_built(build_chat_factory(config.chat)) as chat_factory:
        outcome = run_prepare_loop(bundle, spec, chat_factory(bundle.paper_id), config.prepare.limits)
    write_text(args.out_file, outcome.to_json())
    print(f"prepare outcome: {outcome.status} ({len(outcome.transcript.steps)} steps) -> {args.out_file}")
    return EXIT_OK


def _cmd_assess_train(args) -> int:
    config = _load_config(args)
    with closing_built(build_embedding_provider(config.embedding)) as provider:
        train = _train_entries(args.corpus, STAGE_ASSESS, args.n_train, config.seed, MIN_PROBES)
        by_id = sorted(train, key=lambda e: e.paper_id)
        annotations = load_ground_truth(Path(args.annotations))
        with checked_input(f"annotations {args.annotations}"):
            for e in by_id:
                if e.paper_id not in annotations:
                    raise ValueError(f"no annotation for paper {e.paper_id!r}")

        specs = load_pitfall_specs(args.pitfalls)
        probes = ProbeSet(tuple(e.paper_text for e in train))
        bank = build_pitfall_bank(specs, probes, provider)
        features = [featurize(e.paper_text, bank, provider, paper_id=e.paper_id) for e in by_id]
    pitfall_annotations = {
        pid: rec.pitfalls for pid, rec in annotations.items()
    }
    model = train_assessor(features, pitfall_annotations, bank.pitfall_ids, mode=args.mode)
    # Both files are written only once the model is trained.
    write_text(args.bank_out, bank.to_json())
    write_text(args.model_out, model.to_json())
    trained = sum(1 for c in model.classifiers if c.status == STATUS_TRAINED)
    print(
        f"bank ({len(bank)} pitfalls) -> {args.bank_out}; "
        f"model ({trained} trained, {len(model.classifiers) - trained} skipped) -> {args.model_out}"
    )
    return EXIT_OK


def _cmd_assess(args) -> int:
    config = _load_config(args)
    with closing_built(build_embedding_provider(config.embedding)) as provider:
        bank = load_artifact(PitfallBank, args.bank)
        model = load_artifact(AssessorModel, args.model)
        with checked_input(f"--bank {args.bank} and --model {args.model}"):
            check_alignment(bank, model)
        entries = sorted(_load_corpus(args.corpus).entries, key=lambda e: e.paper_id)
        reports = assess_documents([(e.paper_id, e.paper_text) for e in entries], bank, model, provider)
    write_text(args.out_file, dumps_jsonl(r.to_dict() for r in reports))
    print(f"assessed {len(reports)} papers -> {args.out_file}")
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    config = _load_config(args)
    loaded = _load_corpus(args.corpus)
    result = run_pipeline(config, loaded.entries)

    out_dir = Path(config.out_dir)
    transcripts_dir = out_dir / "transcripts"
    # Both directories are made before any file is written, so one that
    # cannot be made leaves no report behind.
    transcripts_dir.mkdir(parents=True, exist_ok=True)
    ground_truth = {
        e.paper_id: e.ground_truth for e in loaded.entries if e.ground_truth is not None
    }
    summary, jsonl = render_report(result.reports, ground_truth)
    write_text(out_dir / "reports.jsonl", jsonl)
    write_text(out_dir / "summary.txt", summary)
    for paper_id, outcome in sorted(result.prepare_outcomes.items()):
        write_text(transcripts_dir / f"{paper_id}.json", outcome.to_json())

    sys.stdout.write(summary)
    print(f"reports -> {out_dir / 'reports.jsonl'}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    ground_truth = load_ground_truth(Path(args.ground_truth))
    labels = _EVALUATED_LABELS[args.field]
    predicted: dict[str, bool | None] = {}
    with checked_input(f"predictions {args.predictions}"), open(args.predictions, encoding="utf-8-sig") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            doc = json_object(line, f"line {number}")
            paper_id = doc.get("paper_id")
            if paper_id is None:
                raise ValueError(f"line {number} has no paper_id")
            if not isinstance(paper_id, str):
                raise ValueError(f"line {number} has paper_id {paper_id!r}, which is not a string")
            if paper_id in predicted:
                raise ValueError(f"predictions name paper {paper_id!r} more than once")
            if args.field == "rate":
                rate = {} if doc.get("rate") is None else doc["rate"]
                if not isinstance(rate, dict):
                    raise ValueError(f"line {number} has a rate that is not a JSON object")
                label = doc.get("label", rate.get("label"))
            else:
                label = doc.get("pipeline_label")
            if label is not None and label not in labels:
                raise ValueError(f"line {number} has label {label!r}")
            predicted[paper_id] = None if label is None else label == labels[0]
    cm = paired_confusion(predicted, {pid: record.manually_runnable for pid, record in ground_truth.items()})
    if cm.total == 0:
        raise ConfigError("no prediction lines matched annotated papers")
    ms = metric_set(cm)
    table = render_confusion_table(cm, system_label=args.field.capitalize())
    if args.out_file:
        write_text(args.out_file, ms.to_json())
    print(table)
    print(ms.to_json())
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

    p = sub.add_parser(
        "calibrate", help="set the cutoff at the lowest runs-class training score (recall 1.0)"
    )
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
    p.add_argument("--backend", choices=["container", "local"], default=None,
                   help="sandbox backend (default: [prepare] backend from --config, else local)")
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
    except (ConfigError, OSError) as exc:
        # An OSError that names no path (a closed stdout) is no input's fault.
        if isinstance(exc, OSError) and exc.filename is None:
            raise
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

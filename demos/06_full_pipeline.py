#!/usr/bin/env python3
"""The full pipeline on the bundled six-paper mock corpus.

Flow: distill a reproducibility concept vector from a seeded training
split, calibrate the runs/not-runs cutoff on the same split, build the
pitfall bank and classifiers, then run rate -> gate -> prepare -> assess
over the whole corpus.  Everything is deterministic: mock embeddings,
scripted agent replies, fixed seed.  The work directory, a temporary
directory holding the trained assets, sandboxes and outputs, is removed
on exit.

Equivalent CLI session (from the repository root):

    aekit --config pipeline.ini extract-concept --corpus tests/data/mock_corpus \
        --n-train 3 --out-file concept.json
    aekit --config pipeline.ini calibrate --corpus tests/data/mock_corpus \
        --concept concept.json --n-train 3 --out-file cutoff.json
    aekit --config pipeline.ini assess-train --corpus tests/data/mock_corpus \
        --annotations tests/data/mock_corpus/ground_truth.csv --n-train 3 \
        --bank-out bank.json --model-out model.json
    aekit --config pipeline.ini --out out pipeline --corpus tests/data/mock_corpus
"""

import atexit
import json
import shutil
import sys
import tempfile
from pathlib import Path

from aekit.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS = REPO_ROOT / "tests" / "data" / "mock_corpus"
SCRIPTS = REPO_ROOT / "tests" / "data" / "prepare_scripts.json"

work = Path(tempfile.mkdtemp(prefix="aekit-pipeline-demo-"))
atexit.register(shutil.rmtree, work, ignore_errors=True)
corpus = work / "corpus"
shutil.copytree(CORPUS, corpus)
scripts = work / "scripts.json"
shutil.copy(SCRIPTS, scripts)

config = work / "pipeline.ini"
config.write_text(f"""\
[embedding]
kind = mock
seed = 11
dim = 48

[chat]
kind = scripted
script = {scripts}

[rate]
enabled = true
concept = {work / "concept.json"}
cutoff = {work / "cutoff.json"}

[assess]
enabled = true
bank = {work / "bank.json"}
model = {work / "model.json"}

[prepare]
enabled = true
backend = local
workdir = {work / "boxes"}
max_iterations = 8
command_timeout = 30

[pipeline]
gate = true
seed = 0
""")


def run(*argv):
    print(f"$ aekit {' '.join(str(a) for a in argv)}")
    code = main([str(a) for a in argv])
    print()
    if code != 0:
        sys.exit(code)


run("--config", config, "extract-concept", "--corpus", corpus,
    "--n-train", "3", "--out-file", work / "concept.json")
run("--config", config, "calibrate", "--corpus", corpus,
    "--concept", work / "concept.json", "--n-train", "3",
    "--out-file", work / "cutoff.json")
run("--config", config, "assess-train", "--corpus", corpus,
    "--annotations", corpus / "ground_truth.csv", "--n-train", "3",
    "--bank-out", work / "bank.json", "--model-out", work / "model.json")
run("--config", config, "--out", work / "out", "pipeline", "--corpus", corpus)

print("per-paper verdicts (reports.jsonl):")
for line in (work / "out" / "reports.jsonl").read_text().strip().splitlines():
    doc = json.loads(line)
    rate = doc["rate"]["label"] if doc["rate"] else "-"
    prepare = doc["prepare"]["outcome"] if doc["prepare"] else "-"
    print(f"  {doc['paper_id']}: rate={rate:9} prepare={prepare:17} "
          f"pipeline={doc['pipeline_label']}")

print("\nsummary.txt:")
print((work / "out" / "summary.txt").read_text(), end="")

#!/usr/bin/env python3
"""The environment-preparation agent loop on a toy repository.

A chat model drives a sandboxed shell through an explicit protocol:
ACTION: RUN (one command), ACTION: DONE <summary>, ACTION: FAIL <reason>.
Command output is fed back after every step.  Success is checked
mechanically (the last command must exit 0), never trusted from the
model, and a successful sandbox is archived as a snapshot.

This demo replays scripted agent messages, so it runs without any model.
Its temporary work directory, snapshots included, is removed on exit.
"""

import atexit
import shutil
import tempfile
from pathlib import Path

from aekit.gateway import ChatMessage, ScriptedChatProvider
from aekit.prepare import ArtifactBundle, PrepareLimits, run_prepare_loop
from aekit.sandbox import SandboxSpec

workdir = Path(tempfile.mkdtemp(prefix="aekit-demo-"))
atexit.register(shutil.rmtree, workdir, ignore_errors=True)

# A tiny "artifact repository" to set up.
repo = workdir / "toy-repo"
repo.mkdir()
(repo / "hello.sh").write_text("#!/bin/sh\necho toy artifact output\n")

bundle = ArtifactBundle(
    paper_id="toy-artifact",
    paper_text="A toy paper whose artifact prints one line of output.",
    source_ref=str(repo),
    readme_text="Run hello.sh with any POSIX shell.",
)
spec = SandboxSpec(backend="local_process", workdir=str(workdir / "boxes"))
limits = PrepareLimits(max_iterations=8, command_timeout=30, output_cap=4096)


def replay(title, script):
    print(f"--- {title} ---")
    chat = ScriptedChatProvider([ChatMessage("assistant", m) for m in script])
    outcome = run_prepare_loop(bundle, spec, chat, limits, snapshot_dir=workdir / "snaps")
    for i, step in enumerate(outcome.transcript.steps, 1):
        print(f"  step {i}: {step.command!r} -> exit {step.exit_code}")
    print(f"  outcome: {outcome.status}")
    if outcome.snapshot_ref:
        print(f"  snapshot: {Path(outcome.snapshot_ref).name}")
    if outcome.error_report:
        print(f"  failed command: {outcome.error_report.failed_command!r} "
              f"(exit {outcome.error_report.exit_code})")
        print(f"  diagnosis: {outcome.error_report.diagnosis_text}")
    print()


replay(
    "happy path: copy the repo, run it, declare done",
    [
        f"ACTION: RUN\n```\ncp -r {repo}/. .\n```",
        "ACTION: RUN\n```\nsh hello.sh\n```",
        "ACTION: DONE artifact runs and prints its output",
    ],
)

replay(
    "agent gives up after a failure",
    [
        "ACTION: RUN\n```\npip install nonexistent-package-xyz 2>/dev/null\n```",
        "ACTION: FAIL the required package cannot be installed",
    ],
)

replay(
    "premature DONE is caught mechanically",
    [
        "ACTION: RUN\n```\nexit 3\n```",
        "ACTION: DONE everything is fine, trust me",
    ],
)

replay(
    "interactive editors are screened out",
    [
        "ACTION: RUN\n```\nnano config.txt\n```",
        "ACTION: RUN\n```\nprintf 'edited = true\\n' > config.txt\n```",
        "ACTION: DONE config written non-interactively",
    ],
)
